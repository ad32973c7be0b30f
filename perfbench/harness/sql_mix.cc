// sql_mix: a closed loop of 3 dashboard clients and 1 trickle-INSERT
// client under workload-manager pools, with the Tuple Mover on, over a
// fact/dim pair with co-sorted projections. Dashboards issue filtered
// GROUP BYs, merge joins, point selects and counts; the loader writes
// its own table and checks its row count after every INSERT, so every
// read answer stays checkable. Many small statements: per-statement
// overhead (parse, plan, compile cache, WM admission) dominates, and
// mergeout runs beside the scans.
//
// The timed phase is a series of rounds, each on a freshly staged fabric
// (its staging is the set-up that setup_s times). Rounds alternate
// between kVariants datasets; a round repeats an earlier round's inputs
// exactly, so it must reproduce every statement's virtual seconds and
// the round's counter deltas.

#include <map>
#include <memory>

#include "common/random.h"
#include "harness/checks.h"
#include "harness/harness.h"
#include "harness/probes.h"
#include "sim/waitable.h"

namespace perfbench {

namespace {

using fabric::Rng;
using fabric::Status;
using fabric::StrCat;
using fabric::bench::Fabric;
using fabric::storage::Row;
using fabric::storage::Value;

constexpr int kFactRows = 4000;
constexpr double kDataScale = 100;
constexpr int kDimRows = 64;
constexpr int kFactBatch = 500;
constexpr int kDashboards = 3;
constexpr int kStatementsPerClient = 100;
constexpr int kInsertRows = 8;
constexpr int kVariants = 2;
constexpr int kMinOps = 1000;
constexpr int kDashboardConcurrency = 2;
constexpr int kEtlConcurrency = 1;
const char* const kRegions[] = {"east", "west",   "north", "south",
                                "centre", "apac", "emea",  "latam"};

fabric::bench::FabricOptions Options() {
  fabric::bench::FabricOptions options;
  // Each real row stands for kDataScale rows of the modelled database,
  // so scans and joins, not fixed per-statement charges, set the virtual
  // latencies and their tail.
  options.real_rows = kFactRows;
  options.paper_rows = kFactRows * kDataScale;
  fabric::vertica::wm::PoolConfig general;
  general.name = "general";
  general.max_concurrency = 4;
  general.memory_budget = 64 << 20;
  fabric::vertica::wm::PoolConfig dashboard;
  // No cascade: three dashboard clients share two slots, so the
  // admission queue is part of the measured latency.
  dashboard.name = "dashboard";
  dashboard.priority = 10;
  dashboard.max_concurrency = kDashboardConcurrency;
  dashboard.memory_budget = 16 << 20;
  fabric::vertica::wm::PoolConfig etl;
  etl.name = "etl";
  etl.cascade_to = "general";
  etl.max_concurrency = kEtlConcurrency;
  etl.memory_budget = 16 << 20;
  options.workload.pools = {general, dashboard, etl};
  return options;
}

struct Dataset {
  std::vector<Row> fact;  // f_id, f_dim, f_qty, f_price
  std::vector<Row> dim;   // d_id, d_region, d_tier
};

Dataset MakeDataset(uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  for (int i = 0; i < kFactRows; ++i) {
    d.fact.push_back({Value::Int64(i),
                      Value::Int64(static_cast<int64_t>(rng.NextUint64(kDimRows))),
                      Value::Int64(static_cast<int64_t>(rng.NextUint64(100))),
                      Value::Int64(1 + static_cast<int64_t>(rng.NextUint64(1000)))});
  }
  for (int j = 0; j < kDimRows; ++j) {
    d.dim.push_back({Value::Int64(j), Value::Varchar(kRegions[j % 8]),
                     Value::Int64(j % 4)});
  }
  return d;
}

std::string ValuesList(const std::vector<Row>& rows, size_t begin,
                       size_t end) {
  std::string values;
  for (size_t i = begin; i < end; ++i) {
    values += i > begin ? ", (" : "(";
    for (size_t c = 0; c < rows[i].size(); ++c) {
      values += (c > 0 ? ", " : "") + rows[i][c].ToSqlLiteral();
    }
    values += ")";
  }
  return values;
}

std::vector<std::string> SchemaSql() {
  return {
      "CREATE TABLE fact (f_id INTEGER, f_dim INTEGER, f_qty INTEGER, "
      "f_price INTEGER) SEGMENTED BY HASH(f_id) ALL NODES",
      "CREATE TABLE dim (d_id INTEGER, d_region VARCHAR, d_tier INTEGER) "
      "SEGMENTED BY HASH(d_id) ALL NODES",
      "CREATE TABLE events (e_id INTEGER, e_client INTEGER, e_val INTEGER) "
      "SEGMENTED BY HASH(e_id) ALL NODES",
      "CREATE PROJECTION fact_by_dim AS SELECT f_dim, f_qty, f_price FROM "
      "fact ORDER BY f_dim SEGMENTED BY HASH(f_dim)",
      "CREATE PROJECTION dim_by_id AS SELECT d_id, d_region, d_tier FROM "
      "dim ORDER BY d_id SEGMENTED BY HASH(d_id)",
  };
}

// A fabric with the schema, projections and `data` loaded, and the Tuple
// Mover's follow-up work finished.
std::unique_ptr<Fabric> Stage(const Dataset& data) {
  auto fabric = std::make_unique<Fabric>(Options());
  std::vector<std::string> statements = SchemaSql();
  for (size_t begin = 0; begin < data.fact.size(); begin += kFactBatch) {
    size_t end = std::min(data.fact.size(), begin + kFactBatch);
    statements.push_back(StrCat("INSERT /*+ DIRECT */ INTO fact VALUES ",
                                ValuesList(data.fact, begin, end)));
  }
  statements.push_back(StrCat("INSERT INTO dim VALUES ",
                              ValuesList(data.dim, 0, data.dim.size())));
  Status status;
  fabric->RunTimed([&](fabric::sim::Process& driver) {
    status = [&]() -> Status {
      FABRIC_ASSIGN_OR_RETURN(auto session,
                              fabric->db()->Connect(driver, 0, nullptr));
      for (const std::string& sql : statements) {
        FABRIC_RETURN_IF_ERROR(session->Execute(driver, sql).status());
      }
      return session->Close(driver);
    }();
  });
  FABRIC_CHECK_OK(status);
  return fabric;
}

// One statement of a client's script with its reference answer.
struct Statement {
  std::string kind;
  std::string sql;
  std::vector<Row> expected;  // SELECTs
  int64_t affected = -1;      // INSERTs
};

// Reference answers, computed from the generated data. SUM over an
// INTEGER column yields FLOAT in the fabric's SQL engine; the sums here
// stay far below 2^53, so they are exact either way.
class Oracle {
 public:
  explicit Oracle(const Dataset& data) : data_(data) {
    for (const Row& row : data.dim) {
      region_of_[row[0].int64_value()] = row[1].varchar_value();
    }
  }

  Statement GroupBy(int64_t min_qty) const {
    std::map<int64_t, std::pair<int64_t, int64_t>> groups;
    for (const Row& row : data_.fact) {
      if (row[2].int64_value() < min_qty) continue;
      auto& g = groups[row[1].int64_value()];
      ++g.first;
      g.second += row[2].int64_value();
    }
    Statement s{"groupby",
                StrCat("SELECT f_dim, COUNT(*), SUM(f_qty) FROM fact WHERE "
                       "f_qty >= ",
                       min_qty, " GROUP BY f_dim ORDER BY f_dim"),
                {}};
    for (const auto& [dim, g] : groups) {
      s.expected.push_back({Value::Int64(dim), Value::Int64(g.first),
                            Value::Float64(static_cast<double>(g.second))});
    }
    return s;
  }

  Statement Join(int64_t min_qty) const {
    std::map<std::string, std::pair<int64_t, int64_t>> groups;
    for (const Row& row : data_.fact) {
      if (row[2].int64_value() < min_qty) continue;
      auto& g = groups[region_of_.at(row[1].int64_value())];
      ++g.first;
      g.second += row[3].int64_value();
    }
    Statement s{"join",
                StrCat("SELECT d_region, COUNT(*), SUM(f_price) FROM fact "
                       "JOIN dim ON f_dim = d_id WHERE f_qty >= ",
                       min_qty, " GROUP BY d_region ORDER BY d_region"),
                {}};
    for (const auto& [region, g] : groups) {
      s.expected.push_back({Value::Varchar(region), Value::Int64(g.first),
                            Value::Float64(static_cast<double>(g.second))});
    }
    return s;
  }

  Statement Point(int64_t id) const {
    const Row& row = data_.fact[id];
    return {"point",
            StrCat("SELECT f_dim, f_qty, f_price FROM fact WHERE f_id = ",
                   id),
            {{row[1], row[2], row[3]}}};
  }

  Statement Count(int64_t dim) const {
    int64_t count = 0;
    for (const Row& row : data_.fact) count += row[1].int64_value() == dim;
    return {"count",
            StrCat("SELECT COUNT(*) FROM fact WHERE f_dim = ", dim),
            {{Value::Int64(count)}}};
  }

 private:
  const Dataset& data_;
  std::map<int64_t, std::string> region_of_;
};

// A dashboard client's script: 25% filtered GROUP BYs, 15% joins, 35%
// point selects and 25% counts, in a seeded order with seeded arguments.
// The shares are exact, so every seed puts the same kinds of statement
// around the median and the tail.
std::vector<Statement> DashboardScript(const Oracle& oracle, uint64_t seed) {
  enum Kind { kGroupBy, kJoin, kPoint, kCount };
  std::vector<Kind> kinds;
  for (auto [kind, percent] : {std::pair{kGroupBy, 25}, std::pair{kJoin, 15},
                               std::pair{kPoint, 35}, std::pair{kCount, 25}}) {
    kinds.insert(kinds.end(), kStatementsPerClient * percent / 100, kind);
  }
  Rng rng(seed);
  for (size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.NextUint64(i)]);
  }
  std::vector<Statement> script;
  for (Kind kind : kinds) {
    int64_t arg = static_cast<int64_t>(rng.NextUint64(1u << 30));
    switch (kind) {
      case kGroupBy:
        script.push_back(oracle.GroupBy(arg % 100));
        break;
      case kJoin:
        script.push_back(oracle.Join(arg % 100));
        break;
      case kPoint:
        script.push_back(oracle.Point(arg % kFactRows));
        break;
      case kCount:
        script.push_back(oracle.Count(arg % kDimRows));
        break;
    }
  }
  return script;
}

// Alternates INSERTs of kInsertRows rows with a count check.
std::vector<Statement> LoaderScript(uint64_t seed) {
  Rng rng(seed);
  std::vector<Statement> script;
  int64_t inserted = 0;
  for (int i = 0; i < kStatementsPerClient; ++i) {
    if (i % 2 == 0) {
      std::vector<Row> rows;
      for (int k = 0; k < kInsertRows; ++k) {
        rows.push_back({Value::Int64(inserted + k), Value::Int64(kDashboards),
                        Value::Int64(static_cast<int64_t>(rng.NextUint64(1000)))});
      }
      inserted += kInsertRows;
      script.push_back({"insert",
                        StrCat("INSERT INTO events VALUES ",
                               ValuesList(rows, 0, rows.size())),
                        {},
                        kInsertRows});
    } else {
      script.push_back({"count_check", "SELECT COUNT(*) FROM events",
                        {{Value::Int64(inserted)}}});
    }
  }
  return script;
}

struct Variant {
  Dataset data;
  std::vector<std::vector<Statement>> scripts;  // one per client
  int64_t inserted_rows = 0;
};

Variant MakeVariant(uint64_t seed) {
  Variant v;
  v.data = MakeDataset(seed);
  Oracle oracle(v.data);
  for (int c = 0; c < kDashboards; ++c) {
    v.scripts.push_back(DashboardScript(oracle, seed * 31 + c + 1));
  }
  v.scripts.push_back(LoaderScript(seed * 31 + kDashboards + 1));
  v.inserted_rows = kInsertRows * ((kStatementsPerClient + 1) / 2);
  return v;
}

struct Outcome {
  double host_ms = 0;
  double virtual_s = 0;
  Status status;
  fabric::vertica::QueryResult result;
};

std::string CheckAnswer(const Statement& s, const Outcome& o) {
  if (!o.status.ok()) return o.status.ToString();
  if (s.affected >= 0) {
    return o.result.affected == s.affected
               ? ""
               : StrCat("affected ", o.result.affected, ", expected ",
                        s.affected);
  }
  return CompareRowSets(s.expected, o.result.rows);
}

}  // namespace

void RunSqlMix(Context& ctx) {
  RunResult& r = ctx.result;
  r.min_ops = kMinOps;
  const fabric::bench::FabricOptions options = Options();
  r.inputs["real_rows"] = kFactRows;
  r.inputs["paper_rows"] = kFactRows * kDataScale;
  r.inputs["data_scale"] = kDataScale;
  r.inputs["fact_rows"] = kFactRows;
  r.inputs["dim_rows"] = kDimRows;
  r.inputs["clients"] = kDashboards + 1;
  r.inputs["dashboard_clients"] = kDashboards;
  r.inputs["loader_clients"] = 1;
  r.inputs["statements_per_client_round"] = kStatementsPerClient;
  r.inputs["insert_rows"] = kInsertRows;
  r.inputs["variants"] = kVariants;
  r.inputs["tuple_mover"] = options.tuple_mover.enabled ? 1 : 0;
  r.inputs["tm.moveout_interval_s"] = options.tuple_mover.moveout_interval;
  r.inputs["tm.mergeout_interval_s"] = options.tuple_mover.mergeout_interval;
  r.inputs["wm.dashboard_concurrency"] = kDashboardConcurrency;
  r.inputs["wm.etl_concurrency"] = kEtlConcurrency;
  r.input_labels["wm"] = "pools general, dashboard, etl (etl cascades to general)";
  r.input_labels["loop"] = "closed";
  r.data_scale = kDataScale;
  r.written_columns = 3;

  std::vector<Variant> variants;
  for (int v = 0; v < kVariants; ++v) {
    variants.push_back(MakeVariant(ctx.config.seed * kVariants + v));
  }

  std::unique_ptr<Fabric> fabric;
  DeterminismLog determinism;
  int64_t round = 0;
  ctx.RunTimedPhase([&] {
    const int variant_index = static_cast<int>(round++ % kVariants);
    const Variant& variant = variants[variant_index];

    fabric.reset();
    {
      ScopedSpan span(ctx.spans, "setup.stage_sql_mix", 0, -1);
      Clock::time_point start = Clock::now();
      fabric = Stage(variant.data);
      r.setup_s.push_back(MsSince(start) / 1000);
    }

    const int clients = static_cast<int>(variant.scripts.size());
    std::vector<std::vector<Outcome>> outcomes(clients);
    const int64_t first_op = ctx.next_op;
    ctx.next_op += clients * kStatementsPerClient;
    std::vector<double> before = BeginCounting(*fabric);
    Clock::time_point round_start = Clock::now();
    double round_virtual_s =
        fabric->RunTimed([&](fabric::sim::Process& driver) {
          fabric::sim::Latch done(fabric->engine(), clients);
          for (int c = 0; c < clients; ++c) {
            fabric->engine()->Spawn(
                StrCat("client", c), [&, c](fabric::sim::Process& self) {
                  const bool loader = c == kDashboards;
                  auto session = fabric->db()->Connect(self, loader ? 1 : 0,
                                                       nullptr);
                  if (session.ok()) {
                    (*session)->set_resource_pool(loader ? "etl"
                                                         : "dashboard");
                  }
                  const auto& script = variant.scripts[c];
                  outcomes[c].resize(script.size());
                  for (size_t i = 0; i < script.size(); ++i) {
                    Outcome& o = outcomes[c][i];
                    if (!session.ok()) {
                      o.status = session.status();
                      continue;
                    }
                    const int64_t op_id =
                        first_op + c * kStatementsPerClient +
                        static_cast<int64_t>(i);
                    const bool traced = ctx.Traced(op_id);
                    ScopedSpan op_span(ctx.spans, "op.sql", 0, op_id, traced);
                    ScopedSpan span(ctx.spans,
                                    "sql.execute." + script[i].kind,
                                    op_span.id(), op_id, traced);
                    double virtual_start = self.Now();
                    Clock::time_point start = Clock::now();
                    auto result = (*session)->Execute(self, script[i].sql);
                    o.host_ms = MsSince(start);
                    o.virtual_s = self.Now() - virtual_start;
                    o.status = result.status();
                    if (result.ok()) o.result = std::move(*result);
                  }
                  if (session.ok()) (void)(*session)->Close(self);
                  done.CountDown();
                });
          }
          (void)done.Await(driver);
        });
    r.timed_host_s += MsSince(round_start) / 1000;
    std::vector<double> deltas =
        r.AddTotals(before, SnapshotCounters(*fabric));
    r.inserted_rows += static_cast<double>(variant.inserted_rows);

    const double ref_ms = ReferenceSampleMs();
    {
      ScopedSpan span(ctx.spans, "check.sql_answers", 0, -1);
      std::string problem =
          determinism.Check(StrCat("round of variant ", variant_index),
                            round_virtual_s, deltas);
      if (!problem.empty()) r.Fail(problem);
      for (int c = 0; c < clients; ++c) {
        for (size_t i = 0; i < outcomes[c].size(); ++i) {
          const Statement& s = variant.scripts[c][i];
          const Outcome& o = outcomes[c][i];
          const int64_t op_id =
              first_op + c * kStatementsPerClient + static_cast<int64_t>(i);
          OpRecord op{s.kind, o.host_ms, o.virtual_s, true,
                      ctx.Traced(op_id), ref_ms};
          std::string wrong = CheckAnswer(s, o);
          if (wrong.empty()) {
            wrong = determinism.Check(
                StrCat("variant ", variant_index, " client ", c,
                       " statement ", i),
                o.virtual_s, {});
          }
          if (!wrong.empty()) {
            op.ok = false;
            r.Fail(StrCat("op ", op_id, " ", s.kind, ": ", wrong));
          }
          r.ops.push_back(op);
        }
      }
    }
  });
  r.determinism_checked = determinism.checked();
  AddStorageTotals(fabric->db(), r);

  if (ctx.config.trace) {
    ProbeInputs inputs;
    inputs.schema = fabric::storage::Schema(
        {{"f_id", fabric::storage::DataType::kInt64},
         {"f_dim", fabric::storage::DataType::kInt64},
         {"f_qty", fabric::storage::DataType::kInt64},
         {"f_price", fabric::storage::DataType::kInt64}});
    inputs.rows = variants[0].data.fact;
    inputs.partition_rows.assign(variants[0].data.fact.begin(),
                                 variants[0].data.fact.begin() + kFactBatch);
    for (const auto& script : variants[0].scripts) {
      for (const Statement& s : script) inputs.statements.push_back(s.sql);
    }
    inputs.flows = kDashboards + 1;
    inputs.db = fabric->db();
    RunProbes(ctx, inputs);
  }
}

}  // namespace perfbench
