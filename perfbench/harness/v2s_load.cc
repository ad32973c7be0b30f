// v2s_load: repeated V2S loads of a D1 table that set-up stages through
// Vertica's native parallel COPY. The loads cycle through full
// materialisation at 32 partitions (the paper's Fig. 6 V2S), column,
// filter, COUNT, GROUP BY and LIMIT pushdowns, and one GroupBy that is
// not pushed and so runs through the Spark shuffle. This is the read
// path: scans, decode, partition queries, compiled pipelines, result
// wire bytes and the shuffle. Nothing is written in the timed phase, so
// a write-side change should move only this workload's setup_s.
//
// The loads run in epochs of kOpsPerFabric on a freshly staged fabric
// each: the simulator keeps every finished sim process's thread until its
// engine is destroyed, so one fabric cannot serve an unbounded number of
// loads. Each epoch replays the same sequence from the same staged state,
// so op i of every epoch must reproduce op i of the first exactly.

#include <map>

#include "baselines/native_copy.h"
#include "harness/checks.h"
#include "harness/harness.h"
#include "harness/probes.h"

namespace perfbench {

namespace {

using fabric::Result;
using fabric::Status;
using fabric::StrCat;
using fabric::bench::Fabric;
using fabric::spark::ColumnPredicate;
using fabric::spark::DataFrame;
using fabric::storage::Row;
using fabric::storage::Value;

constexpr int kRealRows = 512;
constexpr double kPaperRows = 100e6;
constexpr int kPartitions = 32;
constexpr int kColumns = 100;
constexpr int kCopySplits = 8;  // Tab. 4's best native COPY setting
constexpr int kOpsPerFabric = 72;  // eight cycles of kCycle
constexpr int kMinOps = 200;
constexpr int64_t kLimit = 100;
constexpr double kFilterBelow = 0.25;
constexpr double kCountAtLeast = 0.5;
constexpr const char* kTable = "d1";

enum class Load {
  kFull,
  kColumns,
  kFilter,
  kCount,
  kGroupPushed,
  kLimit,
  kGroupShuffled,
};
// Full materialisation, the paper's V2S measurement, makes up three of the
// nine loads of a cycle: its virtual seconds sit in the middle of the
// kinds', so virtual_s_p50 is a full load's rather than whichever kind
// happens to rank in the middle (the 10-column load's virtual seconds jump
// by half between seeds).
constexpr Load kCycle[] = {Load::kFull,        Load::kColumns, Load::kFull,
                           Load::kFilter,      Load::kCount,   Load::kFull,
                           Load::kGroupPushed, Load::kLimit,   Load::kGroupShuffled};

const char* Name(Load load) {
  switch (load) {
    case Load::kFull:
      return "full";
    case Load::kColumns:
      return "columns";
    case Load::kFilter:
      return "filter";
    case Load::kCount:
      return "count";
    case Load::kGroupPushed:
      return "group_pushed";
    case Load::kLimit:
      return "limit";
    case Load::kGroupShuffled:
      return "group_shuffled";
  }
  return "?";
}

const std::vector<std::string> kProjected = {"c0", "c1", "c2", "c3", "c4",
                                             "c5", "c6", "c7", "c8", "c9"};

fabric::bench::FabricOptions Options() {
  fabric::bench::FabricOptions options;
  options.real_rows = kRealRows;
  options.paper_rows = kPaperRows;
  return options;
}

std::string CreateTableSql() {
  return StrCat("CREATE TABLE ", kTable, " (",
                fabric::bench::D1Schema(kColumns).ToDdlBody(), ")");
}

// A fabric holding `rows` in d1, loaded by kCopySplits parallel COPYs,
// with the Tuple Mover's follow-up work finished.
std::unique_ptr<Fabric> Stage(const std::vector<Row>& rows) {
  auto fabric = std::make_unique<Fabric>(Options());
  std::vector<std::vector<Row>> splits(kCopySplits);
  for (size_t i = 0; i < rows.size(); ++i) {
    splits[i % kCopySplits].push_back(rows[i]);
  }
  Status status;
  fabric->RunTimed([&](fabric::sim::Process& driver) {
    status = [&]() -> Status {
      FABRIC_ASSIGN_OR_RETURN(auto session,
                              fabric->db()->Connect(driver, 0, nullptr));
      FABRIC_RETURN_IF_ERROR(
          session->Execute(driver, CreateTableSql()).status());
      FABRIC_RETURN_IF_ERROR(session->Close(driver));
      return fabric::baselines::RunParallelCopy(driver, fabric->db(), kTable,
                                                splits)
          .status();
    }();
  });
  FABRIC_CHECK_OK(status);
  return fabric;
}

// GROUP BY c0, c1 with COUNT, SUM, MIN and MAX: the table is segmented on
// (c0, c1), so each partition holds whole groups and the aggregate can
// run inside Vertica.
Result<DataFrame> Grouped(const DataFrame& df) {
  FABRIC_ASSIGN_OR_RETURN(auto grouped, df.GroupBy({"c0", "c1"}));
  return grouped.Agg({fabric::spark::AggCount(), fabric::spark::AggSum("c2"),
                      fabric::spark::AggMin("c3"),
                      fabric::spark::AggMax("c4")});
}

// Reference answers computed from the staged rows.
struct Expected {
  std::vector<Row> projected;
  std::vector<Row> filtered;
  int64_t count = 0;
  std::vector<Row> grouped;
};

Expected Reference(const std::vector<Row>& rows) {
  Expected e;
  struct Group {
    Row key;
    int64_t count = 0;
    double sum = 0, min = 0, max = 0;
  };
  std::map<std::string, Group> groups;
  for (const Row& row : rows) {
    e.projected.push_back(Row(row.begin(), row.begin() + kProjected.size()));
    if (row[0].float64_value() < kFilterBelow) {
      e.filtered.push_back(Row(row.begin(), row.begin() + 3));
    }
    if (row[1].float64_value() >= kCountAtLeast) ++e.count;
    Row key = {row[0], row[1]};
    Group& g = groups[CanonicalRow(key)];
    double c2 = row[2].float64_value(), c3 = row[3].float64_value(),
           c4 = row[4].float64_value();
    if (g.count == 0) {
      g.key = key;
      g.min = c3;
      g.max = c4;
    }
    ++g.count;
    g.sum += c2;
    g.min = std::min(g.min, c3);
    g.max = std::max(g.max, c4);
  }
  for (const auto& [unused, g] : groups) {
    e.grouped.push_back({g.key[0], g.key[1], Value::Int64(g.count),
                         Value::Float64(g.sum), Value::Float64(g.min),
                         Value::Float64(g.max)});
  }
  return e;
}

struct LoadOutput {
  std::vector<Row> rows;
  int64_t count = 0;
};

// Runs one load of kind `load` as the Spark driver.
Status RunLoad(Fabric& fabric, fabric::sim::Process& driver, Load load,
               LoadOutput& out) {
  auto reader = fabric.spark()
                    ->Read()
                    .Format(fabric::connector::kVerticaSourceName)
                    .Option("table", kTable)
                    .Option("numpartitions", kPartitions);
  if (load == Load::kGroupShuffled) {
    reader.Option("aggregate_pushdown", "false");
  }
  FABRIC_ASSIGN_OR_RETURN(DataFrame df, reader.Load(driver));
  switch (load) {
    case Load::kFull: {
      FABRIC_ASSIGN_OR_RETURN(out.count, df.Materialize(driver));
      return Status::OK();
    }
    case Load::kColumns: {
      FABRIC_ASSIGN_OR_RETURN(DataFrame projected, df.Select(kProjected));
      FABRIC_ASSIGN_OR_RETURN(out.rows, projected.Collect(driver));
      return Status::OK();
    }
    case Load::kFilter: {
      FABRIC_ASSIGN_OR_RETURN(
          DataFrame projected,
          df.Filter(ColumnPredicate{"c0", ColumnPredicate::Op::kLt,
                                    Value::Float64(kFilterBelow)})
              .Select({"c0", "c1", "c2"}));
      FABRIC_ASSIGN_OR_RETURN(out.rows, projected.Collect(driver));
      return Status::OK();
    }
    case Load::kCount: {
      FABRIC_ASSIGN_OR_RETURN(
          out.count,
          df.Filter(ColumnPredicate{"c1", ColumnPredicate::Op::kGe,
                                    Value::Float64(kCountAtLeast)})
              .Count(driver));
      return Status::OK();
    }
    case Load::kGroupPushed:
    case Load::kGroupShuffled: {
      FABRIC_ASSIGN_OR_RETURN(DataFrame grouped, Grouped(df));
      FABRIC_ASSIGN_OR_RETURN(out.rows, grouped.Collect(driver));
      return Status::OK();
    }
    case Load::kLimit: {
      FABRIC_ASSIGN_OR_RETURN(DataFrame limited, df.Limit(kLimit));
      FABRIC_ASSIGN_OR_RETURN(out.rows, limited.Collect(driver));
      return Status::OK();
    }
  }
  return Status::OK();
}

// Empty when the load's answer is right.
std::string CheckLoad(Load load, const LoadOutput& out, const Expected& e,
                      const std::vector<Row>& staged,
                      const std::vector<Row>& last_pushed_group) {
  switch (load) {
    case Load::kFull:
      return out.count == kRealRows
                 ? ""
                 : StrCat("materialised ", out.count, " rows of ",
                          kRealRows);
    case Load::kColumns:
      return CompareRowSets(e.projected, out.rows);
    case Load::kFilter:
      return CompareRowSets(e.filtered, out.rows);
    case Load::kCount:
      return out.count == e.count
                 ? ""
                 : StrCat("COUNT ", out.count, ", expected ", e.count);
    case Load::kGroupPushed:
      return CompareRowSets(e.grouped, out.rows);
    case Load::kGroupShuffled: {
      std::string problem = CompareRowSets(e.grouped, out.rows);
      if (problem.empty() && !last_pushed_group.empty()) {
        problem = CompareRowSets(last_pushed_group, out.rows);
        if (!problem.empty()) problem = "differs from pushed: " + problem;
      }
      return problem;
    }
    case Load::kLimit:
      return CheckSubset(staged, out.rows, kLimit);
  }
  return "unknown load";
}

}  // namespace

void RunV2sLoad(Context& ctx) {
  RunResult& r = ctx.result;
  r.min_ops = kMinOps;
  r.inputs["real_rows"] = kRealRows;
  r.inputs["paper_rows"] = kPaperRows;
  r.inputs["data_scale"] = kPaperRows / kRealRows;
  r.inputs["partitions"] = kPartitions;
  r.inputs["columns"] = kColumns;
  r.inputs["copy_splits"] = kCopySplits;
  r.inputs["ops_per_fabric"] = kOpsPerFabric;
  r.inputs["clients"] = 1;
  r.inputs["tuple_mover"] = Options().tuple_mover.enabled ? 1 : 0;
  r.input_labels["wm"] = "off (flat admission)";
  r.data_scale = kPaperRows / kRealRows;
  r.written_columns = kColumns;

  const std::vector<Row> staged =
      fabric::bench::D1Rows(kRealRows, kColumns, ctx.config.seed);
  const Expected expected = Reference(staged);

  std::unique_ptr<Fabric> fabric;
  DeterminismLog determinism;
  std::vector<Row> last_pushed_group;
  ctx.RunTimedPhase([&] {
    const int64_t op_id = ctx.next_op++;
    const bool traced = ctx.Traced(op_id);
    const int64_t position = op_id % kOpsPerFabric;
    const Load load = kCycle[position % std::size(kCycle)];
    if (position == 0) {
      fabric.reset();
      ScopedSpan span(ctx.spans, "setup.stage_d1", 0, -1);
      Clock::time_point start = Clock::now();
      fabric = Stage(staged);
      r.setup_s.push_back(MsSince(start) / 1000);
    }

    ScopedSpan op_span(ctx.spans, StrCat("op.v2s_", Name(load)), 0, op_id,
                       traced);
    std::vector<double> before = BeginCounting(*fabric);
    LoadOutput out;
    Status status;
    Clock::time_point start = Clock::now();
    double virtual_s = fabric->RunTimed([&](fabric::sim::Process& driver) {
      ScopedSpan span(ctx.spans, "connector.v2s_load", op_span.id(), op_id,
                      traced);
      status = RunLoad(*fabric, driver, load, out);
    });
    OpRecord op{Name(load), MsSince(start), virtual_s, status.ok(), traced};
    std::vector<double> deltas = r.AddTotals(before, SnapshotCounters(*fabric));
    r.timed_host_s += op.host_ms / 1000;

    std::string problem;
    if (!status.ok()) {
      problem = status.ToString();
    } else {
      ScopedSpan span(ctx.spans, "check.v2s_answer", 0, op_id, traced);
      problem = CheckLoad(load, out, expected, staged, last_pushed_group);
      if (load == Load::kGroupPushed) last_pushed_group = out.rows;
    }
    if (problem.empty()) {
      problem = determinism.Check(StrCat(Name(load), " at position ",
                                         position),
                                  virtual_s, deltas);
    }
    if (!problem.empty()) {
      op.ok = false;
      r.Fail(StrCat("op ", op_id, " ", Name(load), ": ", problem));
    }
    op.ref_ms = ReferenceSampleMs();
    r.ops.push_back(op);
  });
  r.determinism_checked = determinism.checked();
  AddStorageTotals(fabric->db(), r);

  if (ctx.config.trace) {
    ProbeInputs inputs;
    inputs.schema = fabric::bench::D1Schema(kColumns);
    inputs.rows = staged;
    for (size_t i = 0; i < staged.size(); i += kPartitions) {
      inputs.partition_rows.push_back(staged[i]);
    }
    inputs.statements = {CreateTableSql()};
    inputs.flows = kPartitions;
    inputs.db = fabric->db();
    RunProbes(ctx, inputs);
  }
}

}  // namespace perfbench
