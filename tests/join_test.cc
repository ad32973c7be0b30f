// INNER JOIN execution tests: the planned merge join on co-sorted
// projections (strategy choice, co-location, counters, EXPLAIN), byte
// identity between every join strategy and layout combination, the
// per-table forced-projection hint and the forced-join-strategy hook
// (typed errors), virtual-time ordering (merge beats hash on the same
// layouts), workload capture into v_monitor.query_requests, join keys
// under SQL `=`, one read snapshot per join statement (AT EPOCH checks
// included), and a seeded chaos suite (JOIN_SEED) asserting
// byte-identical join answers across strategies through random DML and
// a node kill.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "seed_env.h"

#include "common/random.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "vertica/database.h"
#include "vertica/session.h"

namespace fabric::vertica {
namespace {

using storage::Row;
using storage::Value;

std::vector<uint64_t> PropertySeeds() {
  return fabric::testing::PropertySeeds("JOIN_SEED");
}

std::vector<std::string> Lines(const QueryResult& result) {
  std::vector<std::string> out;
  for (const Row& row : result.rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.is_null() ? "<null>" : v.ToDisplayString();
      line += "|";
    }
    out.push_back(std::move(line));
  }
  return out;
}

std::string PlanText(const QueryResult& result) {
  std::string out;
  for (const Row& row : result.rows) {
    out += row[0].varchar_value();
    out += "\n";
  }
  return out;
}

// Session-tweaking hooks applied before a statement runs.
struct SessionHints {
  std::optional<std::string> join_strategy;
  // (table, projection) pairs for set_forced_projection.
  std::vector<std::pair<std::string, std::string>> table_projections;
};

class JoinTest : public ::testing::Test {
 protected:
  JoinTest() { Recreate(); }

  void Recreate(const TupleMoverConfig& tm = {}) {
    db_.reset();
    network_.reset();
    engine_ = std::make_unique<sim::Engine>();
    network_ = std::make_unique<net::Network>(engine_.get());
    Database::Options vopts;
    vopts.num_nodes = 4;
    vopts.tuple_mover = tm;
    db_ = std::make_unique<Database>(engine_.get(), network_.get(), vopts);
  }

  void RunDriver(std::function<void(sim::Process&)> body) {
    engine_->Spawn("driver", std::move(body));
    Status status = engine_->Run();
    ASSERT_TRUE(status.ok()) << status;
  }

  Result<QueryResult> Exec(sim::Process& driver, const std::string& sql,
                           const SessionHints& hints = {}) {
    auto session = db_->Connect(driver, 0, nullptr);
    if (!session.ok()) return session.status();
    (*session)->set_forced_join_strategy(hints.join_strategy);
    for (const auto& [table, projection] : hints.table_projections) {
      (*session)->set_forced_projection(table, projection);
    }
    auto result = (*session)->Execute(driver, sql);
    Status closed = (*session)->Close(driver);
    if (result.ok() && !closed.ok()) return closed;
    return result;
  }

  QueryResult ExecOk(sim::Process& driver, const std::string& sql,
                     const SessionHints& hints = {}) {
    auto result = Exec(driver, sql, hints);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  // A statement's rows, one line each, or its error.
  std::string Outcome(sim::Process& driver, const std::string& sql,
                      const SessionHints& hints = {}) {
    auto result = Exec(driver, sql, hints);
    if (!result.ok()) return StrCat("error: ", result.status().ToString());
    std::string out;
    for (const std::string& line : Lines(*result)) out += line + "\n";
    return out;
  }

  // fact(id, cust, amount) segmented by id; dim(cust_id, region)
  // segmented by cust_id. A few NULL join keys on each side exercise
  // the NULL-never-joins rule in every strategy.
  void LoadFixture(sim::Process& driver, int fact_rows, int dim_rows) {
    ExecOk(driver,
           "CREATE TABLE fact (id INTEGER, cust INTEGER, amount FLOAT) "
           "SEGMENTED BY HASH(id) ALL NODES");
    ExecOk(driver,
           "CREATE TABLE dim (cust_id INTEGER, region VARCHAR) "
           "SEGMENTED BY HASH(cust_id) ALL NODES");
    static const char* kRegions[] = {"east", "west", "north", "south"};
    std::string values;
    for (int i = 0; i < fact_rows; ++i) {
      if (i % 50 == 0 && !values.empty()) {
        ExecOk(driver, StrCat("INSERT INTO fact VALUES ", values));
        values.clear();
      }
      std::string cust =
          i % 37 == 5 ? "NULL" : StrCat((i * 7) % (dim_rows + 8));
      values += StrCat(values.empty() ? "" : ", ", "(", i, ", ", cust, ", ",
                       i % 13, ".5)");
    }
    if (!values.empty()) {
      ExecOk(driver, StrCat("INSERT INTO fact VALUES ", values));
    }
    values.clear();
    for (int i = 0; i < dim_rows; ++i) {
      // Duplicate keys every 9th row; one NULL key.
      std::string key = i == 3 ? "NULL" : StrCat(i % 9 == 0 ? i / 2 : i);
      values += StrCat(values.empty() ? "" : ", ", "(", key, ", '",
                       kRegions[i % 4], "')");
    }
    ExecOk(driver, StrCat("INSERT INTO dim VALUES ", values));
  }

  // Join-key-sorted layouts: both segmented by their key (co-located
  // merge) unless `colocate` is false, in which case the fact side keeps
  // its id segmentation (gathered merge).
  void CreateSortedProjections(sim::Process& driver, bool colocate) {
    ExecOk(driver, StrCat("CREATE PROJECTION fact_by_cust AS "
                          "SELECT cust, amount FROM fact ORDER BY cust ",
                          colocate ? "SEGMENTED BY HASH(cust)"
                                   : "UNSEGMENTED"));
    ExecOk(driver,
           "CREATE PROJECTION dim_by_cust AS SELECT cust_id, region "
           "FROM dim ORDER BY cust_id SEGMENTED BY HASH(cust_id)");
  }

  // Queries whose answers must not depend on the join strategy. All
  // carry a total ORDER BY so Lines() comparison is layout-stable.
  std::vector<std::string> JoinQueries() const {
    return {
        "SELECT region, SUM(amount) FROM fact JOIN dim "
        "ON cust = cust_id GROUP BY region ORDER BY region",
        "SELECT cust, region, amount FROM fact JOIN dim "
        "ON cust = cust_id WHERE amount > 3.0 "
        "ORDER BY cust, region, amount",
        "SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id",
        "SELECT region, COUNT(*) FROM fact JOIN dim "
        "ON cust_id = cust GROUP BY region ORDER BY region",
    };
  }

  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<Database> db_;
};

// ------------------------------------------------------ strategy choice

TEST_F(JoinTest, PlannerPicksMergeWheneverBothSidesAreSorted) {
  obs::Tracer tracer([this] { return engine_->now(); });
  obs::ScopedTracer install(&tracer);
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 300, 40);

    // No sorted layouts yet: hash join.
    std::string plan = PlanText(ExecOk(
        driver, "EXPLAIN SELECT COUNT(*) FROM fact JOIN dim "
                "ON cust = cust_id"));
    EXPECT_NE(plan.find("join strategy: hash join"), std::string::npos)
        << plan;
    EXPECT_NE(plan.find("projection(fact): super"), std::string::npos)
        << plan;
    ExecOk(driver, "SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id");
    EXPECT_GT(tracer.metrics().counter("vertica.hash_joins"), 0.0);
    EXPECT_EQ(tracer.metrics().counter("vertica.merge_joins"), 0.0);

    // Both sides sorted on the join key and segmented by it: the
    // unforced planner must choose the co-located merge join.
    CreateSortedProjections(driver, /*colocate=*/true);
    plan = PlanText(ExecOk(
        driver, "EXPLAIN SELECT COUNT(*) FROM fact JOIN dim "
                "ON cust = cust_id"));
    EXPECT_NE(plan.find("join strategy: merge join (co-located)"),
              std::string::npos)
        << plan;
    EXPECT_NE(plan.find("projection(fact): fact_by_cust"),
              std::string::npos)
        << plan;
    EXPECT_NE(plan.find("projection(dim): dim_by_cust"), std::string::npos)
        << plan;
    EXPECT_NE(plan.find("join key: fact.cust = dim.cust_id"),
              std::string::npos)
        << plan;

    double merges = tracer.metrics().counter("vertica.merge_joins");
    ExecOk(driver, "SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id");
    EXPECT_GT(tracer.metrics().counter("vertica.merge_joins"), merges);
  });
}

TEST_F(JoinTest, GatheredMergeWhenSortedButNotCoLocated) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 200, 30);
    // fact side sorted but replicated (not segmented by the key): merge
    // without co-location... except a replicated side co-locates with
    // any layout, so force the interesting case via the dim side.
    ExecOk(driver,
           "CREATE PROJECTION fact_by_cust AS SELECT id, cust, amount "
           "FROM fact ORDER BY cust SEGMENTED BY HASH(id)");
    ExecOk(driver,
           "CREATE PROJECTION dim_by_cust AS SELECT cust_id, region "
           "FROM dim ORDER BY cust_id SEGMENTED BY HASH(cust_id)");
    std::string plan = PlanText(ExecOk(
        driver, "EXPLAIN SELECT COUNT(*) FROM fact JOIN dim "
                "ON cust = cust_id"));
    EXPECT_NE(plan.find("join strategy: merge join"), std::string::npos)
        << plan;
    EXPECT_EQ(plan.find("(co-located)"), std::string::npos) << plan;
  });
}

// ------------------------------------------------------- byte identity

TEST_F(JoinTest, AllStrategiesReturnIdenticalBytes) {
  for (bool colocate : {false, true}) {
    SCOPED_TRACE(StrCat("colocate=", colocate));
    Recreate();
    RunDriver([&](sim::Process& driver) {
      LoadFixture(driver, 400, 50);

      // Baseline answers before any projections exist (legacy-planned
      // hash join over the super projections).
      std::vector<std::vector<std::string>> baseline;
      for (const std::string& q : JoinQueries()) {
        baseline.push_back(Lines(ExecOk(driver, q)));
      }

      CreateSortedProjections(driver, colocate);
      for (size_t i = 0; i < JoinQueries().size(); ++i) {
        const std::string q = JoinQueries()[i];
        SCOPED_TRACE(q);
        // Automatic (merge), forced hash, and forced merge must all
        // reproduce the pre-projection answer byte for byte.
        EXPECT_EQ(baseline[i], Lines(ExecOk(driver, q)));
        SessionHints hash;
        hash.join_strategy = "hash";
        EXPECT_EQ(baseline[i], Lines(ExecOk(driver, q, hash)));
        SessionHints merge;
        merge.join_strategy = "merge";
        EXPECT_EQ(baseline[i], Lines(ExecOk(driver, q, merge)));
        // Pinning both sides to the super projection (hash join) too.
        SessionHints supers;
        supers.table_projections = {{"fact", ""}, {"dim", ""}};
        EXPECT_EQ(baseline[i], Lines(ExecOk(driver, q, supers)));
      }
    });
  }
}

TEST_F(JoinTest, SelectStarJoinIsIdenticalAcrossStrategies) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 150, 25);
    const std::string q =
        "SELECT * FROM fact JOIN dim ON cust = cust_id "
        "ORDER BY id, cust_id, region";
    std::vector<std::string> baseline = Lines(ExecOk(driver, q));
    // SELECT * needs every column, so the narrow fact projection cannot
    // serve it — but the wide sorted pair still merges.
    ExecOk(driver,
           "CREATE PROJECTION fact_all AS SELECT id, cust, amount "
           "FROM fact ORDER BY cust SEGMENTED BY HASH(cust)");
    ExecOk(driver,
           "CREATE PROJECTION dim_all AS SELECT cust_id, region "
           "FROM dim ORDER BY cust_id SEGMENTED BY HASH(cust_id)");
    std::string plan = PlanText(
        ExecOk(driver, StrCat("EXPLAIN ", q)));
    EXPECT_NE(plan.find("merge join"), std::string::npos) << plan;
    EXPECT_EQ(baseline, Lines(ExecOk(driver, q)));
    SessionHints hash;
    hash.join_strategy = "hash";
    EXPECT_EQ(baseline, Lines(ExecOk(driver, q, hash)));
  });
}

// ------------------------------------------------- forced hints / errors

TEST_F(JoinTest, PerTableForcedProjectionHint) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 120, 20);
    CreateSortedProjections(driver, /*colocate=*/true);

    // A valid hint pins the side; EXPLAIN reflects it.
    SessionHints pin;
    pin.table_projections = {{"fact", "fact_by_cust"}};
    std::string plan = PlanText(
        ExecOk(driver,
               "EXPLAIN SELECT region, SUM(amount) FROM fact JOIN dim "
               "ON cust = cust_id GROUP BY region ORDER BY region",
               pin));
    EXPECT_NE(plan.find("projection(fact): fact_by_cust"),
              std::string::npos)
        << plan;

    // Single-table scans honor the hint too.
    SessionHints super_pin;
    super_pin.table_projections = {{"fact", ""}};
    obs::Tracer tracer([this] { return engine_->now(); });
    obs::ScopedTracer install(&tracer);
    ExecOk(driver, "SELECT cust, amount FROM fact WHERE amount > 4.0",
           super_pin);
    EXPECT_EQ(
        tracer.metrics().counter("vertica.projection_scans{fact_by_cust}"),
        0.0);

    // Unknown projection: typed FAILED_PRECONDITION, not a silent
    // fallback (the legacy session-wide hint's behavior).
    SessionHints unknown;
    unknown.table_projections = {{"fact", "nope"}};
    auto missing = Exec(
        driver, "SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id",
        unknown);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kFailedPrecondition)
        << missing.status();
    EXPECT_NE(missing.status().ToString().find(kForcedProjectionToken),
              std::string::npos)
        << missing.status();

    // Ineligible projection (missing the referenced amount column).
    ExecOk(driver,
           "CREATE PROJECTION fact_thin AS SELECT cust FROM fact "
           "ORDER BY cust");
    SessionHints thin;
    thin.table_projections = {{"fact", "fact_thin"}};
    auto ineligible = Exec(
        driver, "SELECT SUM(amount) FROM fact JOIN dim ON cust = cust_id",
        thin);
    ASSERT_FALSE(ineligible.ok());
    EXPECT_NE(ineligible.status().ToString().find(kForcedProjectionToken),
              std::string::npos)
        << ineligible.status();
  });
}

TEST_F(JoinTest, ForcedMergeFailsWithoutSortedLayouts) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 80, 10);
    SessionHints merge;
    merge.join_strategy = "merge";
    auto result = Exec(
        driver, "SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id",
        merge);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
        << result.status();
    EXPECT_NE(result.status().ToString().find(kForcedJoinStrategyToken),
              std::string::npos)
        << result.status();
    // EXPLAIN surfaces the same typed error.
    auto explain = Exec(
        driver,
        "EXPLAIN SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id",
        merge);
    ASSERT_FALSE(explain.ok());
    EXPECT_NE(explain.status().ToString().find(kForcedJoinStrategyToken),
              std::string::npos)
        << explain.status();
    // Forced hash always works.
    SessionHints hash;
    hash.join_strategy = "hash";
    ExecOk(driver, "SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id",
           hash);
  });
}

// --------------------------------------------------------- virtual time

TEST_F(JoinTest, MergeJoinIsFasterThanHashOnTheSameLayouts) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 1200, 160);
    CreateSortedProjections(driver, /*colocate=*/true);
    const std::string q =
        "SELECT region, SUM(amount) FROM fact JOIN dim ON cust = cust_id "
        "GROUP BY region ORDER BY region";
    // Same projection pair both times — only the join strategy differs.
    SessionHints hash;
    hash.join_strategy = "hash";
    hash.table_projections = {{"fact", "fact_by_cust"},
                              {"dim", "dim_by_cust"}};
    SessionHints merge = hash;
    merge.join_strategy = "merge";
    double start = engine_->now();
    QueryResult hash_result = ExecOk(driver, q, hash);
    double hash_elapsed = engine_->now() - start;
    start = engine_->now();
    QueryResult merge_result = ExecOk(driver, q, merge);
    double merge_elapsed = engine_->now() - start;
    EXPECT_EQ(Lines(hash_result), Lines(merge_result));
    EXPECT_LT(merge_elapsed, hash_elapsed)
        << "merge=" << merge_elapsed << " hash=" << hash_elapsed;
  });
}

// ----------------------------------------------------- workload capture

TEST_F(JoinTest, JoinsAreCapturedInQueryRequests) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 100, 15);
    CreateSortedProjections(driver, /*colocate=*/true);
    ExecOk(driver,
           "SELECT region, SUM(amount) FROM fact JOIN dim "
           "ON cust = cust_id GROUP BY region ORDER BY region");
    QueryResult captured = ExecOk(
        driver,
        "SELECT table_name, join_table, join_key_columns, strategy, "
        "duration_seconds FROM v_monitor.query_requests "
        "WHERE join_table <> '' ORDER BY table_name");
    ASSERT_EQ(captured.rows.size(), 2u);
    EXPECT_EQ(captured.rows[0][0].varchar_value(), "dim");
    EXPECT_EQ(captured.rows[0][1].varchar_value(), "fact");
    EXPECT_EQ(captured.rows[0][2].varchar_value(), "cust_id");
    EXPECT_EQ(captured.rows[0][3].varchar_value(), "merge");
    EXPECT_GT(captured.rows[0][4].float64_value(), 0.0);
    EXPECT_EQ(captured.rows[1][0].varchar_value(), "fact");
    EXPECT_EQ(captured.rows[1][2].varchar_value(), "cust");
    // Single-table scans land too (the INSERT-driven fixture plus the
    // join sides): the history keeps monotone ids.
    QueryResult ids = ExecOk(
        driver, "SELECT COUNT(*) FROM v_monitor.query_requests");
    EXPECT_GE(ids.rows[0][0].int64_value(), 2);
  });
}

// ------------------------------------------------------- SQL `=` keys

// Two non-NULL keys join exactly when SQL `=` holds (Value::Compare is
// 0), never by display string: every strategy — co-located included
// when both key types match — and a view side must answer what the
// nested loop over `ON a = b AND 1 = 1` answers. That is a match for
// -0.0 vs 0.0, for FLOAT 1e17 vs INTEGER 10^17 and for NaN vs NaN; no
// match for the INTEGERs 2^53 and 2^53 + 1 (which round to the same
// double) or for NaN vs 0.0; and the comparison error for INTEGER vs
// VARCHAR, in either ON spelling.
TEST_F(JoinTest, JoinKeysFollowSqlEquality) {
  struct Case {
    const char* left_type;
    const char* left_value;
    const char* right_type;
    const char* right_value;
    bool comparable;
    bool match;
  };
  const char* kNaN = "1e308 * 10.0 - 1e308 * 10.0";  // inf - inf
  const Case kCases[] = {
      {"FLOAT", "-0.0", "FLOAT", "0.0", true, true},
      {"FLOAT", "100000000000000000.0", "INTEGER", "100000000000000000",
       true, true},
      {"INTEGER", "9007199254740992", "INTEGER", "9007199254740993", true,
       false},
      {"FLOAT", kNaN, "FLOAT", kNaN, true, true},
      {"FLOAT", kNaN, "FLOAT", "0.0", true, false},
      {"INTEGER", "1", "VARCHAR", "'1'", false, false},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(StrCat(c.left_type, " ", c.left_value, " = ", c.right_type,
                        " ", c.right_value));
    Recreate();
    RunDriver([&](sim::Process& driver) {
      ExecOk(driver, StrCat("CREATE TABLE a (x ", c.left_type,
                            ", tag VARCHAR) SEGMENTED BY HASH(x) ALL NODES"));
      ExecOk(driver, StrCat("CREATE TABLE b (y ", c.right_type,
                            ", tag2 VARCHAR) SEGMENTED BY HASH(y) ALL NODES"));
      ExecOk(driver, StrCat("INSERT INTO a VALUES (", c.left_value,
                            ", 'l1'), (NULL, 'l2')"));
      ExecOk(driver, StrCat("INSERT INTO b VALUES (", c.right_value,
                            ", 'r1'), (NULL, 'r2')"));
      ExecOk(driver, "CREATE VIEW av AS SELECT * FROM a");
      // (hints, FROM side) runs compared against the nested loop; the
      // forced strategies need the sorted layouts created below.
      auto check = [&](bool with_layouts) {
        for (const char* on : {"x = y", "y = x"}) {
          SCOPED_TRACE(StrCat("ON ", on, with_layouts ? " (sorted)" : ""));
          const std::string q =
              StrCat("SELECT tag, tag2 FROM a JOIN b ON ", on);
          const std::string expected =
              Outcome(driver, StrCat(q, " AND 1 = 1"));
          if (!c.comparable) {
            EXPECT_NE(expected.find("cannot compare"), std::string::npos)
                << expected;
          } else {
            EXPECT_EQ(expected, c.match ? "l1|r1|\n" : "");
          }
          EXPECT_EQ(expected, Outcome(driver, q));
          EXPECT_EQ(expected,
                    Outcome(driver, StrCat("SELECT tag, tag2 FROM av "
                                           "JOIN b ON ",
                                           on)));
          if (!with_layouts) continue;
          SessionHints hash;
          hash.join_strategy = "hash";
          EXPECT_EQ(expected, Outcome(driver, q, hash));
          SessionHints merge;
          merge.join_strategy = "merge";
          EXPECT_EQ(expected, Outcome(driver, q, merge));
        }
      };
      check(/*with_layouts=*/false);
      ExecOk(driver,
             "CREATE PROJECTION a_by_x AS SELECT x, tag FROM a ORDER BY x "
             "SEGMENTED BY HASH(x)");
      ExecOk(driver,
             "CREATE PROJECTION b_by_y AS SELECT y, tag2 FROM b ORDER BY y "
             "SEGMENTED BY HASH(y)");
      const std::string plan = PlanText(
          ExecOk(driver, "EXPLAIN SELECT tag, tag2 FROM a JOIN b ON x = y"));
      EXPECT_NE(plan.find("merge join"), std::string::npos) << plan;
      // Same-typed keys segmented alike join node-locally, so the auto
      // and forced-merge runs below are co-located ones.
      if (std::string_view(c.left_type) == c.right_type) {
        EXPECT_NE(plan.find("co-located"), std::string::npos) << plan;
      }
      check(/*with_layouts=*/true);
    });
  }
}

// ------------------------------------------------------------ snapshot

// Every scan of a join statement reads one snapshot. A writer deletes
// the left row `victim` and inserts its only right-side match in one
// transaction; its commit lands at an offset swept across the join's
// first side scan (under 1 ms of virtual time for 4 000 left rows). At
// every offset the join sees the row and no match, or the match and no
// row: COUNT 0, never the pair that exists at no epoch. Covers the
// gathered join and the view (unplanned) path.
TEST_F(JoinTest, JoinSidesReadOneSnapshot) {
  constexpr int kLeftRows = 4000;
  constexpr int kSteps = 20;
  constexpr double kStep = 1e-4;
  for (const char* from : {"l", "lv"}) {
    for (int step = 0; step <= kSteps; ++step) {
      // Commit epoch relative to the first side's scan start, -0.3 ms
      // .. +1.7 ms.
      const double offset = (step - 3) * kStep;
      SCOPED_TRACE(StrCat("FROM ", from, ", commit at scan start + ",
                          offset, " s"));
      Recreate();
      obs::Tracer tracer([this] { return engine_->now(); });
      obs::ScopedTracer install(&tracer);
      RunDriver([&](sim::Process& driver) {
        ExecOk(driver,
               "CREATE TABLE l (k INTEGER, name VARCHAR) "
               "SEGMENTED BY HASH(k) ALL NODES");
        ExecOk(driver,
               "CREATE TABLE r (k2 INTEGER) SEGMENTED BY HASH(k2) ALL NODES");
        ExecOk(driver, "CREATE VIEW lv AS SELECT * FROM l");
        std::string values;
        for (int i = 0; i < kLeftRows; ++i) {
          values += StrCat(values.empty() ? "" : ", ", "(", i, ", '",
                           i == 0 ? "victim" : "row", "')");
          if ((i + 1) % 500 == 0) {
            ExecOk(driver, StrCat("INSERT INTO l VALUES ", values));
            values.clear();
          }
        }
        ExecOk(driver, "INSERT INTO r VALUES (-1), (-2), (-3)");

        // Both statements pay the same parse/plan CPU before they act,
        // and a COMMIT then waits out the commit latency: issuing it
        // commit_overhead + offset after the SELECT lands its epoch
        // `offset` after the SELECT starts scanning.
        const double start = engine_->now() + 1.0;
        const double commit_at =
            start + offset - db_->cost().commit_overhead;
        engine_->Spawn("writer", [&](sim::Process& writer) {
          auto session = db_->Connect(writer, 1, nullptr);
          ASSERT_TRUE(session.ok()) << session.status();
          for (const char* sql : {"BEGIN",
                                  "DELETE FROM l WHERE name = 'victim'",
                                  "INSERT INTO r VALUES (0)"}) {
            auto result = (*session)->Execute(writer, sql);
            ASSERT_TRUE(result.ok()) << sql << ": " << result.status();
          }
          ASSERT_GT(commit_at, engine_->now());
          ASSERT_TRUE(writer.Sleep(commit_at - engine_->now()).ok());
          auto commit = (*session)->Execute(writer, "COMMIT");
          ASSERT_TRUE(commit.ok()) << commit.status();
          ASSERT_TRUE((*session)->Close(writer).ok());
        });

        auto session = db_->Connect(driver, 0, nullptr);
        ASSERT_TRUE(session.ok()) << session.status();
        ASSERT_GT(start, engine_->now());
        ASSERT_TRUE(driver.Sleep(start - engine_->now()).ok());
        auto count = (*session)->Execute(
            driver, StrCat("SELECT COUNT(*) FROM ", from, " JOIN r ON k = k2"));
        const double end = engine_->now();
        ASSERT_TRUE(count.ok()) << count.status();
        EXPECT_EQ(count->rows[0][0].int64_value(), 0);
        ASSERT_TRUE((*session)->Close(driver).ok());
        ASSERT_TRUE(driver.Sleep(0.2).ok());

        // The sweep stays meaningful only while the commit really lands
        // inside the SELECT.
        double committed = -1;
        for (const obs::Event& event : tracer.events()) {
          if (event.name == "txn.commit") committed = event.time;
        }
        EXPECT_GT(committed, start);
        EXPECT_LT(committed, end);
      });
    }
  }
}

// The AT EPOCH checks run once per statement, for joins as for scans: a
// future epoch and one below the AHM fail every join placement with the
// single-table scan's OUT_OF_RANGE message.
TEST_F(JoinTest, AtEpochErrorsMatchSingleTableScans) {
  TupleMoverConfig tm;
  tm.ahm_interval = 0.1;
  tm.retention_epochs = 4;
  Recreate(tm);
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 120, 20);
    CreateSortedProjections(driver, /*colocate=*/true);
    ExecOk(driver, "CREATE VIEW dim_v AS SELECT * FROM dim");
    ASSERT_TRUE(driver.Sleep(2.0).ok());  // let the AHM catch up
    ASSERT_GT(db_->ahm(), 1u);

    const std::string join =
        "SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id";
    SessionHints hash;
    hash.join_strategy = "hash";
    EXPECT_NE(PlanText(ExecOk(driver, "EXPLAIN " + join))
                  .find("merge join (co-located)"),
              std::string::npos);
    EXPECT_NE(PlanText(ExecOk(driver, "EXPLAIN " + join, hash))
                  .find("hash join"),
              std::string::npos);

    const int64_t future = static_cast<int64_t>(db_->current_epoch()) + 5;
    for (int64_t epoch : {int64_t{1}, future}) {
      const std::string at = StrCat(" AT EPOCH ", epoch);
      SCOPED_TRACE(at);
      auto scan = Exec(driver, "SELECT COUNT(*) FROM fact" + at);
      ASSERT_FALSE(scan.ok());
      EXPECT_EQ(scan.status().code(), StatusCode::kOutOfRange);
      EXPECT_NE(scan.status().ToString().find(
                    epoch == 1 ? "HISTORY_PURGED" : "in the future"),
                std::string::npos)
          << scan.status();
      for (const auto& [name, result] :
           {std::pair{"co-located", Exec(driver, join + at)},
            std::pair{"gathered", Exec(driver, join + at, hash)},
            std::pair{"view side",
                      Exec(driver,
                           "SELECT COUNT(*) FROM fact JOIN dim_v "
                           "ON cust = cust_id" +
                               at)}}) {
        SCOPED_TRACE(name);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().ToString(), scan.status().ToString());
      }
    }
  });
}

// A view body's own AT EPOCH is a fixed epoch, not the statement's:
// joined with a base table, the view side reads its epoch and the table
// side the statement snapshot, in either FROM order. A view epoch in the
// future fails the join with the single-table scan's message.
TEST_F(JoinTest, ViewAtEpochInsideAJoinKeepsItsEpoch) {
  RunDriver([&](sim::Process& driver) {
    ExecOk(driver,
           "CREATE TABLE t (k INTEGER, tv VARCHAR) "
           "SEGMENTED BY HASH(k) ALL NODES");
    ExecOk(driver,
           "CREATE TABLE r (k2 INTEGER, rv VARCHAR) "
           "SEGMENTED BY HASH(k2) ALL NODES");
    ExecOk(driver, "INSERT INTO t VALUES (1, 't1')");
    ExecOk(driver, "INSERT INTO r VALUES (1, 'old'), (2, 'old')");
    const int64_t then = static_cast<int64_t>(db_->current_epoch());
    ExecOk(driver,
           StrCat("CREATE VIEW r_then AS SELECT * FROM r AT EPOCH ", then));
    ExecOk(driver, "UPDATE r SET rv = 'new'");
    ExecOk(driver, "INSERT INTO t VALUES (2, 't2')");

    // r_then is r as it was (both rows 'old'); t is read now (t1, t2).
    EXPECT_EQ(Outcome(driver,
                      "SELECT tv, rv FROM t JOIN r_then ON k = k2 "
                      "ORDER BY tv"),
              "t1|old|\nt2|old|\n");
    EXPECT_EQ(Outcome(driver,
                      "SELECT rv, tv FROM r_then JOIN t ON k2 = k "
                      "ORDER BY tv"),
              "old|t1|\nold|t2|\n");
    // A statement AT EPOCH moves the table side only.
    EXPECT_EQ(Outcome(driver, StrCat("SELECT tv, rv FROM t JOIN r_then "
                                     "ON k = k2 AT EPOCH ",
                                     then)),
              "t1|old|\n");

    const int64_t future = static_cast<int64_t>(db_->current_epoch()) + 5;
    ExecOk(driver, StrCat("CREATE VIEW r_later AS SELECT * FROM r AT EPOCH ",
                          future));
    auto scan = Exec(driver, "SELECT COUNT(*) FROM r_later");
    ASSERT_FALSE(scan.ok());
    EXPECT_EQ(scan.status().code(), StatusCode::kOutOfRange);
    for (const char* join : {"SELECT COUNT(*) FROM t JOIN r_later ON k = k2",
                             "SELECT COUNT(*) FROM r_later JOIN t ON k2 = k"}) {
      SCOPED_TRACE(join);
      auto result = Exec(driver, join);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().ToString(), scan.status().ToString());
    }
  });
}

// -------------------------------------------------------------- chaos

// Random DML between queries, a node kill and restart in the middle:
// automatic planning (merge when available), forced hash, and
// super-pinned hash must keep answering byte-identically.
TEST_F(JoinTest, ChaosKeepsStrategiesByteIdentical) {
  for (uint64_t seed : PropertySeeds()) {
    SCOPED_TRACE(StrCat("seed=", seed));
    Recreate();
    RunDriver([&](sim::Process& driver) {
      LoadFixture(driver, 160, 24);
      CreateSortedProjections(driver, /*colocate=*/(seed % 2 == 0));
      Rng rng(seed);
      int victim = static_cast<int>(rng.NextUint64(3)) + 1;
      int next_id = 50000;
      for (int step = 0; step < 16; ++step) {
        if (step == 5) ASSERT_TRUE(db_->KillNode(victim).ok());
        if (step == 11) ASSERT_TRUE(db_->RestartNode(victim).ok());
        switch (rng.NextUint64(3)) {
          case 0: {
            std::string values;
            for (int i = 0; i < 4; ++i, ++next_id) {
              values += StrCat(i ? ", " : "", "(", next_id, ", ",
                               rng.NextUint64(30), ", ",
                               rng.NextUint64(9), ".5)");
            }
            ExecOk(driver, StrCat("INSERT INTO fact VALUES ", values));
            break;
          }
          case 1:
            ExecOk(driver,
                   StrCat("UPDATE fact SET amount = amount + 1.0 "
                          "WHERE id % 11 = ",
                          rng.NextUint64(11)));
            break;
          default:
            ExecOk(driver, StrCat("DELETE FROM fact WHERE id % 19 = ",
                                  rng.NextUint64(19)));
            break;
        }
        const std::string q = JoinQueries()[step % JoinQueries().size()];
        SCOPED_TRACE(StrCat("step ", step, ": ", q));
        std::vector<std::string> expected = Lines(ExecOk(driver, q));
        SessionHints hash;
        hash.join_strategy = "hash";
        EXPECT_EQ(expected, Lines(ExecOk(driver, q, hash)));
        SessionHints supers;
        supers.table_projections = {{"fact", ""}, {"dim", ""}};
        EXPECT_EQ(expected, Lines(ExecOk(driver, q, supers)));
        ASSERT_TRUE(driver.Sleep(0.05).ok());
      }
      ASSERT_TRUE(
          db_->WaitForNodeState(driver, victim, NodeState::kUp).ok());
    });
  }
}

}  // namespace
}  // namespace fabric::vertica
