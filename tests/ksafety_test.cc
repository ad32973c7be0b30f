// K-safety subsystem tests: buddy placement, node lifecycle, query/DML
// failover to buddy copies, epoch-based recovery convergence, connector
// behavior under node kills, and the automatic cluster shutdown when both
// copies of a segment are lost.

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "seed_env.h"

#include "common/random.h"
#include "common/string_util.h"
#include "connector/default_source.h"
#include "net/network.h"
#include "obs/trace.h"
#include "obs/trace_matcher.h"
#include "sim/engine.h"
#include "spark/dataframe.h"
#include "vertica/copy_stream.h"
#include "vertica/database.h"
#include "vertica/ksafety/ksafety.h"
#include "vertica/session.h"

namespace fabric::vertica {
namespace {

using connector::kVerticaSourceName;
using spark::DataFrame;
using spark::SaveMode;
using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Value;

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64}, {"score", DataType::kFloat64}});
}

std::vector<Row> MakeRows(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value::Int64(i), Value::Float64(i * 1.5)});
  }
  return rows;
}

std::multiset<int64_t> IdsOf(const std::vector<Row>& rows) {
  std::multiset<int64_t> ids;
  for (const Row& row : rows) ids.insert(row[0].int64_value());
  return ids;
}

// Full-content multiset: every column of every row rendered to text, for
// byte-identical comparisons between loads served by different copies.
std::multiset<std::string> ContentsOf(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& row : rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.is_null() ? "<null>" : v.ToDisplayString();
      line += "|";
    }
    out.insert(std::move(line));
  }
  return out;
}

// Seeds for the randomized suites; KSAFETY_SEED (the CI matrix knob) adds
// one more.
std::vector<uint64_t> PropertySeeds() {
  return fabric::testing::PropertySeeds("KSAFETY_SEED");
}

class KSafetyTest : public ::testing::Test {
 protected:
  KSafetyTest() : network_(&engine_) {
    Database::Options vopts;
    vopts.num_nodes = 4;
    db_ = std::make_unique<Database>(&engine_, &network_, vopts);
    spark::SparkCluster::Options sopts;
    sopts.num_workers = 8;
    sopts.cost.spark_slots_per_worker = 8;
    cluster_ = std::make_unique<spark::SparkCluster>(&engine_, &network_,
                                                     sopts);
    session_ = std::make_unique<spark::SparkSession>(cluster_.get());
    connector::RegisterVerticaSource(session_.get(), db_.get());
  }

  void RunDriver(std::function<void(sim::Process&)> body) {
    engine_.Spawn("driver", std::move(body));
    Status status = engine_.Run();
    ASSERT_TRUE(status.ok()) << status;
  }

  Status SaveRows(sim::Process& driver, const std::vector<Row>& rows,
                  const std::string& table, int partitions) {
    auto df = session_->CreateDataFrame(TestSchema(), rows, partitions);
    if (!df.ok()) return df.status();
    return df->Write()
        .Format(kVerticaSourceName)
        .Option("table", table)
        .Option("host", db_->node_address(0))
        .Option("numpartitions", partitions)
        .Mode(SaveMode::kOverwrite)
        .Save(driver);
  }

  // Executes one statement over a short-lived session on `node`.
  Result<QueryResult> Exec(sim::Process& driver, int node,
                           const std::string& sql) {
    auto session = db_->Connect(driver, node, &cluster_->driver_host());
    if (!session.ok()) return session.status();
    auto result = (*session)->Execute(driver, sql);
    Status closed = (*session)->Close(driver);
    if (result.ok() && !closed.ok()) return closed;
    return result;
  }

  QueryResult ExecOk(sim::Process& driver, int node,
                     const std::string& sql) {
    auto result = Exec(driver, node, sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  std::vector<Row> TableRows(sim::Process& driver, int node,
                             const std::string& table) {
    return ExecOk(driver, node, StrCat("SELECT * FROM ", table)).rows;
  }

  // Loads `table` through V2S and returns the collected rows.
  Result<std::vector<Row>> LoadViaV2S(sim::Process& driver,
                                      const std::string& table,
                                      int partitions) {
    auto df = session_->Read()
                  .Format(kVerticaSourceName)
                  .Option("table", table)
                  .Option("host", db_->node_address(0))
                  .Option("numpartitions", partitions)
                  .Load(driver);
    FABRIC_RETURN_IF_ERROR(df.status());
    return df->Collect(driver);
  }

  // Asserts primary and buddy copies of every segment of `table` hold
  // identical contents (the recovery convergence checksum).
  void ExpectCopiesConverged(const std::string& table) {
    auto storage = db_->GetStorage(table);
    ASSERT_TRUE(storage.ok()) << storage.status();
    ASSERT_EQ((*storage)->buddy.size(), (*storage)->per_node.size());
    for (size_t s = 0; s < (*storage)->per_node.size(); ++s) {
      EXPECT_EQ((*storage)->per_node[s]->ContentFingerprint(),
                (*storage)->buddy[s]->ContentFingerprint())
          << table << " segment " << s << " diverged from its buddy";
    }
  }

  sim::Engine engine_;
  net::Network network_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<spark::SparkCluster> cluster_;
  std::unique_ptr<spark::SparkSession> session_;
};

// ------------------------------------------------------------- schedules

TEST(NodeFailureScheduleTest, RandomSchedulesAreDeterministic) {
  ksafety::RandomOutageOptions options;
  options.horizon = 20.0;
  options.max_outages = 3;
  for (uint64_t seed : PropertySeeds()) {
    ksafety::NodeFailureSchedule a =
        ksafety::RandomNodeOutages(seed, 4, options);
    ksafety::NodeFailureSchedule b =
        ksafety::RandomNodeOutages(seed, 4, options);
    ASSERT_EQ(a.outages().size(), b.outages().size());
    for (size_t i = 0; i < a.outages().size(); ++i) {
      EXPECT_EQ(a.outages()[i].node, b.outages()[i].node);
      EXPECT_DOUBLE_EQ(a.outages()[i].kill_at, b.outages()[i].kill_at);
      EXPECT_DOUBLE_EQ(a.outages()[i].restart_at,
                       b.outages()[i].restart_at);
    }
    // Outages are serialized: a node restarts (or the schedule ends)
    // before the next kill, so two copies of a segment are never down at
    // once and the cluster survives every schedule.
    double prev_end = 0;
    for (const ksafety::Outage& outage : a.outages()) {
      EXPECT_GE(outage.kill_at, prev_end);
      ASSERT_GE(outage.restart_at, outage.kill_at);
      prev_end = outage.restart_at;
    }
  }
  // Different seeds must eventually give different schedules.
  ksafety::NodeFailureSchedule s1 =
      ksafety::RandomNodeOutages(1, 4, options);
  ksafety::NodeFailureSchedule s2 =
      ksafety::RandomNodeOutages(2, 4, options);
  bool differ = s1.outages().size() != s2.outages().size();
  for (size_t i = 0; !differ && i < s1.outages().size(); ++i) {
    differ = s1.outages()[i].node != s2.outages()[i].node ||
             s1.outages()[i].kill_at != s2.outages()[i].kill_at;
  }
  EXPECT_TRUE(differ) << "seeds 1 and 2 produced identical schedules";
}

TEST(NodeFailureScheduleTest, SingleNodeClusterGetsNoOutages) {
  EXPECT_TRUE(ksafety::RandomNodeOutages(7, 1, {}).outages().empty());
}

// ------------------------------------------------------ lifecycle/catalog

TEST_F(KSafetyTest, CatalogExposesNodeStateAndBuddyPlacement) {
  RunDriver([&](sim::Process& driver) {
    ExecOk(driver, 0,
           "CREATE TABLE t (id INTEGER, score FLOAT) "
           "SEGMENTED BY HASH(id) ALL NODES");

    QueryResult nodes = ExecOk(
        driver, 0, "SELECT node_name, state FROM v_catalog.nodes");
    ASSERT_EQ(nodes.rows.size(), 4u);
    for (const Row& row : nodes.rows) {
      EXPECT_EQ(row[1].varchar_value(), "UP");
    }

    QueryResult segments = ExecOk(
        driver, 0,
        "SELECT node_id, buddy_node_id, buddy_node_name FROM "
        "v_catalog.segments WHERE table_name = 't' ORDER BY node_id");
    ASSERT_EQ(segments.rows.size(), 4u);
    for (const Row& row : segments.rows) {
      int64_t node = row[0].int64_value();
      EXPECT_EQ(row[1].int64_value(), (node + 1) % 4);
      EXPECT_EQ(row[2].varchar_value(),
                db_->node_name(static_cast<int>((node + 1) % 4)));
    }

    ASSERT_TRUE(db_->KillNode(2).ok());
    EXPECT_EQ(db_->node_state(2), NodeState::kDown);
    nodes = ExecOk(driver, 0,
                   "SELECT node_name, state FROM v_catalog.nodes");
    EXPECT_EQ(nodes.rows[2][1].varchar_value(), "DOWN");
    EXPECT_EQ(nodes.rows[0][1].varchar_value(), "UP");

    // A DOWN node refuses connections.
    auto refused = db_->Connect(driver, 2, &cluster_->driver_host());
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);

    ASSERT_TRUE(db_->RestartNode(2).ok());
    ASSERT_TRUE(db_->WaitForNodeState(driver, 2, NodeState::kUp).ok());
    nodes = ExecOk(driver, 0,
                   "SELECT node_name, state FROM v_catalog.nodes");
    EXPECT_EQ(nodes.rows[2][1].varchar_value(), "UP");
  });
}

TEST_F(KSafetyTest, KillBreaksOpenSessionsOnTheNode) {
  RunDriver([&](sim::Process& driver) {
    auto session = db_->Connect(driver, 1, &cluster_->driver_host());
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(
        (*session)->Execute(driver, "SELECT 1 AS x").ok());
    ASSERT_TRUE(db_->KillNode(1).ok());
    auto after = (*session)->Execute(driver, "SELECT 1 AS x");
    ASSERT_FALSE(after.ok());
    EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  });
}

// ------------------------------------------------------ failover serving

TEST_F(KSafetyTest, ScansAndWritesFailOverToBuddyCopies) {
  obs::Tracer tracer([this] { return engine_.now(); });
  obs::ScopedTracer install(&tracer);
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows = MakeRows(200);
    ASSERT_TRUE(SaveRows(driver, rows, "t", 8).ok());

    ASSERT_TRUE(db_->KillNode(1).ok());

    // Reads: node 1's segment is served from its buddy on node 2.
    EXPECT_EQ(IdsOf(TableRows(driver, 0, "t")), IdsOf(rows));
    EXPECT_GT(tracer.metrics().counter("ksafety.scan_reroutes"), 0.0);

    // Writes while down: INSERT/UPDATE/DELETE land on the surviving
    // copies and report correct counts. (The UPDATE keeps the hash key
    // unchanged so no row migrates to another segment.)
    QueryResult ins = ExecOk(
        driver, 0, "INSERT INTO t VALUES (1000, 5.0), (1001, 6.0)");
    EXPECT_EQ(ins.affected, 2);
    QueryResult upd = ExecOk(
        driver, 0, "UPDATE t SET score = score WHERE id < 50");
    EXPECT_EQ(upd.affected, 50);
    QueryResult del = ExecOk(driver, 0,
                             "DELETE FROM t WHERE id >= 190 AND id < 300");
    EXPECT_EQ(del.affected, 10);
    EXPECT_EQ(
        ExecOk(driver, 0, "SELECT COUNT(*) FROM t").rows[0][0]
            .int64_value(),
        192);
  });
}

TEST_F(KSafetyTest, ReplicatedWritesCountCorrectlyWithDownReplica) {
  RunDriver([&](sim::Process& driver) {
    ExecOk(driver, 1,
           "CREATE TABLE r (id INTEGER, score FLOAT) "
           "UNSEGMENTED ALL NODES");
    ExecOk(driver, 1,
           "INSERT INTO r VALUES (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)");
    // Node 0 held the replica whose counts used to be the only ones
    // reported; with it down the surviving replicas must still report
    // the true affected-row counts.
    ASSERT_TRUE(db_->KillNode(0).ok());
    EXPECT_EQ(ExecOk(driver, 1, "UPDATE r SET score = 9.0").affected, 4);
    EXPECT_EQ(
        ExecOk(driver, 1, "DELETE FROM r WHERE id <= 2").affected, 2);
    EXPECT_EQ(
        ExecOk(driver, 1, "SELECT COUNT(*) FROM r").rows[0][0]
            .int64_value(),
        2);
  });
}

// --------------------------------------------------------------- recovery

TEST_F(KSafetyTest, RecoveryReplaysWritesMissedWhileDown) {
  obs::Tracer tracer([this] { return engine_.now(); });
  obs::ScopedTracer install(&tracer);
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows = MakeRows(300);
    ASSERT_TRUE(SaveRows(driver, rows, "t", 8).ok());

    ASSERT_TRUE(db_->KillNode(1).ok());
    ExecOk(driver, 0, "INSERT INTO t VALUES (2000, 1.0), (2001, 2.0)");
    ExecOk(driver, 0, "UPDATE t SET score = -1.0 WHERE id < 20");
    ExecOk(driver, 0, "DELETE FROM t WHERE id >= 290 AND id < 1000");

    ASSERT_TRUE(db_->RestartNode(1).ok());
    EXPECT_EQ(db_->node_state(1), NodeState::kRecovering);
    ASSERT_TRUE(db_->WaitForNodeState(driver, 1, NodeState::kUp).ok());

    // The recovered node holds exactly what it missed: every segment's
    // primary and buddy fingerprints match again.
    ExpectCopiesConverged("t");
    EXPECT_EQ(tracer.metrics().counter("ksafety.recoveries"), 1.0);
    EXPECT_GT(tracer.metrics().counter("ksafety.recovery_bytes"), 0.0);
    obs::TraceMatcher transfers =
        obs::TraceMatcher(tracer).Category("ksafety").Name(
            "recovery.transfer");
    EXPECT_EQ(transfers.count(), 2u);  // begin+end of one span

    // And the cluster serves the merged state from every node.
    QueryResult count = ExecOk(driver, 1, "SELECT COUNT(*) FROM t");
    EXPECT_EQ(count.rows[0][0].int64_value(), 292);
  });
}

TEST_F(KSafetyTest, RecoveryConvergesUnderRandomOutageSchedules) {
  for (uint64_t seed : PropertySeeds()) {
    SCOPED_TRACE(StrCat("seed=", seed));
    sim::Engine engine;
    net::Network network(&engine);
    Database::Options vopts;
    vopts.num_nodes = 4;
    Database db(&engine, &network, vopts);
    obs::Tracer tracer([&engine] { return engine.now(); });
    obs::ScopedTracer install(&tracer);

    ksafety::RandomOutageOptions options;
    options.horizon = 5.0;
    options.max_outages = 2;
    options.min_downtime = 0.5;
    options.max_downtime = 2.0;
    ksafety::NodeFailureSchedule schedule =
        ksafety::RandomNodeOutages(seed, 4, options);
    ASSERT_FALSE(schedule.outages().empty());
    schedule.Install(&db);

    engine.Spawn("driver", [&](sim::Process& driver) {
      // A console client (no network hop) on a node no schedule touches:
      // the writer survives every outage.
      std::set<int> victims;
      for (const ksafety::Outage& outage : schedule.outages()) {
        victims.insert(outage.node);
      }
      int safe_node = 0;
      while (victims.count(safe_node) > 0) ++safe_node;
      auto session = db.Connect(driver, safe_node, nullptr);
      ASSERT_TRUE(session.ok()) << session.status();
      ASSERT_TRUE((*session)
                      ->Execute(driver,
                                "CREATE TABLE t (id INTEGER, score FLOAT) "
                                "SEGMENTED BY HASH(id) ALL NODES")
                      .ok());
      // Write continuously across the whole outage horizon so every
      // kill lands with data behind it and every recovery has a delta
      // to pull.
      int next_id = 0;
      while (driver.Now() < options.horizon + options.max_downtime) {
        std::string values;
        for (int i = 0; i < 10; ++i, ++next_id) {
          values += StrCat(i ? ", " : "", "(", next_id, ", ",
                           next_id % 7, ".5)");
        }
        auto inserted = (*session)->Execute(
            driver, StrCat("INSERT INTO t VALUES ", values));
        ASSERT_TRUE(inserted.ok()) << inserted.status();
        ASSERT_TRUE(driver.Sleep(0.2).ok());
      }
      // Let every scheduled restart finish its recovery.
      for (const ksafety::Outage& outage : schedule.outages()) {
        if (outage.restart_at >= 0) {
          ASSERT_TRUE(
              db.WaitForNodeState(driver, outage.node, NodeState::kUp)
                  .ok());
        }
      }
      ASSERT_TRUE((*session)->Close(driver).ok());

      EXPECT_FALSE(db.cluster_is_down());
      auto storage = db.GetStorage("t");
      ASSERT_TRUE(storage.ok());
      for (size_t s = 0; s < (*storage)->per_node.size(); ++s) {
        EXPECT_EQ((*storage)->per_node[s]->ContentFingerprint(),
                  (*storage)->buddy[s]->ContentFingerprint())
            << "segment " << s << " diverged (seed " << seed << ")";
      }
      // All rows of all batches are visible.
      auto count =
          db.Connect(driver, safe_node, nullptr);
      ASSERT_TRUE(count.ok());
      auto result =
          (*count)->Execute(driver, "SELECT COUNT(*) FROM t");
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->rows[0][0].int64_value(), next_id);
      ASSERT_TRUE((*count)->Close(driver).ok());
    });
    Status status = engine.Run();
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_GT(tracer.metrics().counter("ksafety.recoveries"), 0.0);
  }
}

// -------------------------------------------------------- cluster shutdown

TEST_F(KSafetyTest, LosingBothCopiesOfASegmentShutsTheClusterDown) {
  obs::Tracer tracer([this] { return engine_.now(); });
  obs::ScopedTracer install(&tracer);
  RunDriver([&](sim::Process& driver) {
    ASSERT_TRUE(db_->KillNode(1).ok());
    EXPECT_FALSE(db_->cluster_is_down());
    // Node 2 holds the buddy copy of node 1's segment: losing it loses
    // both copies, and Vertica shuts the whole cluster down.
    ASSERT_TRUE(db_->KillNode(2).ok());
    EXPECT_TRUE(db_->cluster_is_down());
    for (int n = 0; n < 4; ++n) {
      EXPECT_EQ(db_->node_state(n), NodeState::kDown);
    }
    EXPECT_EQ(tracer.metrics().counter("ksafety.cluster_shutdowns"), 1.0);

    auto refused = db_->Connect(driver, 0, &cluster_->driver_host());
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
    // A downed cluster does not come back node by node.
    EXPECT_EQ(db_->RestartNode(1).code(),
              StatusCode::kFailedPrecondition);
  });
}

// -------------------------------------------------------- write placement

// Asserts every physical copy of `layout` (a table, or a projection when
// `projection`) holds exactly the images of `anchor_rows` its segment
// owns: each live copy all of them, a copy on `down` none (-1: every
// node UP).
void ExpectPlacement(Database& db, const std::string& layout,
                     bool projection, const std::vector<Row>& anchor_rows,
                     int down) {
  SCOPED_TRACE(layout);
  Database::SegmentSet* set = nullptr;
  Segmentation segmentation;
  std::vector<Row> image = anchor_rows;
  if (projection) {
    auto def = db.catalog().GetProjection(layout);
    auto storage = db.GetProjectionStorage(layout);
    ASSERT_TRUE(def.ok() && storage.ok());
    set = *storage;
    segmentation = (*def)->segmentation;
    image = (*def)->Project(anchor_rows);
  } else {
    auto def = db.catalog().GetTable(layout);
    auto storage = db.GetStorage(layout);
    ASSERT_TRUE(def.ok() && storage.ok());
    set = *storage;
    segmentation = (*def)->segmentation;
  }
  const int nodes = db.num_nodes();
  std::vector<std::vector<Row>> owned(nodes);
  for (const Row& row : image) {
    int owner = db.OwnerNode(segmentation, row);
    for (int n = 0; n < nodes; ++n) {
      if (owner < 0 || owner == n) owned[n].push_back(row);
    }
  }
  auto held = [&db](storage::SegmentStore* store) {
    auto rows = store->SnapshotRows(db.current_epoch());
    EXPECT_TRUE(rows.ok()) << rows.status();
    return rows.ok() ? ContentsOf(*rows) : std::multiset<std::string>{};
  };
  auto expected = [&](int segment, int host) {
    return host == down ? std::multiset<std::string>{}
                        : ContentsOf(owned[segment]);
  };
  for (int s = 0; s < nodes; ++s) {
    EXPECT_EQ(held(set->per_node[s].get()), expected(s, s))
        << "segment " << s << " primary";
    if (!segmentation.unsegmented()) {
      EXPECT_EQ(held(set->buddy[s].get()), expected(s, db.buddy_node(s)))
          << "segment " << s << " buddy";
    }
  }
}

// Every segment's copies (primary and buddy, or every replica) carry the
// same content fingerprint.
void ExpectFingerprintsAgree(Database::SegmentSet* set) {
  for (size_t s = 0; s < set->per_node.size(); ++s) {
    storage::SegmentStore* twin = set->buddy.empty()
                                      ? set->per_node[0].get()
                                      : set->buddy[s].get();
    EXPECT_EQ(set->per_node[s]->ContentFingerprint(),
              twin->ContentFingerprint())
        << "segment " << s << " diverged";
  }
}

// INSERT, INSERT DIRECT, COPY (WOS and DIRECT), CREATE PROJECTION's
// populate and projection maintenance on INSERT and COPY, each against a
// segmented and a replicated anchor carrying a segmented and a replicated
// projection, with one seeded node down: every row lands on exactly the
// live copies of its owner segment, the down replica is skipped, and
// recovery brings every copy back in line.
TEST_F(KSafetyTest, WritesLandOnlyOnTheirSegmentsLiveCopies) {
  const std::vector<std::string> anchors = {"seg", "rep"};
  auto projections_of = [](const std::string& anchor) {
    return std::vector<std::string>{anchor + "_by_score",
                                    anchor + "_everywhere"};
  };
  for (uint64_t seed : PropertySeeds()) {
    SCOPED_TRACE(StrCat("seed=", seed));
    Rng rng(seed);
    const int down = static_cast<int>(rng.NextUint64(4));
    const int client =
        (down + 1 + static_cast<int>(rng.NextUint64(3))) % 4;
    sim::Engine engine;
    net::Network network(&engine);
    Database::Options vopts;
    vopts.num_nodes = 4;
    Database db(&engine, &network, vopts);

    int next_id = 0;
    auto make_rows = [&] {
      std::vector<Row> rows;
      int64_t count = rng.NextInt64(1, 12);
      for (int64_t i = 0; i < count; ++i) {
        rows.push_back({Value::Int64(next_id++),
                        Value::Float64(rng.NextInt64(0, 20) + 0.5)});
      }
      return rows;
    };
    auto values_of = [](const std::vector<Row>& rows) {
      std::string values;
      for (const Row& row : rows) {
        values += StrCat(values.empty() ? "" : ", ", "(",
                         row[0].int64_value(), ", ",
                         row[1].ToDisplayString(), ")");
      }
      return values;
    };
    std::vector<Row> written;

    engine.Spawn("driver", [&](sim::Process& driver) {
      auto session = db.Connect(driver, client, nullptr);
      ASSERT_TRUE(session.ok()) << session.status();
      auto exec = [&](const std::string& sql) {
        auto result = (*session)->Execute(driver, sql);
        EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
      };
      auto insert = [&](const std::string& verb) {
        std::vector<Row> rows = make_rows();
        for (const std::string& anchor : anchors) {
          exec(StrCat(verb, " INTO ", anchor, " VALUES ", values_of(rows)));
        }
        written.insert(written.end(), rows.begin(), rows.end());
      };
      auto copy = [&](bool direct) {
        std::vector<Row> rows = make_rows();
        for (const std::string& anchor : anchors) {
          CopyStream::Options options;
          options.direct = direct;
          auto stream =
              CopyStream::Open(driver, session->get(), anchor, options);
          ASSERT_TRUE(stream.ok()) << stream.status();
          ASSERT_TRUE((*stream)->WriteBatch(driver, rows).ok());
          auto loaded = (*stream)->Finish(driver);
          ASSERT_TRUE(loaded.ok()) << loaded.status();
          EXPECT_EQ(loaded->loaded, static_cast<int64_t>(rows.size()));
        }
        written.insert(written.end(), rows.begin(), rows.end());
      };

      exec("CREATE TABLE seg (id INTEGER, score FLOAT) "
           "SEGMENTED BY HASH(id) ALL NODES");
      exec("CREATE TABLE rep (id INTEGER, score FLOAT) "
           "UNSEGMENTED ALL NODES");
      ASSERT_TRUE(db.KillNode(down).ok());
      ASSERT_FALSE(db.cluster_is_down());

      insert("INSERT");
      for (const std::string& anchor : anchors) {
        exec(StrCat("CREATE PROJECTION ", anchor, "_by_score AS SELECT "
                    "score, id FROM ", anchor,
                    " ORDER BY score SEGMENTED BY HASH(score) ALL NODES"));
        exec(StrCat("CREATE PROJECTION ", anchor, "_everywhere AS SELECT "
                    "id FROM ", anchor, " ORDER BY id UNSEGMENTED ALL NODES"));
      }
      insert("INSERT");
      insert("INSERT /*+ DIRECT */");
      copy(/*direct=*/false);
      copy(/*direct=*/true);

      for (const std::string& anchor : anchors) {
        ExpectPlacement(db, anchor, false, written, down);
        for (const std::string& proj : projections_of(anchor)) {
          ExpectPlacement(db, proj, true, written, down);
        }
      }

      ASSERT_TRUE(db.RestartNode(down).ok());
      ASSERT_TRUE(db.WaitForNodeState(driver, down, NodeState::kUp).ok());
      for (const std::string& anchor : anchors) {
        ExpectPlacement(db, anchor, false, written, -1);
        ExpectFingerprintsAgree(*db.GetStorage(anchor));
        for (const std::string& proj : projections_of(anchor)) {
          ExpectPlacement(db, proj, true, written, -1);
          ExpectFingerprintsAgree(*db.GetProjectionStorage(proj));
        }
      }
      ASSERT_TRUE((*session)->Close(driver).ok());

      // Losing both copies of a segment: a segmented write has no copy
      // left to reach; a replicated one skips every down replica.
      ASSERT_TRUE(db.KillNode(down).ok());
      ASSERT_TRUE(db.KillNode(db.buddy_node(down)).ok());
      ASSERT_TRUE(db.cluster_is_down());
      for (const std::string& anchor : anchors) {
        auto def = db.catalog().GetTable(anchor);
        ASSERT_TRUE(def.ok());
        storage::TxnId txn = db.BeginTxnInternal();
        Status status = db.WriteSegments(
            driver, *db.GetStorage(anchor), (*def)->segmentation, anchor,
            make_rows(), txn, client, 1.0, /*direct=*/false,
            Database::LoadCpu::kSortEncode);
        db.AbortTxnInternal(txn);
        if (anchor == "seg") {
          EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status;
        } else {
          EXPECT_TRUE(status.ok()) << status;
        }
      }
    });
    Status status = engine.Run();
    ASSERT_TRUE(status.ok()) << status;
  }
}

// ------------------------------------------------------------- connectors

TEST_F(KSafetyTest, V2SLoadIsByteIdenticalUnderMidLoadNodeKill) {
  obs::Tracer tracer([this] { return engine_.now(); });
  obs::ScopedTracer install(&tracer);
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows = MakeRows(400);
    ASSERT_TRUE(SaveRows(driver, rows, "t", 16).ok());

    auto baseline = LoadViaV2S(driver, "t", 16);
    ASSERT_TRUE(baseline.ok()) << baseline.status();

    // Kill node 3 just after the load starts: partitions targeting it
    // fail over to the ring successor and re-issue the same snapshot
    // query there.
    ksafety::NodeFailureSchedule schedule;
    schedule.KillNode(3, driver.Now() + 0.05);
    schedule.Install(db_.get());
    auto with_kill = LoadViaV2S(driver, "t", 16);
    ASSERT_TRUE(with_kill.ok()) << with_kill.status();

    EXPECT_EQ(ContentsOf(*with_kill), ContentsOf(*baseline))
        << "failover load returned different bytes";
    EXPECT_GT(tracer.metrics().counter("v2s.scan_failovers") +
                  tracer.metrics().counter("ksafety.scan_reroutes"),
              0.0);
    obs::TraceMatcher failovers =
        obs::TraceMatcher(tracer).Category("v2s").Name("scan.failover");
    EXPECT_EQ(static_cast<double>(failovers.count()),
              tracer.metrics().counter("v2s.scan_failovers"));
  });
}

TEST_F(KSafetyTest, V2SLoadSurvivesRandomOutageSchedules) {
  for (uint64_t seed : PropertySeeds()) {
    SCOPED_TRACE(StrCat("seed=", seed));
    sim::Engine engine;
    net::Network network(&engine);
    Database::Options vopts;
    vopts.num_nodes = 4;
    Database db(&engine, &network, vopts);
    spark::SparkCluster::Options sopts;
    sopts.num_workers = 8;
    sopts.cost.spark_slots_per_worker = 8;
    spark::SparkCluster cluster(&engine, &network, sopts);
    spark::SparkSession spark(&cluster);
    connector::RegisterVerticaSource(&spark, &db);

    engine.Spawn("driver", [&](sim::Process& driver) {
      std::vector<Row> rows = MakeRows(240);
      auto df = spark.CreateDataFrame(TestSchema(), rows, 8);
      ASSERT_TRUE(df.ok());
      ASSERT_TRUE(df->Write()
                      .Format(kVerticaSourceName)
                      .Option("table", "t")
                      .Option("numpartitions", 8)
                      .Mode(SaveMode::kOverwrite)
                      .Save(driver)
                      .ok());

      // Re-base the seeded schedule onto "now": the outages then land
      // during the loads below.
      ksafety::RandomOutageOptions options;
      options.horizon = 8.0;
      options.max_outages = 2;
      ksafety::NodeFailureSchedule seeded =
          ksafety::RandomNodeOutages(seed, 4, options);
      ksafety::NodeFailureSchedule rebased;
      for (const ksafety::Outage& outage : seeded.outages()) {
        rebased.KillAndRestart(outage.node,
                               driver.Now() + outage.kill_at,
                               driver.Now() + outage.restart_at);
      }
      rebased.Install(&db);

      // Load repeatedly across the outage window: every load must return
      // exactly the saved rows no matter which copies served it.
      for (int round = 0; round < 4; ++round) {
        auto loaded = spark.Read()
                          .Format(kVerticaSourceName)
                          .Option("table", "t")
                          .Option("numpartitions", 8)
                          .Load(driver);
        ASSERT_TRUE(loaded.ok()) << loaded.status();
        auto collected = loaded->Collect(driver);
        ASSERT_TRUE(collected.ok()) << collected.status();
        EXPECT_EQ(IdsOf(*collected), IdsOf(rows))
            << "round " << round << " lost or duplicated rows";
        ASSERT_TRUE(driver.Sleep(2.0).ok());
      }
      for (const ksafety::Outage& outage : rebased.outages()) {
        if (outage.restart_at >= 0) {
          ASSERT_TRUE(
              db.WaitForNodeState(driver, outage.node, NodeState::kUp)
                  .ok());
        }
      }
      EXPECT_FALSE(db.cluster_is_down());
    });
    Status status = engine.Run();
    ASSERT_TRUE(status.ok()) << status;
  }
}

// S2V exactly-once when a Vertica node dies at an arbitrary point of the
// five-phase protocol. The kill-time grid sweeps the whole save makespan
// (measured on a clean run), so kills land inside every phase; Spark's
// task retry plus the connector's conditional done-flag dedup must keep
// the result exactly-once, and the node's restart must converge.
class S2VNodeKillPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(S2VNodeKillPropertyTest, ExactlyOnceAcrossKillTimes) {
  constexpr int kGridPoints = 8;
  // Clean run: measure the save makespan.
  double makespan = 0;
  {
    sim::Engine engine;
    net::Network network(&engine);
    Database::Options vopts;
    vopts.num_nodes = 4;
    Database db(&engine, &network, vopts);
    spark::SparkCluster::Options sopts;
    sopts.num_workers = 4;
    sopts.cost.spark_slots_per_worker = 4;
    spark::SparkCluster cluster(&engine, &network, sopts);
    spark::SparkSession spark(&cluster);
    connector::RegisterVerticaSource(&spark, &db);
    engine.Spawn("driver", [&](sim::Process& driver) {
      auto df = spark.CreateDataFrame(TestSchema(), MakeRows(300), 8);
      ASSERT_TRUE(df.ok());
      double start = driver.Now();
      ASSERT_TRUE(df->Write()
                      .Format(kVerticaSourceName)
                      .Option("table", "t")
                      .Option("numpartitions", 8)
                      .Mode(SaveMode::kOverwrite)
                      .Save(driver)
                      .ok());
      makespan = driver.Now() - start;
    });
    ASSERT_TRUE(engine.Run().ok());
    ASSERT_GT(makespan, 0);
  }

  double kill_at = makespan * (GetParam() + 0.5) / kGridPoints;
  sim::Engine engine;
  net::Network network(&engine);
  Database::Options vopts;
  vopts.num_nodes = 4;
  Database db(&engine, &network, vopts);
  spark::SparkCluster::Options sopts;
  sopts.num_workers = 4;
  sopts.cost.spark_slots_per_worker = 4;
  spark::SparkCluster cluster(&engine, &network, sopts);
  spark::SparkSession spark(&cluster);
  connector::RegisterVerticaSource(&spark, &db);
  obs::Tracer tracer([&engine] { return engine.now(); });
  obs::ScopedTracer install(&tracer);

  // Node 1 takes data partitions but not the driver's entry node, so the
  // kill hits worker sessions mid-phase.
  ksafety::NodeFailureSchedule schedule;
  schedule.KillAndRestart(1, kill_at, kill_at + makespan);
  schedule.Install(&db);

  Status save_status;
  std::vector<Row> rows = MakeRows(300);
  engine.Spawn("driver", [&](sim::Process& driver) {
    auto df = spark.CreateDataFrame(TestSchema(), rows, 8);
    ASSERT_TRUE(df.ok());
    save_status = df->Write()
                      .Format(kVerticaSourceName)
                      .Option("table", "t")
                      .Option("numpartitions", 8)
                      .Mode(SaveMode::kOverwrite)
                      .Save(driver);
    ASSERT_TRUE(
        db.WaitForNodeState(driver, 1, NodeState::kUp).ok());
    if (save_status.ok()) {
      auto session = db.Connect(driver, 0, &cluster.driver_host());
      ASSERT_TRUE(session.ok());
      auto result = (*session)->Execute(driver, "SELECT * FROM t");
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(IdsOf(result->rows), IdsOf(rows))
          << "kill at " << kill_at << " broke exactly-once";
      ASSERT_TRUE((*session)->Close(driver).ok());
      // Recovery caught the restarted node up with whatever the save
      // committed while it was down.
      auto storage = db.GetStorage("t");
      ASSERT_TRUE(storage.ok());
      for (size_t s = 0; s < (*storage)->per_node.size(); ++s) {
        EXPECT_EQ((*storage)->per_node[s]->ContentFingerprint(),
                  (*storage)->buddy[s]->ContentFingerprint());
      }
    } else {
      // A failed overwrite save must never publish the target.
      EXPECT_FALSE(db.catalog().HasTable("t"));
    }
  });
  Status status = engine.Run();
  ASSERT_TRUE(status.ok()) << status;

  // Five-phase trace invariants, kill or no kill: at most one durable
  // COPY commit per partition on success, no promotion on failure.
  obs::TraceMatcher s2v = obs::TraceMatcher(tracer).Category("s2v");
  obs::TraceMatcher commits = s2v.Name("phase1.commit");
  obs::TraceMatcher promotes = s2v.Name("phase5.promote");
  if (save_status.ok()) {
    for (int p = 0; p < 8; ++p) {
      EXPECT_EQ(commits.WithAttr("partition", p).count(), 1u)
          << "partition " << p << " committed != once:\n"
          << commits.Describe();
    }
    EXPECT_EQ(promotes.count(), 1u) << promotes.Describe();
    EXPECT_TRUE(commits.StrictlyBefore(promotes));
  } else {
    EXPECT_TRUE(promotes.empty())
        << "failed save published data:\n" << promotes.Describe();
  }
}

INSTANTIATE_TEST_SUITE_P(KillTimeGrid, S2VNodeKillPropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace fabric::vertica
