// Multi-tenant workload management walkthrough.
//
// Three tenants share one 4-node Vertica cluster through named resource
// pools:
//
//   etl        low priority, small concurrency — bulk S2V loads
//   dashboard  high priority, tight per-query memory — short SQL
//   adhoc      mid priority, cascades to general when full — V2S reads
//
// A burst of mixed traffic (SQL + V2S + S2V, one sim process per client
// session over a shared connection pool) hits all three pools at once.
// The dashboard pool's per-query grant is deliberately tiny, so its
// GROUP BYs run over budget and complete by spilling partitions to
// simulated local disk — with byte-identical results. Afterwards the
// example prints per-pool p99 latency, the spill counters, and the live
// v_monitor.resource_pool_status system table.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/string_util.h"
#include "connector/default_source.h"
#include "connector/failover.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/waitable.h"
#include "spark/dataframe.h"
#include "vertica/database.h"
#include "vertica/session.h"
#include "vertica/wm/resource_pool.h"

namespace {

using fabric::Status;
using fabric::StrCat;
using fabric::connector::kVerticaSourceName;
using fabric::storage::DataType;
using fabric::storage::Row;
using fabric::storage::Schema;
using fabric::storage::Value;
using fabric::vertica::wm::PoolConfig;
using fabric::vertica::wm::WorkloadConfig;

constexpr int kSessionsPerPool = 24;
constexpr int kConnections = 24;

WorkloadConfig ThreeTenantPools() {
  WorkloadConfig config;
  PoolConfig general;
  general.name = "general";
  general.max_concurrency = 4;
  general.memory_budget = 64 << 20;
  config.pools.push_back(general);

  PoolConfig etl;
  etl.name = "etl";
  etl.cascade_to = "general";
  etl.priority = 0;
  etl.max_concurrency = 2;
  etl.memory_budget = 32 << 20;
  config.pools.push_back(etl);

  PoolConfig dashboard;
  dashboard.name = "dashboard";
  dashboard.cascade_to = "general";
  dashboard.priority = 10;
  dashboard.max_concurrency = 4;
  // Tiny per-query grant: the dashboard GROUP BY spills and still
  // returns byte-identical rows.
  dashboard.query_memory = 400;
  config.pools.push_back(dashboard);

  PoolConfig adhoc;
  adhoc.name = "adhoc";
  adhoc.cascade_to = "general";
  adhoc.priority = 5;
  adhoc.max_concurrency = 2;
  adhoc.memory_budget = 16 << 20;
  config.pools.push_back(adhoc);
  return config;
}

double P99(std::vector<double> latencies) {
  if (latencies.empty()) return 0;
  std::sort(latencies.begin(), latencies.end());
  size_t index =
      static_cast<size_t>(0.99 * (latencies.size() - 1) + 0.5);
  return latencies[std::min(index, latencies.size() - 1)];
}

// One tenant session's statement: dashboard SQL (tenant 0), an adhoc V2S
// grouped aggregate (tenant 1) or an etl S2V load (tenant 2).
Status RunSession(fabric::sim::Process& self, int tenant, int i,
                  fabric::vertica::Database* db,
                  fabric::spark::SparkSession* spark) {
  if (tenant == 0) {
    // dashboard: short SQL.
    auto s = fabric::connector::ConnectWithFailover(
        self, db, i % db->num_nodes(), nullptr);
    if (!s.ok()) return s.status();
    (*s)->set_resource_pool("dashboard");
    Status status = (*s)->Execute(self,
                                  "SELECT region, COUNT(*), SUM(sales) "
                                  "FROM facts GROUP BY region")
                        .status();
    Status closed = (*s)->Close(self);
    return status.ok() ? closed : status;
  }
  if (tenant == 1) {
    // adhoc: V2S grouped aggregate (pushes into Vertica).
    auto df = spark->Read()
                  .Format(kVerticaSourceName)
                  .Option("table", "facts")
                  .Option("numpartitions", 2)
                  .Option("resource_pool", "adhoc")
                  .Load(self);
    if (!df.ok()) return df.status();
    auto agg = df->GroupBy({"region"})->Agg(
        {fabric::spark::AggCount(), fabric::spark::AggSum("sales")});
    if (!agg.ok()) return agg.status();
    return agg->Collect(self).status();
  }
  // etl: S2V load into a per-session table.
  Schema load_schema({{"id", DataType::kInt64}, {"val", DataType::kInt64}});
  std::vector<Row> rows;
  for (int r = 0; r < 40; ++r) {
    rows.push_back({Value::Int64(r), Value::Int64(i * 100 + r)});
  }
  auto df = spark->CreateDataFrame(load_schema, std::move(rows), 2);
  if (!df.ok()) return df.status();
  return df->Write()
      .Format(kVerticaSourceName)
      .Option("table", StrCat("load_", i))
      .Option("numpartitions", 2)
      .Option("resource_pool", "etl")
      .Mode(fabric::spark::SaveMode::kOverwrite)
      .Save(self);
}

void RunDemo(fabric::sim::Process& driver, fabric::vertica::Database* db,
             fabric::spark::SparkSession* spark,
             fabric::sim::Engine* engine) {
  // Stage the fact table the dashboard and adhoc tenants query.
  auto session = db->Connect(driver, 0, nullptr);
  FABRIC_CHECK_OK(session.status());
  FABRIC_CHECK_OK(
      (*session)
          ->Execute(driver,
                    "CREATE TABLE facts (region INTEGER, item INTEGER, "
                    "sales INTEGER) SEGMENTED BY HASH(region) ALL NODES")
          .status());
  std::string values;
  for (int i = 0; i < 240; ++i) {
    values += StrCat(i ? ", " : "", "(", i % 12, ", ", i, ", ",
                     (i * 37) % 1000, ")");
  }
  FABRIC_CHECK_OK(
      (*session)
          ->Execute(driver, StrCat("INSERT INTO facts VALUES ", values))
          .status());
  FABRIC_CHECK_OK((*session)->Close(driver));

  // Mixed burst: kSessionsPerPool sessions per tenant, all arriving
  // inside half a virtual second. Each session is its own sim process;
  // a client connection pool of kConnections bounds how many run a
  // statement at once.
  std::vector<std::vector<double>> latencies(3);
  fabric::sim::Semaphore connections(engine, kConnections);
  fabric::sim::Latch finished(engine, 3 * kSessionsPerPool);
  int open = 0;
  int peak_open = 0;
  for (int i = 0; i < kSessionsPerPool; ++i) {
    for (int tenant = 0; tenant < 3; ++tenant) {
      const double start = 0.5 * i / kSessionsPerPool;
      engine->Spawn(
          StrCat("tenant", tenant, ":session", i),
          [=, &latencies, &connections, &finished, &open,
           &peak_open](fabric::sim::Process& self) {
            if (start > self.Now()) {
              FABRIC_CHECK_OK(self.Sleep(start - self.Now()));
            }
            peak_open = std::max(peak_open, ++open);
            FABRIC_CHECK_OK(connections.Acquire(self));
            FABRIC_CHECK_OK(RunSession(self, tenant, i, db, spark));
            latencies[tenant].push_back(self.Now() - start);
            connections.Release();
            --open;
            finished.CountDown();
          });
    }
  }
  double t0 = driver.Now();
  FABRIC_CHECK_OK(finished.Await(driver));
  std::printf("%d sessions over 3 pools in %.2f virtual s (peak %d open)\n\n",
              3 * kSessionsPerPool, driver.Now() - t0, peak_open);

  const char* kPoolOfTenant[] = {"dashboard", "adhoc", "etl"};
  std::printf("%-10s %9s %9s\n", "pool", "sessions", "p99 (s)");
  for (int tenant = 0; tenant < 3; ++tenant) {
    std::printf("%-10s %9zu %9.2f\n", kPoolOfTenant[tenant],
                latencies[tenant].size(), P99(latencies[tenant]));
  }

  // Live pool telemetry, the same way a DBA would read it.
  session = db->Connect(driver, 0, nullptr);
  FABRIC_CHECK_OK(session.status());
  auto pools = (*session)->Execute(
      driver,
      "SELECT pool_name, SUM(running_query_count), SUM(admitted), "
      "SUM(borrowed), SUM(spills), SUM(spill_bytes) "
      "FROM v_monitor.resource_pool_status GROUP BY pool_name "
      "ORDER BY pool_name");
  FABRIC_CHECK_OK(pools.status());
  std::printf("\nv_monitor.resource_pool_status:\n");
  std::printf("%-10s %8s %9s %9s %7s %12s\n", "pool", "running",
              "admitted", "borrowed", "spills", "spill bytes");
  for (const Row& row : pools->rows) {
    // SUM() finalizes as FLOAT regardless of the input column type.
    std::printf("%-10s %8.0f %9.0f %9.0f %7.0f %12.0f\n",
                row[0].varchar_value().c_str(), row[1].float64_value(),
                row[2].float64_value(), row[3].float64_value(),
                row[4].float64_value(), row[5].float64_value());
  }
  FABRIC_CHECK_OK((*session)->Close(driver));
}

}  // namespace

int main() {
  fabric::sim::Engine engine;
  fabric::obs::Tracer tracer([&engine] { return engine.now(); },
                             fabric::obs::Tracer::Options{
                                 .capture_events = false});
  fabric::obs::ScopedTracer install(&tracer);
  fabric::net::Network network(&engine);

  fabric::vertica::Database::Options vertica_options;
  vertica_options.num_nodes = 4;
  vertica_options.workload = ThreeTenantPools();
  fabric::vertica::Database db(&engine, &network, vertica_options);

  fabric::spark::SparkCluster::Options spark_options;
  spark_options.num_workers = 8;
  fabric::spark::SparkCluster cluster(&engine, &network, spark_options);
  fabric::spark::SparkSession spark(&cluster);
  fabric::connector::RegisterVerticaSource(&spark, &db);

  engine.Spawn("driver", [&](fabric::sim::Process& driver) {
    RunDemo(driver, &db, &spark, &engine);
  });
  FABRIC_CHECK_OK(engine.Run());
  std::printf("\nwm counters: spills=%.0f spill_bytes=%.0f queued=%.0f\n",
              tracer.metrics().counter("wm.spills"),
              tracer.metrics().counter("wm.spill_bytes"),
              tracer.metrics().counter("wm.queued"));
  std::printf("total virtual time: %.2f s\n", engine.now());
  return 0;
}
