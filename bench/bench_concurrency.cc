// Workload management under mixed-tenant concurrency. A BigBench-style
// mix of query classes — short dashboard SQL, V2S grouped aggregates,
// S2V loads — is driven as thousands of concurrent client sessions, one
// sim process each, against one fabric, each class tagged to its own
// resource pool; --lanes sizes the client connection pool they share.
// Four configurations sweep the admission story:
//
//   wm off            no admission control (the pre-WM database)
//   wm on             etl/dashboard/adhoc pools with priorities,
//                     budgets and cascade-to-general borrowing
//   wm on + spill     tiny per-query grants: every GROUP BY runs over
//                     budget and completes by spilling (results are
//                     byte-identical; only the disk traffic moves)
//   wm on + kill/tm   a node dies and rejoins mid-run under aggressive
//                     Tuple Mover service, with the per-node session
//                     cap low enough that the connector's typed
//                     MAX_CLIENT_SESSIONS backoff fires
//
// Reported per pool: completed/failed sessions, p50/p99 virtual
// latency, throughput, and the Jain fairness index across the pool's
// tenants. BENCH_concurrency.json carries every sample plus the full
// metrics snapshot (wm.* / sql.agg_spills / connector.session_backoffs).

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "connector/failover.h"
#include "sim/waitable.h"

namespace {

using fabric::Status;
using fabric::StrCat;
using fabric::bench::Fabric;
using fabric::bench::FabricOptions;
using fabric::storage::DataType;
using fabric::storage::Row;
using fabric::storage::Schema;
using fabric::storage::Value;
using fabric::vertica::wm::PoolConfig;
using fabric::vertica::wm::WorkloadConfig;

constexpr int kTenantsPerPool = 4;

// The three-pool topology every WM-on configuration uses. Capacities are
// per node and deliberately small relative to the session count, so the
// admission queues (not the connection pool) shape the run.
WorkloadConfig ThreePools(double query_memory) {
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
  etl.query_memory = query_memory;
  config.pools.push_back(etl);
  PoolConfig dashboard;
  dashboard.name = "dashboard";
  dashboard.cascade_to = "general";
  dashboard.priority = 10;
  dashboard.max_concurrency = 4;
  dashboard.memory_budget = 16 << 20;
  dashboard.query_memory = query_memory;
  config.pools.push_back(dashboard);
  PoolConfig adhoc;
  adhoc.name = "adhoc";
  adhoc.cascade_to = "general";
  adhoc.priority = 5;
  adhoc.max_concurrency = 2;
  adhoc.memory_budget = 16 << 20;
  adhoc.query_memory = query_memory;
  adhoc.queue_timeout = 600;  // generous; typed timeouts still possible
  config.pools.push_back(adhoc);
  return config;
}

// Aggressive Tuple Mover service (the storage-management load the
// kill/tm configuration adds on top of the query mix).
fabric::vertica::TupleMoverConfig BusyTm() {
  fabric::vertica::TupleMoverConfig tm;
  tm.moveout_interval = 0.05;
  tm.mergeout_interval = 0.1;
  tm.strata_min_containers = 2;
  tm.ahm_interval = 0.25;
  tm.retention_epochs = 8;
  return tm;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

// Jain fairness index over per-tenant completion counts: 1 when every
// tenant of the pool got the same share, 1/n when one tenant starved
// the rest.
double JainIndex(const std::vector<int64_t>& per_tenant) {
  double sum = 0, sum_sq = 0;
  for (int64_t x : per_tenant) {
    sum += static_cast<double>(x);
    sum_sq += static_cast<double>(x) * static_cast<double>(x);
  }
  if (sum_sq == 0) return 0;
  return sum * sum / (static_cast<double>(per_tenant.size()) * sum_sq);
}

// Per-class outcome accumulators. Sim processes run one at a time on the
// engine's host thread, so plain vectors are safe.
struct ClassStats {
  std::string name;
  std::string pool;
  int sessions = 0;
  std::vector<double> latencies;              // completed only
  std::vector<int64_t> tenant_completed;      // kTenantsPerPool entries
  int failed = 0;

  void Finish(int tenant, double latency) {
    latencies.push_back(latency);
    tenant_completed[tenant] += 1;
  }
};

struct BenchConfig {
  const char* label;
  bool wm = false;
  double query_memory = 0;   // 0 = derived; tiny forces spilling
  bool kill_and_tm = false;  // node kill + restart + busy Tuple Mover
};

struct ConfigResult {
  double makespan = 0;
  int peak_concurrent = 0;
  std::vector<ClassStats> classes;
};

// Stages the shared fact table the dashboard and adhoc classes query.
void StageFacts(Fabric& fabric, fabric::sim::Process& driver) {
  auto session = fabric.db()->Connect(driver, 0, nullptr);
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
}

// One logical session's statement for query class `cls`.
Status RunSession(Fabric& fabric, fabric::sim::Process& self, int cls,
                  int i) {
  if (cls == 0) {
    // Short dashboard SQL: one grouped aggregate over the shared fact
    // table, entry node spread across the ring.
    auto session = fabric::connector::ConnectWithFailover(
        self, fabric.db(), i % fabric.db()->num_nodes(), nullptr);
    if (!session.ok()) return session.status();
    (*session)->set_resource_pool("dashboard");
    Status status = (*session)
                        ->Execute(self,
                                  "SELECT region, COUNT(*), SUM(sales) "
                                  "FROM facts GROUP BY region")
                        .status();
    Status closed = (*session)->Close(self);
    return status.ok() ? closed : status;
  }
  if (cls == 1) {
    // V2S grouped aggregate: the grouping covers the segmentation
    // column, so the aggregate pushes down and runs under the adhoc pool
    // inside Vertica.
    auto df = fabric.spark()
                  ->Read()
                  .Format(fabric::connector::kVerticaSourceName)
                  .Option("table", "facts")
                  .Option("numpartitions", 2)
                  .Option("resource_pool", "adhoc")
                  .Load(self);
    if (!df.ok()) return df.status();
    auto grouped = df->GroupBy({"region"});
    if (!grouped.ok()) return grouped.status();
    auto agg = grouped->Agg(
        {fabric::spark::AggCount(), fabric::spark::AggSum("sales")});
    if (!agg.ok()) return agg.status();
    return agg->Collect(self).status();
  }
  // S2V load: a small partitioned save into a per-session table, staged
  // and committed under the etl pool.
  Schema load_schema({{"id", DataType::kInt64}, {"val", DataType::kInt64}});
  std::vector<Row> rows;
  for (int r = 0; r < 40; ++r) {
    rows.push_back({Value::Int64(r), Value::Int64(i * 100 + r)});
  }
  auto df = fabric.spark()->CreateDataFrame(load_schema, std::move(rows), 2);
  if (!df.ok()) return df.status();
  return df->Write()
      .Format(fabric::connector::kVerticaSourceName)
      .Option("table", StrCat("load_", i))
      .Option("numpartitions", 2)
      .Option("resource_pool", "etl")
      .Mode(fabric::spark::SaveMode::kOverwrite)
      .Save(self);
}

ConfigResult RunConfig(Fabric& fabric, const BenchConfig& config,
                       int sessions_per_class, int lanes) {
  ConfigResult result;
  auto make_class = [](const char* name, const char* pool) {
    ClassStats cls;
    cls.name = name;
    cls.pool = pool;
    return cls;
  };
  result.classes.push_back(make_class("short-sql", "dashboard"));
  result.classes.push_back(make_class("v2s-agg", "adhoc"));
  result.classes.push_back(make_class("s2v-load", "etl"));
  for (ClassStats& cls : result.classes) {
    cls.sessions = sessions_per_class;
    cls.tenant_completed.assign(kTenantsPerPool, 0);
  }

  fabric.RunTimed(
      [&](fabric::sim::Process& driver) { StageFacts(fabric, driver); });

  result.makespan = fabric.RunTimed([&](fabric::sim::Process& driver) {
    fabric::sim::Engine* engine = fabric.engine();
    // The client connection pool: at most `lanes` sessions run a
    // statement at once; the rest queue for a connection in arrival
    // order.
    fabric::sim::Semaphore connections(engine, lanes);
    fabric::sim::Latch finished(engine, 3 * sessions_per_class);
    int open = 0;
    // All sessions arrive within a short burst window: the backlog this
    // builds is what "concurrent" means here, and what the admission
    // queues have to drain fairly.
    constexpr double kArrivalSpread = 0.25;
    for (int i = 0; i < sessions_per_class; ++i) {
      for (int cls = 0; cls < 3; ++cls) {
        const double start =
            kArrivalSpread * i / std::max(1, sessions_per_class);
        engine->Spawn(
            StrCat("session:", cls, ":", i),
            [&fabric, &result, &connections, &finished, &open, cls, start,
             i](fabric::sim::Process& self) {
              // A session is open from its arrival until its statement
              // ends. Only engine teardown cancels the waits below.
              if (start > self.Now() && !self.Sleep(start - self.Now()).ok()) {
                return;
              }
              result.peak_concurrent = std::max(result.peak_concurrent,
                                                ++open);
              if (!connections.Acquire(self).ok()) return;
              Status status = RunSession(fabric, self, cls, i);
              ClassStats& stats = result.classes[cls];
              if (status.ok()) {
                stats.Finish(i % kTenantsPerPool, self.Now() - start);
              } else {
                ++stats.failed;
              }
              connections.Release();
              --open;
              finished.CountDown();
            });
      }
    }
    if (config.kill_and_tm) {
      engine->Spawn("killer", [&](fabric::sim::Process& self) {
        if (!self.Sleep(1.0).ok()) return;
        FABRIC_CHECK_OK(fabric.db()->KillNode(1));
        if (!self.Sleep(5.0).ok()) return;
        FABRIC_CHECK_OK(fabric.db()->RestartNode(1));
      });
    }
    FABRIC_CHECK_OK(finished.Await(driver));
  });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fabric::bench;

  int sessions_per_class = 400;  // 1200 logical sessions per config
  int lanes = 96;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      sessions_per_class = std::max(1, std::atoi(argv[++i]) / 3);
    } else if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
      lanes = std::max(1, std::atoi(argv[++i]));
    }
  }

  PrintHeader(
      "Workload management: mixed tenants under admission control",
      "production-concurrency substrate (Section 2.2's resource "
      "manager; not a paper figure)");
  std::printf("%d logical sessions per config (%d per class), %d lanes\n\n",
              3 * sessions_per_class, sessions_per_class, lanes);

  BenchReport report("concurrency");

  const BenchConfig kConfigs[] = {
      {"wm off", false, 0, false},
      {"wm on", true, 0, false},
      {"wm on + spill", true, 400, false},
      {"wm on + kill/tm", true, 0, true},
  };

  for (int c = 0; c < 4; ++c) {
    const BenchConfig& config = kConfigs[c];
    FabricOptions options;
    if (config.wm) options.workload = ThreePools(config.query_memory);
    if (config.kill_and_tm) {
      options.tuple_mover = BusyTm();
      // Low session cap: parallel S2V/V2S task connections brush it,
      // exercising the connector's typed MAX_CLIENT_SESSIONS backoff.
      options.max_client_sessions = 48;
    }
    Fabric fabric(options);
    ConfigResult result =
        RunConfig(fabric, config, sessions_per_class, lanes);

    std::printf("--- %-18s makespan %.2fs, peak %d concurrent sessions\n",
                config.label, result.makespan, result.peak_concurrent);
    std::printf("%-10s %-10s %6s %6s %6s %9s %9s %8s %6s\n", "class",
                "pool", "done", "fail", "p50", "p99", "thru/s", "jain",
                "spill");
    const auto& metrics = fabric.tracer()->metrics();
    for (size_t k = 0; k < result.classes.size(); ++k) {
      const ClassStats& cls = result.classes[k];
      double p50 = Percentile(cls.latencies, 0.50);
      double p99 = Percentile(cls.latencies, 0.99);
      double throughput = result.makespan > 0
                              ? cls.latencies.size() / result.makespan
                              : 0;
      double jain = JainIndex(cls.tenant_completed);
      // Per-pool spill counts from the pool status rows (WM on only).
      double pool_spills = 0;
      auto* wm = fabric.db()->workload_manager();
      if (wm != nullptr) {
        for (const auto& row : wm->PoolStatusRows()) {
          if (row.pool == cls.pool) {
            pool_spills += static_cast<double>(row.spills);
          }
        }
      }
      std::printf("%-10s %-10s %6zu %6d %6.2f %9.2f %9.1f %8.3f %6.0f\n",
                  cls.name.c_str(), cls.pool.c_str(),
                  cls.latencies.size(), cls.failed, p50, p99, throughput,
                  jain, pool_spills);
      report.AddSample(
          fabric,
          {{"config", static_cast<double>(c)},
           {"wm", config.wm ? 1.0 : 0.0},
           {"kill_and_tm", config.kill_and_tm ? 1.0 : 0.0},
           {"query_memory", config.query_memory},
           {"class", static_cast<double>(k)},
           {"sessions", static_cast<double>(cls.sessions)},
           {"completed", static_cast<double>(cls.latencies.size())},
           {"failed", static_cast<double>(cls.failed)},
           {"p50_s", p50},
           {"p99_s", p99},
           {"throughput_per_s", throughput},
           {"jain", jain},
           {"pool_spills", pool_spills},
           {"makespan_s", result.makespan},
           {"peak_concurrent",
            static_cast<double>(result.peak_concurrent)}});
    }
    std::printf(
        "    wm timeouts %.0f, spills %.0f (%.0f bytes), "
        "session backoffs %.0f\n\n",
        metrics.counter("wm.queue_timeouts"), metrics.counter("wm.spills"),
        metrics.counter("wm.spill_bytes"),
        metrics.counter("connector.session_backoffs"));
  }
  return 0;
}
