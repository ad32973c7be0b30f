// Benchmark harness: runs one workload against the fabric and writes a
// JSON record of every op, counter total, probe and input setting.
//
//   perfbench_harness --workload s2v_save|v2s_load|sql_mix --seed N
//       --seconds S --trace 0|1 --out RECORD.json [--spans SPANS.json]
//
// perfbench/run.py builds this binary, runs it and derives the metrics.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "harness/harness.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

// A run never measures longer than this, whatever --seconds and min_ops
// ask for, so that set-up, checks and probes still fit the benchmark's
// per-run limit.
constexpr double kHardCapSeconds = 120;
constexpr size_t kMaxErrorLines = 20;

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? last : -1;
}

double ReferenceSampleMs() {
  Clock::time_point start = Clock::now();
  {
    constexpr int kHandoffs = 300;
    std::mutex mu;
    std::condition_variable cv;
    bool pong_turn = false;
    std::thread pong([&] {
      for (int i = 0; i < kHandoffs; ++i) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return pong_turn; });
        pong_turn = false;
        cv.notify_all();
      }
    });
    for (int i = 0; i < kHandoffs; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      pong_turn = true;
      cv.notify_all();
      cv.wait(lock, [&] { return !pong_turn; });
    }
    pong.join();
  }
  for (int i = 0; i < 8; ++i) std::thread([] {}).join();
  std::map<std::string, int> strings;
  std::vector<double> values;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    double value = static_cast<double>(x >> 11) * 0x1.0p-53;
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", value);
    strings[text] += i;
    values.push_back(value);
  }
  std::sort(values.begin(), values.end());
  FABRIC_CHECK(strings.size() + values.size() > 2000);
  return MsSince(start);
}

const std::vector<std::string>& TrackedCounters() {
  static const std::vector<std::string> names = {
      "sim.steps",
      "sim.processes_spawned",
      "net.recomputes",
      "net.flows_opened",
      "net.bytes_requested",
      "vertica.rows_scanned",
      "tm.moveout_runs",
      "tm.mergeout_runs",
      "tm.mergeout_bytes",
      "vertica.wos_stall_ms",
      "sql.compiled_pipelines",
      "sql.interpreted_fallbacks",
      "vertica.merge_joins",
      "vertica.txns_committed",
      "vertica.txns_aborted",
      "wm.queue_wait_seconds",
      "wm.queued",
      "wm.spills",
      "vertica.load_wire_bytes",
      "vertica.copy_rows",
      "vertica.result_wire_bytes",
      "spark.attempts_launched",
      "spark.attempts_failed",
      "spark.shuffle.bytes",
      "spark.fused_map_stages",
  };
  return names;
}

std::vector<double> SnapshotCounters(fabric::bench::Fabric& fabric) {
  const fabric::obs::Metrics& metrics = fabric.tracer()->metrics();
  std::vector<double> values;
  for (const std::string& name : TrackedCounters()) {
    if (name == "sim.steps") {
      values.push_back(static_cast<double>(fabric.engine()->steps()));
    } else if (name == "wm.queue_wait_seconds") {
      values.push_back(metrics.histogram(name).sum);
    } else {
      values.push_back(metrics.counter(name));
    }
  }
  return values;
}

std::vector<double> BeginCounting(fabric::bench::Fabric& fabric) {
  fabric.tracer()->metrics() = fabric::obs::Metrics();
  return SnapshotCounters(fabric);
}

std::vector<double> RunResult::AddTotals(const std::vector<double>& before,
                                         const std::vector<double>& after) {
  const std::vector<std::string>& names = TrackedCounters();
  std::vector<double> deltas;
  for (size_t i = 0; i < names.size(); ++i) {
    deltas.push_back(after[i] - before[i]);
    totals[names[i]] += deltas.back();
  }
  return deltas;
}

void RunResult::Fail(std::string message) {
  ++failures;
  if (errors.size() < kMaxErrorLines) errors.push_back(std::move(message));
}

std::string DeterminismLog::Check(const std::string& key, double virtual_s,
                                  const std::vector<double>& deltas) {
  auto [it, inserted] = first_.try_emplace(key, Entry{virtual_s, deltas});
  if (inserted) return "";
  ++checked_;
  if (it->second.virtual_s != virtual_s) {
    return fabric::StrCat("nondeterministic ", key, ": virtual ",
                          fabric::obs::JsonNumber(virtual_s), " s vs ",
                          fabric::obs::JsonNumber(it->second.virtual_s));
  }
  for (size_t i = 0; i < deltas.size(); ++i) {
    if (deltas[i] != it->second.deltas[i]) {
      return fabric::StrCat("nondeterministic ", key, ": ",
                            TrackedCounters()[i], " ",
                            fabric::obs::JsonNumber(deltas[i]), " vs ",
                            fabric::obs::JsonNumber(it->second.deltas[i]));
    }
  }
  return "";
}

bool Context::Traced(int64_t op_id) const {
  // splitmix64 finaliser.
  uint64_t x = static_cast<uint64_t>(op_id) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return config.trace && (x & 1) == 0;
}

void Context::RunTimedPhase(const std::function<void()>& unit) {
  Clock::time_point start = Clock::now();
  auto elapsed_s = [&] { return MsSince(start) / 1000; };
  while ((static_cast<int>(result.ops.size()) < result.min_ops ||
          elapsed_s() < config.seconds) &&
         elapsed_s() < kHardCapSeconds) {
    unit();
    if (result.peak_rss_mb == 0 &&
        static_cast<int>(result.ops.size()) >= result.min_ops) {
      result.peak_rss_mb = PeakRssMb();
    }
  }
  if (result.peak_rss_mb == 0) result.peak_rss_mb = PeakRssMb();
}

void AddStorageTotals(fabric::vertica::Database* db, RunResult& result) {
  for (int node = 0; node < db->num_nodes(); ++node) {
    for (const auto& hosted : db->HostedStores(node)) {
      for (const auto& stats : hosted.store->RosStats()) {
        result.stored_bytes += stats.encoded_bytes;
        result.raw_bytes += stats.raw_bytes;
      }
    }
  }
}

namespace {

using fabric::obs::JsonNumber;
using fabric::obs::JsonString;

template <typename Map, typename Render>
std::string JsonObject(const Map& map, Render render) {
  std::string json = "{";
  for (const auto& [key, value] : map) {
    if (json.size() > 1) json += ",";
    json += JsonString(key) + ":" + render(value);
  }
  return json + "}";
}

std::string RecordJson(const Context& ctx) {
  const RunResult& r = ctx.result;
  auto number = [](double v) { return JsonNumber(v); };
  std::string ops = "[";
  for (size_t i = 0; i < r.ops.size(); ++i) {
    const OpRecord& op = r.ops[i];
    if (i > 0) ops += ",\n";
    ops += "{\"kind\":" + JsonString(op.kind) +
           ",\"host_ms\":" + JsonNumber(op.host_ms) +
           ",\"virtual_s\":" + JsonNumber(op.virtual_s) +
           ",\"ok\":" + (op.ok ? "true" : "false") +
           ",\"traced\":" + (op.traced ? "true" : "false") +
           ",\"ref_ms\":" + JsonNumber(op.ref_ms) + "}";
  }
  ops += "]";
  std::string setup = "[";
  for (size_t i = 0; i < r.setup_s.size(); ++i) {
    if (i > 0) setup += ",";
    setup += JsonNumber(r.setup_s[i]);
  }
  setup += "]";
  std::string errors = "[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) errors += ",";
    errors += JsonString(r.errors[i]);
  }
  errors += "]";
  return "{\"workload\":" + JsonString(ctx.config.workload) +
         ",\"seed\":" + JsonNumber(static_cast<double>(ctx.config.seed)) +
         ",\"trace\":" + (ctx.config.trace ? "true" : "false") +
         ",\"inputs\":" + JsonObject(r.inputs, number) +
         ",\"input_labels\":" +
         JsonObject(r.input_labels,
                    [](const std::string& v) { return JsonString(v); }) +
         ",\"min_ops\":" + JsonNumber(r.min_ops) + ",\"setup_s\":" + setup +
         ",\"totals\":" + JsonObject(r.totals, number) +
         ",\"timed_host_s\":" + JsonNumber(r.timed_host_s) +
         ",\"inserted_rows\":" + JsonNumber(r.inserted_rows) +
         ",\"written_columns\":" + JsonNumber(r.written_columns) +
         ",\"data_scale\":" + JsonNumber(r.data_scale) +
         ",\"stored_bytes\":" + JsonNumber(r.stored_bytes) +
         ",\"raw_bytes\":" + JsonNumber(r.raw_bytes) +
         ",\"peak_rss_mb\":" + JsonNumber(r.peak_rss_mb) +
         ",\"probes\":" + JsonObject(r.probes, number) +
         ",\"determinism_checked\":" + JsonNumber(r.determinism_checked) +
         ",\"failures\":" + JsonNumber(r.failures) + ",\"errors\":" + errors +
         ",\"ops\":" + ops + "}\n";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && ok;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload s2v_save|v2s_load|"
               "sql_mix --seed N --seconds S --trace 0|1 --out FILE "
               "[--spans FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Context ctx;
  std::string out_path, spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      ctx.config.workload = value;
    } else if (flag == "--seed") {
      ctx.config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      ctx.config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      ctx.config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || out_path.empty()) return Usage();
  ctx.spans.set_enabled(ctx.config.trace);
  ctx.result.inputs["seed"] = static_cast<double>(ctx.config.seed);
  ctx.result.inputs["pinned_cpu"] = PinToOneCpu();

  if (ctx.config.workload == "s2v_save") {
    RunS2vSave(ctx);
  } else if (ctx.config.workload == "v2s_load") {
    RunV2sLoad(ctx);
  } else if (ctx.config.workload == "sql_mix") {
    RunSqlMix(ctx);
  } else {
    return Usage();
  }

  if (!WriteFile(out_path, RecordJson(ctx))) {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  if (!spans_path.empty() && !WriteFile(spans_path, ctx.spans.ToJson())) {
    std::fprintf(stderr, "could not write %s\n", spans_path.c_str());
    return 1;
  }
  return 0;
}
