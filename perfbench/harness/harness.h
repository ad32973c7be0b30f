#ifndef PERFBENCH_HARNESS_HARNESS_H_
#define PERFBENCH_HARNESS_HARNESS_H_

// Shared plumbing of the benchmark harness: the run configuration, the
// per-op records a workload produces, counter snapshots taken around
// each op, and the timed-phase loop. perfbench/run.py turns the record
// this harness writes into the benchmark's metrics.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "harness/spans.h"
#include "vertica/database.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// One timed operation: one save, one load or one SQL statement.
struct OpRecord {
  std::string kind;
  double host_ms = 0;
  double virtual_s = 0;
  bool ok = true;
  bool traced = false;  // see Context::Traced
  // Host ms of the reference sample taken right after this op (after its
  // round in sql_mix); see ReferenceSampleMs.
  double ref_ms = 0;
};

// Host milliseconds of one run of a fixed computation that does the kinds
// of host work the simulator does — thread hand-offs through a condition
// variable, thread start-up, string-keyed map inserts, formatting and
// sorting — on fixed inputs, using no fabric code. The machine's speed
// drifts by tens of percent over minutes on shared hosts; scaling each
// op's host time by a sample taken right after it cancels most of that
// drift (perfbench/stats.py), and no change to the fabric can move it.
double ReferenceSampleMs();

// Counters read as per-op deltas. "sim.steps" comes from the engine,
// "wm.queue_wait_seconds" is the sum of an obs::Metrics histogram, and
// the rest are obs::Metrics counters the fabric already maintains.
const std::vector<std::string>& TrackedCounters();

// Values of TrackedCounters() on `fabric` right now.
std::vector<double> SnapshotCounters(fabric::bench::Fabric& fabric);

// Clears the fabric's metrics registry (nothing in the fabric reads it
// back) and returns the snapshot to take deltas from. Counters then sum
// from zero over each op, so equal ops give bit-identical deltas instead
// of differences of large cumulative doubles.
std::vector<double> BeginCounting(fabric::bench::Fabric& fabric);

struct RunResult {
  // Every input setting of the samples (seed, real_rows, paper_rows,
  // data_scale, partitions, clients, Tuple Mover / WM settings).
  std::map<std::string, double> inputs;
  std::map<std::string, std::string> input_labels;
  // The op count a run reaches before it may stop; it fixes which tail
  // percentile the run reports (perfbench/stats.py).
  int min_ops = 1;
  std::vector<double> setup_s;
  std::vector<OpRecord> ops;
  // Sums of TrackedCounters() deltas over the timed ops.
  std::map<std::string, double> totals;
  // Host seconds spent inside timed ops.
  double timed_host_s = 0;
  // Rows the workload itself wrote per op (SQL INSERTs; COPY rows come
  // from vertica.copy_rows) and the written tables' column count, for the
  // encode-cost estimate.
  double inserted_rows = 0;
  int written_columns = 0;
  double data_scale = 1;
  // The process's memory high-water mark when the op count first reached
  // min_ops: a fixed amount of work, so that a faster build (more ops in
  // the same window) is not charged for memory the fabric retains per op.
  double peak_rss_mb = 0;
  // From RosStats over every hosted store after the timed phase.
  double stored_bytes = 0;
  double raw_bytes = 0;
  // Probed unit costs (traced runs only).
  std::map<std::string, double> probes;
  int determinism_checked = 0;
  // One line per failed op or determinism mismatch (capped).
  std::vector<std::string> errors;
  int failures = 0;

  // Adds after - before to `totals` and returns those deltas.
  std::vector<double> AddTotals(const std::vector<double>& before,
                                const std::vector<double>& after);
  void Fail(std::string message);
};

// Compares each op's virtual seconds and counter deltas, exactly, against
// the first op recorded under the same key. Ops share a key only when
// they repeat the same inputs from the same fabric state at the same
// virtual time (the engine's floating-point clock makes durations depend
// on the absolute start time), so any difference is nondeterminism.
class DeterminismLog {
 public:
  // Returns an empty string when consistent, else a description.
  std::string Check(const std::string& key, double virtual_s,
                    const std::vector<double>& deltas);
  int checked() const { return checked_; }

 private:
  struct Entry {
    double virtual_s;
    std::vector<double> deltas;
  };
  std::map<std::string, Entry> first_;
  int checked_ = 0;
};

struct Context {
  RunConfig config;
  RunResult result;
  SpanLog spans;
  int64_t next_op = 0;

  // Whether op `op_id` records spans. Traced runs trace a pseudo-random
  // half of the ops (a fixed hash of the op id, so that no op kind of a
  // workload's repeating cycle lands wholly on one side); the untraced
  // half of the same run gives the tracing overhead.
  bool Traced(int64_t op_id) const;

  // Calls `unit` (which records one or more ops) until the measuring
  // window has passed and at least result.min_ops ops exist. A hard cap
  // keeps a pathologically slow build under the benchmark's time limit.
  void RunTimedPhase(const std::function<void()>& unit);
};

// Restricts this process, and every thread it starts later (the
// simulator runs each sim process on its own thread, one at a time), to
// the highest-numbered CPU it may use. Handing control between threads
// on one CPU avoids cross-CPU wake-ups, whose cost varies with the load
// of the machine far more than the simulator's own work does. Returns the
// CPU, or -1 when the affinity could not be set.
int PinToOneCpu();

// Sums encoded and raw bytes over every ROS container of every hosted
// store of `db`.
void AddStorageTotals(fabric::vertica::Database* db, RunResult& result);

// Workloads. Each stages its inputs from the seed, runs the timed phase,
// checks every answer and, when tracing, runs its probes.
void RunS2vSave(Context& ctx);
void RunV2sLoad(Context& ctx);
void RunSqlMix(Context& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HARNESS_H_
