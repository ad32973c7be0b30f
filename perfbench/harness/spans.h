#ifndef PERFBENCH_HARNESS_SPANS_H_
#define PERFBENCH_HARNESS_SPANS_H_

// In-memory span log for traced runs. The harness opens a span around
// each call it makes into a fabric layer (an op, a check, a probe); the
// log is written out once, when the run ends, and perfbench/stats.py
// derives self times from it. Parents are explicit because sql_mix
// clients interleave on the simulator and a span stack would mix them.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  int64_t op = -1;      // op id; -1 for spans outside any op
  double start_us = 0;  // host microseconds since the log was created
  double end_us = 0;
};

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Returns the new span's id, or 0 (and records nothing) when disabled
  // or when `record` is false.
  uint64_t Begin(std::string name, uint64_t parent, int64_t op,
                 bool record = true);
  void End(uint64_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // {"spans":[{"name":..,"id":..,"parent":..,"op":..,"start_us":..,
  // "end_us":..},...]}
  std::string ToJson() const;

 private:
  double NowUs() const;

  std::chrono::steady_clock::time_point origin_;
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
};

// Closes its span on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, uint64_t parent, int64_t op,
             bool record = true)
      : log_(log), id_(log.Begin(std::move(name), parent, op, record)) {}
  ~ScopedSpan() { log_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SPANS_H_
