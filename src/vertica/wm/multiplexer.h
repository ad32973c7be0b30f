#ifndef FABRIC_VERTICA_WM_MULTIPLEXER_H_
#define FABRIC_VERTICA_WM_MULTIPLEXER_H_

// Session multiplexer: drives thousands of concurrent logical client
// sessions over a bounded set of sim processes ("lanes"). Every sim
// process is backed by a host thread, so modeling each client session
// as its own process caps the simulable concurrency at a few hundred;
// the multiplexer instead keeps logical sessions as schedule entries
// (start time, think time, per-step closures) and has each lane pull
// the earliest runnable step — a connection pool in the same sense as a
// JDBC-side one, with the per-session state living in the closures.
//
// Determinism: lanes are ordinary sim processes and every hand-off goes
// through the engine's (time, sequence) ordering, so a given schedule
// executes identically run-to-run.

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/result.h"
#include "sim/engine.h"
#include "sim/waitable.h"

namespace fabric::vertica::wm {

class Multiplexer {
 public:
  struct Options {
    int lanes = 64;          // sim processes executing steps
    std::string name = "mux";
  };

  // One statement/job of a logical session. `session` is the id
  // AddSession returned; `step` counts from 0.
  using Step = std::function<Status(sim::Process& self, int session,
                                    int step)>;

  struct SessionSpec {
    double start = 0;   // virtual time the first step becomes ready
    double think = 0;   // pause between consecutive steps
    int steps = 1;
    Step body;
  };

  struct Stats {
    int sessions = 0;
    int64_t steps_run = 0;
    int64_t steps_failed = 0;
    // Peak number of logical sessions simultaneously open (started and
    // not yet finished/aborted).
    int peak_concurrent = 0;
  };

  Multiplexer(sim::Engine* engine, Options options);

  // Registers a logical session; returns its id. Call before Launch.
  int AddSession(SessionSpec spec);

  // Spawns the lanes. The engine's Run() (or the surrounding
  // simulation) then executes every session to completion. A session
  // whose step returns an error is aborted (remaining steps dropped)
  // and its status recorded.
  void Launch();

  // Blocks `self` until every session has finished or been aborted and
  // every lane has exited, so the multiplexer may be destroyed once it
  // returns. Call from a process that is not one of the lanes (e.g. the
  // bench driver) after Launch.
  Status Join(sim::Process& self);

  const Stats& stats() const { return stats_; }
  // Final status per session (OK until a step fails).
  const std::vector<Status>& session_status() const { return status_; }

 private:
  struct Entry {
    double ready = 0;
    int session = 0;
    int step = 0;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.ready != b.ready) return a.ready > b.ready;
      if (a.session != b.session) return a.session > b.session;
      return a.step > b.step;
    }
  };

  void LaneBody(sim::Process& self);
  void UpdatePeak(double now);

  sim::Engine* engine_;
  Options options_;
  std::vector<SessionSpec> specs_;
  std::vector<Status> status_;
  std::priority_queue<Entry, std::vector<Entry>, EntryLater> ready_;
  sim::Condition work_;
  std::vector<double> sorted_starts_;  // computed at Launch
  int finished_ = 0;
  int live_lanes_ = 0;
  Stats stats_;
  bool launched_ = false;
};

}  // namespace fabric::vertica::wm

#endif  // FABRIC_VERTICA_WM_MULTIPLEXER_H_
