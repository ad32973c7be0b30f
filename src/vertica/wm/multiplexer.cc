#include "vertica/wm/multiplexer.h"

#include <algorithm>

#include "common/string_util.h"
#include "obs/trace.h"

namespace fabric::vertica::wm {

Multiplexer::Multiplexer(sim::Engine* engine, Options options)
    : engine_(engine), options_(std::move(options)), work_(engine) {}

int Multiplexer::AddSession(SessionSpec spec) {
  FABRIC_CHECK(!launched_) << "AddSession after Launch";
  FABRIC_CHECK(spec.steps > 0);
  int id = static_cast<int>(specs_.size());
  specs_.push_back(std::move(spec));
  status_.push_back(Status::OK());
  return id;
}

void Multiplexer::Launch() {
  FABRIC_CHECK(!launched_) << "Launch called twice";
  launched_ = true;
  stats_.sessions = static_cast<int>(specs_.size());
  sorted_starts_.reserve(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    sorted_starts_.push_back(specs_[i].start);
    ready_.push(Entry{specs_[i].start, static_cast<int>(i), 0});
  }
  std::sort(sorted_starts_.begin(), sorted_starts_.end());
  live_lanes_ = std::max(1, options_.lanes);
  for (int lane = 0; lane < live_lanes_; ++lane) {
    engine_->Spawn(StrCat(options_.name, ":lane", lane),
                   [this](sim::Process& self) {
                     LaneBody(self);
                     // Only engine teardown kills lanes, and then the
                     // multiplexer may already be gone.
                     if (self.killed()) return;
                     --live_lanes_;
                     work_.NotifyAll();
                   });
  }
}

Status Multiplexer::Join(sim::Process& self) {
  FABRIC_CHECK(launched_) << "Join before Launch";
  return work_.WaitUntil(self, [this] {
    return finished_ == stats_.sessions && live_lanes_ == 0;
  });
}

void Multiplexer::UpdatePeak(double now) {
  // Sessions are open from their scheduled start until their last step
  // completes; starts are known ahead, so the open count is exact.
  auto it = std::upper_bound(sorted_starts_.begin(), sorted_starts_.end(),
                             now);
  int started = static_cast<int>(it - sorted_starts_.begin());
  int open = started - finished_;
  if (open > stats_.peak_concurrent) stats_.peak_concurrent = open;
}

void Multiplexer::LaneBody(sim::Process& self) {
  while (true) {
    Status wait = work_.WaitUntil(self, [this] {
      return !ready_.empty() || finished_ == stats_.sessions;
    });
    if (!wait.ok()) return;  // killed during teardown
    if (ready_.empty()) return;  // every session finished
    Entry top = ready_.top();
    if (top.ready > self.Now()) {
      // Sleep toward the earliest entry; whichever lane wakes first
      // takes it, the rest loop back and re-evaluate.
      if (!self.Sleep(top.ready - self.Now()).ok()) return;
      continue;
    }
    ready_.pop();
    UpdatePeak(self.Now());
    const SessionSpec& spec = specs_[top.session];
    Status status = spec.body(self, top.session, top.step);
    ++stats_.steps_run;
    if (!status.ok()) {
      ++stats_.steps_failed;
      status_[top.session] = status;
    }
    if (status.ok() && top.step + 1 < spec.steps) {
      ready_.push(Entry{self.Now() + spec.think, top.session, top.step + 1});
    } else {
      ++finished_;
    }
    UpdatePeak(self.Now());
    work_.NotifyAll();
    if (self.killed()) return;
  }
}

}  // namespace fabric::vertica::wm
