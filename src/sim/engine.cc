#include "sim/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace fabric::sim {

// ---------------------------------------------------------------- Process

Process::Process(Engine* engine, uint64_t id, std::string name,
                 std::function<void(Process&)> body)
    : engine_(engine), id_(id), name_(std::move(name)), body_(std::move(body)) {}

Process::~Process() {
  if (thread_.joinable()) thread_.join();
}

SimTime Process::Now() const { return engine_->now(); }

Status Process::CheckAlive() const {
  if (killed_) return CancelledError(StrCat("process '", name_, "' killed"));
  return Status::OK();
}

Status Process::Sleep(double seconds) {
  FABRIC_CHECK(seconds >= 0) << "negative sleep: " << seconds;
  std::unique_lock<std::mutex> lock(engine_->mu_);
  if (killed_) return CancelledError(StrCat("process '", name_, "' killed"));
  // Yields (Sleep(0)) are pure scheduling noise; only real sleeps trace.
  if (seconds > 0) {
    obs::TraceEvent("sim", "process.sleep",
                    {{"process", name_}, {"seconds", seconds}});
    obs::ObserveValue("sim.sleep_seconds", seconds);
  }
  engine_->PostWakeLocked(this, engine_->now_ + seconds);
  state_ = State::kBlocked;
  SwitchToEngine(lock);
  if (killed_) return CancelledError(StrCat("process '", name_, "' killed"));
  return Status::OK();
}

void Process::SwitchToEngine(std::unique_lock<std::mutex>& lock) {
  engine_->engine_turn_ = true;
  engine_->engine_cv_.notify_one();
  cv_.wait(lock, [this] { return state_ == State::kRunning; });
}

void Process::ThreadMain() {
  {
    // Wait for the first wake.
    std::unique_lock<std::mutex> lock(engine_->mu_);
    cv_.wait(lock, [this] { return state_ == State::kRunning; });
  }
  body_(*this);
  std::unique_lock<std::mutex> lock(engine_->mu_);
  obs::TraceEvent("sim", "process.done", {{"process", name_}, {"pid", id_}});
  state_ = State::kDone;
  engine_->engine_turn_ = true;
  engine_->engine_cv_.notify_one();
}

// ----------------------------------------------------------------- Engine

Engine::Engine() = default;

Engine::~Engine() {
  // Best effort shutdown for simulations abandoned mid-run (test failure
  // paths): kill everything and drive remaining processes until their
  // bodies observe CANCELLED and return.
  bool any_live = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& p : processes_) {
      if (p->state_ != Process::State::kDone) {
        any_live = true;
        p->killed_ = true;
        PostWakeLocked(p.get(), now_);
      }
    }
  }
  if (any_live) {
    // Replenish the step budget: the teardown drain must run even when
    // the simulation stopped because it exhausted max_steps_.
    max_steps_ = steps_ + 10'000'000;
    Status status = Run();
    if (!status.ok()) {
      FABRIC_LOG(Error) << "engine teardown: " << status.ToString();
    }
  }
}

ProcessHandle Engine::Spawn(std::string name,
                            std::function<void(Process&)> body) {
  std::lock_guard<std::mutex> lock(mu_);
  auto process = std::shared_ptr<Process>(
      new Process(this, next_id_++, std::move(name), std::move(body)));
  obs::TraceEvent(
      "sim", "process.spawn",
      {{"process", process->name_}, {"pid", process->id_}});
  obs::IncrCounter("sim.processes_spawned");
  process->thread_ = std::thread(&Process::ThreadMain, process.get());
  processes_.push_back(process);
  PostWakeLocked(process.get(), now_);
  return process;
}

void Engine::ScheduleAt(SimTime when, std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  FABRIC_CHECK(when >= now_) << "event scheduled in the past";
  events_.push(Event{when, next_seq_++, nullptr, std::move(fn)});
}

Engine::TimerToken Engine::ScheduleCancelableAt(SimTime when,
                                                std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  FABRIC_CHECK(when >= now_) << "event scheduled in the past";
  auto token = std::make_shared<bool>(false);
  Event event{when, next_seq_++, nullptr, std::move(fn)};
  event.cancelled = token;
  events_.push(std::move(event));
  return token;
}

void Engine::Kill(Process& process) {
  std::lock_guard<std::mutex> lock(mu_);
  if (process.state_ == Process::State::kDone || process.killed_) return;
  obs::TraceEvent("sim", "process.kill",
                  {{"process", process.name_}, {"pid", process.id_}});
  obs::IncrCounter("sim.kills");
  process.killed_ = true;
  if (process.state_ == Process::State::kBlocked) {
    PostWakeLocked(&process, now_, /*force=*/true);
  }
}

void Engine::PostWakeLocked(Process* process, SimTime when, bool force) {
  if (process->wake_posted_) {
    if (!force) return;
    // Supersede the queued wake: bump the epoch so it is skipped.
    ++process->wake_epoch_;
  }
  process->wake_posted_ = true;
  events_.push(Event{when, next_seq_++, process, nullptr,
                     process->wake_epoch_});
}

Status Engine::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!events_.empty()) {
    if (++steps_ > max_steps_) {
      std::string live;
      int live_count = 0;
      for (const auto& process : processes_) {
        if (process->state_ != Process::State::kDone) {
          ++live_count;
          if (live_count <= 12) {
            if (!live.empty()) live += ", ";
            live += process->name_;
          }
        }
      }
      return InternalError(StrCat("simulation exceeded ", max_steps_,
                                  " events at t=", now_, "; ", live_count,
                                  " live processes: ", live,
                                  " (runaway loop?)"));
    }
    Event event = events_.top();
    events_.pop();
    if (event.process != nullptr &&
        (event.process->state_ == Process::State::kDone ||
         event.wake_epoch != event.process->wake_epoch_)) {
      continue;  // stale wake: skip without advancing time
    }
    if (event.cancelled != nullptr && *event.cancelled) {
      continue;  // cancelled timer: skip without advancing time
    }
    FABRIC_CHECK(event.time >= now_);
    now_ = event.time;
    if (event.callback) {
      // Callbacks run in engine context with the lock dropped so they may
      // freely Spawn / ScheduleAt / Kill. No process runs concurrently.
      lock.unlock();
      event.callback();
      lock.lock();
      continue;
    }
    Process* process = event.process;
    process->wake_posted_ = false;
    ++process->wake_epoch_;
    current_ = process;
    engine_turn_ = false;
    process->state_ = Process::State::kRunning;
    process->cv_.notify_one();
    engine_cv_.wait(lock, [this] { return engine_turn_; });
    current_ = nullptr;
    if (process->state_ == Process::State::kDone) {
      // Join the finished body's host thread at once, so a long-lived
      // engine does not keep one thread stack per process it ever ran.
      // The Process itself stays: queued stale wakes still point at it.
      lock.unlock();
      process->thread_.join();
      lock.lock();
    }
  }
  // Event queue drained: every process must be done, else deadlock.
  std::string blocked;
  for (const auto& process : processes_) {
    if (process->state_ != Process::State::kDone) {
      if (!blocked.empty()) blocked += ", ";
      blocked += process->name_;
    }
  }
  if (!blocked.empty()) {
    return InternalError(
        StrCat("simulation deadlock at t=", now_, "; blocked: ", blocked));
  }
  return Status::OK();
}

}  // namespace fabric::sim
