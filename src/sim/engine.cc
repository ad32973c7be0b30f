#include "sim/engine.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace fabric::sim {

namespace {

// ASan must hear about every stack switch, or it mistakes fiber frames
// for stack overflows and loses track of fake (use-after-return) stacks.
// Without ASan both calls compile to nothing.
void StartSwitch(void** fake_stack_save, const void* bottom, size_t size) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
  (void)fake_stack_save, (void)bottom, (void)size;
#endif
}

void FinishSwitch(void* fake_stack_save, const void** bottom_old,
                  size_t* size_old) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#else
  (void)fake_stack_save, (void)bottom_old, (void)size_old;
#endif
}

// A finished fiber leaves its last frames' redzones poisoned, and ASan
// keeps shadow memory across munmap; a later stack mapped at the same
// address would inherit that poison. (ASan's swapcontext hook only clears
// stacks of up to 4 MiB.)
void ClearStackPoison(void* stack, size_t size) {
#if defined(__SANITIZE_ADDRESS__)
  __asan_unpoison_memory_region(stack, size);
#else
  (void)stack, (void)size;
#endif
}

size_t PageBytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

// ---------------------------------------------------------------- Process

Process::Process(Engine* engine, uint64_t id, std::string name,
                 std::function<void(Process&)> body)
    : engine_(engine), id_(id), name_(std::move(name)), body_(std::move(body)) {
  // One lazy mapping per stack: pages are committed only when touched, so
  // a process costs its real stack depth, not 8 MiB.
  stack_ = mmap(nullptr, kStackBytes, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                0);
  FABRIC_CHECK(stack_ != MAP_FAILED) << "cannot map a process stack";
  FABRIC_CHECK(mprotect(stack_, PageBytes(), PROT_NONE) == 0);
  FABRIC_CHECK(getcontext(&context_) == 0);
  context_.uc_stack.ss_sp = static_cast<char*>(stack_) + PageBytes();
  context_.uc_stack.ss_size = kStackBytes - PageBytes();
  context_.uc_link = nullptr;
  const auto bits = reinterpret_cast<uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Process::FiberEntry),
              2, static_cast<unsigned>(bits >> 32),
              static_cast<unsigned>(bits));
}

Process::~Process() { ReleaseStack(); }

void Process::ReleaseStack() {
  if (stack_ == nullptr) return;
  ClearStackPoison(context_.uc_stack.ss_sp, context_.uc_stack.ss_size);
  munmap(stack_, kStackBytes);
  stack_ = nullptr;
}

SimTime Process::Now() const { return engine_->now(); }

Status Process::CheckAlive() const {
  if (killed_) return CancelledError(StrCat("process '", name_, "' killed"));
  return Status::OK();
}

Status Process::Sleep(double seconds) {
  FABRIC_CHECK(seconds >= 0) << "negative sleep: " << seconds;
  if (killed_) return CancelledError(StrCat("process '", name_, "' killed"));
  // Yields (Sleep(0)) are pure scheduling noise; only real sleeps trace.
  if (seconds > 0) {
    obs::TraceEvent("sim", "process.sleep",
                    {{"process", name_}, {"seconds", seconds}});
    obs::ObserveValue("sim.sleep_seconds", seconds);
  }
  engine_->PostWake(this, engine_->now_ + seconds);
  state_ = State::kBlocked;
  SwitchToEngine();
  if (killed_) return CancelledError(StrCat("process '", name_, "' killed"));
  return Status::OK();
}

void Process::SwitchToEngine() {
  StartSwitch(&fake_stack_, engine_->engine_stack_bottom_,
              engine_->engine_stack_size_);
  swapcontext(&context_, &engine_->engine_context_);
  FinishSwitch(fake_stack_, &engine_->engine_stack_bottom_,
               &engine_->engine_stack_size_);
}

void Process::FiberEntry(unsigned hi, unsigned lo) noexcept {
  auto* self = reinterpret_cast<Process*>(
      (static_cast<uintptr_t>(hi) << 32) | static_cast<uintptr_t>(lo));
  Engine* engine = self->engine_;
  FinishSwitch(nullptr, &engine->engine_stack_bottom_,
               &engine->engine_stack_size_);
  self->body_(*self);
  obs::TraceEvent("sim", "process.done",
                  {{"process", self->name_}, {"pid", self->id_}});
  self->state_ = State::kDone;
  // Leave for good: a null save slot tells ASan this fiber's fake stack
  // dies here. Run unmaps the stack once it is back on its own.
  StartSwitch(nullptr, engine->engine_stack_bottom_,
              engine->engine_stack_size_);
  setcontext(&engine->engine_context_);
}

// ----------------------------------------------------------------- Engine

Engine::Engine() = default;

Engine::~Engine() {
  // Best effort shutdown for simulations abandoned mid-run (test failure
  // paths): kill everything and drive remaining processes until their
  // bodies observe CANCELLED and return.
  bool any_live = false;
  for (const auto& p : processes_) {
    if (p->state_ != Process::State::kDone) {
      any_live = true;
      p->killed_ = true;
      PostWake(p.get(), now_);
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
  auto process = std::shared_ptr<Process>(
      new Process(this, next_id_++, std::move(name), std::move(body)));
  obs::TraceEvent(
      "sim", "process.spawn",
      {{"process", process->name_}, {"pid", process->id_}});
  obs::IncrCounter("sim.processes_spawned");
  processes_.push_back(process);
  PostWake(process.get(), now_);
  return process;
}

void Engine::ScheduleAt(SimTime when, std::function<void()> fn) {
  FABRIC_CHECK(when >= now_) << "event scheduled in the past";
  events_.push(Event{when, next_seq_++, nullptr, std::move(fn)});
}

Engine::TimerToken Engine::ScheduleCancelableAt(SimTime when,
                                                std::function<void()> fn) {
  FABRIC_CHECK(when >= now_) << "event scheduled in the past";
  auto token = std::make_shared<bool>(false);
  Event event{when, next_seq_++, nullptr, std::move(fn)};
  event.cancelled = token;
  events_.push(std::move(event));
  return token;
}

void Engine::Kill(Process& process) {
  if (process.state_ == Process::State::kDone || process.killed_) return;
  obs::TraceEvent("sim", "process.kill",
                  {{"process", process.name_}, {"pid", process.id_}});
  obs::IncrCounter("sim.kills");
  process.killed_ = true;
  if (process.state_ == Process::State::kBlocked) {
    PostWake(&process, now_, /*force=*/true);
  }
}

void Engine::PostWake(Process* process, SimTime when, bool force) {
  if (process->wake_posted_) {
    if (!force) return;
    // Supersede the queued wake: bump the epoch so it is skipped.
    ++process->wake_epoch_;
  }
  process->wake_posted_ = true;
  events_.push(Event{when, next_seq_++, process, nullptr,
                     process->wake_epoch_});
}

void Engine::Resume(Process* process) {
  void* fake_stack = nullptr;
  StartSwitch(&fake_stack, process->context_.uc_stack.ss_sp,
              process->context_.uc_stack.ss_size);
  swapcontext(&engine_context_, &process->context_);
  FinishSwitch(fake_stack, nullptr, nullptr);
}

Status Engine::Run() {
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
      // Callbacks run in engine context (no process), so they may freely
      // Spawn / ScheduleAt / Kill.
      event.callback();
      continue;
    }
    Process* process = event.process;
    process->wake_posted_ = false;
    ++process->wake_epoch_;
    process->state_ = Process::State::kRunning;
    Resume(process);
    if (process->state_ == Process::State::kDone) {
      // Unmap the finished body's stack at once, so a long-lived engine
      // does not keep one stack mapped per process it ever ran. The
      // Process itself stays: queued stale wakes still point at it.
      process->ReleaseStack();
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
