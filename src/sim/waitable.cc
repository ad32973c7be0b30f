#include "sim/waitable.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace fabric::sim {

Condition::~Condition() {
  // Processes can still be parked here when a whole simulation is torn
  // down mid-run (the engine destructor kills and resumes them later,
  // possibly after this condition is gone). Clear their back-pointers so
  // their unwinding Wait() knows not to touch the freed waiter list.
  for (Process* waiter : waiters_) waiter->wait_cond_ = nullptr;
}

Status Condition::Wait(Process& self) {
  if (self.killed_) {
    return CancelledError(StrCat("process '", self.name(), "' killed"));
  }
  waiters_.push_back(&self);
  self.wait_cond_ = this;
  self.state_ = Process::State::kBlocked;
  self.SwitchToEngine();
  // A kill-wake resumes us while still registered; deregister. The
  // back-pointer is only still set for that case — notification and
  // ~Condition both clear it (the latter because `this` may be freed).
  if (self.wait_cond_ == this) {
    self.wait_cond_ = nullptr;
    waiters_.erase(std::remove(waiters_.begin(), waiters_.end(), &self),
                   waiters_.end());
  }
  if (self.killed_) {
    return CancelledError(StrCat("process '", self.name(), "' killed"));
  }
  return Status::OK();
}

void Condition::NotifyAll() {
  for (Process* waiter : waiters_) {
    waiter->wait_cond_ = nullptr;
    engine_->PostWake(waiter, engine_->now_);
  }
  waiters_.clear();
}

void Condition::NotifyOne() {
  if (waiters_.empty()) return;
  waiters_.front()->wait_cond_ = nullptr;
  engine_->PostWake(waiters_.front(), engine_->now_);
  waiters_.erase(waiters_.begin());
}

Status Mutex::Lock(Process& self) {
  // NotifyAll (not NotifyOne) below keeps this livelock-free even when a
  // woken waiter has been killed: everyone re-checks `locked_`.
  while (locked_) {
    FABRIC_RETURN_IF_ERROR(cond_.Wait(self));
  }
  locked_ = true;
  return Status::OK();
}

void Mutex::Unlock() {
  FABRIC_CHECK(locked_) << "Unlock of unlocked sim::Mutex";
  locked_ = false;
  cond_.NotifyAll();
}

Status Semaphore::Acquire(Process& self) {
  while (permits_ == 0) {
    FABRIC_RETURN_IF_ERROR(cond_.Wait(self));
  }
  --permits_;
  return Status::OK();
}

bool Semaphore::TryAcquire() {
  if (permits_ == 0) return false;
  --permits_;
  return true;
}

void Semaphore::Release() {
  ++permits_;
  cond_.NotifyAll();
}

void Latch::CountDown() {
  FABRIC_CHECK(count_ > 0) << "Latch counted below zero";
  if (--count_ == 0) cond_.NotifyAll();
}

Status Latch::Await(Process& self) {
  return cond_.WaitUntil(self, [this] { return count_ == 0; });
}

}  // namespace fabric::sim
