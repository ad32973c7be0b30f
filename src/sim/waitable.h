#ifndef FABRIC_SIM_WAITABLE_H_
#define FABRIC_SIM_WAITABLE_H_

#include <vector>

#include "common/status.h"
#include "sim/engine.h"

namespace fabric::sim {

// Virtual-time synchronization primitives, usable only from process
// context. State needs no host locking: every process is a fiber on the
// one host thread running the engine, and exactly one runs at a time.

// Condition variable in virtual time. Waiters resume in notify order
// (deterministic, since wakes are sequenced events).
class Condition {
 public:
  explicit Condition(Engine* engine) : engine_(engine) {}
  ~Condition();

  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  // Blocks `self` until notified. Returns CANCELLED if `self` is killed
  // while waiting (or was already killed).
  Status Wait(Process& self);

  // Wakes every current waiter / the longest waiting one.
  void NotifyAll();
  void NotifyOne();

  // Re-checks `predicate` each time the condition is notified, returning
  // once it holds. The predicate must be cheap and side-effect free.
  template <typename Predicate>
  Status WaitUntil(Process& self, Predicate predicate) {
    while (!predicate()) {
      FABRIC_RETURN_IF_ERROR(Wait(self));
    }
    return Status::OK();
  }

  int num_waiters() const { return static_cast<int>(waiters_.size()); }

 private:
  Engine* engine_;
  std::vector<Process*> waiters_;
};

// FIFO mutex in virtual time.
class Mutex {
 public:
  explicit Mutex(Engine* engine) : cond_(engine) {}

  Status Lock(Process& self);
  void Unlock();
  bool locked() const { return locked_; }

 private:
  Condition cond_;
  bool locked_ = false;
};

// Counting semaphore in virtual time (resource pools, executor slots,
// session limits).
class Semaphore {
 public:
  Semaphore(Engine* engine, int permits) : cond_(engine), permits_(permits) {}

  Status Acquire(Process& self);
  // Non-blocking; true on success.
  bool TryAcquire();
  void Release();
  int available() const { return permits_; }

 private:
  Condition cond_;
  int permits_;
};

// Count-down latch: Spawners use it to join a fleet of processes.
class Latch {
 public:
  Latch(Engine* engine, int count) : cond_(engine), count_(count) {}

  // Decrements; wakes waiters at zero. Callable from any process.
  void CountDown();

  // Blocks until the count reaches zero.
  Status Await(Process& self);

  int count() const { return count_; }

 private:
  Condition cond_;
  int count_;
};

}  // namespace fabric::sim

#endif  // FABRIC_SIM_WAITABLE_H_
