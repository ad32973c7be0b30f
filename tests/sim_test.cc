#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/string_util.h"
#include "sim/engine.h"
#include "sim/waitable.h"

namespace fabric::sim {
namespace {

TEST(EngineTest, EmptyRunCompletesAtTimeZero) {
  Engine engine;
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.now(), 0.0);
}

TEST(EngineTest, SleepAdvancesVirtualTime) {
  Engine engine;
  double woke_at = -1;
  engine.Spawn("sleeper", [&](Process& self) {
    ASSERT_TRUE(self.Sleep(3.5).ok());
    woke_at = self.Now();
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(woke_at, 3.5);
  EXPECT_DOUBLE_EQ(engine.now(), 3.5);
}

TEST(EngineTest, ProcessesInterleaveDeterministically) {
  Engine engine;
  std::vector<std::string> trace;
  engine.Spawn("a", [&](Process& self) {
    trace.push_back("a0");
    ASSERT_TRUE(self.Sleep(2).ok());
    trace.push_back("a2");
  });
  engine.Spawn("b", [&](Process& self) {
    trace.push_back("b0");
    ASSERT_TRUE(self.Sleep(1).ok());
    trace.push_back("b1");
    ASSERT_TRUE(self.Sleep(2).ok());
    trace.push_back("b3");
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(trace, (std::vector<std::string>{"a0", "b0", "b1", "a2", "b3"}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(EngineTest, SameTimeEventsRunInSpawnOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.Spawn("p", [&order, i](Process&) { order.push_back(i); });
  }
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EngineTest, ScheduledCallbacksRunAtTheirTime) {
  Engine engine;
  std::vector<double> times;
  engine.ScheduleAt(2.0, [&] { times.push_back(engine.now()); });
  engine.ScheduleAt(1.0, [&] { times.push_back(engine.now()); });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(EngineTest, CallbackCanSpawnProcess) {
  Engine engine;
  double spawned_ran_at = -1;
  engine.ScheduleAt(1.0, [&] {
    engine.Spawn("late", [&](Process& self) {
      ASSERT_TRUE(self.Sleep(1).ok());
      spawned_ran_at = self.Now();
    });
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(spawned_ran_at, 2.0);
}

TEST(EngineTest, NestedSpawnFromProcess) {
  Engine engine;
  double child_done = -1;
  engine.Spawn("parent", [&](Process& self) {
    ASSERT_TRUE(self.Sleep(1).ok());
    engine.Spawn("child", [&](Process& inner) {
      ASSERT_TRUE(inner.Sleep(2).ok());
      child_done = inner.Now();
    });
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(child_done, 3.0);
}

TEST(EngineTest, KillMakesSleepReturnCancelled) {
  Engine engine;
  Status observed;
  auto victim = engine.Spawn("victim", [&](Process& self) {
    observed = self.Sleep(100);
  });
  engine.ScheduleAt(5.0, [&] { engine.Kill(*victim); });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(observed.code(), StatusCode::kCancelled);
  // Killed at t=5, long before the sleep deadline.
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(EngineTest, KilledProcessFailsFutureBlockingCalls) {
  Engine engine;
  auto victim = engine.Spawn("victim", [&](Process& self) {
    EXPECT_EQ(self.Sleep(10).code(), StatusCode::kCancelled);
    EXPECT_EQ(self.Sleep(1).code(), StatusCode::kCancelled);
    EXPECT_EQ(self.CheckAlive().code(), StatusCode::kCancelled);
  });
  engine.ScheduleAt(1.0, [&] { engine.Kill(*victim); });
  ASSERT_TRUE(engine.Run().ok());
}

TEST(EngineTest, DeadlockIsDiagnosed) {
  Engine engine;
  Condition never(&engine);
  auto blocked = engine.Spawn("stuck", [&](Process& self) {
    // Nobody ever notifies; the run must report a deadlock rather than
    // hang. The engine destructor then kills the process.
    Status s = never.Wait(self);
    EXPECT_EQ(s.code(), StatusCode::kCancelled);
  });
  Status status = engine.Run();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("stuck"), std::string::npos);
}

TEST(EngineTest, StepLimitAborts) {
  Engine engine;
  engine.set_max_steps(100);
  engine.Spawn("spinner", [&](Process& self) {
    while (self.Sleep(1).ok()) {
    }
  });
  Status status = engine.Run();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

int MappedRegions() {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  int regions = 0;
  while (std::getline(maps, line)) ++regions;
  return regions;
}

// A finished process's stack is unmapped during Run, not at engine
// teardown: otherwise a long-lived engine keeps one stack mapped per
// process it ever ran.
TEST(EngineTest, FinishedProcessesReleaseTheirThreads) {
  Engine engine;
  const int before = MappedRegions();
  engine.Spawn("driver", [](Process& self) {
    for (int i = 0; i < 2000; ++i) {
      self.engine().Spawn(StrCat("short-", i), [](Process& child) {
        EXPECT_TRUE(child.Sleep(0.001).ok());
      });
      ASSERT_TRUE(self.Sleep(0.01).ok());
    }
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_LT(MappedRegions() - before, 100);
}

// Ten thousand processes live at once, all parked on one condition: each
// holds its own stack until NotifyAll releases it, and every stack is
// unmapped again once its body returns.
TEST(EngineTest, TenThousandParkedProcessesWakeOnOneNotify) {
  constexpr int kProcesses = 10000;
  Engine engine;
  Condition cond(&engine);
  const int before = MappedRegions();
  int woke = 0;
  for (int i = 0; i < kProcesses; ++i) {
    engine.Spawn(StrCat("parked-", i), [&](Process& self) {
      ASSERT_TRUE(cond.Wait(self).ok());
      ++woke;
      ASSERT_TRUE(self.Sleep(0.5).ok());
    });
  }
  engine.Spawn("notifier", [&](Process& self) {
    ASSERT_TRUE(self.Sleep(2).ok());
    EXPECT_EQ(cond.num_waiters(), kProcesses);
    cond.NotifyAll();
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(woke, kProcesses);
  EXPECT_DOUBLE_EQ(engine.now(), 2.5);
  EXPECT_LT(MappedRegions() - before, 100);
}

TEST(ConditionTest, NotifyAllWakesEveryWaiter) {
  Engine engine;
  Condition cond(&engine);
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    engine.Spawn("waiter", [&](Process& self) {
      ASSERT_TRUE(cond.Wait(self).ok());
      ++woke;
    });
  }
  engine.Spawn("notifier", [&](Process& self) {
    ASSERT_TRUE(self.Sleep(1).ok());
    cond.NotifyAll();
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(woke, 3);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
}

TEST(ConditionTest, NotifyOneWakesOldestWaiter) {
  Engine engine;
  Condition cond(&engine);
  std::vector<int> woke;
  for (int i = 0; i < 3; ++i) {
    engine.Spawn("waiter", [&cond, &woke, i](Process& self) {
      ASSERT_TRUE(cond.Wait(self).ok());
      woke.push_back(i);
    });
  }
  engine.Spawn("notifier", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(self.Sleep(1).ok());
      cond.NotifyOne();
    }
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(woke, (std::vector<int>{0, 1, 2}));
}

TEST(ConditionTest, WaitUntilChecksPredicate) {
  Engine engine;
  Condition cond(&engine);
  int value = 0;
  double resumed_at = -1;
  engine.Spawn("consumer", [&](Process& self) {
    ASSERT_TRUE(cond.WaitUntil(self, [&] { return value >= 3; }).ok());
    resumed_at = self.Now();
  });
  engine.Spawn("producer", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(self.Sleep(1).ok());
      ++value;
      cond.NotifyAll();
    }
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(resumed_at, 3.0);
}

TEST(MutexTest, ProvidesMutualExclusion) {
  Engine engine;
  Mutex mutex(&engine);
  int in_critical = 0;
  int max_in_critical = 0;
  for (int i = 0; i < 4; ++i) {
    engine.Spawn("worker", [&](Process& self) {
      ASSERT_TRUE(mutex.Lock(self).ok());
      ++in_critical;
      max_in_critical = std::max(max_in_critical, in_critical);
      ASSERT_TRUE(self.Sleep(1).ok());
      --in_critical;
      mutex.Unlock();
    });
  }
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(max_in_critical, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 4.0);  // serialized critical sections
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Engine engine;
  Semaphore sem(&engine, 2);
  int active = 0;
  int max_active = 0;
  for (int i = 0; i < 6; ++i) {
    engine.Spawn("worker", [&](Process& self) {
      ASSERT_TRUE(sem.Acquire(self).ok());
      ++active;
      max_active = std::max(max_active, active);
      ASSERT_TRUE(self.Sleep(1).ok());
      --active;
      sem.Release();
    });
  }
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(max_active, 2);
  // 6 unit jobs, 2 at a time => 3 virtual seconds.
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(SemaphoreTest, TryAcquireDoesNotBlock) {
  Engine engine;
  Semaphore sem(&engine, 1);
  engine.Spawn("p", [&](Process&) {
    EXPECT_TRUE(sem.TryAcquire());
    EXPECT_FALSE(sem.TryAcquire());
    sem.Release();
    EXPECT_TRUE(sem.TryAcquire());
    sem.Release();
  });
  ASSERT_TRUE(engine.Run().ok());
}

TEST(LatchTest, AwaitBlocksUntilZero) {
  Engine engine;
  Latch latch(&engine, 3);
  double released_at = -1;
  engine.Spawn("joiner", [&](Process& self) {
    ASSERT_TRUE(latch.Await(self).ok());
    released_at = self.Now();
  });
  for (int i = 1; i <= 3; ++i) {
    engine.Spawn("worker", [&latch, i](Process& self) {
      ASSERT_TRUE(self.Sleep(i).ok());
      latch.CountDown();
    });
  }
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(released_at, 3.0);
}

// Property sweep: a fork/join fleet of N sleepers always finishes at the
// max sleep, independent of N (scheduling is work-conserving and wakes are
// not lost).
class FleetPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FleetPropertyTest, ForkJoinFinishesAtMax) {
  const int n = GetParam();
  Engine engine;
  Latch latch(&engine, n);
  for (int i = 1; i <= n; ++i) {
    engine.Spawn("w", [&latch, i](Process& self) {
      ASSERT_TRUE(self.Sleep(i * 0.5).ok());
      latch.CountDown();
    });
  }
  double done_at = -1;
  engine.Spawn("join", [&](Process& self) {
    ASSERT_TRUE(latch.Await(self).ok());
    done_at = self.Now();
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(done_at, n * 0.5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FleetPropertyTest,
                         ::testing::Values(1, 2, 8, 32, 100));

}  // namespace
}  // namespace fabric::sim
