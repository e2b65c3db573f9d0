// Unit tests for the discrete-event simulation kernel.
#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/channel.h"
#include "sim/histogram.h"
#include "sim/resources.h"
#include "sql/parser.h"

namespace citusx::sim {
namespace {

TEST(Simulation, ClockAdvancesOnWait) {
  Simulation sim;
  Time seen = -1;
  sim.Spawn("p", [&] {
    EXPECT_TRUE(sim.WaitFor(5 * kMillisecond));
    seen = sim.now();
  });
  sim.Run();
  EXPECT_EQ(seen, 5 * kMillisecond);
  sim.Shutdown();
}

TEST(Simulation, ProcessesInterleaveDeterministically) {
  Simulation sim;
  std::vector<int> order;
  sim.Spawn("a", [&] {
    order.push_back(1);
    sim.WaitFor(10);
    order.push_back(3);
    sim.WaitFor(20);
    order.push_back(6);
  });
  sim.Spawn("b", [&] {
    order.push_back(2);
    sim.WaitFor(15);
    order.push_back(4);
    sim.WaitFor(5);
    order.push_back(5);
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  sim.Shutdown();
}

TEST(Simulation, TieBrokenBySpawnOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; i++) {
    sim.Spawn("p", [&, i] {
      sim.WaitFor(100);
      order.push_back(i);
    });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  sim.Shutdown();
}

TEST(Simulation, BlockAndWake) {
  Simulation sim;
  Process* sleeper = nullptr;
  Time woke_at = -1;
  sleeper = sim.Spawn("sleeper", [&] {
    EXPECT_TRUE(sim.Block());
    woke_at = sim.now();
  });
  sim.Spawn("waker", [&] {
    sim.WaitFor(42);
    sim.Wake(sleeper);
  });
  sim.Run();
  EXPECT_EQ(woke_at, 42);
  sim.Shutdown();
}

TEST(Simulation, DaemonDoesNotKeepRunAlive) {
  Simulation sim;
  int daemon_ticks = 0;
  bool worker_done = false;
  sim.Spawn(
      "daemon",
      [&] {
        while (sim.WaitFor(kSecond)) daemon_ticks++;
      },
      /*daemon=*/true);
  sim.Spawn("worker", [&] {
    sim.WaitFor(3 * kSecond + 1);
    worker_done = true;
  });
  sim.Run();
  EXPECT_TRUE(worker_done);
  EXPECT_EQ(daemon_ticks, 3);
  sim.Shutdown();
}

TEST(Simulation, ShutdownCancelsBlockedProcesses) {
  Simulation sim;
  bool got_cancel = false;
  sim.Spawn(
      "stuck",
      [&] {
        bool ok = sim.Block();
        got_cancel = !ok;
      },
      /*daemon=*/true);
  sim.Spawn("worker", [&] { sim.WaitFor(1); });
  sim.Run();
  sim.Shutdown();
  EXPECT_TRUE(got_cancel);
}

TEST(Simulation, SpawnFromWithinProcess) {
  Simulation sim;
  Time child_ran_at = -1;
  sim.Spawn("parent", [&] {
    sim.WaitFor(7);
    sim.Spawn("child", [&] {
      sim.WaitFor(3);
      child_ran_at = sim.now();
    });
    sim.WaitFor(100);
  });
  sim.Run();
  EXPECT_EQ(child_ran_at, 10);
  sim.Shutdown();
}

TEST(Simulation, DeepRecursionFitsOnAFiberStack) {
  // 200 nested parentheses recurse through every precedence level of the
  // parser: over half a megabyte of stack in a release build and several
  // megabytes under ASan, so this needs a thread-sized fiber stack.
  constexpr int kDepth = 200;
  std::string expr = std::string(kDepth, '(') + "1" + std::string(kDepth, ')');
  Simulation sim;
  bool parsed = false;
  sim.Spawn("parser", [&] {
    sim.WaitFor(1);
    parsed = sql::ParseExpression(expr).ok();
  });
  sim.Run();
  EXPECT_TRUE(parsed);
  sim.Shutdown();
}

TEST(Simulation, ShutdownUnwindsABlockedFiber) {
  struct Guard {
    bool* destroyed;
    ~Guard() { *destroyed = true; }
  };
  Simulation sim;
  bool destroyed = false;
  sim.Spawn(
      "stuck",
      [&] {
        Guard guard{&destroyed};
        sim.Block();
      },
      /*daemon=*/true);
  sim.Spawn("worker", [&] { sim.WaitFor(1); });
  sim.Run();
  EXPECT_FALSE(destroyed);
  sim.Shutdown();
  EXPECT_TRUE(destroyed);
}

TEST(Simulation, SequentialSpawnsReuseStacks) {
  constexpr int kChildren = 100000;
  Simulation sim;
  int ran = 0;
  sim.Spawn("parent", [&] {
    Process* self = Simulation::Current();
    for (int i = 0; i < kChildren; i++) {
      sim.Spawn("child", [&] {
        ran++;
        sim.Wake(self);
      });
      ASSERT_TRUE(sim.Block());
    }
  });
  sim.Run();
  EXPECT_EQ(ran, kChildren);
  // At most the parent and one child are ever live.
  EXPECT_LE(sim.stacks_allocated(), 2u);
  sim.Shutdown();
}

TEST(Simulation, NestedRunRestoresCurrent) {
  Simulation outer;
  Process* outer_proc = nullptr;
  Process* inner_proc = nullptr;
  Process* seen_inside = nullptr;
  Process* seen_after = nullptr;
  Time inner_end = -1;
  outer_proc = outer.Spawn("outer", [&] {
    outer.WaitFor(7);
    Simulation inner;
    inner_proc = inner.Spawn("inner", [&] {
      inner.WaitFor(5);
      seen_inside = Simulation::Current();
      inner_end = inner.now();
    });
    inner.Run();
    inner.Shutdown();
    seen_after = Simulation::Current();
    outer.WaitFor(1);
  });
  outer.Run();
  EXPECT_EQ(seen_inside, inner_proc);
  EXPECT_EQ(inner_end, 5);
  EXPECT_EQ(seen_after, outer_proc);
  EXPECT_EQ(outer.now(), 8);
  EXPECT_EQ(Simulation::Current(), nullptr);
  outer.Shutdown();
}

TEST(SimulationDeathTest, WaitUnderLockAborts) {
  EXPECT_DEATH(
      {
        Simulation sim;
        sim.Spawn("holder", [&] {
          NoYieldScope outer;
          NoYieldScope inner;
          sim.WaitFor(1);
        });
        sim.Run();
      },
      "holder: yield inside 2 NoYieldScope");
}

TEST(Simulation, YieldAfterNoYieldScopeCloses) {
  Simulation sim;
  sim.Spawn("p", [&] {
    {
      NoYieldScope scope;
      EXPECT_EQ(NoYieldScope::depth(), 1);
    }
    EXPECT_TRUE(sim.WaitFor(1));
  });
  sim.Run();
  EXPECT_EQ(NoYieldScope::depth(), 0);
  sim.Shutdown();
}

TEST(CpuResource, SingleCoreSerializesWork) {
  Simulation sim;
  CpuResource cpu(&sim, 1);
  std::vector<Time> done;
  for (int i = 0; i < 3; i++) {
    sim.Spawn("w", [&] {
      cpu.Consume(100);
      done.push_back(sim.now());
    });
  }
  sim.Run();
  EXPECT_EQ(done, (std::vector<Time>{100, 200, 300}));
  EXPECT_EQ(cpu.busy_total(), 300);
  sim.Shutdown();
}

TEST(CpuResource, MultiCoreRunsInParallel) {
  Simulation sim;
  CpuResource cpu(&sim, 4);
  std::vector<Time> done;
  for (int i = 0; i < 4; i++) {
    sim.Spawn("w", [&] {
      cpu.Consume(100);
      done.push_back(sim.now());
    });
  }
  sim.Run();
  EXPECT_EQ(done, (std::vector<Time>{100, 100, 100, 100}));
  sim.Shutdown();
}

TEST(DiskResource, IopsCapLimitsThroughput) {
  Simulation sim;
  // 1000 IOPS, depth 1: each op takes 1ms.
  DiskResource disk(&sim, 1000, 1);
  Time end = 0;
  sim.Spawn("w", [&] {
    disk.Io(50);
    end = sim.now();
  });
  sim.Run();
  EXPECT_EQ(end, 50 * kMillisecond);
  sim.Shutdown();
}

TEST(DiskResource, QueueDepthAllowsConcurrency) {
  Simulation sim;
  DiskResource disk(&sim, 1000, 4);  // service time 4ms per op, 4 channels
  std::vector<Time> done;
  for (int i = 0; i < 8; i++) {
    sim.Spawn("w", [&] {
      disk.Io(1);
      done.push_back(sim.now());
    });
  }
  sim.Run();
  // First 4 finish at 4ms, next 4 at 8ms: aggregate 1000 IOPS.
  ASSERT_EQ(done.size(), 8u);
  EXPECT_EQ(done[3], 4 * kMillisecond);
  EXPECT_EQ(done[7], 8 * kMillisecond);
  sim.Shutdown();
}

TEST(Semaphore, FifoOrderAndBlocking) {
  Simulation sim;
  Semaphore sem(&sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 3; i++) {
    sim.Spawn("w", [&, i] {
      ASSERT_TRUE(sem.Acquire());
      order.push_back(i);
      sim.WaitFor(10);
      sem.Release();
    });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  sim.Shutdown();
}

TEST(Semaphore, TryAcquire) {
  Simulation sim;
  Semaphore sem(&sim, 2);
  int acquired = 0;
  sim.Spawn("w", [&] {
    if (sem.TryAcquire()) acquired++;
    if (sem.TryAcquire()) acquired++;
    if (sem.TryAcquire()) acquired++;  // should fail
    sem.Release();
    sem.Release();
  });
  sim.Run();
  EXPECT_EQ(acquired, 2);
  sim.Shutdown();
}

TEST(Channel, SendReceive) {
  Simulation sim;
  Channel<int> ch(&sim);
  std::vector<int> got;
  sim.Spawn("rx", [&] {
    for (int i = 0; i < 3; i++) {
      auto v = ch.Receive();
      ASSERT_TRUE(v.has_value());
      got.push_back(*v);
    }
  });
  sim.Spawn("tx", [&] {
    for (int i = 1; i <= 3; i++) {
      sim.WaitFor(10);
      ch.Send(i * 11);
    }
  });
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{11, 22, 33}));
  sim.Shutdown();
}

TEST(Channel, CloseWakesReceiver) {
  Simulation sim;
  Channel<int> ch(&sim);
  bool got_nullopt = false;
  sim.Spawn("rx", [&] {
    auto v = ch.Receive();
    got_nullopt = !v.has_value();
  });
  sim.Spawn("closer", [&] {
    sim.WaitFor(5);
    ch.Close();
  });
  sim.Run();
  EXPECT_TRUE(got_nullopt);
  sim.Shutdown();
}

TEST(Channel, MultipleReceiversFifo) {
  Simulation sim;
  Channel<int> ch(&sim);
  std::vector<std::pair<int, int>> got;  // (receiver, value)
  for (int r = 0; r < 2; r++) {
    sim.Spawn("rx", [&, r] {
      auto v = ch.Receive();
      ASSERT_TRUE(v.has_value());
      got.emplace_back(r, *v);
    });
  }
  sim.Spawn("tx", [&] {
    sim.WaitFor(1);
    ch.Send(100);
    sim.WaitFor(1);
    ch.Send(200);
  });
  sim.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair(0, 100));
  EXPECT_EQ(got[1], std::make_pair(1, 200));
  sim.Shutdown();
}

TEST(Histogram, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; i++) h.Record(i * 1000);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.max(), 100000);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_NEAR(h.mean(), 50500.0, 1.0);
  // Percentiles are bucket upper bounds: allow log-bucket error.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 50000.0, 50000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.Percentile(95)), 95000.0, 95000.0 * 0.07);
}

TEST(Histogram, MergeCombinesCounts) {
  Histogram a, b;
  a.Record(10);
  b.Record(20);
  b.Record(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.sum(), 60);
  EXPECT_EQ(a.max(), 30);
  EXPECT_EQ(a.min(), 10);
}

TEST(Histogram, SmallValuesExact) {
  Histogram h;
  for (int i = 0; i < 16; i++) h.Record(i);
  EXPECT_EQ(h.Percentile(100), 15);
}

TEST(Simulation, ManyEventsPerformance) {
  Simulation sim;
  int64_t total = 0;
  for (int p = 0; p < 10; p++) {
    sim.Spawn("w", [&] {
      for (int i = 0; i < 1000; i++) {
        sim.WaitFor(100);
        total++;
      }
    });
  }
  sim.Run();
  EXPECT_EQ(total, 10000);
  EXPECT_GE(sim.events_processed(), 10000u);
  sim.Shutdown();
}

}  // namespace
}  // namespace citusx::sim
