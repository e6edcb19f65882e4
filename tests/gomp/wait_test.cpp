// The spin-then-park wait paths (gomp/wait.hpp) and the task-free barrier
// exit: the paths a fast spin or a skipped task drain could hide.  ci.sh
// reruns this suite (and the barrier late-arriver cases) repeatedly under
// TSan and the checker.
#include "gomp/wait.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "gomp/runtime.hpp"
#include "obs/telemetry.hpp"

namespace ompmca::gomp {
namespace {

RuntimeOptions options_with(WaitPolicy policy,
                            unsigned width = std::min(4u, online_cpus())) {
  RuntimeOptions opts;
  Icvs icvs;
  icvs.num_threads = width;
  icvs.wait_policy = policy;
  opts.icvs = icvs;
  return opts;
}

/// A sleep comfortably past @p policy's spin window, so every waiter has
/// given up spinning and parked.
std::chrono::microseconds past_window(WaitPolicy policy, unsigned width) {
  return std::chrono::microseconds(spin_window_ns(policy, width) / 1000 +
                                   2000);
}

TEST(WaitPath, SpinWindowGates) {
  // Passive never spins, at any width.
  for (unsigned w : {1u, 2u, online_cpus(), online_cpus() + 1, 64u}) {
    EXPECT_EQ(spin_window_ns(WaitPolicy::kPassive, w), 0u) << w;
  }
  // A team wider than the online CPUs never spins, whatever the policy.
  for (WaitPolicy p :
       {WaitPolicy::kDefault, WaitPolicy::kActive, WaitPolicy::kPassive}) {
    EXPECT_EQ(spin_window_ns(p, online_cpus() + 1), 0u);
  }
  // The unset default spins a short window that fits the host; active
  // spins longer.
  EXPECT_GT(spin_window_ns(WaitPolicy::kDefault, 1), 0u);
  EXPECT_LT(spin_window_ns(WaitPolicy::kDefault, 1), 1'000'000u);
  EXPECT_GT(spin_window_ns(WaitPolicy::kActive, 1),
            spin_window_ns(WaitPolicy::kDefault, 1));
  EXPECT_GE(online_cpus(), 1u);
  EXPECT_GE(available_cpus(), 1u);
  EXPECT_LE(available_cpus(), online_cpus());
}

// --- the team-thread count behind the yield gate --------------------------
//
// Deterministic: the count moves only where a pool claims, releases,
// revokes or tears down a slot, and every check below runs once the
// regions that moved it have returned.  A leak would not show in any
// timing: every later runtime would merely spin throttled.

/// A runtime as wide as the CPUs the process may run on (online_cpus()
/// unless an affinity mask narrows it): its retained team fills them.
RuntimeOptions cpu_wide(bool nested = false) {
  RuntimeOptions opts = options_with(WaitPolicy::kDefault, available_cpus());
  if (nested) {
    opts.icvs->nested = true;
    opts.icvs->max_active_levels = kMaxSupportedActiveLevels;
  }
  return opts;
}

TEST(WaitPath, RuntimeAtCpuWidthIsNotOversubscribed) {
  const unsigned cpus = available_cpus();
  if (cpus < 2) GTEST_SKIP() << "needs two CPUs";
  ASSERT_EQ(team_threads(), 0u) << "an earlier runtime left a team counted";
  {
    Runtime rt(cpu_wide());
    for (int i = 0; i < 3; ++i) rt.parallel([](ParallelContext&) {});
    // The master retains its slot and lease: one team of cpus threads.
    EXPECT_EQ(team_threads(), cpus);
    EXPECT_FALSE(oversubscribed());
  }
  EXPECT_EQ(team_threads(), 0u);
}

TEST(WaitPath, SecondRetainingRuntimeOversubscribes) {
  const unsigned cpus = available_cpus();
  if (cpus < 2) GTEST_SKIP() << "needs two CPUs";
  ASSERT_EQ(team_threads(), 0u) << "an earlier runtime left a team counted";
  Runtime first(cpu_wide());
  first.parallel([](ParallelContext&) {});
  {
    Runtime second(cpu_wide());
    second.parallel([](ParallelContext&) {});
    // The first runtime's retention outlives this thread's hint: both
    // teams are kept, and together they exceed the CPUs.
    EXPECT_EQ(team_threads(), 2 * cpus);
    EXPECT_TRUE(oversubscribed());
  }
  // Tearing the second pool down returns its retained team.
  EXPECT_EQ(team_threads(), cpus);
  EXPECT_FALSE(oversubscribed());
  first.parallel([](ParallelContext&) {});
  EXPECT_EQ(team_threads(), cpus);
}

TEST(WaitPath, RevocationReturnsTheRevokedTeam) {
  const unsigned cpus = available_cpus();
  if (cpus < 2) GTEST_SKIP() << "needs two CPUs";
  ASSERT_EQ(team_threads(), 0u) << "an earlier runtime left a team counted";
  {
    Runtime rt(cpu_wide());
    rt.parallel([](ParallelContext&) {});
    ASSERT_EQ(team_threads(), cpus);
    // Another master needs the workers this thread keeps: it revokes the
    // retention (returning cpus) and then retains its own team (cpus).
    unsigned other_width = 0;
    std::thread([&] {
      rt.parallel([&](ParallelContext& ctx) {
        if (ctx.thread_num() == 0) other_width = ctx.num_threads();
      });
    }).join();
    EXPECT_EQ(other_width, cpus);
    EXPECT_EQ(team_threads(), cpus);
    // And back: this master's hint is stale, so it claims afresh, revoking
    // the exited master's orphaned retention.
    rt.parallel([](ParallelContext&) {});
    EXPECT_EQ(team_threads(), cpus);
  }
  EXPECT_EQ(team_threads(), 0u);
}

TEST(WaitPath, WidthChangeReturnsTheKeptTeam) {
  const unsigned cpus = available_cpus();
  if (cpus < 3) GTEST_SKIP() << "needs three CPUs";
  ASSERT_EQ(team_threads(), 0u) << "an earlier runtime left a team counted";
  {
    Runtime rt(cpu_wide());
    rt.parallel([](ParallelContext&) {});
    EXPECT_EQ(team_threads(), cpus);
    rt.parallel([](ParallelContext&) {}, 2);
    EXPECT_EQ(team_threads(), 2u);
    rt.parallel([](ParallelContext&) {});
    EXPECT_EQ(team_threads(), cpus);
    // A serialized region claims nothing and leaves the retention alone.
    rt.parallel([](ParallelContext&) {}, 1);
    EXPECT_EQ(team_threads(), cpus);
  }
  EXPECT_EQ(team_threads(), 0u);
}

TEST(WaitPath, NestedTeamsReturnTheirWorkers) {
  const unsigned cpus = available_cpus();
  if (cpus < 2) GTEST_SKIP() << "needs two CPUs";
  ASSERT_EQ(team_threads(), 0u) << "an earlier runtime left a team counted";
  {
    Runtime rt(cpu_wide(/*nested=*/true));
    std::atomic<unsigned> inner_seen{0};
    rt.parallel(
        [&](ParallelContext&) {
          rt.parallel(
              [&](ParallelContext& inner) {
                // This nested team's leased worker has joined the count
                // (its master is counted in the outer team).
                if (inner.thread_num() == 0) {
                  inner_seen.store(team_threads());
                }
              },
              2);
        },
        2);
    EXPECT_GE(inner_seen.load(), 3u);
    // The outer team is retained; the nested ones were released.
    EXPECT_EQ(team_threads(), 2u);
  }
  EXPECT_EQ(team_threads(), 0u);
}

// --- the wait and park counters per site ----------------------------------

TEST(WaitPath, PassiveParksEveryWait) {
  obs::Snapshot snap;
  {
    obs::ScopedEnable telemetry;
    {
      Runtime rt(options_with(WaitPolicy::kPassive));
      for (int i = 0; i < 50; ++i) {
        rt.parallel([](ParallelContext& ctx) {
          ctx.barrier();
          ctx.for_loop(0, 64, [](long, long) {},
                       ScheduleSpec{Schedule::kDynamic, 1});
        });
      }
    }  // joined: every worker's last mailbox wait has ended and counted
    snap = obs::Registry::instance().snapshot();
  }
  using C = obs::Counter;
  EXPECT_EQ(snap.counter(C::kGompParkMailbox),
            snap.counter(C::kGompWaitMailbox));
  EXPECT_EQ(snap.counter(C::kGompParkJoin), snap.counter(C::kGompWaitJoin));
  EXPECT_EQ(snap.counter(C::kGompParkBarrier),
            snap.counter(C::kGompWaitBarrier));
  EXPECT_EQ(snap.counter(C::kGompParkRing), snap.counter(C::kGompWaitRing));
  if (online_cpus() >= 2) {
    EXPECT_GT(snap.counter(C::kGompWaitMailbox), 0u);
  }
}

TEST(WaitPath, RegionAfterWindowCountsMailboxParks) {
  Runtime rt(options_with(WaitPolicy::kDefault));
  const unsigned width = rt.max_threads();
  if (width < 2) GTEST_SKIP() << "needs two CPUs";
  for (int i = 0; i < 20; ++i) rt.parallel([](ParallelContext&) {});
  obs::ScopedEnable telemetry;
  // Ten times past the window: a worker descheduled through all of it
  // would see the ring without having parked, and one that had not yet
  // started its wait would count none.
  std::this_thread::sleep_for(10 * past_window(WaitPolicy::kDefault, width));
  rt.parallel([](ParallelContext&) {});
  // A worker's wait for this region outlasted its window and parked; the
  // ring woke it, and it counted the wait and the park before starting
  // the body, so before the join this thread returned from.
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  const std::uint64_t waits = snap.counter(obs::Counter::kGompWaitMailbox);
  EXPECT_GE(snap.counter(obs::Counter::kGompParkMailbox), 1u);
  EXPECT_LE(snap.counter(obs::Counter::kGompParkMailbox), waits);
  EXPECT_LE(waits, width - 1);
}

class WaitPathPolicyTest : public ::testing::TestWithParam<WaitPolicy> {};

// Workers whose spin window expired are parked on their bells: the next
// fork must still wake every one of them (the ring/park path).
TEST_P(WaitPathPolicyTest, RegionAfterWindowRunsFullWidth) {
  Runtime rt(options_with(GetParam()));
  const unsigned width = rt.max_threads();
  for (int round = 0; round < 3; ++round) {
    // Back-to-back regions first, so the workers are hot and spinning.
    for (int i = 0; i < 20; ++i) rt.parallel([](ParallelContext&) {});
    std::this_thread::sleep_for(past_window(GetParam(), width));
    std::atomic<unsigned> ran{0};
    unsigned seen_width = 0;
    rt.parallel([&](ParallelContext& ctx) {
      ran.fetch_add(1);
      if (ctx.thread_num() == 0) seen_width = ctx.num_threads();
    });
    EXPECT_EQ(seen_width, width);
    EXPECT_EQ(ran.load(), width);
  }
}

// The master parks on the join while one worker is late: the last
// worker's decrement must wake it.
TEST_P(WaitPathPolicyTest, LateWorkerWakesParkedJoin) {
  Runtime rt(options_with(GetParam()));
  const unsigned width = rt.max_threads();
  if (width < 2) GTEST_SKIP() << "needs two CPUs";
  for (int round = 0; round < 3; ++round) {
    std::atomic<unsigned> ran{0};
    rt.parallel([&](ParallelContext& ctx) {
      if (ctx.thread_num() == width - 1) {
        std::this_thread::sleep_for(past_window(GetParam(), width));
      }
      ran.fetch_add(1);
    });
    EXPECT_EQ(ran.load(), width);
  }
}

// A thread spawns a task right before a barrier, after its peers already
// reached the barrier through the no-task drain exit.  The spawner drains
// its own task before arriving, so nobody leaves the barrier before the
// task has run.
TEST_P(WaitPathPolicyTest, TaskBeforeBarrierRunsBeforeRelease) {
  Runtime rt(options_with(GetParam()));
  const unsigned width = rt.max_threads();
  if (width < 2) GTEST_SKIP() << "needs two CPUs";
  for (int round = 0; round < 5; ++round) {
    std::atomic<unsigned> at_barrier{0};
    std::atomic<bool> task_ran{false};
    std::atomic<unsigned> early{0};
    rt.parallel([&](ParallelContext& ctx) {
      if (ctx.thread_num() == 0) {
        while (at_barrier.load() != width - 1) std::this_thread::yield();
        // The peers are inside barrier() now, past the empty drain.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ctx.task([&] {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          task_ran.store(true);
        });
      } else {
        at_barrier.fetch_add(1);
      }
      ctx.barrier();
      if (!task_ran.load()) early.fetch_add(1);
    });
    EXPECT_TRUE(task_ran.load());
    EXPECT_EQ(early.load(), 0u);
  }
}

// The same at region end: a worker spawns after the master has already
// reached the join; the region must not return before the task ran.
TEST_P(WaitPathPolicyTest, TaskAtRegionEndRunsBeforeJoin) {
  Runtime rt(options_with(GetParam()));
  const unsigned width = rt.max_threads();
  if (width < 2) GTEST_SKIP() << "needs two CPUs";
  for (int round = 0; round < 5; ++round) {
    std::atomic<unsigned> done{0};
    std::atomic<bool> task_ran{false};
    rt.parallel([&](ParallelContext& ctx) {
      if (ctx.thread_num() != 1) {
        done.fetch_add(1);
        return;
      }
      while (done.load() != width - 1) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ctx.task([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        task_ran.store(true);
      });
    });
    EXPECT_TRUE(task_ran.load());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, WaitPathPolicyTest,
    ::testing::Values(WaitPolicy::kDefault, WaitPolicy::kPassive,
                      WaitPolicy::kActive),
    [](const ::testing::TestParamInfo<WaitPolicy>& param_info) {
      switch (param_info.param) {
        case WaitPolicy::kDefault: return std::string("default");
        case WaitPolicy::kPassive: return std::string("passive");
        case WaitPolicy::kActive: return std::string("active");
      }
      return std::string("unknown");
    });

}  // namespace
}  // namespace ompmca::gomp
