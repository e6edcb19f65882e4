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

namespace ompmca::gomp {
namespace {

RuntimeOptions options_with(WaitPolicy policy) {
  RuntimeOptions opts;
  Icvs icvs;
  icvs.num_threads = std::min(4u, online_cpus());
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
