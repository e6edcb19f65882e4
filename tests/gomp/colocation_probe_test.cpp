// The co-location probe: whether team threads that the kernel placed on
// one CPU leave a window of regions slow.  A spinner that yields hands its
// CPU to the co-located peer and gets it back, so the pair stays put and
// every wait misses its window; a pause-only spinner lets the balancer
// move one of them.  Disabled in tier-1 because the outcome depends on the
// kernel's balancer and the host's load; ci.sh runs it as its own step
// with --gtest_also_run_disabled_tests.
//
// Ten fresh runtimes at width online_cpus() and the default wait policy;
// on each, windows of 2000 back-to-back regions of one body shape.  Every
// team thread records sched_getcpu() in every region.  A window is
// co-located when two team threads reported one CPU in most of its
// regions, and slow when its median region takes more than twice the
// fastest window's.  The probe fails on a window that is both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/time.hpp"
#include "gomp/runtime.hpp"
#include "gomp/wait.hpp"

namespace ompmca::gomp {
namespace {

constexpr int kRuntimes = 10;
constexpr int kWindowsPerRuntime = 5;
constexpr int kRegions = 2000;
constexpr int kDelay = 64;

struct Window {
  double median_us = 0;
  bool colocated = false;
};

/// EPCC's delay(): a dependency chain the optimizer cannot elide.
void delay(int length) {
  volatile double a = 0.0;
  for (int i = 0; i < length; ++i) a = a + i * 0.5;
}

bool shares_cpu(const std::vector<int>& cpu) {
  for (std::size_t i = 0; i < cpu.size(); ++i) {
    for (std::size_t j = i + 1; j < cpu.size(); ++j) {
      if (cpu[i] >= 0 && cpu[i] == cpu[j]) return true;
    }
  }
  return false;
}

std::vector<Window> probe(bool delay_and_barrier) {
  const unsigned width = online_cpus();
  std::vector<Window> windows;
  for (int r = 0; r < kRuntimes; ++r) {
    RuntimeOptions opts;
    Icvs icvs;
    icvs.num_threads = width;
    icvs.wait_policy = WaitPolicy::kDefault;
    opts.icvs = icvs;
    Runtime rt(opts);
    std::vector<int> cpu(width, -1);
    std::vector<double> lat(kRegions);
    for (int w = 0; w < kWindowsPerRuntime; ++w) {
      int colocated_regions = 0;
      for (int i = 0; i < kRegions; ++i) {
        std::fill(cpu.begin(), cpu.end(), -1);
        const std::uint64_t t0 = monotonic_nanos();
        rt.parallel([&](ParallelContext& ctx) {
#if defined(__linux__)
          cpu[ctx.thread_num()] = sched_getcpu();
#endif
          if (delay_and_barrier) {
            delay(kDelay);
            ctx.barrier();
          }
        });
        lat[static_cast<std::size_t>(i)] =
            static_cast<double>(monotonic_nanos() - t0) * 1e-3;
        if (shares_cpu(cpu)) ++colocated_regions;
      }
      std::nth_element(lat.begin(), lat.begin() + kRegions / 2, lat.end());
      windows.push_back(
          {lat[kRegions / 2], 2 * colocated_regions > kRegions});
    }
  }
  return windows;
}

void check(bool delay_and_barrier) {
#if !defined(__linux__)
  GTEST_SKIP() << "needs sched_getcpu()";
#endif
  if (online_cpus() < 2) GTEST_SKIP() << "needs two CPUs";
  const std::vector<Window> windows = probe(delay_and_barrier);
  double fastest = windows.front().median_us;
  for (const Window& w : windows) fastest = std::min(fastest, w.median_us);
  int slow = 0, colocated = 0, both = 0;
  for (const Window& w : windows) {
    const bool is_slow = w.median_us > 2 * fastest;
    slow += is_slow ? 1 : 0;
    colocated += w.colocated ? 1 : 0;
    both += is_slow && w.colocated ? 1 : 0;
  }
  std::printf(
      "co-location probe (%s, width %u, oversubscribed %d): %zu windows, "
      "fastest median %.2f us, %d slow, %d co-located, %d slow and "
      "co-located\n",
      delay_and_barrier ? "delay+barrier" : "empty", online_cpus(),
      oversubscribed() ? 1 : 0, windows.size(), fastest, slow, colocated,
      both);
  EXPECT_EQ(both, 0) << "windows slow while team threads shared a CPU";
}

TEST(CoLocationProbe, DISABLED_DelayAndBarrier) { check(true); }

TEST(CoLocationProbe, DISABLED_Empty) { check(false); }

}  // namespace
}  // namespace ompmca::gomp
