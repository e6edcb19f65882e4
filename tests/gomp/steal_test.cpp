// Work-stealing loop-scheduler tests: exactly-once execution under
// randomized per-iteration stalls (steal-correctness) and the telemetry
// contract — steals happen under imbalance, not under balance.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <vector>

#include "gomp/gomp.hpp"
#include "obs/telemetry.hpp"

namespace ompmca::gomp {
namespace {

Runtime make_runtime(unsigned nthreads, BackendKind kind = BackendKind::kNative) {
  RuntimeOptions opts;
  opts.backend = kind;
  Icvs icvs;
  icvs.num_threads = nthreads;
  opts.icvs = icvs;
  return Runtime(opts);
}

void stall(unsigned iters) {
  volatile double sink = 0.0;
  for (unsigned i = 0; i < iters; ++i) sink = sink + i * 0.25;
}

// Every iteration of a stolen-from loop must run exactly once, no matter
// how unevenly the per-iteration work is distributed.
void run_exactly_once(Schedule kind, long chunk, unsigned nthreads,
                      BackendKind backend) {
  constexpr long kIters = 4096;
  constexpr int kRepeats = 8;
  Runtime rt = make_runtime(nthreads, backend);
  std::mt19937 rng(42);
  std::uniform_int_distribution<unsigned> stall_dist(0, 400);
  for (int rep = 0; rep < kRepeats; ++rep) {
    // Random stall per iteration, fixed before the loop so all threads see
    // the same cost surface (heavy tails force steals).
    std::vector<unsigned> cost(kIters);
    for (auto& c : cost) c = stall_dist(rng);
    std::vector<std::atomic<int>> hits(kIters);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    rt.parallel([&](ParallelContext& ctx) {
      ctx.for_loop(0, kIters,
                   [&](long lo, long hi) {
                     for (long i = lo; i < hi; ++i) {
                       stall(cost[static_cast<std::size_t>(i)]);
                       hits[static_cast<std::size_t>(i)].fetch_add(
                           1, std::memory_order_relaxed);
                     }
                   },
                   ScheduleSpec{kind, chunk});
    });
    for (long i = 0; i < kIters; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "iteration " << i << " rep " << rep;
    }
  }
}

TEST(StealScheduler, DynamicExactlyOnceUnderRandomStalls) {
  run_exactly_once(Schedule::kDynamic, 1, 8, BackendKind::kNative);
}

TEST(StealScheduler, DynamicChunkedExactlyOnceUnderRandomStalls) {
  run_exactly_once(Schedule::kDynamic, 7, 6, BackendKind::kNative);
}

TEST(StealScheduler, GuidedExactlyOnceUnderRandomStalls) {
  run_exactly_once(Schedule::kGuided, 1, 8, BackendKind::kNative);
}

TEST(StealScheduler, DynamicExactlyOnceOnMcaBackend) {
  run_exactly_once(Schedule::kDynamic, 1, 4, BackendKind::kMca);
}

// Telemetry contract, deterministic form: the LoopInstance is driven
// directly (as workshare_test does), so thread interleaving cannot blur
// the balanced/imbalanced distinction.

// Imbalance: a 4-wide loop where only thread 3 pulls chunks — it drains
// its own range, then must steal everything else from threads 0-2.
TEST(StealScheduler, StealsOccurUnderImbalance) {
  obs::ScopedEnable telemetry;
  LoopInstance loop;
  loop.enter(0, 0, 256, ScheduleSpec{Schedule::kDynamic, 1}, 4);
  ASSERT_TRUE(loop.distributed());
  long pos = 0, lo = 0, hi = 0;
  std::vector<int> hits(256, 0);
  while (loop.next_chunk(3, &pos, &lo, &hi)) {
    for (long i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  }
  for (int h : hits) EXPECT_EQ(h, 1);
  for (unsigned t = 0; t < 4; ++t) loop.leave();

  obs::Snapshot s = obs::Registry::instance().snapshot();
  // Three victims each held a quarter of the space: at least one steal
  // per victim, and every steal was preceded by an attempt.
  EXPECT_GE(s.counter(obs::Counter::kGompLoopSteal), 3u);
  EXPECT_GE(s.counter(obs::Counter::kGompLoopStealAttempt),
            s.counter(obs::Counter::kGompLoopSteal));
}

// Tasks queued on one thread's deque and taken by another count as steals
// in the one total, each exactly once.
TEST(StealScheduler, TaskStealsCountInTheTotal) {
  obs::ScopedEnable telemetry;
  TaskSystem ts;
  ts.configure(2);
  constexpr int kTasks = 5;
  int ran = 0;
  for (int i = 0; i < kTasks; ++i) ts.spawn(0, nullptr, [&ran] { ++ran; });
  Task* current = nullptr;
  while (ts.run_one(1, &current)) {
  }
  EXPECT_EQ(ran, kTasks);

  obs::Snapshot s = obs::Registry::instance().snapshot();
  EXPECT_EQ(s.counter(obs::Counter::kGompTaskStolen),
            static_cast<std::uint64_t>(kTasks));
}

// Balance: claims interleaved round-robin, each thread's share exactly its
// pre-sliced range — nobody ever finds an empty own-range while work
// remains, so no steal is ever attempted.
TEST(StealScheduler, NoStealsUnderPerfectBalance) {
  obs::ScopedEnable telemetry;
  constexpr unsigned kThreads = 4;
  constexpr long kIters = 64;  // 16 per thread
  LoopInstance loop;
  loop.enter(0, 0, kIters, ScheduleSpec{Schedule::kDynamic, 1}, kThreads);
  ASSERT_TRUE(loop.distributed());
  long pos[kThreads] = {}, lo = 0, hi = 0;
  long claimed = 0;
  for (long round = 0; round < kIters / kThreads; ++round) {
    for (unsigned t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(loop.next_chunk(t, &pos[t], &lo, &hi));
      claimed += hi - lo;
    }
  }
  EXPECT_EQ(claimed, kIters);
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_FALSE(loop.next_chunk(t, &pos[t], &lo, &hi));
    loop.leave();
  }
  obs::Snapshot s = obs::Registry::instance().snapshot();
  EXPECT_EQ(s.counter(obs::Counter::kGompLoopSteal), 0u);
}

// The doorbell dispatch records a wakeup-latency histogram entry per woken
// worker (the telemetry the EPCC artifacts embed).
TEST(StealScheduler, DoorbellWakeTelemetryRecorded) {
  constexpr unsigned kThreads = 4;
  Runtime rt = make_runtime(kThreads);
  obs::ScopedEnable telemetry;
  rt.parallel([](ParallelContext&) { stall(10); });
  obs::Snapshot s = obs::Registry::instance().snapshot();
  EXPECT_EQ(s.hist(obs::Hist::kGompDoorbellWakeNs).count, kThreads - 1);
  EXPECT_EQ(s.counter(obs::Counter::kGompPoolDispatch), kThreads - 1);
}

}  // namespace
}  // namespace ompmca::gomp
