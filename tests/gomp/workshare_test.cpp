#include "gomp/workshare.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iterator>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "gomp/runtime.hpp"

namespace ompmca::gomp {
namespace {

// --- static_chunk: pure function, exhaustive properties -----------------------

struct StaticCase {
  long begin, end, chunk;
  unsigned nthreads;
};

class StaticChunkTest : public ::testing::TestWithParam<StaticCase> {};

TEST_P(StaticChunkTest, PartitionIsExactCover) {
  const auto c = GetParam();
  std::vector<int> hits(static_cast<std::size_t>(c.end - c.begin), 0);
  for (unsigned tid = 0; tid < c.nthreads; ++tid) {
    long pos = 0;
    long lo = 0, hi = 0;
    while (static_chunk(c.begin, c.end, c.chunk, tid, c.nthreads, pos, &lo,
                        &hi)) {
      ++pos;
      ASSERT_LE(c.begin, lo);
      ASSERT_LT(lo, hi);
      ASSERT_LE(hi, c.end);
      for (long i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i - c.begin)];
      if (c.chunk <= 0) break;  // block schedule: single chunk per thread
    }
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "iteration " << (c.begin + static_cast<long>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StaticChunkTest,
    ::testing::Values(StaticCase{0, 100, 0, 1}, StaticCase{0, 100, 0, 3},
                      StaticCase{0, 100, 0, 24}, StaticCase{0, 7, 0, 24},
                      StaticCase{5, 105, 0, 8}, StaticCase{0, 100, 1, 4},
                      StaticCase{0, 100, 7, 4}, StaticCase{0, 99, 10, 3},
                      StaticCase{-50, 50, 13, 5}, StaticCase{0, 1, 0, 2},
                      StaticCase{0, 24, 1, 24}, StaticCase{0, 23, 4, 24}));

TEST(StaticChunk, EmptyRange) {
  long lo, hi;
  EXPECT_FALSE(static_chunk(10, 10, 0, 0, 4, 0, &lo, &hi));
  EXPECT_FALSE(static_chunk(10, 5, 0, 0, 4, 0, &lo, &hi));
}

TEST(StaticChunk, BlockRemainderGoesToFirstThreads) {
  // 10 iterations over 4 threads: 3,3,2,2.
  long lo, hi;
  ASSERT_TRUE(static_chunk(0, 10, 0, 0, 4, 0, &lo, &hi));
  EXPECT_EQ(hi - lo, 3);
  ASSERT_TRUE(static_chunk(0, 10, 0, 1, 4, 0, &lo, &hi));
  EXPECT_EQ(hi - lo, 3);
  ASSERT_TRUE(static_chunk(0, 10, 0, 2, 4, 0, &lo, &hi));
  EXPECT_EQ(hi - lo, 2);
  ASSERT_TRUE(static_chunk(0, 10, 0, 3, 4, 0, &lo, &hi));
  EXPECT_EQ(hi - lo, 2);
}

TEST(StaticChunk, CyclicAssignsRoundRobin) {
  // chunk=2, 3 threads: thread 1's chunks are [2,4), [8,10), ...
  long lo, hi;
  ASSERT_TRUE(static_chunk(0, 12, 2, 1, 3, 0, &lo, &hi));
  EXPECT_EQ(lo, 2);
  EXPECT_EQ(hi, 4);
  ASSERT_TRUE(static_chunk(0, 12, 2, 1, 3, 1, &lo, &hi));
  EXPECT_EQ(lo, 8);
  EXPECT_EQ(hi, 10);
  EXPECT_FALSE(static_chunk(0, 12, 2, 1, 3, 2, &lo, &hi));
}

// --- LoopInstance: concurrent schedules cover every iteration exactly once ----

struct LoopCase {
  Schedule kind;
  long chunk;
  unsigned nthreads;
  long iterations;
};

class LoopInstanceTest : public ::testing::TestWithParam<LoopCase> {};

TEST_P(LoopInstanceTest, ChunksCoverRangeExactlyOnce) {
  const auto c = GetParam();
  LoopInstance loop;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(c.iterations));
  for (auto& h : hits) h.store(0);

  auto worker = [&](unsigned tid) {
    loop.enter(/*gen=*/0, 0, c.iterations, ScheduleSpec{c.kind, c.chunk},
               c.nthreads);
    long pos = 0, lo = 0, hi = 0;
    while (loop.next_chunk(tid, &pos, &lo, &hi)) {
      ASSERT_LE(0, lo);
      ASSERT_LT(lo, hi);
      ASSERT_LE(hi, c.iterations);
      for (long i = lo; i < hi; ++i)
        hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
    loop.leave();
  };

  std::vector<std::thread> threads;
  for (unsigned t = 1; t < c.nthreads; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (auto& t : threads) t.join();

  for (long i = 0; i < c.iterations; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
        << "iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, LoopInstanceTest,
    ::testing::Values(
        LoopCase{Schedule::kStatic, 0, 4, 1000},
        LoopCase{Schedule::kStatic, 7, 4, 1000},
        LoopCase{Schedule::kStatic, 0, 24, 10},
        LoopCase{Schedule::kDynamic, 1, 4, 1000},
        LoopCase{Schedule::kDynamic, 16, 8, 1000},
        LoopCase{Schedule::kGuided, 1, 4, 1000},
        LoopCase{Schedule::kGuided, 8, 8, 5000},
        LoopCase{Schedule::kAuto, 0, 6, 999},
        LoopCase{Schedule::kDynamic, 1000, 4, 10}),
    [](const ::testing::TestParamInfo<LoopCase>& param_info) {
      const auto& c = param_info.param;
      return std::string(to_string(c.kind)) + "_c" +
             std::to_string(c.chunk) + "_t" + std::to_string(c.nthreads) +
             "_n" + std::to_string(c.iterations);
    });

TEST(LoopInstance, GuidedChunksDecrease) {
  LoopInstance loop;
  loop.enter(0, 0, 10000, ScheduleSpec{Schedule::kGuided, 1}, 4);
  long pos = 0, lo = 0, hi = 0;
  long first = 0, last = 0;
  bool first_seen = false;
  while (loop.next_chunk(0, &pos, &lo, &hi)) {
    if (!first_seen) {
      first = hi - lo;
      first_seen = true;
    }
    last = hi - lo;
  }
  loop.leave();
  EXPECT_GT(first, last);
  EXPECT_EQ(last, 1);  // converges to the minimum chunk
}

TEST(LoopInstance, RingReuseAcrossGenerations) {
  LoopInstance loop;
  for (unsigned long gen = 0; gen < 5; ++gen) {
    loop.enter(gen, 0, 10, ScheduleSpec{}, 1);
    long pos = 0, lo, hi;
    ASSERT_TRUE(loop.next_chunk(0, &pos, &lo, &hi));
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 10);
    loop.leave();
  }
}

// --- SectionsInstance ----------------------------------------------------------

TEST(Sections, EachSectionRunsOnce) {
  SectionsInstance ws;
  const int kSections = 10;
  std::vector<std::atomic<int>> hits(kSections);
  for (auto& h : hits) h.store(0);
  auto worker = [&](unsigned /*tid*/) {
    ws.enter(0, kSections, 4);
    for (;;) {
      int idx = ws.next_section();
      if (idx < 0) break;
      hits[static_cast<std::size_t>(idx)].fetch_add(1);
    }
    ws.leave();
  };
  std::vector<std::thread> threads;
  for (unsigned t = 1; t < 4; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (auto& t : threads) t.join();
  for (int i = 0; i < kSections; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Sections, MoreThreadsThanSections) {
  SectionsInstance ws;
  std::atomic<int> total{0};
  auto worker = [&](unsigned) {
    ws.enter(0, 2, 6);
    for (;;) {
      int idx = ws.next_section();
      if (idx < 0) break;
      total.fetch_add(1);
    }
    ws.leave();
  };
  std::vector<std::thread> threads;
  for (unsigned t = 1; t < 6; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.load(), 2);
}

// --- loops in a team: static loops share nothing, shared loops claim ------------

RuntimeOptions loop_options(unsigned width) {
  RuntimeOptions opts;
  Icvs icvs;
  icvs.num_threads = width;
  // `runtime` resolves to a chunked static schedule here.
  icvs.run_schedule = ScheduleSpec{Schedule::kStatic, 5};
  opts.icvs = icvs;
  return opts;
}

using Hits = std::vector<std::atomic<int>>;

void mark(Hits& hits, long lo, long hi) {
  for (long i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
}

void expect_exactly_once(const Hits& hits, const std::string& what) {
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << what << " iteration " << i;
  }
}

/// Runs one loop through the GOMP_loop_* shaped entry points.
void loop_via_start(ParallelContext& ctx, long n, ScheduleSpec spec,
                    Hits& hits, bool nowait) {
  long lo = 0;
  long hi = 0;
  if (ctx.loop_start(0, n, spec, &lo, &hi)) {
    do {
      mark(hits, lo, hi);
    } while (ctx.loop_next(&lo, &hi));
  }
  ctx.loop_end(nowait);
}

TEST(LoopClaim, StaticSchedulesCoverEveryIndexOnceAtWidths1To8) {
  Runtime rt(loop_options(8));
  const long n = 1009;
  const ScheduleSpec specs[] = {{Schedule::kStatic, 0},
                                {Schedule::kStatic, 3},
                                {Schedule::kAuto, 0},
                                {Schedule::kRuntime, 0}};
  for (bool via_start : {false, true}) {
    for (const ScheduleSpec spec : specs) {
      for (unsigned width = 1; width <= 8; ++width) {
        Hits hits(static_cast<std::size_t>(n));
        for (auto& h : hits) h.store(0);
        rt.parallel(
            [&](ParallelContext& ctx) {
              if (via_start) {
                loop_via_start(ctx, n, spec, hits, /*nowait=*/false);
              } else {
                ctx.for_loop(
                    0, n, [&](long lo, long hi) { mark(hits, lo, hi); }, spec);
              }
            },
            width);
        expect_exactly_once(hits, std::string(to_string(spec.kind)) + "," +
                                      std::to_string(spec.chunk) + " width " +
                                      std::to_string(width) +
                                      (via_start ? " loop_start" : " for_loop"));
      }
    }
  }
}

TEST(LoopClaim, StaticLoopsTakeNoRingSlot) {
  // Thread 0 stalls until its peers have run more nowait static loops than
  // the ring holds.  A static loop that claimed a ring slot would block
  // them on the first slot thread 0 never left; the bounded stall turns
  // that into a failure instead of a hang.
  Runtime rt(loop_options(4));
  const long n = 257;
  constexpr unsigned kLoops = 2 * kWorkshareRing + 1;
  std::vector<Hits> hits(kLoops);
  for (auto& h : hits) {
    h = Hits(static_cast<std::size_t>(n));
    for (auto& x : h) x.store(0);
  }
  std::atomic<unsigned> peers_done{0};
  rt.parallel(
      [&](ParallelContext& ctx) {
        if (ctx.thread_num() == 0) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (peers_done.load() < ctx.num_threads() - 1 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          EXPECT_EQ(peers_done.load(), ctx.num_threads() - 1);
        }
        for (unsigned k = 0; k < kLoops; ++k) {
          const ScheduleSpec spec{k % 2 == 0 ? Schedule::kStatic
                                             : Schedule::kAuto,
                                  0};
          if (k % 3 == 0) {
            loop_via_start(ctx, n, spec, hits[k], /*nowait=*/true);
          } else {
            ctx.for_loop(
                0, n, [&](long lo, long hi) { mark(hits[k], lo, hi); }, spec,
                /*nowait=*/true);
          }
        }
        if (ctx.thread_num() != 0) peers_done.fetch_add(1);
      },
      4);
  for (unsigned k = 0; k < kLoops; ++k) {
    expect_exactly_once(hits[k], "loop " + std::to_string(k));
  }
}

TEST(LoopClaim, StaticAndDynamicNowaitLoopsInterleave) {
  Runtime rt(loop_options(4));
  const long n = 1000;
  constexpr unsigned kLoops = 3 * kWorkshareRing;
  std::vector<Hits> hits(kLoops);
  for (auto& h : hits) {
    h = Hits(static_cast<std::size_t>(n));
    for (auto& x : h) x.store(0);
  }
  const ScheduleSpec specs[] = {{Schedule::kStatic, 0},
                                {Schedule::kDynamic, 7},
                                {Schedule::kStatic, 4},
                                {Schedule::kGuided, 2},
                                {Schedule::kRuntime, 0}};
  for (int rep = 0; rep < 3; ++rep) {
    for (auto& h : hits) {
      for (auto& x : h) x.store(0);
    }
    rt.parallel([&](ParallelContext& ctx) {
      for (unsigned k = 0; k < kLoops; ++k) {
        const ScheduleSpec spec = specs[k % std::size(specs)];
        if (k % 2 == 0) {
          loop_via_start(ctx, n, spec, hits[k], /*nowait=*/true);
        } else {
          ctx.for_loop(
              0, n, [&](long lo, long hi) { mark(hits[k], lo, hi); }, spec,
              /*nowait=*/true);
        }
      }
    });
    for (unsigned k = 0; k < kLoops; ++k) {
      expect_exactly_once(hits[k], "rep " + std::to_string(rep) + " loop " +
                                       std::to_string(k));
    }
  }
}

TEST(LoopClaim, DynamicNowaitLoopsWaitOutAStalledThread) {
  // The fast threads run a whole ring ahead of the stalled one and must
  // wait (spin, then park) for each slot to drain, then finish every loop
  // exactly once.
  for (WaitPolicy policy : {WaitPolicy::kDefault, WaitPolicy::kPassive}) {
    RuntimeOptions opts = loop_options(4);
    opts.icvs->wait_policy = policy;
    Runtime rt(opts);
    const long n = 600;
    constexpr unsigned kLoops = 2 * kWorkshareRing;
    std::vector<Hits> hits(kLoops);
    for (auto& h : hits) {
      h = Hits(static_cast<std::size_t>(n));
      for (auto& x : h) x.store(0);
    }
    rt.parallel([&](ParallelContext& ctx) {
      if (ctx.thread_num() == ctx.num_threads() - 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      for (unsigned k = 0; k < kLoops; ++k) {
        ctx.for_loop(
            0, n, [&](long lo, long hi) { mark(hits[k], lo, hi); },
            ScheduleSpec{Schedule::kDynamic, 3}, /*nowait=*/true);
      }
    });
    for (unsigned k = 0; k < kLoops; ++k) {
      expect_exactly_once(hits[k], "loop " + std::to_string(k));
    }
  }
}

TEST(LoopClaimDeathTest, LoopNextOrEndWithoutStartAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Runtime rt(loop_options(1));
  EXPECT_DEATH(rt.parallel(
                   [](ParallelContext& ctx) {
                     long lo = 0;
                     long hi = 0;
                     EXPECT_FALSE(ctx.loop_next(&lo, &hi));
                   },
                   1),
               "loop_next without loop_start");
  EXPECT_DEATH(rt.parallel([](ParallelContext& ctx) { ctx.loop_end(); }, 1),
               "loop_end without loop_start");
}

}  // namespace
}  // namespace ompmca::gomp
