// The libGOMP-compatible C entry points: code written against the GOMP ABI
// (what a compiler emits for pragmas) must run unchanged on the shim —
// including the paper-style flip between runtimes.
#include "gomp/gomp_compat.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace ompmca::gomp::compat {
namespace {

// GOMP outlined functions are C functions taking one data pointer.
struct CountArgs {
  std::atomic<int>* count;
};
void count_body(void* p) {
  auto* args = static_cast<CountArgs*>(p);
  args->count->fetch_add(1);
}

struct LoopArgs {
  std::vector<std::atomic<int>>* hits;
  long start, end, incr, chunk;
  bool dynamic;
};
void loop_body(void* p) {
  auto* args = static_cast<LoopArgs*>(p);
  long lo, hi;
  bool got = args->dynamic
                 ? GOMP_loop_dynamic_start(args->start, args->end, args->incr,
                                           args->chunk, &lo, &hi)
                 : GOMP_loop_static_start(args->start, args->end, args->incr,
                                          args->chunk, &lo, &hi);
  while (got) {
    for (long i = lo; i != hi; i += args->incr) {
      (*args->hits)[static_cast<std::size_t>((i - args->start) / args->incr)]
          .fetch_add(1);
    }
    got = args->dynamic ? GOMP_loop_dynamic_next(&lo, &hi)
                        : GOMP_loop_static_next(&lo, &hi);
  }
  GOMP_loop_end();
}

struct CriticalArgs {
  long* counter;
};
void critical_body(void* p) {
  auto* args = static_cast<CriticalArgs*>(p);
  for (int i = 0; i < 500; ++i) {
    GOMP_critical_start();
    ++*args->counter;
    GOMP_critical_end();
  }
}

struct ResetProbeArgs {
  std::atomic<int>* refused;
};
void reset_probe_body(void* p) {
  auto* args = static_cast<ResetProbeArgs*>(p);
  // From inside a region the teardown must refuse: destroying the runtime
  // here would free the pool out from under this very team.
  if (omp_get_thread_num() == 0 && !gomp_compat_reset()) {
    args->refused->fetch_add(1);
  }
  GOMP_barrier();
}

void single_and_barrier_body(void* p) {
  auto* hits = static_cast<std::atomic<int>*>(p);
  if (GOMP_single_start()) hits->fetch_add(1);
  GOMP_barrier();
  EXPECT_EQ(hits->load(), 1);
}

void zero_incr_static_body(void*) {
  long lo = 0;
  long hi = 0;
  EXPECT_FALSE(GOMP_loop_static_start(0, 10, 0, 1, &lo, &hi));
  GOMP_loop_end();
}

void zero_incr_dynamic_body(void*) {
  long lo = 0;
  long hi = 0;
  EXPECT_FALSE(GOMP_loop_dynamic_start(0, 10, 0, 1, &lo, &hi));
  GOMP_loop_end();
}

void end_without_start_body(void*) { GOMP_loop_end_nowait(); }

class CompatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gomp_compat_reset();
    RuntimeOptions opts;
    Icvs icvs;
    icvs.num_threads = 4;
    opts.icvs = icvs;
    gomp_compat_configure(std::move(opts));
  }
  void TearDown() override { gomp_compat_reset(); }
};

TEST_F(CompatTest, ParallelRunsTeam) {
  std::atomic<int> count{0};
  CountArgs args{&count};
  GOMP_parallel(count_body, &args, 0);
  EXPECT_EQ(count.load(), 4);
  GOMP_parallel(count_body, &args, 2);
  EXPECT_EQ(count.load(), 6);
}

TEST_F(CompatTest, StaticLoopCoversRange) {
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h.store(0);
  LoopArgs args{&hits, 0, 100, 1, 0, /*dynamic=*/false};
  GOMP_parallel(loop_body, &args, 0);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(CompatTest, StaticChunkedLoopCoversRange) {
  std::vector<std::atomic<int>> hits(97);
  for (auto& h : hits) h.store(0);
  LoopArgs args{&hits, 0, 97, 1, 7, /*dynamic=*/false};
  GOMP_parallel(loop_body, &args, 0);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(CompatTest, DynamicLoopCoversRange) {
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  LoopArgs args{&hits, 0, 1000, 1, 16, /*dynamic=*/true};
  GOMP_parallel(loop_body, &args, 0);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(CompatTest, StridedLoop) {
  // for (i = 10; i < 50; i += 4): 10 iterations.
  std::vector<std::atomic<int>> hits(10);
  for (auto& h : hits) h.store(0);
  LoopArgs args{&hits, 10, 50, 4, 0, /*dynamic=*/false};
  GOMP_parallel(loop_body, &args, 0);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(CompatTest, CriticalProtects) {
  long counter = 0;
  CriticalArgs args{&counter};
  GOMP_parallel(critical_body, &args, 0);
  EXPECT_EQ(counter, 4 * 500);
}

TEST_F(CompatTest, SingleAndBarrier) {
  std::atomic<int> hits{0};
  GOMP_parallel(single_and_barrier_body, &hits, 0);
  EXPECT_EQ(hits.load(), 1);
}

TEST_F(CompatTest, OmpQueryApi) {
  EXPECT_EQ(omp_get_max_threads(), 4);
  EXPECT_EQ(omp_get_num_procs(), 24);
  EXPECT_EQ(omp_in_parallel(), 0);
  omp_set_num_threads(6);
  EXPECT_EQ(omp_get_max_threads(), 6);
  double a = omp_get_wtime();
  EXPECT_GE(omp_get_wtime(), a);
}

TEST_F(CompatTest, ResetRefusesWhileARegionIsInFlight) {
  std::atomic<int> refused{0};
  ResetProbeArgs args{&refused};
  GOMP_parallel(reset_probe_body, &args, 0);
  EXPECT_EQ(refused.load(), 1);
  // Drained: the same call now succeeds.
  EXPECT_TRUE(gomp_compat_reset());
}

TEST_F(CompatTest, LoopAbiMisuseAbortsDeathTest) {
  // Fail-stop in every build: a zero increment, or a loop end with no loop
  // open, used to reach a null descriptor in release builds.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(GOMP_parallel(zero_incr_static_body, nullptr, 1), "incr == 0");
  EXPECT_DEATH(GOMP_parallel(zero_incr_dynamic_body, nullptr, 1),
               "incr == 0");
  EXPECT_DEATH(GOMP_parallel(end_without_start_body, nullptr, 1),
               "loop_end without loop_start");
}

TEST(CompatBackendFlip, McaBackendViaConfigure) {
  gomp_compat_reset();
  RuntimeOptions opts;
  opts.backend = BackendKind::kMca;
  Icvs icvs;
  icvs.num_threads = 3;
  opts.icvs = icvs;
  gomp_compat_configure(std::move(opts));

  std::atomic<int> count{0};
  CountArgs args{&count};
  GOMP_parallel(count_body, &args, 0);
  EXPECT_EQ(count.load(), 3);
  EXPECT_EQ(gomp_compat_runtime().backend().name(), "mca");
  gomp_compat_reset();
}

}  // namespace
}  // namespace ompmca::gomp::compat
