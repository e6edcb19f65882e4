// End-to-end runtime semantics, parameterized over both system backends —
// every behaviour here must be identical under "stock libGOMP" (native) and
// "MCA-libGOMP" (mca), which is the paper's core claim.
#include "gomp/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "gomp/backend_native.hpp"
#include "gomp/gomp.hpp"
#include "mrapi/database.hpp"

namespace ompmca::gomp {
namespace {

RuntimeOptions options_for(BackendKind kind, unsigned threads = 8) {
  RuntimeOptions opts;
  opts.backend = kind;
  Icvs icvs;
  icvs.num_threads = threads;
  opts.icvs = icvs;
  return opts;
}

class RuntimeBackendTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  std::unique_ptr<Runtime> make_runtime(unsigned threads = 8) {
    return std::make_unique<Runtime>(options_for(GetParam(), threads));
  }
};

TEST_P(RuntimeBackendTest, ParallelRunsAllThreadsOnce) {
  auto rt = make_runtime(8);
  std::vector<std::atomic<int>> hits(8);
  for (auto& h : hits) h.store(0);
  rt->parallel([&](ParallelContext& ctx) {
    EXPECT_EQ(ctx.num_threads(), 8u);
    hits[ctx.thread_num()].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(RuntimeBackendTest, NumThreadsClauseOverridesIcv) {
  auto rt = make_runtime(8);
  std::atomic<unsigned> seen{0};
  rt->parallel([&](ParallelContext& ctx) { seen = ctx.num_threads(); }, 3);
  EXPECT_EQ(seen.load(), 3u);
}

TEST_P(RuntimeBackendTest, RepeatedRegionsReuseSemantics) {
  auto rt = make_runtime(4);
  for (int r = 0; r < 50; ++r) {
    std::atomic<int> count{0};
    rt->parallel([&](ParallelContext&) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 4);
  }
}

TEST_P(RuntimeBackendTest, ParallelForSumsCorrectly) {
  auto rt = make_runtime(8);
  const long n = 100000;
  std::vector<double> data(n, 1.0);
  std::atomic<long> touched{0};
  rt->parallel_for(0, n, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) data[i] *= 2.0;
    touched.fetch_add(hi - lo);
  });
  EXPECT_EQ(touched.load(), n);
  EXPECT_DOUBLE_EQ(std::accumulate(data.begin(), data.end(), 0.0), 2.0 * n);
}

TEST_P(RuntimeBackendTest, ForLoopAllSchedules) {
  auto rt = make_runtime(6);
  for (Schedule kind : {Schedule::kStatic, Schedule::kDynamic,
                        Schedule::kGuided, Schedule::kAuto}) {
    const long n = 10007;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    rt->parallel([&](ParallelContext& ctx) {
      ctx.for_loop(
          0, n,
          [&](long lo, long hi) {
            for (long i = lo; i < hi; ++i) hits[i].fetch_add(1);
          },
          ScheduleSpec{kind, kind == Schedule::kStatic ? 5 : 3});
    });
    for (long i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << to_string(kind) << " iter " << i;
    }
  }
}

TEST_P(RuntimeBackendTest, RuntimeScheduleUsesIcv) {
  auto opts = options_for(GetParam(), 4);
  opts.icvs->run_schedule = ScheduleSpec{Schedule::kDynamic, 2};
  Runtime rt(opts);
  std::atomic<long> covered{0};
  rt.parallel([&](ParallelContext& ctx) {
    ctx.for_loop(
        0, 1000, [&](long lo, long hi) { covered.fetch_add(hi - lo); },
        ScheduleSpec{Schedule::kRuntime, 0});
  });
  EXPECT_EQ(covered.load(), 1000);
}

TEST_P(RuntimeBackendTest, ConsecutiveNowaitLoops) {
  auto rt = make_runtime(4);
  const long n = 1000;
  std::vector<std::atomic<int>> a(n), b(n), c(n);
  for (long i = 0; i < n; ++i) {
    a[i].store(0);
    b[i].store(0);
    c[i].store(0);
  }
  rt->parallel([&](ParallelContext& ctx) {
    ctx.for_loop(0, n, [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) a[i].fetch_add(1);
    }, {}, /*nowait=*/true);
    ctx.for_loop(0, n, [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) b[i].fetch_add(1);
    }, {}, /*nowait=*/true);
    ctx.for_loop(0, n, [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) c[i].fetch_add(1);
    }, {}, /*nowait=*/true);
  });
  for (long i = 0; i < n; ++i) {
    ASSERT_EQ(a[i].load(), 1);
    ASSERT_EQ(b[i].load(), 1);
    ASSERT_EQ(c[i].load(), 1);
  }
}

TEST_P(RuntimeBackendTest, BarrierSeparatesPhases) {
  auto rt = make_runtime(6);
  std::vector<int> phase1(6, 0);
  std::atomic<bool> violation{false};
  rt->parallel([&](ParallelContext& ctx) {
    phase1[ctx.thread_num()] = 1;
    ctx.barrier();
    for (int v : phase1) {
      if (v != 1) violation.store(true);
    }
  });
  EXPECT_FALSE(violation.load());
}

TEST_P(RuntimeBackendTest, SingleExecutesExactlyOnce) {
  auto rt = make_runtime(8);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    std::atomic<int> after{0};
    rt->parallel([&](ParallelContext& ctx) {
      ctx.single([&] { count.fetch_add(1); });
      // The implicit barrier of single() guarantees visibility here.
      if (count.load() != 1) after.fetch_add(1);
    });
    ASSERT_EQ(count.load(), 1);
    ASSERT_EQ(after.load(), 0);
  }
}

TEST_P(RuntimeBackendTest, SequenceOfSinglesDistributes) {
  auto rt = make_runtime(4);
  std::atomic<int> total{0};
  rt->parallel([&](ParallelContext& ctx) {
    for (int i = 0; i < 20; ++i) {
      ctx.single([&] { total.fetch_add(1); });
    }
  });
  EXPECT_EQ(total.load(), 20);
}

TEST_P(RuntimeBackendTest, MasterOnlyThreadZero) {
  auto rt = make_runtime(8);
  std::atomic<int> count{0};
  std::atomic<unsigned> who{999};
  rt->parallel([&](ParallelContext& ctx) {
    ctx.master([&] {
      count.fetch_add(1);
      who.store(ctx.thread_num());
    });
  });
  EXPECT_EQ(count.load(), 1);
  EXPECT_EQ(who.load(), 0u);
}

TEST_P(RuntimeBackendTest, CriticalProvidesMutualExclusion) {
  auto rt = make_runtime(8);
  long counter = 0;  // unsynchronized on purpose: critical must protect it
  rt->parallel([&](ParallelContext& ctx) {
    for (int i = 0; i < 1000; ++i) {
      ctx.critical([&] { ++counter; });
    }
  });
  EXPECT_EQ(counter, 8000);
}

TEST_P(RuntimeBackendTest, NamedCriticalsAreIndependentLocks) {
  auto rt = make_runtime(4);
  long a = 0, b = 0;
  rt->parallel([&](ParallelContext& ctx) {
    for (int i = 0; i < 500; ++i) {
      ctx.critical("lock_a", [&] { ++a; });
      ctx.critical("lock_b", [&] { ++b; });
    }
  });
  EXPECT_EQ(a, 2000);
  EXPECT_EQ(b, 2000);
}

TEST_P(RuntimeBackendTest, ReductionSumDeterministic) {
  auto rt = make_runtime(8);
  double result = 0.0;
  rt->parallel([&](ParallelContext& ctx) {
    double local = 0.0;
    ctx.for_loop(1, 1001, [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) local += static_cast<double>(i);
    }, {}, /*nowait=*/true);
    double total = ctx.reduce_sum(local);
    if (ctx.thread_num() == 0) result = total;
  });
  EXPECT_DOUBLE_EQ(result, 500500.0);
}

TEST_P(RuntimeBackendTest, ReductionMinMax) {
  auto rt = make_runtime(6);
  long max_val = 0, min_val = 0;
  rt->parallel([&](ParallelContext& ctx) {
    long tid = static_cast<long>(ctx.thread_num());
    long mx = ctx.reduce_max(tid * 10 + 1);
    long mn = ctx.reduce_min(tid * 10 + 1);
    if (tid == 0) {
      max_val = mx;
      min_val = mn;
    }
  });
  EXPECT_EQ(max_val, 51);
  EXPECT_EQ(min_val, 1);
}

TEST_P(RuntimeBackendTest, ReductionCustomOpStruct) {
  struct MinMax {
    double lo, hi;
  };
  auto rt = make_runtime(5);
  MinMax out{0, 0};
  rt->parallel([&](ParallelContext& ctx) {
    double v = static_cast<double>(ctx.thread_num());
    MinMax local{v, v};
    MinMax all = ctx.reduce(local, [](MinMax a, MinMax b) {
      return MinMax{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
    });
    if (ctx.thread_num() == 0) out = all;
  });
  EXPECT_DOUBLE_EQ(out.lo, 0.0);
  EXPECT_DOUBLE_EQ(out.hi, 4.0);
}

TEST_P(RuntimeBackendTest, SectionsRunEachBodyOnce) {
  auto rt = make_runtime(4);
  std::atomic<int> s1{0}, s2{0}, s3{0};
  rt->parallel([&](ParallelContext& ctx) {
    // FunctionRef is non-owning: the lambdas must be named lvalues that
    // outlive the sections call.
    auto b1 = [&s1] { s1.fetch_add(1); };
    auto b2 = [&s2] { s2.fetch_add(1); };
    auto b3 = [&s3] { s3.fetch_add(1); };
    ctx.sections({FunctionRef<void()>(b1), FunctionRef<void()>(b2),
                  FunctionRef<void()>(b3)});
  });
  EXPECT_EQ(s1.load(), 1);
  EXPECT_EQ(s2.load(), 1);
  EXPECT_EQ(s3.load(), 1);
}

TEST_P(RuntimeBackendTest, OrderedExecutesInIterationOrder) {
  auto rt = make_runtime(4);
  std::vector<long> order;
  rt->parallel([&](ParallelContext& ctx) {
    ctx.for_loop_ordered(
        0, 100,
        [&](long lo, long hi) {
          for (long i = lo; i < hi; ++i) {
            ctx.ordered(i, [&] { order.push_back(i); });
          }
        },
        ScheduleSpec{Schedule::kDynamic, 1});
  });
  ASSERT_EQ(order.size(), 100u);
  for (long i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST_P(RuntimeBackendTest, NestedParallelSerializesByDefault) {
  auto rt = make_runtime(4);
  std::atomic<int> inner_sizes{0};
  rt->parallel([&](ParallelContext&) {
    rt->parallel([&](ParallelContext& inner) {
      if (inner.num_threads() == 1) inner_sizes.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_sizes.load(), 4);
}

TEST_P(RuntimeBackendTest, NestedParallelWhenEnabled) {
  auto opts = options_for(GetParam(), 3);
  opts.icvs->nested = true;
  opts.icvs->max_active_levels = 2;
  Runtime rt(opts);
  std::atomic<int> total{0};
  rt.parallel([&](ParallelContext&) {
    rt.parallel([&](ParallelContext&) { total.fetch_add(1); }, 2);
  });
  EXPECT_EQ(total.load(), 6);  // 3 outer x 2 inner
}

TEST_P(RuntimeBackendTest, MetersAccumulatePerThread) {
  auto rt = make_runtime(4);
  rt->parallel([&](ParallelContext& ctx) {
    ctx.meter().flops += 100.0 * (ctx.thread_num() + 1);
    ctx.meter().bytes += 10.0;
  });
  const auto& meters = rt->last_region_meters();
  ASSERT_EQ(meters.size(), 4u);
  for (unsigned t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(meters[t].flops, 100.0 * (t + 1));
    EXPECT_DOUBLE_EQ(meters[t].bytes, 10.0);
  }
}

TEST_P(RuntimeBackendTest, MaxActiveLevelsBoundsNestedWidth) {
  for (unsigned max_levels : {1u, 2u}) {
    auto opts = options_for(GetParam(), 2);
    opts.icvs->nested = true;
    opts.icvs->max_active_levels = max_levels;
    Runtime rt(opts);
    std::atomic<int> third_level_runs{0};
    rt.parallel([&](ParallelContext& outer) {
      EXPECT_EQ(outer.num_threads(), 2u);
      rt.parallel(
          [&](ParallelContext& inner) {
            // One active level already encloses the inner region, so it is
            // active only when max-active-levels leaves room for a second.
            EXPECT_EQ(inner.num_threads(), max_levels == 1 ? 1u : 2u);
            EXPECT_EQ(inner.team().active_level(), max_levels);
            rt.parallel(
                [&](ParallelContext& third) {
                  // Every level past max-active-levels serializes.
                  EXPECT_EQ(third.num_threads(), 1u);
                  EXPECT_EQ(third.level(), 3u);
                  third_level_runs.fetch_add(1);
                },
                2);
          },
          2);
    });
    EXPECT_EQ(third_level_runs.load(), max_levels == 1 ? 2 : 4);
  }
}

// OpenMP 5.0 omp_set_nested: true raises max-active-levels to the
// supported maximum, false drops it to 1, in the caller's data environment
// (nothing set OMP_NESTED or OMP_MAX_ACTIVE_LEVELS here).
TEST_P(RuntimeBackendTest, SetNestedAtRunTimeActivatesInnerRegions) {
  Runtime rt(options_for(GetParam(), 2));
  ASSERT_EQ(rt.env_icvs().max_active_levels, 1u);
  omp_set_nested(rt, true);
  EXPECT_EQ(rt.env_icvs().max_active_levels, kMaxSupportedActiveLevels);
  std::atomic<unsigned> max_inner{0};
  rt.parallel([&](ParallelContext&) {
    rt.parallel(
        [&](ParallelContext& inner) {
          unsigned prev = max_inner.load();
          while (prev < inner.num_threads() &&
                 !max_inner.compare_exchange_weak(prev, inner.num_threads())) {
          }
        },
        2);
  });
  EXPECT_EQ(max_inner.load(), 2u);

  omp_set_nested(rt, false);
  EXPECT_EQ(rt.env_icvs().max_active_levels, 1u);
  max_inner = 0;
  rt.parallel([&](ParallelContext&) {
    rt.parallel([&](ParallelContext& inner) { max_inner = inner.num_threads(); },
                2);
  });
  EXPECT_EQ(max_inner.load(), 1u);

  // From inside a region: only the calling thread's environment changes,
  // and its nested teams inherit it.
  std::atomic<unsigned> widths[2] = {0u, 0u};
  rt.parallel([&](ParallelContext& outer) {
    if (outer.thread_num() == 1) omp_set_nested(rt, true);
    rt.parallel(
        [&](ParallelContext& inner) {
          if (inner.thread_num() == 0) {
            widths[outer.thread_num()] = inner.num_threads();
          }
        },
        2);
  });
  EXPECT_EQ(widths[0].load(), 1u);
  EXPECT_EQ(widths[1].load(), 2u);
}

TEST_P(RuntimeBackendTest, TeamRunsTheCentralBarrier) {
  Runtime rt(options_for(GetParam(), 6));
  std::atomic<long> total{0};
  rt.parallel([&](ParallelContext& ctx) {
    EXPECT_EQ(ctx.team().barrier_kind(), BarrierKind::kCentral);
    for (int phase = 0; phase < 10; ++phase) {
      total.fetch_add(1);
      ctx.barrier();
      // Every thread's increment of this phase is visible past the barrier.
      EXPECT_GE(total.load(), 6 * (phase + 1));
      ctx.barrier();
    }
  });
  EXPECT_EQ(total.load(), 60);
}

TEST_P(RuntimeBackendTest, WidthOneTeamTakesFastPath) {
  auto rt = make_runtime(4);
  // A width-1 region never touches the worker pool or its barrier;
  // barriers and loops inside it must still be no-ops.
  int runs = 0;
  rt->parallel(
      [&](ParallelContext& ctx) {
        EXPECT_EQ(ctx.num_threads(), 1u);
        ctx.barrier();  // must not hang
        long sum = 0;
        ctx.for_loop(0, 100, [&](long lo, long hi) { sum += hi - lo; });
        EXPECT_EQ(sum, 100);
        ++runs;
      },
      1);
  EXPECT_EQ(runs, 1);

  // Nested width-1 regions (the common "nested disabled" shape) take the
  // same fast path at every level.
  std::atomic<int> inner_runs{0};
  rt->parallel([&](ParallelContext& outer_ctx) {
    outer_ctx.runtime().parallel(
        [&](ParallelContext& inner) {
          EXPECT_EQ(inner.num_threads(), 1u);
          inner.barrier();
          inner_runs.fetch_add(1);
        },
        1);
  });
  EXPECT_EQ(inner_runs.load(), 4);
}

TEST_P(RuntimeBackendTest, NestedFourByTwoCoversEveryIterationOnce) {
  // Four outer threads each fork a 2-wide team whose loops share out one
  // slice of the iteration space: every iteration runs exactly once.
  auto opts = options_for(GetParam(), 4);
  opts.icvs->nested = true;
  opts.icvs->max_active_levels = 2;
  Runtime rt(opts);
  constexpr long kPerOuter = 1000;
  std::vector<std::atomic<int>> hits(4 * kPerOuter);
  for (auto& h : hits) h.store(0);
  std::atomic<int> inner_total{0};
  rt.parallel([&](ParallelContext& outer) {
    const long base = static_cast<long>(outer.thread_num()) * kPerOuter;
    outer.runtime().parallel(
        [&](ParallelContext& inner) {
          EXPECT_EQ(inner.num_threads(), 2u);
          EXPECT_EQ(inner.level(), 2u);
          inner_total.fetch_add(1);
          inner.for_loop(base, base + kPerOuter / 2, [&](long lo, long hi) {
            for (long i = lo; i < hi; ++i) hits[i].fetch_add(1);
          });
          inner.for_loop(
              base + kPerOuter / 2, base + kPerOuter,
              [&](long lo, long hi) {
                for (long i = lo; i < hi; ++i) hits[i].fetch_add(1);
              },
              ScheduleSpec{Schedule::kDynamic, 7});
        },
        2);
  });
  EXPECT_EQ(inner_total.load(), 4 * 2);
  for (long i = 0; i < 4 * kPerOuter; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "iteration " << i;
  }
}

TEST_P(RuntimeBackendTest, ThreadNumsAreDistinct) {
  auto rt = make_runtime(8);
  std::mutex mu;
  std::set<unsigned> seen;
  rt->parallel([&](ParallelContext& ctx) {
    std::lock_guard lk(mu);
    seen.insert(ctx.thread_num());
  });
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 7u);
}

// --- hot teams: a top-level re-fork of the same width reuses its team ---------

TEST_P(RuntimeBackendTest, HotTeamReusedForSameWidthRebuiltOnWidthChange) {
  auto rt = make_runtime(4);
  auto team_of = [&](unsigned width) {
    const Team* seen = nullptr;
    rt->parallel(
        [&](ParallelContext& ctx) {
          if (ctx.thread_num() == 0) seen = &ctx.team();
        },
        width);
    return seen;
  };
  const Team* first = team_of(4);
  EXPECT_EQ(team_of(4), first);
  // The width-4 team is still alive while the width-3 one is built, so a
  // new team cannot land on the same address.
  EXPECT_NE(team_of(3), first);
}

TEST_P(RuntimeBackendTest, HotTeamSinglesAndMetersStartFresh) {
  auto rt = make_runtime(4);
  const Team* team = nullptr;
  for (int r = 1; r <= 20; ++r) {
    std::atomic<int> winners[3] = {0, 0, 0};
    rt->parallel([&](ParallelContext& ctx) {
      if (ctx.thread_num() == 0) {
        if (team != nullptr) {
          EXPECT_EQ(&ctx.team(), team);
        }
        team = &ctx.team();
      }
      ctx.single([&] { winners[0].fetch_add(1); });
      if (ctx.single_begin()) winners[1].fetch_add(1);
      ctx.single([&] { winners[2].fetch_add(1); }, /*nowait=*/true);
      ctx.meter().flops += 1.0;
    });
    for (auto& w : winners) ASSERT_EQ(w.load(), 1) << "region " << r;
    const auto& meters = rt->last_region_meters();
    ASSERT_EQ(meters.size(), 4u);
    for (const auto& m : meters) ASSERT_DOUBLE_EQ(m.flops, 1.0);
  }
}

TEST_P(RuntimeBackendTest, HotTeamSeesEnvIcvsSetBetweenForks) {
  auto rt = make_runtime(4);
  std::vector<unsigned> max_threads(4, 0);
  std::vector<int> nested(4, -1);
  const Team* teams[2] = {nullptr, nullptr};
  for (int r = 0; r < 2; ++r) {
    rt->parallel(
        [&](ParallelContext& ctx) {
          const unsigned tid = ctx.thread_num();
          max_threads[tid] = ctx.runtime().max_threads();
          nested[tid] = ctx.runtime().env_icvs().nested ? 1 : 0;
          if (tid == 0) teams[r] = &ctx.team();
        },
        4);
    for (unsigned t = 0; t < 4; ++t) {
      EXPECT_EQ(max_threads[t], r == 0 ? 4u : 2u) << "region " << r;
      EXPECT_EQ(nested[t], r == 0 ? 0 : 1) << "region " << r;
    }
    // omp_set_num_threads / omp_set_nested on the master, between forks.
    rt->set_env_num_threads(2);
    rt->set_env_nested(true);
  }
  EXPECT_EQ(teams[0], teams[1]);
}

TEST_P(RuntimeBackendTest, HotTeamTaskFreeRegionAfterDependRegion) {
  auto rt = make_runtime(4);
  for (int r = 0; r < 1000; ++r) {
    if (r % 2 == 0) {
      long x = 0;
      rt->parallel([&](ParallelContext& ctx) {
        ctx.single([&] {
          for (int k = 0; k < 4; ++k) {
            ctx.task_depend([&x] { x = 2 * x + 1; }, {}, {&x});
          }
        });
      });
      ASSERT_EQ(x, 15) << "region " << r;
    } else {
      std::atomic<int> arrived{0};
      rt->parallel([&](ParallelContext& ctx) {
        arrived.fetch_add(1);
        ctx.barrier();
        EXPECT_EQ(arrived.load(), 4);
        ctx.barrier();
      });
      ASSERT_EQ(arrived.load(), 4) << "region " << r;
    }
  }
}

TEST_P(RuntimeBackendTest, TwentyFourThreadRegion) {
  // The board's full width.
  auto rt = make_runtime(24);
  std::atomic<int> count{0};
  rt->parallel([&](ParallelContext& ctx) {
    count.fetch_add(1);
    ctx.barrier();
    EXPECT_EQ(count.load(), 24);
  });
  EXPECT_EQ(count.load(), 24);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, RuntimeBackendTest,
                         ::testing::Values(BackendKind::kNative,
                                           BackendKind::kMca),
                         [](const ::testing::TestParamInfo<BackendKind>& param_info) {
                           return std::string(to_string(param_info.param));
                         });

// --- runtime-level (backend-independent) ---------------------------------------

TEST(Runtime, DefaultThreadCountFromMetadata) {
  // Without OMP_NUM_THREADS, the pool is sized from the platform: 24 on the
  // modelled T4240RDB (§5B.4).
  ::unsetenv("OMP_NUM_THREADS");
  Runtime rt(RuntimeOptions{});
  EXPECT_EQ(rt.max_threads(), 24u);
}

TEST(Runtime, ResolveNumThreadsClamps) {
  auto opts = options_for(BackendKind::kNative, 8);
  opts.icvs->thread_limit = 16;
  Runtime rt(opts);
  EXPECT_EQ(rt.resolve_num_threads(0), 8u);
  EXPECT_EQ(rt.resolve_num_threads(5), 5u);
  EXPECT_EQ(rt.resolve_num_threads(100), 16u);
}

/// Native backend whose worker launches fail on demand: the probe for lease
/// reclamation after launch failure.
class LaunchFailBackend final : public SystemBackend {
 public:
  explicit LaunchFailBackend(std::shared_ptr<std::atomic<bool>> fail)
      : fail_(std::move(fail)), inner_(platform::Topology::t4240rdb()) {}

  std::string_view name() const override { return "launch-fail"; }
  Status launch_thread(unsigned index, std::function<void()> fn) override {
    if (fail_->load()) return Status::kOutOfResources;
    return inner_.launch_thread(index, std::move(fn));
  }
  Status join_thread(unsigned index) override {
    return inner_.join_thread(index);
  }
  void* allocate(std::size_t bytes) override { return inner_.allocate(bytes); }
  void deallocate(void* p) override { inner_.deallocate(p); }
  std::unique_ptr<BackendMutex> create_mutex() override {
    return inner_.create_mutex();
  }
  unsigned num_procs() override { return inner_.num_procs(); }

 private:
  std::shared_ptr<std::atomic<bool>> fail_;
  NativeBackend inner_;
};

TEST(Runtime, NestedLeaseReclaimedImmediatelyOnLaunchFailure) {
  auto fail = std::make_shared<std::atomic<bool>>(false);
  RuntimeOptions opts;
  Icvs icvs;
  icvs.num_threads = 2;
  icvs.nested = true;
  icvs.max_active_levels = 2;
  opts.icvs = icvs;
  opts.backend_factory = [fail] {
    return std::make_unique<LaunchFailBackend>(fail);
  };
  Runtime rt(opts);

  rt.parallel([&](ParallelContext& ctx) {
    if (ctx.thread_num() != 0) return;
    // Lease every remaining pool worker into launches that all fail: the
    // region serializes, and every leased worker must go straight back to
    // the free set — not sit leased until this outer region ends.
    fail->store(true);
    std::atomic<int> first{0};
    rt.parallel([&](ParallelContext&) { first.fetch_add(1); }, 200);
    EXPECT_EQ(first.load(), 1);
    fail->store(false);
    // Still inside the same outer region: a sibling nested team must find
    // the workers free again and get its full width.
    std::atomic<int> second{0};
    rt.parallel([&](ParallelContext&) { second.fetch_add(1); }, 3);
    EXPECT_EQ(second.load(), 3);
  });
}

TEST(Runtime, TwoRuntimesSideBySide) {
  // The benches run native and MCA simultaneously; they must not interfere.
  Runtime native(options_for(BackendKind::kNative, 4));
  Runtime mca(options_for(BackendKind::kMca, 4));
  std::atomic<int> a{0}, b{0};
  native.parallel([&](ParallelContext&) { a.fetch_add(1); });
  mca.parallel([&](ParallelContext&) { b.fetch_add(1); });
  EXPECT_EQ(a.load(), 4);
  EXPECT_EQ(b.load(), 4);
}

}  // namespace
}  // namespace ompmca::gomp
