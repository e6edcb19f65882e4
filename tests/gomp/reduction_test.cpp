// reduce(): the last barrier arriver combines the team's partial values,
// and every thread reads the one result slot after the release.  These
// tests run reductions back to back (the result slot is rewritten by the
// next reduction's last arriver while slower threads may still be leaving
// the previous one), at every width 1-9 under each wait policy, plus the
// largest aggregate, a nested team and the barrier count.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <string>
#include <vector>

#include "gomp/runtime.hpp"
#include "obs/telemetry.hpp"

namespace ompmca::gomp {
namespace {

RuntimeOptions options(unsigned width, WaitPolicy policy) {
  RuntimeOptions opts;
  Icvs icvs;
  icvs.num_threads = width;
  icvs.wait_policy = policy;
  opts.icvs = icvs;
  return opts;
}

struct ReductionCase {
  WaitPolicy policy;
  unsigned width;
};

std::vector<ReductionCase> all_cases() {
  std::vector<ReductionCase> cases;
  for (WaitPolicy p :
       {WaitPolicy::kPassive, WaitPolicy::kActive, WaitPolicy::kDefault}) {
    for (unsigned w = 1; w <= 9; ++w) cases.push_back({p, w});
  }
  return cases;
}

const char* policy_name(WaitPolicy p) {
  switch (p) {
    case WaitPolicy::kPassive: return "passive";
    case WaitPolicy::kActive: return "active";
    case WaitPolicy::kDefault: return "default";
  }
  return "?";
}

class ReductionParamTest : public ::testing::TestWithParam<ReductionCase> {};

// No barrier between consecutive reductions: a thread that left reduction
// k late must still read k's result, not k+1's, and the fold must never
// mix two reductions' slots.
TEST_P(ReductionParamTest, BackToBackReductionsNeedNoBarrierBetween) {
  const ReductionCase c = GetParam();
  Runtime rt(options(c.width, c.policy));
  constexpr long kRounds = 40;
  const long w = static_cast<long>(c.width);
  std::atomic<long> wrong{0};
  std::atomic<unsigned> ran{0};
  rt.parallel([&](ParallelContext& ctx) {
    ran.fetch_add(1);
    const long tid = static_cast<long>(ctx.thread_num());
    for (long r = 0; r < kRounds; ++r) {
      const long sum = ctx.reduce_sum(tid + 1 + r * 1000);
      if (sum != w * (w + 1) / 2 + r * 1000 * w) wrong.fetch_add(1);
      const long mx = ctx.reduce_max(tid * 7 - r);
      if (mx != (w - 1) * 7 - r) wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(ran.load(), c.width);
  EXPECT_EQ(wrong.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ReductionParamTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<ReductionCase>& param_info) {
      return std::string(policy_name(param_info.param.policy)) + "_" +
             std::to_string(param_info.param.width);
    });

// The largest value a reduction slot carries (Team::kMaxReduceBytes).
TEST(Reduction, AggregateFillsTheSlot) {
  struct Bins {
    std::array<long, 16> v;
  };
  static_assert(sizeof(Bins) == 128);
  Runtime rt(options(5, WaitPolicy::kDefault));
  std::atomic<long> wrong{0};
  rt.parallel([&](ParallelContext& ctx) {
    for (int r = 0; r < 10; ++r) {
      Bins local{};
      for (long i = 0; i < 16; ++i) {
        local.v[i] = (static_cast<long>(ctx.thread_num()) + 1) * (i + r);
      }
      const Bins all = ctx.reduce(local, [](Bins a, const Bins& b) {
        for (long i = 0; i < 16; ++i) a.v[i] += b.v[i];
        return a;
      });
      for (long i = 0; i < 16; ++i) {
        if (all.v[i] != 15 * (i + r)) wrong.fetch_add(1);  // 1+..+5 = 15
      }
    }
  });
  EXPECT_EQ(wrong.load(), 0);
}

// A nested team reduces over its own slots and barrier, independently of
// the enclosing team's.
TEST(Reduction, NestedTeamReducesOverItsOwnThreads) {
  RuntimeOptions opts = options(3, WaitPolicy::kDefault);
  opts.icvs->nested = true;
  opts.icvs->max_active_levels = 2;
  Runtime rt(opts);
  std::atomic<long> wrong{0};
  std::atomic<long> outer_total{0};
  rt.parallel([&](ParallelContext& outer) {
    const long o = static_cast<long>(outer.thread_num());
    long inner_sum = 0;
    rt.parallel(
        [&](ParallelContext& inner) {
          const long s =
              inner.reduce_sum(static_cast<long>(inner.thread_num()) + 10 * o);
          if (s != 6 + 40 * o) wrong.fetch_add(1);  // (0+1+2+3) + 4 x 10o
          if (inner.thread_num() == 0) inner_sum = s;
        },
        4);
    const long total = outer.reduce_sum(inner_sum);
    if (outer.thread_num() == 0) outer_total = total;
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(outer_total.load(), 3 * 6 + 40 * (0 + 1 + 2));
}

// One reduction is one barrier: each thread's reduce_sum adds exactly one
// gomp.barrier arrival over an empty region's count.
TEST(Reduction, ReduceSumIsOneBarrier) {
  Runtime rt(options(4, WaitPolicy::kDefault));
  auto barriers = [&](auto&& body) {
    obs::ScopedEnable scope;
    rt.parallel(body);
    return obs::Registry::instance().snapshot().counter(
        obs::Counter::kGompBarrier);
  };
  const auto empty = barriers([](ParallelContext&) {});
  const auto one_reduce = barriers([](ParallelContext& ctx) {
    (void)ctx.reduce_sum(1L);  // the count, not the value, is under test
  });
  EXPECT_EQ(one_reduce - empty, 4u);
}

}  // namespace
}  // namespace ompmca::gomp
