#include "gomp/barrier.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace ompmca::gomp {

/// Reads CentralBarrier's private layout (befriended by the class).
struct CentralBarrierLayout {
  static std::uintptr_t counter(const CentralBarrier& b) {
    return reinterpret_cast<std::uintptr_t>(&b.count_);
  }
  static std::uintptr_t sense(const CentralBarrier& b) {
    return reinterpret_cast<std::uintptr_t>(&b.sense_);
  }
  static std::uintptr_t parker(const CentralBarrier& b) {
    return reinterpret_cast<std::uintptr_t>(&b.parker_);
  }
};

namespace {

struct BarrierCase {
  WaitPolicy policy;
  unsigned nthreads;
};

class BarrierParamTest : public ::testing::TestWithParam<BarrierCase> {};

// The fundamental barrier property: no thread observes phase k+1 work
// before every thread finished phase k.
TEST_P(BarrierParamTest, SeparatesPhases) {
  const BarrierCase c = GetParam();
  CentralBarrier barrier(c.nthreads, c.policy);
  EXPECT_EQ(barrier.size(), c.nthreads);

  constexpr int kPhases = 25;
  std::atomic<int> arrivals{0};
  std::atomic<bool> violation{false};

  auto worker = [&] {
    for (int phase = 0; phase < kPhases; ++phase) {
      arrivals.fetch_add(1, std::memory_order_acq_rel);
      barrier.arrive_and_wait();
      // After the barrier every thread of this phase must have arrived.
      if (arrivals.load(std::memory_order_acquire) <
          (phase + 1) * static_cast<int>(c.nthreads)) {
        violation.store(true);
      }
      barrier.arrive_and_wait();  // separate the read from next phase
    }
  };

  std::vector<std::thread> threads;
  for (unsigned t = 1; t < c.nthreads; ++t) threads.emplace_back(worker);
  worker();
  for (auto& t : threads) t.join();

  EXPECT_FALSE(violation.load());
  EXPECT_EQ(arrivals.load(), kPhases * static_cast<int>(c.nthreads));
}

// One thread arrives long after its peers' spin window ran out, so they
// are parked: its arrival must wake every one of them, in every phase.
TEST_P(BarrierParamTest, LateArriverReleasesParkedWaiters) {
  const BarrierCase c = GetParam();
  CentralBarrier barrier(c.nthreads, c.policy);
  const auto late = std::chrono::microseconds(
      spin_window_ns(c.policy, c.nthreads) / 1000 + 2000);

  constexpr int kPhases = 2;
  std::atomic<int> arrivals{0};
  std::atomic<bool> violation{false};
  auto worker = [&](unsigned tid) {
    for (int phase = 0; phase < kPhases; ++phase) {
      // A different thread is the late one each phase (the releaser role
      // and the parked set both move).
      if (tid == static_cast<unsigned>(phase) % c.nthreads) {
        std::this_thread::sleep_for(late);
      }
      arrivals.fetch_add(1, std::memory_order_acq_rel);
      barrier.arrive_and_wait();
      if (arrivals.load(std::memory_order_acquire) <
          (phase + 1) * static_cast<int>(c.nthreads)) {
        violation.store(true);
      }
      barrier.arrive_and_wait();
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 1; t < c.nthreads; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violation.load());
}

const char* policy_name(WaitPolicy p) {
  switch (p) {
    case WaitPolicy::kPassive: return "passive";
    case WaitPolicy::kActive: return "active";
    case WaitPolicy::kDefault: return "default";
  }
  return "?";
}

// Widths 1-9 under each wait-policy state: on a host with fewer than nine
// online CPUs the wider teams get no spin window, so their waiters park.
std::vector<BarrierCase> all_cases() {
  std::vector<BarrierCase> cases;
  for (WaitPolicy policy :
       {WaitPolicy::kPassive, WaitPolicy::kActive, WaitPolicy::kDefault}) {
    for (unsigned n = 1; n <= 9; ++n) cases.push_back({policy, n});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Central, BarrierParamTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<BarrierCase>& param_info) {
      const auto& c = param_info.param;
      return std::string(policy_name(c.policy)) + "_" +
             std::to_string(c.nthreads);
    });

TEST(Barrier, SingleThreadIsNoOp) {
  CentralBarrier b(1, WaitPolicy::kPassive);
  for (int i = 0; i < 100; ++i) b.arrive_and_wait();  // must not hang
}

TEST(Barrier, KindNames) {
  EXPECT_EQ(to_string(BarrierKind::kCentral), "central");
  EXPECT_EQ(to_string(BarrierKind::kAuto), "auto");
}

// Arrivals bounce the counter's line while waiters poll the sense word:
// sharing one line would make every arrival invalidate every spinner.
TEST(Barrier, CounterSenseAndParkerOnSeparateCacheLines) {
  CentralBarrier b(4, WaitPolicy::kDefault);
  const std::uintptr_t counter = CentralBarrierLayout::counter(b);
  const std::uintptr_t sense = CentralBarrierLayout::sense(b);
  const std::uintptr_t parker = CentralBarrierLayout::parker(b);
  EXPECT_GE(sense - counter, kCacheLineBytes);
  EXPECT_GE(parker - sense, kCacheLineBytes);
  EXPECT_EQ(counter % kCacheLineBytes, 0u);
  EXPECT_EQ(sense % kCacheLineBytes, 0u);
}

}  // namespace
}  // namespace ompmca::gomp
