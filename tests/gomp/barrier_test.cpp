#include "gomp/barrier.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <new>
#include <thread>
#include <vector>

namespace ompmca::gomp {
namespace {

struct BarrierCase {
  BarrierKind kind;
  WaitPolicy policy;
  unsigned nthreads;
};

class BarrierParamTest : public ::testing::TestWithParam<BarrierCase> {};

// The fundamental barrier property: no thread observes phase k+1 work
// before every thread finished phase k.
TEST_P(BarrierParamTest, SeparatesPhases) {
  const BarrierCase c = GetParam();
  // T4240-shaped scatter map: threads round-robin over three clusters.  The
  // flat kinds ignore it; the hierarchical kind derives its two tiers from
  // it (and collapses to a tree when the map spans a single cluster).
  std::vector<unsigned> cluster_of_thread(c.nthreads);
  for (unsigned i = 0; i < c.nthreads; ++i) cluster_of_thread[i] = i % 3;
  auto barrier =
      make_barrier(c.kind, c.nthreads, c.policy, cluster_of_thread.data());
  ASSERT_NE(barrier, nullptr);
  EXPECT_EQ(barrier->size(), c.nthreads);

  constexpr int kPhases = 25;
  std::atomic<int> arrivals{0};
  std::atomic<bool> violation{false};

  auto worker = [&](unsigned tid) {
    for (int phase = 0; phase < kPhases; ++phase) {
      arrivals.fetch_add(1, std::memory_order_acq_rel);
      barrier->arrive_and_wait(tid);
      // After the barrier every thread of this phase must have arrived.
      if (arrivals.load(std::memory_order_acquire) <
          (phase + 1) * static_cast<int>(c.nthreads)) {
        violation.store(true);
      }
      barrier->arrive_and_wait(tid);  // separate the read from next phase
    }
  };

  std::vector<std::thread> threads;
  for (unsigned t = 1; t < c.nthreads; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (auto& t : threads) t.join();

  EXPECT_FALSE(violation.load());
  EXPECT_EQ(arrivals.load(), kPhases * static_cast<int>(c.nthreads));
}

// One thread arrives long after its peers' spin window ran out, so they
// are parked: its arrival must wake every one of them, in every phase.
TEST_P(BarrierParamTest, LateArriverReleasesParkedWaiters) {
  const BarrierCase c = GetParam();
  std::vector<unsigned> cluster_of_thread(c.nthreads);
  for (unsigned i = 0; i < c.nthreads; ++i) cluster_of_thread[i] = i % 3;
  auto barrier =
      make_barrier(c.kind, c.nthreads, c.policy, cluster_of_thread.data());
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
      barrier->arrive_and_wait(tid);
      if (arrivals.load(std::memory_order_acquire) <
          (phase + 1) * static_cast<int>(c.nthreads)) {
        violation.store(true);
      }
      barrier->arrive_and_wait(tid);
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

std::vector<BarrierCase> all_cases() {
  std::vector<BarrierCase> cases;
  for (BarrierKind kind :
       {BarrierKind::kCentral, BarrierKind::kTree, BarrierKind::kHierarchical}) {
    for (WaitPolicy policy :
         {WaitPolicy::kPassive, WaitPolicy::kActive, WaitPolicy::kDefault}) {
      for (unsigned n : {1u, 2u, 3u, 4u, 7u, 8u, 13u, 24u}) {
        cases.push_back({kind, policy, n});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, BarrierParamTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<BarrierCase>& param_info) {
      const auto& c = param_info.param;
      return std::string(to_string(c.kind)) + "_" + policy_name(c.policy) +
             "_" + std::to_string(c.nthreads);
    });

TEST(Barrier, SingleThreadIsNoOp) {
  for (BarrierKind kind :
       {BarrierKind::kCentral, BarrierKind::kTree, BarrierKind::kHierarchical}) {
    auto b = make_barrier(kind, 1, WaitPolicy::kPassive);
    for (int i = 0; i < 100; ++i) b->arrive_and_wait(0);  // must not hang
  }
}

TEST(Barrier, KindNames) {
  EXPECT_EQ(to_string(BarrierKind::kCentral), "central");
  EXPECT_EQ(to_string(BarrierKind::kTree), "tree");
  EXPECT_EQ(to_string(BarrierKind::kHierarchical), "hierarchical");
  EXPECT_EQ(to_string(BarrierKind::kAuto), "auto");
}

TEST(Barrier, ParseKindRoundTrips) {
  BarrierKind k;
  ASSERT_TRUE(parse_barrier_kind("central", &k));
  EXPECT_EQ(k, BarrierKind::kCentral);
  ASSERT_TRUE(parse_barrier_kind("tree", &k));
  EXPECT_EQ(k, BarrierKind::kTree);
  ASSERT_TRUE(parse_barrier_kind("hier", &k));
  EXPECT_EQ(k, BarrierKind::kHierarchical);
  ASSERT_TRUE(parse_barrier_kind("hierarchical", &k));
  EXPECT_EQ(k, BarrierKind::kHierarchical);
  ASSERT_TRUE(parse_barrier_kind("auto", &k));
  EXPECT_EQ(k, BarrierKind::kAuto);
  EXPECT_FALSE(parse_barrier_kind("dissemination", &k));
  EXPECT_FALSE(parse_barrier_kind("bogus", &k));
  EXPECT_FALSE(parse_barrier_kind("", &k));
}

TEST(TreeBarrier, ArityMatchesClusterWidth) {
  EXPECT_EQ(TreeBarrier::kArity, 4u);
}

// kAuto is a request-only value: it resolves to hierarchical exactly when
// the team spans more than one cluster, and never survives resolution.
TEST(Barrier, AutoResolvesByClusterSpan) {
  EXPECT_EQ(effective_barrier_kind(BarrierKind::kAuto, WaitPolicy::kPassive, 3),
            BarrierKind::kHierarchical);
  EXPECT_EQ(effective_barrier_kind(BarrierKind::kAuto, WaitPolicy::kActive, 2),
            BarrierKind::kHierarchical);
  EXPECT_EQ(effective_barrier_kind(BarrierKind::kAuto, WaitPolicy::kPassive, 1),
            BarrierKind::kCentral);
  // The 2-arg convenience overload assumes a single cluster.
  EXPECT_EQ(effective_barrier_kind(BarrierKind::kAuto, WaitPolicy::kActive),
            BarrierKind::kCentral);
}

// A hierarchical request on a single-cluster team (e.g. Topology::generic()
// places everything in cluster 0) must collapse to the flat tree: two tiers
// with a top width of one would be pure overhead.
TEST(Barrier, HierarchicalCollapsesToTreeOnSingleCluster) {
  EXPECT_EQ(effective_barrier_kind(BarrierKind::kHierarchical,
                                   WaitPolicy::kPassive, 1),
            BarrierKind::kTree);
  EXPECT_EQ(effective_barrier_kind(BarrierKind::kHierarchical,
                                   WaitPolicy::kActive, 2),
            BarrierKind::kHierarchical);

  const std::vector<unsigned> one_cluster(8, 5u);  // all on hw cluster 5
  auto collapsed = make_barrier(BarrierKind::kHierarchical, 8,
                                WaitPolicy::kPassive, one_cluster.data());
  EXPECT_NE(dynamic_cast<TreeBarrier*>(collapsed.get()), nullptr);

  // nullptr map means "single cluster" by contract.
  auto no_map =
      make_barrier(BarrierKind::kHierarchical, 8, WaitPolicy::kPassive);
  EXPECT_NE(dynamic_cast<TreeBarrier*>(no_map.get()), nullptr);

  const std::vector<unsigned> two_clusters{0, 1, 0, 1};
  auto real = make_barrier(BarrierKind::kHierarchical, 4, WaitPolicy::kPassive,
                           two_clusters.data());
  EXPECT_NE(dynamic_cast<HierarchicalBarrier*>(real.get()), nullptr);
}

TEST(HierarchicalBarrier, GroupCountMatchesOccupiedClusters) {
  // 24-thread T4240 scatter placement: 3 clusters, 8 threads each.
  std::vector<unsigned> map(24);
  for (unsigned i = 0; i < 24; ++i) map[i] = i % 3;
  HierarchicalBarrier b(24, WaitPolicy::kPassive, map.data());
  EXPECT_EQ(b.size(), 24u);
  EXPECT_EQ(b.num_cluster_groups(), 3u);

  // Uneven occupancy: clusters {7, 2} — top tier width 2, not max-id+1.
  const std::vector<unsigned> sparse{7, 2, 7, 7};
  HierarchicalBarrier s(4, WaitPolicy::kActive, sparse.data());
  EXPECT_EQ(s.num_cluster_groups(), 2u);
}

// A counting ClusterMemory: hands out heap blocks but records which cluster
// each acquire/release was attributed to.
class RecordingClusterMemory final : public ClusterMemory {
 public:
  void* acquire(unsigned cluster, std::size_t bytes) override {
    acquires.push_back(cluster);
    return ::operator new(bytes, std::align_val_t{kCacheLineBytes});
  }
  void release(unsigned cluster, void* p) override {
    releases.push_back(cluster);
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }
  std::vector<unsigned> acquires;
  std::vector<unsigned> releases;
};

TEST(HierarchicalBarrier, HomesTierStatePerCluster) {
  RecordingClusterMemory mem;
  const std::vector<unsigned> map{0, 1, 2, 0, 1, 2};
  {
    HierarchicalBarrier b(6, WaitPolicy::kPassive, map.data(), &mem);
    // One tier allocation per occupied cluster, attributed to that cluster.
    ASSERT_EQ(mem.acquires.size(), 3u);
    EXPECT_EQ(mem.acquires, (std::vector<unsigned>{0, 1, 2}));
    EXPECT_TRUE(mem.releases.empty());

    // The barrier still works with externally homed state.
    std::vector<std::thread> threads;
    std::atomic<int> after{0};
    for (unsigned t = 1; t < 6; ++t) {
      threads.emplace_back([&, t] {
        b.arrive_and_wait(t);
        after.fetch_add(1);
      });
    }
    b.arrive_and_wait(0);
    after.fetch_add(1);
    for (auto& th : threads) th.join();
    EXPECT_EQ(after.load(), 6);
  }
  // Destruction releases every acquired block back to its cluster.
  EXPECT_EQ(mem.releases, mem.acquires);
}

}  // namespace
}  // namespace ompmca::gomp
