// Placement policies and the SIMD (AltiVec) issue model.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "platform/cost_model.hpp"
#include "platform/topology.hpp"

namespace ompmca::platform {
namespace {

TEST(Placement, CompactIsIdentityOrder) {
  Topology t = Topology::t4240rdb();
  for (unsigned i = 0; i < t.num_hw_threads(); ++i) {
    EXPECT_EQ(t.placement(i, PlacementPolicy::kCompact), i);
  }
}

TEST(Placement, CompactPairsSmtSiblingsImmediately) {
  Topology t = Topology::t4240rdb();
  TeamShape shape(t, 2, PlacementPolicy::kCompact);
  EXPECT_TRUE(shape.smt_shared(0));
  EXPECT_TRUE(shape.smt_shared(1));
  TeamShape spread(t, 2, PlacementPolicy::kScatter);
  EXPECT_FALSE(spread.smt_shared(0));
  EXPECT_FALSE(spread.smt_shared(1));
}

TEST(Placement, CompactFillsOneClusterFirst) {
  Topology t = Topology::t4240rdb();
  TeamShape shape(t, 8, PlacementPolicy::kCompact);
  EXPECT_EQ(shape.clusters_spanned(), 1u);
  TeamShape spread(t, 8, PlacementPolicy::kScatter);
  EXPECT_EQ(spread.clusters_spanned(), 3u);
}

TEST(Placement, BothPoliciesCoverAllHwThreadsOnce) {
  Topology t = Topology::t4240rdb();
  for (auto policy :
       {PlacementPolicy::kScatter, PlacementPolicy::kCompact}) {
    std::set<unsigned> seen;
    for (unsigned i = 0; i < t.num_hw_threads(); ++i) {
      EXPECT_TRUE(seen.insert(t.placement(i, policy)).second);
    }
  }
}

TEST(Placement, ScatterPinsSecondSmtLaneAfterAllCores) {
  // Lane-major scatter: software threads 0..11 land on lane-0 of the 12
  // cores; 12..23 revisit the same cores in the same order on lane 1.  The
  // second-lane pinning order mirroring the first keeps thread i and thread
  // i+12 SMT siblings — the shape the cost model's SMT derate assumes.
  Topology t = Topology::t4240rdb();
  ASSERT_EQ(t.num_hw_threads(), 24u);
  for (unsigned i = 0; i < 12; ++i) {
    const auto& first = t.hw_thread(t.placement(i, PlacementPolicy::kScatter));
    const auto& second =
        t.hw_thread(t.placement(i + 12, PlacementPolicy::kScatter));
    EXPECT_EQ(first.smt_lane, 0u) << "sw thread " << i;
    EXPECT_EQ(second.smt_lane, 1u) << "sw thread " << i + 12;
    EXPECT_EQ(first.core, second.core) << "sw thread " << i;
  }
}

TEST(Placement, SameClusterAgreesWithClusterIdsAcrossBoundaries) {
  Topology t = Topology::t4240rdb();
  for (unsigned a = 0; a < t.num_hw_threads(); ++a) {
    for (unsigned b = 0; b < t.num_hw_threads(); ++b) {
      EXPECT_EQ(t.same_cluster(a, b),
                t.cluster_of_hw_thread(a) == t.cluster_of_hw_thread(b))
          << "hw " << a << " vs " << b;
    }
  }
  // Spot-check an actual cluster boundary: the last HW thread of cluster 0
  // and the first of cluster 1 must disagree.
  unsigned last_of_0 = 0, first_of_1 = 0;
  bool found_1 = false;
  for (unsigned h = 0; h < t.num_hw_threads(); ++h) {
    if (t.cluster_of_hw_thread(h) == 0) last_of_0 = h;
    if (!found_1 && t.cluster_of_hw_thread(h) == 1) {
      first_of_1 = h;
      found_1 = true;
    }
  }
  ASSERT_TRUE(found_1);
  EXPECT_FALSE(t.same_cluster(last_of_0, first_of_1));
  EXPECT_TRUE(t.same_cluster(last_of_0, last_of_0));
}

TEST(Placement, GenericTopologyTeamSpansOneCluster) {
  // Topology::generic() models a single-cluster SMP; a team shape built on
  // it spans one cluster no matter the width.
  Topology t = Topology::generic(4, 2);
  ASSERT_EQ(t.num_clusters(), 1u);
  TeamShape shape(t, 8, PlacementPolicy::kScatter);
  EXPECT_EQ(shape.clusters_spanned(), 1u);
}

TEST(Placement, CompactSlowerForComputeBoundSmallTeams) {
  Topology t = Topology::t4240rdb();
  CostModel m(t, ServiceCosts::native());
  Work w;
  w.flops = 1e9;
  TeamShape compact(t, 4, PlacementPolicy::kCompact);
  TeamShape spread(t, 4, PlacementPolicy::kScatter);
  EXPECT_GT(m.chunk_seconds(w, compact, 0), m.chunk_seconds(w, spread, 0));
}

// --- SIMD / AltiVec issue model -----------------------------------------------

TEST(SimdModel, VectorFractionSpeedsUpT4240) {
  Topology t = Topology::t4240rdb();
  CostModel m(t, ServiceCosts::native());
  TeamShape shape(t, 1);
  Work scalar;
  scalar.flops = 1e9;
  Work vectorised = scalar;
  vectorised.vector_fraction = 1.0;
  double ts = m.chunk_seconds(scalar, shape, 0);
  double tv = m.chunk_seconds(vectorised, shape, 0);
  // 16 GFLOPS AltiVec vs the 2 flops/cycle scalar pipe: ~4.45x at 1.8 GHz.
  EXPECT_NEAR(ts / tv, t.vector_flops_per_cycle_per_core() /
                           t.flops_per_cycle_per_core(),
              0.01);
}

TEST(SimdModel, NoGainOnP4080) {
  Topology t = Topology::p4080ds();
  CostModel m(t, ServiceCosts::native());
  TeamShape shape(t, 1);
  Work scalar;
  scalar.flops = 1e9;
  Work vectorised = scalar;
  vectorised.vector_fraction = 1.0;
  EXPECT_DOUBLE_EQ(m.chunk_seconds(scalar, shape, 0),
                   m.chunk_seconds(vectorised, shape, 0));
}

TEST(SimdModel, PartialFractionInterpolates) {
  Topology t = Topology::t4240rdb();
  CostModel m(t, ServiceCosts::native());
  TeamShape shape(t, 1);
  Work w;
  w.flops = 1e9;
  Work half = w;
  half.vector_fraction = 0.5;
  Work full = w;
  full.vector_fraction = 1.0;
  double t0 = m.chunk_seconds(w, shape, 0);
  double t50 = m.chunk_seconds(half, shape, 0);
  double t100 = m.chunk_seconds(full, shape, 0);
  EXPECT_LT(t100, t50);
  EXPECT_LT(t50, t0);
  // Amdahl within the loop: time(0.5) = (time(0) + time(1)) / 2.
  EXPECT_NEAR(t50, (t0 + t100) / 2.0, t0 * 1e-9);
}

TEST(SimdModel, FractionClamped) {
  Topology t = Topology::t4240rdb();
  CostModel m(t, ServiceCosts::native());
  TeamShape shape(t, 1);
  Work over;
  over.flops = 1e9;
  over.vector_fraction = 7.0;  // nonsense in, clamped
  Work full = over;
  full.vector_fraction = 1.0;
  EXPECT_DOUBLE_EQ(m.chunk_seconds(over, shape, 0),
                   m.chunk_seconds(full, shape, 0));
}

}  // namespace
}  // namespace ompmca::platform
