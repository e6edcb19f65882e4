// Cross-layer integration: the MCA runtime's observable MRAPI footprint —
// the paper's §5B wiring, checked end to end through the public MRAPI API.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "gomp/gomp.hpp"
#include "mrapi/database.hpp"

namespace ompmca::gomp {
namespace {

Runtime make_mca_runtime(unsigned threads, bool nested = false) {
  RuntimeOptions opts;
  opts.backend = BackendKind::kMca;
  Icvs icvs;
  icvs.num_threads = threads;
  icvs.nested = nested;
  icvs.max_active_levels = nested ? 2 : 1;
  opts.icvs = icvs;
  return Runtime(opts);
}

std::size_t domain_node_count() {
  auto d = mrapi::Database::instance().find_domain(0);
  return d ? (*d)->node_count() : 0;
}

TEST(McaIntegration, PersistentPoolKeepsWorkerNodesRegistered) {
  std::size_t before = domain_node_count();
  {
    Runtime rt = make_mca_runtime(4);
    // +1: the runtime's master node.
    EXPECT_EQ(domain_node_count(), before + 1);
    rt.parallel([](ParallelContext&) {});
    // Pool workers were launched as MRAPI nodes and stay parked: +3.
    EXPECT_EQ(domain_node_count(), before + 4);
    rt.parallel([](ParallelContext&) {});
    EXPECT_EQ(domain_node_count(), before + 4);  // reused, not re-created
  }
  // Runtime destruction retires every node it registered.
  EXPECT_EQ(domain_node_count(), before);
}

TEST(McaIntegration, NodePerRegionLifecycleRegistersAndRetires) {
  // §5B.1's literal lifecycle — a node created at fork, finalized at join —
  // driven through the backend the way bench/ablation_node_mgmt does.
  std::size_t before = domain_node_count();
  {
    Runtime rt = make_mca_runtime(4);
    SystemBackend& backend = rt.backend();
    std::atomic<bool> release{false};
    for (unsigned i = 0; i < 3; ++i) {
      ASSERT_EQ(backend.launch_thread(i,
                                      [&release] {
                                        while (!release.load()) {
                                          std::this_thread::yield();
                                        }
                                      }),
                Status::kSuccess);
    }
    // During the "region": master + 3 worker nodes.
    EXPECT_EQ(domain_node_count(), before + 4);
    release.store(true);
    for (unsigned i = 0; i < 3; ++i) {
      EXPECT_EQ(backend.join_thread(i), Status::kSuccess);
    }
    // After the join the workers' nodes are finalized.
    EXPECT_EQ(domain_node_count(), before + 1);
  }
  EXPECT_EQ(domain_node_count(), before);
}

TEST(McaIntegration, NestedRegionsReusePoolWorkerNodes) {
  Runtime rt = make_mca_runtime(2, /*nested=*/true);
  const std::size_t nodes_before = domain_node_count();  // master node
  auto nested_region = [&rt] {
    std::atomic<int> ran{0};
    rt.parallel([&](ParallelContext&) {
      rt.parallel([&](ParallelContext&) { ran.fetch_add(1); }, 2);
    });
    EXPECT_EQ(ran.load(), 4);
  };
  for (int r = 0; r < 100; ++r) nested_region();
  // Nested teams lease the same parked workers: no node is created per
  // nested region.  At most one outer worker plus one per nested team is
  // ever leased at once (two nested teams that do not overlap in time take
  // the same lowest free worker), and each launched worker is one node.
  const unsigned launched = rt.pool().workers_launched();
  EXPECT_GE(launched, 1u);
  EXPECT_LE(launched, 3u);
  EXPECT_EQ(domain_node_count(), nodes_before + launched);
}

TEST(McaIntegration, RuntimeAllocationsAreInvisibleAfterTeardown) {
  auto d = mrapi::Database::instance().domain(0);
  ASSERT_TRUE(d.has_value());
  std::size_t arena_before = (*d)->arena().used();
  {
    Runtime rt = make_mca_runtime(4);
    long sink = 0;
    rt.parallel([&](ParallelContext& ctx) {
      ctx.critical([&] { ++sink; });  // forces an MRAPI mutex creation
    });
    EXPECT_EQ(sink, 4);
  }
  // gomp_malloc segments are heap-mode: the system arena is untouched, and
  // teardown released every key the runtime created.
  EXPECT_EQ((*d)->arena().used(), arena_before);
}

TEST(McaIntegration, MasterNodeUsableForApplicationResources) {
  Runtime rt = make_mca_runtime(2);
  auto* mca = dynamic_cast<McaBackend*>(&rt.backend());
  ASSERT_NE(mca, nullptr);
  // Applications can share the runtime's domain for their own MRAPI use.
  auto seg = mca->node().shmem_create_malloc(0x7777, 256);
  ASSERT_TRUE(seg.has_value());
  auto found = mca->node().shmem_get(0x7777);
  ASSERT_TRUE(found.has_value());
  (void)(*found)->detach(mca->node().node_id());
  EXPECT_EQ(mca->node().shmem_delete(0x7777), Status::kSuccess);
}

TEST(McaIntegration, MetadataDrivesDefaultTeamWidth) {
  ::unsetenv("OMP_NUM_THREADS");
  RuntimeOptions opts;
  opts.backend = BackendKind::kMca;
  Runtime rt(opts);
  // §5B.4: the MRAPI resource tree reports 24 HW threads on the modelled
  // board; the pool defaults to that.
  EXPECT_EQ(rt.max_threads(), 24u);
}

}  // namespace
}  // namespace ompmca::gomp
