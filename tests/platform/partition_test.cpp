#include "platform/partition.hpp"

#include <gtest/gtest.h>

namespace ompmca::platform {
namespace {

class PartitionTest : public ::testing::Test {
 protected:
  Topology topo_ = Topology::t4240rdb();
};

TEST_F(PartitionTest, WholeBoardOwnsEverything) {
  auto cfg = HypervisorConfig::whole_board(&topo_, 6ull << 30);
  ASSERT_EQ(cfg.partitions().size(), 1u);
  EXPECT_EQ(cfg.partitions()[0].hw_threads.size(), 24u);
  for (unsigned hw = 0; hw < 24; ++hw) {
    EXPECT_NE(cfg.owner_of(hw), nullptr);
  }
}

TEST_F(PartitionTest, DisjointPartitionsAccepted) {
  HypervisorConfig cfg(&topo_);
  Partition control{"control", {0, 1, 2, 3}, {0, 1 << 30}, {"duart"}};
  Partition data{"data", {4, 5, 6, 7}, {1ull << 30, 1 << 30}, {"etsec"}};
  EXPECT_EQ(cfg.add_partition(control), Status::kSuccess);
  EXPECT_EQ(cfg.add_partition(data), Status::kSuccess);
  EXPECT_EQ(cfg.owner_of(0)->name, "control");
  EXPECT_EQ(cfg.owner_of(5)->name, "data");
  EXPECT_EQ(cfg.owner_of(9), nullptr);
}

TEST_F(PartitionTest, RejectsOverlappingHwThreads) {
  HypervisorConfig cfg(&topo_);
  EXPECT_EQ(cfg.add_partition({"a", {0, 1}, {}, {}}), Status::kSuccess);
  EXPECT_EQ(cfg.add_partition({"b", {1, 2}, {}, {}}),
            Status::kInvalidArgument);
}

TEST_F(PartitionTest, RejectsDuplicateHwThreadWithinPartition) {
  HypervisorConfig cfg(&topo_);
  EXPECT_EQ(cfg.add_partition({"a", {3, 3}, {}, {}}),
            Status::kInvalidArgument);
}

TEST_F(PartitionTest, RejectsOutOfRangeHwThread) {
  HypervisorConfig cfg(&topo_);
  EXPECT_EQ(cfg.add_partition({"a", {24}, {}, {}}), Status::kInvalidArgument);
}

TEST_F(PartitionTest, RejectsOverlappingMemoryWindows) {
  HypervisorConfig cfg(&topo_);
  EXPECT_EQ(cfg.add_partition({"a", {0}, {0, 4096}, {}}), Status::kSuccess);
  EXPECT_EQ(cfg.add_partition({"b", {1}, {2048, 4096}, {}}),
            Status::kInvalidArgument);
  EXPECT_EQ(cfg.add_partition({"c", {1}, {4096, 4096}, {}}),
            Status::kSuccess);  // adjacent is fine
}

TEST_F(PartitionTest, FindByName) {
  HypervisorConfig cfg(&topo_);
  (void)cfg.add_partition({"rt", {0}, {}, {}});
  auto idx = cfg.find("rt");
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 0u);
  EXPECT_FALSE(cfg.find("nope").has_value());
}

TEST(MemoryWindow, OverlapLogic) {
  MemoryWindow a{0, 100};
  MemoryWindow b{100, 100};
  MemoryWindow c{50, 10};
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_TRUE(a.overlaps(c));
  EXPECT_TRUE(c.overlaps(a));
}

}  // namespace
}  // namespace ompmca::platform
