#include "mrapi/shmem.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "mrapi/node.hpp"

namespace ompmca::mrapi {
namespace {

class ShmemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::instance().reset();
    auto n = Node::initialize(0, 1);
    ASSERT_TRUE(n.has_value());
    node_ = *n;
    auto m = Node::initialize(0, 2);
    ASSERT_TRUE(m.has_value());
    other_ = *m;
  }
  void TearDown() override {
    (void)node_.finalize();
    (void)other_.finalize();
  }
  Node node_;
  Node other_;
};

TEST_F(ShmemTest, CreateAttachWriteReadAcrossNodes) {
  auto seg = node_.shmem_create(10, 4096);
  ASSERT_TRUE(seg.has_value());
  auto a = (*seg)->attach(node_.node_id());
  ASSERT_TRUE(a.has_value());

  // The second node looks the segment up by key — the MRAPI sharing model.
  auto found = other_.shmem_get(10);
  ASSERT_TRUE(found.has_value());
  auto b = (*found)->attach(other_.node_id());
  ASSERT_TRUE(b.has_value());

  EXPECT_EQ(*a, *b);  // same board memory
  std::memcpy(*a, "hello", 6);
  EXPECT_STREQ(static_cast<char*>(*b), "hello");
}

TEST_F(ShmemTest, DuplicateKeyRejected) {
  ASSERT_TRUE(node_.shmem_create(10, 64).has_value());
  EXPECT_EQ(node_.shmem_create(10, 64).status(), Status::kShmemExists);
}

TEST_F(ShmemTest, GetUnknownKey) {
  EXPECT_EQ(node_.shmem_get(123).status(), Status::kShmemIdInvalid);
}

TEST_F(ShmemTest, ZeroSizeRejected) {
  EXPECT_EQ(node_.shmem_create(10, 0).status(), Status::kInvalidArgument);
}

TEST_F(ShmemTest, DetachWithoutAttach) {
  auto seg = node_.shmem_create(10, 64);
  ASSERT_TRUE(seg.has_value());
  EXPECT_EQ((*seg)->detach(node_.node_id()), Status::kShmemNotAttached);
}

TEST_F(ShmemTest, AttachCountsPerNode) {
  auto seg = node_.shmem_create(10, 64);
  ASSERT_TRUE(seg.has_value());
  ASSERT_TRUE((*seg)->attach(node_.node_id()).has_value());
  ASSERT_TRUE((*seg)->attach(node_.node_id()).has_value());
  EXPECT_EQ((*seg)->attach_count(), 2u);
  EXPECT_EQ((*seg)->detach(node_.node_id()), Status::kSuccess);
  EXPECT_TRUE((*seg)->attached(node_.node_id()));
  EXPECT_EQ((*seg)->detach(node_.node_id()), Status::kSuccess);
  EXPECT_FALSE((*seg)->attached(node_.node_id()));
}

TEST_F(ShmemTest, DeleteDeferredUntilLastDetach) {
  auto seg = node_.shmem_create(10, 64);
  ASSERT_TRUE(seg.has_value());
  auto addr = (*seg)->attach(node_.node_id());
  ASSERT_TRUE(addr.has_value());

  ASSERT_EQ(node_.shmem_delete(10), Status::kSuccess);
  EXPECT_TRUE((*seg)->delete_pending());
  // The segment is still usable by the attached node.
  std::memset(*addr, 0xAB, 64);
  // New attaches are refused.
  EXPECT_EQ((*seg)->attach(other_.node_id()).status(),
            Status::kShmemIdInvalid);
  // Key is free for reuse immediately.
  EXPECT_TRUE(node_.shmem_create(10, 64).has_value());
  // Storage reclaimed on last detach.
  EXPECT_EQ((*seg)->detach(node_.node_id()), Status::kSuccess);
  EXPECT_FALSE((*seg)->valid());
}

TEST_F(ShmemTest, DeleteUnknownKey) {
  EXPECT_EQ(node_.shmem_delete(77), Status::kShmemIdInvalid);
}

// --- the paper's use_malloc (heap mode) extension ---------------------------

TEST_F(ShmemTest, HeapModeViaUseMalloc) {
  ShmemAttributes attrs;
  attrs.use_malloc = true;
  auto seg = node_.shmem_create(11, 256, attrs);
  ASSERT_TRUE(seg.has_value());
  EXPECT_EQ((*seg)->attributes().mode, ShmemMode::kHeap);
  auto addr = (*seg)->attach(node_.node_id());
  ASSERT_TRUE(addr.has_value());
  std::memset(*addr, 0, 256);
}

TEST_F(ShmemTest, HeapModeDoesNotConsumeArena) {
  auto before = [&] {
    auto d = Database::instance().find_domain(0);
    return (*d)->arena().used();
  };
  std::size_t used0 = before();
  ShmemAttributes attrs;
  attrs.use_malloc = true;
  auto seg = node_.shmem_create(12, 1 << 20, attrs);
  ASSERT_TRUE(seg.has_value());
  EXPECT_EQ(before(), used0);  // heap segments bypass the system arena
}

TEST_F(ShmemTest, SystemModeConsumesArena) {
  auto d = Database::instance().find_domain(0);
  std::size_t used0 = (*d)->arena().used();
  auto seg = node_.shmem_create(13, 1 << 20);
  ASSERT_TRUE(seg.has_value());
  EXPECT_GE((*d)->arena().used(), used0 + (1u << 20));
  ASSERT_EQ(node_.shmem_delete(13), Status::kSuccess);
  EXPECT_EQ((*d)->arena().used(), used0);
}

TEST_F(ShmemTest, SystemModeExhaustionFallsBackToHeap) {
  // The default arena is 64 MiB; ask for more.  By default the create
  // degrades to the paper's heap mode instead of failing.
  auto seg = node_.shmem_create(14, 128u << 20);
  ASSERT_TRUE(seg.has_value());
  EXPECT_EQ((*seg)->attributes().mode, ShmemMode::kHeap);
  auto addr = (*seg)->attach(node_.node_id());
  ASSERT_TRUE(addr.has_value());
  ASSERT_EQ((*seg)->detach(node_.node_id()), Status::kSuccess);
  ASSERT_EQ(node_.shmem_delete(14), Status::kSuccess);
}

TEST_F(ShmemTest, SystemModeExhaustionFailsWhenFallbackDisabled) {
  ShmemAttributes attrs;
  attrs.allow_heap_fallback = false;
  auto seg = node_.shmem_create(14, 128u << 20, attrs);
  EXPECT_EQ(seg.status(), Status::kOutOfResources);
}

// A system segment may take any contiguous part of the arena: one larger
// than a third of the 64 MiB default is carved from it, not refused or
// silently re-homed on the heap.
TEST_F(ShmemTest, LargeSystemSegmentFitsTheEmptyArena) {
  auto d = Database::instance().find_domain(0);
  ASSERT_TRUE(d.has_value());
  const std::size_t used0 = (*d)->arena().used();
  constexpr std::size_t kBytes = 30u << 20;
  ShmemAttributes attrs;
  attrs.allow_heap_fallback = false;
  auto seg = node_.shmem_create(16, kBytes, attrs);
  ASSERT_TRUE(seg.has_value()) << to_string(seg.status());
  EXPECT_EQ((*seg)->attributes().mode, ShmemMode::kSystem);
  EXPECT_EQ((*d)->arena().used(), used0 + kBytes);
  ASSERT_EQ(node_.shmem_delete(16), Status::kSuccess);
  EXPECT_EQ((*d)->arena().used(), used0);
}

TEST_F(ShmemTest, CreateMallocConvenience) {
  auto addr = node_.shmem_create_malloc(15, 512);
  ASSERT_TRUE(addr.has_value());
  std::memset(*addr, 0x5A, 512);
  auto seg = node_.shmem_get(15);
  ASSERT_TRUE(seg.has_value());
  EXPECT_TRUE((*seg)->attached(node_.node_id()));
  EXPECT_EQ((*seg)->attributes().mode, ShmemMode::kHeap);
}

TEST_F(ShmemTest, ShmemLimitEnforced) {
  ShmemAttributes attrs;
  attrs.use_malloc = true;
  for (ResourceKey k = 1000; k < 1000 + Limits::kMaxShmems; ++k) {
    ASSERT_TRUE(node_.shmem_create(k, 64, attrs).has_value()) << k;
  }
  EXPECT_EQ(node_.shmem_create(9999, 64, attrs).status(),
            Status::kOutOfResources);
}

}  // namespace
}  // namespace ompmca::mrapi
