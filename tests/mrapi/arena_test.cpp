#include "mrapi/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

namespace ompmca::mrapi {
namespace {

TEST(Arena, AllocateAndRelease) {
  SystemShmArena arena(1 << 20);
  auto p = arena.allocate(100);
  ASSERT_TRUE(p.has_value());
  std::memset(*p, 0xFF, 100);
  EXPECT_GE(arena.used(), 100u);
  EXPECT_EQ(arena.release(*p), Status::kSuccess);
  EXPECT_EQ(arena.used(), 0u);
}

TEST(Arena, AllocationsAreCacheLineAligned) {
  SystemShmArena arena(1 << 20);
  for (int i = 0; i < 10; ++i) {
    auto p = arena.allocate(7);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(*p) % 64, 0u);
  }
}

TEST(Arena, ZeroBytesRejected) {
  SystemShmArena arena(4096);
  EXPECT_EQ(arena.allocate(0).status(), Status::kInvalidArgument);
}

TEST(Arena, ExhaustionReported) {
  SystemShmArena arena(4096);
  auto a = arena.allocate(4096);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(arena.allocate(64).status(), Status::kOutOfResources);
  (void)arena.release(*a);
  EXPECT_TRUE(arena.allocate(64).has_value());
}

TEST(Arena, ReleaseUnknownPointerRejected) {
  SystemShmArena arena(4096);
  int x;
  EXPECT_EQ(arena.release(&x), Status::kInvalidArgument);
}

// Regression: release() used to compute `p - base` before any range check,
// which is UB for foreign pointers and could wrap to a huge offset.  Every
// out-of-range pointer — below base, past the end, and wildly far away in
// both directions — must be rejected, and must not corrupt the arena.
TEST(Arena, ReleaseOutOfRangePointerRejected) {
  SystemShmArena arena(4096);
  auto p = arena.allocate(64);
  ASSERT_TRUE(p.has_value());
  auto* base = static_cast<std::byte*>(*p);

  const std::uintptr_t base_addr = reinterpret_cast<std::uintptr_t>(base);
  const std::uintptr_t probes[] = {
      base_addr - 64,             // just below the arena
      base_addr + 4096,           // one past the end
      base_addr + (1u << 20),     // far above
      base_addr - (1u << 20),     // far below
      0x1000,                     // unrelated low address
  };
  for (std::uintptr_t addr : probes) {
    EXPECT_EQ(arena.release(reinterpret_cast<void*>(addr)),
              Status::kInvalidArgument);
  }

  // The arena still works after the bad releases.
  EXPECT_EQ(arena.used(), 64u);
  EXPECT_EQ(arena.release(*p), Status::kSuccess);
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_TRUE(arena.allocate(4096).has_value());
}

// Regression for the O(1) used() counter: exact accounting through an
// interleaved alloc/release sequence (sizes round up to the cache line).
TEST(Arena, UsedCounterTracksAllocations) {
  SystemShmArena arena(1 << 16);
  EXPECT_EQ(arena.used(), 0u);
  auto a = arena.allocate(64);
  auto b = arena.allocate(100);  // rounds to 128
  auto c = arena.allocate(1);    // rounds to 64
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(arena.used(), 64u + 128u + 64u);
  ASSERT_EQ(arena.release(*b), Status::kSuccess);
  EXPECT_EQ(arena.used(), 64u + 64u);
  ASSERT_EQ(arena.release(*a), Status::kSuccess);
  ASSERT_EQ(arena.release(*c), Status::kSuccess);
  EXPECT_EQ(arena.used(), 0u);
}

TEST(Arena, CoalescingAllowsFullReallocation) {
  SystemShmArena arena(64 * 10);
  std::vector<void*> ptrs;
  for (int i = 0; i < 10; ++i) {
    auto p = arena.allocate(64);
    ASSERT_TRUE(p.has_value());
    ptrs.push_back(*p);
  }
  EXPECT_EQ(arena.allocate(64).status(), Status::kOutOfResources);
  // Release in an interleaved order; coalescing must restore one big block.
  for (int i = 0; i < 10; i += 2) ASSERT_EQ(arena.release(ptrs[i]), Status::kSuccess);
  for (int i = 1; i < 10; i += 2) ASSERT_EQ(arena.release(ptrs[i]), Status::kSuccess);
  EXPECT_EQ(arena.free_blocks(), 1u);
  EXPECT_TRUE(arena.allocate(64 * 10).has_value());
}

TEST(Arena, FirstFitReusesGaps) {
  SystemShmArena arena(64 * 8);
  auto a = arena.allocate(64);
  auto b = arena.allocate(64 * 2);
  auto c = arena.allocate(64);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(c.has_value());
  ASSERT_EQ(arena.release(*b), Status::kSuccess);
  auto d = arena.allocate(64);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, *b);  // gap reused
  (void)arena.release(*a);
  (void)arena.release(*c);
  (void)arena.release(*d);
}

TEST(Arena, DistinctAllocationsDoNotOverlap) {
  SystemShmArena arena(1 << 16);
  auto a = arena.allocate(1000);
  auto b = arena.allocate(1000);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  auto pa = static_cast<std::byte*>(*a);
  auto pb = static_cast<std::byte*>(*b);
  EXPECT_TRUE(pa + 1000 <= pb || pb + 1000 <= pa);
}

TEST(Arena, ConcurrentAllocateRelease) {
  SystemShmArena arena(1 << 20);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&arena] {
      for (int i = 0; i < 500; ++i) {
        auto p = arena.allocate(128);
        ASSERT_TRUE(p.has_value());
        std::memset(*p, 0x77, 128);
        ASSERT_EQ(arena.release(*p), Status::kSuccess);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.free_blocks(), 1u);
}

}  // namespace
}  // namespace ompmca::mrapi
