#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "gomp/backend_mca.hpp"
#include "gomp/backend_native.hpp"
#include "gomp/runtime.hpp"
#include "mrapi/database.hpp"

namespace ompmca::gomp {
namespace {

std::unique_ptr<SystemBackend> make(BackendKind kind) {
  if (kind == BackendKind::kNative) {
    return std::make_unique<NativeBackend>(platform::Topology::t4240rdb());
  }
  mrapi::Database::instance().configure_platform(
      platform::Topology::t4240rdb());
  return std::make_unique<McaBackend>(0);
}

class BackendTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(BackendTest, Name) {
  auto b = make(GetParam());
  EXPECT_EQ(b->name(), GetParam() == BackendKind::kNative ? "native" : "mca");
}

TEST_P(BackendTest, LaunchAndJoinThreads) {
  auto b = make(GetParam());
  std::atomic<int> sum{0};
  for (unsigned i = 0; i < 8; ++i) {
    ASSERT_EQ(b->launch_thread(i, [&sum, i] { sum.fetch_add(i + 1); }),
              Status::kSuccess);
  }
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_EQ(b->join_thread(i), Status::kSuccess);
  }
  EXPECT_EQ(sum.load(), 36);
}

TEST_P(BackendTest, DuplicateIndexRejected) {
  auto b = make(GetParam());
  std::atomic<bool> release{false};
  ASSERT_EQ(b->launch_thread(0, [&release] {
    while (!release.load()) std::this_thread::yield();
  }), Status::kSuccess);
  EXPECT_EQ(b->launch_thread(0, [] {}), Status::kNodeExists);
  release.store(true);
  EXPECT_EQ(b->join_thread(0), Status::kSuccess);
}

TEST_P(BackendTest, JoinUnknownIndex) {
  auto b = make(GetParam());
  EXPECT_EQ(b->join_thread(42), Status::kNodeInvalid);
}

TEST_P(BackendTest, IndexReusableAfterJoin) {
  auto b = make(GetParam());
  for (int round = 0; round < 3; ++round) {
    ASSERT_EQ(b->launch_thread(0, [] {}), Status::kSuccess);
    ASSERT_EQ(b->join_thread(0), Status::kSuccess);
  }
}

TEST_P(BackendTest, AllocateAndUseMemory) {
  auto b = make(GetParam());
  void* p = b->allocate(4096);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xAB, 4096);
  b->deallocate(p);
}

TEST_P(BackendTest, ManyAllocations) {
  auto b = make(GetParam());
  std::vector<void*> ptrs;
  for (int i = 0; i < 100; ++i) {
    void* p = b->allocate(64 + i);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  for (void* p : ptrs) b->deallocate(p);
}

TEST_P(BackendTest, MutexProtectsCounter) {
  auto b = make(GetParam());
  auto mu = b->create_mutex();
  ASSERT_NE(mu, nullptr);
  long counter = 0;
  for (unsigned t = 0; t < 4; ++t) {
    ASSERT_EQ(b->launch_thread(t, [&] {
      for (int i = 0; i < 1000; ++i) {
        BackendLockGuard guard(*mu);
        ++counter;
      }
    }), Status::kSuccess);
  }
  for (unsigned t = 0; t < 4; ++t) (void)b->join_thread(t);
  EXPECT_EQ(counter, 4000);
}

TEST_P(BackendTest, MutexTryLock) {
  auto b = make(GetParam());
  auto mu = b->create_mutex();
  ASSERT_TRUE(mu->try_lock());
  std::thread t([&] { EXPECT_FALSE(mu->try_lock()); });
  t.join();
  mu->unlock();
  ASSERT_TRUE(mu->try_lock());
  mu->unlock();
}

TEST_P(BackendTest, NumProcsReportsBoard) {
  auto b = make(GetParam());
  EXPECT_EQ(b->num_procs(), 24u);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, BackendTest,
                         ::testing::Values(BackendKind::kNative,
                                           BackendKind::kMca),
                         [](const ::testing::TestParamInfo<BackendKind>& param_info) {
                           return std::string(to_string(param_info.param));
                         });

// --- MCA-specific behaviour ------------------------------------------------------

TEST(McaBackendSpecific, WorkersAreMrapiNodes) {
  mrapi::Database::instance().configure_platform(
      platform::Topology::t4240rdb());
  McaBackend b(0);
  auto md = b.node().metadata();
  ASSERT_TRUE(md.has_value());
  std::size_t base = md->nodes_online();

  std::atomic<bool> release{false};
  ASSERT_EQ(b.launch_thread(0, [&release] {
    while (!release.load()) std::this_thread::yield();
  }), Status::kSuccess);
  // Worker registered in the domain-wide database (§5B.1).
  EXPECT_EQ(md->nodes_online(), base + 1);
  release.store(true);
  ASSERT_EQ(b.join_thread(0), Status::kSuccess);
  EXPECT_EQ(md->nodes_online(), base);
}

TEST(McaBackendSpecific, AllocationsAreHeapModeShmem) {
  McaBackend b(0);
  void* p = b.allocate(256);
  ASSERT_NE(p, nullptr);
  // The segment must NOT have consumed the domain's system arena.
  auto d = mrapi::Database::instance().find_domain(0);
  ASSERT_TRUE(d.has_value());
  // (gomp allocations are keyed privately; just check we can free cleanly.)
  b.deallocate(p);
  EXPECT_EQ(b.failed_allocations(), 0u);
}

TEST(McaBackendSpecific, TwoBackendsShareOneDomain) {
  McaBackend a(0), b(0);
  // Distinct master nodes in the same domain.
  EXPECT_NE(a.node().node_id(), b.node().node_id());
  std::atomic<int> total{0};
  ASSERT_EQ(a.launch_thread(0, [&] { total.fetch_add(1); }), Status::kSuccess);
  ASSERT_EQ(b.launch_thread(0, [&] { total.fetch_add(1); }), Status::kSuccess);
  (void)a.join_thread(0);
  (void)b.join_thread(0);
  EXPECT_EQ(total.load(), 2);
}

TEST(McaBackendSpecificDeathTest, LockOnRetiredMutexAborts) {
  // A lock() that cannot take the lock must not return: the caller would
  // run its critical section without mutual exclusion.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto m = std::make_shared<mrapi::Mutex>();
  ASSERT_EQ(m->retire(), Status::kSuccess);
  McaMutex mu(m);
  EXPECT_DEATH(mu.lock(), "mutex lock failed");
}

TEST(McaBackendSpecificDeathTest, UnlockOnRetiredMutexAborts) {
  // An unlock the MRAPI mutex rejects must not be discarded: the critical
  // section it closes ran without the exclusion the caller assumed.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto m = std::make_shared<mrapi::Mutex>();
  ASSERT_EQ(m->retire(), Status::kSuccess);
  McaMutex mu(m);
  EXPECT_DEATH(mu.unlock(), "mutex unlock failed");
}

}  // namespace
}  // namespace ompmca::gomp
