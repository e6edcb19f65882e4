// Concurrent masters: several application threads forking parallel regions
// through ONE runtime at the same time — the multi-tenant shape the
// multiplexed dispatcher exists for.  The old pool had a single team slab,
// one doorbell ticket and one join counter, so two simultaneous masters
// corrupted each other's fork state (caught only by a debug assert).  These
// tests pin the replacement contract: per-region dispatch slots, worker
// leases that partition the pool, bounded wait-then-degrade under pressure,
// and the telemetry that witnesses all of it.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "gomp/backend_native.hpp"
#include "gomp/gomp.hpp"
#include "obs/telemetry.hpp"

namespace ompmca::gomp {
namespace {

Runtime make_runtime(BackendKind kind, unsigned threads) {
  RuntimeOptions opts;
  opts.backend = kind;
  Icvs icvs;
  icvs.num_threads = threads;
  opts.icvs = icvs;
  return Runtime(opts);
}

/// Bounded spin-yield; false on timeout (never hang a test on a lost wake).
template <typename Pred>
bool spin_until(Pred pred,
                std::chrono::seconds limit = std::chrono::seconds(60)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Sets an environment variable for the scope (the pool reads
/// OMPMCA_LEASE_WAIT_NS at construction).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

class ConcurrentMastersTest : public ::testing::TestWithParam<BackendKind> {};

// The core exactly-once contract: with 4 masters forking bursts of regions
// concurrently, every region body runs once per team member with distinct
// thread nums — no cross-tenant slab corruption, no lost or double rings.
TEST_P(ConcurrentMastersTest, ExactlyOnceAcrossConcurrentMasters) {
  constexpr unsigned kMasters = 4;
  constexpr unsigned kRegions = 20;
  constexpr unsigned kWidth = 3;
  Runtime rt = make_runtime(GetParam(), kWidth);

  // Plenty of pool capacity (4 masters x 2 extras), so every team gets its
  // full width; pressure-driven degradation is exercised separately below.
  std::vector<std::atomic<unsigned>> runs(kMasters * kRegions);
  std::vector<std::atomic<unsigned>> tids(kMasters * kRegions);
  for (auto& r : runs) r.store(0);
  for (auto& t : tids) t.store(0);

  std::atomic<bool> go{false};
  std::vector<std::thread> masters;
  for (unsigned m = 0; m < kMasters; ++m) {
    masters.emplace_back([&, m] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (unsigned r = 0; r < kRegions; ++r) {
        rt.parallel(
            [&, m, r](ParallelContext& ctx) {
              EXPECT_EQ(ctx.num_threads(), kWidth);
              runs[m * kRegions + r].fetch_add(1);
              tids[m * kRegions + r].fetch_or(1u << ctx.thread_num());
            },
            kWidth);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : masters) t.join();

  for (unsigned i = 0; i < kMasters * kRegions; ++i) {
    ASSERT_EQ(runs[i].load(), kWidth) << "region " << i;
    ASSERT_EQ(tids[i].load(), (1u << kWidth) - 1) << "region " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothBackends, ConcurrentMastersTest,
    ::testing::Values(BackendKind::kNative, BackendKind::kMca),
    [](const ::testing::TestParamInfo<BackendKind>& param_info) {
      return std::string(to_string(param_info.param));
    });

// A region dispatched while another master's is still in flight must be
// witnessed by gomp.team_multiplexed, and the doorbell wake-latency
// histogram (serverbench's latency source) must populate.
TEST(ConcurrentMasters, MultiplexedDispatchWitness) {
  obs::ScopedEnable telemetry;
  Runtime rt = make_runtime(BackendKind::kNative, 2);

  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    rt.parallel(
        [&](ParallelContext& ctx) {
          if (ctx.thread_num() == 0) {
            inside.store(true, std::memory_order_release);
            EXPECT_TRUE(spin_until(
                [&] { return release.load(std::memory_order_acquire); }));
          }
        },
        2);
  });
  ASSERT_TRUE(
      spin_until([&] { return inside.load(std::memory_order_acquire); }));

  // Three regions forked while the holder's region is pinned open: each
  // prepare() must observe an in-flight peer.
  std::atomic<int> count{0};
  for (int r = 0; r < 3; ++r) {
    rt.parallel([&](ParallelContext&) { count.fetch_add(1); }, 2);
  }
  release.store(true, std::memory_order_release);
  holder.join();

  EXPECT_EQ(count.load(), 6);
  obs::Snapshot s = obs::Registry::instance().snapshot();
  EXPECT_GE(s.counter(obs::Counter::kGompTeamMultiplexed), 3u);
  EXPECT_GT(s.hist(obs::Hist::kGompDoorbellWakeNs).count, 0u);
  // Capacity was never contended, so no lease may have degraded.
  EXPECT_EQ(s.counter(obs::Counter::kGompLeaseDegraded), 0u);
}

// When one tenant holds every pool worker, a second master must not block
// on the stranger's join: it degrades to the workers it can get (here:
// none) and completes while the first region is still open.
TEST(ConcurrentMasters, LeasePressureDegradesWidthNotBlocks) {
  ScopedEnv wait("OMPMCA_LEASE_WAIT_NS", "1000");
  obs::ScopedEnable telemetry;
  RuntimeOptions opts;
  Icvs icvs;
  icvs.num_threads = 5;
  opts.icvs = icvs;
  // 4 leasable workers: a width-5 team takes them all.
  opts.pool_max_workers = 4;
  Runtime rt(opts);

  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
  std::atomic<unsigned> holder_width{0};
  std::thread holder([&] {
    rt.parallel(
        [&](ParallelContext& ctx) {
          if (ctx.thread_num() == 0) {
            holder_width.store(ctx.num_threads());
            inside.store(true, std::memory_order_release);
            EXPECT_TRUE(spin_until(
                [&] { return release.load(std::memory_order_acquire); }));
          }
        },
        5);
  });
  ASSERT_TRUE(
      spin_until([&] { return inside.load(std::memory_order_acquire); }));

  std::atomic<unsigned> ran{0};
  std::atomic<unsigned> width{0};
  rt.parallel(
      [&](ParallelContext& ctx) {
        ran.fetch_add(1);
        if (ctx.thread_num() == 0) width.store(ctx.num_threads());
      },
      5);
  // Completing at all while the holder is pinned open IS the fix; the old
  // pool would have corrupted the shared slab or tripped its debug assert.
  EXPECT_FALSE(release.load());
  EXPECT_EQ(width.load(), 1u);
  EXPECT_EQ(ran.load(), 1u);

  release.store(true, std::memory_order_release);
  holder.join();
  EXPECT_EQ(holder_width.load(), 5u);

  obs::Snapshot s = obs::Registry::instance().snapshot();
  EXPECT_GE(s.counter(obs::Counter::kGompLeaseDegraded), 1u);
  EXPECT_GE(s.counter(obs::Counter::kGompTeamMultiplexed), 1u);
  EXPECT_GT(s.hist(obs::Hist::kGompLeaseWaitNs).count, 0u);
}

// Seeded lease-pressure partition: 4 masters x width-4 requests against a
// 4-worker pool, held simultaneously in flight by an in-body rendezvous.
// The leases must partition the pool (4 masters + 4 extras = 8 threads
// total), with the shortfall showing up as degraded, narrower teams —
// never as a blocked or deadlocked master.
TEST(ConcurrentMasters, SeededLeasePressurePartitionsThePool) {
  obs::ScopedEnable telemetry;
  constexpr unsigned kMasters = 4;
  RuntimeOptions opts;
  Icvs icvs;
  icvs.num_threads = 4;
  opts.icvs = icvs;
  opts.pool_max_workers = 4;
  Runtime rt(opts);

  std::atomic<unsigned> arrived{0};
  std::atomic<bool> bail{false};
  std::array<std::atomic<unsigned>, kMasters> widths;
  std::array<std::atomic<unsigned>, kMasters> runs;
  for (auto& w : widths) w.store(0);
  for (auto& r : runs) r.store(0);

  std::vector<std::thread> masters;
  for (unsigned m = 0; m < kMasters; ++m) {
    masters.emplace_back([&, m] {
      rt.parallel(
          [&, m](ParallelContext& ctx) {
            runs[m].fetch_add(1);
            if (ctx.thread_num() != 0) return;
            widths[m].store(ctx.num_threads());
            arrived.fetch_add(1);
            // Hold this region open until every master's region is in
            // flight at once — the maximum-pressure state.
            const bool all = spin_until([&] {
              return arrived.load() >= kMasters || bail.load();
            });
            if (!all) bail.store(true);
            EXPECT_TRUE(all);
          },
          4);
    });
  }
  for (auto& t : masters) t.join();
  ASSERT_FALSE(bail.load());

  unsigned total = 0;
  for (unsigned m = 0; m < kMasters; ++m) {
    // Exactly-once per granted width, even for the degraded teams.
    EXPECT_EQ(runs[m].load(), widths[m].load()) << "master " << m;
    EXPECT_GE(widths[m].load(), 1u);
    total += widths[m].load();
  }
  // All 4 workers leased somewhere, none double-leased: the 4 masters plus
  // the whole pool, whatever the per-master split.
  EXPECT_EQ(total, kMasters + 4);

  obs::Snapshot s = obs::Registry::instance().snapshot();
  // 4 extras cannot satisfy 4 masters wanting 3 each: at least two leases
  // came back short.
  EXPECT_GE(s.counter(obs::Counter::kGompLeaseDegraded), 2u);
  // All masters overlapped, so every prepare() but the first saw a peer.
  EXPECT_GE(s.counter(obs::Counter::kGompTeamMultiplexed), kMasters - 1);
  // The short leases waited out the bounded grace window first.
  EXPECT_GT(s.hist(obs::Hist::kGompLeaseWaitNs).count, 0u);
}

// One more master than dispatch slots: the overflow tenant serializes
// (width 1) instead of blocking on a stranger's region, and every other
// tenant keeps its full width.
TEST(ConcurrentMasters, SlotExhaustionSerializesTheOverflowTenant) {
  obs::ScopedEnable telemetry;
  constexpr unsigned kMasters = ThreadPool::kMaxSlots + 1;
  Runtime rt = make_runtime(BackendKind::kNative, 2);

  std::atomic<unsigned> arrived{0};
  std::atomic<bool> bail{false};
  std::array<std::atomic<unsigned>, kMasters> widths;
  std::array<std::atomic<unsigned>, kMasters> runs;
  for (auto& w : widths) w.store(0);
  for (auto& r : runs) r.store(0);

  std::vector<std::thread> masters;
  for (unsigned m = 0; m < kMasters; ++m) {
    masters.emplace_back([&, m] {
      rt.parallel(
          [&, m](ParallelContext& ctx) {
            runs[m].fetch_add(1);
            if (ctx.thread_num() != 0) return;
            widths[m].store(ctx.num_threads());
            arrived.fetch_add(1);
            const bool all = spin_until([&] {
              return arrived.load() >= kMasters || bail.load();
            });
            if (!all) bail.store(true);
            EXPECT_TRUE(all);
          },
          2);
    });
  }
  for (auto& t : masters) t.join();
  ASSERT_FALSE(bail.load());

  unsigned serialized = 0;
  for (unsigned m = 0; m < kMasters; ++m) {
    EXPECT_EQ(runs[m].load(), widths[m].load()) << "master " << m;
    if (widths[m].load() == 1) {
      ++serialized;
    } else {
      EXPECT_EQ(widths[m].load(), 2u) << "master " << m;
    }
  }
  // kMaxSlots regions held open leaves exactly one master without a slot.
  EXPECT_EQ(serialized, 1u);
  obs::Snapshot s = obs::Registry::instance().snapshot();
  EXPECT_GE(s.counter(obs::Counter::kGompLeaseDegraded), 1u);
}

/// The pool index of the calling worker thread (-1 off the pool).
thread_local int t_worker_index = -1;

/// Native backend that tags each worker thread with its pool index, so a
/// region body can report which workers its lease held.
class IndexTaggingBackend final : public SystemBackend {
 public:
  IndexTaggingBackend() : inner_(platform::Topology::t4240rdb()) {}

  std::string_view name() const override { return "index-tagging"; }
  Status launch_thread(unsigned index, std::function<void()> fn) override {
    return inner_.launch_thread(index, [index, fn = std::move(fn)] {
      t_worker_index = static_cast<int>(index);
      fn();
    });
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
  NativeBackend inner_;
};

/// Forks @p d (already prepared to @p width) and returns the bitmap of pool
/// workers that ran it.
std::uint64_t run_dispatch(ThreadPool& pool, ThreadPool::Dispatch& d,
                           unsigned width) {
  std::atomic<std::uint64_t> workers{0};
  auto body = [&](unsigned tid) {
    if (tid != 0) {
      workers.fetch_or(std::uint64_t{1} << t_worker_index);
    }
  };
  pool.start_team(d, width, body);
  body(0);
  pool.wait_team(d);
  return workers.load();
}

// The lease policy takes the lowest free workers, and two masters holding
// leases at once never share a worker.
TEST(ConcurrentMasters, LeasesAreLowestFreeWorkersAndDisjoint) {
  IndexTaggingBackend backend;
  ThreadPool pool(backend, WaitPolicy::kPassive, /*max_workers=*/8);

  ThreadPool::Dispatch first;
  ThreadPool::Dispatch second;
  ASSERT_EQ(pool.prepare(first, 4, /*level=*/1), 4u);
  ASSERT_EQ(pool.prepare(second, 3, /*level=*/1), 3u);
  const std::uint64_t first_workers = run_dispatch(pool, first, 4);

  // With workers 3 and 4 still leased to the second master, the next lease
  // is the lowest free pair again.
  ThreadPool::Dispatch third;
  ASSERT_EQ(pool.prepare(third, 3, /*level=*/1), 3u);
  const std::uint64_t third_workers = run_dispatch(pool, third, 3);
  const std::uint64_t second_workers = run_dispatch(pool, second, 3);

  EXPECT_EQ(first_workers, 0b00111u);
  EXPECT_EQ(second_workers, 0b11000u);
  EXPECT_EQ(third_workers, 0b00011u);
  EXPECT_EQ(first_workers & second_workers, 0u);
  EXPECT_EQ(third_workers & second_workers, 0u);
}

// --- retained dispatch --------------------------------------------------------

/// A runtime whose pool workers report their pool index (see
/// IndexTaggingBackend).
Runtime make_tagged_runtime(unsigned threads, unsigned max_workers) {
  RuntimeOptions opts;
  Icvs icvs;
  icvs.num_threads = threads;
  opts.icvs = icvs;
  opts.pool_max_workers = max_workers;
  opts.backend_factory = [] { return std::make_unique<IndexTaggingBackend>(); };
  return Runtime(opts);
}

/// What one region ran on: its team (one hot team per dispatch slot, so the
/// same team means the same slot), the pool workers that joined it, and
/// its width.
struct Forked {
  const Team* team = nullptr;
  std::uint64_t workers = 0;
  unsigned width = 0;
};

Forked fork_once(Runtime& rt, unsigned width) {
  std::atomic<const Team*> team{nullptr};
  std::atomic<std::uint64_t> workers{0};
  std::atomic<unsigned> got{0};
  rt.parallel(
      [&](ParallelContext& ctx) {
        if (ctx.thread_num() == 0) {
          team.store(&ctx.team());
          got.store(ctx.num_threads());
        } else {
          workers.fetch_or(std::uint64_t{1} << t_worker_index);
        }
      },
      width);
  return {team.load(), workers.load(), got.load()};
}

// Back-to-back forks of one width keep the master's slot (its hot team)
// and its lease (the same workers), and launch nothing new.
TEST(RetainedDispatch, ReforkReusesSlotAndWorkers) {
  Runtime rt = make_tagged_runtime(3, ThreadPool::kMaxWorkers);
  const Forked first = fork_once(rt, 3);
  ASSERT_EQ(first.width, 3u);
  EXPECT_EQ(first.workers, 0b11u);
  for (int i = 0; i < 20; ++i) {
    const Forked again = fork_once(rt, 3);
    EXPECT_EQ(again.team, first.team) << "fork " << i;
    EXPECT_EQ(again.workers, first.workers) << "fork " << i;
  }
  EXPECT_EQ(rt.pool().workers_launched(), 2u);
}

// A width change gives the kept slot and lease back before the fork claims
// afresh: the narrower region lands on the lowest free slot (the one just
// released) with the lowest worker, and a second master then finds the
// surplus workers free without revoking the new, narrower retention.
TEST(RetainedDispatch, WidthChangeReleasesTheRetainedLease) {
  IndexTaggingBackend backend;
  ThreadPool pool(backend, WaitPolicy::kPassive, /*max_workers=*/3);
  auto fork = [&pool](unsigned width, int* slot) {
    ThreadPool::Dispatch d;
    EXPECT_EQ(pool.prepare(d, width, /*level=*/1, /*retain=*/true), width);
    *slot = d.slot();
    return run_dispatch(pool, d, width);
  };
  int wide_slot = -1;
  EXPECT_EQ(fork(4, &wide_slot), 0b111u);
  int narrow_slot = -1;
  EXPECT_EQ(fork(2, &narrow_slot), 0b001u);
  EXPECT_EQ(narrow_slot, wide_slot);

  // The second master cannot take the slot the first one keeps.
  std::uint64_t other = 0;
  int other_slot = -1;
  std::thread([&] { other = fork(3, &other_slot); }).join();
  EXPECT_EQ(other, 0b110u);
  EXPECT_NE(other_slot, narrow_slot);

  int again_slot = -1;
  EXPECT_EQ(fork(2, &again_slot), 0b001u);
  EXPECT_EQ(again_slot, narrow_slot);
  EXPECT_EQ(pool.workers_launched(), 3u);
}

// A master short of workers revokes another master's kept lease before it
// degrades its width: with every worker kept by the main thread, a second
// master still gets its full width, and nothing is launched or degraded.
TEST(RetainedDispatch, SecondMasterRevokesInsteadOfDegrading) {
  obs::ScopedEnable telemetry;
  Runtime rt = make_tagged_runtime(4, /*max_workers=*/3);
  ASSERT_EQ(fork_once(rt, 4).width, 4u);
  ASSERT_EQ(rt.pool().workers_launched(), 3u);

  Forked other;
  std::thread([&] { other = fork_once(rt, 4); }).join();
  EXPECT_EQ(other.width, 4u);
  // The main thread's retention was revoked; the exited thread's is
  // revoked in turn.
  EXPECT_EQ(fork_once(rt, 4).width, 4u);
  EXPECT_EQ(rt.pool().workers_launched(), 3u);
  obs::Snapshot s = obs::Registry::instance().snapshot();
  EXPECT_EQ(s.counter(obs::Counter::kGompLeaseDegraded), 0u);
}

// The two-tenant shape: the main thread keeps every launched worker, then
// two masters fork half-width regions at once.  They revoke rather than
// launch, so the pool stays at the warm-up's three workers.
TEST(RetainedDispatch, TenantsRevokeInsteadOfLaunching) {
  obs::ScopedEnable telemetry;
  Runtime rt = make_tagged_runtime(4, ThreadPool::kMaxWorkers);
  ASSERT_EQ(fork_once(rt, 4).width, 4u);
  ASSERT_EQ(rt.pool().workers_launched(), 3u);

  std::array<std::atomic<unsigned>, 2> narrowed{};
  std::vector<std::thread> masters;
  for (unsigned m = 0; m < 2; ++m) {
    masters.emplace_back([&, m] {
      for (int i = 0; i < 50; ++i) {
        if (fork_once(rt, 2).width != 2) narrowed[m].fetch_add(1);
      }
    });
  }
  for (auto& t : masters) t.join();
  EXPECT_EQ(narrowed[0].load() + narrowed[1].load(), 0u);
  EXPECT_EQ(rt.pool().workers_launched(), 3u);
  obs::Snapshot s = obs::Registry::instance().snapshot();
  EXPECT_EQ(s.counter(obs::Counter::kGompLeaseDegraded), 0u);
}

// A thread that exits holding a retention leaves it orphaned; when every
// other slot is in flight, the next master revokes it instead of
// serializing.
TEST(RetainedDispatch, SlotExhaustionRevokesAnOrphanedRetention) {
  obs::ScopedEnable telemetry;
  constexpr unsigned kMasters = ThreadPool::kMaxSlots;
  Runtime rt = make_tagged_runtime(2, ThreadPool::kMaxWorkers);
  std::thread([&] {
    // Launch a worker per slot, then keep one slot and one worker.
    ASSERT_EQ(fork_once(rt, kMasters + 1).width, kMasters + 1);
    ASSERT_EQ(fork_once(rt, 2).width, 2u);
  }).join();
  ASSERT_EQ(rt.pool().workers_launched(), kMasters);

  std::atomic<unsigned> arrived{0};
  std::atomic<bool> bail{false};
  std::array<std::atomic<unsigned>, kMasters> widths{};
  std::vector<std::thread> masters;
  for (unsigned m = 0; m < kMasters; ++m) {
    masters.emplace_back([&, m] {
      rt.parallel(
          [&, m](ParallelContext& ctx) {
            if (ctx.thread_num() != 0) return;
            widths[m].store(ctx.num_threads());
            arrived.fetch_add(1);
            const bool all = spin_until([&] {
              return arrived.load() >= kMasters || bail.load();
            });
            if (!all) bail.store(true);
            EXPECT_TRUE(all);
          },
          2);
    });
  }
  for (auto& t : masters) t.join();
  ASSERT_FALSE(bail.load());
  for (unsigned m = 0; m < kMasters; ++m) {
    EXPECT_EQ(widths[m].load(), 2u) << "master " << m;
  }
  EXPECT_EQ(rt.pool().workers_launched(), kMasters);
  obs::Snapshot s = obs::Registry::instance().snapshot();
  EXPECT_EQ(s.counter(obs::Counter::kGompLeaseDegraded), 0u);
}

class RetainedDispatchTeardown : public ::testing::TestWithParam<BackendKind> {
};

// Runtimes destroyed while masters hold retentions (the main thread's, and
// an exited thread's) shut their workers down cleanly, and a later runtime
// is not confused by the stale retention hint.
TEST_P(RetainedDispatchTeardown, RuntimeDestroyedWhileRetainingExitsCleanly) {
  for (int round = 0; round < 3; ++round) {
    Runtime rt = make_runtime(GetParam(), 3);
    std::atomic<unsigned> ran{0};
    auto body = [&](ParallelContext&) { ran.fetch_add(1); };
    rt.parallel(body, 3);
    rt.parallel(body, 3);
    std::thread([&] { rt.parallel(body, 2); }).join();
    EXPECT_EQ(ran.load(), 8u) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothBackends, RetainedDispatchTeardown,
    ::testing::Values(BackendKind::kNative, BackendKind::kMca),
    [](const ::testing::TestParamInfo<BackendKind>& param_info) {
      return std::string(to_string(param_info.param));
    });

}  // namespace
}  // namespace ompmca::gomp
