// Worker-thread pool with multiplexed (per-dispatch mailbox) team dispatch.
//
// The pool is the only source of workers: each is launched once through
// the backend on first lease and parked between regions — what libGOMP
// does, and what keeps the EPCC PARALLEL overhead sane.  (The literal
// §5B.1 lifecycle, a node created at fork and finalized at join, lives only
// in bench/ablation_node_mgmt, which measures what the pool is worth.)
// Any thread can be a master, including a pool worker forking a nested
// region from inside its team: it leases further workers exactly like a
// concurrent top-level tenant, and degrades width the same way.
//
// Why multiplexed: the original pool had exactly one team slab, one ticket
// doorbell and one join, so two application threads forking concurrently
// (the multi-tenant server shape) silently corrupted each other's region.
// Now every in-flight region owns a DispatchSlot, and masters *lease*
// disjoint worker subsets from a shared free bitmap, so N masters partition
// the pool instead of sharing one epoch.
//
// Dispatch protocol (the hot path):
//  * Region entry (prepare): the master claims a DispatchSlot (slot bitmap
//    CAS) and leases the lowest free workers from the free bitmap.
//    Under pressure the lease waits a bounded OMPMCA_LEASE_WAIT_NS and then
//    degrades the team width rather than blocking (gomp.lease_degraded /
//    gomp.lease_wait_ns account for it); a second region in flight counts
//    gomp.team_multiplexed.
//  * The master publishes the region's work descriptor in its slot, then
//    rings each leased worker's mailbox: one seq_cst store of the worker's
//    assignment word, which packs [seq:48][slot:8][tid:8] — a woken worker
//    knows *which* slot to read and which tid it runs as, so concurrent
//    masters never touch each other's descriptors.  The global seq makes
//    every assignment distinct (no ABA against a parked worker's last
//    word).
//  * Workers wait on their own mailbox with spin_then_park (gomp/wait.hpp)
//    and park on their cache-line-padded bell's Parker, so a master's ring
//    pays a futex wake only for participants that actually sleep; the
//    mailbox store and the Parker's sleeper count form a Dekker pair (all
//    seq_cst), so a ring can never be missed.  The spin window is the
//    team's (start_team resolves it from the wait policy and the width),
//    and a worker uses it only when its previous region came back within
//    that window: a fresh worker, or one idle for longer than the window,
//    parks at once — spinning then only steals the CPU the master needs to
//    launch the other workers or do its serial work.
//  * Join: each participant drains its tasks and decrements the slot's
//    active count; the master waits for zero with spin_then_park on the
//    slot's Parker (the last worker wakes it only when it actually
//    sleeps).  wait_team then runs the master's on_joined step (the
//    runtime finishes the slot's hot team there) and returns the lease and
//    the slot to their bitmaps.
//  * Misusing the Dispatch handle (start before prepare, double start,
//    destroying an in-flight dispatch) aborts in every build — the failure
//    it replaces was silent cross-tenant slab corruption, which a
//    debug-only assert cannot be trusted to catch in production.
//
// Under the MCA backend every worker is an MRAPI node: the pool calls
// SystemBackend::launch_thread, which routes to the Listing-2
// mrapi_thread_create extension.  The worker-index bitmap doubles as the
// node-id allocator, so concurrent masters can never collide on a node id.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/align.hpp"
#include "common/function_ref.hpp"
#include "gomp/backend.hpp"
#include "gomp/icv.hpp"
#include "gomp/wait.hpp"
#include "obs/monitor.hpp"

namespace ompmca::gomp {

class ThreadPool {
 public:
  /// Worker-lease capacity ceiling: the free set is one 64-bit bitmap.  The
  /// MCA backend sizes each runtime's node-id block from it.
  static constexpr unsigned kMaxWorkers = 64;
  /// Concurrently in-flight regions, nested ones included; claims beyond
  /// this degrade to width 1.
  static constexpr unsigned kMaxSlots = 16;

  /// One master's handle on one in-flight region: the claimed dispatch
  /// slot and the leased worker set.  Strictly prepare -> start_team ->
  /// wait_team; any other sequence — including destruction mid-flight — is
  /// a hard protocol violation that aborts in every build.
  class Dispatch {
   public:
    Dispatch() = default;
    ~Dispatch();
    Dispatch(const Dispatch&) = delete;
    Dispatch& operator=(const Dispatch&) = delete;

    /// Width prepare() granted (1 = no workers leased).
    unsigned width() const { return width_; }
    /// The claimed dispatch slot, or -1 when none was claimed.  The slot is
    /// this master's alone from prepare() until wait_team() releases it.
    int slot() const { return slot_; }

   private:
    friend class ThreadPool;
    ThreadPool* pool_ = nullptr;
    int slot_ = -1;             // claimed DispatchSlot index; -1 = idle
    std::uint64_t lease_ = 0;   // leased worker-index bitmap
    unsigned width_ = 1;
    unsigned level_ = 1;        // nesting level of the team being forked
    bool started_ = false;
  };

  explicit ThreadPool(SystemBackend& backend,
                      WaitPolicy wait_policy = WaitPolicy::kDefault,
                      unsigned max_workers = kMaxWorkers);
  ~ThreadPool();

  /// Region entry, phase 1: claims a dispatch slot and leases up to
  /// @p nthreads - 1 parked workers into @p d (launching any that never
  /// ran), lowest free workers first.  @p level is the nesting level of the
  /// team being forked (1 = top level).  Returns the width actually
  /// achievable: launch failures and lease pressure degrade the team
  /// instead of blocking or indexing out of bounds later.
  unsigned prepare(Dispatch& d, unsigned nthreads, unsigned level);

  /// Region entry, phase 2: publishes @p fn in @p d's slot and rings the
  /// leased workers' mailboxes; they run fn(1..width-1).  @p nthreads must
  /// not exceed the width prepare() returned; @p fn must stay alive until
  /// wait_team() returns.  The caller then runs fn(0) itself.
  void start_team(Dispatch& d, unsigned nthreads,
                  FunctionRef<void(unsigned)> fn);

  /// Region exit: joins @p d's participants, runs @p on_joined (when
  /// given), then returns the lease and the slot so other masters can claim
  /// them.  State owned through the slot must be finished with in
  /// @p on_joined: the slot's next owner may take it the moment it is
  /// released.
  void wait_team(Dispatch& d, FunctionRef<void()> on_joined = {});

  unsigned workers_launched() const {
    return workers_launched_.load(std::memory_order_relaxed);
  }

 private:
  // Mailbox layout: [seq:48][slot:8][tid:8].  The slot byte routes the
  // worker to its region's descriptor, the tid byte is its rank in that
  // team, and the globally unique seq makes every assignment distinct from
  // whatever word the worker parked on (ABA guard).
  static constexpr unsigned kTidBits = 8;
  static constexpr unsigned kSlotBits = 8;
  static constexpr std::uint64_t kTidMask = (1u << kTidBits) - 1;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;
  static unsigned assign_tid(std::uint64_t a) {
    return static_cast<unsigned>(a & kTidMask);
  }
  static unsigned assign_slot(std::uint64_t a) {
    return static_cast<unsigned>((a >> kTidBits) & kSlotMask);
  }
  static std::uint64_t assign_seq(std::uint64_t a) {
    return a >> (kTidBits + kSlotBits);
  }
  static std::uint64_t pack_assign(std::uint64_t seq, unsigned slot,
                                   unsigned tid) {
    return (seq << (kTidBits + kSlotBits)) |
           (static_cast<std::uint64_t>(slot) << kTidBits) | tid;
  }

  // One in-flight region's descriptor + join state.  The non-atomic fields
  // are master-written before the mailbox rings and read only by that
  // dispatch's participants, whose completion the master awaits before
  // releasing the slot — so the mailbox's seq_cst store/acquire load pair
  // is the only synchronisation they need, and the slot-bitmap
  // release/acquire pair covers reuse by the next master.
  struct alignas(kCacheLineBytes) DispatchSlot {
    FunctionRef<void(unsigned)> work;
    std::uint64_t dispatch_start_ns = 0;  // telemetry; 0 = untimed
    std::uint64_t seq = 0;                // trace flow-arrow key
    std::uint64_t spin_ns = 0;            // the team's spin window
    std::atomic<unsigned> active{0};
    // Watchdog mirrors, written only when the monitor is armed.  The
    // monitor thread reads them with no other synchronisation, so unlike
    // the fields above they must be atomic: mon_start_ns is the arm flag
    // (0 = not in flight) and is stored last/cleared first, release/acquire
    // paired with the probe so the other mirrors are visible when it reads
    // a nonzero start.
    std::atomic<std::uint64_t> mon_start_ns{0};
    std::atomic<std::uint64_t> mon_seq{0};
    std::atomic<std::uint64_t> mon_master{0};  // tenant id
    std::atomic<std::uint64_t> mon_lease{0};   // leased worker bitmap
    Parker done;  // the master parks here for the join
  };

  // Per-worker mailbox + parking spot.  The assignment word carries the
  // information; the Parker only knows whether the worker sleeps, so
  // rings stay targeted.
  struct alignas(kCacheLineBytes) Bell {
    Parker parker;
    std::atomic<std::uint64_t> assign{0};
    // Watchdog heartbeat epoch, bumped (monitor armed only) entering and
    // leaving the region body: odd = inside slot.work right now.  Lives on
    // the worker's own cache line, so the bumps never contend.
    std::atomic<std::uint64_t> heartbeat{0};
  };

  // bell is passed by reference (captured at launch) so workers never
  // index the bells_ array on the hot path.  A worker's pool index is
  // irrelevant inside the loop: its team rank arrives in the mailbox word.
  void worker_loop(Bell& bell, std::uint64_t seen);

  /// The monitor's stall probe (runs on the sampler thread): appends every
  /// slot whose mon_start_ns is older than @p stall_ns, with the leased
  /// workers' heartbeat parity folded into StallRegion::busy.
  static void stall_probe(void* ctx, std::uint64_t now_ns,
                          std::uint64_t stall_ns,
                          std::vector<obs::monitor::StallRegion>& out);

  int claim_slot();
  void release_slot(int slot);
  /// The lowest @p wanted bits of @p avail (all of them when fewer).
  static std::uint64_t pick_bits(std::uint64_t avail, unsigned wanted);
  /// CAS-claims up to @p wanted workers from the free set (no waiting).
  std::uint64_t try_lease(unsigned wanted);
  /// try_lease plus the bounded OMPMCA_LEASE_WAIT_NS wait-then-degrade.
  std::uint64_t lease_workers(unsigned wanted);
  void release_lease(std::uint64_t lease);
  /// Makes sure every leased worker's thread exists, dropping (and
  /// freeing) the ones whose launch failed.  Returns the surviving lease.
  std::uint64_t ensure_launched(std::uint64_t lease);

  SystemBackend& backend_;
  WaitPolicy wait_policy_;
  unsigned max_workers_;
  std::uint64_t lease_wait_ns_;

  // --- dispatch slots ---------------------------------------------------------
  alignas(kCacheLineBytes) std::atomic<std::uint32_t> slots_free_;
  DispatchSlot slots_[kMaxSlots];
  std::atomic<std::uint64_t> seq_{0};  // global dispatch sequence
  std::atomic<unsigned> in_flight_{0};
  std::atomic<bool> exit_{false};

  // --- worker leasing ---------------------------------------------------------
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> workers_free_;
  // Persistent workers whose backend thread is running.  Launches are
  // one-per-bit: only the bit's lease holder launches it, so the mask only
  // grows and a relaxed read answers "already launched?".
  std::atomic<std::uint64_t> launched_mask_{0};
  std::atomic<unsigned> workers_launched_{0};
  std::vector<std::unique_ptr<Bell>> bells_;  // fixed size max_workers_
};

}  // namespace ompmca::gomp
