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
//    CAS) and leases the lowest free workers from the free bitmap — parked
//    workers first, then (see retention) workers kept by other masters,
//    and only then workers that still have to be launched.  Under pressure
//    the lease waits a bounded OMPMCA_LEASE_WAIT_NS and then degrades the
//    team width rather than blocking (gomp.lease_degraded /
//    gomp.lease_wait_ns account for it); a region dispatched while another
//    slot is in flight counts gomp.team_multiplexed (a scan of the slot
//    states, made only while that counter's sink is on).
//  * Retained dispatch: a top-level master keeps its slot and lease across
//    back-to-back forks of the same width, libGOMP's hot team at the pool
//    level.  Each slot has one state word: free, in flight, or retained by
//    a master token (one per thread).  wait_team marks a top-level slot
//    retained instead of releasing it, and the master remembers it in a
//    one-entry thread-local hint; its next fork of the same width CASes the
//    slot from retained back to in flight and reuses lease and hot team —
//    one CAS on its own slot, then the mailbox stores.  A width change, or
//    a failed CAS, falls back to the claim above.  Nested regions,
//    width-1 and degraded regions, and direct ThreadPool users release as
//    before.
//  * Revocation (no starvation): before a master launches a new worker,
//    degrades its width or serializes for lack of a slot, it revokes kept
//    leases — CAS a retained slot to free, then return its lease and its
//    slot bit to the free sets.  So retention never adds workers, and the
//    retention of an idle or exited master is reclaimed on demand; there
//    is no timer.
//  * The master publishes the region's work descriptor in its slot, then
//    rings each leased worker's mailbox: a release store of the worker's
//    assignment word, which packs [seq:48][slot:8][tid:8] — a woken worker
//    knows *which* slot to read and which tid it runs as, so concurrent
//    masters never touch each other's descriptors.  The seq is the slot's
//    own region count, so every assignment differs from the word the
//    worker last saw (no ABA: same slot means a larger seq), and
//    (seq << 8) | slot keys the region in the trace.  One reserved word
//    tells a worker to exit.
//  * Workers wait on their own mailbox with spin_then_park (gomp/wait.hpp)
//    and park on their cache-line-padded bell's Parker, so a master's ring
//    pays a futex wake only for participants that actually sleep; the
//    mailbox stores, one seq_cst fence and the Parker's sleeper count form
//    a Dekker pair, so a ring can never be missed.  The spin window is the
//    team's (start_team resolves it from the wait policy and the width),
//    and a worker uses it only when its previous region came back within
//    that window: a fresh worker, or one idle for longer than the window,
//    parks at once — spinning then only steals the CPU the master needs to
//    launch the other workers or do its serial work.
//  * Nothing per region is written to a line that another master writes or
//    a waiting worker polls: a re-fork touches its own slot and the bells
//    it rings, and a worker's wait predicate is one load of its own bell.
//  * Join: each participant drains its tasks and decrements the slot's
//    active count; the master waits for zero with spin_then_park on the
//    slot's Parker (the last worker wakes it only when it actually
//    sleeps).  wait_team then runs the master's on_joined step (the
//    runtime finishes the slot's hot team there) and retains, or returns,
//    the lease and the slot.
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
  /// Concurrently in-flight or retained regions, nested ones included;
  /// claims beyond this revoke a retained slot, or else degrade to width 1.
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
    /// this master's alone from prepare() until wait_team() releases or
    /// retains it.
    int slot() const { return slot_; }

   private:
    friend class ThreadPool;
    ThreadPool* pool_ = nullptr;
    int slot_ = -1;             // claimed DispatchSlot index; -1 = idle
    std::uint64_t lease_ = 0;   // leased worker-index bitmap
    unsigned width_ = 1;
    unsigned wanted_ = 1;       // the width asked for, clamped to the pool
    unsigned level_ = 1;        // nesting level of the team being forked
    bool retain_ = false;       // wait_team keeps slot and lease
    bool started_ = false;
  };

  explicit ThreadPool(SystemBackend& backend,
                      WaitPolicy wait_policy = WaitPolicy::kDefault,
                      unsigned max_workers = kMaxWorkers);
  ~ThreadPool();

  /// Region entry, phase 1: claims a dispatch slot and leases up to
  /// @p nthreads - 1 parked workers into @p d (launching any that never
  /// ran), lowest free workers first.  @p level is the nesting level of the
  /// team being forked (1 = top level).  With @p retain, the calling
  /// thread's slot and lease retained from its previous region of the same
  /// width are reused, and wait_team retains them again.  Returns the
  /// width actually achievable: launch failures and lease pressure degrade
  /// the team instead of blocking or indexing out of bounds later.
  unsigned prepare(Dispatch& d, unsigned nthreads, unsigned level,
                   bool retain = false);

  /// Region entry, phase 2: publishes @p fn in @p d's slot and rings the
  /// leased workers' mailboxes; they run fn(1..width-1).  @p nthreads must
  /// not exceed the width prepare() returned; @p fn must stay alive until
  /// wait_team() returns.  The caller then runs fn(0) itself.
  void start_team(Dispatch& d, unsigned nthreads,
                  FunctionRef<void(unsigned)> fn);

  /// Region exit: joins @p d's participants, runs @p on_joined (when
  /// given), then retains the slot and lease for the calling thread (a
  /// retaining dispatch that got its full width) or returns them so other
  /// masters can claim them.  State owned through the slot must be
  /// finished with in @p on_joined: the slot's next owner may take it the
  /// moment it is released or revoked.
  void wait_team(Dispatch& d, FunctionRef<void()> on_joined = {});

  unsigned workers_launched() const {
    return workers_launched_.load(std::memory_order_relaxed);
  }

 private:
  // Mailbox layout: [seq:48][slot:8][tid:8].  The slot byte routes the
  // worker to its region's descriptor, the tid byte is its rank in that
  // team, and the slot's own region count makes every assignment distinct
  // from whatever word the worker parked on (ABA guard).  The word with
  // every bit set (slot 255 never exists) tells the worker to exit.
  static constexpr unsigned kTidBits = 8;
  static constexpr unsigned kSlotBits = 8;
  static constexpr std::uint64_t kTidMask = (1u << kTidBits) - 1;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint64_t kExitAssign = ~std::uint64_t{0};
  static unsigned assign_tid(std::uint64_t a) {
    return static_cast<unsigned>(a & kTidMask);
  }
  static unsigned assign_slot(std::uint64_t a) {
    return static_cast<unsigned>((a >> kTidBits) & kSlotMask);
  }
  /// The region key, (slot seq << 8) | slot: unique per region in this
  /// pool, and the trace payload that ties fork_ring, worker_wake,
  /// worker_work and join_wait together.
  static std::uint64_t assign_key(std::uint64_t a) { return a >> kTidBits; }
  static std::uint64_t region_key(std::uint64_t seq, unsigned slot) {
    return (seq << kSlotBits) | slot;
  }

  // Slot state word: free, in flight, or retained by the master whose
  // token (>= kFirstToken, one per thread) it holds.
  static constexpr std::uint64_t kSlotFree = 0;
  static constexpr std::uint64_t kSlotInFlight = 1;
  static constexpr std::uint64_t kFirstToken = 2;

  // One region's dispatch slot, in three parts.  The owner part is the
  // master's: its state word (read by other masters only when they scan
  // for a peer in flight or for a retention to revoke) and what it keeps
  // across forks.  The descriptor part is master-written before the
  // mailbox rings and read by that dispatch's participants, whose
  // completion the master awaits before it releases or retains the slot —
  // so the mailbox's release store/acquire load pair is the only
  // synchronisation it needs, and the slot-bitmap or state-word
  // release/acquire pairs cover reuse by the next master.
  struct alignas(kCacheLineBytes) DispatchSlot {
    std::atomic<std::uint64_t> state{kSlotFree};
    std::uint64_t seq = 0;     // regions dispatched through this slot
    std::uint64_t lease = 0;   // kept lease (valid while retained)
    unsigned width = 0;        // kept width (valid while retained)

    alignas(kCacheLineBytes) FunctionRef<void(unsigned)> work;
    std::uint64_t dispatch_start_ns = 0;  // telemetry; 0 = untimed
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
  /// Marks @p slot free and returns @p lease and the slot to the free sets.
  void release_slot(int slot, std::uint64_t lease);
  /// Reclaims the calling thread's retained slot into @p d when its width
  /// is @p d's; otherwise releases it.  False when nothing was resumed.
  bool resume_retained(Dispatch& d);
  /// Revokes one slot another master retains (returning its lease and its
  /// slot bit); false when none is retained.
  bool revoke_one();
  /// Whether a slot other than @p self is in flight (the multiplex
  /// witness; @p self's state must already read in flight).
  bool peer_in_flight(int self) const;
  /// The lowest @p wanted bits of @p avail (all of them when fewer).
  static std::uint64_t pick_bits(std::uint64_t avail, unsigned wanted);
  /// CAS-claims up to @p wanted free workers within @p mask (no waiting).
  std::uint64_t try_lease(unsigned wanted, std::uint64_t mask);
  /// Leases up to @p wanted workers: launched ones, then revoked ones,
  /// then fresh launches, then the bounded OMPMCA_LEASE_WAIT_NS wait and
  /// degrade.
  std::uint64_t lease_workers(unsigned wanted);
  void release_lease(std::uint64_t lease);
  /// Makes sure every leased worker's thread exists, dropping (and
  /// freeing) the ones whose launch failed.  Returns the surviving lease.
  std::uint64_t ensure_launched(std::uint64_t lease);

  SystemBackend& backend_;
  WaitPolicy wait_policy_;
  unsigned max_workers_;
  std::uint64_t lease_wait_ns_;
  // Process-unique pool id: keys the masters' retention hints, so a hint
  // left by a destroyed pool never matches a later one.
  const std::uint64_t serial_;

  // --- dispatch slots ---------------------------------------------------------
  alignas(kCacheLineBytes) std::atomic<std::uint32_t> slots_free_;
  DispatchSlot slots_[kMaxSlots];

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
