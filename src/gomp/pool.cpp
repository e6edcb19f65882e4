#include "gomp/pool.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <utility>

#include "check/check.hpp"
#include "common/env.hpp"
#include "common/log.hpp"
#include "common/spin.hpp"
#include "common/time.hpp"
#include "fault/fault.hpp"
#include "obs/event.hpp"

namespace ompmca::gomp {

namespace {

unsigned lowest_bit(std::uint64_t v) {
  return static_cast<unsigned>(std::countr_zero(v));
}

unsigned popcount64(std::uint64_t v) {
  return static_cast<unsigned>(std::popcount(v));
}

/// Always-on dispatch-protocol guard (release builds included): the misuse
/// it catches was previously a debug-only assert, and the release-build
/// failure mode was *silent* cross-tenant slab corruption — abort loudly
/// instead.
[[noreturn]] void pool_protocol_abort(const char* what) {
  OMPMCA_LOG_ERROR("pool: dispatch protocol violation: %s", what);
  std::abort();
}

/// Launches worker @p index through @p backend with the fault-injection
/// point and the bounded retry-with-backoff policy applied.  A handful of
/// attempts with exponential backoff: worker launch failures under MRAPI are
/// resource-exhaustion shaped (node table full, thread creation refused)
/// and usually clear once a peer retires.  The caller degrades the team
/// width when even the retries fail.
Status launch_worker_with_retry(SystemBackend& backend, unsigned index,
                                std::function<void()> fn) {
  constexpr unsigned kLaunchRetries = 4;
  constexpr unsigned kBackoffUs = 32;
  std::uint64_t failures = 0;
  for (unsigned attempt = 0;; ++attempt) {
    Status s;
    if (OMPMCA_FAULT_POINT(kPoolWorkerLaunch)) {
      s = Status::kOutOfResources;
    } else {
      s = backend.launch_thread(index, fn);
    }
    if (ok(s)) {
      if (failures > 0) OMPMCA_FAULT_RECOVERED(kPoolWorkerLaunch, failures);
      return s;
    }
    ++failures;
    if (attempt + 1 >= kLaunchRetries) {
      OMPMCA_FAULT_EXHAUSTED(kPoolWorkerLaunch, failures);
      return s;
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(kBackoffUs << attempt));
  }
}

/// Process-unique pool ids (see ThreadPool::serial_).
std::atomic<std::uint64_t> g_pool_serial{0};

/// The calling thread's master token: the value a slot it retains holds.
/// Unique per thread for the process lifetime, so a retention can only be
/// resumed by the thread that left it.
std::uint64_t master_token() {
  static std::atomic<std::uint64_t> next{2};
  static thread_local const std::uint64_t token =
      next.fetch_add(1, std::memory_order_relaxed);
  return token;
}

/// The calling thread's one retained slot: which pool, which slot.  One
/// entry, not a list: a thread forking on many runtimes in turn (one per
/// benchmark epoch) would otherwise grow it without bound.  A retention
/// the hint no longer names is orphaned until another master revokes it.
struct RetainHint {
  std::uint64_t pool = 0;
  int slot = -1;
};
thread_local RetainHint t_retained;

}  // namespace

#define OMPMCA_POOL_GUARD(cond, what)       \
  do {                                      \
    if (!(cond)) pool_protocol_abort(what); \
  } while (0)

ThreadPool::ThreadPool(SystemBackend& backend, WaitPolicy wait_policy,
                       unsigned max_workers)
    : backend_(backend),
      wait_policy_(wait_policy),
      max_workers_(std::min(max_workers, kMaxWorkers)),
      serial_(g_pool_serial.fetch_add(1, std::memory_order_relaxed) + 1),
      slots_free_((1u << kMaxSlots) - 1),
      workers_free_(max_workers_ >= 64 ? ~std::uint64_t{0}
                                       : (std::uint64_t{1} << max_workers_) - 1) {
  // Bounded lease wait before a contended master degrades width instead of
  // blocking; 0 disables waiting entirely.
  lease_wait_ns_ = 20'000;
  if (auto ns = env_long_clamped("OMPMCA_LEASE_WAIT_NS", 0, 1'000'000'000L)) {
    lease_wait_ns_ = static_cast<std::uint64_t>(*ns);
  }
  // Fixed-size bell bank: workers capture their Bell& at launch, and
  // masters index it concurrently, so it must never reallocate.
  bells_.reserve(max_workers_);
  for (unsigned i = 0; i < max_workers_; ++i) {
    bells_.push_back(std::make_unique<Bell>());
  }
  obs::monitor::register_stall_source(this, &ThreadPool::stall_probe);
}

ThreadPool::~ThreadPool() {
  // Before any teardown: unregister blocks until an in-progress probe
  // returns, so the monitor can never walk a dying pool's slots.
  obs::monitor::unregister_stall_source(this);
  // Every region has joined, so every worker waits on its mailbox: the
  // exit word is its last assignment.  Same Dekker pairing as the ring
  // (see start_team): release stores, one seq_cst fence, sleeper checks.
  for (auto& bell : bells_) {
    bell->assign.store(kExitAssign, std::memory_order_release);
  }
  seq_cst_fence();
  for (auto& bell : bells_) bell->parker.wake();
  // Slots still retained leave the team-thread count with the pool (a
  // released slot counts 0); forgetting them would throttle every later
  // runtime's spinners.
  for (DispatchSlot& slot : slots_) remove_team_threads(slot.counted);
  const std::uint64_t launched = launched_mask_.load(std::memory_order_relaxed);
  for (unsigned i = 0; i < max_workers_; ++i) {
    if ((launched & (std::uint64_t{1} << i)) != 0) {
      (void)backend_.join_thread(i);  // destructor: nowhere to report failure
    }
  }
}

// --- dispatch ----------------------------------------------------------------

ThreadPool::Dispatch::~Dispatch() {
  // Hard guard in every build: a Dispatch destroyed mid-region would free
  // its slot and lease while workers still reference them — the silent
  // cross-tenant corruption this protocol exists to kill.
  OMPMCA_POOL_GUARD(slot_ == -1 && !started_,
                    "Dispatch destroyed while its region is in flight");
}

void ThreadPool::worker_loop(Bell& bell, std::uint64_t seen) {
  // The mailbox spin window for the next wait, and whether this worker has
  // served a region yet.  A worker spins only once a region came back
  // within its team's window of the previous one; until then — fresh, or
  // idle past the window — it parks at once.
  std::uint64_t spin_ns = 0;
  bool served = false;
  for (;;) {
    std::uint64_t a = seen;
    std::uint64_t parked_ns = 0;
    const bool parked = spin_then_park(
        kMailboxSite, spin_ns, bell.parker,
        [&] {
          // seq_cst: worker half of the bell Parker's Dekker pair — the
          // master fences its mailbox stores before its sleeper check.
          a = bell.assign.load(std::memory_order_seq_cst);
          return a != seen;
        },
        &parked_ns);
    if (a == kExitAssign) return;
    seen = a;
    // A leased worker's mailbox changes at most once per lease: the next
    // master can only write it after this worker's join retired the lease.
    // So every observed word is exactly one region to serve.
    DispatchSlot& slot = slots_[assign_slot(a)];
    const unsigned tid = assign_tid(a);
    // Read before the join decrement below: the slot belongs to the next
    // master after that.
    const std::uint64_t team_spin_ns = slot.spin_ns;
    // The hot-spin gate, judged without a clock read unless the wait
    // parked: a wait that never parked ended inside the spin window; one
    // that parked after spinning the window did not; one that parked at
    // once measured the idle gap while it slept.
    const bool hot =
        served && (!parked || (spin_ns == 0 && parked_ns <= team_spin_ns));
    served = true;
    if (slot.dispatch_start_ns != 0) {
      // dispatch_start_ns is armed by start_team when a sink of the wake is
      // on.  Its trace instant is the flow-arrow target fork_ring (master)
      // -> worker_wake, keyed by the region key the mailbox word carries.
      obs::emit_at(obs::Event::kWorkerWake, slot.dispatch_start_ns,
                   monotonic_nanos(), assign_key(a));
    }
    // Heartbeat parity for the stall watchdog: capture armed() once so both
    // bumps happen or neither — a monitor started or stopped mid-region
    // must not leave the epoch odd forever.
    const bool hb = obs::monitor::armed();
    if (hb) bell.heartbeat.fetch_add(1, std::memory_order_relaxed);
    {
      obs::Scope work(obs::Event::kWorkerWork, assign_key(a));
      slot.work(tid);
    }
    if (hb) bell.heartbeat.fetch_add(1, std::memory_order_relaxed);
    spin_ns = hot ? team_spin_ns : 0;
    // seq_cst: waker half of the slot Parker's Dekker pair with wait_team.
    // Only the last finisher — and only when the master actually sleeps —
    // pays for a notify.
    if (slot.active.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      slot.done.wake();
    }
  }
}

int ThreadPool::claim_slot() {
  // acquire on success: pairs with release_slot's release fetch_or, so
  // this master's slot writes happen-after the previous owner's teardown.
  std::uint32_t free = slots_free_.load(std::memory_order_acquire);
  while (free != 0) {
    const int s = std::countr_zero(free);
    if (slots_free_.compare_exchange_weak(free, free & ~(1u << s),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      // The slot bit is this master's alone, so a plain store suffices.
      slots_[s].state.store(kSlotInFlight, std::memory_order_relaxed);
      return s;
    }
  }
  return -1;
}

void ThreadPool::release_slot(int slot, std::uint64_t lease) {
  // Lease first (its workers have retired — their join decrements, or the
  // retaining master's, are ordered before this), then the slot, whose
  // release fetch_or publishes everything to the next claimant.
  release_lease(lease);
  remove_team_threads(std::exchange(slots_[slot].counted, 0u));
  slots_[slot].state.store(kSlotFree, std::memory_order_relaxed);
  slots_free_.fetch_or(1u << slot, std::memory_order_release);
}

bool ThreadPool::resume_retained(Dispatch& d) {
  RetainHint& hint = t_retained;
  if (hint.pool != serial_ || hint.slot < 0) return false;
  const int s = hint.slot;
  hint.slot = -1;
  DispatchSlot& slot = slots_[s];
  std::uint64_t mine = master_token();
  // acquire: this thread wrote what the slot keeps, but the state word is
  // the one place a revoker could have changed it; a failed CAS means it
  // did, and the slot is no longer this master's.
  if (!slot.state.compare_exchange_strong(mine, kSlotInFlight,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
    return false;
  }
  if (slot.width != d.wanted_) {
    // A width change gives the kept slot and lease back; the fork then
    // claims and leases afresh.
    release_slot(s, slot.lease);
    return false;
  }
  d.slot_ = s;
  d.lease_ = slot.lease;
  d.width_ = slot.width;
  return true;
}

bool ThreadPool::revoke_one() {
  for (unsigned s = 0; s < kMaxSlots; ++s) {
    DispatchSlot& slot = slots_[s];
    std::uint64_t state = slot.state.load(std::memory_order_relaxed);
    if (state < kFirstToken) continue;
    // acquire: pairs with the retaining wait_team's release store, so the
    // kept lease read below (and the owner's teardown) is visible.
    if (slot.state.compare_exchange_strong(state, kSlotFree,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
      release_slot(static_cast<int>(s), slot.lease);
      return true;
    }
  }
  return false;
}

bool ThreadPool::peer_in_flight(int self) const {
  // seq_cst fence: the caller's own in-flight store (or CAS) precedes these
  // loads in the single total order, and a peer doing the same sees this
  // master — two regions overlapping are witnessed at least once.
  seq_cst_fence();
  for (unsigned s = 0; s < kMaxSlots; ++s) {
    if (static_cast<int>(s) != self &&
        slots_[s].state.load(std::memory_order_relaxed) == kSlotInFlight) {
      return true;
    }
  }
  return false;
}

std::uint64_t ThreadPool::pick_bits(std::uint64_t avail, unsigned wanted) {
  std::uint64_t pick = 0;
  for (unsigned got = 0; avail != 0 && got < wanted; ++got) {
    pick |= std::uint64_t{1} << lowest_bit(avail);
    avail &= avail - 1;
  }
  return pick;
}

std::uint64_t ThreadPool::try_lease(unsigned wanted, std::uint64_t mask) {
  if (wanted == 0) return 0;
  for (;;) {
    // acquire: pairs with release_lease, so a re-leased worker's mailbox
    // write happens-after its previous master's join retired it.
    std::uint64_t avail = workers_free_.load(std::memory_order_acquire);
    const std::uint64_t pick = pick_bits(avail & mask, wanted);
    if (pick == 0) return 0;
    if (workers_free_.compare_exchange_weak(avail, avail & ~pick,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      return pick;
    }
  }
}

std::uint64_t ThreadPool::lease_workers(unsigned wanted) {
  std::uint64_t lease = 0;
  unsigned got = 0;
  // Parked workers first; a kept lease is revoked before a worker is
  // launched, so retention never grows the pool.
  auto top_up = [&] {
    const std::uint64_t launched =
        launched_mask_.load(std::memory_order_relaxed);
    lease |= try_lease(wanted - got, launched);
    got = popcount64(lease);
    while (got < wanted && revoke_one()) {
      lease |= try_lease(wanted - got, launched);
      got = popcount64(lease);
    }
    lease |= try_lease(wanted - got, ~std::uint64_t{0});
    got = popcount64(lease);
  };
  top_up();
  if (got < wanted && lease_wait_ns_ > 0) {
    // Bounded wait-then-degrade: a short grace window lets a peer master's
    // join return its lease (server-shaped regions are brief), but a master
    // never parks here — degrading width keeps this tenant's dispatch
    // latency bounded under sustained oversubscription.  Backoff yields
    // past its spin threshold, which is exactly what lets the peer finish
    // on an oversubscribed host.
    const std::uint64_t t0 = monotonic_nanos();
    std::uint64_t now = t0;
    Backoff backoff;
    do {
      backoff.pause();
      top_up();
      now = monotonic_nanos();
    } while (got < wanted && now - t0 < lease_wait_ns_);
    obs::emit_at(obs::Event::kLeaseWait, t0, now);  // this master's tenant
  }
  if (got < wanted) obs::emit(obs::Event::kLeaseDegraded);
  return lease;
}

void ThreadPool::release_lease(std::uint64_t lease) {
  if (lease == 0) return;
  // release: pairs with try_lease's acquire CAS (worker-reuse ordering).
  workers_free_.fetch_or(lease, std::memory_order_release);
}

std::uint64_t ThreadPool::ensure_launched(std::uint64_t lease) {
  std::uint64_t pending =
      lease & ~launched_mask_.load(std::memory_order_relaxed);
  while (pending != 0) {
    const unsigned index = lowest_bit(pending);
    pending &= pending - 1;
    Bell* bell = bells_[index].get();
    // Capture the mailbox word *before* the launch: the worker's first
    // wait must compare against a value predating any assignment this
    // dispatch will store, or it could sleep through its own first region.
    const std::uint64_t cur = bell->assign.load(std::memory_order_relaxed);
    Status s = launch_worker_with_retry(
        backend_, index, [this, bell, cur] { worker_loop(*bell, cur); });
    if (!ok(s)) {
      OMPMCA_LOG_ERROR("pool: failed to launch worker %u: %s", index,
                       std::string(to_string(s)).c_str());
      obs::emit(obs::Event::kTeamDegraded);
      lease &= ~(std::uint64_t{1} << index);
      release_lease(std::uint64_t{1} << index);
      continue;
    }
    // relaxed: only the bit's current lease holder launches it, so the
    // mask is single-writer per bit and only ever grows.
    launched_mask_.fetch_or(std::uint64_t{1} << index,
                            std::memory_order_relaxed);
    workers_launched_.fetch_add(1, std::memory_order_relaxed);
  }
  return lease;
}

unsigned ThreadPool::prepare(Dispatch& d, unsigned nthreads, unsigned level,
                             bool retain) {
  OMPMCA_POOL_GUARD(d.slot_ == -1 && !d.started_,
                    "prepare() on a dispatch already in flight");
  d.pool_ = this;
  d.lease_ = 0;
  d.width_ = 1;
  d.level_ = level;
  d.retain_ = retain;
  if (nthreads <= 1) return 1;
  const unsigned extra = std::min(nthreads - 1, max_workers_);
  d.wanted_ = 1 + extra;

  if (!(retain && resume_retained(d))) {
    int slot = claim_slot();
    // All kMaxSlots slots in flight or retained: take a retained one back
    // before this tenant serializes.
    while (slot < 0 && revoke_one()) slot = claim_slot();
    if (slot < 0) {
      // Every slot is in flight: degrade this tenant to a serialized
      // region rather than block it on a stranger's join.
      obs::emit(obs::Event::kLeaseDegraded);
      return 1;
    }
    d.slot_ = slot;
    const std::uint64_t lease = ensure_launched(lease_workers(extra));
    d.lease_ = lease;
    d.width_ = 1 + popcount64(lease);
    // A nested master is already counted in its enclosing team.
    const unsigned counted = level > 1 ? d.width_ - 1 : d.width_;
    slots_[slot].counted = counted;
    add_team_threads(counted);
  }
  // The multiplex witness: a region dispatched while another master's is
  // still running is exactly the state the old single-slab pool corrupted.
  if (obs::on(obs::Event::kTeamMultiplexed) && peer_in_flight(d.slot_)) {
    obs::emit(obs::Event::kTeamMultiplexed);
  }
  return d.width_;
}

void ThreadPool::start_team(Dispatch& d, unsigned nthreads,
                            FunctionRef<void(unsigned)> fn) {
  OMPMCA_POOL_GUARD(d.pool_ == this && !d.started_,
                    "start_team() without a matching prepare()");
  OMPMCA_POOL_GUARD(nthreads <= d.width_,
                    "start_team() wider than the prepared lease");
  d.started_ = true;
  if (d.slot_ < 0) return;
  const unsigned s = static_cast<unsigned>(d.slot_);
  DispatchSlot& slot = slots_[s];
  const unsigned extra = nthreads > 0 ? nthreads - 1 : 0;

  // Pseudo-lock held by the master across the fork..join window: it gives
  // the order graph an edge from every lock held at start_team to the pool,
  // and from the pool to every lock acquired before wait_team — so taking a
  // region-internal lock around the whole region in one place and inside it
  // in another shows up as an inversion.  Keyed by nesting level, not slot:
  // a master forking a nested team while holding its own region's
  // pseudo-lock adds an outer -> inner edge, and slot keys would turn a
  // later fork in the opposite slot order into a false pool -> pool cycle.
  // Levels only ever deepen, so pool -> pool edges can never close one.
  OMPMCA_CHECK_ACQUIRE(check::LockClass::kGompPool, &slot, d.level_);
  const std::uint64_t key = region_key(++slot.seq, s);
  slot.work = fn;
  slot.dispatch_start_ns =
      obs::on(obs::Event::kWorkerWake) ? monotonic_nanos() : 0;
  slot.active.store(extra, std::memory_order_relaxed);
  slot.spin_ns = spin_window_ns(wait_policy_, nthreads);
  if (obs::monitor::armed()) {
    // Watchdog arm: mirrors first, then the start timestamp (release,
    // paired with the probe's acquire) so a probe that sees the region
    // in flight sees *this* region's identity, not the previous owner's.
    slot.mon_seq.store(key, std::memory_order_relaxed);
    slot.mon_master.store(obs::tenant::current_id(), std::memory_order_relaxed);
    slot.mon_lease.store(d.lease_, std::memory_order_relaxed);
    slot.mon_start_ns.store(
        slot.dispatch_start_ns != 0 ? slot.dispatch_start_ns
                                    : monotonic_nanos(),
        std::memory_order_release);
  }

  // Two-phase ring, mirroring the old ticket-then-wake split: store every
  // participant's assignment word, then run the Dekker sleeping checks.
  // The caller may start narrower than prepared; surplus leased workers
  // stay parked.
  std::uint64_t rest = d.lease_;
  std::uint64_t to_ring = 0;
  for (unsigned tid = 1; tid <= extra && rest != 0; ++tid) {
    const unsigned index = lowest_bit(rest);
    rest &= rest - 1;
    // release: the doorbell ring itself — publishes the descriptor above
    // to the worker's acquire (seq_cst) mailbox load.
    bells_[index]->assign.store((key << kTidBits) | tid,
                                std::memory_order_release);
    to_ring |= std::uint64_t{1} << index;
  }
  if (slot.dispatch_start_ns != 0 && extra > 0) {
    // The mailbox stores above ARE the doorbell ring; stamp them with the
    // same timestamp the wake-latency probes use so flow arrows line up.
    obs::emit_at(obs::Event::kForkRing, slot.dispatch_start_ns,
                 slot.dispatch_start_ns, key, extra + 1);
  }
  if (to_ring == 0) return;
  // Master half of each bell's Dekker pair, one fence for the whole ring:
  // a worker raises its Parker's sleeper count (seq_cst RMW) and then
  // re-loads its mailbox (seq_cst).  If our sleeper load below missed that
  // rise, the load precedes the rise in the total order, so this fence
  // does too, and so does the worker's re-load; the re-load then follows
  // the fence, which follows our mailbox store — so it reads the new word
  // and the worker never sleeps through its ring.
  seq_cst_fence();
  // Targeted ring: only the participants that actually sleep pay for a
  // wake — a worker still inside its spin window costs no syscall.
  while (to_ring != 0) {
    const unsigned index = lowest_bit(to_ring);
    to_ring &= to_ring - 1;
    bells_[index]->parker.wake();
  }
}

void ThreadPool::wait_team(Dispatch& d, FunctionRef<void()> on_joined) {
  OMPMCA_POOL_GUARD(d.pool_ == this && d.started_,
                    "wait_team() without a matching start_team()");
  DispatchSlot* slot =
      d.slot_ >= 0 ? &slots_[static_cast<unsigned>(d.slot_)] : nullptr;
  if (slot != nullptr && slot->active.load(std::memory_order_acquire) != 0) {
    obs::Scope join(obs::Event::kJoinWait,
                    region_key(slot->seq, static_cast<unsigned>(d.slot_)));
    // The join is the region's end rendezvous: the workers' own region
    // tails (body imbalance, task drain) are what is outstanding.
    spin_then_park(kJoinSite, slot->spin_ns, slot->done, [&] {
      // seq_cst: master half of the slot Parker's Dekker pair.
      return slot->active.load(std::memory_order_seq_cst) == 0;
    });
  }
  if (on_joined) on_joined();
  if (slot != nullptr) {
    // Watchdog disarm — gated on a relaxed load, not on armed(), so a
    // monitor stopped mid-region still gets its stale start cleared (a
    // later monitor would otherwise flag a long-gone region), while an
    // unmonitored run pays exactly one relaxed load here.
    if (slot->mon_start_ns.load(std::memory_order_relaxed) != 0) {
      slot->mon_start_ns.store(0, std::memory_order_relaxed);
    }
    OMPMCA_CHECK_RELEASE(check::LockClass::kGompPool, slot);
    if (d.retain_ && d.width_ > 1 && d.width_ == d.wanted_) {
      // Keep slot and lease for this master's next fork.  release: pairs
      // with a revoker's acquire CAS, so the kept lease and everything the
      // region and on_joined wrote are visible to whoever takes the slot.
      slot->lease = d.lease_;
      slot->width = d.width_;
      slot->state.store(master_token(), std::memory_order_release);
      t_retained = RetainHint{serial_, d.slot_};
    } else {
      release_slot(d.slot_, d.lease_);
    }
  }
  d.lease_ = 0;
  d.slot_ = -1;
  d.started_ = false;
  d.width_ = 1;
}

void ThreadPool::stall_probe(void* ctx, std::uint64_t now_ns,
                             std::uint64_t stall_ns,
                             std::vector<obs::monitor::StallRegion>& out) {
  auto* pool = static_cast<ThreadPool*>(ctx);
  for (unsigned s = 0; s < kMaxSlots; ++s) {
    DispatchSlot& slot = pool->slots_[s];
    // acquire: pairs with start_team's release arm store, so a nonzero
    // start guarantees the identity mirrors below belong to this region.
    const std::uint64_t start =
        slot.mon_start_ns.load(std::memory_order_acquire);
    if (start == 0 || now_ns < start || now_ns - start < stall_ns) continue;
    obs::monitor::StallRegion r;
    r.seq = slot.mon_seq.load(std::memory_order_relaxed);
    r.slot = s;
    r.start_ns = start;
    r.master = slot.mon_master.load(std::memory_order_relaxed);
    r.workers = slot.mon_lease.load(std::memory_order_relaxed);
    r.active = slot.active.load(std::memory_order_relaxed);
    std::uint64_t rest = r.workers;
    while (rest != 0) {
      const unsigned i = lowest_bit(rest);
      rest &= rest - 1;
      // Odd epoch = inside the region body right now.
      if ((pool->bells_[i]->heartbeat.load(std::memory_order_relaxed) & 1) !=
          0) {
        r.busy |= std::uint64_t{1} << i;
      }
    }
    out.push_back(r);
  }
}

}  // namespace ompmca::gomp
