// Spin-then-park: the one way a runtime thread waits for another.
//
// Four places wait on a peer: a pool worker on its mailbox, a master on
// its team's join, a team thread in the central barrier, and a workshare
// ring claim (gomp/workshare.hpp).  All of them call spin_then_park():
// pause-spin on the wait predicate for a bounded window, then park on a
// Parker — mutex + condvar + a sleeper count that makes the wake a Dekker
// pair, so a waker that finds nobody parked pays no syscall.  Each wait
// that does not find its predicate already true counts one wait, and one
// park when it parks, for its site (the gomp.wait.* / gomp.park.*
// counters), so a run reports its park ratio per site.
//
// The window comes from the wait policy (OMP_WAIT_POLICY) and the team
// width, resolved once per team by spin_window_ns():
//  * unset   — a fixed few tens of µs: long enough to catch back-to-back
//              regions and barriers, short enough that an idle runtime
//              goes to sleep almost at once (libgomp's GOMP_SPINCOUNT
//              shape, tuned for a host, not for a board's HW threads);
//  * passive — zero: park at once;
//  * active  — tens of ms: spin through any realistic gap.
// A team wider than the host's online CPUs gets no window under any
// policy: every pause a spinner burns is then stolen from the thread it
// is waiting for.  The pool adds one gate of its own (pool.hpp): a worker
// spins on its mailbox only once its previous region came back within the
// window, so fresh and idle workers park at once.
//
// Inside the window a spinner yields its CPU (sched_yield after every
// kSpinBurst pauses) only while the process is oversubscribed: while the
// threads of all its live and retained teams (team_threads()) exceed the
// CPUs it may run on (available_cpus(), its affinity mask) — libgomp's
// gomp_managed_threads throttle.  Otherwise it pauses only.  A yield costs
// about as much as the burst it follows, and two team threads the kernel
// placed on one CPU that keep yielding to each other stay there: every
// wait then misses its window (the co-location slow mode, EXPERIMENTS.md
// "Spin without sched_yield").  The gate counts the affinity mask, not the
// online CPUs: a process pinned to fewer CPUs than its team would
// otherwise pause out every window behind a peer on its own CPU.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <thread>

#include "common/align.hpp"
#include "common/locks.hpp"
#include "common/spin.hpp"
#include "common/time.hpp"
#include "gomp/icv.hpp"
#include "obs/event.hpp"

namespace ompmca::gomp {

/// The host's online CPUs, read once per process (the first call reads
/// sysfs; every later one is a load).
unsigned online_cpus();

/// The CPUs this process may run on: its affinity mask at first use (at
/// most online_cpus()).  The oversubscription gate counts against it.
unsigned available_cpus();

/// How long a waiter in a team of @p width threads spins before parking
/// under @p policy (see the file comment); 0 = park at once.
std::uint64_t spin_window_ns(WaitPolicy policy, unsigned width);

namespace detail {
struct alignas(kCacheLineBytes) TeamThreads {
  std::atomic<unsigned> n{0};
};
/// On a line of its own: written only when a pool claims, releases,
/// revokes or tears down a dispatch slot; read by every spinner's burst.
extern TeamThreads g_team_threads;
}  // namespace detail

/// Threads in the process's live and retained teams: each top-level team
/// counts its master and its leased workers, a nested team its leased
/// workers (its master is already counted in the enclosing team).
inline unsigned team_threads() {
  return detail::g_team_threads.n.load(std::memory_order_relaxed);
}

/// A team of @p threads joins the count (ThreadPool, at a slot claim).
void add_team_threads(unsigned threads);
/// ... and leaves it (ThreadPool, at a slot release, revocation or
/// teardown).
void remove_team_threads(unsigned threads);

/// True while the process's team threads exceed the CPUs it may run on:
/// spinners then yield between bursts (see the file comment).
inline bool oversubscribed() { return team_threads() > available_cpus(); }

/// Where a thread waits: the event counted for each wait that did not find
/// its predicate already true, and the one counted when that wait parked.
struct WaitSite {
  obs::Event wait;
  obs::Event park;
};
inline constexpr WaitSite kMailboxSite{obs::Event::kWaitMailbox,
                                       obs::Event::kParkMailbox};
inline constexpr WaitSite kJoinSite{obs::Event::kWaitJoin,
                                    obs::Event::kParkJoin};
inline constexpr WaitSite kBarrierSite{obs::Event::kWaitBarrier,
                                       obs::Event::kParkBarrier};
inline constexpr WaitSite kRingSite{obs::Event::kWaitRing,
                                    obs::Event::kParkRing};

/// A parking spot.  The mutex guards no data — it exists to park on; the
/// waited-for state lives in the caller's atomics, and sleepers_ tells a
/// waker whether anyone actually sleeps.
class Parker {
 public:
  /// Sleeps until @p ready() holds.  Sleeper half of the Dekker pair: the
  /// sleepers_ rise is ordered before ready()'s re-check, so ready() must
  /// load the state it tests seq_cst.
  template <typename Ready>
  void park(Ready& ready) {
    // seq_cst: sleeper half of the Dekker pair with wake() — the rise
    // precedes the predicate re-check in the single total order.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      MutexLock lk(mu_);
      lk.wait(cv_, [&] { return ready(); });
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Waker half: call after the seq_cst store (or the store and a
  /// seq_cst_fence()) that makes the waiters' predicate true.  Either a
  /// waiter's re-check sees that store, or this load sees its sleepers_
  /// rise — never neither.
  void wake() {
    // seq_cst: waker half of the Dekker pair with park().
    if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
    {
      // Empty critical section: a sleeper between its predicate check and
      // its actual sleep holds mu_, so taking it orders the notify after
      // that sleep begins (the classic lost-wakeup guard).
      MutexLock lk(mu_);
    }
    cv_.notify_all();
  }

 private:
  CapMutex mu_;
  std::condition_variable cv_;
  std::atomic<unsigned> sleepers_{0};
};

/// Pauses between clock reads while spinning, and between yields while
/// the process is oversubscribed.  At ~21 ns per pause on a 4-vCPU Xeon
/// guest (family 6 model 207) a burst is ~0.35 µs — about what one
/// sched_yield costs there (~0.36 µs), which is why a spinner that fits
/// its CPU does not yield at all.
inline constexpr unsigned kSpinBurst = 16;

/// A seq_cst fence.  Wakers that publish several waiters' predicates with
/// release stores run one of these before their Parker::wake() calls, in
/// place of a seq_cst store per waiter (see ThreadPool::start_team).
inline void seq_cst_fence() {
#if defined(__GNUC__) && !defined(__clang__) && defined(__SANITIZE_THREAD__)
  // GCC warns that TSan does not model fences.  It needs no model here:
  // every hand-off the fence orders is also a release/acquire pair, which
  // is what TSan checks; the fence only closes the Dekker window.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
#endif
  // seq_cst: the fence's whole purpose (see the comment above).
  std::atomic_thread_fence(std::memory_order_seq_cst);
#if defined(__GNUC__) && !defined(__clang__) && defined(__SANITIZE_THREAD__)
#pragma GCC diagnostic pop
#endif
}

namespace detail {

/// Spins on @p ready() for up to @p window_ns; true when it came true.
template <typename Ready>
bool spin(std::uint64_t window_ns, Ready& ready) {
  if (window_ns == 0) return false;
  std::uint64_t deadline = 0;  // the first burst is free of clock reads
  for (;;) {
    for (unsigned i = 0; i < kSpinBurst; ++i) {
      cpu_relax();
      if (ready()) return true;
    }
    const std::uint64_t now = monotonic_nanos();
    if (deadline == 0) {
      deadline = now + window_ns;
    } else if (now >= deadline) {
      return false;
    }
    if (oversubscribed()) {
      std::this_thread::yield();
      if (ready()) return true;
    }
  }
}

}  // namespace detail

/// Waits at @p site until @p ready() holds: spins up to @p window_ns
/// (yielding between bursts only while oversubscribed()), then parks on
/// @p parker.  ready() is polled often and must be cheap; it must load its
/// state seq_cst (see Parker).  Returns whether the wait parked; when it
/// did and @p parked_ns is given, stores how long it slept (the only clock
/// reads a zero window costs).  The site's events are emitted when the
/// wait ends, so a parked waiter is counted once it has been woken.
template <typename Ready>
bool spin_then_park(const WaitSite& site, std::uint64_t window_ns,
                    Parker& parker, Ready&& ready,
                    std::uint64_t* parked_ns = nullptr) {
  if (ready()) return false;
  const bool parked = !detail::spin(window_ns, ready);
  if (parked) {
    if (parked_ns == nullptr) {
      parker.park(ready);
    } else {
      const std::uint64_t t0 = monotonic_nanos();
      parker.park(ready);
      *parked_ns = monotonic_nanos() - t0;
    }
  }
  obs::emit(site.wait);
  if (parked) obs::emit(site.park);
  return parked;
}

}  // namespace ompmca::gomp
