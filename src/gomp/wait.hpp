// Spin-then-park: the one way a runtime thread waits for another.
//
// Four places wait on a peer: a pool worker on its mailbox, a master on
// its team's join, a team thread in the central barrier, and a workshare
// ring claim (gomp/workshare.hpp).  All of them call spin_then_park():
// relax-spin on the wait predicate for a bounded window, sched_yield after
// every short burst of pauses (a spinner never holds a core a runnable
// peer needs for long), then park on a Parker — mutex + condvar + a
// sleeper count that makes the wake a Dekker pair, so a waker that finds
// nobody parked pays no syscall.
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
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <thread>

#include "common/locks.hpp"
#include "common/spin.hpp"
#include "common/time.hpp"
#include "gomp/icv.hpp"

namespace ompmca::gomp {

/// The host's online CPUs, read once per process (the first call reads
/// sysfs; every later one is a load).
unsigned online_cpus();

/// How long a waiter in a team of @p width threads spins before parking
/// under @p policy (see the file comment); 0 = park at once.
std::uint64_t spin_window_ns(WaitPolicy policy, unsigned width);

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

/// Pauses between yields while spinning.  At ~21 ns per pause on a
/// 4-vCPU Xeon guest (family 6 model 207) a burst is ~0.35 µs, so a
/// spinner hands its core to a runnable peer well within a microsecond.
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

/// Waits until @p ready() holds: spins up to @p window_ns (yielding after
/// every kSpinBurst pauses), then parks on @p parker.  ready() is polled
/// often and must be cheap; it must load its state seq_cst (see Parker).
/// Returns whether the wait parked; when it did and @p parked_ns is given,
/// stores how long it slept (the only clock reads a zero window costs).
template <typename Ready>
bool spin_then_park(std::uint64_t window_ns, Parker& parker, Ready&& ready,
                    std::uint64_t* parked_ns = nullptr) {
  if (ready()) return false;
  if (window_ns != 0) {
    std::uint64_t deadline = 0;  // the first burst is free of clock reads
    for (;;) {
      for (unsigned i = 0; i < kSpinBurst; ++i) {
        cpu_relax();
        if (ready()) return false;
      }
      const std::uint64_t now = monotonic_nanos();
      if (deadline == 0) {
        deadline = now + window_ns;
      } else if (now >= deadline) {
        break;
      }
      std::this_thread::yield();
      if (ready()) return false;
    }
  }
  if (parked_ns == nullptr) {
    parker.park(ready);
    return true;
  }
  const std::uint64_t t0 = monotonic_nanos();
  parker.park(ready);
  *parked_ns = monotonic_nanos() - t0;
  return true;
}

}  // namespace ompmca::gomp
