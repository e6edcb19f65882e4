// MRAPI mutex (§2B.3, Listing 4).
//
// Differences from std::mutex that matter to the runtime layered on top:
//  * created against a domain-wide key, shared by name between nodes;
//  * optionally recursive, in which case each acquisition returns a LockKey
//    that must be presented, innermost-first, at release (the MRAPI model);
//  * lock takes a millisecond timeout (kTimeoutInfinite blocks);
//  * it can be retired (deleted) while threads wait on it.
//
// The whole lock is one atomic state word, Drepper's "Futexes Are Tricky"
// mutex 2 plus a terminal state, with the holder in the word:
//
//   free (0) --CAS--> held: token << 1 --a waiter sets bit 0--> contended
//     ^                  |                                         |
//     +---- unlock: exchange(free); a wake only if bit 0 was set --+
//   free --retire() CAS--> retired (1; terminal: every later or parked
//                                   locker fails with kMutexIdInvalid)
//
// The token is the locking thread's own (one per thread, never 0), so the
// word names the holder: a thread that reads its own token back holds the
// mutex (only the holder writes it; a waiter marking contention keeps it).
// An uncontended lock is one CAS and an uncontended unlock one exchange,
// with no syscall.  A locker that finds the mutex held spins for
// kSpinPauses pauses (a critical section at OpenMP grain is usually
// released within that window, and taking it spinning saves both the
// sleep and the holder's wake), then marks the word contended and parks
// on the word itself (a futex; the timed path passes the remaining MRAPI
// timeout as the futex's timeout).  A woken waiter re-takes the word as
// contended, since other waiters may still sleep behind it.  retire()
// succeeds only from free, then wakes every parked waiter, which finds the
// retired state and fails.
//
// The recursion depth is holder-only and exists for recursive mutexes
// alone, handed from holder to holder by the state word's acquire/release;
// a non-recursive holder writes nothing but the word, the line its waiters
// poll.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/status.hpp"
#include "mrapi/types.hpp"

namespace ompmca::mrapi {

class Mutex {
 public:
  explicit Mutex(MutexAttributes attrs = {}) : attrs_(attrs) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  const MutexAttributes& attributes() const { return attrs_; }

  /// Blocks up to @p timeout_ms.  On success *key identifies this
  /// acquisition (depth for recursive mutexes).
  Status lock(Timeout timeout_ms, LockKey* key);

  /// Single attempt; kMutexLocked when unavailable.
  Status trylock(LockKey* key);

  /// Releases the acquisition identified by @p key.  Errors:
  /// kMutexNotLocked (not held), kMutexKeyInvalid (wrong key / wrong owner /
  /// out-of-order release of a recursive mutex).
  Status unlock(const LockKey& key);

  /// Atomically checks the mutex is unheld and marks it deleted, closing
  /// the check-then-erase window of Database::mutex_delete: a lock()
  /// racing the delete either completes first (retire fails with
  /// kMutexLocked) or observes the retired state (kMutexIdInvalid).
  /// Outstanding waiters are woken and fail with kMutexIdInvalid.
  Status retire();

  /// True once retire() succeeded (stale-handle detection).
  bool retired() const {
    return state_.load(std::memory_order_acquire) == kRetired;
  }

  /// Observational only (racy by nature); used by tests and metadata.
  bool locked() const {
    return state_.load(std::memory_order_relaxed) > kRetired;
  }

  /// Pauses a locker spins on a held mutex before it parks (~5 µs at
  /// ~21 ns per pause on a 4-vCPU Xeon guest).
  static constexpr unsigned kSpinPauses = 256;

 private:
  // A held word is (token << 1) | contended; token 0 never exists, so the
  // two values below it are free.
  enum : std::uint32_t { kFree = 0, kRetired = 1, kContendedBit = 1 };

  /// lock() and trylock() (kTimeoutImmediate); *contended reports whether
  /// another thread held the mutex when this call found it.
  Status acquire(Timeout timeout_ms, LockKey* key, bool* contended);
  /// Spins, then parks until the word is taken with @p held (the caller's
  /// token word) (kSuccess), the timeout passes (kTimeout) or the mutex is
  /// retired (kMutexIdInvalid).
  Status lock_slow(Timeout timeout_ms, std::uint32_t held);
  /// The stale-handle error (a checker use-after-delete report).
  Status retired_error() const;

  MutexAttributes attrs_;
  std::atomic<std::uint32_t> state_{kFree};
  std::uint32_t depth_ = 0;  // holder-only; recursive mutexes only
};

}  // namespace ompmca::mrapi
