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
// mutex 2 plus a terminal state:
//
//   free --CAS--> locked --a waiter marks it--> contended
//     ^              |                              |
//     +---- unlock: exchange(free); a wake only if the old state was
//           contended
//   free --retire() CAS--> retired (terminal: every later or parked locker
//                                   fails with kMutexIdInvalid)
//
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
// Only the holder writes the owner and the recursion depth, so neither
// needs a lock: a thread that reads its own id back from owner_ holds the
// mutex, and the depth is handed from holder to holder by the state word's
// acquire/release.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

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
    const std::uint32_t s = state_.load(std::memory_order_relaxed);
    return s == kLocked || s == kContended;
  }

  /// Pauses a locker spins on a held mutex before it parks (~5 µs at
  /// ~21 ns per pause on a 4-vCPU Xeon guest).
  static constexpr unsigned kSpinPauses = 256;

 private:
  enum : std::uint32_t { kFree = 0, kLocked = 1, kContended = 2, kRetired = 3 };

  /// lock() and trylock() (kTimeoutImmediate); *contended reports whether
  /// another thread held the mutex when this call found it.
  Status acquire(Timeout timeout_ms, LockKey* key, bool* contended);
  /// Spins, then parks until the word is taken (kSuccess), the timeout
  /// passes (kTimeout) or the mutex is retired (kMutexIdInvalid).
  Status lock_slow(Timeout timeout_ms);
  /// The stale-handle error (a checker use-after-delete report).
  Status retired_error() const;

  MutexAttributes attrs_;
  std::atomic<std::uint32_t> state_{kFree};
  std::atomic<std::thread::id> owner_{};  // relaxed; holder-written
  std::uint32_t depth_ = 0;               // holder-only
};

}  // namespace ompmca::mrapi
