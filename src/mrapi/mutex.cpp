#include "mrapi/mutex.hpp"

#include <climits>
#include <ctime>
#include <thread>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "check/check.hpp"
#include "common/spin.hpp"
#include "common/time.hpp"
#include "fault/fault.hpp"
#include "obs/event.hpp"

namespace ompmca::mrapi {

namespace {

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t),
              "the futex word is the atomic's own storage");

/// Sleeps while @p word holds @p expected, for at most @p rel_ns
/// (0 = untimed).  May return early (a wake, a signal, a changed word):
/// callers re-check the word.
void park(std::atomic<std::uint32_t>& word, std::uint32_t expected,
          std::uint64_t rel_ns) {
#if defined(__linux__)
  timespec ts{static_cast<std::time_t>(rel_ns / 1'000'000'000),
              static_cast<long>(rel_ns % 1'000'000'000)};
  // The result is discarded: EAGAIN (word changed), EINTR and ETIMEDOUT all
  // send the caller back to re-read the word.
  (void)syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
                FUTEX_WAIT_PRIVATE, expected, rel_ns == 0 ? nullptr : &ts,
                nullptr, 0);
#else
  if (rel_ns == 0) {
    word.wait(expected, std::memory_order_relaxed);
  } else {
    std::this_thread::yield();
  }
#endif
}

/// Wakes up to @p n threads parked on @p word.
void wake(std::atomic<std::uint32_t>& word, int n) {
#if defined(__linux__)
  // The result (the number woken) is not needed.
  (void)syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
                FUTEX_WAKE_PRIVATE, n, nullptr, nullptr, 0);
#else
  if (n == 1) {
    word.notify_one();
  } else {
    word.notify_all();
  }
#endif
}

/// The calling thread's held word: its token shifted left by one (bit 0
/// is the contention mark).  Tokens are 31-bit and never 0, unique among
/// any 2^31 - 1 threads of the process.
std::uint32_t held_word() {
  static std::atomic<std::uint32_t> next{1};
  static thread_local const std::uint32_t word = [] {
    std::uint32_t t = 0;
    while (t == 0) {
      t = next.fetch_add(1, std::memory_order_relaxed) & 0x7fff'ffffu;
    }
    return t << 1;
  }();
  return word;
}

}  // namespace

Status Mutex::lock(Timeout timeout_ms, LockKey* key) {
  obs::Scope event(obs::Event::kMutexLock);
  bool contended = false;
  const Status s = acquire(timeout_ms, key, &contended);
  event.set_args(contended ? 1 : 0);
  return s;
}

Status Mutex::trylock(LockKey* key) {
  bool contended = false;
  return acquire(kTimeoutImmediate, key, &contended);
}

Status Mutex::acquire(Timeout timeout_ms, LockKey* key, bool* contended) {
  if (key == nullptr) return Status::kInvalidArgument;
  const std::uint32_t self = held_word();

  // Only the holder stores its token, and a waiter marking contention
  // keeps it, so reading it back means this thread holds the mutex.
  if ((state_.load(std::memory_order_relaxed) & ~kContendedBit) == self) {
    if (!attrs_.recursive) {
      // A non-recursive MRAPI mutex reports the relock instead of
      // self-deadlocking.
      return Status::kMutexLocked;
    }
    key->value = ++depth_;
    obs::emit(obs::Event::kMutexAcquired);
    OMPMCA_CHECK_ACQUIRE(check::LockClass::kMrapiMutex, this, 0);
    return Status::kSuccess;
  }

  // Fault injection simulates a timeout on the blocking acquire path only;
  // trylock (kTimeoutImmediate) keeps its exact semantics so lock-free
  // fast paths stay deterministic under chaos schedules.  A retired mutex
  // still reports itself as such.
  if (timeout_ms != kTimeoutImmediate &&
      OMPMCA_FAULT_POINT(kMrapiMutexAcquire) && !retired()) {
    return Status::kTimeout;
  }

  std::uint32_t c = kFree;
  if (!state_.compare_exchange_strong(c, self, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
    if (c == kRetired) return retired_error();
    obs::emit(obs::Event::kMutexContended);
    if (timeout_ms == kTimeoutImmediate) return Status::kMutexLocked;
    *contended = true;
    const Status s = lock_slow(timeout_ms, self);
    if (s != Status::kSuccess) return s;
  }
  if (attrs_.recursive) depth_ = 1;
  key->value = 1;
  obs::emit(obs::Event::kMutexAcquired);
  OMPMCA_CHECK_ACQUIRE(check::LockClass::kMrapiMutex, this, 0);
  return Status::kSuccess;
}

Status Mutex::lock_slow(Timeout timeout_ms, std::uint32_t held) {
  const std::uint64_t deadline =
      timeout_ms == kTimeoutInfinite
          ? 0
          : monotonic_nanos() + std::uint64_t{timeout_ms} * 1'000'000;

  // Spin: take the word uncontended when it frees up.  Any waiter parked
  // meanwhile was woken by the unlock that freed it, and marks the word
  // contended again when it finds it taken.
  for (unsigned i = 0; i < kSpinPauses; ++i) {
    cpu_relax();
    std::uint32_t c = state_.load(std::memory_order_relaxed);
    if (c == kRetired) return retired_error();
    if (c == kFree &&
        state_.compare_exchange_weak(c, held, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      return Status::kSuccess;
    }
  }

  // Park: mark the word contended (so the holder's unlock wakes someone),
  // sleep on it, and re-take it as contended once it frees.
  std::uint32_t c = state_.load(std::memory_order_relaxed);
  for (;;) {
    if (c == kRetired) return retired_error();
    if (c == kFree) {
      if (state_.compare_exchange_weak(c, held | kContendedBit,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return Status::kSuccess;
      }
      continue;  // c holds the word's new value
    }
    if ((c & kContendedBit) == 0) {
      // The mark keeps the holder's token, so its owner checks still hold.
      if (!state_.compare_exchange_weak(c, c | kContendedBit,
                                        std::memory_order_relaxed)) {
        continue;
      }
      c |= kContendedBit;
    }
    std::uint64_t rel_ns = 0;
    if (deadline != 0) {
      const std::uint64_t now = monotonic_nanos();
      if (now >= deadline) return Status::kTimeout;
      rel_ns = deadline - now;
    }
    park(state_, c, rel_ns);
    c = state_.load(std::memory_order_relaxed);
  }
}

Status Mutex::unlock(const LockKey& key) {
  const std::uint32_t c = state_.load(std::memory_order_relaxed);
  if (c == kRetired) return retired_error();
  if (c == kFree) {
    OMPMCA_CHECK_DOUBLE_UNLOCK(check::LockClass::kMrapiMutex, this);
    return Status::kMutexNotLocked;
  }
  if ((c & ~kContendedBit) != held_word()) {
    OMPMCA_CHECK_UNLOCK_NOT_OWNER(check::LockClass::kMrapiMutex, this);
    return Status::kMutexKeyInvalid;
  }
  // Recursive acquisitions must be released innermost-first; a
  // non-recursive acquisition's key is always 1.
  if (key.value != (attrs_.recursive ? depth_ : 1)) {
    OMPMCA_CHECK_UNLOCK_NOT_OWNER(check::LockClass::kMrapiMutex, this);
    return Status::kMutexKeyInvalid;
  }
  OMPMCA_CHECK_RELEASE(check::LockClass::kMrapiMutex, this);
  if (attrs_.recursive && --depth_ != 0) return Status::kSuccess;
  if ((state_.exchange(kFree, std::memory_order_release) & kContendedBit) !=
      0) {
    wake(state_, 1);
  }
  return Status::kSuccess;
}

Status Mutex::retire() {
  std::uint32_t c = kFree;
  if (!state_.compare_exchange_strong(c, kRetired, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
    return c == kRetired ? Status::kMutexIdInvalid : Status::kMutexLocked;
  }
  // Waiters parked behind the last holder may still sleep on the word.
  wake(state_, INT_MAX);
  return Status::kSuccess;
}

Status Mutex::retired_error() const {
  OMPMCA_CHECK_USE_AFTER_DELETE(check::LockClass::kMrapiMutex, this);
  return Status::kMutexIdInvalid;
}

}  // namespace ompmca::mrapi
