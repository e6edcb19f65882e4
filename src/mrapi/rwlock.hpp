// MRAPI reader/writer lock (§2B.3).
//
// Many concurrent readers or one writer.  Writer-preferring: once a writer
// is waiting, new readers queue behind it, so a steady reader stream cannot
// starve writers (the pattern MRAPI recommends for shared resource tables).
#pragma once

#include <condition_variable>

#include "common/annotations.hpp"
#include "common/locks.hpp"
#include "common/status.hpp"
#include "mrapi/types.hpp"

namespace ompmca::mrapi {

class Rwlock {
 public:
  explicit Rwlock(RwlockAttributes attrs = {}) : attrs_(attrs) {}

  Rwlock(const Rwlock&) = delete;
  Rwlock& operator=(const Rwlock&) = delete;

  const RwlockAttributes& attributes() const { return attrs_; }

  Status lock_read(Timeout timeout_ms) OMPMCA_EXCLUDES(mu_);
  Status lock_write(Timeout timeout_ms) OMPMCA_EXCLUDES(mu_);
  Status try_lock_read() { return lock_read(kTimeoutImmediate); }
  Status try_lock_write() { return lock_write(kTimeoutImmediate); }
  Status unlock_read() OMPMCA_EXCLUDES(mu_);
  Status unlock_write() OMPMCA_EXCLUDES(mu_);

  /// Atomically checks the lock is idle (no readers, no writer) and marks
  /// it deleted; later operations through stale handles fail with
  /// kRwlIdInvalid.  kRwlLocked when held.
  Status retire() OMPMCA_EXCLUDES(mu_);
  bool retired() const OMPMCA_EXCLUDES(mu_);

  std::uint32_t readers() const OMPMCA_EXCLUDES(mu_);
  bool write_locked() const OMPMCA_EXCLUDES(mu_);
  std::uint32_t waiting_writers() const OMPMCA_EXCLUDES(mu_);

 private:
  RwlockAttributes attrs_;
  mutable CapMutex mu_;
  std::condition_variable readers_cv_;
  std::condition_variable writers_cv_;
  std::uint32_t active_readers_ OMPMCA_GUARDED_BY(mu_) = 0;
  std::uint32_t waiting_writers_ OMPMCA_GUARDED_BY(mu_) = 0;
  bool writer_active_ OMPMCA_GUARDED_BY(mu_) = false;
  bool retired_ OMPMCA_GUARDED_BY(mu_) = false;
};

}  // namespace ompmca::mrapi
