// The system-service boundary of the OpenMP runtime.
//
// The paper's whole delta between "proprietary libGOMP" and "MCA-libGOMP"
// is which library supplies four services: worker-thread management (§5B.1),
// runtime shared-data allocation (§5B.2), mutual exclusion (§5B.3) and the
// processor count (§5B.4).  SystemBackend is that boundary: the runtime core
// above it is byte-for-byte identical for both configurations, so measured
// differences isolate the service layer exactly as the paper's comparison
// does.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>

#include "common/status.hpp"

namespace ompmca::gomp {

/// Mutual-exclusion primitive supplied by the backend (gomp_mutex_t's role).
class BackendMutex {
 public:
  virtual ~BackendMutex() = default;
  virtual void lock() = 0;
  virtual void unlock() = 0;
  virtual bool try_lock() = 0;
};

class SystemBackend {
 public:
  virtual ~SystemBackend() = default;

  virtual std::string_view name() const = 0;

  // --- node / thread management (§5B.1) ------------------------------------
  /// Launches pool worker @p index running @p fn.  The MCA backend registers
  /// an MRAPI node per worker (Listing 2); the native backend starts a raw
  /// std::thread.
  virtual Status launch_thread(unsigned index, std::function<void()> fn) = 0;
  /// Joins worker @p index (and retires its node, where applicable).
  virtual Status join_thread(unsigned index) = 0;

  // --- memory management (§5B.2, Listing 3: gomp_malloc) -------------------
  virtual void* allocate(std::size_t bytes) = 0;
  virtual void deallocate(void* p) = 0;

  // --- synchronisation (§5B.3, Listing 4) -----------------------------------
  virtual std::unique_ptr<BackendMutex> create_mutex() = 0;

  // --- metadata (§5B.4) ------------------------------------------------------
  /// Processors available for the thread pool (the MCA backend walks the
  /// MRAPI resource tree; the native backend asks its platform config).
  virtual unsigned num_procs() = 0;
};

/// RAII lock for BackendMutex (CP.20: never plain lock/unlock).
class BackendLockGuard {
 public:
  explicit BackendLockGuard(BackendMutex& m) : m_(m) { m_.lock(); }
  /// Adopts a mutex the caller already locked.
  BackendLockGuard(BackendMutex& m, std::adopt_lock_t) : m_(m) {}
  ~BackendLockGuard() { m_.unlock(); }
  BackendLockGuard(const BackendLockGuard&) = delete;
  BackendLockGuard& operator=(const BackendLockGuard&) = delete;

 private:
  BackendMutex& m_;
};

}  // namespace ompmca::gomp
