// System shared-memory arena.
//
// MRAPI's default shmem mode maps onto OS-level shared memory, which on an
// embedded board is a scarce, fixed-size region.  We model that: one
// process-global arena of fixed capacity with a first-fit free-list
// allocator.  Heap-mode segments (the paper's use_malloc extension) bypass
// the arena entirely — that contrast is what bench/ablation_shmem_mode
// measures.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>

#include "common/annotations.hpp"
#include "common/expected.hpp"
#include "common/locks.hpp"

namespace ompmca::mrapi {

class SystemShmArena {
 public:
  explicit SystemShmArena(std::size_t capacity_bytes);

  SystemShmArena(const SystemShmArena&) = delete;
  SystemShmArena& operator=(const SystemShmArena&) = delete;

  /// First-fit allocation, 64-byte aligned; kOutOfResources when exhausted.
  Result<void*> allocate(std::size_t bytes) OMPMCA_EXCLUDES(mu_);

  /// Returns a block to the free list (coalescing neighbours).  Pointers
  /// outside [base, base+capacity) are rejected with kInvalidArgument
  /// *before* any offset arithmetic — a foreign pointer must never turn
  /// into undefined pointer subtraction.
  Status release(void* ptr) OMPMCA_EXCLUDES(mu_);

  std::size_t capacity() const { return capacity_; }
  /// Bytes currently allocated.  O(1): a running counter maintained by
  /// allocate()/release(), safe to call from hot telemetry paths.
  std::size_t used() const;
  std::size_t free_blocks() const OMPMCA_EXCLUDES(mu_);

 private:
  std::size_t capacity_;
  std::unique_ptr<std::byte[]> storage_;
  std::size_t base_offset_adjust_ = 0;
  mutable CapMutex mu_;
  // offset -> size
  std::map<std::size_t, std::size_t> free_list_ OMPMCA_GUARDED_BY(mu_);
  std::map<std::size_t, std::size_t> allocated_ OMPMCA_GUARDED_BY(mu_);
  std::atomic<std::size_t> used_bytes_{0};
};

}  // namespace ompmca::mrapi
