#include "mrapi/shmem.hpp"

#include <cstdlib>

#include "common/log.hpp"
#include "fault/fault.hpp"

namespace ompmca::mrapi {

Shmem::Shmem(ResourceKey key, std::size_t size, ShmemAttributes attrs,
             SystemShmArena* arena)
    : key_(key), size_(size), attrs_(attrs), arena_(arena) {
  const bool inject = OMPMCA_FAULT_POINT(kMrapiShmemCreate);
  if (attrs_.use_malloc) attrs_.mode = ShmemMode::kHeap;
  if (attrs_.mode == ShmemMode::kHeap) {
    // The paper's extension: plain process-heap storage.
    base_ = inject ? nullptr : std::malloc(size_);
  } else {
    bool arena_failed = false;
    if (!inject) {
      auto r = arena_->allocate(size_);
      base_ = r ? *r : nullptr;
      arena_failed = base_ == nullptr;
    }
    if (base_ == nullptr && attrs_.allow_heap_fallback) {
      // Degradation policy: a kSystem segment the arena cannot place is
      // re-homed on the process heap (the paper's use_malloc mode, Listing
      // 3).  Thread-level consumers — the OpenMP runtime above us — only
      // need a shared address, which the heap provides.
      OMPMCA_LOG_WARN(
          "shmem key=%u: arena cannot place %zu bytes, falling back to heap "
          "mode",
          key_, size_);
      attrs_.mode = ShmemMode::kHeap;
      base_ = std::malloc(size_);
      if (base_ != nullptr) {
        // Credit the recovery to the site that actually failed: the arena
        // carve-out when it returned empty-handed, the shmem create
        // injection otherwise.
        if (arena_failed) {
          OMPMCA_FAULT_RECOVERED(kMrapiArenaAlloc, 1);
        } else {
          OMPMCA_FAULT_RECOVERED(kMrapiShmemCreate, 1);
        }
      }
    } else if (arena_failed) {
      OMPMCA_FAULT_EXHAUSTED(kMrapiArenaAlloc, 1);
    }
  }
  if (base_ == nullptr) {
    OMPMCA_LOG_WARN("shmem key=%u: allocation of %zu bytes failed", key_,
                    size_);
  }
}

Shmem::~Shmem() {
  MutexLock lk(mu_);
  reclaim_locked();
}

Result<void*> Shmem::attach(NodeId node) {
  MutexLock lk(mu_);
  if (base_ == nullptr) return Status::kShmemAttchFailed;
  if (delete_pending_) return Status::kShmemIdInvalid;
  ++attachments_[node];
  return base_;
}

Status Shmem::detach(NodeId node) {
  MutexLock lk(mu_);
  auto it = attachments_.find(node);
  if (it == attachments_.end()) return Status::kShmemNotAttached;
  if (--it->second == 0) attachments_.erase(it);
  if (delete_pending_ && attachments_.empty()) reclaim_locked();
  return Status::kSuccess;
}

Status Shmem::mark_delete() {
  MutexLock lk(mu_);
  if (base_ == nullptr) return Status::kShmemIdInvalid;
  delete_pending_ = true;
  if (attachments_.empty()) reclaim_locked();
  return Status::kSuccess;
}

std::size_t Shmem::attach_count() const {
  MutexLock lk(mu_);
  std::size_t total = 0;
  for (const auto& [node, n] : attachments_) total += n;
  return total;
}

bool Shmem::delete_pending() const {
  MutexLock lk(mu_);
  return delete_pending_;
}

bool Shmem::attached(NodeId node) const {
  MutexLock lk(mu_);
  return attachments_.count(node) > 0;
}

void Shmem::reclaim_locked() {
  if (base_ == nullptr) return;
  if (attrs_.mode == ShmemMode::kHeap) {
    std::free(base_);
  } else {
    (void)arena_->release(base_);  // reclaim path; base_ came from arena_
  }
  base_ = nullptr;
}

}  // namespace ompmca::mrapi
