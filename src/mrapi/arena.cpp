#include "mrapi/arena.hpp"

#include <cstdint>
#include <iterator>

#include "common/align.hpp"
#include "fault/fault.hpp"
#include "obs/telemetry.hpp"

namespace ompmca::mrapi {

SystemShmArena::SystemShmArena(std::size_t capacity_bytes)
    : capacity_(align_up(capacity_bytes, kCacheLineBytes)),
      storage_(new std::byte[capacity_ + kCacheLineBytes]) {
  // Normalise the base so every offset-0 allocation is cache-line aligned.
  auto base = reinterpret_cast<std::uintptr_t>(storage_.get());
  base_offset_adjust_ = align_up(base, kCacheLineBytes) - base;
  MutexLock lk(mu_);
  if (capacity_ > 0) free_list_[0] = capacity_;
}

Result<void*> SystemShmArena::allocate(std::size_t bytes) {
  obs::ScopedTimer timer(obs::Hist::kMrapiArenaAllocateNs);
  if (bytes == 0) return Status::kInvalidArgument;
  if (OMPMCA_FAULT_POINT(kMrapiArenaAlloc)) {
    obs::count(obs::Counter::kMrapiArenaAllocateFailed);
    return Status::kOutOfResources;
  }
  const std::size_t need = align_up(bytes, kCacheLineBytes);
  MutexLock lk(mu_);
  for (auto it = free_list_.begin(); it != free_list_.end(); ++it) {
    if (it->second < need) continue;
    const std::size_t offset = it->first;
    const std::size_t remaining = it->second - need;
    free_list_.erase(it);
    if (remaining > 0) free_list_[offset + need] = remaining;
    allocated_[offset] = need;
    used_bytes_.fetch_add(need, std::memory_order_relaxed);
    obs::count(obs::Counter::kMrapiArenaAllocate);
    obs::gauge_max(obs::Gauge::kMrapiArenaBytesInUseHwm,
                   used_bytes_.load(std::memory_order_relaxed));
    return static_cast<void*>(storage_.get() + base_offset_adjust_ + offset);
  }
  obs::count(obs::Counter::kMrapiArenaAllocateFailed);
  return Status::kOutOfResources;
}

Status SystemShmArena::release(void* ptr) {
  obs::ScopedTimer timer(obs::Hist::kMrapiArenaReleaseNs);
  // Validate the pointer against the arena's range as integers before doing
  // any pointer subtraction: `p - base` on a pointer that does not point
  // into storage_ is undefined behaviour and can wrap to a huge offset.
  const auto p_addr = reinterpret_cast<std::uintptr_t>(ptr);
  const auto base_addr =
      reinterpret_cast<std::uintptr_t>(storage_.get() + base_offset_adjust_);
  if (p_addr < base_addr || p_addr >= base_addr + capacity_) {
    return Status::kInvalidArgument;
  }
  const auto offset = static_cast<std::size_t>(p_addr - base_addr);
  MutexLock lk(mu_);
  auto it = allocated_.find(offset);
  if (it == allocated_.end()) return Status::kInvalidArgument;
  const std::size_t size = it->second;
  allocated_.erase(it);
  used_bytes_.fetch_sub(size, std::memory_order_relaxed);
  obs::count(obs::Counter::kMrapiArenaRelease);

  // Insert and coalesce with the previous / next free block.
  auto ins = free_list_.emplace(offset, size).first;
  if (ins != free_list_.begin()) {
    auto prev = std::prev(ins);
    if (prev->first + prev->second == ins->first) {
      prev->second += ins->second;
      free_list_.erase(ins);
      ins = prev;
    }
  }
  auto next = std::next(ins);
  if (next != free_list_.end() && ins->first + ins->second == next->first) {
    ins->second += next->second;
    free_list_.erase(next);
  }
  return Status::kSuccess;
}

std::size_t SystemShmArena::used() const {
  return used_bytes_.load(std::memory_order_relaxed);
}

std::size_t SystemShmArena::free_blocks() const {
  MutexLock lk(mu_);
  return free_list_.size();
}

}  // namespace ompmca::mrapi
