#include "gomp/backend_mca.hpp"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <thread>

#include "common/log.hpp"
#include "fault/fault.hpp"
#include "gomp/pool.hpp"
#include "obs/trace.hpp"

namespace ompmca::gomp {

namespace {

// Retry policy for transient MRAPI resource exhaustion on the create-type
// paths (segment tables full, arena pressure): 8 attempts with exponential
// backoff capped at 256us keeps the residual failure probability negligible
// at the chaos suite's 10% injection rates while bounding the worst-case
// stall well under the region timescale.
constexpr unsigned kCreateRetries = 8;

void create_backoff(unsigned attempt) {
  const unsigned us = std::min(4u << attempt, 256u);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// Process-wide id carving: each backend instance claims a contiguous block
// of node ids (1 master + one per pool worker); resource keys for
// gomp_malloc segments and runtime mutexes come from a disjoint space.
constexpr unsigned kMaxWorkers = ThreadPool::kMaxWorkers;

mrapi::NodeId claim_node_base() {
  static std::atomic<mrapi::NodeId> next{1};
  return next.fetch_add(kMaxWorkers + 1);
}

mrapi::ResourceKey next_resource_key() {
  static std::atomic<mrapi::ResourceKey> next{0x4000'0000};
  return next.fetch_add(1);
}

}  // namespace

void McaMutex::lock() {
  // Spurious kTimeout (fault-injected, or a future bounded-wait backend) is
  // transient: re-arm the wait.  The retry bound only guards against a
  // pathological schedule.
  constexpr unsigned kLockRetries = 64;
  mrapi::LockKey key;
  std::uint64_t failures = 0;
  for (;;) {
    Status s = m_->lock(mrapi::kTimeoutInfinite, &key);
    if (ok(s)) {
      if (failures > 0) OMPMCA_FAULT_RECOVERED(kMrapiMutexAcquire, failures);
      return;
    }
    if (s != Status::kTimeout || ++failures >= kLockRetries) {
      if (failures > 0) OMPMCA_FAULT_EXHAUSTED(kMrapiMutexAcquire, failures);
      OMPMCA_LOG_ERROR(
          "MCA backend: mutex lock failed: %s; aborting instead of entering "
          "the critical section unprotected",
          std::string(to_string(s)).c_str());
      obs::trace::dump_flight_record("MCA mutex lock failed");
      std::abort();
    }
    create_backoff(failures > 6 ? 6 : static_cast<unsigned>(failures));
  }
}

void McaMutex::unlock() {
  // The key is the constant 1 (non-recursive), so any failure means the
  // caller does not hold this mutex, or it was retired under the holder:
  // mutual exclusion is already broken, and returning would hide it.
  const Status s = m_->unlock(mrapi::LockKey{1});
  if (ok(s)) return;
  OMPMCA_LOG_ERROR("MCA backend: mutex unlock failed: %s; aborting",
                   std::string(to_string(s)).c_str());
  obs::trace::dump_flight_record("MCA mutex unlock failed");
  std::abort();
}

bool McaMutex::try_lock() {
  mrapi::LockKey key;
  return ok(m_->trylock(&key));
}

McaBackend::McaBackend(mrapi::DomainId domain)
    : domain_(domain), node_base_(claim_node_base()) {
  std::uint64_t failures = 0;
  for (unsigned attempt = 0; attempt < kCreateRetries; ++attempt) {
    auto n = mrapi::Node::initialize(domain_, node_base_,
                                     mrapi::NodeAttributes{"gomp-master"});
    if (n) {
      if (failures > 0) OMPMCA_FAULT_RECOVERED(kMrapiNodeCreate, failures);
      node_ = *n;
      return;
    }
    if (n.status() != Status::kOutOfResources) {
      OMPMCA_LOG_ERROR("MCA backend: master node init failed: %s",
                       std::string(to_string(n.status())).c_str());
      return;
    }
    ++failures;
    create_backoff(attempt);
  }
  OMPMCA_FAULT_EXHAUSTED(kMrapiNodeCreate, failures);
  OMPMCA_LOG_ERROR("MCA backend: master node init failed after retries");
}

McaBackend::~McaBackend() {
  // Release any allocations the runtime leaked (none in normal operation).
  {
    MutexLock lk(alloc_mu_);
    for (auto& [ptr, key] : allocations_) {
      if (auto seg = node_.shmem_get(key)) {
        (void)(*seg)->detach(node_.node_id());  // best-effort teardown
      }
      (void)node_.shmem_delete(key);  // best-effort teardown
    }
    allocations_.clear();
  }
  // Destructor: a finalize failure has no one left to report to.
  if (node_.initialized()) (void)node_.finalize();
}

Status McaBackend::launch_thread(unsigned index, std::function<void()> fn) {
  if (index >= kMaxWorkers) return Status::kOutOfResources;
  mrapi::ThreadParameters params;
  params.start_routine = std::move(fn);
  return node_.thread_create(worker_node_id(index), std::move(params));
}

Status McaBackend::join_thread(unsigned index) {
  OMPMCA_RETURN_IF_ERROR(node_.thread_join(worker_node_id(index)));
  return node_.thread_finalize(worker_node_id(index));
}

void* McaBackend::allocate(std::size_t bytes) {
  // gomp_malloc (Listing 3): a heap-mode shared-memory segment per request.
  // Creation failures are retried as transient before the paper's
  // gomp_fatal("MRAPI failed memory allocation") path is surfaced.
  std::uint64_t failures = 0;
  for (unsigned attempt = 0; attempt < kCreateRetries; ++attempt) {
    mrapi::ResourceKey key = next_resource_key();
    auto addr = node_.shmem_create_malloc(key, bytes);
    if (addr) {
      if (failures > 0) OMPMCA_FAULT_RECOVERED(kMrapiShmemCreate, failures);
      MutexLock lk(alloc_mu_);
      allocations_[*addr] = key;
      return *addr;
    }
    ++failures;
    create_backoff(attempt);
  }
  OMPMCA_FAULT_EXHAUSTED(kMrapiShmemCreate, failures);
  failed_allocations_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void McaBackend::deallocate(void* p) {
  if (p == nullptr) return;
  mrapi::ResourceKey key;
  {
    MutexLock lk(alloc_mu_);
    auto it = allocations_.find(p);
    if (it == allocations_.end()) return;
    key = it->second;
    allocations_.erase(it);
  }
  if (auto seg = node_.shmem_get(key)) {
    (void)(*seg)->detach(node_.node_id());  // deallocate is void; best effort
  }
  (void)node_.shmem_delete(key);  // deallocate is void; best effort
}

std::unique_ptr<BackendMutex> McaBackend::create_mutex() {
  std::uint64_t failures = 0;
  for (unsigned attempt = 0; attempt < kCreateRetries; ++attempt) {
    auto m = node_.mutex_create(next_resource_key());
    if (m) {
      if (failures > 0) OMPMCA_FAULT_RECOVERED(kMrapiMutexCreate, failures);
      return std::make_unique<McaMutex>(std::move(*m));
    }
    if (m.status() != Status::kOutOfResources) break;  // not transient
    ++failures;
    create_backoff(attempt);
  }
  if (failures > 0) OMPMCA_FAULT_EXHAUSTED(kMrapiMutexCreate, failures);
  return nullptr;
}

unsigned McaBackend::num_procs() {
  auto md = node_.metadata();
  if (!md) return 1;
  return md->processors_online();
}

}  // namespace ompmca::gomp
