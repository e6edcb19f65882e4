// MCA system backend — the paper's MCA-libGOMP configuration.
//
// Every service is a strict client of the public MRAPI API:
//  * worker threads  -> MRAPI node management via the Listing-2 thread
//    extension (thread_create / thread_join), one node id per pool worker,
//    all registered in the domain-wide database;
//  * runtime memory  -> the Listing-3 extension: heap-mode ("use_malloc")
//    MRAPI shared-memory segments, one per allocation, keyed from a
//    process-unique counter (gomp_malloc's implementation);
//  * mutexes         -> MRAPI mutexes with lock keys (Listing 4);
//  * processor count -> the MRAPI metadata resource tree (§5B.4).
#pragma once

#include <atomic>
#include <map>
#include <mutex>

#include "common/annotations.hpp"
#include "common/locks.hpp"
#include "gomp/backend.hpp"
#include "mrapi/mrapi.hpp"

namespace ompmca::gomp {

/// gomp_mrapi_mutex_lock / unlock (Listing 4) behind the BackendMutex
/// interface.  The runtime's mutexes are non-recursive, so the MRAPI lock
/// key is the constant 1.
class McaMutex final : public BackendMutex {
 public:
  explicit McaMutex(std::shared_ptr<mrapi::Mutex> m) : m_(std::move(m)) {}

  /// Fail-stop: re-arms spurious timeouts, but a lock that cannot be taken
  /// (retired mutex, retries exhausted) logs, dumps the flight record and
  /// aborts — returning would run the critical section unprotected.
  void lock() override;
  /// Fail-stop as well: an unlock the MRAPI mutex rejects (not held,
  /// retired) logs, dumps the flight record and aborts.
  void unlock() override;
  bool try_lock() override;

 private:
  std::shared_ptr<mrapi::Mutex> m_;
};

class McaBackend final : public SystemBackend {
 public:
  /// Initializes this runtime's master MRAPI node in @p domain.  Node ids
  /// and resource keys are carved from process-wide counters so several
  /// runtimes can coexist in one domain.
  explicit McaBackend(mrapi::DomainId domain = 0);
  ~McaBackend() override;

  std::string_view name() const override { return "mca"; }

  Status launch_thread(unsigned index, std::function<void()> fn) override;
  Status join_thread(unsigned index) override;

  void* allocate(std::size_t bytes) override;
  void deallocate(void* p) override;

  std::unique_ptr<BackendMutex> create_mutex() override;

  unsigned num_procs() override;

  /// The master node (exposed so applications layered on the runtime can
  /// create their own MRAPI resources in the same domain).
  mrapi::Node& node() { return node_; }

  /// Allocation failures observed (tests for the gomp_fatal path).
  std::uint64_t failed_allocations() const { return failed_allocations_; }

 private:
  mrapi::NodeId worker_node_id(unsigned index) const {
    return node_base_ + 1 + index;
  }

  mrapi::DomainId domain_;
  mrapi::NodeId node_base_;
  mrapi::Node node_;

  CapMutex alloc_mu_;
  std::map<void*, mrapi::ResourceKey> allocations_
      OMPMCA_GUARDED_BY(alloc_mu_);
  std::atomic<std::uint64_t> failed_allocations_{0};
};

}  // namespace ompmca::gomp
