// MRAPI core types: identifiers, timeouts, limits, attributes.
//
// Naming follows the MCA MRAPI 1.0 concepts the paper relies on (§2B):
// domains, nodes, shared memory, remote memory, mutexes, semaphores,
// reader/writer locks, resource metadata.  The C++ surface lives in
// ompmca::mrapi; a thin C-flavoured shim mirroring the paper's listings is
// in mrapi/capi.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace ompmca::mrapi {

using DomainId = std::uint32_t;
using NodeId = std::uint32_t;
/// Application-chosen key identifying a shared resource domain-wide.
using ResourceKey = std::uint32_t;

/// Timeout in milliseconds; kTimeoutInfinite blocks forever,
/// kTimeoutImmediate polls once.
using Timeout = std::uint32_t;
inline constexpr Timeout kTimeoutInfinite =
    std::numeric_limits<Timeout>::max();
inline constexpr Timeout kTimeoutImmediate = 0;

/// Implementation limits (MRAPI requires implementations to publish these).
struct Limits {
  static constexpr std::size_t kMaxDomains = 8;
  static constexpr std::size_t kMaxNodesPerDomain = 128;
  static constexpr std::size_t kMaxShmems = 256;
  static constexpr std::size_t kMaxRmems = 64;
  static constexpr std::size_t kMaxMutexes = 1024;
  static constexpr std::size_t kMaxSemaphores = 256;
  static constexpr std::size_t kMaxRwlocks = 256;
  static constexpr std::size_t kMaxShmemBytes = std::size_t{1} << 32;
};

/// Shared-memory placement policy (§5A.2).  The MRAPI default maps segments
/// onto system-level (inter-process) shared memory; the paper's extension
/// adds a heap mode ("use_malloc") so thread-level runtimes such as OpenMP
/// share through the process heap instead.
enum class ShmemMode {
  kSystem,  // system-global segment, survives node detach, explicit delete
  kHeap,    // process-heap allocation, freed when deleted (paper extension)
};

struct ShmemAttributes {
  ShmemMode mode = ShmemMode::kSystem;
  bool use_malloc = false;  // paper's attribute name; true implies kHeap
  std::size_t alignment = 64;
  // Graceful degradation: when the system arena cannot satisfy a kSystem
  // request, fall back to the paper's thread-level heap mode instead of
  // failing the create.  Callers that need the system-segment semantics
  // (inter-process visibility, survival across detach) opt out.
  bool allow_heap_fallback = true;
};

/// Remote-memory access mechanism (§2B.2): direct load/store when the
/// memory is mapped, DMA transfers otherwise.
enum class RmemAccess {
  kDirect,
  kDma,
};

struct MutexAttributes {
  bool recursive = false;
};

struct SemaphoreAttributes {
  std::uint32_t shared_lock_limit = 1;  // initial count
};

struct RwlockAttributes {
  std::uint32_t max_readers = 0;  // 0 = unlimited
};

/// A lock key handed back by recursive mutex acquisition and required at
/// release, per the MRAPI mutex model.
struct LockKey {
  std::uint32_t value = 0;
};

}  // namespace ompmca::mrapi
