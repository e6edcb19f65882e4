// Team barrier algorithms.
//
// An OpenMP runtime lives and dies by its barrier; on a clustered part like
// the T4240 the algorithm choice interacts with topology (same-core SMT
// siblings vs cross-cluster CoreNet hops).  Three algorithms are provided
// and compared in bench/ablation_barriers:
//  * central       — sense-reversing counter barrier (libGOMP's shape);
//  * tree          — arity-4 combining tree (matches the 4-core clusters);
//  * hierarchical  — two tiers matched to the machine: every thread arrives
//    at a sense-reversal flag private to its cluster (traffic stays inside
//    the shared L2), the last arriver of each cluster becomes that
//    cluster's leader and combines at a tiny top tier, and the final
//    leader releases top-down by flipping each cluster's sense.  Crossing
//    the CoreNet fabric costs O(occupied clusters) arrivals per barrier
//    instead of O(n) — the gomp.barrier_local / gomp.barrier_xcluster
//    counters witness exactly that drop.
//
// Waiting: every algorithm waits through gomp/wait.hpp's spin_then_park,
// with a spin window resolved once at construction from the wait policy
// and the team width (zero — park at once — under OMP_WAIT_POLICY=passive
// and for teams wider than the host's online CPUs).  The releaser stores
// the new sense seq_cst and wakes only when a waiter actually parked, so a
// barrier whose threads all caught the release spinning costs no syscall.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/align.hpp"
#include "gomp/icv.hpp"
#include "gomp/wait.hpp"

namespace ompmca::gomp {

class TeamBarrier {
 public:
  virtual ~TeamBarrier() = default;
  /// Blocks until all @c size() threads have arrived.  Reusable.
  virtual void arrive_and_wait(unsigned tid) = 0;
  virtual unsigned size() const = 0;
};

/// kAuto is a *request* value only (the RuntimeOptions default): it
/// resolves to kHierarchical when the team spans more than one cluster and
/// to kCentral otherwise, and is never the effective kind of a constructed
/// barrier.
enum class BarrierKind { kCentral, kTree, kHierarchical, kAuto };

std::string_view to_string(BarrierKind k);

/// Parses a barrier-kind name ("central", "tree", "hier" or
/// "hierarchical", "auto") — the OMPMCA_BARRIER environment knob.
bool parse_barrier_kind(std::string_view text, BarrierKind* out);

/// Cluster-local storage hook for barrier state.  acquire() returns a
/// cache-line-aligned block homed in @p cluster's memory domain (the
/// per-cluster arena sub-pool), or nullptr when the caller should fall back
/// to the process heap.  Implemented by gomp::ClusterSlabCache (pool.hpp).
class ClusterMemory {
 public:
  virtual ~ClusterMemory() = default;
  virtual void* acquire(unsigned cluster, std::size_t bytes) = 0;
  virtual void release(unsigned cluster, void* p) = 0;
};

/// The algorithm make_barrier actually instantiates for a request.
/// @p clusters_spanned resolves the topology-dependent kinds: kAuto picks
/// kHierarchical for >1-cluster teams and kCentral otherwise, and a
/// kHierarchical request on a single-cluster team collapses to the flat
/// arity-4 tree (the two-tier protocol would be pure overhead with no
/// CoreNet hop to save).  Telemetry uses this so wait histograms are
/// attributed correctly.
BarrierKind effective_barrier_kind(BarrierKind kind, WaitPolicy policy,
                                   unsigned clusters_spanned);
/// Single-cluster convenience overload (tests, benches, p4080-shaped
/// callers).
BarrierKind effective_barrier_kind(BarrierKind kind, WaitPolicy policy);

/// @p cluster_of_thread maps each of the @p nthreads software threads to
/// its hardware cluster (Team builds this from the topology's placement);
/// nullptr means single-cluster, which collapses kHierarchical/kAuto as
/// effective_barrier_kind describes.  @p mem, when non-null, homes each
/// cluster's sub-barrier state in that cluster's memory domain.
std::unique_ptr<TeamBarrier> make_barrier(BarrierKind kind, unsigned nthreads,
                                          WaitPolicy policy,
                                          const unsigned* cluster_of_thread,
                                          ClusterMemory* mem = nullptr);
std::unique_ptr<TeamBarrier> make_barrier(BarrierKind kind, unsigned nthreads,
                                          WaitPolicy policy);

// --- implementations (exposed for unit tests and the ablation bench) --------

class CentralBarrier final : public TeamBarrier {
 public:
  CentralBarrier(unsigned nthreads, WaitPolicy policy);

  void arrive_and_wait(unsigned tid) override;
  unsigned size() const override { return n_; }

 private:
  unsigned n_;
  std::uint64_t spin_ns_;
  std::atomic<unsigned> count_{0};
  std::atomic<bool> sense_{false};
  Parker parker_;
};

class TreeBarrier final : public TeamBarrier {
 public:
  static constexpr unsigned kArity = 4;  // matches the 4-core clusters

  TreeBarrier(unsigned nthreads, WaitPolicy policy);

  void arrive_and_wait(unsigned tid) override;
  unsigned size() const override { return n_; }

 private:
  struct TreeNode {
    std::atomic<unsigned> count{0};
    unsigned expected = 0;
    int parent = -1;
  };

  unsigned n_;
  std::uint64_t spin_ns_;
  // unique_ptr array: TreeNode holds an atomic and cannot be moved, which
  // rules out std::vector storage.
  std::unique_ptr<Padded<TreeNode>[]> nodes_;
  std::vector<unsigned> leaf_of_thread_;
  std::atomic<bool> sense_{false};
  Parker parker_;
};

/// The two-tier topology-aware barrier.  Per occupied cluster one padded
/// ClusterTier (counter + sense + cv) lives — when a ClusterMemory is
/// supplied — inside that cluster's modeled L2 domain; the top tier is a
/// single counter over cluster leaders.  Release runs top-down: the final
/// leader flips every cluster's sense, and each thread only ever waits on
/// its own cluster's flag, so the spin line and parking spot are
/// cluster-local.
class HierarchicalBarrier final : public TeamBarrier {
 public:
  /// @p cluster_of_thread maps tid -> hardware cluster id (nthreads
  /// entries, read during construction only).
  HierarchicalBarrier(unsigned nthreads, WaitPolicy policy,
                      const unsigned* cluster_of_thread,
                      ClusterMemory* mem = nullptr);
  ~HierarchicalBarrier() override;

  void arrive_and_wait(unsigned tid) override;
  unsigned size() const override { return n_; }

  /// Occupied clusters = top-tier width = cross-cluster arrivals per phase.
  unsigned num_cluster_groups() const {
    return static_cast<unsigned>(groups_.size());
  }

 private:
  struct alignas(kCacheLineBytes) ClusterTier {
    std::atomic<unsigned> count{0};
    unsigned expected = 0;
    std::atomic<bool> sense{false};
    Parker parker;
  };

  unsigned n_;
  std::uint64_t spin_ns_;
  ClusterMemory* mem_;
  std::vector<unsigned> group_of_thread_;  // tid -> dense group index
  std::vector<unsigned> cluster_of_group_;  // dense group -> hw cluster id
  std::vector<ClusterTier*> groups_;
  std::vector<bool> group_from_mem_;  // allocation provenance per group
  // Per-thread sense: all threads flip in lockstep (everyone passes every
  // phase), so the releaser's write equals every waiter's expectation.
  std::vector<Padded<bool>> local_sense_;
  alignas(kCacheLineBytes) std::atomic<unsigned> top_count_{0};
};

}  // namespace ompmca::gomp
