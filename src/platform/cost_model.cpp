#include "platform/cost_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>


namespace ompmca::platform {

ServiceCosts ServiceCosts::native() {
  ServiceCosts c;
  c.fork_base = 2600;
  c.fork_per_thread = 620;
  c.join_base = 900;
  c.join_per_thread = 180;
  c.barrier_base = 240;
  c.barrier_per_thread = 95;
  c.lock_cycles = 78;
  c.single_cycles = 210;
  c.reduction_base = 300;
  c.reduction_per_thread = 110;
  c.chunk_dispatch_static = 14;
  c.chunk_dispatch_dynamic = 92;
  return c;
}

ServiceCosts ServiceCosts::mca() {
  // The MRAPI path replaces ad-hoc libGOMP bookkeeping with the node
  // database.  Fork is marginally cheaper (the pool thread and its metadata
  // are found with one indexed lookup; libGOMP re-derives both), while the
  // mutex and dynamic-dispatch paths pay a small indirection through the
  // domain database.  Net effect: ratios scatter around 1.0, Table-I style.
  ServiceCosts c = native();
  c.fork_base = 2500;
  c.fork_per_thread = 600;
  c.join_base = 930;
  c.join_per_thread = 186;
  c.barrier_base = 252;
  c.barrier_per_thread = 97;
  c.lock_cycles = 88;
  c.single_cycles = 200;
  c.reduction_base = 310;
  c.reduction_per_thread = 112;
  c.chunk_dispatch_static = 15;
  c.chunk_dispatch_dynamic = 101;
  return c;
}

TeamShape::TeamShape(const Topology& topo, unsigned nthreads,
                     PlacementPolicy policy)
    : nthreads_(nthreads) {
  assert(nthreads >= 1);
  hw_.resize(nthreads);
  for (unsigned i = 0; i < nthreads; ++i) {
    hw_[i] = topo.placement(i, policy);
  }
  derive(topo);
}

TeamShape::TeamShape(const Topology& topo, std::vector<unsigned> hw_threads)
    : nthreads_(static_cast<unsigned>(hw_threads.size())),
      hw_(std::move(hw_threads)) {
  assert(nthreads_ >= 1);
  derive(topo);
}

void TeamShape::derive(const Topology& topo) {
  smt_shared_.assign(nthreads_, false);
  cluster_occ_.assign(nthreads_, 0);

  std::vector<unsigned> core_occupancy(topo.num_cores(), 0);
  std::vector<unsigned> cluster_occupancy(topo.num_clusters(), 0);
  for (unsigned i = 0; i < nthreads_; ++i) {
    const auto& hwt = topo.hw_thread(hw_[i]);
    ++core_occupancy[hwt.core];
    ++cluster_occupancy[topo.core(hwt.core).cluster];
  }
  clusters_spanned_ = 0;
  max_cluster_occ_ = 1;
  for (unsigned occ : cluster_occupancy) {
    if (occ > 0) ++clusters_spanned_;
    if (occ > max_cluster_occ_) max_cluster_occ_ = occ;
  }
  if (clusters_spanned_ == 0) clusters_spanned_ = 1;
  for (unsigned i = 0; i < nthreads_; ++i) {
    const auto& hwt = topo.hw_thread(hw_[i]);
    smt_shared_[i] = core_occupancy[hwt.core] > 1;
    cluster_occ_[i] = cluster_occupancy[topo.core(hwt.core).cluster];
  }
}

CostModel::CostModel(Topology topo, ServiceCosts costs)
    : topo_(std::move(topo)), costs_(costs) {}

double CostModel::effective_bandwidth(const Work& work, const TeamShape& shape,
                                      unsigned tid) const {
  const auto& caches = topo_.caches();
  const double footprint = work.footprint_bytes;

  // L1 is private to the core (shared only between SMT lanes).
  const CacheSpec& l1 = caches.at(0);
  double l1_capacity = static_cast<double>(l1.size_bytes);
  if (shape.smt_shared(tid)) l1_capacity /= 2.0;
  if (footprint <= l1_capacity) {
    double bw = l1.bandwidth_gbps * 1e9;
    return shape.smt_shared(tid) ? bw * topo_.smt_throughput_factor() : bw;
  }

  // L2 is shared by the cluster: capacity and bandwidth divide among the
  // team members mapped into this cluster.
  const CacheSpec& l2 = caches.at(1);
  unsigned in_cluster = std::max(1u, shape.cluster_occupancy(tid));
  if (footprint * in_cluster <= static_cast<double>(l2.size_bytes)) {
    return l2.bandwidth_gbps * 1e9 / in_cluster;
  }

  // L3 / platform cache, shared machine-wide.
  const CacheSpec& l3 = caches.at(2);
  unsigned active = std::max(1u, shape.nthreads());
  if (footprint * active <= static_cast<double>(l3.size_bytes)) {
    return l3.bandwidth_gbps * 1e9 / active;
  }

  // DRAM: machine-wide bandwidth divided among active threads, with each
  // thread further capped at what its limited miss-level parallelism can
  // sustain alone.
  double total = topo_.dram_bandwidth_gbps() * 1e9;
  double share = total / active;
  double single_cap = topo_.dram_single_thread_gbps() * 1e9;
  return std::min(share, single_cap);
}

double CostModel::chunk_seconds(const Work& work, const TeamShape& shape,
                                unsigned tid) const {
  const double derate =
      shape.smt_shared(tid) ? topo_.smt_throughput_factor() : 1.0;
  const double scalar_issue = topo_.flops_per_cycle_per_core() * derate;
  const double vector_issue =
      topo_.vector_flops_per_cycle_per_core() * derate;
  const double vf = std::clamp(work.vector_fraction, 0.0, 1.0);
  double cycles_compute = work.flops * ((1.0 - vf) / scalar_issue +
                                        vf / vector_issue) +
                          work.int_ops / (2.0 * derate);
  double t_compute = cycles_to_seconds(cycles_compute);
  double t_memory = 0.0;
  if (work.bytes > 0) {
    t_memory = work.bytes / effective_bandwidth(work, shape, tid);
  }
  // Roofline: compute and memory overlap; the slower resource dominates.
  return std::max(t_compute, t_memory);
}

double CostModel::fork_seconds(unsigned nthreads) const {
  return cycles_to_seconds(costs_.fork_base +
                           costs_.fork_per_thread * nthreads);
}

double CostModel::fork_seconds(const TeamShape& shape) const {
  // Placement-aware fork: on top of the flat per-thread dispatch cost, each
  // worker's doorbell wake pays the coherence hop from the master's cache
  // domain to its own — same core < same cluster (L2) < CoreNet.  A
  // board-wide scatter team pays the CoreNet hop for most wakes; a team
  // packed into the master's cluster never does.
  double cycles = costs_.fork_base + costs_.fork_per_thread * shape.nthreads();
  for (unsigned i = 1; i < shape.nthreads(); ++i) {
    cycles += topo_.hop_cycles(shape.hw_thread(0), shape.hw_thread(i));
  }
  return cycles_to_seconds(cycles);
}

double CostModel::join_seconds(unsigned nthreads) const {
  return cycles_to_seconds(costs_.join_base +
                           costs_.join_per_thread * nthreads);
}

double CostModel::barrier_seconds(const TeamShape& shape) const {
  double cycles = costs_.barrier_base +
                  costs_.barrier_per_thread * shape.nthreads();
  // Crossing the CoreNet fabric adds a flat penalty per extra cluster.
  cycles += 140.0 * (shape.clusters_spanned() - 1);
  return cycles_to_seconds(cycles);
}

double CostModel::barrier_seconds_hierarchical(const TeamShape& shape) const {
  // Two-tier barrier: the per-thread combining happens inside each cluster
  // concurrently (critical path = the fullest cluster), and only one leader
  // per occupied cluster crosses CoreNet for the top tier.  Compare with
  // the flat model above, whose per-thread term runs over the whole team —
  // the gap is exactly what gomp.barrier_xcluster dropping from O(n) to
  // O(clusters) buys.
  double cycles = costs_.barrier_base +
                  costs_.barrier_per_thread * shape.max_cluster_occupancy();
  cycles += 140.0 * shape.clusters_spanned();
  return cycles_to_seconds(cycles);
}

double CostModel::lock_seconds() const {
  return cycles_to_seconds(costs_.lock_cycles);
}

double CostModel::single_seconds(unsigned nthreads) const {
  return cycles_to_seconds(costs_.single_cycles + 6.0 * nthreads);
}

double CostModel::reduction_seconds(unsigned nthreads) const {
  return cycles_to_seconds(costs_.reduction_base +
                           costs_.reduction_per_thread * nthreads);
}

double CostModel::chunk_dispatch_seconds(bool dynamic) const {
  return cycles_to_seconds(dynamic ? costs_.chunk_dispatch_dynamic
                                   : costs_.chunk_dispatch_static);
}

}  // namespace ompmca::platform
