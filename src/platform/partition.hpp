// Freescale-style embedded-hypervisor partitions (§4A / Fig. 2).
//
// The board's hypervisor statically partitions CPUs, memory and I/O among
// guests.  The model is intentionally simple — named partitions owning
// disjoint HW-thread sets and memory windows — but it is enough for
// (a) the MRAPI metadata tree to expose per-partition resources and
// (b) tests/examples that pin an MRAPI domain to one partition.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "platform/topology.hpp"

namespace ompmca::platform {

struct MemoryWindow {
  std::uint64_t base = 0;
  std::uint64_t size = 0;

  std::uint64_t end() const { return base + size; }
  bool overlaps(const MemoryWindow& o) const {
    return base < o.end() && o.base < end();
  }
};

struct Partition {
  std::string name;
  std::vector<unsigned> hw_threads;  // global HW-thread ids owned
  MemoryWindow memory;
  std::vector<std::string> io_devices;
};

/// A validated set of partitions over one topology.
class HypervisorConfig {
 public:
  explicit HypervisorConfig(const Topology* topo) : topo_(topo) {}

  /// Adds a partition; fails when a HW thread or memory window is already
  /// owned, or a HW-thread id is out of range.
  Status add_partition(Partition p);

  const std::vector<Partition>& partitions() const { return partitions_; }

  /// Partition owning HW thread @p hw, or nullptr when unassigned.
  const Partition* owner_of(unsigned hw) const;

  /// Index of the named partition, or error.
  Result<std::size_t> find(const std::string& name) const;

  /// Convenience: one partition owning the whole board.
  static HypervisorConfig whole_board(const Topology* topo,
                                      std::uint64_t dram_bytes);

 private:
  const Topology* topo_;
  std::vector<Partition> partitions_;
};

}  // namespace ompmca::platform
