#include "platform/partition.hpp"

#include <algorithm>

namespace ompmca::platform {

Status HypervisorConfig::add_partition(Partition p) {
  for (unsigned hw : p.hw_threads) {
    if (hw >= topo_->num_hw_threads()) return Status::kInvalidArgument;
    if (owner_of(hw) != nullptr) return Status::kInvalidArgument;
  }
  // HW threads must be unique within the partition too.
  auto sorted = p.hw_threads;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    return Status::kInvalidArgument;
  if (p.memory.size > 0) {
    for (const auto& existing : partitions_) {
      if (existing.memory.size > 0 && existing.memory.overlaps(p.memory))
        return Status::kInvalidArgument;
    }
  }
  partitions_.push_back(std::move(p));
  return Status::kSuccess;
}

const Partition* HypervisorConfig::owner_of(unsigned hw) const {
  for (const auto& p : partitions_) {
    if (std::find(p.hw_threads.begin(), p.hw_threads.end(), hw) !=
        p.hw_threads.end())
      return &p;
  }
  return nullptr;
}

Result<std::size_t> HypervisorConfig::find(const std::string& name) const {
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    if (partitions_[i].name == name) return i;
  }
  return Status::kInvalidArgument;
}

HypervisorConfig HypervisorConfig::whole_board(const Topology* topo,
                                               std::uint64_t dram_bytes) {
  HypervisorConfig cfg(topo);
  Partition p;
  p.name = "linux-guest";
  for (unsigned i = 0; i < topo->num_hw_threads(); ++i)
    p.hw_threads.push_back(i);
  p.memory = {0, dram_bytes};
  p.io_devices = {"duart", "etsec", "sdhc"};
  (void)cfg.add_partition(std::move(p));  // fresh config; cannot collide
  return cfg;
}

}  // namespace ompmca::platform
