#include "gomp/wait.hpp"

#include <algorithm>

namespace ompmca::gomp {

namespace {

// OMP_WAIT_POLICY unset: catches back-to-back constructs (a region's
// fork, barrier and join gaps are a few µs at EPCC grain) without keeping
// an idle runtime's threads awake for long.
constexpr std::uint64_t kDefaultSpinNs = 50'000;
// OMP_WAIT_POLICY=active: threads are meant to own their CPUs.
constexpr std::uint64_t kActiveSpinNs = 20'000'000;

}  // namespace

unsigned online_cpus() {
  // hardware_concurrency() reads sysfs on every call (a few µs); the
  // online set does not change under a running runtime.
  static const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  return n;
}

std::uint64_t spin_window_ns(WaitPolicy policy, unsigned width) {
  if (width > online_cpus()) return 0;
  switch (policy) {
    case WaitPolicy::kDefault: return kDefaultSpinNs;
    case WaitPolicy::kActive: return kActiveSpinNs;
    case WaitPolicy::kPassive: return 0;
  }
  return 0;
}

}  // namespace ompmca::gomp
