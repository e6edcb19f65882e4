#include "gomp/wait.hpp"

#include <algorithm>

#if defined(__linux__)
#include <sched.h>
#endif

namespace ompmca::gomp {

namespace {

// OMP_WAIT_POLICY unset: catches back-to-back constructs (a region's
// fork, barrier and join gaps are a few µs at EPCC grain) without keeping
// an idle runtime's threads awake for long.
constexpr std::uint64_t kDefaultSpinNs = 50'000;
// OMP_WAIT_POLICY=active: threads are meant to own their CPUs.
constexpr std::uint64_t kActiveSpinNs = 20'000'000;

}  // namespace

namespace detail {
TeamThreads g_team_threads;
}  // namespace detail

void add_team_threads(unsigned threads) {
  // relaxed: a heuristic the spinners read; nothing is published by it.
  if (threads != 0) {
    detail::g_team_threads.n.fetch_add(threads, std::memory_order_relaxed);
  }
}

void remove_team_threads(unsigned threads) {
  if (threads != 0) {
    detail::g_team_threads.n.fetch_sub(threads, std::memory_order_relaxed);
  }
}

unsigned online_cpus() {
  // hardware_concurrency() reads sysfs on every call (a few µs); the
  // online set does not change under a running runtime.
  static const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  return n;
}

unsigned available_cpus() {
  // The affinity mask at first use, as libgomp's gomp_available_cpus: a
  // process restricted by taskset or a cpuset may run on fewer CPUs than
  // are online.
  static const unsigned n = [] {
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
      return std::min(static_cast<unsigned>(CPU_COUNT(&set)), online_cpus());
    }
#endif
    return online_cpus();
  }();
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
