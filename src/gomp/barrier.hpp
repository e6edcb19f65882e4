// The team barrier: libGOMP's centralized sense-reversing barrier.
//
// Every team thread increments one arrival counter; the last arriver
// resets it, flips the sense word and wakes any parked waiter.  That is the
// whole algorithm — the paper's runtime is libGOMP's flat team on MRAPI,
// and a host whose CPUs share one last-level cache gives a combining tree
// or a second tier nothing to save (the T4240's two-tier barrier lives on
// only as a platform::CostModel prediction, bench/ablation_barriers).
//
// Layout: the arrival counter, the sense word and the Parker each own a
// cache line, as libGOMP's Linux barrier gives `awaited` its own line.
// Arrivals then bounce only the counter's line while waiters spin on the
// sense line, which changes once per phase.
//
// Waiting: through gomp/wait.hpp's spin_then_park, with a spin window
// resolved once at construction from the wait policy and the team width
// (zero — park at once — under OMP_WAIT_POLICY=passive and for teams wider
// than the host's online CPUs).  The releaser stores the new sense seq_cst
// and wakes only when a waiter actually parked, so a barrier whose threads
// all caught the release spinning costs no syscall.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#include "common/align.hpp"
#include "common/function_ref.hpp"
#include "gomp/icv.hpp"
#include "gomp/wait.hpp"

namespace ompmca::gomp {

/// The barrier a team runs, as reported in bench configs.  kCentral is the
/// only algorithm; kAuto is an "unknown yet" placeholder a caller may
/// initialise a variable with.
enum class BarrierKind { kCentral, kAuto };

std::string_view to_string(BarrierKind k);

class CentralBarrier {
 public:
  CentralBarrier(unsigned nthreads, WaitPolicy policy);

  CentralBarrier(const CentralBarrier&) = delete;
  CentralBarrier& operator=(const CentralBarrier&) = delete;

  /// Blocks until all size() threads have arrived.  Reusable.
  void arrive_and_wait();
  /// As arrive_and_wait(), but the last arriver runs @p last before it
  /// releases the others: @p last sees every thread's writes from before
  /// its arrival, and every thread sees @p last's writes once released.
  /// A reduction combines its partial values here, in one barrier.
  void arrive_and_wait(FunctionRef<void()> last);
  unsigned size() const { return n_; }

 private:
  friend struct CentralBarrierLayout;  // the layout guard in barrier_test

  template <typename Last>
  void arrive(Last&& last);

  // Arrivals: the counter shares its line with the width every arriver
  // reads right after its fetch_add.
  alignas(kCacheLineBytes) std::atomic<unsigned> count_{0};
  unsigned n_;
  // Release: waiters read the spin window, then poll the sense word.
  alignas(kCacheLineBytes) std::atomic<bool> sense_{false};
  std::uint64_t spin_ns_;
  alignas(kCacheLineBytes) Parker parker_;
};

}  // namespace ompmca::gomp
