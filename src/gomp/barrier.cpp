#include "gomp/barrier.hpp"

#include <cassert>

#include "check/check.hpp"

namespace ompmca::gomp {

std::string_view to_string(BarrierKind k) {
  switch (k) {
    case BarrierKind::kCentral: return "central";
    case BarrierKind::kAuto: return "auto";
  }
  return "?";
}

CentralBarrier::CentralBarrier(unsigned nthreads, WaitPolicy policy)
    : n_(nthreads), spin_ns_(spin_window_ns(policy, nthreads)) {
  assert(nthreads >= 1);
}

void CentralBarrier::arrive_and_wait() {
  arrive([] {});
}

void CentralBarrier::arrive_and_wait(FunctionRef<void()> last) {
  arrive(last);
}

template <typename Last>
void CentralBarrier::arrive(Last&& last) {
  OMPMCA_CHECK_BARRIER_HELD();
  const bool my_sense = !sense_.load(std::memory_order_relaxed);
  // acq_rel: the last arriver's increment reads every earlier one, so
  // last() sees all the writes the team made before arriving.
  if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
    last();
    count_.store(0, std::memory_order_relaxed);
    // seq_cst: releaser half of the Parker's Dekker pair (the sense store
    // precedes wake()'s sleeper check); it also publishes last()'s writes.
    sense_.store(my_sense, std::memory_order_seq_cst);
    parker_.wake();
    return;
  }
  spin_then_park(kBarrierSite, spin_ns_, parker_, [&] {
    // seq_cst: the re-check half of the Parker's Dekker pair.
    return sense_.load(std::memory_order_seq_cst) == my_sense;
  });
}

}  // namespace ompmca::gomp
