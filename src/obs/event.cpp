#include "obs/event.hpp"

#include "obs/monitor.hpp"

namespace ompmca::obs {

namespace gate {

namespace detail {
std::atomic<unsigned> g_word{0};
}  // namespace detail

void set(unsigned mask, unsigned value) {
  unsigned cur = detail::g_word.load(std::memory_order_relaxed);
  while (!detail::g_word.compare_exchange_weak(
      cur, (cur & ~mask) | (value & mask), std::memory_order_relaxed)) {
  }
}

}  // namespace gate

namespace detail {

void deliver(Event e, unsigned bits, std::uint64_t begin_ns,
             std::uint64_t end_ns, std::uint64_t a0, std::uint64_t a1,
             bool span) {
  const EventSinks& s = sinks(e);
  if ((bits & gate::kTelemetry) != 0) {
    if (s.counter != Counter::kCount) add_counter(s.counter, 1);
    if (s.hist != Hist::kCount) record_hist(s.hist, end_ns - begin_ns);
    if (s.gauge != Gauge::kCount) raise_gauge(s.gauge, a0);
    if (s.tenant == TenantSink::kRegion) {
      tenant::detail::on_region_slow(end_ns - begin_ns, a0 != 0);
    } else if (s.tenant == TenantSink::kLeaseWait) {
      tenant::detail::add_lease_wait_slow(end_ns - begin_ns);
    }
  }
  if ((bits & gate::kTrace) != 0) {
    trace::detail::emit(s.trace, span ? begin_ns : end_ns, end_ns, a0, a1);
  }
}

}  // namespace detail

}  // namespace ompmca::obs
