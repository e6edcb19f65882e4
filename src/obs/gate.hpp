// The one gate word every observability sink sits behind.  Telemetry, the
// trace rings and the live monitor each own bits of it, and every hook of
// the event seam (event.hpp) reads it once: with every sink off, a hook
// costs one relaxed load and a predictable branch.  obs::enabled(),
// trace::enabled()/verbose()/mode() and monitor::armed() are views of it.
#pragma once

#include <atomic>

namespace ompmca::obs::gate {

inline constexpr unsigned kTelemetry = 1u << 0;  // counters, histograms,
                                                 // gauges, tenant meters
inline constexpr unsigned kTraceRing = 1u << 1;  // ring and full trace mode
inline constexpr unsigned kTraceFull = 1u << 2;  // full trace mode only
inline constexpr unsigned kTrace = kTraceRing | kTraceFull;
inline constexpr unsigned kMonitor = 1u << 3;    // live monitor armed

namespace detail {
extern std::atomic<unsigned> g_word;
}  // namespace detail

inline unsigned bits() {
  return detail::g_word.load(std::memory_order_relaxed);
}

/// Replaces the bits under @p mask with those of @p value, leaving the
/// other owners' bits alone (setters only).
void set(unsigned mask, unsigned value);

}  // namespace ompmca::obs::gate
