// Runtime-wide telemetry: lock-free counters, duration histograms and
// high-water gauges threaded through every layer of the stack.
//
// The paper's evaluation (§6, Table I and Figure 4) is entirely about
// measuring the runtime's *own* overhead, so the runtime must be able to
// observe itself without perturbing what it observes:
//
//  * every thread writes to its own cache-line-padded slab (no sharing on
//    the hot path, no locks); slabs are merged only at snapshot time;
//  * durations land in power-of-two-bucket histograms (bucket b >= 1 covers
//    [2^(b-1), 2^b) nanoseconds), so recording is a handful of ALU ops;
//  * with telemetry disabled every hook compiles down to one relaxed
//    atomic load and a predictable branch — cheap enough that Table I
//    ratios are unaffected.
//
// The runtime records through the event seam (event.hpp), not directly.
//
// Enable with OMPMCA_TELEMETRY=json (JSON report on process exit, or
// explicitly via Registry::maybe_write_report) or programmatically with
// set_enabled(true) / ScopedEnable (what the tests use).  The report goes
// to OMPMCA_TELEMETRY_FILE when set, stderr otherwise.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/align.hpp"
#include "obs/gate.hpp"

namespace ompmca::obs {

// --- metric identifiers -------------------------------------------------------

/// Monotonic event counters, one slot per thread slab.
enum class Counter : unsigned {
  // gomp — per-directive entries.
  kGompParallel,
  kGompFor,
  kGompBarrier,
  kGompSingle,
  kGompCritical,
  kGompCriticalContended,
  kGompReduction,
  kGompTaskSpawned,
  kGompTaskloop,
  // Work-stealing task deques.
  kGompTaskStolen,
  kGompPoolDispatch,
  // Teams that ran narrower than requested because worker launch failed
  // (graceful degradation instead of a deadlocked barrier).
  kGompTeamDegraded,
  // Regions dispatched while another master's region was already in flight
  // on the same pool (the multiplexed-dispatch witness).
  kGompTeamMultiplexed,
  // Leases that came back narrower than requested because concurrent
  // masters held the workers past the bounded lease wait.
  kGompLeaseDegraded,
  // Work-stealing loop scheduler (dynamic/guided distributed ranges).
  kGompLoopStealAttempt,
  kGompLoopSteal,
  // mrapi — the MCA service layer.
  kMrapiMutexAcquire,
  kMrapiMutexContended,
  kMrapiNodeCreate,
  kMrapiNodeRetire,
  kMrapiArenaAllocate,
  kMrapiArenaAllocateFailed,
  kMrapiArenaRelease,
  // obs — the live monitor's own meters (src/obs/monitor.cpp).
  kObsMonitorTick,
  kObsStallDetected,
  kCount
};

/// Duration histograms (nanoseconds, power-of-two buckets).
enum class Hist : unsigned {
  kGompParallelNs,
  kGompForNs,
  kGompSingleNs,
  kGompCriticalNs,
  kGompReductionNs,
  kGompBarrierWaitCentralNs,
  kGompDoorbellWakeNs,  // doorbell ring -> worker starts the region body
  kGompLeaseWaitNs,     // time a master waited for contended worker leases
  kMrapiMutexAcquireNs,
  kMrapiArenaAllocateNs,
  kMrapiArenaReleaseNs,
  kCount
};

/// High-water-mark gauges (global, updated with a fetch-max loop).
enum class Gauge : unsigned {
  kMrapiArenaBytesInUseHwm,
  kGompTaskQueueDepthHwm,
  kCount
};

inline constexpr unsigned kNumCounters = static_cast<unsigned>(Counter::kCount);
inline constexpr unsigned kNumHists = static_cast<unsigned>(Hist::kCount);
inline constexpr unsigned kNumGauges = static_cast<unsigned>(Gauge::kCount);
inline constexpr unsigned kHistBuckets = 40;  // covers up to ~9 minutes in ns

/// Dotted metric names used in the JSON report.
std::string_view name(Counter c);
std::string_view name(Hist h);
std::string_view name(Gauge g);

// --- the enabled switch: the telemetry bit of the gate word ------------------

namespace detail {
void add_counter(Counter c, std::uint64_t n);
void record_hist(Hist h, std::uint64_t ns);
void raise_gauge(Gauge g, std::uint64_t value);
}  // namespace detail

/// One relaxed load of the gate word.
inline bool enabled() { return (gate::bits() & gate::kTelemetry) != 0; }

void set_enabled(bool on);

// --- recording hooks ----------------------------------------------------------

inline void count(Counter c, std::uint64_t n = 1) {
  if (!enabled()) return;
  detail::add_counter(c, n);
}

/// Records a duration that was measured by the caller.
inline void record(Hist h, std::uint64_t ns) {
  if (!enabled()) return;
  detail::record_hist(h, ns);
}

inline void gauge_max(Gauge g, std::uint64_t value) {
  if (!enabled()) return;
  detail::raise_gauge(g, value);
}

/// Registers an extra top-level section for the JSON report: rendered as
/// `"key": <fn()>` after the histograms.  @p fn must return a complete JSON
/// value and stay callable for the process lifetime (the check subsystem
/// publishes its violation report this way).  Re-registering a key
/// replaces the previous provider.
void register_report_section(std::string_view key, std::string (*fn)());

/// Appends @p v in decimal: the number format of every report section.
inline void append_u64(std::string& s, std::uint64_t v) {
  s += std::to_string(v);
}

// --- snapshot / report --------------------------------------------------------

struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t max_ns = 0;
  std::array<std::uint64_t, kHistBuckets> buckets{};

  /// Exclusive upper bound (ns) of bucket @p b: 1 for b == 0, else 2^b.
  static std::uint64_t bucket_upper_ns(unsigned b) {
    return b == 0 ? 1 : (std::uint64_t{1} << b);
  }

  /// Bucket index for a duration: 0 holds zero samples, bucket b >= 1
  /// covers [2^(b-1), 2^b); the last bucket absorbs the tail.
  static unsigned bucket_of(std::uint64_t ns) {
    if (ns == 0) return 0;
    const unsigned b = static_cast<unsigned>(std::bit_width(ns));
    return b < kHistBuckets ? b : kHistBuckets - 1;
  }

  /// Records @p ns into this (non-atomic) histogram.  For single-threaded
  /// aggregation — benches and the monitor's delta math; the hot-path slabs
  /// stay atomic and merge into this type at snapshot time.
  void record(std::uint64_t ns);

  /// The q-quantile (q in [0, 1]) in nanoseconds, linearly interpolated
  /// inside the power-of-two bucket that holds rank q*count and clamped to
  /// max_ns.  Resolution is bounded by the bucket width (a factor of two),
  /// which is exactly the precision the report's buckets already publish.
  /// Returns 0 for an empty histogram.
  double quantile(double q) const;

  /// Bucket-wise accumulation (merging per-thread or per-tenant samples).
  HistogramData& operator+=(const HistogramData& o);
};

namespace detail {

/// A HistogramData one thread records into and any thread reads (relaxed
/// atomics): the storage of the per-thread slabs and of the tenant meters.
struct AtomicHistogram {
  std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum_ns{0};
  std::atomic<std::uint64_t> max_ns{0};

  void record(std::uint64_t ns);
  /// Adds the samples recorded so far into @p out.
  void merge_into(HistogramData& out) const;
  void reset();
};

}  // namespace detail

/// A merged, self-consistent-enough view of all thread slabs (individual
/// slots are read relaxed; exactness across slots is not a goal).
struct Snapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::uint64_t, kNumGauges> gauges{};
  std::array<HistogramData, kNumHists> hists{};
  unsigned threads_observed = 0;

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<unsigned>(c)];
  }
  std::uint64_t gauge(Gauge g) const {
    return gauges[static_cast<unsigned>(g)];
  }
  const HistogramData& hist(Hist h) const {
    return hists[static_cast<unsigned>(h)];
  }
};

class Registry {
 public:
  static Registry& instance();

  Snapshot snapshot() const;

  /// The snapshot rendered as a JSON object (histograms list only their
  /// occupied buckets).
  std::string json(std::string_view tag) const;

  /// Unconditionally writes the JSON report to @p out (defaults to the
  /// OMPMCA_TELEMETRY_FILE / stderr sink).
  void write_report(std::string_view tag, std::FILE* out = nullptr);

  /// Redirects subsequent reports to @p path (empty = back to stderr).
  /// Programmatic equivalent of OMPMCA_TELEMETRY_FILE; the first write to a
  /// path truncates it, later writes append (multi-report runs accumulate).
  void set_report_path(std::string path);

  /// Writes the report only when OMPMCA_TELEMETRY=json; benches call this
  /// so their telemetry rides alongside the printed tables.
  void maybe_write_report(std::string_view tag);

  /// Zeroes every slab and gauge (tests only — racing writers make the
  /// result approximate).
  void reset();

  /// True when OMPMCA_TELEMETRY=json (report-on-exit mode).
  bool json_mode() const;

 private:
  Registry();
  struct Impl;
  Impl* impl_;  // leaked intentionally: threads may outlive static dtors

  friend void detail::add_counter(Counter, std::uint64_t);
  friend void detail::record_hist(Hist, std::uint64_t);
  friend void detail::raise_gauge(Gauge, std::uint64_t);
  friend void register_report_section(std::string_view, std::string (*)());
};

/// Test helper: enables telemetry and resets all metrics for the scope.
class ScopedEnable {
 public:
  ScopedEnable() : was_(enabled()) {
    Registry::instance().reset();
    set_enabled(true);
  }
  ~ScopedEnable() { set_enabled(was_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool was_;
};

}  // namespace ompmca::obs
