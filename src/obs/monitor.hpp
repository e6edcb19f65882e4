// Live runtime health monitor: periodic delta metrics export, per-tenant
// attribution, and a stall watchdog.
//
// Every observability surface before this one fired at exit — the
// OMPMCA_TELEMETRY=json report and the OMPMCA_TRACE export are both
// post-mortem.  A server sustaining bursts of regions for minutes (the
// ROADMAP's multi-tenant scenario, and exactly the long-running embedded
// deployment the paper's MCA runtime targets) is a black box while it runs.
// The monitor closes that gap with three pieces:
//
//  * a sampler thread, armed by OMPMCA_MONITOR=<interval_ms>, that takes
//    periodic *delta* snapshots of the telemetry registry — counters become
//    rates, histograms become per-interval p50/p95/p99 via
//    HistogramData::quantile() — and streams them to OMPMCA_MONITOR_FILE as
//    JSON Lines (append, one object per tick) or Prometheus text exposition
//    (rewrite-in-place, the node_exporter textfile convention), selected by
//    OMPMCA_MONITOR_FORMAT=jsonl|prom;
//  * per-tenant attribution: every master thread owns a TenantMeter
//    (regions, dispatch-latency histogram, degraded-width and lease-wait
//    totals), merged into both the periodic stream and the shutdown
//    report's "tenants" section, so one tenant's tail latency is separable
//    from its neighbours' load;
//  * a stall watchdog: the pool registers a probe that reports in-flight
//    dispatch slots older than OMPMCA_STALL_NS together with the leased
//    workers' heartbeat parity.  Each hit bumps obs.stall_detected, prints
//    ONE deduped stderr report naming the slot/master/workers, and dumps
//    the flight record through the existing crash-flight-record path
//    (warn-only; OMPMCA_STALL_ABORT=1 aborts instead).
//
// Cost discipline matches trace/telemetry: with OMPMCA_MONITOR unset every
// hot-path hook is one relaxed load and a predictable branch — the worker
// heartbeat bumps and the slot's monitor mirror stores happen only when
// armed() is true, so an unmonitored run executes zero extra atomic writes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"

namespace ompmca::obs {

// --- per-tenant attribution ---------------------------------------------------
//
// A "tenant" is a master thread forking top-level regions through a
// runtime (PR 9's multiplexed dispatch made concurrent masters first-class;
// this makes them individually observable).  Meters are thread-local slabs,
// registered on first use, merged only at snapshot time — the same
// zero-sharing discipline as the telemetry registry.
namespace tenant {

struct Snap {
  std::uint64_t id = 0;             // registration order, 1-based
  std::uint64_t regions = 0;        // top-level regions forked
  std::uint64_t degraded_width = 0; // regions granted less width than asked
  std::uint64_t lease_wait_ns = 0;  // total contended lease wait
  HistogramData dispatch;           // fork dispatch latency (prepare + ring)
};

namespace detail {
void on_region_slow(std::uint64_t dispatch_ns, bool degraded);
void add_lease_wait_slow(std::uint64_t ns);
}  // namespace detail

/// One top-level region forked by the calling master: @p dispatch_ns is the
/// prepare-to-ring latency, @p degraded whether the granted width fell
/// short of the request.  One relaxed load when telemetry is off.
inline void on_region(std::uint64_t dispatch_ns, bool degraded) {
  if (!enabled()) return;
  detail::on_region_slow(dispatch_ns, degraded);
}

/// Contended worker-lease wait attributed to the calling master.
inline void add_lease_wait(std::uint64_t ns) {
  if (!enabled()) return;
  detail::add_lease_wait_slow(ns);
}

/// The calling thread's tenant id, registering its meter on first use
/// (cold path; masters only).
std::uint64_t current_id();

/// Merged view of every tenant meter.
std::vector<Snap> snapshot();

/// The "tenants" telemetry report section (registered automatically once
/// any tenant meters exist): {"<id>": {regions, dispatch percentiles, ...}}.
std::string report_json();

/// Tests/benches only: zeroes every registered meter.
void reset();

}  // namespace tenant

namespace monitor {

enum class Format { kJsonl, kProm };

struct Options {
  std::uint64_t interval_ms = 100;
  Format format = Format::kJsonl;
  /// Output sink; empty = stderr.  jsonl truncates on start then appends a
  /// line per tick; prom rewrites the file in place each tick.
  std::string path;
  /// Watchdog threshold: an in-flight region older than this is reported
  /// once.  0 disables the watchdog.
  std::uint64_t stall_ns = 1'000'000'000;
  bool abort_on_stall = false;
};

/// One relaxed load of the gate word; gates the pool's heartbeat bumps and
/// slot mirrors.
inline bool armed() { return (gate::bits() & gate::kMonitor) != 0; }

// --- stall sources ------------------------------------------------------------

/// One in-flight region the watchdog flagged: identity (seq is the pool's
/// region key, never reused, the dedup key), age, the master's tenant id, and the leased
/// worker set with its busy subset (heartbeat parity: a busy worker is
/// inside the region body right now — a stall with busy workers is a wedged
/// body, one with none is a lost wakeup or a join leak).
struct StallRegion {
  std::uint64_t seq = 0;
  unsigned slot = 0;
  std::uint64_t start_ns = 0;  // monotonic dispatch timestamp
  std::uint64_t master = 0;    // tenant id; 0 = unattributed
  std::uint64_t workers = 0;   // leased worker-index bitmap
  std::uint64_t busy = 0;      // subset currently inside the region body
  unsigned active = 0;         // participants not yet joined
};

/// Appends every region in @p ctx older than @p stall_ns to @p out.
using StallProbe = void (*)(void* ctx, std::uint64_t now_ns,
                            std::uint64_t stall_ns,
                            std::vector<StallRegion>& out);

/// Registers/unregisters a stall source (the pool, in its ctor/dtor).
/// unregister blocks until any in-progress probe of @p ctx returns, so a
/// source may die immediately after it.
void register_stall_source(void* ctx, StallProbe probe);
void unregister_stall_source(void* ctx);

// --- samples ------------------------------------------------------------------

struct TenantDelta {
  std::uint64_t id = 0;
  std::uint64_t regions = 0;         // this interval
  std::uint64_t regions_total = 0;
  std::uint64_t degraded_width = 0;  // this interval
  std::uint64_t lease_wait_ns = 0;   // this interval
  HistogramData dispatch;            // this interval's latency histogram
};

/// One delta snapshot.  Totals ride along because the Prometheus rendering
/// needs cumulative counters while JSONL reports per-interval deltas.
struct Sample {
  std::uint64_t tick = 0;      // 1-based
  std::uint64_t mono_ns = 0;   // monotonic clock — the trace timebase
  std::uint64_t wall_ms = 0;   // unix epoch milliseconds, for humans
  double interval_s = 0.0;     // measured, not configured
  std::array<std::uint64_t, kNumCounters> counter_total{};
  std::array<std::uint64_t, kNumCounters> counter_delta{};
  std::array<HistogramData, kNumHists> hist_total{};
  std::array<HistogramData, kNumHists> hist_delta{};
  std::vector<TenantDelta> tenants;
};

/// The delta engine, separable from the sampler thread so tests can drive
/// it synchronously: every take() returns what changed since the previous
/// take() (the first take() baselines against construction time).
class DeltaSampler {
 public:
  DeltaSampler();
  Sample take();

 private:
  std::uint64_t tick_ = 0;
  std::uint64_t prev_mono_ns_ = 0;
  Snapshot prev_;
  std::vector<tenant::Snap> prev_tenants_;
};

/// @p s rendered as one compact JSON object (no trailing newline): only
/// counters/histograms that moved this interval appear, counters carry
/// delta + rate_per_s, histograms carry count/p50/p95/p99/max.
std::string to_jsonl(const Sample& s);

/// @p s rendered as Prometheus text exposition: cumulative *_total
/// counters, summary-style quantiles over the last interval, per-tenant
/// series labelled {tenant="<id>"}.
std::string to_prom(const Sample& s);

// --- the sampler thread -------------------------------------------------------

/// Starts the sampler thread (arming telemetry recording if it was off).
/// Returns false when a monitor is already running.
bool start(const Options& opts);

/// Stops the sampler: takes one final sample (so short runs still export),
/// runs a last watchdog pass, joins the thread.  Safe to call when not
/// running; safe while regions are in flight.
void stop();

bool running();

/// Ticks emitted since start (includes the final sample from stop()).
std::uint64_t ticks();

/// The most recent rendered sample (jsonl: the last line; prom: the last
/// exposition).  Benches fold this into their artifacts.
std::string last_rendered_sample();

}  // namespace monitor

}  // namespace ompmca::obs
