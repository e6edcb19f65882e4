#include "obs/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/env.hpp"
#include "common/locks.hpp"

namespace ompmca::obs {

namespace {

void atomic_fetch_max(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur < value &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

/// Per-thread metric slab.  One writer (the owning thread), many relaxed
/// readers (snapshots); alignment keeps neighbouring slabs off each other's
/// cache lines.
struct alignas(kCacheLineBytes) ThreadSlab {
  std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
  std::array<detail::AtomicHistogram, kNumHists> hists{};
};

enum class Mode { kOff, kOn, kJson };

}  // namespace

// --- names --------------------------------------------------------------------

std::string_view name(Counter c) {
  switch (c) {
    case Counter::kGompParallel: return "gomp.parallel";
    case Counter::kGompFor: return "gomp.for";
    case Counter::kGompBarrier: return "gomp.barrier";
    case Counter::kGompSingle: return "gomp.single";
    case Counter::kGompCritical: return "gomp.critical";
    case Counter::kGompCriticalContended: return "gomp.critical_contended";
    case Counter::kGompReduction: return "gomp.reduction";
    case Counter::kGompTaskSpawned: return "gomp.task_spawned";
    case Counter::kGompTaskloop: return "gomp.taskloop";
    case Counter::kGompTaskStolen: return "gomp.task_stolen";
    case Counter::kGompPoolDispatch: return "gomp.pool_dispatch";
    case Counter::kGompTeamDegraded: return "gomp.team_degraded";
    case Counter::kGompTeamMultiplexed: return "gomp.team_multiplexed";
    case Counter::kGompLeaseDegraded: return "gomp.lease_degraded";
    case Counter::kGompLoopStealAttempt: return "gomp.loop_steal_attempt";
    case Counter::kGompLoopSteal: return "gomp.loop_steal";
    case Counter::kMrapiMutexAcquire: return "mrapi.mutex_acquire";
    case Counter::kMrapiMutexContended: return "mrapi.mutex_contended";
    case Counter::kMrapiNodeCreate: return "mrapi.node_create";
    case Counter::kMrapiNodeRetire: return "mrapi.node_retire";
    case Counter::kMrapiArenaAllocate: return "mrapi.arena_allocate";
    case Counter::kMrapiArenaAllocateFailed:
      return "mrapi.arena_allocate_failed";
    case Counter::kMrapiArenaRelease: return "mrapi.arena_release";
    case Counter::kObsMonitorTick: return "obs.monitor_tick";
    case Counter::kObsStallDetected: return "obs.stall_detected";
    case Counter::kCount: break;
  }
  return "?";
}

std::string_view name(Hist h) {
  switch (h) {
    case Hist::kGompParallelNs: return "gomp.parallel_ns";
    case Hist::kGompForNs: return "gomp.for_ns";
    case Hist::kGompSingleNs: return "gomp.single_ns";
    case Hist::kGompCriticalNs: return "gomp.critical_ns";
    case Hist::kGompReductionNs: return "gomp.reduction_ns";
    case Hist::kGompBarrierWaitCentralNs:
      return "gomp.barrier_wait.central_ns";
    case Hist::kGompDoorbellWakeNs: return "gomp.doorbell_wake_ns";
    case Hist::kGompLeaseWaitNs: return "gomp.lease_wait_ns";
    case Hist::kMrapiMutexAcquireNs: return "mrapi.mutex_acquire_ns";
    case Hist::kMrapiArenaAllocateNs: return "mrapi.arena_allocate_ns";
    case Hist::kMrapiArenaReleaseNs: return "mrapi.arena_release_ns";
    case Hist::kCount: break;
  }
  return "?";
}

std::string_view name(Gauge g) {
  switch (g) {
    case Gauge::kMrapiArenaBytesInUseHwm:
      return "mrapi.arena_bytes_in_use_hwm";
    case Gauge::kGompTaskQueueDepthHwm: return "gomp.task_queue_depth_hwm";
    case Gauge::kCount: break;
  }
  return "?";
}

// --- HistogramData ------------------------------------------------------------

void HistogramData::record(std::uint64_t ns) {
  buckets[bucket_of(ns)] += 1;
  count += 1;
  sum_ns += ns;
  if (ns > max_ns) max_ns = ns;
}

double HistogramData::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (unsigned b = 0; b < kHistBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += buckets[b];
    if (static_cast<double>(cum) >= target) {
      // Bucket 0 holds zero-duration samples; bucket b >= 1 covers
      // [2^(b-1), 2^b).  Interpolate by rank inside the bucket.
      const double lower =
          b == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << (b - 1));
      const double upper = static_cast<double>(bucket_upper_ns(b));
      const double frac =
          (target - before) / static_cast<double>(buckets[b]);
      double v = lower + frac * (upper - lower);
      if (max_ns > 0 && v > static_cast<double>(max_ns)) {
        v = static_cast<double>(max_ns);
      }
      return v;
    }
  }
  return static_cast<double>(max_ns);
}

HistogramData& HistogramData::operator+=(const HistogramData& o) {
  for (unsigned b = 0; b < kHistBuckets; ++b) buckets[b] += o.buckets[b];
  count += o.count;
  sum_ns += o.sum_ns;
  if (o.max_ns > max_ns) max_ns = o.max_ns;
  return *this;
}

// --- AtomicHistogram ----------------------------------------------------------

void detail::AtomicHistogram::record(std::uint64_t ns) {
  buckets[HistogramData::bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
  count.fetch_add(1, std::memory_order_relaxed);
  sum_ns.fetch_add(ns, std::memory_order_relaxed);
  atomic_fetch_max(max_ns, ns);
}

void detail::AtomicHistogram::merge_into(HistogramData& out) const {
  for (unsigned b = 0; b < kHistBuckets; ++b) {
    out.buckets[b] += buckets[b].load(std::memory_order_relaxed);
  }
  out.count += count.load(std::memory_order_relaxed);
  out.sum_ns += sum_ns.load(std::memory_order_relaxed);
  out.max_ns = std::max(out.max_ns, max_ns.load(std::memory_order_relaxed));
}

void detail::AtomicHistogram::reset() {
  for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
  count.store(0, std::memory_order_relaxed);
  sum_ns.store(0, std::memory_order_relaxed);
  max_ns.store(0, std::memory_order_relaxed);
}

// --- Registry -----------------------------------------------------------------

struct Registry::Impl {
  // slabs_mu guards the deque; the slabs' atomics are read lock-free.
  mutable CapMutex slabs_mu;
  std::deque<std::unique_ptr<ThreadSlab>> slabs
      OMPMCA_GUARDED_BY(slabs_mu);  // stable addresses

  mutable CapMutex sections_mu;
  std::vector<std::pair<std::string, std::string (*)()>> sections
      OMPMCA_GUARDED_BY(sections_mu);

  std::array<std::atomic<std::uint64_t>, kNumGauges> gauges{};

  Mode mode = Mode::kOff;
  mutable CapMutex report_mu;             // path + truncation state
  std::string report_path OMPMCA_GUARDED_BY(report_mu);  // empty = stderr
  bool report_path_fresh OMPMCA_GUARDED_BY(report_mu) =
      true;                               // first write truncates
  std::atomic<bool> reported{false};      // explicit report suppresses atexit

  ThreadSlab& local_slab() {
    thread_local ThreadSlab* slab = [this] {
      auto owned = std::make_unique<ThreadSlab>();
      ThreadSlab* raw = owned.get();
      MutexLock lk(slabs_mu);
      slabs.push_back(std::move(owned));
      return raw;
    }();
    return *slab;
  }
};

Registry& Registry::instance() {
  // Leaked singleton: worker threads (and atexit hooks) may touch metrics
  // after static destructors would have run.
  static Registry* reg = new Registry();
  return *reg;
}

namespace {
// The hooks never touch the Registry while disabled (one relaxed load of
// the gate word only), so OMPMCA_TELEMETRY must be parsed — and the atexit
// report registered — before main() rather than lazily on first use.
[[maybe_unused]] const bool g_bootstrap = (Registry::instance(), true);
}  // namespace

Registry::Registry() : impl_(new Impl()) {
  if (auto v = env_string("OMPMCA_TELEMETRY")) {
    if (iequals(*v, "json")) {
      impl_->mode = Mode::kJson;
    } else if (iequals(*v, "on") || iequals(*v, "1") ||
               iequals(*v, "true")) {
      impl_->mode = Mode::kOn;
    }
  }
  if (auto f = env_string("OMPMCA_TELEMETRY_FILE")) impl_->report_path = *f;
  if (impl_->mode != Mode::kOff) gate::set(gate::kTelemetry, gate::kTelemetry);
  if (impl_->mode == Mode::kJson) {
    std::atexit([] {
      Registry& reg = Registry::instance();
      if (!reg.impl_->reported.load(std::memory_order_acquire)) {
        reg.write_report("atexit");
      }
    });
  }
}

bool Registry::json_mode() const { return impl_->mode == Mode::kJson; }

void Registry::reset() {
  MutexLock lk(impl_->slabs_mu);
  for (auto& slab : impl_->slabs) {
    for (auto& c : slab->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : slab->hists) h.reset();
  }
  for (auto& g : impl_->gauges) g.store(0, std::memory_order_relaxed);
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  MutexLock lk(impl_->slabs_mu);
  out.threads_observed = static_cast<unsigned>(impl_->slabs.size());
  for (const auto& slab : impl_->slabs) {
    for (unsigned c = 0; c < kNumCounters; ++c) {
      out.counters[c] += slab->counters[c].load(std::memory_order_relaxed);
    }
    for (unsigned h = 0; h < kNumHists; ++h) {
      slab->hists[h].merge_into(out.hists[h]);
    }
  }
  for (unsigned g = 0; g < kNumGauges; ++g) {
    out.gauges[g] = impl_->gauges[g].load(std::memory_order_relaxed);
  }
  return out;
}

namespace {

void append(std::string& s, std::string_view v) { s.append(v); }

}  // namespace

std::string Registry::json(std::string_view tag) const {
  const Snapshot snap = snapshot();
  std::string s;
  s.reserve(4096);
  append(s, "{\n  \"telemetry\": \"ompmca\",\n  \"tag\": \"");
  append(s, tag);
  append(s, "\",\n  \"threads_observed\": ");
  append_u64(s, snap.threads_observed);
  append(s, ",\n  \"counters\": {");
  bool first = true;
  for (unsigned c = 0; c < kNumCounters; ++c) {
    append(s, first ? "\n" : ",\n");
    first = false;
    append(s, "    \"");
    append(s, name(static_cast<Counter>(c)));
    append(s, "\": ");
    append_u64(s, snap.counters[c]);
  }
  append(s, "\n  },\n  \"gauges\": {");
  first = true;
  for (unsigned g = 0; g < kNumGauges; ++g) {
    append(s, first ? "\n" : ",\n");
    first = false;
    append(s, "    \"");
    append(s, name(static_cast<Gauge>(g)));
    append(s, "\": ");
    append_u64(s, snap.gauges[g]);
  }
  append(s, "\n  },\n  \"histograms\": {");
  first = true;
  for (unsigned h = 0; h < kNumHists; ++h) {
    const HistogramData& hd = snap.hists[h];
    append(s, first ? "\n" : ",\n");
    first = false;
    append(s, "    \"");
    append(s, name(static_cast<Hist>(h)));
    append(s, "\": {\"count\": ");
    append_u64(s, hd.count);
    append(s, ", \"sum_ns\": ");
    append_u64(s, hd.sum_ns);
    append(s, ", \"max_ns\": ");
    append_u64(s, hd.max_ns);
    append(s, ", \"buckets\": [");
    bool first_bucket = true;
    for (unsigned b = 0; b < kHistBuckets; ++b) {
      if (hd.buckets[b] == 0) continue;
      if (!first_bucket) append(s, ", ");
      first_bucket = false;
      append(s, "{\"le_ns\": ");
      append_u64(s, HistogramData::bucket_upper_ns(b));
      append(s, ", \"count\": ");
      append_u64(s, hd.buckets[b]);
      append(s, "}");
    }
    append(s, "]}");
  }
  append(s, "\n  }");
  {
    MutexLock sections_lk(impl_->sections_mu);
    for (const auto& [key, fn] : impl_->sections) {
      append(s, ",\n  \"");
      append(s, key);
      append(s, "\": ");
      append(s, fn());
    }
  }
  append(s, "\n}\n");
  return s;
}

void Registry::write_report(std::string_view tag, std::FILE* out) {
  const std::string report = json(tag);
  std::FILE* f = out;
  bool close = false;
  if (f == nullptr) {
    MutexLock lk(impl_->report_mu);
    if (!impl_->report_path.empty()) {
      // First report to a path truncates (a stale file from a previous run
      // would corrupt parsers); subsequent reports in the same run append.
      f = std::fopen(impl_->report_path.c_str(),
                     impl_->report_path_fresh ? "w" : "a");
      close = f != nullptr;
      if (close) impl_->report_path_fresh = false;
    }
    if (f == nullptr) f = stderr;
  }
  std::fwrite(report.data(), 1, report.size(), f);
  std::fflush(f);
  if (close) std::fclose(f);
  impl_->reported.store(true, std::memory_order_release);
}

void Registry::set_report_path(std::string path) {
  MutexLock lk(impl_->report_mu);
  impl_->report_path = std::move(path);
  impl_->report_path_fresh = true;
}

void Registry::maybe_write_report(std::string_view tag) {
  if (json_mode()) write_report(tag);
}

// --- hot-path backends --------------------------------------------------------

void set_enabled(bool on) {
  (void)Registry::instance();  // make sure atexit/env setup has run
  gate::set(gate::kTelemetry, on ? gate::kTelemetry : 0);
}

namespace detail {

void add_counter(Counter c, std::uint64_t n) {
  Registry::instance()
      .impl_->local_slab()
      .counters[static_cast<unsigned>(c)]
      .fetch_add(n, std::memory_order_relaxed);
}

void record_hist(Hist h, std::uint64_t ns) {
  Registry::instance().impl_->local_slab().hists[static_cast<unsigned>(h)]
      .record(ns);
}

void raise_gauge(Gauge g, std::uint64_t value) {
  atomic_fetch_max(
      Registry::instance().impl_->gauges[static_cast<unsigned>(g)], value);
}

}  // namespace detail

void register_report_section(std::string_view key, std::string (*fn)()) {
  auto* impl = Registry::instance().impl_;
  MutexLock lk(impl->sections_mu);
  for (auto& [k, f] : impl->sections) {
    if (k == key) {
      f = fn;
      return;
    }
  }
  impl->sections.emplace_back(std::string(key), fn);
}

}  // namespace ompmca::obs
