#include "obs/monitor.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/align.hpp"
#include "common/annotations.hpp"
#include "common/env.hpp"
#include "common/locks.hpp"
#include "common/log.hpp"
#include "common/time.hpp"
#include "obs/event.hpp"
#include "obs/trace.hpp"

namespace ompmca::obs {

// --- per-tenant attribution ---------------------------------------------------

namespace tenant {

namespace {

/// One master thread's meter slab: single writer (the owning master), many
/// relaxed readers (snapshots) — the telemetry ThreadSlab discipline.
struct alignas(kCacheLineBytes) TenantSlab {
  std::uint64_t id = 0;  // immutable after registration
  std::atomic<std::uint64_t> regions{0};
  std::atomic<std::uint64_t> degraded{0};
  std::atomic<std::uint64_t> lease_wait_ns{0};
  obs::detail::AtomicHistogram dispatch;
};

struct TenantRegistry {
  CapMutex mu;
  std::deque<std::unique_ptr<TenantSlab>> slabs
      OMPMCA_GUARDED_BY(mu);  // stable addresses

  static TenantRegistry& instance() {
    // Leaked: masters may meter from atexit-adjacent paths.
    static TenantRegistry* reg = new TenantRegistry();
    return *reg;
  }
};

TenantSlab& local_slab() {
  thread_local TenantSlab* slab = [] {
    auto owned = std::make_unique<TenantSlab>();
    TenantSlab* raw = owned.get();
    bool first;
    {
      TenantRegistry& reg = TenantRegistry::instance();
      MutexLock lk(reg.mu);
      owned->id = reg.slabs.size() + 1;
      reg.slabs.push_back(std::move(owned));
      first = reg.slabs.size() == 1;
    }
    // Outside the registry lock: register_report_section takes the
    // telemetry sections lock, which the report path holds while calling
    // report_json (which takes the registry lock) — nesting them here
    // would invert that order.
    if (first) register_report_section("tenants", report_json);
    return raw;
  }();
  return *slab;
}

void append_double(std::string& s, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  s += buf;
}

}  // namespace

namespace detail {

void on_region_slow(std::uint64_t dispatch_ns, bool degraded) {
  TenantSlab& t = local_slab();
  t.regions.fetch_add(1, std::memory_order_relaxed);
  if (degraded) t.degraded.fetch_add(1, std::memory_order_relaxed);
  t.dispatch.record(dispatch_ns);
}

void add_lease_wait_slow(std::uint64_t ns) {
  local_slab().lease_wait_ns.fetch_add(ns, std::memory_order_relaxed);
}

}  // namespace detail

std::uint64_t current_id() { return local_slab().id; }

std::vector<Snap> snapshot() {
  std::vector<Snap> out;
  TenantRegistry& reg = TenantRegistry::instance();
  MutexLock lk(reg.mu);
  out.reserve(reg.slabs.size());
  for (const auto& t : reg.slabs) {
    Snap s;
    s.id = t->id;
    s.regions = t->regions.load(std::memory_order_relaxed);
    s.degraded_width = t->degraded.load(std::memory_order_relaxed);
    s.lease_wait_ns = t->lease_wait_ns.load(std::memory_order_relaxed);
    t->dispatch.merge_into(s.dispatch);
    out.push_back(std::move(s));
  }
  return out;
}

std::string report_json() {
  const std::vector<Snap> snaps = snapshot();
  std::string s = "{";
  bool first = true;
  for (const Snap& t : snaps) {
    s += first ? "\n" : ",\n";
    first = false;
    s += "    \"";
    append_u64(s, t.id);
    s += "\": {\"regions\": ";
    append_u64(s, t.regions);
    s += ", \"degraded_width\": ";
    append_u64(s, t.degraded_width);
    s += ", \"lease_wait_ns\": ";
    append_u64(s, t.lease_wait_ns);
    s += ", \"dispatch_p50_ns\": ";
    append_double(s, t.dispatch.quantile(0.50));
    s += ", \"dispatch_p95_ns\": ";
    append_double(s, t.dispatch.quantile(0.95));
    s += ", \"dispatch_p99_ns\": ";
    append_double(s, t.dispatch.quantile(0.99));
    s += ", \"dispatch_max_ns\": ";
    append_u64(s, t.dispatch.max_ns);
    s += "}";
  }
  s += first ? "}" : "\n  }";
  return s;
}

void reset() {
  TenantRegistry& reg = TenantRegistry::instance();
  MutexLock lk(reg.mu);
  for (auto& t : reg.slabs) {
    t->regions.store(0, std::memory_order_relaxed);
    t->degraded.store(0, std::memory_order_relaxed);
    t->lease_wait_ns.store(0, std::memory_order_relaxed);
    t->dispatch.reset();
  }
}

}  // namespace tenant

// --- the monitor --------------------------------------------------------------

namespace monitor {

namespace {

void append_fixed(std::string& s, double v, const char* fmt) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), fmt, v);
  s += buf;
}

/// Dotted metric name with dots flattened to underscores and the
/// Prometheus-conventional "ompmca_" prefix.
std::string prom_name(std::string_view dotted) {
  std::string out = "ompmca_";
  for (char c : dotted) out += c == '.' ? '_' : c;
  return out;
}

/// Worker bitmap rendered as a compact [i, j, ...] index list.
std::string bitmap_list(std::uint64_t bits) {
  std::string out = "[";
  bool first = true;
  for (unsigned i = 0; i < 64; ++i) {
    if ((bits & (std::uint64_t{1} << i)) == 0) continue;
    if (!first) out += ",";
    first = false;
    char buf[8];
    std::snprintf(buf, sizeof(buf), "%u", i);
    out += buf;
  }
  out += "]";
  return out;
}

/// Monotonic-counter delta with clamping: a concurrent reset() can make a
/// slot go backwards mid-run; a monitor sample must never underflow.
std::uint64_t delta_u64(std::uint64_t cur, std::uint64_t prev) {
  return cur >= prev ? cur - prev : 0;
}

HistogramData delta_hist(const HistogramData& cur, const HistogramData& prev) {
  HistogramData d;
  for (unsigned b = 0; b < kHistBuckets; ++b) {
    d.buckets[b] = delta_u64(cur.buckets[b], prev.buckets[b]);
  }
  d.count = delta_u64(cur.count, prev.count);
  d.sum_ns = delta_u64(cur.sum_ns, prev.sum_ns);
  // The slabs only track a cumulative max; the interval's true max is
  // unrecoverable, so the delta reports the cumulative one (documented).
  d.max_ns = cur.max_ns;
  return d;
}

struct StallSource {
  void* ctx;
  StallProbe probe;
};

struct MonitorState {
  CapMutex mu;
  std::condition_variable cv;
  bool running OMPMCA_GUARDED_BY(mu) = false;
  bool stop_requested OMPMCA_GUARDED_BY(mu) = false;
  std::thread thread OMPMCA_GUARDED_BY(mu);

  std::atomic<std::uint64_t> ticks{0};

  CapMutex last_mu;
  std::string last_rendered OMPMCA_GUARDED_BY(last_mu);

  CapMutex sources_mu;
  std::vector<StallSource> sources OMPMCA_GUARDED_BY(sources_mu);
  /// Region keys already reported: a pool never reuses a key, so the set
  /// grows only with *distinct* stalled regions — one report each, ever.
  std::set<std::uint64_t> reported OMPMCA_GUARDED_BY(sources_mu);

  static MonitorState& instance() {
    // Leaked: the atexit stop() hook may run after static destructors.
    static MonitorState* st = new MonitorState();
    return *st;
  }
};

void watchdog_pass(const Options& opts) {
  if (opts.stall_ns == 0) return;
  MonitorState& st = MonitorState::instance();
  std::vector<StallRegion> stalled;
  const std::uint64_t now = monotonic_nanos();
  {
    MutexLock lk(st.sources_mu);
    for (const StallSource& src : st.sources) {
      src.probe(src.ctx, now, opts.stall_ns, stalled);
    }
    // Dedup under the same lock that owns the set; reporting happens after
    // the unlock so the flight-record dump never runs under it.
    auto it = stalled.begin();
    while (it != stalled.end()) {
      if (!st.reported.insert(it->seq).second) {
        it = stalled.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const StallRegion& r : stalled) {
    emit(Event::kStallDetected);
    const double age_ms = static_cast<double>(now - r.start_ns) * 1e-6;
    OMPMCA_LOG_ERROR(
        "monitor: STALL detected: region seq=%llu slot=%u tenant=%llu "
        "age_ms=%.1f active=%u workers=%s busy=%s",
        static_cast<unsigned long long>(r.seq), r.slot,
        static_cast<unsigned long long>(r.master), age_ms, r.active,
        bitmap_list(r.workers).c_str(), bitmap_list(r.busy).c_str());
    // The crash-flight-record path: with tracing armed the report arrives
    // with the stalled region's event history attached (no-op otherwise).
    trace::dump_flight_record("stall watchdog");
    if (opts.abort_on_stall) {
      OMPMCA_LOG_ERROR("monitor: OMPMCA_STALL_ABORT=1, aborting");
      std::abort();
    }
  }
}

/// One tick: count it, run the watchdog, take the delta sample, render and
/// sink it.  @p sink is the jsonl FILE* kept open across ticks (null when
/// the sink is stderr or prom-format).
void emit_tick(DeltaSampler& sampler, const Options& opts, std::FILE* sink) {
  MonitorState& st = MonitorState::instance();
  emit(Event::kMonitorTick);
  watchdog_pass(opts);
  const Sample s = sampler.take();
  std::string rendered =
      opts.format == Format::kProm ? to_prom(s) : to_jsonl(s);
  if (opts.format == Format::kJsonl) rendered += "\n";
  if (opts.format == Format::kProm && !opts.path.empty()) {
    // Rewrite-in-place each tick: the Prometheus textfile-collector shape.
    std::FILE* f = std::fopen(opts.path.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(rendered.data(), 1, rendered.size(), f);
      std::fclose(f);
    }
  } else if (sink != nullptr) {
    std::fwrite(rendered.data(), 1, rendered.size(), sink);
    std::fflush(sink);
  } else {
    std::fwrite(rendered.data(), 1, rendered.size(), stderr);
  }
  if (opts.format == Format::kJsonl) rendered.pop_back();  // the newline
  {
    MutexLock lk(st.last_mu);
    st.last_rendered = std::move(rendered);
  }
  st.ticks.fetch_add(1, std::memory_order_relaxed);
}

void sampler_main(Options opts, DeltaSampler sampler) {
  MonitorState& st = MonitorState::instance();
  std::FILE* sink = nullptr;
  if (opts.format == Format::kJsonl && !opts.path.empty()) {
    sink = std::fopen(opts.path.c_str(), "w");  // fresh stream per run
    if (sink == nullptr) {
      OMPMCA_LOG_WARN("monitor: cannot open %s, falling back to stderr",
                      opts.path.c_str());
    }
  }
  for (;;) {
    bool stopping;
    {
      MutexLock lk(st.mu);
      lk.wait_for(st.cv, std::chrono::milliseconds(opts.interval_ms),
                  [&]() OMPMCA_REQUIRES(st.mu) { return st.stop_requested; });
      stopping = st.stop_requested;
    }
    // The stop path still emits: a short run's whole story would otherwise
    // fall between the last timer tick and process exit.
    emit_tick(sampler, opts, sink);
    if (stopping) break;
  }
  if (sink != nullptr) std::fclose(sink);
}

}  // namespace

// --- DeltaSampler -------------------------------------------------------------

DeltaSampler::DeltaSampler()
    : prev_mono_ns_(monotonic_nanos()),
      prev_(Registry::instance().snapshot()),
      prev_tenants_(tenant::snapshot()) {}

Sample DeltaSampler::take() {
  Sample s;
  s.tick = ++tick_;
  s.mono_ns = monotonic_nanos();
  s.wall_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  s.interval_s =
      static_cast<double>(s.mono_ns - prev_mono_ns_) * 1e-9;

  Snapshot cur = Registry::instance().snapshot();
  for (unsigned c = 0; c < kNumCounters; ++c) {
    s.counter_total[c] = cur.counters[c];
    s.counter_delta[c] = delta_u64(cur.counters[c], prev_.counters[c]);
  }
  for (unsigned h = 0; h < kNumHists; ++h) {
    s.hist_total[h] = cur.hists[h];
    s.hist_delta[h] = delta_hist(cur.hists[h], prev_.hists[h]);
  }

  std::vector<tenant::Snap> cur_tenants = tenant::snapshot();
  s.tenants.reserve(cur_tenants.size());
  for (const tenant::Snap& t : cur_tenants) {
    const tenant::Snap* prev = nullptr;
    for (const tenant::Snap& p : prev_tenants_) {
      if (p.id == t.id) {
        prev = &p;
        break;
      }
    }
    TenantDelta d;
    d.id = t.id;
    d.regions_total = t.regions;
    d.regions = delta_u64(t.regions, prev != nullptr ? prev->regions : 0);
    d.degraded_width =
        delta_u64(t.degraded_width, prev != nullptr ? prev->degraded_width : 0);
    d.lease_wait_ns =
        delta_u64(t.lease_wait_ns, prev != nullptr ? prev->lease_wait_ns : 0);
    d.dispatch = prev != nullptr ? delta_hist(t.dispatch, prev->dispatch)
                                 : t.dispatch;
    s.tenants.push_back(std::move(d));
  }

  prev_ = std::move(cur);
  prev_tenants_ = std::move(cur_tenants);
  prev_mono_ns_ = s.mono_ns;
  return s;
}

// --- rendering ----------------------------------------------------------------

std::string to_jsonl(const Sample& s) {
  const double interval = s.interval_s > 0.0 ? s.interval_s : 1e-9;
  std::string out;
  out.reserve(1024);
  out += "{\"monitor\":\"ompmca\",\"tick\":";
  append_u64(out, s.tick);
  out += ",\"mono_ns\":";
  append_u64(out, s.mono_ns);
  out += ",\"wall_ms\":";
  append_u64(out, s.wall_ms);
  out += ",\"interval_s\":";
  append_fixed(out, s.interval_s, "%.6f");
  out += ",\"counters\":{";
  bool first = true;
  for (unsigned c = 0; c < kNumCounters; ++c) {
    if (s.counter_delta[c] == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += name(static_cast<Counter>(c));
    out += "\":{\"delta\":";
    append_u64(out, s.counter_delta[c]);
    out += ",\"rate_per_s\":";
    append_fixed(out, static_cast<double>(s.counter_delta[c]) / interval,
                 "%.1f");
    out += "}";
  }
  out += "},\"hists\":{";
  first = true;
  for (unsigned h = 0; h < kNumHists; ++h) {
    const HistogramData& d = s.hist_delta[h];
    if (d.count == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += name(static_cast<Hist>(h));
    out += "\":{\"count\":";
    append_u64(out, d.count);
    out += ",\"p50_ns\":";
    append_fixed(out, d.quantile(0.50), "%.1f");
    out += ",\"p95_ns\":";
    append_fixed(out, d.quantile(0.95), "%.1f");
    out += ",\"p99_ns\":";
    append_fixed(out, d.quantile(0.99), "%.1f");
    out += ",\"max_ns\":";
    append_u64(out, d.max_ns);
    out += "}";
  }
  out += "},\"tenants\":{";
  first = true;
  for (const TenantDelta& t : s.tenants) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    append_u64(out, t.id);
    out += "\":{\"regions\":";
    append_u64(out, t.regions);
    out += ",\"regions_total\":";
    append_u64(out, t.regions_total);
    out += ",\"rate_per_s\":";
    append_fixed(out, static_cast<double>(t.regions) / interval, "%.1f");
    out += ",\"dispatch_p50_ns\":";
    append_fixed(out, t.dispatch.quantile(0.50), "%.1f");
    out += ",\"dispatch_p95_ns\":";
    append_fixed(out, t.dispatch.quantile(0.95), "%.1f");
    out += ",\"dispatch_p99_ns\":";
    append_fixed(out, t.dispatch.quantile(0.99), "%.1f");
    out += ",\"degraded_width\":";
    append_u64(out, t.degraded_width);
    out += ",\"lease_wait_ns\":";
    append_u64(out, t.lease_wait_ns);
    out += "}";
  }
  out += "},\"stalls_total\":";
  append_u64(out,
             s.counter_total[static_cast<unsigned>(Counter::kObsStallDetected)]);
  out += "}";
  return out;
}

std::string to_prom(const Sample& s) {
  std::string out;
  out.reserve(2048);
  out += "# ompmca live monitor, tick ";
  append_u64(out, s.tick);
  out += "\n# TYPE ompmca_monitor_tick counter\nompmca_monitor_tick ";
  append_u64(out, s.tick);
  out += "\n# TYPE ompmca_monitor_interval_seconds gauge\n"
         "ompmca_monitor_interval_seconds ";
  append_fixed(out, s.interval_s, "%.6f");
  out += "\n";
  for (unsigned c = 0; c < kNumCounters; ++c) {
    if (s.counter_total[c] == 0) continue;
    const std::string n = prom_name(name(static_cast<Counter>(c)));
    out += "# TYPE " + n + "_total counter\n" + n + "_total ";
    append_u64(out, s.counter_total[c]);
    out += "\n";
  }
  for (unsigned h = 0; h < kNumHists; ++h) {
    if (s.hist_total[h].count == 0) continue;
    const std::string n = prom_name(name(static_cast<Hist>(h)));
    out += "# TYPE " + n + " summary\n";
    const HistogramData& d = s.hist_delta[h];
    if (d.count > 0) {
      // Quantiles describe the *last interval* (a live signal); sum/count
      // are cumulative, per the summary convention.
      out += n + "{quantile=\"0.5\"} ";
      append_fixed(out, d.quantile(0.50), "%.1f");
      out += "\n" + n + "{quantile=\"0.95\"} ";
      append_fixed(out, d.quantile(0.95), "%.1f");
      out += "\n" + n + "{quantile=\"0.99\"} ";
      append_fixed(out, d.quantile(0.99), "%.1f");
      out += "\n";
    }
    out += n + "_sum ";
    append_u64(out, s.hist_total[h].sum_ns);
    out += "\n" + n + "_count ";
    append_u64(out, s.hist_total[h].count);
    out += "\n";
  }
  if (!s.tenants.empty()) {
    out += "# TYPE ompmca_tenant_regions_total counter\n";
    for (const TenantDelta& t : s.tenants) {
      char label[48];
      std::snprintf(label, sizeof(label), "{tenant=\"%llu\"}",
                    static_cast<unsigned long long>(t.id));
      out += "ompmca_tenant_regions_total";
      out += label;
      out += " ";
      append_u64(out, t.regions_total);
      out += "\n";
      if (t.dispatch.count > 0) {
        out += "ompmca_tenant_dispatch_ns{tenant=\"";
        append_u64(out, t.id);
        out += "\",quantile=\"0.99\"} ";
        append_fixed(out, t.dispatch.quantile(0.99), "%.1f");
        out += "\n";
      }
    }
  }
  return out;
}

// --- lifecycle ----------------------------------------------------------------

bool start(const Options& opts) {
  MonitorState& st = MonitorState::instance();
  MutexLock lk(st.mu);
  if (st.running) return false;
  // The monitor observes the telemetry slabs, so arming it arms recording;
  // the hot paths were already paying the enabled() load either way.
  set_enabled(true);
  st.running = true;
  st.stop_requested = false;
  st.ticks.store(0, std::memory_order_relaxed);
  gate::set(gate::kMonitor, gate::kMonitor);
  Options sanitized = opts;
  if (sanitized.interval_ms == 0) sanitized.interval_ms = 1;
  // Baseline here, not on the sampler thread: anything recorded after
  // start() returns is guaranteed to land in some tick's delta.
  st.thread =
      std::thread(sampler_main, std::move(sanitized), DeltaSampler());
  return true;
}

void stop() {
  MonitorState& st = MonitorState::instance();
  std::thread t;
  {
    MutexLock lk(st.mu);
    if (!st.running) return;
    st.running = false;
    st.stop_requested = true;
    t = std::move(st.thread);
  }
  st.cv.notify_all();
  if (t.joinable()) t.join();
  gate::set(gate::kMonitor, 0);
}

bool running() {
  MonitorState& st = MonitorState::instance();
  MutexLock lk(st.mu);
  return st.running;
}

std::uint64_t ticks() {
  return MonitorState::instance().ticks.load(std::memory_order_relaxed);
}

std::string last_rendered_sample() {
  MonitorState& st = MonitorState::instance();
  MutexLock lk(st.last_mu);
  return st.last_rendered;
}

void register_stall_source(void* ctx, StallProbe probe) {
  MonitorState& st = MonitorState::instance();
  MutexLock lk(st.sources_mu);
  st.sources.push_back({ctx, probe});
}

void unregister_stall_source(void* ctx) {
  MonitorState& st = MonitorState::instance();
  // Taking the lock is the fence: a probe of ctx in flight holds it, so
  // once we hold it the source is quiescent and safe to drop.
  MutexLock lk(st.sources_mu);
  auto& v = st.sources;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i].ctx == ctx) {
      v[i] = v.back();
      v.pop_back();
      return;
    }
  }
}

// --- env arming ---------------------------------------------------------------

namespace {

/// OMPMCA_MONITOR=<interval_ms> arms the sampler before main(), mirroring
/// the telemetry/trace bootstrap; the atexit stop() emits the final sample
/// and joins the thread.
struct EnvBoot {
  EnvBoot() {
    const auto iv = env_long("OMPMCA_MONITOR");
    if (!iv || *iv <= 0) return;
    Options o;
    o.interval_ms =
        static_cast<std::uint64_t>(std::min(*iv, 3'600'000L));
    if (auto f = env_string("OMPMCA_MONITOR_FORMAT")) {
      if (iequals(*f, "prom")) {
        o.format = Format::kProm;
      } else if (!iequals(*f, "jsonl")) {
        OMPMCA_LOG_WARN(
            "OMPMCA_MONITOR_FORMAT=%s: expected jsonl|prom, using jsonl",
            f->c_str());
      }
    }
    if (auto p = env_string("OMPMCA_MONITOR_FILE")) o.path = *p;
    if (auto ns = env_long_clamped("OMPMCA_STALL_NS", 0, 3'600'000'000'000L)) {
      o.stall_ns = static_cast<std::uint64_t>(*ns);
    }
    if (auto a = env_long("OMPMCA_STALL_ABORT")) o.abort_on_stall = *a != 0;
    if (start(o)) std::atexit([] { stop(); });
  }
};

[[maybe_unused]] const EnvBoot g_envboot;

}  // namespace

}  // namespace monitor

}  // namespace ompmca::obs
