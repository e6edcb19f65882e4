#include "fault/fault.hpp"

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/annotations.hpp"
#include "common/env.hpp"
#include "common/locks.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "obs/event.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ompmca::fault {

namespace {

constexpr std::uint64_t kDefaultSeed = 42;
constexpr unsigned kNumSites = static_cast<unsigned>(Site::kCount);

constexpr std::array<std::string_view, kNumSites> kSiteNames = {
    "mrapi.shmem_create", "mrapi.arena_alloc",   "mrapi.node_create",
    "mrapi.mutex_create", "mrapi.sem_create",    "mrapi.mutex_acquire",
    "mrapi.sem_acquire",  "pool.worker_launch",  "mcapi.msg_send",
    "mtapi.task_start",   "gomp.task_alloc",
};

struct SiteConfig {
  bool armed = false;
  double rate = 0.0;        // probability per evaluation; 0 = rate off
  std::uint64_t nth = 0;    // fail hits N, 2N, ...; 0 = nth off
  std::uint64_t count = 0;  // max injections; 0 = unlimited
  std::uint64_t seed = kDefaultSeed;
};

struct SiteState {
  SiteConfig cfg;
  Xoshiro256 rng{kDefaultSeed};
  std::uint64_t hits = 0;
  Counts stats;
};

struct Global {
  CapMutex mu;
  std::array<SiteState, kNumSites> sites OMPMCA_GUARDED_BY(mu);
  std::string spec OMPMCA_GUARDED_BY(mu);  // active spec text, in the report
};

Global& global() {
  // Leaked on purpose: worker threads may evaluate points during static
  // destruction (same lifetime discipline as the obs registry).
  static Global* g = new Global;
  return *g;
}

std::atomic<bool> g_enabled{false};

bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool parse_rate(std::string_view text, double* out) {
  if (text.empty()) return false;
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return false;
  if (v < 0.0 || v > 1.0) return false;
  *out = v;
  return true;
}

/// Parses one "site[:param]*" entry into @p cfgs; false on any error.
bool parse_entry(std::string_view entry,
                 std::array<SiteConfig, kNumSites>& cfgs) {
  auto fields = split(entry, ':');
  if (fields.empty() || fields[0].empty()) return false;
  Site site;
  if (!site_from_name(fields[0], &site)) return false;
  SiteConfig cfg;
  bool have_trigger = false;
  for (std::size_t i = 1; i < fields.size(); ++i) {
    std::string_view f = fields[i];
    auto eq = f.find('=');
    if (eq == std::string_view::npos) return false;
    std::string_view key = trim(f.substr(0, eq));
    std::string_view value = trim(f.substr(eq + 1));
    if (key == "rate") {
      if (!parse_rate(value, &cfg.rate)) return false;
      have_trigger = true;
    } else if (key == "nth") {
      if (!parse_u64(value, &cfg.nth) || cfg.nth == 0) return false;
      have_trigger = true;
    } else if (key == "count") {
      if (!parse_u64(value, &cfg.count) || cfg.count == 0) return false;
    } else if (key == "seed") {
      if (!parse_u64(value, &cfg.seed)) return false;
    } else {
      return false;
    }
  }
  if (!have_trigger) cfg.rate = 1.0;  // bare site: fail every evaluation
  cfg.armed = true;
  cfgs[static_cast<unsigned>(site)] = cfg;
  return true;
}

}  // namespace

std::string_view name(Site s) {
  auto i = static_cast<unsigned>(s);
  return i < kNumSites ? kSiteNames[i] : "?";
}

bool site_from_name(std::string_view text, Site* out) {
  for (unsigned i = 0; i < kNumSites; ++i) {
    if (text == kSiteNames[i]) {
      *out = static_cast<Site>(i);
      return true;
    }
  }
  return false;
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool configure(std::string_view spec) {
  std::array<SiteConfig, kNumSites> cfgs;  // all disarmed
  bool ok = true;
  for (const auto& entry : split(spec, ',')) {
    if (entry.empty()) continue;
    if (!parse_entry(entry, cfgs)) {
      OMPMCA_LOG_WARN("fault: malformed schedule entry '%s' (spec '%s'); "
                      "injection disabled",
                      entry.c_str(), std::string(spec).c_str());
      ok = false;
      break;
    }
  }
  Global& g = global();
  MutexLock lk(g.mu);
  for (unsigned i = 0; i < kNumSites; ++i) {
    SiteState& s = g.sites[i];
    s.cfg = ok ? cfgs[i] : SiteConfig{};
    s.rng = Xoshiro256(s.cfg.seed);
    s.hits = 0;
  }
  g.spec = ok ? std::string(trim(spec)) : std::string();
  return ok;
}

void reset() {
  set_enabled(false);
  Global& g = global();
  MutexLock lk(g.mu);
  for (SiteState& s : g.sites) s = SiteState{};
  g.spec.clear();
}

void reset_counts() {
  Global& g = global();
  MutexLock lk(g.mu);
  for (SiteState& s : g.sites) {
    s.stats = Counts{};
    s.hits = 0;
    s.rng = Xoshiro256(s.cfg.seed);
  }
}

bool should_fail(Site site) {
  Global& g = global();
  MutexLock lk(g.mu);
  SiteState& s = g.sites[static_cast<unsigned>(site)];
  if (!s.cfg.armed) return false;
  ++s.hits;
  if (s.cfg.count != 0 && s.stats.injected >= s.cfg.count) return false;
  bool fire = s.cfg.nth != 0 && s.hits % s.cfg.nth == 0;
  if (!fire && s.cfg.rate > 0.0) fire = s.rng.next_double() < s.cfg.rate;
  if (fire) {
    ++s.stats.injected;
    obs::emit(obs::Event::kFaultInject, static_cast<std::uint64_t>(site));
  }
  return fire;
}

void note_recovered(Site site, std::uint64_t n) {
  Global& g = global();
  MutexLock lk(g.mu);
  g.sites[static_cast<unsigned>(site)].stats.recovered += n;
  obs::emit(obs::Event::kFaultRecover, static_cast<std::uint64_t>(site));
}

void note_exhausted(Site site, std::uint64_t n) {
  Global& g = global();
  MutexLock lk(g.mu);
  g.sites[static_cast<unsigned>(site)].stats.exhausted += n;
  obs::emit(obs::Event::kFaultExhaust, static_cast<std::uint64_t>(site));
  // Retry exhaustion is the degradation moment worth a crash record: the
  // caller is about to surface the failure.
  obs::trace::dump_flight_record(
      "fault-exhausted:" +
      std::string(kSiteNames[static_cast<unsigned>(site)]));
}

Counts counts(Site site) {
  Global& g = global();
  MutexLock lk(g.mu);
  return g.sites[static_cast<unsigned>(site)].stats;
}

Counts totals() {
  Global& g = global();
  MutexLock lk(g.mu);
  Counts t;
  for (const SiteState& s : g.sites) {
    t.injected += s.stats.injected;
    t.recovered += s.stats.recovered;
    t.exhausted += s.stats.exhausted;
  }
  return t;
}

namespace {

using obs::append_u64;

void append_json_escaped(std::string& s, std::string_view v) {
  for (char c : v) {
    if (c == '"' || c == '\\') {
      s += '\\';
      s += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      s += ' ';
    } else {
      s += c;
    }
  }
}

}  // namespace

std::string json_section() {
  Global& g = global();
  MutexLock lk(g.mu);
  Counts t;
  for (const SiteState& s : g.sites) {
    t.injected += s.stats.injected;
    t.recovered += s.stats.recovered;
    t.exhausted += s.stats.exhausted;
  }
  std::string s = "{\"enabled\": ";
  s += enabled() ? "true" : "false";
  s += ", \"spec\": \"";
  append_json_escaped(s, g.spec);
  s += "\", \"injected_total\": ";
  append_u64(s, t.injected);
  s += ", \"recovered_total\": ";
  append_u64(s, t.recovered);
  s += ", \"exhausted_total\": ";
  append_u64(s, t.exhausted);
  s += ", \"sites\": [";
  bool first = true;
  for (unsigned i = 0; i < kNumSites; ++i) {
    const SiteState& st = g.sites[i];
    if (!st.cfg.armed && st.stats.injected == 0 && st.stats.recovered == 0 &&
        st.stats.exhausted == 0) {
      continue;
    }
    if (!first) s += ", ";
    first = false;
    s += "{\"site\": \"";
    s += kSiteNames[i];
    s += "\", \"injected\": ";
    append_u64(s, st.stats.injected);
    s += ", \"recovered\": ";
    append_u64(s, st.stats.recovered);
    s += ", \"exhausted\": ";
    append_u64(s, st.stats.exhausted);
    s += "}";
  }
  s += "]}";
  return s;
}

// --- bootstrap ----------------------------------------------------------------
//
// Only compiled-in builds read OMPMCA_FAULT and join the obs report; the
// core above stays link-time inert (and directly unit-testable) otherwise.

#if OMPMCA_FAULT_ENABLED
namespace {
[[maybe_unused]] const bool g_bootstrap = [] {
  if (auto spec = env_string("OMPMCA_FAULT"); spec && !trim(*spec).empty()) {
    if (configure(*spec)) set_enabled(true);
  }
  obs::register_report_section("fault", &json_section);
  return true;
}();
}  // namespace
#endif

}  // namespace ompmca::fault
