#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>

#include "common/annotations.hpp"
#include "common/env.hpp"
#include "common/locks.hpp"
#include "common/log.hpp"

namespace ompmca::obs::trace {

namespace detail {
std::atomic<unsigned> g_mode{0};
}  // namespace detail

std::string_view name(Type t) {
  switch (t) {
    case Type::kParallel: return "parallel";
    case Type::kForkRing: return "fork_ring";
    case Type::kWorkerWake: return "worker_wake";
    case Type::kWorkerWork: return "worker_work";
    case Type::kJoinWait: return "join_wait";
    case Type::kBarrier: return "barrier";
    case Type::kFor: return "for";
    case Type::kSingle: return "single";
    case Type::kCritical: return "critical";
    case Type::kLoopChunk: return "loop_chunk";
    case Type::kStealAttempt: return "steal_attempt";
    case Type::kSteal: return "steal";
    case Type::kTaskSpawn: return "task_spawn";
    case Type::kTaskRun: return "task_run";
    case Type::kTaskSteal: return "task_steal";
    case Type::kMutexAcquire: return "mutex_acquire";
    case Type::kNodeCreate: return "node_create";
    case Type::kNodeRetire: return "node_retire";
    case Type::kShmemCreate: return "shmem_create";
    case Type::kFaultInject: return "fault_inject";
    case Type::kFaultRecover: return "fault_recover";
    case Type::kFaultExhaust: return "fault_exhaust";
    case Type::kLockAcquire: return "lock_acquire";
    case Type::kCheckViolation: return "check_violation";
    case Type::kCount: break;
  }
  return "?";
}

namespace {

constexpr std::size_t kDefaultRingEvents = 4096;
constexpr std::size_t kMinRingEvents = 16;
constexpr std::size_t kMaxRingEvents = std::size_t{1} << 22;  // 4M events

std::size_t round_pow2(std::size_t n) {
  n = std::clamp(n, kMinRingEvents, kMaxRingEvents);
  return std::bit_ceil(n);
}

/// One ring slot.  Each word is an independent relaxed atomic: a reader
/// racing a wrap-around overwrite sees torn *events* (mixed words), never
/// torn *words* or UB — snapshot() discards the index range that can race.
struct Slot {
  std::atomic<std::uint64_t> begin_ns{0};
  std::atomic<std::uint64_t> end_ns{0};
  std::atomic<std::uint64_t> a0{0};
  std::atomic<std::uint64_t> a1{0};
  std::atomic<std::uint64_t> type{0};
};

/// Per-thread ring.  Single writer (the owning thread); readers synchronise
/// on `head` (release store per event / acquire load per snapshot).
struct ThreadBuf {
  explicit ThreadBuf(std::uint64_t id, std::size_t cap)
      : tid(id), capacity(cap), slots(new Slot[cap]) {}

  std::uint64_t tid;
  std::size_t capacity;  // power of two
  std::unique_ptr<Slot[]> slots;
  std::atomic<std::uint64_t> head{0};  // events ever written
  // Full mode: wrapped-out chunks land here (owner-written, registry-locked).
  std::vector<Event> archive;
  std::uint64_t archived = 0;  // == archive.size(), readable without the lock

  void write(Type t, std::uint64_t begin_ns, std::uint64_t end_ns,
             std::uint64_t a0, std::uint64_t a1) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    Slot& s = slots[h & (capacity - 1)];
    s.begin_ns.store(begin_ns, std::memory_order_relaxed);
    s.end_ns.store(end_ns, std::memory_order_relaxed);
    s.a0.store(a0, std::memory_order_relaxed);
    s.a1.store(a1, std::memory_order_relaxed);
    s.type.store(static_cast<std::uint64_t>(t), std::memory_order_relaxed);
    head.store(h + 1, std::memory_order_release);
  }

  Event read(std::uint64_t index) const {
    const Slot& s = slots[index & (capacity - 1)];
    Event e;
    e.begin_ns = s.begin_ns.load(std::memory_order_relaxed);
    e.end_ns = s.end_ns.load(std::memory_order_relaxed);
    e.a0 = s.a0.load(std::memory_order_relaxed);
    e.a1 = s.a1.load(std::memory_order_relaxed);
    e.type = static_cast<Type>(s.type.load(std::memory_order_relaxed));
    return e;
  }
};

struct TraceRegistry {
  static TraceRegistry& instance() {
    // Leaked singleton: worker threads and atexit hooks may record/export
    // after static destructors would have run.
    static TraceRegistry* reg = new TraceRegistry();
    return *reg;
  }

  // bufs_mu also orders each ThreadBuf's archive/archived against
  // snapshot()/reset() — cross-object guarding TSA cannot express, so only
  // the deque itself carries the annotation.
  mutable CapMutex bufs_mu;
  std::deque<std::unique_ptr<ThreadBuf>> bufs
      OMPMCA_GUARDED_BY(bufs_mu);  // stable addresses

  std::atomic<std::size_t> ring_capacity{kDefaultRingEvents};

  mutable CapMutex flight_mu;
  std::uint64_t flight_count OMPMCA_GUARDED_BY(flight_mu) = 0;
  std::string flight_last OMPMCA_GUARDED_BY(flight_mu);

  std::string export_path;  // OMPMCA_TRACE_FILE; empty = no atexit export

  ThreadBuf& local_buf() {
    thread_local ThreadBuf* buf = [this] {
      const std::size_t cap = ring_capacity.load(std::memory_order_relaxed);
      MutexLock lk(bufs_mu);
      bufs.push_back(std::make_unique<ThreadBuf>(bufs.size(), cap));
      return bufs.back().get();
    }();
    return *buf;
  }

 private:
  TraceRegistry() {
    if (auto v = env_string("OMPMCA_TRACE")) {
      if (iequals(*v, "ring")) {
        detail::g_mode.store(static_cast<unsigned>(Mode::kRing),
                             std::memory_order_relaxed);
      } else if (iequals(*v, "full")) {
        detail::g_mode.store(static_cast<unsigned>(Mode::kFull),
                             std::memory_order_relaxed);
      } else if (!iequals(*v, "off") && !iequals(*v, "0")) {
        std::fprintf(stderr,
                     "ompmca: OMPMCA_TRACE=%s not recognised "
                     "(off|ring|full); tracing stays off\n",
                     v->c_str());
      }
    }
    if (auto n = env_long_clamped("OMPMCA_TRACE_RING",
                                  static_cast<long>(kMinRingEvents),
                                  static_cast<long>(kMaxRingEvents))) {
      ring_capacity.store(round_pow2(static_cast<std::size_t>(*n)),
                          std::memory_order_relaxed);
    }
    if (auto f = env_string("OMPMCA_TRACE_FILE")) export_path = *f;
    if (!export_path.empty() && enabled()) {
      std::atexit([] {
        TraceRegistry& reg = TraceRegistry::instance();
        // atexit: an export failure has no one left to report to.
        if (enabled()) (void)write_chrome_json(reg.export_path);
      });
    }
  }
};

// The hooks never touch the registry while disabled (one relaxed load of
// g_mode only), so OMPMCA_TRACE must be parsed — and the atexit export
// registered — before main() rather than lazily on first emit.
[[maybe_unused]] const bool g_bootstrap = (TraceRegistry::instance(), true);

}  // namespace

namespace detail {

void emit(Type type, std::uint64_t begin_ns, std::uint64_t end_ns,
          std::uint64_t a0, std::uint64_t a1) {
  TraceRegistry& reg = TraceRegistry::instance();
  ThreadBuf& buf = reg.local_buf();
  const std::uint64_t h = buf.head.load(std::memory_order_relaxed);
  if (g_mode.load(std::memory_order_relaxed) ==
          static_cast<unsigned>(Mode::kFull) &&
      h > 0 && (h & (buf.capacity - 1)) == 0) {
    // Ring is about to start overwriting: archive the full chunk first so
    // nothing is lost.  Owner-thread only; the lock orders us against
    // snapshot()/reset(), never against other writers.
    MutexLock lk(reg.bufs_mu);
    buf.archive.reserve(buf.archive.size() + buf.capacity);
    for (std::uint64_t i = h - buf.capacity; i < h; ++i) {
      buf.archive.push_back(buf.read(i));
    }
    buf.archived = buf.archive.size();
  }
  buf.write(type, begin_ns, end_ns, a0, a1);
}

}  // namespace detail

Mode mode() {
  return static_cast<Mode>(detail::g_mode.load(std::memory_order_relaxed));
}

void set_mode(Mode m) {
  (void)TraceRegistry::instance();  // make sure env/atexit setup has run
  detail::g_mode.store(static_cast<unsigned>(m), std::memory_order_relaxed);
}

void set_ring_capacity(std::size_t events) {
  TraceRegistry::instance().ring_capacity.store(round_pow2(events),
                                                std::memory_order_relaxed);
}

std::size_t ring_capacity() {
  return TraceRegistry::instance().ring_capacity.load(
      std::memory_order_relaxed);
}

void reset() {
  TraceRegistry& reg = TraceRegistry::instance();
  const std::size_t cap = reg.ring_capacity.load(std::memory_order_relaxed);
  MutexLock lk(reg.bufs_mu);
  for (auto& buf : reg.bufs) {
    if (buf->capacity != cap) {
      // Quiescent-only (tests): a concurrent writer in this thread's ring
      // would race the reallocation.
      buf->slots.reset(new Slot[cap]);
      buf->capacity = cap;
    }
    buf->head.store(0, std::memory_order_release);
    buf->archive.clear();
    buf->archived = 0;
  }
  MutexLock flk(reg.flight_mu);
  reg.flight_count = 0;
  reg.flight_last.clear();
}

std::vector<ThreadTrace> snapshot() {
  TraceRegistry& reg = TraceRegistry::instance();
  std::vector<ThreadTrace> out;
  MutexLock lk(reg.bufs_mu);
  out.reserve(reg.bufs.size());
  for (const auto& buf : reg.bufs) {
    ThreadTrace tt;
    tt.tid = buf->tid;
    tt.events.reserve(buf->archive.size() + buf->capacity);
    tt.events.insert(tt.events.end(), buf->archive.begin(),
                     buf->archive.end());
    const std::uint64_t h1 = buf->head.load(std::memory_order_acquire);
    std::uint64_t start = std::max<std::uint64_t>(
        buf->archived, h1 > buf->capacity ? h1 - buf->capacity : 0);
    std::vector<Event> ring;
    ring.reserve(h1 - start);
    for (std::uint64_t i = start; i < h1; ++i) ring.push_back(buf->read(i));
    // A writer that advanced past us may have overwritten the oldest slots
    // we just read; discard the range that could have torn.
    const std::uint64_t h2 = buf->head.load(std::memory_order_acquire);
    const std::uint64_t safe_start =
        h2 > buf->capacity ? h2 - buf->capacity : 0;
    std::uint64_t skip = safe_start > start ? safe_start - start : 0;
    skip = std::min<std::uint64_t>(skip, ring.size());
    tt.events.insert(tt.events.end(), ring.begin() + skip, ring.end());
    tt.recorded = h1;
    tt.dropped = (start + skip) - buf->archived;
    out.push_back(std::move(tt));
  }
  return out;
}

// --- Chrome Trace Event export -----------------------------------------------

namespace {

void append_u64(std::string& s, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  s += buf;
}

/// Microseconds with ns precision, as Chrome's `ts`/`dur` expect.
void append_us(std::string& s, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  s += buf;
}

std::string_view category_of(Type t) {
  switch (t) {
    case Type::kMutexAcquire:
    case Type::kNodeCreate:
    case Type::kNodeRetire:
    case Type::kShmemCreate:
      return "mrapi";
    case Type::kFaultInject:
    case Type::kFaultRecover:
    case Type::kFaultExhaust:
      return "fault";
    case Type::kLockAcquire:
    case Type::kCheckViolation:
      return "check";
    default:
      return "gomp";
  }
}

/// Renders the two payload words with type-appropriate key names.
void append_args(std::string& s, const Event& e) {
  auto kv = [&s](const char* key, std::uint64_t v, bool first = false) {
    if (!first) s += ",";
    s += "\"";
    s += key;
    s += "\":";
    append_u64(s, v);
  };
  s += ",\"args\":{";
  switch (e.type) {
    case Type::kParallel:
      kv("width", e.a0, true);
      kv("nested", e.a1);
      break;
    case Type::kForkRing:
      kv("epoch", e.a0, true);
      kv("width", e.a1);
      break;
    case Type::kWorkerWake:
    case Type::kWorkerWork:
    case Type::kJoinWait:
      kv("epoch", e.a0, true);
      break;
    case Type::kBarrier:
      kv("width", e.a0, true);
      break;
    case Type::kLoopChunk:
      kv("lo", e.a0, true);
      kv("hi", e.a1);
      break;
    case Type::kStealAttempt:
      kv("victim", e.a0, true);
      break;
    case Type::kSteal:
      kv("victim", e.a0, true);
      break;
    case Type::kTaskSpawn:
      kv("tid", e.a0, true);
      kv("depth", e.a1);
      break;
    case Type::kTaskRun:
      kv("stolen", e.a0, true);
      break;
    case Type::kTaskSteal:
      kv("victim", e.a0, true);
      break;
    case Type::kMutexAcquire:
      kv("contended", e.a0, true);
      break;
    case Type::kNodeCreate:
    case Type::kNodeRetire:
      kv("node", e.a0, true);
      break;
    case Type::kShmemCreate:
      kv("key", e.a0, true);
      kv("bytes", e.a1);
      break;
    case Type::kFaultInject:
    case Type::kFaultRecover:
    case Type::kFaultExhaust:
      kv("site", e.a0, true);
      break;
    case Type::kLockAcquire:
      kv("lock_class", e.a0, true);
      kv("key", e.a1);
      break;
    case Type::kCheckViolation:
      kv("violation", e.a0, true);
      break;
    default:
      kv("a0", e.a0, true);
      kv("a1", e.a1);
      break;
  }
  s += "}";
}

}  // namespace

std::string chrome_json() {
  const std::vector<ThreadTrace> threads = snapshot();

  // Relative timestamps keep the numbers small and Perfetto's view anchored
  // near zero.
  std::uint64_t base_ns = UINT64_MAX;
  for (const auto& tt : threads) {
    for (const auto& e : tt.events) base_ns = std::min(base_ns, e.begin_ns);
  }
  if (base_ns == UINT64_MAX) base_ns = 0;

  std::string s;
  s.reserve(1024 + 160 * [&] {
    std::size_t n = 0;
    for (const auto& tt : threads) n += tt.events.size();
    return n;
  }());
  s += "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) s += ",\n";
    else s += "\n";
    first = false;
  };

  sep();
  s += R"({"ph":"M","pid":1,"name":"process_name","args":{"name":"ompmca"}})";
  for (const auto& tt : threads) {
    sep();
    s += R"({"ph":"M","pid":1,"tid":)";
    append_u64(s, tt.tid);
    s += R"(,"name":"thread_name","args":{"name":")";
    s += tt.tid == 0 ? "thread 0 (first registered)" : "thread ";
    if (tt.tid != 0) append_u64(s, tt.tid);
    s += "\"}}";
  }

  for (const auto& tt : threads) {
    for (const auto& e : tt.events) {
      if (e.type >= Type::kCount) continue;  // torn slot, be safe
      sep();
      s += R"({"ph":"X","pid":1,"tid":)";
      append_u64(s, tt.tid);
      s += ",\"ts\":";
      append_us(s, e.begin_ns - base_ns);
      s += ",\"dur\":";
      append_us(s, e.end_ns >= e.begin_ns ? e.end_ns - e.begin_ns : 0);
      s += ",\"name\":\"";
      s += name(e.type);
      s += "\",\"cat\":\"";
      s += category_of(e.type);
      s += "\"";
      append_args(s, e);
      s += "}";

      // Flow arrows: doorbell ring -> every worker wake of the same epoch.
      if (e.type == Type::kForkRing || e.type == Type::kWorkerWake) {
        const bool start = e.type == Type::kForkRing;
        sep();
        s += "{\"ph\":\"";
        s += start ? "s" : "f";
        s += R"(","pid":1,"tid":)";
        append_u64(s, tt.tid);
        s += ",\"ts\":";
        append_us(s, e.begin_ns - base_ns);
        s += R"(,"name":"fork","cat":"flow","id":)";
        append_u64(s, e.a0);
        if (!start) s += R"(,"bp":"e")";
        s += "}";
      }
    }
  }
  // The monotonic timestamp ts 0 corresponds to: lets tools line the trace
  // up against other monotonic-clock streams (the live monitor's mono_ns —
  // analyze_trace.py --monitor cross-references stall ticks this way).
  s += "\n],\"otherData\":{\"base_mono_ns\":";
  append_u64(s, base_ns);
  s += "}}\n";
  return s;
}

bool write_chrome_json(const std::string& path) {
  const std::string json = chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    OMPMCA_LOG_WARN("trace: cannot open %s for export", path.c_str());
    return false;
  }
  const std::size_t wrote = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = wrote == json.size() && std::fclose(f) == 0;
  if (!ok) OMPMCA_LOG_WARN("trace: short write to %s", path.c_str());
  return ok;
}

// --- crash flight record -----------------------------------------------------

void dump_flight_record(const char* reason) {
  if (!enabled()) return;
  const std::vector<ThreadTrace> threads = snapshot();

  std::uint64_t base_ns = UINT64_MAX;
  for (const auto& tt : threads) {
    for (const auto& e : tt.events) base_ns = std::min(base_ns, e.begin_ns);
  }
  if (base_ns == UINT64_MAX) base_ns = 0;

  std::string s;
  s += "=== ompmca trace flight record (";
  s += reason != nullptr ? reason : "?";
  s += ") ===\n";
  for (const auto& tt : threads) {
    if (tt.events.empty()) continue;
    s += "thread ";
    append_u64(s, tt.tid);
    s += " (recorded ";
    append_u64(s, tt.recorded);
    s += ", dropped ";
    append_u64(s, tt.dropped);
    s += "):\n";
    const std::size_t n = tt.events.size();
    const std::size_t from =
        n > kFlightRecordEvents ? n - kFlightRecordEvents : 0;
    for (std::size_t i = from; i < n; ++i) {
      const Event& e = tt.events[i];
      if (e.type >= Type::kCount) continue;
      s += "  +";
      append_us(s, e.begin_ns - base_ns);
      s += "us ";
      s += name(e.type);
      switch (e.type) {
        case Type::kLockAcquire:
          s += " class=";
          append_u64(s, e.a0);
          s += " key=";
          append_u64(s, e.a1);
          break;
        default:
          s += " a0=";
          append_u64(s, e.a0);
          s += " a1=";
          append_u64(s, e.a1);
          break;
      }
      if (e.end_ns > e.begin_ns) {
        s += " dur=";
        append_us(s, e.end_ns - e.begin_ns);
        s += "us";
      }
      s += "\n";
    }
  }
  s += "=== end flight record ===\n";

  TraceRegistry& reg = TraceRegistry::instance();
  {
    MutexLock lk(reg.flight_mu);
    reg.flight_count += 1;
    reg.flight_last = s;
  }
  std::fwrite(s.data(), 1, s.size(), stderr);
  std::fflush(stderr);
}

std::uint64_t flight_record_count() {
  TraceRegistry& reg = TraceRegistry::instance();
  MutexLock lk(reg.flight_mu);
  return reg.flight_count;
}

std::string last_flight_record() {
  TraceRegistry& reg = TraceRegistry::instance();
  MutexLock lk(reg.flight_mu);
  return reg.flight_last;
}

}  // namespace ompmca::obs::trace
