#include "check/check.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "common/annotations.hpp"
#include "common/locks.hpp"
#include "common/env.hpp"
#include "obs/event.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ompmca::check {

namespace {

// --- identity -----------------------------------------------------------------

/// Order-graph node id: [class:8][keyed:1][key/ptr-hash:55].  Keys survive
/// delete/recreate (lockdep reasons about lock *classes*, not instances), so
/// a recreated key-7 mutex keeps its ordering history.
constexpr std::uint64_t kKeyedBit = std::uint64_t{1} << 55;

std::uint64_t ptr_hash(const void* p) {
  auto v = reinterpret_cast<std::uintptr_t>(p);
  // splitmix-style mix, truncated to the 55-bit payload.
  std::uint64_t x = static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ull;
  x ^= x >> 29;
  return x & (kKeyedBit - 1);
}

std::uint64_t node_id(LockClass cls, bool keyed, std::uint64_t payload) {
  return (static_cast<std::uint64_t>(cls) << 56) |
         (keyed ? kKeyedBit : 0) | (payload & (kKeyedBit - 1));
}

// --- global state -------------------------------------------------------------

struct ObjInfo {
  LockClass cls{};
  std::uint64_t key = 0;
  std::uint64_t generation = 0;
  bool alive = false;
};

struct Edge {
  const char* from_site = "";
  const char* to_site = "";
  std::uint64_t from_key = 0;
  std::uint64_t to_key = 0;
  LockClass from_cls{};
  LockClass to_cls{};
};

struct HeldLock {
  std::uint64_t node = 0;
  LockClass cls{};
  std::uint64_t key = 0;
  const void* obj = nullptr;
  const char* site = "";
};

struct ThreadState {
  std::vector<HeldLock> held;
  int single_depth = 0;
  int critical_depth = 0;
  std::vector<const void*> workshare;  // active worksharing regions (teams)
};

ThreadState& tls() {
  thread_local ThreadState state;
  return state;
}

struct Global {
  CapMutex mu;
  // obj -> lifecycle info (pointers are overwritten on reuse-after-free of
  // the address by a new resource).
  std::map<const void*, ObjInfo> objects OMPMCA_GUARDED_BY(mu);
  // (class, key) -> generation counter; presence means the key existed.
  std::map<std::pair<unsigned, std::uint64_t>, std::uint64_t> generations
      OMPMCA_GUARDED_BY(mu);
  // acquisition-order graph: from-node -> (to-node -> first edge seen).
  std::map<std::uint64_t, std::map<std::uint64_t, Edge>> edges
      OMPMCA_GUARDED_BY(mu);
  // deduplication: violation signature -> index into violations.
  std::map<std::string, std::size_t> dedup OMPMCA_GUARDED_BY(mu);
  std::vector<Violation> violations OMPMCA_GUARDED_BY(mu);
  std::atomic<std::uint64_t> total{0};
};

Global& global() {
  // Leaked: worker threads may release locks during process teardown.
  static Global* g = new Global();
  return *g;
}

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_abort{false};

using obs::append_u64;

std::string describe(LockClass cls, std::uint64_t key) {
  std::string s(name(cls));
  s += " key ";
  append_u64(s, key);
  return s;
}

/// Records (deduplicated) and honours OMPMCA_CHECK_ABORT.  Caller holds
/// g.mu.  Returns true when this signature is new.
bool record_locked(Global& g, std::string signature, Violation v) {
  g.total.fetch_add(1, std::memory_order_relaxed);
  auto it = g.dedup.find(signature);
  if (it != g.dedup.end()) {
    ++g.violations[it->second].count;
    return false;
  }
  v.count = 1;
  g.dedup.emplace(std::move(signature), g.violations.size());
  std::fprintf(stderr, "[OMPMCA_CHECK] %s: %s (%s) at %s\n",
               std::string(name(v.kind)).c_str(), v.message.c_str(),
               describe(v.lock_class, v.key).c_str(), v.site.c_str());
  // Attach the event history: the flight record shows the acquisitions that
  // led here (the tracer takes no lock that can point back at g.mu).
  obs::emit(obs::Event::kCheckViolation, static_cast<std::uint64_t>(v.kind));
  obs::trace::dump_flight_record("check:" + std::string(name(v.kind)));
  g.violations.push_back(std::move(v));
  if (g_abort.load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "[OMPMCA_CHECK] OMPMCA_CHECK_ABORT=1, aborting\n");
    std::fflush(stderr);
    std::abort();
  }
  return true;
}

std::string signature(ViolationKind kind, std::uint64_t a, std::uint64_t b) {
  std::string s(name(kind));
  s += '|';
  append_u64(s, a);
  s += '|';
  append_u64(s, b);
  return s;
}

/// DFS reachability from @p from to @p to over the order graph (g.mu held).
bool path_exists(Global& g, std::uint64_t from, std::uint64_t to,
                 std::vector<std::uint64_t>* path) {
  std::set<std::uint64_t> visited;
  std::vector<std::uint64_t> stack{from};
  std::map<std::uint64_t, std::uint64_t> parent;
  while (!stack.empty()) {
    std::uint64_t cur = stack.back();
    stack.pop_back();
    if (!visited.insert(cur).second) continue;
    if (cur == to) {
      if (path != nullptr) {
        path->clear();
        for (std::uint64_t n = to; n != from; n = parent[n]) {
          path->push_back(n);
        }
        path->push_back(from);
        // path is to..from; reverse to from..to.
        for (std::size_t i = 0, j = path->size() - 1; i < j; ++i, --j) {
          std::swap((*path)[i], (*path)[j]);
        }
      }
      return true;
    }
    auto it = g.edges.find(cur);
    if (it == g.edges.end()) continue;
    for (const auto& [next, edge] : it->second) {
      if (visited.count(next) != 0) continue;
      if (parent.find(next) == parent.end()) parent[next] = cur;
      stack.push_back(next);
    }
  }
  return false;
}

ObjInfo lookup_obj(Global& g, LockClass cls, const void* obj,
                   std::uint64_t key_hint) {
  auto it = g.objects.find(obj);
  if (it != g.objects.end() && it->second.cls == cls) return it->second;
  ObjInfo info;
  info.cls = cls;
  if (key_hint != 0) {
    info.key = key_hint;
    info.alive = true;
  } else {
    info.key = ptr_hash(obj);
    info.alive = true;
  }
  return info;
}

}  // namespace

std::string_view name(LockClass c) {
  switch (c) {
    case LockClass::kMrapiMutex: return "mrapi_mutex";
    case LockClass::kMrapiRwlock: return "mrapi_rwlock";
    case LockClass::kMrapiSemaphore: return "mrapi_semaphore";
    case LockClass::kMrapiShmem: return "mrapi_shmem";
    case LockClass::kMrapiRmem: return "mrapi_rmem";
    case LockClass::kGompCritical: return "gomp_critical";
    case LockClass::kGompUserLock: return "gomp_user_lock";
    case LockClass::kGompPool: return "gomp_pool";
    case LockClass::kCount: break;
  }
  return "?";
}

std::string_view name(ViolationKind k) {
  switch (k) {
    case ViolationKind::kLockOrderInversion: return "lock_order_inversion";
    case ViolationKind::kDoubleUnlock: return "double_unlock";
    case ViolationKind::kUnlockNotOwner: return "unlock_not_owner";
    case ViolationKind::kUseAfterDelete: return "use_after_delete";
    case ViolationKind::kDoubleDelete: return "double_delete";
    case ViolationKind::kNodeRetireWithHeldLocks:
      return "node_retire_with_held_locks";
    case ViolationKind::kBarrierWhileHoldingLock:
      return "barrier_while_holding_lock";
    case ViolationKind::kBarrierInsideSingle: return "barrier_inside_single";
    case ViolationKind::kBarrierInsideCritical:
      return "barrier_inside_critical";
    case ViolationKind::kBarrierInsideWorksharing:
      return "barrier_inside_worksharing";
    case ViolationKind::kNestedWorksharing: return "nested_worksharing";
    case ViolationKind::kCount: break;
  }
  return "?";
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void set_abort_on_violation(bool on) {
  g_abort.store(on, std::memory_order_relaxed);
}

bool abort_on_violation() { return g_abort.load(std::memory_order_relaxed); }

void reset() {
  Global& g = global();
  MutexLock lk(g.mu);
  g.objects.clear();
  g.generations.clear();
  g.edges.clear();
  g.dedup.clear();
  g.violations.clear();
  g.total.store(0, std::memory_order_relaxed);
}

// --- lifecycle ----------------------------------------------------------------

void on_create(LockClass cls, std::uint64_t key, const void* obj) {
  Global& g = global();
  MutexLock lk(g.mu);
  std::uint64_t& gen =
      g.generations[{static_cast<unsigned>(cls), key}];
  ++gen;
  ObjInfo info;
  info.cls = cls;
  info.key = key;
  info.generation = gen;
  info.alive = true;
  g.objects[obj] = info;  // address reuse overwrites the stale entry
}

void on_delete(LockClass cls, std::uint64_t key, const void* obj) {
  Global& g = global();
  MutexLock lk(g.mu);
  auto it = g.objects.find(obj);
  if (it == g.objects.end() || it->second.cls != cls ||
      it->second.key != key) {
    return;
  }
  it->second.alive = false;
}

void on_delete_missing(LockClass cls, std::uint64_t key, const char* site) {
  Global& g = global();
  MutexLock lk(g.mu);
  auto gen = g.generations.find({static_cast<unsigned>(cls), key});
  if (gen == g.generations.end()) return;  // never existed: plain bad key
  Violation v;
  v.kind = ViolationKind::kDoubleDelete;
  v.lock_class = cls;
  v.key = key;
  v.site = site;
  v.message = "delete of already-deleted " + describe(cls, key) +
              " (last generation ";
  append_u64(v.message, gen->second);
  v.message += ")";
  record_locked(g, signature(v.kind, node_id(cls, true, key), 0),
                std::move(v));
}

void on_use_after_delete(LockClass cls, const void* obj, const char* site) {
  Global& g = global();
  MutexLock lk(g.mu);
  ObjInfo info = lookup_obj(g, cls, obj, 0);
  Violation v;
  v.kind = ViolationKind::kUseAfterDelete;
  v.lock_class = cls;
  v.key = info.key;
  v.site = site;
  v.message = "operation on deleted " + describe(cls, info.key) +
              " through a stale handle (generation ";
  append_u64(v.message, info.generation);
  v.message += ")";
  record_locked(g, signature(v.kind, node_id(cls, true, info.key), 0),
                std::move(v));
}

// --- lock order ---------------------------------------------------------------

void on_acquire(LockClass cls, const void* obj, std::uint64_t key_hint,
                const char* site) {
  Global& g = global();
  ThreadState& ts = tls();

  HeldLock held;
  held.cls = cls;
  held.obj = obj;
  held.site = site;

  {
    MutexLock lk(g.mu);
    ObjInfo info = lookup_obj(g, cls, obj, key_hint);
    held.key = info.key;
    held.node = node_id(cls, true, info.key);
    // Recorded before the edge scan so a violation's flight record already
    // contains the offending acquisition.
    obs::emit(obs::Event::kLockAcquire, static_cast<std::uint64_t>(cls),
              held.key);

    // One edge from every currently-held lock to the new one.
    for (const HeldLock& h : ts.held) {
      if (h.node == held.node) continue;  // recursive re-acquire
      auto& out = g.edges[h.node];
      auto it = out.find(held.node);
      const bool new_edge = it == out.end();
      if (new_edge) {
        Edge e;
        e.from_site = h.site;
        e.to_site = site;
        e.from_key = h.key;
        e.to_key = held.key;
        e.from_cls = h.cls;
        e.to_cls = cls;
        out.emplace(held.node, e);
      }
      if (!new_edge) continue;
      // Did this edge close a cycle?  A pre-existing path new -> held means
      // some other history acquired them in the opposite order.
      std::vector<std::uint64_t> path;
      if (!path_exists(g, held.node, h.node, &path)) continue;
      Violation v;
      v.kind = ViolationKind::kLockOrderInversion;
      v.lock_class = cls;
      v.key = held.key;
      v.site = site;
      v.message = "acquiring " + describe(cls, held.key) + " (at ";
      v.message += site;
      v.message += ") while holding " + describe(h.cls, h.key) +
                   " (acquired at ";
      v.message += h.site;
      v.message += ") inverts the established order";
      // Append the conflicting chain with its acquisition sites.
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const Edge& e = g.edges[path[i]][path[i + 1]];
        v.message += "; prior " + describe(e.from_cls, e.from_key) +
                     " (held at ";
        v.message += e.from_site;
        v.message += ") -> " + describe(e.to_cls, e.to_key) +
                     " (acquired at ";
        v.message += e.to_site;
        v.message += ")";
      }
      const std::uint64_t a = std::min(held.node, h.node);
      const std::uint64_t b = std::max(held.node, h.node);
      record_locked(g, signature(v.kind, a, b), std::move(v));
    }
  }

  // Semaphores have no owner: a unit acquired here is routinely released by
  // another thread, which would strand this entry on our stack forever and
  // turn every later node-retire / barrier check into a false positive.
  // They still feed the order graph above (as edge targets), just not the
  // per-thread held state.
  if (cls != LockClass::kMrapiSemaphore) ts.held.push_back(held);
}

void on_release(LockClass cls, const void* obj) {
  if (cls == LockClass::kMrapiSemaphore) return;  // never on the held stack
  ThreadState& ts = tls();
  for (std::size_t i = ts.held.size(); i-- > 0;) {
    if (ts.held[i].obj == obj && ts.held[i].cls == cls) {
      ts.held.erase(ts.held.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
  // Released by a thread that never acquired it: legal for semaphores
  // (cross-thread post); the mutex/rwlock owner checks live in the
  // primitives themselves.
}

void on_double_unlock(LockClass cls, const void* obj, const char* site) {
  Global& g = global();
  MutexLock lk(g.mu);
  ObjInfo info = lookup_obj(g, cls, obj, 0);
  Violation v;
  v.kind = ViolationKind::kDoubleUnlock;
  v.lock_class = cls;
  v.key = info.key;
  v.site = site;
  v.message = "unlock of " + describe(cls, info.key) + " which is not held";
  record_locked(g, signature(v.kind, node_id(cls, true, info.key), 0),
                std::move(v));
}

void on_unlock_not_owner(LockClass cls, const void* obj, const char* site) {
  Global& g = global();
  MutexLock lk(g.mu);
  ObjInfo info = lookup_obj(g, cls, obj, 0);
  Violation v;
  v.kind = ViolationKind::kUnlockNotOwner;
  v.lock_class = cls;
  v.key = info.key;
  v.site = site;
  v.message = "unlock of " + describe(cls, info.key) +
              " by a thread that does not own it (or with a stale lock key)";
  record_locked(g, signature(v.kind, node_id(cls, true, info.key), 0),
                std::move(v));
}

std::size_t held_count() {
  const ThreadState& ts = tls();
  std::size_t n = 0;
  for (const HeldLock& h : ts.held) {
    if (h.cls != LockClass::kGompPool) ++n;
  }
  return n;
}

// --- node lifecycle -----------------------------------------------------------

void on_node_retire(std::uint64_t nid, const char* site) {
  ThreadState& ts = tls();
  std::string held_desc;
  std::size_t n = 0;
  for (const HeldLock& h : ts.held) {
    if (h.cls == LockClass::kGompPool) continue;
    if (n++ > 0) held_desc += ", ";
    held_desc += describe(h.cls, h.key) + " (acquired at ";
    held_desc += h.site;
    held_desc += ")";
  }
  if (n == 0) return;
  Global& g = global();
  MutexLock lk(g.mu);
  Violation v;
  v.kind = ViolationKind::kNodeRetireWithHeldLocks;
  v.lock_class = LockClass::kMrapiMutex;
  v.key = nid;
  v.site = site;
  v.message = "node ";
  append_u64(v.message, nid);
  v.message += " finalized while its thread holds " + held_desc;
  record_locked(g, signature(v.kind, nid, 0), std::move(v));
}

// --- gomp usage ---------------------------------------------------------------

void on_region_enter(Region r, const void* team) {
  ThreadState& ts = tls();
  switch (r) {
    case Region::kSingle:
      ++ts.single_depth;
      break;
    case Region::kCritical:
      ++ts.critical_depth;
      break;
    case Region::kWorkshare: {
      if (!ts.workshare.empty() && ts.workshare.back() == team) {
        Global& g = global();
        MutexLock lk(g.mu);
        Violation v;
        v.kind = ViolationKind::kNestedWorksharing;
        v.lock_class = LockClass::kGompPool;
        v.key = ptr_hash(team);
        v.site = "gomp/workshare";
        v.message =
            "worksharing construct entered inside an active worksharing "
            "region of the same team";
        record_locked(g, signature(v.kind, v.key, 0), std::move(v));
      }
      ts.workshare.push_back(team);
      break;
    }
  }
}

void on_region_exit(Region r, const void* team) {
  ThreadState& ts = tls();
  switch (r) {
    case Region::kSingle:
      if (ts.single_depth > 0) --ts.single_depth;
      break;
    case Region::kCritical:
      if (ts.critical_depth > 0) --ts.critical_depth;
      break;
    case Region::kWorkshare:
      for (std::size_t i = ts.workshare.size(); i-- > 0;) {
        if (ts.workshare[i] == team) {
          ts.workshare.erase(ts.workshare.begin() +
                             static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      break;
  }
}

void on_barrier_usage(const void* team, const char* site) {
  (void)team;
  ThreadState& ts = tls();
  ViolationKind kind;
  const char* what;
  if (ts.critical_depth > 0) {
    kind = ViolationKind::kBarrierInsideCritical;
    what = "team barrier inside a critical region";
  } else if (ts.single_depth > 0) {
    kind = ViolationKind::kBarrierInsideSingle;
    what = "team barrier inside a single region";
  } else if (!ts.workshare.empty()) {
    kind = ViolationKind::kBarrierInsideWorksharing;
    what = "team barrier inside a worksharing region body";
  } else {
    return;
  }
  Global& g = global();
  MutexLock lk(g.mu);
  Violation v;
  v.kind = kind;
  v.lock_class = LockClass::kGompPool;
  v.key = 0;
  v.site = site;
  v.message = what;
  record_locked(g, signature(kind, ptr_hash(site), 0), std::move(v));
}

void on_barrier_held(const char* site) {
  ThreadState& ts = tls();
  const HeldLock* top = nullptr;
  for (std::size_t i = ts.held.size(); i-- > 0;) {
    if (ts.held[i].cls != LockClass::kGompPool) {
      top = &ts.held[i];
      break;
    }
  }
  if (top == nullptr) return;
  Global& g = global();
  MutexLock lk(g.mu);
  Violation v;
  v.kind = ViolationKind::kBarrierWhileHoldingLock;
  v.lock_class = top->cls;
  v.key = top->key;
  v.site = site;
  v.message = "blocking on a team barrier while holding " +
              describe(top->cls, top->key) + " (acquired at ";
  v.message += top->site;
  v.message += "); peers needing that lock can never arrive";
  record_locked(g, signature(v.kind, top->node, 0), std::move(v));
}

// --- reporting ----------------------------------------------------------------

std::vector<Violation> violations() {
  Global& g = global();
  MutexLock lk(g.mu);
  return g.violations;
}

std::uint64_t violation_count() {
  Global& g = global();
  MutexLock lk(g.mu);
  return g.violations.size();
}

namespace {

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
  std::string s = "{\"enabled\": ";
  s += enabled() ? "true" : "false";
  s += ", \"violations_total\": ";
  append_u64(s, g.total.load(std::memory_order_relaxed));
  s += ", \"violations\": [";
  bool first = true;
  for (const Violation& v : g.violations) {
    if (!first) s += ", ";
    first = false;
    s += "{\"kind\": \"";
    s += name(v.kind);
    s += "\", \"class\": \"";
    s += name(v.lock_class);
    s += "\", \"key\": ";
    append_u64(s, v.key);
    s += ", \"count\": ";
    append_u64(s, v.count);
    s += ", \"site\": \"";
    append_json_escaped(s, v.site);
    s += "\", \"message\": \"";
    append_json_escaped(s, v.message);
    s += "\"}";
  }
  s += "]}";
  return s;
}

// --- bootstrap ----------------------------------------------------------------
//
// Only compiled-in builds self-enable and join the obs report; the core
// above stays link-time inert (and directly unit-testable) otherwise.

#if OMPMCA_CHECK_ENABLED
namespace {
[[maybe_unused]] const bool g_bootstrap = [] {
  bool on = true;
  if (auto v = env_bool("OMPMCA_CHECK")) on = *v;
  set_enabled(on);
  if (auto v = env_bool("OMPMCA_CHECK_ABORT")) set_abort_on_violation(*v);
  obs::register_report_section("check", &json_section);
  return true;
}();
}  // namespace
#endif

}  // namespace ompmca::check
