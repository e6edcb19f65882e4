#include "gomp/gomp_compat.hpp"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/annotations.hpp"
#include "common/env.hpp"
#include "common/locks.hpp"
#include "common/log.hpp"
#include "gomp/api.hpp"

namespace ompmca::gomp::compat {

namespace {

// g_mu guards creation, configuration and reset only; the steady state
// reads the runtime through g_published (one acquire load).
CapMutex g_mu;
std::unique_ptr<Runtime> g_runtime OMPMCA_GUARDED_BY(g_mu);
RuntimeOptions g_options OMPMCA_GUARDED_BY(g_mu);
bool g_configured OMPMCA_GUARDED_BY(g_mu) = false;
// g_runtime.get() once created, nullptr before and after a reset.
std::atomic<Runtime*> g_published{nullptr};
// Top-level GOMP_parallel calls between resolving the runtime and
// returning from its region; gomp_compat_reset() refuses while nonzero.
std::atomic<unsigned> g_forks_in_flight{0};

/// RAII share of g_forks_in_flight (exception-safe: a throwing body must
/// not leave the reset guard stuck).
class ForkInFlight {
 public:
  ForkInFlight() {
    // seq_cst: entry half of the Dekker pair with gomp_compat_reset() —
    // the raise precedes this entry's load of g_published.
    g_forks_in_flight.fetch_add(1, std::memory_order_seq_cst);
  }
  ~ForkInFlight() {
    // release: a reset that reads the drop sees the whole region retired.
    g_forks_in_flight.fetch_sub(1, std::memory_order_release);
  }
  ForkInFlight(const ForkInFlight&) = delete;
  ForkInFlight& operator=(const ForkInFlight&) = delete;
};

Runtime& runtime_locked() OMPMCA_REQUIRES(g_mu) {
  if (g_runtime == nullptr) {
    RuntimeOptions opts = g_options;
    if (!g_configured) {
      if (auto backend = env_string("OMPMCA_BACKEND")) {
        if (iequals(*backend, "mca")) opts.backend = BackendKind::kMca;
      }
    }
    g_runtime = std::make_unique<Runtime>(std::move(opts));
    // release: pairs with gomp_compat_runtime()'s acquire load — a reader
    // that sees the pointer sees the constructed runtime.
    g_published.store(g_runtime.get(), std::memory_order_release);
  }
  return *g_runtime;
}

ParallelContext& current_ctx() {
  ParallelContext* ctx = Runtime::current();
  assert(ctx != nullptr && "GOMP worksharing entry outside a parallel region");
  return *ctx;
}

/// The runtime an ABI entry acts on: inside a region, the calling thread's
/// own, so a GOMP_parallel there nests in the enclosing team and the ICV
/// entries read its data environment; outside one, the compat runtime.
/// Critical mutexes are not cached in the ABI's name slot:
/// gomp_compat_reset() would leave that pointer dangling.
Runtime& entry_runtime() {
  if (ParallelContext* ctx = Runtime::current()) return ctx->runtime();
  return gomp_compat_runtime();
}

/// A named critical's registry key: the ABI hands a per-name pointer slot,
/// and its address is the identity.
class CriticalName {
 public:
  explicit CriticalName(void** pptr) {
    len_ = std::snprintf(buf_, sizeof(buf_), "@%p", static_cast<void*>(pptr));
  }
  std::string_view view() const {
    return {buf_, static_cast<std::size_t>(len_)};
  }

 private:
  char buf_[32];
  int len_;
};

/// Always-on ABI guard: a loop start with incr == 0 used to return false
/// without opening a loop, and the GOMP_loop_end the compiler emits after
/// it then dereferenced a null descriptor in release builds.
[[noreturn]] void abi_misuse_abort(const char* what) {
  OMPMCA_LOG_ERROR("gomp: loop ABI misuse: %s", what);
  std::abort();
}

/// Normalizes a GOMP (start, end, incr) triple to iteration counts.
struct NormalizedLoop {
  long begin;   // iteration-space begin (always 0)
  long count;   // iterations
  long start;   // original start
  long incr;
};

NormalizedLoop normalize(long start, long end, long incr) {
  NormalizedLoop n{0, 0, start, incr};
  if (incr == 0) {
    abi_misuse_abort("loop start with incr == 0");
  } else if (incr > 0) {
    n.count = start < end ? (end - start + incr - 1) / incr : 0;
  } else {
    n.count = start > end ? (start - end + (-incr) - 1) / (-incr) : 0;
  }
  return n;
}

// Per-thread mapping of the open GOMP loop back to original indices.
thread_local NormalizedLoop t_open_loop{0, 0, 0, 1};

bool denormalize(bool got, long nlo, long nhi, long* istart, long* iend) {
  if (!got) return false;
  *istart = t_open_loop.start + nlo * t_open_loop.incr;
  *iend = t_open_loop.start + nhi * t_open_loop.incr;
  return true;
}

}  // namespace

void gomp_compat_configure(RuntimeOptions options) {
  MutexLock lk(g_mu);
  assert(g_runtime == nullptr && "configure after the runtime was created");
  g_options = std::move(options);
  g_configured = true;
}

Runtime& gomp_compat_runtime() {
  if (Runtime* rt = g_published.load(std::memory_order_acquire)) return *rt;
  MutexLock lk(g_mu);
  return runtime_locked();
}

bool gomp_compat_reset() {
  MutexLock lk(g_mu);
  if (g_runtime != nullptr) {
    // seq_cst: unpublish, then read the fork count — the reset half of
    // the Dekker pair with GOMP_parallel: a fork that raised the count
    // after this read loads the cleared pointer and creates a new runtime
    // under g_mu, and one that raised it before is seen here.
    g_published.store(nullptr, std::memory_order_seq_cst);
    if (g_forks_in_flight.load(std::memory_order_seq_cst) != 0) {
      // A fork resolved this runtime and has not returned: tearing it down
      // now would free the pool and its dispatch slots out from under live
      // workers.  Refuse; the caller retries after its masters drain.
      g_published.store(g_runtime.get(), std::memory_order_release);
      return false;
    }
  }
  g_runtime.reset();
  g_configured = false;
  g_options = RuntimeOptions{};
  return true;
}

void GOMP_parallel(void (*fn)(void*), void* data, unsigned num_threads) {
  auto body = [fn, data](ParallelContext&) { fn(data); };
  if (ParallelContext* ctx = Runtime::current()) {
    // Nested: the enclosing region keeps its runtime alive (and, for the
    // compat runtime, its own fork holds the count).
    ctx->runtime().parallel(body, num_threads);
    return;
  }
  ForkInFlight in_flight;
  // seq_cst: entry half of the Dekker pair with gomp_compat_reset().
  Runtime* rt = g_published.load(std::memory_order_seq_cst);
  if (rt == nullptr) {
    MutexLock lk(g_mu);
    rt = &runtime_locked();
  }
  rt->parallel(body, num_threads);
}

void GOMP_barrier() { current_ctx().barrier(); }

void GOMP_critical_start() {
  entry_runtime().unnamed_critical_mutex().lock();
}

void GOMP_critical_end() {
  entry_runtime().unnamed_critical_mutex().unlock();
}

void GOMP_critical_name_start(void** pptr) {
  entry_runtime().critical_mutex(CriticalName(pptr).view()).lock();
}

void GOMP_critical_name_end(void** pptr) {
  entry_runtime().critical_mutex(CriticalName(pptr).view()).unlock();
}

bool GOMP_single_start() { return current_ctx().single_begin(); }

bool GOMP_loop_static_start(long start, long end, long incr, long chunk,
                            long* istart, long* iend) {
  NormalizedLoop n = normalize(start, end, incr);
  t_open_loop = n;
  long nlo = 0, nhi = 0;
  bool got = current_ctx().loop_start(
      0, n.count, ScheduleSpec{Schedule::kStatic, chunk}, &nlo, &nhi);
  return denormalize(got, nlo, nhi, istart, iend);
}

bool GOMP_loop_static_next(long* istart, long* iend) {
  long nlo = 0, nhi = 0;
  bool got = current_ctx().loop_next(&nlo, &nhi);
  return denormalize(got, nlo, nhi, istart, iend);
}

bool GOMP_loop_dynamic_start(long start, long end, long incr, long chunk,
                             long* istart, long* iend) {
  NormalizedLoop n = normalize(start, end, incr);
  t_open_loop = n;
  long nlo = 0, nhi = 0;
  bool got = current_ctx().loop_start(
      0, n.count, ScheduleSpec{Schedule::kDynamic, chunk}, &nlo, &nhi);
  return denormalize(got, nlo, nhi, istart, iend);
}

bool GOMP_loop_dynamic_next(long* istart, long* iend) {
  long nlo = 0, nhi = 0;
  bool got = current_ctx().loop_next(&nlo, &nhi);
  return denormalize(got, nlo, nhi, istart, iend);
}

void GOMP_loop_end() { current_ctx().loop_end(/*nowait=*/false); }

void GOMP_loop_end_nowait() { current_ctx().loop_end(/*nowait=*/true); }

int omp_get_thread_num() { return gomp::omp_get_thread_num(); }
int omp_get_num_threads() { return gomp::omp_get_num_threads(); }
int omp_get_max_threads() {
  return gomp::omp_get_max_threads(entry_runtime());
}
int omp_get_num_procs() { return gomp::omp_get_num_procs(entry_runtime()); }
int omp_in_parallel() { return gomp::omp_in_parallel() ? 1 : 0; }
void omp_set_num_threads(int n) {
  gomp::omp_set_num_threads(entry_runtime(), n);
}
void omp_set_nested(int nested) {
  gomp::omp_set_nested(entry_runtime(), nested != 0);
}
int omp_get_nested() { return gomp::omp_get_nested(entry_runtime()) ? 1 : 0; }
double omp_get_wtime() { return gomp::omp_get_wtime(); }

}  // namespace ompmca::gomp::compat
