#include "gomp/gomp_compat.hpp"

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

CapMutex g_mu;
std::unique_ptr<Runtime> g_runtime OMPMCA_GUARDED_BY(g_mu);
RuntimeOptions g_options OMPMCA_GUARDED_BY(g_mu);
bool g_configured OMPMCA_GUARDED_BY(g_mu) = false;

Runtime& runtime_locked() OMPMCA_REQUIRES(g_mu) {
  if (g_runtime == nullptr) {
    RuntimeOptions opts = g_options;
    if (!g_configured) {
      if (auto backend = env_string("OMPMCA_BACKEND")) {
        if (iequals(*backend, "mca")) opts.backend = BackendKind::kMca;
      }
    }
    g_runtime = std::make_unique<Runtime>(std::move(opts));
  }
  return *g_runtime;
}

ParallelContext& current_ctx() {
  ParallelContext* ctx = Runtime::current();
  assert(ctx != nullptr && "GOMP worksharing entry outside a parallel region");
  return *ctx;
}

/// The runtime a critical entry locks in: inside a region, the calling
/// thread's own (no process-wide lock on the per-call path); outside one,
/// the compat runtime.  The mutex itself is not cached in the ABI's name
/// slot: gomp_compat_reset() would leave that pointer dangling.
Runtime& critical_runtime() {
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
  MutexLock lk(g_mu);
  return runtime_locked();
}

bool gomp_compat_reset() {
  MutexLock lk(g_mu);
  if (g_runtime != nullptr && g_runtime->regions_in_flight() > 0) {
    // A region is mid-flight on some application thread: tearing the
    // runtime down now would free the pool and its dispatch slots out
    // from under live workers.  Refuse; the caller retries after its
    // masters drain.
    return false;
  }
  g_runtime.reset();
  g_configured = false;
  g_options = RuntimeOptions{};
  return true;
}

void GOMP_parallel(void (*fn)(void*), void* data, unsigned num_threads) {
  gomp_compat_runtime().parallel(
      [fn, data](ParallelContext&) { fn(data); }, num_threads);
}

void GOMP_barrier() { current_ctx().barrier(); }

void GOMP_critical_start() {
  critical_runtime().unnamed_critical_mutex().lock();
}

void GOMP_critical_end() {
  critical_runtime().unnamed_critical_mutex().unlock();
}

void GOMP_critical_name_start(void** pptr) {
  critical_runtime().critical_mutex(CriticalName(pptr).view()).lock();
}

void GOMP_critical_name_end(void** pptr) {
  critical_runtime().critical_mutex(CriticalName(pptr).view()).unlock();
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
  return gomp::omp_get_max_threads(gomp_compat_runtime());
}
int omp_get_num_procs() {
  return gomp::omp_get_num_procs(gomp_compat_runtime());
}
int omp_in_parallel() { return gomp::omp_in_parallel() ? 1 : 0; }
void omp_set_num_threads(int n) {
  gomp::omp_set_num_threads(gomp_compat_runtime(), n);
}
void omp_set_nested(int nested) {
  gomp::omp_set_nested(gomp_compat_runtime(), nested != 0);
}
int omp_get_nested() {
  return gomp::omp_get_nested(gomp_compat_runtime()) ? 1 : 0;
}
double omp_get_wtime() { return gomp::omp_get_wtime(); }

}  // namespace ompmca::gomp::compat
