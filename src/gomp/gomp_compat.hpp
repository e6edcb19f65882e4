// libGOMP-compatible C entry points.
//
// A compiler lowering `#pragma omp ...` emits calls against the GOMP ABI;
// this shim exposes that surface (the OpenMP-3.x subset this runtime
// covers) over a process-wide default Runtime, so code written against
// libGOMP's entry points — including the paper's own fragments — can run
// on either backend by flipping one configuration call.
//
// Thread identity is implicit (the calling thread's innermost
// ParallelContext), exactly like the real ABI.  The default runtime is
// created on first use from OMPMCA_BACKEND (native|mca, default native)
// plus the usual OMP_* variables, or installed explicitly with
// gomp_compat_configure().
#pragma once

#include <memory>

#include "gomp/runtime.hpp"

namespace ompmca::gomp::compat {

/// Installs the process-wide runtime the shim dispatches to.  Must be
/// called before any GOMP_* entry (or not at all, for env-driven setup).
void gomp_compat_configure(RuntimeOptions options);

/// The shim's runtime (created on demand, then read with one acquire load).
/// Entries called from inside a region act on that region's runtime
/// instead, so a GOMP_parallel there nests in the enclosing team.
Runtime& gomp_compat_runtime();

/// Tears the default runtime down (tests; not part of the real ABI).
/// Refuses — returning false and leaving the runtime up — while any
/// GOMP_parallel is between resolving the runtime and returning from its
/// region: destroying the Runtime then would free the pool and its
/// dispatch slots out from under live workers.  Regions forked through
/// gomp_compat_runtime().parallel() directly are not counted.
bool gomp_compat_reset();

// --- parallel ----------------------------------------------------------------
/// GOMP_parallel: run fn(data) on a team of num_threads (0 = ICV).
void GOMP_parallel(void (*fn)(void*), void* data, unsigned num_threads);

// --- barriers / sync -----------------------------------------------------------
void GOMP_barrier();
void GOMP_critical_start();
void GOMP_critical_end();
void GOMP_critical_name_start(void** pptr);  // pptr identifies the name
void GOMP_critical_name_end(void** pptr);
bool GOMP_single_start();  // true for the winner; no implicit barrier

// --- static loops (the GOMP_loop_static contract) ------------------------------
/// Computes the calling thread's static block of [start, end); false when
/// the thread has no iterations.
bool GOMP_loop_static_start(long start, long end, long incr, long chunk,
                            long* istart, long* iend);
bool GOMP_loop_static_next(long* istart, long* iend);

// --- dynamic loops ---------------------------------------------------------------
/// Grabs the next dynamic chunk of the current worksharing loop.  The first
/// caller establishes the loop.
bool GOMP_loop_dynamic_start(long start, long end, long incr, long chunk,
                             long* istart, long* iend);
bool GOMP_loop_dynamic_next(long* istart, long* iend);
void GOMP_loop_end();         // barrier
void GOMP_loop_end_nowait();  // no barrier

// --- omp_* user API (subset) -----------------------------------------------------
int omp_get_thread_num();
int omp_get_num_threads();
int omp_get_max_threads();
int omp_get_num_procs();
int omp_in_parallel();
void omp_set_num_threads(int n);  // calling thread's nthreads-var only
void omp_set_nested(int nested);  // calling thread's nest-var only
int omp_get_nested();
double omp_get_wtime();

}  // namespace ompmca::gomp::compat
