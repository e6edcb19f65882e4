// OpenMP internal control variables (ICVs) and their environment bindings.
//
// The subset an OpenMP 3.x-era runtime carries (what libGOMP 4.9 read):
// OMP_NUM_THREADS, OMP_SCHEDULE, OMP_DYNAMIC, OMP_NESTED,
// OMP_MAX_ACTIVE_LEVELS, OMP_WAIT_POLICY, OMP_THREAD_LIMIT.
#pragma once

#include <string>

namespace ompmca::gomp {

enum class Schedule { kStatic, kDynamic, kGuided, kAuto, kRuntime };

std::string_view to_string(Schedule s);

struct ScheduleSpec {
  Schedule kind = Schedule::kStatic;
  long chunk = 0;  // 0 = unspecified (static: block partition; dynamic: 1)
};

/// wait-policy-var.  kDefault is OMP_WAIT_POLICY unset: spin a short
/// window, then park (gomp/wait.hpp has the windows).
enum class WaitPolicy { kActive, kPassive, kDefault };

/// OMP_PROC_BIND subset: spread (scatter over cores/clusters, the default
/// board behaviour) or close (pack SMT siblings first).
enum class ProcBind { kSpread, kClose };

/// The max-active-levels omp_set_nested(true) and OMP_NESTED=true grant
/// (the supported maximum, per OpenMP 5.0's omp_set_nested).
inline constexpr unsigned kMaxSupportedActiveLevels = 8;

/// The per-data-environment ICV subset (OpenMP 2.5 §2.3: nthreads-var and
/// nest-var belong to the implicit task — inherited at fork, discarded at
/// region end; OpenMP 5.0 adds max-active-levels-var).  Runtime keeps these
/// as thread-local overrides over the global Icvs defaults, so
/// omp_set_num_threads() from one tenant thread never clobbers another
/// master's width.  thread_limit stays global.
struct EnvIcvs {
  unsigned num_threads = 1;        // nthreads-var
  bool nested = false;             // nest-var
  unsigned max_active_levels = 1;  // max-active-levels-var
};

struct Icvs {
  unsigned num_threads = 1;       // nthreads-var (global default)
  bool dynamic_threads = false;   // dyn-var
  bool nested = false;            // nest-var (global default)
  unsigned max_active_levels = 1;
  ScheduleSpec run_schedule{Schedule::kDynamic, 1};  // def-sched for runtime
  WaitPolicy wait_policy = WaitPolicy::kDefault;
  ProcBind proc_bind = ProcBind::kSpread;
  unsigned thread_limit = 1024;

  /// Reads OMP_* variables; @p default_threads seeds nthreads-var when
  /// OMP_NUM_THREADS is unset (the runtime passes the MRAPI metadata
  /// processor count here, §5B.4).
  static Icvs from_env(unsigned default_threads);
};

/// Parses an OMP_SCHEDULE value ("guided,4"); false on malformed input.
bool parse_schedule(const std::string& text, ScheduleSpec* out);

}  // namespace ompmca::gomp
