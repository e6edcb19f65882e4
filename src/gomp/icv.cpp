#include "gomp/icv.hpp"

#include <algorithm>

#include "common/env.hpp"

namespace ompmca::gomp {

std::string_view to_string(Schedule s) {
  switch (s) {
    case Schedule::kStatic: return "static";
    case Schedule::kDynamic: return "dynamic";
    case Schedule::kGuided: return "guided";
    case Schedule::kAuto: return "auto";
    case Schedule::kRuntime: return "runtime";
  }
  return "?";
}

bool parse_schedule(const std::string& text, ScheduleSpec* out) {
  auto parts = split(text, ',');
  if (parts.empty() || parts.size() > 2) return false;
  ScheduleSpec spec;
  if (iequals(parts[0], "static")) {
    spec.kind = Schedule::kStatic;
  } else if (iequals(parts[0], "dynamic")) {
    spec.kind = Schedule::kDynamic;
  } else if (iequals(parts[0], "guided")) {
    spec.kind = Schedule::kGuided;
  } else if (iequals(parts[0], "auto")) {
    spec.kind = Schedule::kAuto;
  } else {
    return false;
  }
  if (parts.size() == 2) {
    long chunk = 0;
    // Strict parse: "dynamic,4x" and overflowing chunk sizes reject the
    // whole schedule string (the caller keeps its documented default).
    if (!parse_long(parts[1], &chunk) || chunk <= 0) return false;
    spec.chunk = chunk;
  } else if (spec.kind == Schedule::kDynamic || spec.kind == Schedule::kGuided) {
    spec.chunk = 1;
  }
  *out = spec;
  return true;
}

Icvs Icvs::from_env(unsigned default_threads) {
  // Upper clamp for the thread-count ICVs: values above this are honoured
  // as "as many as possible" instead of silently truncating in the cast to
  // unsigned (OMP_NUM_THREADS=99999999999999999999 is rejected outright by
  // the strict parser; OMP_NUM_THREADS=5000000000 clamps here).
  constexpr long kMaxThreadsIcv = 1L << 20;
  Icvs icvs;
  icvs.num_threads = std::max(1u, default_threads);
  if (auto n = env_long_clamped("OMP_NUM_THREADS", 0, kMaxThreadsIcv);
      n && *n > 0) {
    icvs.num_threads = static_cast<unsigned>(*n);
  }
  if (auto d = env_bool("OMP_DYNAMIC")) icvs.dynamic_threads = *d;
  if (auto n = env_bool("OMP_NESTED")) icvs.nested = *n;
  if (auto levels = env_long_clamped("OMP_MAX_ACTIVE_LEVELS", 0, 1024);
      levels && *levels > 0) {
    icvs.max_active_levels = static_cast<unsigned>(*levels);
  } else if (icvs.nested) {
    icvs.max_active_levels = kMaxSupportedActiveLevels;
  }
  if (auto s = env_string("OMP_SCHEDULE")) {
    (void)parse_schedule(*s, &icvs.run_schedule);  // bad env keeps default
  }
  if (auto w = env_string("OMP_WAIT_POLICY")) {
    // Any other value keeps the unset default, like libgomp.
    if (iequals(*w, "active")) icvs.wait_policy = WaitPolicy::kActive;
    if (iequals(*w, "passive")) icvs.wait_policy = WaitPolicy::kPassive;
  }
  if (auto b = env_string("OMP_PROC_BIND")) {
    if (iequals(*b, "close") || iequals(*b, "true"))
      icvs.proc_bind = ProcBind::kClose;
    if (iequals(*b, "spread") || iequals(*b, "false"))
      icvs.proc_bind = ProcBind::kSpread;
  }
  if (auto lim = env_long_clamped("OMP_THREAD_LIMIT", 0, kMaxThreadsIcv);
      lim && *lim > 0) {
    icvs.thread_limit = static_cast<unsigned>(*lim);
    icvs.num_threads = std::min(icvs.num_threads, icvs.thread_limit);
  }
  return icvs;
}

}  // namespace ompmca::gomp
