#include "gomp/team.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "check/check.hpp"
#include "common/log.hpp"
#include "common/time.hpp"
#include "gomp/runtime.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ompmca::gomp {

namespace {

/// Stable order-graph key for a named critical's backing mutex (FNV-1a of
/// the name), so inversion reports name the construct, not a pointer.
[[maybe_unused]] std::uint64_t critical_key(std::string_view name) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Always-on worksharing-loop protocol guard: loop_next/loop_end without an
/// open loop used to dereference a null descriptor in release builds, where
/// the only guard was a debug assert.
[[noreturn]] void loop_protocol_abort(const char* what) {
  OMPMCA_LOG_ERROR("gomp: worksharing loop protocol violation: %s", what);
  std::abort();
}

/// Unlocks a BackendMutex the caller already holds (the telemetry path
/// acquires with try_lock-then-lock so it can count contention).
class AdoptedBackendLock {
 public:
  explicit AdoptedBackendLock(BackendMutex& m) : m_(m) {}
  ~AdoptedBackendLock() { m_.unlock(); }
  AdoptedBackendLock(const AdoptedBackendLock&) = delete;
  AdoptedBackendLock& operator=(const AdoptedBackendLock&) = delete;

 private:
  BackendMutex& m_;
};

}  // namespace

Team::Team(Runtime& rt, unsigned nthreads, ParallelContext* parent_ctx)
    : rt_(rt),
      nthreads_(nthreads),
      level_(parent_ctx != nullptr ? parent_ctx->level() + 1 : 1),
      active_level_(
          (parent_ctx != nullptr ? parent_ctx->team().active_level() : 0) +
          (nthreads > 1 ? 1 : 0)),
      parent_ctx_(parent_ctx),
      inherited_env_(rt.env_icvs()),
      spin_ns_(spin_window_ns(rt.icvs().wait_policy, nthreads)),
      barrier_(nthreads, rt.icvs().wait_policy),
      meters_(nthreads),
      reduce_slots_(nthreads) {
  tasks_.configure(nthreads_, rt.task_tuning());
}

void Team::run_thread(unsigned tid, FunctionRef<void(ParallelContext&)> body) {
  ParallelContext ctx;
  ctx.team_ = this;
  ctx.tid_ = tid;
  // Each thread's implicit task: refcounted so children can pin it past
  // this frame, and so taskwait tracks its children per spec.
  Task* implicit_task = tasks_.make_implicit();
  ctx.current_task_ = implicit_task;

  // Make the context discoverable by the omp_*-style shims, restoring the
  // enclosing one on exit (nested regions).
  ParallelContext* saved = Runtime::t_current_;
  Runtime::t_current_ = &ctx;
  // Per-data-environment ICVs: inherit the master's fork-time values for
  // the region, restore this thread's own environment afterwards — an
  // omp_set_num_threads inside the region dies with the region, per spec.
  std::optional<EnvIcvs> saved_env = rt_.swap_env_override(inherited_env_);
  body(ctx);
  // Region-ending synchronisation, split in two.  Draining here guarantees
  // every explicit task finishes inside the region (OpenMP requires it of
  // the implicit barrier): each spawner drains until the task system is
  // quiescent, and the master cannot pass the join until every thread's
  // drain returned.  The thread rendezvous itself is the fork/join join —
  // the pool slot's active count, at every nesting level.  Workers have
  // nothing to execute after the region, so they
  // signal arrival and park instead of sleeping through a full barrier
  // release broadcast first; the release is observable only by the master,
  // and the join gives it exactly that.
  tasks_.drain(tid, &ctx.current_task_);
  rt_.swap_env_override(saved_env);
  Runtime::t_current_ = saved;
  implicit_task->release();
}

void Team::finish() {
  if (parent_ctx_ != nullptr) {
    // Nested team: fold our meters into the parent thread's meter.
    platform::Work& parent_meter = parent_ctx_->meter();
    for (auto& m : meters_) parent_meter += m.value;
  } else {
    // Top-level team: publish into the *master's* thread-local slot.
    // Concurrent masters each finish their own regions; a shared member
    // here was a data race as soon as two top-level regions overlapped.
    std::vector<platform::Work>& out = rt_.last_meters_slot();
    out.assign(meters_.size(), platform::Work{});
    for (std::size_t i = 0; i < meters_.size(); ++i) {
      out[i] = meters_[i].value;
    }
  }
}

void Team::reset() {
  inherited_env_ = rt_.env_icvs();
  single_counter_.store(0, std::memory_order_relaxed);
  for (auto& m : meters_) m.value = platform::Work{};
  for (LoopInstance& loop : loops_) loop.reset();
  for (SectionsInstance& ws : sections_) ws.reset();
  tasks_.reset();
}

// --- ParallelContext -----------------------------------------------------------

unsigned ParallelContext::num_threads() const { return team_->nthreads_; }

unsigned ParallelContext::level() const { return team_->level_; }

Runtime& ParallelContext::runtime() const { return team_->rt_; }

void ParallelContext::barrier() { barrier_impl<false>({}); }

void ParallelContext::combining_barrier(FunctionRef<void()> combine) {
  barrier_impl<true>(combine);
}

template <bool kCombine>
void ParallelContext::barrier_impl(FunctionRef<void()> combine) {
  OMPMCA_CHECK_BARRIER_USAGE(team_);
  team_->tasks_.drain(tid_, &current_task_);
  // Width-1 fast path: the drain above is the whole barrier — no atomics,
  // no sense flip, no telemetry noise for serialized regions.  The
  // held-lock audit still applies: a barrier under a lock is a program
  // bug regardless of team width (wider runs would deadlock).
  if (team_->nthreads_ == 1) {
    OMPMCA_CHECK_BARRIER_HELD();
    if constexpr (kCombine) combine();
    return;
  }
  auto arrive = [&] {
    if constexpr (kCombine) {
      team_->barrier_.arrive_and_wait(combine);
    } else {
      team_->barrier_.arrive_and_wait();
    }
  };
  if (obs::enabled() || obs::trace::enabled()) {
    obs::count(obs::Counter::kGompBarrier);
    const std::uint64_t t0 = monotonic_nanos();
    arrive();
    if (obs::enabled()) {
      obs::record(obs::Hist::kGompBarrierWaitCentralNs,
                  monotonic_nanos() - t0);
    }
    obs::trace::complete(obs::trace::Type::kBarrier, t0, team_->nthreads_);
  } else {
    arrive();
  }
}

ScheduleSpec ParallelContext::resolve_schedule(ScheduleSpec spec) const {
  if (spec.kind == Schedule::kRuntime) spec = team_->rt_.icvs().run_schedule;
  return spec;
}

std::optional<ParallelContext::StaticLoop> ParallelContext::static_loop(
    long begin, long end, ScheduleSpec spec) {
  switch (spec.kind) {
    case Schedule::kStatic:
    case Schedule::kRuntime:  // run-sched-var itself unset: static
      return StaticLoop{begin, end, spec.chunk};
    case Schedule::kAuto:
      return StaticLoop{begin, end, 0};
    case Schedule::kDynamic:
    case Schedule::kGuided:
      break;
  }
  return std::nullopt;
}

bool ParallelContext::next_static_chunk(const StaticLoop& loop, long* pos,
                                        long* lo, long* hi) const {
  if (!static_chunk(loop.begin, loop.end, loop.chunk, tid_, team_->nthreads_,
                    *pos, lo, hi)) {
    return false;
  }
  ++*pos;
  // Per-chunk events are full-mode only, as for shared loops.
  if (obs::trace::verbose()) {
    obs::trace::instant(obs::trace::Type::kLoopChunk,
                        static_cast<std::uint64_t>(*lo),
                        static_cast<std::uint64_t>(*hi));
  }
  return true;
}

LoopInstance& ParallelContext::enter_shared_loop(long begin, long end,
                                                 ScheduleSpec spec) {
  LoopInstance& loop = team_->loops_[loop_gen_ % kWorkshareRing];
  loop.enter(loop_gen_, begin, end, spec, team_->nthreads_, team_->spin_ns_);
  ++loop_gen_;
  return loop;
}

void ParallelContext::for_loop(long begin, long end,
                               FunctionRef<void(long, long)> body,
                               ScheduleSpec spec, bool nowait) {
  obs::count(obs::Counter::kGompFor);
  obs::ScopedTimer timer(obs::Hist::kGompForNs);
  spec = resolve_schedule(spec);
  obs::trace::Span span(obs::trace::Type::kFor,
                        static_cast<std::uint64_t>(spec.kind));
  long pos = 0;
  long lo = 0;
  long hi = 0;
  if (const std::optional<StaticLoop> st = static_loop(begin, end, spec)) {
    // No shared state: this thread's chunks follow from its tid alone.
    OMPMCA_CHECK_REGION_ENTER(check::Region::kWorkshare, team_);
    while (next_static_chunk(*st, &pos, &lo, &hi)) body(lo, hi);
    OMPMCA_CHECK_REGION_EXIT(check::Region::kWorkshare, team_);
  } else {
    LoopInstance& loop = enter_shared_loop(begin, end, spec);
    OMPMCA_CHECK_REGION_ENTER(check::Region::kWorkshare, team_);
    while (loop.next_chunk(tid_, &pos, &lo, &hi)) body(lo, hi);
    OMPMCA_CHECK_REGION_EXIT(check::Region::kWorkshare, team_);
    loop.leave();
  }
  if (!nowait) barrier();
}

void ParallelContext::for_loop_ordered(long begin, long end,
                                       FunctionRef<void(long, long)> body,
                                       ScheduleSpec spec) {
  obs::count(obs::Counter::kGompFor);
  obs::ScopedTimer timer(obs::Hist::kGompForNs);
  spec = resolve_schedule(spec);
  obs::trace::Span span(obs::trace::Type::kFor,
                        static_cast<std::uint64_t>(spec.kind));
  // Ordered loops keep the descriptor whatever the schedule: it carries
  // the team's next-iteration turn.
  LoopInstance& loop = enter_shared_loop(begin, end, spec);
  LoopInstance* saved = active_ordered_loop_;
  active_ordered_loop_ = &loop;
  OMPMCA_CHECK_REGION_ENTER(check::Region::kWorkshare, team_);
  long pos = 0;
  long lo = 0;
  long hi = 0;
  while (loop.next_chunk(tid_, &pos, &lo, &hi)) {
    body(lo, hi);
  }
  OMPMCA_CHECK_REGION_EXIT(check::Region::kWorkshare, team_);
  active_ordered_loop_ = saved;
  loop.leave();
  barrier();
}

void ParallelContext::for_loop_simd(long begin, long end,
                                    FunctionRef<void(long, long)> body,
                                    long simd_width, bool nowait) {
  obs::count(obs::Counter::kGompFor);
  obs::ScopedTimer timer(obs::Hist::kGompForNs);
  obs::trace::Span span(obs::trace::Type::kFor,
                        static_cast<std::uint64_t>(Schedule::kStatic));
  if (simd_width < 1) simd_width = 1;
  OMPMCA_CHECK_REGION_ENTER(check::Region::kWorkshare, team_);
  const long total = end - begin;
  if (total > 0) {
    // Block partition in units of simd_width vectors; the remainder tail
    // rides with the last thread.
    const long vectors = (total + simd_width - 1) / simd_width;
    const long n = static_cast<long>(team_->nthreads_);
    const long t = static_cast<long>(tid_);
    const long base = vectors / n;
    const long rem = vectors % n;
    const long my_first_vec = t * base + std::min(t, rem);
    const long my_vecs = base + (t < rem ? 1 : 0);
    if (my_vecs > 0) {
      const long lo = begin + my_first_vec * simd_width;
      const long hi = std::min(end, lo + my_vecs * simd_width);
      body(lo, hi);
    }
  }
  OMPMCA_CHECK_REGION_EXIT(check::Region::kWorkshare, team_);
  if (!nowait) barrier();
}

bool ParallelContext::loop_start(long begin, long end, ScheduleSpec spec,
                                 long* lo, long* hi) {
  if (loop_open_) loop_protocol_abort("loop_start while a loop is open");
  spec = resolve_schedule(spec);
  if (const std::optional<StaticLoop> st = static_loop(begin, end, spec)) {
    static_loop_ = *st;
    active_loop_ = nullptr;
  } else {
    active_loop_ = &enter_shared_loop(begin, end, spec);
  }
  loop_open_ = true;
  active_loop_pos_ = 0;
  OMPMCA_CHECK_REGION_ENTER(check::Region::kWorkshare, team_);
  return loop_next(lo, hi);
}

bool ParallelContext::loop_next(long* lo, long* hi) {
  if (!loop_open_) loop_protocol_abort("loop_next without loop_start");
  if (active_loop_ == nullptr) {
    return next_static_chunk(static_loop_, &active_loop_pos_, lo, hi);
  }
  return active_loop_->next_chunk(tid_, &active_loop_pos_, lo, hi);
}

void ParallelContext::loop_end(bool nowait) {
  if (!loop_open_) loop_protocol_abort("loop_end without loop_start");
  OMPMCA_CHECK_REGION_EXIT(check::Region::kWorkshare, team_);
  if (active_loop_ != nullptr) active_loop_->leave();
  active_loop_ = nullptr;
  loop_open_ = false;
  if (!nowait) barrier();
}

void ParallelContext::ordered(long iter, FunctionRef<void()> fn) {
  assert(active_ordered_loop_ != nullptr &&
         "ordered() outside a for_loop_ordered body");
  active_ordered_loop_->ordered_wait(iter);
  fn();
  active_ordered_loop_->ordered_post();
}

void ParallelContext::sections(
    std::initializer_list<FunctionRef<void()>> section_bodies, bool nowait) {
  SectionsInstance& ws = team_->sections_[sections_gen_ % kWorkshareRing];
  ws.enter(sections_gen_, static_cast<int>(section_bodies.size()),
           team_->nthreads_, team_->spin_ns_);
  ++sections_gen_;
  OMPMCA_CHECK_REGION_ENTER(check::Region::kWorkshare, team_);
  for (;;) {
    int idx = ws.next_section();
    if (idx < 0) break;
    (section_bodies.begin() + idx)->operator()();
  }
  OMPMCA_CHECK_REGION_EXIT(check::Region::kWorkshare, team_);
  ws.leave();
  if (!nowait) barrier();
}

bool ParallelContext::single_begin() {
  unsigned long expected = single_gen_;
  ++single_gen_;
  return team_->single_counter_.compare_exchange_strong(
      expected, expected + 1, std::memory_order_acq_rel);
}

void ParallelContext::single(FunctionRef<void()> fn, bool nowait) {
  obs::count(obs::Counter::kGompSingle);
  obs::ScopedTimer timer(obs::Hist::kGompSingleNs);
  obs::trace::Span span(obs::trace::Type::kSingle);
  if (single_begin()) {
    OMPMCA_CHECK_REGION_ENTER(check::Region::kSingle, team_);
    fn();
    OMPMCA_CHECK_REGION_EXIT(check::Region::kSingle, team_);
  }
  if (!nowait) barrier();
}

void ParallelContext::master(FunctionRef<void()> fn) {
  if (tid_ == 0) fn();
}

void ParallelContext::critical(FunctionRef<void()> fn) {
  run_critical(team_->rt_.unnamed_critical_mutex(), "", fn);
}

void ParallelContext::critical(std::string_view name,
                               FunctionRef<void()> fn) {
  run_critical(team_->rt_.critical_mutex(name), name, fn);
}

void ParallelContext::run_critical(BackendMutex& mu,
                                   [[maybe_unused]] std::string_view name,
                                   FunctionRef<void()> fn) {
  obs::trace::Span span(obs::trace::Type::kCritical);  // acquire + body
  if (obs::enabled()) {
    obs::count(obs::Counter::kGompCritical);
    obs::ScopedTimer timer(obs::Hist::kGompCriticalNs);
    // try_lock first so a blocked acquisition is observable as contention;
    // a no-op (seeded-broken) mutex never blocks and counts zero here.
    if (!mu.try_lock()) {
      obs::count(obs::Counter::kGompCriticalContended);
      mu.lock();
    }
    OMPMCA_CHECK_ACQUIRE(check::LockClass::kGompCritical, &mu,
                         critical_key(name));
    AdoptedBackendLock guard(mu);
    OMPMCA_CHECK_REGION_ENTER(check::Region::kCritical, team_);
    fn();
    OMPMCA_CHECK_REGION_EXIT(check::Region::kCritical, team_);
    OMPMCA_CHECK_RELEASE(check::LockClass::kGompCritical, &mu);
  } else {
    BackendLockGuard guard(mu);
    OMPMCA_CHECK_ACQUIRE(check::LockClass::kGompCritical, &mu,
                         critical_key(name));
    OMPMCA_CHECK_REGION_ENTER(check::Region::kCritical, team_);
    fn();
    OMPMCA_CHECK_REGION_EXIT(check::Region::kCritical, team_);
    OMPMCA_CHECK_RELEASE(check::LockClass::kGompCritical, &mu);
  }
}

void ParallelContext::task(std::function<void()> fn) {
  // Children join the *executing task's* active group (current_task_ is
  // switched by run_one while a stolen task body runs), never the spawning
  // thread's construct state: OpenMP taskgroup end waits for descendants,
  // so a task spawned from inside a stolen task must not escape the group.
  // spawn() derives the group from the parent record.
  team_->tasks_.spawn(tid_, current_task_, std::move(fn));
}

void ParallelContext::task_depend(std::function<void()> fn,
                                  std::initializer_list<const void*> in,
                                  std::initializer_list<const void*> out) {
  team_->tasks_.spawn_depend(tid_, current_task_, std::move(fn), in.begin(),
                             in.size(), out.begin(), out.size());
}

void ParallelContext::taskwait() {
  team_->tasks_.taskwait(tid_, &current_task_);
}

void ParallelContext::taskgroup(FunctionRef<void()> body) {
  // Tasks spawned inside body — transitively, through any depth of
  // descendants, on any thread — join the group; taskgroup end waits for
  // all of them.  The group override lives in the executing task's record
  // (spawned children inherit it), so descendants of stolen tasks stay
  // tracked.
  if (current_task_ == nullptr) {
    // No task record to carry the override: nothing can join the group.
    body();
    return;
  }
  // RAII: a throwing body must still restore the override and wait the
  // group out — queued group tasks reference this frame's TaskGroup, and
  // the pre-RAII code left active_group dangling into the dead frame.
  TaskGroupScope scope(team_->tasks_, tid_, current_task_, &current_task_);
  body();
}

void ParallelContext::taskloop(long begin, long end,
                               std::function<void(long, long)> body,
                               long grain) {
  team_->tasks_.taskloop(tid_, &current_task_, begin, end, grain, body);
}

platform::Work& ParallelContext::meter() {
  return team_->meters_[tid_].value;
}

}  // namespace ompmca::gomp
