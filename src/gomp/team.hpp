// Team execution: the fork-join core of the runtime.
//
// A Team is the shared state one parallel region runs on: N implicit
// tasks, one central barrier, a ring of worksharing descriptors, a
// single/sections/critical substrate, a task queue and per-thread work
// meters.  Nested regions and width-1 regions build a fresh Team per fork.
// A top-level region instead runs on its dispatch slot's hot team (Runtime
// keeps one per ThreadPool slot): the team of the slot's previous region,
// reset(), when the width matches — libGOMP's hot-team idea, which takes
// team construction off the fork path.  Each participating thread runs the
// region body with a ParallelContext — the handle through which all OpenMP
// semantics (barrier, for, single, master, critical, sections, ordered,
// reduction, tasks) are expressed.
//
// The API is explicit rather than pragma-based: this library is the
// *runtime* (libGOMP's role), and ParallelContext's methods correspond to
// the entry points a compiler would emit (GOMP_parallel, GOMP_loop_*,
// GOMP_barrier, GOMP_critical_*, ...).
#pragma once

#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/align.hpp"
#include "common/function_ref.hpp"
#include "gomp/barrier.hpp"
#include "gomp/icv.hpp"
#include "gomp/task.hpp"
#include "gomp/workshare.hpp"
#include "obs/telemetry.hpp"
#include "platform/cost_model.hpp"

namespace ompmca::gomp {

class BackendMutex;
class Runtime;
class Team;

/// Bounded lookahead for back-to-back nowait worksharing constructs.
inline constexpr unsigned kWorkshareRing = 4;

class ParallelContext {
 public:
  unsigned thread_num() const { return tid_; }
  unsigned num_threads() const;
  /// omp_get_level() as seen from this context.
  unsigned level() const;
  Runtime& runtime() const;
  Team& team() const { return *team_; }

  /// Explicit barrier (also drains queued explicit tasks, as OpenMP
  /// barriers must).
  void barrier();

  // --- worksharing loops ------------------------------------------------------
  /// Iterations [begin, end) divided per @p spec; @p body receives [lo, hi)
  /// chunks.  Implicit ending barrier unless @p nowait.
  void for_loop(long begin, long end, FunctionRef<void(long, long)> body,
                ScheduleSpec spec = {}, bool nowait = false);

  /// Worksharing loop whose body may call ordered(); always ends in a
  /// barrier (ordered implies waiting anyway).
  void for_loop_ordered(long begin, long end,
                        FunctionRef<void(long, long)> body,
                        ScheduleSpec spec = {});

  /// SIMD-friendly worksharing (the `for simd` shape): one static block per
  /// thread with internal chunk boundaries rounded to @p simd_width, so
  /// every thread's range except possibly the last is vector-alignable.
  /// The body vectorises its [lo, hi) range; meter vector_fraction
  /// accordingly for the board model (the e6500 AltiVec mapping, §4A).
  void for_loop_simd(long begin, long end, FunctionRef<void(long, long)> body,
                     long simd_width = 8, bool nowait = false);

  /// Inside for_loop_ordered's body: runs @p fn when iteration @p iter's
  /// turn comes (strict iteration order across the team).
  void ordered(long iter, FunctionRef<void()> fn);

  // --- low-level worksharing (the GOMP_loop_* ABI shape) -----------------------
  /// Establishes (or joins) a worksharing loop and pulls the first chunk;
  /// false when this thread has none.  Pair with loop_next/loop_end.  A
  /// static schedule opens no shared descriptor.  Opening a loop while one
  /// is open aborts (in every build).
  bool loop_start(long begin, long end, ScheduleSpec spec, long* lo,
                  long* hi);
  /// Pulls the next chunk of the loop opened by loop_start; aborts when no
  /// loop is open.
  bool loop_next(long* lo, long* hi);
  /// Retires this thread's participation; barrier unless @p nowait.  Aborts
  /// when no loop is open.
  void loop_end(bool nowait = false);

  // --- sections ----------------------------------------------------------------
  void sections(std::initializer_list<FunctionRef<void()>> section_bodies,
                bool nowait = false);

  // --- single / master ----------------------------------------------------------
  /// True for the (one) winning thread.  Pair with the nowait flag of
  /// single(); this low-level form has NO implicit barrier.
  bool single_begin();
  void single(FunctionRef<void()> fn, bool nowait = false);
  void master(FunctionRef<void()> fn);

  // --- critical ------------------------------------------------------------------
  void critical(FunctionRef<void()> fn);  // the unnamed critical
  void critical(std::string_view name, FunctionRef<void()> fn);

  // --- reduction -------------------------------------------------------------------
  /// Combines each thread's @p local with @p op in thread order
  /// (deterministic) and returns the result on every thread.  Includes the
  /// construct's barrier (one: the last arriver combines).  T must be
  /// trivially copyable and <= 128 bytes.
  template <typename T, typename Op>
  T reduce(T local, Op op);

  template <typename T>
  T reduce_sum(T local) {
    return reduce(local, [](T a, T b) { return a + b; });
  }
  template <typename T>
  T reduce_max(T local) {
    return reduce(local, [](T a, T b) { return a > b ? a : b; });
  }
  template <typename T>
  T reduce_min(T local) {
    return reduce(local, [](T a, T b) { return a < b ? a : b; });
  }

  // --- explicit tasks ------------------------------------------------------------
  void task(std::function<void()> fn);
  /// task with depend clauses: starts after the last writer of every @p in
  /// address and after the last writer and all readers of every @p out
  /// address (pass an inout address via @p out).
  void task_depend(std::function<void()> fn,
                   std::initializer_list<const void*> in,
                   std::initializer_list<const void*> out);
  void taskwait();
  void taskgroup(FunctionRef<void()> body);
  /// taskloop: [begin, end) split into chunk tasks, waited on as an
  /// implicit taskgroup.  grain <= 0 = adaptive (see TaskSystem::taskloop).
  void taskloop(long begin, long end, std::function<void(long, long)> body,
                long grain = 0);

  // --- work metering (virtual-time cross-checks, simx) -----------------------------
  platform::Work& meter();

 private:
  friend class Team;

  /// A static loop as one thread sees it: its chunks follow from its tid
  /// and the team width alone.
  struct StaticLoop {
    long begin = 0;
    long end = 0;
    long chunk = 0;  // 0 = block partition
  };

  /// @p spec with `runtime` resolved against run-sched-var.
  ScheduleSpec resolve_schedule(ScheduleSpec spec) const;
  /// The static loop a resolved @p spec runs as (static and auto
  /// schedules), or nullopt when it needs the shared descriptor.
  static std::optional<StaticLoop> static_loop(long begin, long end,
                                               ScheduleSpec spec);
  /// Next chunk of static loop @p loop for this thread; @p pos is its
  /// chunk ordinal.
  bool next_static_chunk(const StaticLoop& loop, long* pos, long* lo,
                         long* hi) const;
  /// Joins the next ring generation's shared loop descriptor.
  LoopInstance& enter_shared_loop(long begin, long end, ScheduleSpec spec);
  /// barrier() whose last arriver runs @p combine before the release
  /// (CentralBarrier::arrive_and_wait's combining overload): reduce()'s one
  /// barrier.
  void combining_barrier(FunctionRef<void()> combine);
  template <bool kCombine>
  void barrier_impl(FunctionRef<void()> combine);
  /// critical() body around an already-resolved mutex (@p name keys the
  /// checker's order graph).
  void run_critical(BackendMutex& mu, std::string_view name,
                    FunctionRef<void()> fn);

  Team* team_ = nullptr;
  unsigned tid_ = 0;
  unsigned long loop_gen_ = 0;
  unsigned long sections_gen_ = 0;
  unsigned long single_gen_ = 0;
  LoopInstance* active_ordered_loop_ = nullptr;
  // loop_start/next/end state: whether a loop is open and, for a shared
  // schedule, its descriptor (nullptr while a static loop is open).
  bool loop_open_ = false;
  LoopInstance* active_loop_ = nullptr;
  StaticLoop static_loop_;
  long active_loop_pos_ = 0;
  Task* current_task_ = nullptr;
};

class Team {
 public:
  Team(Runtime& rt, unsigned nthreads, ParallelContext* parent_ctx);

  /// Nesting depth: 1 for a top-level region, parent + 1 for nested ones.
  unsigned level() const { return level_; }
  /// Enclosing active (width > 1) regions, this one included — what
  /// max-active-levels bounds.
  unsigned active_level() const { return active_level_; }

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  unsigned nthreads() const { return nthreads_; }
  Runtime& runtime() { return rt_; }

  /// The barrier algorithm this team runs: always kCentral (kept for the
  /// bench configs that report it).
  BarrierKind barrier_kind() const { return BarrierKind::kCentral; }

  /// Runs @p body as thread @p tid of this team (called by the pool/master).
  void run_thread(unsigned tid, FunctionRef<void(ParallelContext&)> body);

  /// Called by the master after all threads returned: merges meters upward
  /// (nested team) or publishes them (top-level team).  A hot team must
  /// finish before its dispatch slot is released (the slot's next owner
  /// reuses it).
  void finish();

  /// Readies a finished top-level team for the master's next region of the
  /// same width: resets everything a region changes that a fresh Team
  /// starts with — the inherited env ICVs, the single counter, the meters,
  /// the workshare rings and the task system.  Master-only, between
  /// regions.
  void reset();

  TaskSystem& tasks() { return tasks_; }

 private:
  friend class ParallelContext;

  // Two cache lines: big enough for small aggregate reductions (e.g. the
  // EP kernel's 10-bin annulus histogram) while staying false-sharing-free.
  static constexpr std::size_t kMaxReduceBytes = 128;
  struct alignas(kCacheLineBytes) ReduceSlot {
    std::array<std::byte, kMaxReduceBytes> bytes;
  };

  Runtime& rt_;
  unsigned nthreads_;
  unsigned level_;
  unsigned active_level_;
  ParallelContext* parent_ctx_;
  // The master's data-environment ICVs at fork time: every team thread
  // inherits these for the region and discards its changes at region end
  // (run_thread installs/restores the thread-local override).
  EnvIcvs inherited_env_;
  // Spin window for waits inside worksharing constructs (ring claims).
  std::uint64_t spin_ns_ = 0;
  CentralBarrier barrier_;
  std::array<LoopInstance, kWorkshareRing> loops_;
  std::array<SectionsInstance, kWorkshareRing> sections_;
  std::atomic<unsigned long> single_counter_{0};
  TaskSystem tasks_;
  std::vector<Padded<platform::Work>> meters_;
  std::vector<ReduceSlot> reduce_slots_;
  ReduceSlot reduce_result_;
};

// --- template bodies ---------------------------------------------------------

template <typename T, typename Op>
T ParallelContext::reduce(T local, Op op) {
  static_assert(std::is_trivially_copyable_v<T>,
                "reduction type must be trivially copyable");
  obs::count(obs::Counter::kGompReduction);
  obs::ScopedTimer obs_timer(obs::Hist::kGompReductionNs);
  static_assert(sizeof(T) <= Team::kMaxReduceBytes,
                "reduction type exceeds the per-thread slot");
  Team& team = *team_;
  std::memcpy(team.reduce_slots_[tid_].bytes.data(), &local, sizeof(T));
  // The last arriver folds the slots in thread order before it releases
  // the team.  One result slot is enough: it is next written by the last
  // arriver of a later barrier, which every thread reaches only after
  // reading this result.
  combining_barrier([&team, &op] {
    T acc;
    std::memcpy(&acc, team.reduce_slots_[0].bytes.data(), sizeof(T));
    for (unsigned t = 1; t < team.nthreads_; ++t) {
      T v;
      std::memcpy(&v, team.reduce_slots_[t].bytes.data(), sizeof(T));
      acc = op(acc, v);
    }
    std::memcpy(team.reduce_result_.bytes.data(), &acc, sizeof(T));
  });
  T result;
  std::memcpy(&result, team.reduce_result_.bytes.data(), sizeof(T));
  return result;
}

}  // namespace ompmca::gomp
