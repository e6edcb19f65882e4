// Explicit-task subsystem (OpenMP 3.x task / taskwait / taskgroup, with
// 4.0-style depend clauses and taskloop).
//
// Scheduling is per-worker Chase-Lev deques (task_deque.hpp): the owning
// thread pushes and pops its own bottom end LIFO (cache-warm, no
// contention), idle threads steal the top end FIFO, visiting victims in
// one pass from their right-hand neighbour ((tid + off) % n), the loop
// scheduler's range-stealing order.
//
// Lifetime is intrusive refcounting: a Task record is born with one
// reference (held by whichever deque or dependence edge currently owns the
// right to run it), children retain their parent (completion decrements
// the parent's live-child count, so the record must outlive all children),
// and the dependence table retains the tasks it remembers per address.
//
// Waiting (taskwait / taskgroup end / barrier drain) first helps — runs
// queued tasks — and, when no work is takeable, parks on a progress
// epoch: every spawn, enqueue and completion bumps progress_ and wakes
// sleepers, so a parked waiter re-checks its condition after any event
// that could satisfy it.  A missed wakeup here was the seed
// implementation's deadlock; the epoch protocol makes the wakeup part of
// the state change instead of a separate side channel.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/locks.hpp"
#include "gomp/task_deque.hpp"

namespace ompmca::gomp {

struct TaskGroup {
  std::atomic<std::uint32_t> live_tasks{0};
};

struct Task {
  std::function<void()> fn;
  Task* parent = nullptr;  // retained: the record outlives its children
  // Group this task was spawned into (its completion decrements it).
  TaskGroup* group = nullptr;
  // Group newly spawned children join: inherited from the spawning task,
  // overridden while this task executes a taskgroup construct body.  Kept
  // in the task record — not thread or construct state — so descendants
  // of stolen tasks stay tracked (OpenMP taskgroup end waits for
  // descendants, wherever they execute).
  TaskGroup* active_group = nullptr;
  std::atomic<std::uint32_t> refs{1};
  std::atomic<std::uint32_t> live_children{0};

  // Dependence bookkeeping, all guarded by TaskSystem::deps_mu_.  (TSA
  // cannot express a field guarded by another object's lock; the owning
  // TaskSystem's REQUIRES(deps_mu_) helpers carry the contract instead.)
  std::vector<Task*> successors;  // tasks whose depend clauses await us
  std::uint32_t npredecessors = 0;
  bool has_deps = false;  // spawned with a depend clause
  bool dep_done = false;  // completed (skip when building new edges)

  void retain() { refs.fetch_add(1, std::memory_order_relaxed); }
  void release() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }
};

/// Task-scheduler knobs, read from the environment once per Runtime (not
/// per team: a fork must not pay for getenv).
struct TaskTuning {
  long spin = 100;           // OMPMCA_TASK_SPIN: idle spins before parking
  long taskloop_grain = 0;   // OMPMCA_TASKLOOP_GRAIN: fixed grain, 0=adaptive
  long taskloop_tasks_per_thread = 8;  // OMPMCA_TASKLOOP_TASKS_PER_THREAD

  static TaskTuning from_env();
};

class TaskSystem {
 public:
  TaskSystem();
  ~TaskSystem();

  TaskSystem(const TaskSystem&) = delete;
  TaskSystem& operator=(const TaskSystem&) = delete;

  /// Sizes the per-worker deques and adopts the runtime's @p tuning.  Call
  /// before any spawn, from single-threaded context (Team construction).
  void configure(unsigned nthreads, const TaskTuning& tuning = {});

  /// Returns a quiescent task system (a finished region's) to its fresh
  /// state for a reused team: the progress epoch back to zero, so the
  /// task-free barrier exit works again, and the dependence table emptied,
  /// releasing the task records it retains.  Single-threaded context only.
  void reset();

  /// A thread's implicit-task record: carries the live-children count that
  /// taskwait consults and the active taskgroup for children.  The caller
  /// release()s it when the thread's region work (including the final
  /// drain) is done.
  Task* make_implicit();

  /// Enqueues a child of @p parent (nullptr = detached from hierarchy
  /// bookkeeping) on @p tid's deque.  The child joins the parent's active
  /// group.  @p tid must be the calling thread's team id: pushing is an
  /// owner-only deque operation.
  void spawn(unsigned tid, Task* parent, std::function<void()> fn);

  /// spawn() with depend clauses: the task starts only after every earlier
  /// task whose out-set intersects our in/out addresses (and every earlier
  /// reader of our out addresses) has finished.  Addresses are opaque keys
  /// (the depend-clause storage locations).
  void spawn_depend(unsigned tid, Task* parent, std::function<void()> fn,
                    const void* const* ins, std::size_t nins,
                    const void* const* outs, std::size_t nouts);

  /// Divides [begin, end) into grain-sized chunk tasks and waits for all
  /// of them (an implicit taskgroup, per the spec).  grain <= 0 selects
  /// the adaptive policy: target OMPMCA_TASKLOOP_TASKS_PER_THREAD tasks
  /// per worker, shrunk by the current queue backlog (the telemetry
  /// queue-depth signal) — deep queues mean more tasks help nobody.
  void taskloop(unsigned tid, Task** current_slot, long begin, long end,
                long grain, const std::function<void(long, long)>& body);

  /// Pops (or steals) and runs one task; false when nothing is takeable.
  /// @p current_slot is the caller's current-task variable, saved/restored
  /// around the execution so nested spawns parent correctly.
  bool run_one(unsigned tid, Task** current_slot);

  /// Runs/steals tasks until the task in *current_slot has no live
  /// children, parking on the progress epoch when no work is takeable.
  void taskwait(unsigned tid, Task** current_slot);

  /// Runs/steals tasks until @p group has no live tasks.
  void group_wait(unsigned tid, TaskGroup* group, Task** current_slot);

  /// Runs tasks until the whole system is quiescent: every deque empty and
  /// no task executing anywhere (used by barriers; also the point after
  /// which all dependence edges are resolved).  Returns at once while no
  /// task was ever enqueued: every thread that enqueues one sees its own
  /// progress bump and drains to quiescence before it arrives, so the
  /// barrier still holds everyone until that task has run.
  void drain(unsigned tid, Task** current_slot);

  /// Racy estimate of queued-but-unstarted tasks across all deques.
  std::size_t queued() const;

 private:
  struct DepAddr {
    Task* last_out = nullptr;     // retained
    std::vector<Task*> last_ins;  // retained
  };

  /// new Task with the fault-injection site gomp.task_alloc threaded
  /// through: bounded retries, nullptr when injection exhausts them (the
  /// caller falls back to undeferred inline execution).
  Task* allocate();
  void enqueue(unsigned tid, Task* task);
  Task* take(unsigned tid, bool* stolen);
  void finished(unsigned tid, Task* task);
  void release_dependents(unsigned tid, Task* task);
  bool deques_empty() const;
  /// Drops the dependence table and the references it retains.
  void clear_dep_table();
  /// State-change bell: bump the epoch, wake parked waiters.
  void bump_progress();
  /// Parks until progress moves past @p epoch (bounded wait: correctness
  /// never depends on the wakeup arriving).
  void park(std::uint64_t epoch);

  unsigned nthreads_ = 1;
  std::vector<std::unique_ptr<TaskDeque>> deques_;
  std::atomic<std::uint32_t> executing_{0};

  // Progress-epoch parking (see file comment).  idle_mu_ is parking-only
  // (guards nothing): the protocol state is progress_/sleepers_.
  std::atomic<std::uint64_t> progress_{0};
  std::atomic<std::uint32_t> sleepers_{0};
  CapMutex idle_mu_;
  std::condition_variable idle_cv_;

  // Dependence table: per storage address, the last writer and the readers
  // since (the GCC runtime's hash-on-address scheme at task-record scale).
  // deps_mu_ also guards every Task's successors/npredecessors/dep_done.
  CapMutex deps_mu_;
  std::unordered_map<const void*, DepAddr> dep_table_
      OMPMCA_GUARDED_BY(deps_mu_);

  TaskTuning tuning_;
};

/// RAII for a taskgroup-shaped region (taskgroup construct, taskloop's
/// implicit group): installs a fresh TaskGroup as @p task's active group
/// and, on scope exit, restores the saved group and waits the group out.
///
/// The wait happens on *every* exit path.  Tasks spawned into the group
/// reference this scope's stack frame (the TaskGroup itself, and usually
/// the construct's captures), so leaving the frame before they finish —
/// which the pre-RAII code did when a body threw, and additionally left
/// task->active_group pointing into the dead frame — corrupts whichever
/// construct runs next.  A body exception on the normal path is rethrown
/// after the drain completes; exceptions raised by tasks run while already
/// unwinding are swallowed (the alternative is std::terminate).
class TaskGroupScope {
 public:
  TaskGroupScope(TaskSystem& ts, unsigned tid, Task* task, Task** slot)
      : ts_(ts),
        tid_(tid),
        task_(task),
        slot_(slot),
        saved_(task->active_group),
        entry_exceptions_(std::uncaught_exceptions()) {
    task_->active_group = &group_;
  }

  TaskGroupScope(const TaskGroupScope&) = delete;
  TaskGroupScope& operator=(const TaskGroupScope&) = delete;

  ~TaskGroupScope() noexcept(false) {
    task_->active_group = saved_;
    const bool unwinding = std::uncaught_exceptions() != entry_exceptions_;
    std::exception_ptr first;
    for (;;) {
      try {
        ts_.group_wait(tid_, &group_, slot_);
        break;
      } catch (...) {
        // A group task threw while we drained: remember the first (to
        // rethrow once the group is empty) and keep draining — the tasks
        // still queued reference this dying frame.
        if (!unwinding && first == nullptr) first = std::current_exception();
      }
    }
    if (first != nullptr) std::rethrow_exception(first);
  }

 private:
  TaskSystem& ts_;
  unsigned tid_;
  Task* task_;
  Task** slot_;
  TaskGroup* saved_;
  TaskGroup group_;
  int entry_exceptions_;
};

}  // namespace ompmca::gomp
