#include "gomp/task.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/env.hpp"
#include "common/time.hpp"
#include "fault/fault.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ompmca::gomp {

TaskSystem::TaskSystem() { configure(1); }

TaskSystem::~TaskSystem() { clear_dep_table(); }

void TaskSystem::clear_dep_table() {
  // After the region's final drain nothing is queued or executing, so the
  // table's references are the only ones left on completed records.  (The
  // lock is defensive: that quiescence is the real guarantee.)
  MutexLock lk(deps_mu_);
  // Empty after most regions; clear() would still zero every bucket a
  // past tasking region grew.
  if (dep_table_.empty()) return;
  for (auto& [addr, entry] : dep_table_) {
    if (entry.last_out != nullptr) entry.last_out->release();
    for (Task* t : entry.last_ins) t->release();
  }
  dep_table_.clear();
}

void TaskSystem::reset() {
  progress_.store(0, std::memory_order_relaxed);
  clear_dep_table();
}

TaskTuning TaskTuning::from_env() {
  TaskTuning t;
  t.spin = env_long_clamped("OMPMCA_TASK_SPIN", 0, 1'000'000).value_or(t.spin);
  t.taskloop_grain = env_long_clamped("OMPMCA_TASKLOOP_GRAIN", 0, 1L << 30)
                         .value_or(t.taskloop_grain);
  t.taskloop_tasks_per_thread =
      env_long_clamped("OMPMCA_TASKLOOP_TASKS_PER_THREAD", 1, 4096)
          .value_or(t.taskloop_tasks_per_thread);
  return t;
}

void TaskSystem::configure(unsigned nthreads, const TaskTuning& tuning) {
  nthreads_ = nthreads > 0 ? nthreads : 1;
  tuning_ = tuning;
  deques_.clear();
  deques_.reserve(nthreads_);
  for (unsigned i = 0; i < nthreads_; ++i) {
    deques_.push_back(std::make_unique<TaskDeque>());
  }
}

Task* TaskSystem::make_implicit() { return new Task(); }

Task* TaskSystem::allocate() {
  // Bounded retry, mirroring the pool's worker-launch recovery: allocation
  // failures at this site are injected as transient exhaustion and usually
  // clear; callers degrade to undeferred execution when they don't.
  constexpr unsigned kAllocRetries = 4;
  std::uint64_t failures = 0;
  for (unsigned attempt = 0;; ++attempt) {
    if (OMPMCA_FAULT_POINT(kGompTaskAlloc)) {
      ++failures;
      if (attempt + 1 >= kAllocRetries) {
        OMPMCA_FAULT_EXHAUSTED(kGompTaskAlloc, failures);
        return nullptr;
      }
      continue;
    }
    Task* t = new Task();
    if (failures > 0) OMPMCA_FAULT_RECOVERED(kGompTaskAlloc, failures);
    return t;
  }
}

void TaskSystem::enqueue(unsigned tid, Task* task) {
  TaskDeque& d = *deques_[tid];
  d.push(task);
  obs::gauge_max(obs::Gauge::kGompTaskQueueDepthHwm,
                 static_cast<std::uint64_t>(d.size()));
  bump_progress();
}

void TaskSystem::spawn(unsigned tid, Task* parent, std::function<void()> fn) {
  TaskGroup* group = parent != nullptr ? parent->active_group : nullptr;
  Task* task = allocate();
  if (task == nullptr) {
    // Undeferred fallback: run the body inline in the spawner.  Children
    // it spawns attach to @p parent directly (they become siblings), which
    // is strictly stronger synchronisation — taskwait and taskgroup still
    // cover them — without the record the injected failure denied us.
    obs::count(obs::Counter::kGompTaskSpawned);
    fn();
    return;
  }
  task->fn = std::move(fn);
  task->parent = parent;
  task->group = group;
  task->active_group = group;  // children inherit unless a nested taskgroup
  // seq_cst: count increments join the single total order the waiters'
  // epoch-snapshot / count re-check sequence relies on (taskwait,
  // group_wait, drain) — see finished() for the release side.
  if (parent != nullptr) {
    parent->retain();  // the child's completion touches the parent record
    parent->live_children.fetch_add(1, std::memory_order_seq_cst);
  }
  if (group != nullptr) {
    group->live_tasks.fetch_add(1, std::memory_order_seq_cst);  // seq_cst: ditto
  }
  obs::count(obs::Counter::kGompTaskSpawned);
  if (obs::trace::verbose()) {
    obs::trace::instant(obs::trace::Type::kTaskSpawn, tid,
                        static_cast<std::uint64_t>(deques_[tid]->size()));
  }
  enqueue(tid, task);
}

void TaskSystem::spawn_depend(unsigned tid, Task* parent,
                              std::function<void()> fn, const void* const* ins,
                              std::size_t nins, const void* const* outs,
                              std::size_t nouts) {
  if (nins == 0 && nouts == 0) {
    spawn(tid, parent, std::move(fn));
    return;
  }
  TaskGroup* group = parent != nullptr ? parent->active_group : nullptr;
  Task* task = allocate();
  if (task == nullptr) {
    // Undeferred fallback.  Inline execution is dependence-correct only
    // once every predecessor for our addresses has completed, so help
    // (run tasks) until the table shows them done, then run the body.
    // We finish before returning, so later siblings on these addresses
    // are ordered after us without a table entry.
    auto deps_clear = [&] {
      MutexLock lk(deps_mu_);
      for (std::size_t i = 0; i < nins; ++i) {
        auto it = dep_table_.find(ins[i]);
        if (it != dep_table_.end() && it->second.last_out != nullptr &&
            !it->second.last_out->dep_done) {
          return false;
        }
      }
      for (std::size_t i = 0; i < nouts; ++i) {
        auto it = dep_table_.find(outs[i]);
        if (it == dep_table_.end()) continue;
        if (it->second.last_out != nullptr && !it->second.last_out->dep_done) {
          return false;
        }
        for (Task* r : it->second.last_ins) {
          if (!r->dep_done) return false;
        }
      }
      return true;
    };
    Task* slot = parent;
    long idle = 0;
    for (;;) {
      // seq_cst: the epoch snapshot must precede the table check in the
      // single total order park() relies on, or a completion between the
      // two could be both unseen and unsignalled.
      const std::uint64_t e = progress_.load(std::memory_order_seq_cst);
      if (deps_clear()) break;
      if (run_one(tid, &slot)) {
        idle = 0;
        continue;
      }
      if (++idle <= tuning_.spin) {
        std::this_thread::yield();
        continue;
      }
      park(e);
    }
    obs::count(obs::Counter::kGompTaskSpawned);
    fn();
    return;
  }
  task->fn = std::move(fn);
  task->parent = parent;
  task->group = group;
  task->active_group = group;
  task->has_deps = true;
  // seq_cst: same count/waiter total-order contract as spawn().
  if (parent != nullptr) {
    parent->retain();
    parent->live_children.fetch_add(1, std::memory_order_seq_cst);
  }
  if (group != nullptr) {
    group->live_tasks.fetch_add(1, std::memory_order_seq_cst);  // seq_cst: ditto
  }
  obs::count(obs::Counter::kGompTaskSpawned);
  if (obs::trace::verbose()) {
    obs::trace::instant(obs::trace::Type::kTaskSpawn, tid, 1);
  }
  {
    MutexLock lk(deps_mu_);
    unsigned preds = 0;
    auto add_edge = [&](Task* pred) {
      if (pred == nullptr || pred == task || pred->dep_done) return;
      pred->successors.push_back(task);
      ++preds;
    };
    // in: serialise against the last writer of each address.
    for (std::size_t i = 0; i < nins; ++i) {
      add_edge(dep_table_[ins[i]].last_out);
    }
    // out/inout: serialise against the last writer and every reader since.
    for (std::size_t i = 0; i < nouts; ++i) {
      DepAddr& a = dep_table_[outs[i]];
      add_edge(a.last_out);
      for (Task* r : a.last_ins) add_edge(r);
    }
    // Update the table: we are the new last reader / last writer.
    for (std::size_t i = 0; i < nins; ++i) {
      task->retain();
      dep_table_[ins[i]].last_ins.push_back(task);
    }
    for (std::size_t i = 0; i < nouts; ++i) {
      DepAddr& a = dep_table_[outs[i]];
      if (a.last_out != nullptr) a.last_out->release();
      for (Task* r : a.last_ins) r->release();
      a.last_ins.clear();
      task->retain();
      a.last_out = task;
    }
    task->npredecessors = preds;
    if (preds != 0) return;  // a predecessor's completion will enqueue us
  }
  enqueue(tid, task);
}

void TaskSystem::taskloop(unsigned tid, Task** current_slot, long begin,
                          long end, long grain,
                          const std::function<void(long, long)>& body) {
  if (begin >= end) return;
  Task* parent = *current_slot;
  if (parent == nullptr) {
    body(begin, end);  // no hierarchy to track: run serially
    return;
  }
  const long n = end - begin;
  long g = grain > 0 ? grain : tuning_.taskloop_grain;
  if (g <= 0) {
    // Adaptive grain from the queue-depth signal: aim for tasks_per_thread
    // chunks per worker, minus the backlog already queued.
    const long target_total =
        tuning_.taskloop_tasks_per_thread * static_cast<long>(nthreads_);
    const long backlog = static_cast<long>(queued());
    const long target = std::max<long>(1, target_total - backlog);
    g = std::max<long>(1, (n + target - 1) / target);
  }
  obs::count(obs::Counter::kGompTaskloop);
  // The spec's implicit taskgroup: taskloop end waits for every chunk (and
  // their descendants).  Chunk bodies reference @p body and the scope's
  // TaskGroup — the RAII wait guarantees this frame outlives them even
  // when a chunk throws (spawn runs bodies inline when task records are
  // exhausted, so the spawn loop itself can unwind mid-flight).
  TaskGroupScope scope(*this, tid, parent, current_slot);
  for (long lo = begin; lo < end; lo += g) {
    const long hi = std::min(end, lo + g);
    spawn(tid, parent, [&body, lo, hi] { body(lo, hi); });
  }
}

Task* TaskSystem::take(unsigned tid, bool* stolen) {
  *stolen = false;
  Task* t = deques_[tid]->pop();
  if (t != nullptr) return t;
  const unsigned n = nthreads_;
  if (n <= 1) return nullptr;
  for (unsigned off = 1; off < n; ++off) {
    const unsigned v = (tid + off) % n;
    for (;;) {
      bool lost_race = false;
      Task* s = deques_[v]->steal(&lost_race);
      if (s != nullptr) {
        obs::count(obs::Counter::kGompTaskStolen);
        if (obs::trace::verbose()) {
          obs::trace::instant(obs::trace::Type::kTaskSteal, v);
        }
        *stolen = true;
        return s;
      }
      if (!lost_race) break;  // victim drained; try the next one
    }
  }
  return nullptr;
}

bool TaskSystem::run_one(unsigned tid, Task** current_slot) {
  // seq_cst: executing_ rises before the take and falls after completion
  // bookkeeping, so "every deque empty and executing_ == 0" (checked
  // against an unchanged progress epoch) proves quiescence: an in-flight
  // task is either still in a deque or its taker is counted here.
  executing_.fetch_add(1, std::memory_order_seq_cst);
  bool stolen = false;
  Task* task = take(tid, &stolen);
  if (task == nullptr) {
    // seq_cst: the empty-handed drop stays in the quiescence order above.
    executing_.fetch_sub(1, std::memory_order_seq_cst);
    return false;
  }
  // RAII: a throwing task body must still restore the caller's
  // current-task slot and run completion accounting, or every later
  // drain()/taskwait on this system wedges on counts that never reach
  // zero.
  struct Bookkeeping {
    TaskSystem* ts;
    unsigned tid;
    Task** slot;
    Task* saved;
    Task* task;
    ~Bookkeeping() {
      *slot = saved;
      ts->finished(tid, task);
    }
  } bookkeeping{this, tid, current_slot, *current_slot, task};
  *current_slot = task;
  if (obs::trace::verbose()) {
    const std::uint64_t t0 = monotonic_nanos();
    task->fn();
    obs::trace::complete(obs::trace::Type::kTaskRun, t0, stolen ? 1 : 0);
  } else {
    task->fn();
  }
  return true;
}

void TaskSystem::finished(unsigned tid, Task* task) {
  if (task->has_deps) release_dependents(tid, task);
  Task* parent = task->parent;
  TaskGroup* group = task->group;
  // seq_cst: decrements precede the progress bump — a woken waiter
  // re-checks its condition and must observe the counts this completion
  // produced, and drain()'s quiescence scan needs the executing_ drop in
  // the same total order.
  if (parent != nullptr) {
    parent->live_children.fetch_sub(1, std::memory_order_seq_cst);
  }
  if (group != nullptr) {
    group->live_tasks.fetch_sub(1, std::memory_order_seq_cst);  // seq_cst: ditto
  }
  executing_.fetch_sub(1, std::memory_order_seq_cst);  // seq_cst: ditto
  bump_progress();
  task->release();  // the queue/execution reference
  if (parent != nullptr) parent->release();
}

void TaskSystem::release_dependents(unsigned tid, Task* task) {
  // Collect newly runnable successors under the lock, enqueue outside it
  // (enqueue rings the progress bell, which takes idle_mu_).
  std::vector<Task*> ready;
  {
    MutexLock lk(deps_mu_);
    task->dep_done = true;
    for (Task* s : task->successors) {
      if (--s->npredecessors == 0) ready.push_back(s);
    }
    task->successors.clear();
  }
  for (Task* s : ready) enqueue(tid, s);
}

bool TaskSystem::deques_empty() const {
  for (const auto& d : deques_) {
    if (!d->empty()) return false;
  }
  return true;
}

void TaskSystem::bump_progress() {
  // seq_cst: waker side of the Dekker pair with park() — the bump must be
  // ordered before the sleepers_ check in the single total order, or a
  // sleeper could register after our check yet before our bump.
  progress_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) != 0) {
    // Empty critical section: a waiter between its epoch check and its
    // cv wait holds idle_mu_, so taking it here orders this notify after
    // that wait begins (or the waiter's predicate sees the new epoch).
    { MutexLock lk(idle_mu_); }
    idle_cv_.notify_all();
  }
}

void TaskSystem::park(std::uint64_t epoch) {
  MutexLock lk(idle_mu_);
  // seq_cst: sleeper side of the Dekker pair with bump_progress() — the
  // sleepers_ rise must precede the epoch re-check.
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  if (progress_.load(std::memory_order_seq_cst) == epoch) {
    // Bounded wait: the epoch protocol makes lost wakeups impossible in
    // principle, and the bound makes any residual hole a stall, never a
    // deadlock (this is an embedded runtime; fail bounded, not silent).
    lk.wait_for(idle_cv_, std::chrono::milliseconds(1), [&] {
      return progress_.load(std::memory_order_relaxed) != epoch;
    });
  }
  sleepers_.fetch_sub(1, std::memory_order_seq_cst);  // seq_cst: pair exit
}

void TaskSystem::taskwait(unsigned tid, Task** current_slot) {
  Task* waiting_on = *current_slot;
  if (waiting_on == nullptr) return;
  long idle = 0;
  // seq_cst: the count loads and the epoch snapshot pair with the seq_cst
  // updates in spawn()/finished() — snapshot-then-recheck is only sound
  // in a single total order (park() wakes on any later bump).
  while (waiting_on->live_children.load(std::memory_order_seq_cst) != 0) {
    const std::uint64_t e = progress_.load(std::memory_order_seq_cst);
    if (run_one(tid, current_slot)) {
      idle = 0;
      continue;
    }
    // seq_cst: see loop header.
    if (waiting_on->live_children.load(std::memory_order_seq_cst) == 0) break;
    if (++idle <= tuning_.spin) {
      std::this_thread::yield();
      continue;
    }
    park(e);
  }
}

void TaskSystem::group_wait(unsigned tid, TaskGroup* group,
                            Task** current_slot) {
  long idle = 0;
  // seq_cst: same snapshot-then-recheck contract as taskwait().
  while (group->live_tasks.load(std::memory_order_seq_cst) != 0) {
    const std::uint64_t e = progress_.load(std::memory_order_seq_cst);
    if (run_one(tid, current_slot)) {
      idle = 0;
      continue;
    }
    // seq_cst: see loop header.
    if (group->live_tasks.load(std::memory_order_seq_cst) == 0) break;
    if (++idle <= tuning_.spin) {
      std::this_thread::yield();
      continue;
    }
    park(e);
  }
}

void TaskSystem::drain(unsigned tid, Task** current_slot) {
  // No task ever enqueued in this team (see the header): skip the
  // quiescence proof — its executing_ RMWs and steal sweep are most of a
  // task-free barrier.  relaxed: a stale zero is harmless, because only a
  // thread that enqueued has work to wait for, and it reads its own bump.
  if (progress_.load(std::memory_order_relaxed) == 0) return;
  long idle = 0;
  for (;;) {
    if (run_one(tid, current_slot)) {
      idle = 0;
      continue;
    }
    // Quiescence proof: with the epoch unchanged across the scan and
    // executing_ zero on both sides of the deque sweep, no task was
    // queued, running, or completing anywhere during it (run_one raises
    // executing_ before taking; spawns and completions bump the epoch).
    // seq_cst: the proof is a single-total-order argument over all four
    // loads and the counters they pair with.
    const std::uint64_t e = progress_.load(std::memory_order_seq_cst);
    if (executing_.load(std::memory_order_seq_cst) == 0 && deques_empty() &&
        executing_.load(std::memory_order_seq_cst) == 0 &&
        progress_.load(std::memory_order_seq_cst) == e) {
      return;
    }
    if (++idle <= tuning_.spin) {
      std::this_thread::yield();
      continue;
    }
    park(e);
  }
}

std::size_t TaskSystem::queued() const {
  std::size_t n = 0;
  for (const auto& d : deques_) {
    n += static_cast<std::size_t>(d->size());
  }
  return n;
}

}  // namespace ompmca::gomp
