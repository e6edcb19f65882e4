#include "mtapi/mtapi.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>

#include "common/annotations.hpp"
#include "common/locks.hpp"
#include "fault/fault.hpp"

namespace ompmca::mtapi {

namespace {

template <typename Pred>
Status cv_wait(std::condition_variable& cv, MutexLock& lk,
               mrapi::Timeout timeout_ms, Pred pred) {
  if (pred()) return Status::kSuccess;
  if (timeout_ms == mrapi::kTimeoutImmediate) return Status::kTimeout;
  if (timeout_ms == mrapi::kTimeoutInfinite) {
    lk.wait(cv, pred);
    return Status::kSuccess;
  }
  if (!lk.wait_for(cv, std::chrono::milliseconds(timeout_ms), pred))
    return Status::kTimeout;
  return Status::kSuccess;
}

}  // namespace

// --- Task ----------------------------------------------------------------------

TaskState Task::state() const {
  MutexLock lk(mu_);
  return state_;
}

Status Task::wait(mrapi::Timeout timeout_ms) {
  MutexLock lk(mu_);
  Status s = cv_wait(cv_, lk, timeout_ms, [this]() OMPMCA_REQUIRES(mu_) {
    return state_ == TaskState::kCompleted || state_ == TaskState::kCanceled;
  });
  if (!ok(s)) return s;
  return state_ == TaskState::kCanceled ? Status::kTaskCanceled
                                        : Status::kSuccess;
}

Status Task::cancel() {
  MutexLock lk(mu_);
  if (state_ != TaskState::kPending) return Status::kTaskInvalid;
  state_ = TaskState::kCanceled;
  cv_.notify_all();
  // Group accounting happens when the scheduler observes the canceled task.
  return Status::kSuccess;
}

void Task::finish(TaskState final_state) {
  Group* group = nullptr;
  {
    MutexLock lk(mu_);
    state_ = final_state;
    group = group_;
  }
  cv_.notify_all();
  if (group != nullptr) {
    // The scheduler holds a TaskHandle; re-wrap via shared_from_this-like
    // bookkeeping is avoided by the runtime passing the handle instead.
  }
  if (queue_ != nullptr) queue_->task_finished();
}

// --- Group ----------------------------------------------------------------------

Status Group::wait_all(mrapi::Timeout timeout_ms) {
  MutexLock lk(mu_);
  return cv_wait(cv_, lk, timeout_ms,
                 [this]() OMPMCA_REQUIRES(mu_) { return live_ == 0; });
}

Result<TaskHandle> Group::wait_any(mrapi::Timeout timeout_ms) {
  MutexLock lk(mu_);
  Status s = cv_wait(cv_, lk, timeout_ms, [this]() OMPMCA_REQUIRES(mu_) {
    return !completed_.empty() || live_ == 0;
  });
  if (!ok(s)) return s;
  if (completed_.empty()) return Status::kGroupInvalid;  // nothing live
  TaskHandle t = completed_.front();
  completed_.pop_front();
  return t;
}

std::size_t Group::pending() const {
  MutexLock lk(mu_);
  return live_;
}

// --- Queue ----------------------------------------------------------------------

Status Queue::disable() {
  MutexLock lk(mu_);
  enabled_ = false;
  return Status::kSuccess;
}

Status Queue::enable() {
  TaskHandle next;
  {
    MutexLock lk(mu_);
    enabled_ = true;
    if (!running_ && !waiting_.empty()) {
      next = waiting_.front();
      waiting_.pop_front();
      running_ = true;
    }
  }
  if (next != nullptr) rt_->submit(std::move(next));
  return Status::kSuccess;
}

bool Queue::enabled() const {
  MutexLock lk(mu_);
  return enabled_;
}

void Queue::task_finished() {
  TaskHandle next;
  {
    MutexLock lk(mu_);
    running_ = false;
    if (enabled_ && !waiting_.empty()) {
      next = waiting_.front();
      waiting_.pop_front();
      running_ = true;
    }
  }
  if (next != nullptr) rt_->submit(std::move(next));
}

// --- TaskRuntime ------------------------------------------------------------------

TaskRuntime::TaskRuntime(Options options) {
  unsigned n = std::max(1u, options.workers);
  queues_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerState>());
  }
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

TaskRuntime::~TaskRuntime() {
  stopping_.store(true, std::memory_order_release);
  idle_cv_.notify_all();
  for (auto& w : workers_) w.join();
  // Tasks still queued (a canceled task behind a blocker, say) never run,
  // so nothing clears their closures: each fn_ still holds its own task's
  // keep-alive, and the task would leak.  Break the cycles here.
  for (auto& q : queues_) {
    std::deque<TaskHandle> left;
    {
      MutexLock lk(q->mu);
      left.swap(q->deque);
    }
    for (TaskHandle& task : left) task->fn_ = nullptr;
  }
}

Status TaskRuntime::action_create(JobId job, ActionFunction fn) {
  if (!fn) return Status::kActionInvalid;
  MutexLock lk(actions_mu_);
  for (const auto& [id, action] : actions_) {
    if (id == job) return Status::kActionExists;
  }
  actions_.emplace_back(job, std::move(fn));
  return Status::kSuccess;
}

Status TaskRuntime::action_delete(JobId job) {
  MutexLock lk(actions_mu_);
  auto it = std::find_if(actions_.begin(), actions_.end(),
                         [&](const auto& p) { return p.first == job; });
  if (it == actions_.end()) return Status::kActionInvalid;
  actions_.erase(it);
  return Status::kSuccess;
}

bool TaskRuntime::job_registered(JobId job) const {
  MutexLock lk(actions_mu_);
  return std::any_of(actions_.begin(), actions_.end(),
                     [&](const auto& p) { return p.first == job; });
}

Result<TaskHandle> TaskRuntime::make_task(JobId job, const void* args,
                                          std::size_t arg_size,
                                          const GroupHandle& group,
                                          const QueueHandle& queue) {
  ActionFunction action;
  {
    MutexLock lk(actions_mu_);
    auto it = std::find_if(actions_.begin(), actions_.end(),
                           [&](const auto& p) { return p.first == job; });
    if (it == actions_.end()) return Status::kJobInvalid;
    action = it->second;
  }
  auto task = std::make_shared<Task>();
  auto blob = std::make_shared<std::vector<std::uint8_t>>();
  if (args != nullptr && arg_size > 0) {
    blob->assign(static_cast<const std::uint8_t*>(args),
                 static_cast<const std::uint8_t*>(args) + arg_size);
  }
  task->group_ = group.get();
  task->queue_ = queue.get();
  Task* raw = task.get();
  Group* group_raw = group.get();
  // Keep-alives: the closure dereferences raw group/queue pointers (finish
  // -> task_finished), so it must own both — the submitter is free to drop
  // its handles while the task is still in flight.  The cycle through
  // task_keepalive (and, for queued tasks, queue->waiting_) is broken when
  // the executed or refused task's fn_ is cleared.
  GroupHandle group_keepalive = group;
  QueueHandle queue_keepalive = queue;
  TaskHandle task_keepalive = task;
  task->fn_ = [action = std::move(action), blob, raw, group_raw,
               group_keepalive, queue_keepalive, task_keepalive] {
    {
      MutexLock lk(raw->mu_);
      if (raw->state_ == TaskState::kCanceled) {
        // Canceled before execution: just settle the group accounting.
        raw->state_ = TaskState::kCanceled;
      } else {
        raw->state_ = TaskState::kRunning;
      }
    }
    if (raw->state() != TaskState::kCanceled) {
      action(blob->empty() ? nullptr : blob->data(), blob->size());
      raw->finish(TaskState::kCompleted);
    } else if (raw->queue_ != nullptr) {
      raw->queue_->task_finished();
    }
    if (group_raw != nullptr) {
      MutexLock lk(group_raw->mu_);
      --group_raw->live_;
      if (raw->state() == TaskState::kCompleted) {
        group_raw->completed_.push_back(task_keepalive);
      }
      lk.unlock();
      group_raw->cv_.notify_all();
    }
  };
  if (group != nullptr) {
    MutexLock lk(group->mu_);
    ++group->live_;
  }
  return task;
}

Result<TaskHandle> TaskRuntime::task_start(JobId job, const void* args,
                                           std::size_t arg_size,
                                           const GroupHandle& group) {
  // Transient start failures (fault-injected resource exhaustion) are
  // retried with backoff; semantic errors from make_task (unknown job,
  // oversized arguments) are permanent and pass straight through.
  constexpr unsigned kStartRetries = 4;
  std::uint64_t failures = 0;
  for (unsigned attempt = 0;; ++attempt) {
    if (OMPMCA_FAULT_POINT(kMtapiTaskStart)) {
      ++failures;
      if (attempt + 1 >= kStartRetries) {
        OMPMCA_FAULT_EXHAUSTED(kMtapiTaskStart, failures);
        return Status::kOutOfResources;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(16u << attempt));
      continue;
    }
    auto task = make_task(job, args, arg_size, group, nullptr);  // no queue
    if (!task) return task.status();
    if (failures > 0) OMPMCA_FAULT_RECOVERED(kMtapiTaskStart, failures);
    submit(*task);
    return task;
  }
}

Result<QueueHandle> TaskRuntime::queue_create(JobId job) {
  if (!job_registered(job)) return Status::kJobInvalid;
  return std::make_shared<Queue>(this, job);
}

Result<TaskHandle> TaskRuntime::queue_enqueue(const QueueHandle& queue,
                                              const void* args,
                                              std::size_t arg_size,
                                              const GroupHandle& group) {
  if (queue == nullptr) return Status::kQueueInvalid;
  auto task = make_task(queue->job(), args, arg_size, group, queue);
  if (!task) return task.status();
  bool run_now = false;
  bool refused = false;
  {
    MutexLock lk(queue->mu_);
    if (!queue->enabled_) {
      // Spec: enqueue on a disabled queue is refused.
      refused = true;
    } else if (queue->running_ || !queue->waiting_.empty()) {
      queue->waiting_.push_back(*task);
    } else {
      queue->running_ = true;
      run_now = true;
    }
  }
  if (refused) {
    // The task will never run: break the fn_ -> task_keepalive self-cycle
    // (only the execute path clears it otherwise) and undo the group's
    // live count so wait_all() doesn't count a task that was never queued.
    (*task)->fn_ = nullptr;
    if (group != nullptr) {
      {
        MutexLock lk(group->mu_);
        --group->live_;
      }
      group->cv_.notify_all();
    }
    return Status::kQueueDisabled;
  }
  if (run_now) submit(*task);
  return task;
}

void TaskRuntime::submit(TaskHandle task) {
  unsigned index = next_worker_.fetch_add(1, std::memory_order_relaxed) %
                   queues_.size();
  {
    MutexLock lk(queues_[index]->mu);
    queues_[index]->deque.push_back(std::move(task));
  }
  idle_cv_.notify_all();
}

bool TaskRuntime::try_run_one(unsigned index) {
  TaskHandle task;
  {
    // Own deque: LIFO end.
    WorkerState& mine = *queues_[index];
    MutexLock lk(mine.mu);
    if (!mine.deque.empty()) {
      task = std::move(mine.deque.back());
      mine.deque.pop_back();
    }
  }
  if (task == nullptr) {
    // Steal: FIFO end of a victim.
    for (std::size_t k = 1; k < queues_.size() && task == nullptr; ++k) {
      WorkerState& victim = *queues_[(index + k) % queues_.size()];
      MutexLock lk(victim.mu);
      if (!victim.deque.empty()) {
        task = std::move(victim.deque.front());
        victim.deque.pop_front();
        tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (task == nullptr) return false;
  // Count before running: fn_ makes the task's completion observable
  // (Task::wait returns), and a waiter that saw every task complete must
  // not read a stale tasks_executed().
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  task->fn_();
  // fn_ captures a keep-alive handle to its own task; drop it so the task
  // does not keep itself alive through the closure (reference cycle).
  task->fn_ = nullptr;
  return true;
}

void TaskRuntime::worker_loop(unsigned index) {
  while (!stopping_.load(std::memory_order_acquire)) {
    if (try_run_one(index)) continue;
    MutexLock lk(idle_mu_);
    lk.wait_for(idle_cv_, std::chrono::milliseconds(1), [this] {
      return stopping_.load(std::memory_order_acquire);
    });
  }
}

}  // namespace ompmca::mtapi
