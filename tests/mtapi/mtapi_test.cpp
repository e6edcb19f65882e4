#include "mtapi/mtapi.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>

namespace ompmca::mtapi {
namespace {

constexpr JobId kJobAdd = 1;
constexpr JobId kJobRecord = 2;

TEST(MtapiActions, RegistryLifecycle) {
  TaskRuntime rt;
  EXPECT_FALSE(rt.job_registered(kJobAdd));
  ASSERT_EQ(rt.action_create(kJobAdd, [](const void*, std::size_t) {}),
            Status::kSuccess);
  EXPECT_TRUE(rt.job_registered(kJobAdd));
  EXPECT_EQ(rt.action_create(kJobAdd, [](const void*, std::size_t) {}),
            Status::kActionExists);
  EXPECT_EQ(rt.action_delete(kJobAdd), Status::kSuccess);
  EXPECT_FALSE(rt.job_registered(kJobAdd));
  EXPECT_EQ(rt.action_delete(kJobAdd), Status::kActionInvalid);
}

TEST(MtapiActions, NullActionRejected) {
  TaskRuntime rt;
  EXPECT_EQ(rt.action_create(kJobAdd, nullptr), Status::kActionInvalid);
}

TEST(MtapiTasks, StartUnknownJob) {
  TaskRuntime rt;
  EXPECT_EQ(rt.task_start(99, nullptr, 0).status(), Status::kJobInvalid);
}

TEST(MtapiTasks, TaskRunsWithArguments) {
  TaskRuntime rt;
  std::atomic<int> result{0};
  ASSERT_EQ(rt.action_create(kJobAdd,
                             [&](const void* args, std::size_t size) {
                               ASSERT_EQ(size, sizeof(int) * 2);
                               const int* v = static_cast<const int*>(args);
                               result.store(v[0] + v[1]);
                             }),
            Status::kSuccess);
  int args[2] = {20, 22};
  auto task = rt.task_start(kJobAdd, args, sizeof(args));
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ((*task)->wait(), Status::kSuccess);
  EXPECT_EQ((*task)->state(), TaskState::kCompleted);
  EXPECT_EQ(result.load(), 42);
}

TEST(MtapiTasks, ArgumentBlobIsCopied) {
  TaskRuntime rt;
  std::atomic<int> seen{0};
  ASSERT_EQ(rt.action_create(kJobAdd,
                             [&](const void* args, std::size_t) {
                               seen.store(*static_cast<const int*>(args));
                             }),
            Status::kSuccess);
  auto task = [&] {
    int local = 7;  // dies before the task may run
    return rt.task_start(kJobAdd, &local, sizeof(local));
  }();
  ASSERT_TRUE(task.has_value());
  (void)(*task)->wait();  // outcome checked via `seen` below
  EXPECT_EQ(seen.load(), 7);
}

TEST(MtapiTasks, ManyTasksAllExecute) {
  TaskRuntime rt(TaskRuntimeOptions{.workers = 4});
  std::atomic<int> count{0};
  ASSERT_EQ(rt.action_create(kJobRecord,
                             [&](const void*, std::size_t) {
                               count.fetch_add(1);
                             }),
            Status::kSuccess);
  std::vector<TaskHandle> tasks;
  for (int i = 0; i < 500; ++i) {
    auto t = rt.task_start(kJobRecord, nullptr, 0);
    ASSERT_TRUE(t.has_value());
    tasks.push_back(*t);
  }
  for (auto& t : tasks) EXPECT_EQ(t->wait(), Status::kSuccess);
  EXPECT_EQ(count.load(), 500);
  EXPECT_EQ(rt.tasks_executed(), 500u);
}

TEST(MtapiGroups, WaitAll) {
  TaskRuntime rt;
  std::atomic<int> done{0};
  ASSERT_EQ(rt.action_create(kJobRecord,
                             [&](const void*, std::size_t) {
                               done.fetch_add(1);
                             }),
            Status::kSuccess);
  auto group = rt.group_create();
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(rt.task_start(kJobRecord, nullptr, 0, group).has_value());
  }
  EXPECT_EQ(group->wait_all(), Status::kSuccess);
  EXPECT_EQ(done.load(), 64);
  EXPECT_EQ(group->pending(), 0u);
}

TEST(MtapiGroups, WaitAnyDrainsCompletions) {
  TaskRuntime rt;
  ASSERT_EQ(rt.action_create(kJobRecord, [](const void*, std::size_t) {}),
            Status::kSuccess);
  auto group = rt.group_create();
  const int kTasks = 10;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(rt.task_start(kJobRecord, nullptr, 0, group).has_value());
  }
  std::set<Task*> seen;
  for (int i = 0; i < kTasks; ++i) {
    auto t = group->wait_any();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ((*t)->state(), TaskState::kCompleted);
    seen.insert(t->get());
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kTasks));
}

TEST(MtapiTasks, CancelPendingTask) {
  // A single worker busy on a long task guarantees a pending window.
  TaskRuntime rt(TaskRuntimeOptions{.workers = 1});
  std::atomic<bool> release{false};
  std::atomic<int> executed{0};
  ASSERT_EQ(rt.action_create(kJobAdd,
                             [&](const void*, std::size_t) {
                               while (!release.load()) {
                                 std::this_thread::yield();
                               }
                             }),
            Status::kSuccess);
  ASSERT_EQ(rt.action_create(kJobRecord,
                             [&](const void*, std::size_t) {
                               executed.fetch_add(1);
                             }),
            Status::kSuccess);
  auto blocker = rt.task_start(kJobAdd, nullptr, 0);
  ASSERT_TRUE(blocker.has_value());
  // Queue the victim only once the worker runs the blocker: queued first,
  // the victim could be popped (the worker's own deque is LIFO) and run
  // before cancel().
  while ((*blocker)->state() != TaskState::kRunning) {
    std::this_thread::yield();
  }
  auto victim = rt.task_start(kJobRecord, nullptr, 0);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ((*victim)->cancel(), Status::kSuccess);
  EXPECT_EQ((*victim)->wait(), Status::kTaskCanceled);
  release.store(true);
  (void)(*blocker)->wait();  // outcome checked via `executed` below
  EXPECT_EQ(executed.load(), 0);
}

TEST(MtapiTasks, CanceledTaskQueuedAtTeardownIsFreed) {
  // A canceled task still queued behind a blocker when the runtime is torn
  // down never runs; its closure (which holds the task itself) must still
  // be released, or the task leaks.
  std::atomic<bool> release{false};
  std::weak_ptr<Task> victim_ref;
  std::thread releaser;
  {
    TaskRuntime rt(TaskRuntimeOptions{.workers = 1});
    ASSERT_EQ(rt.action_create(kJobAdd,
                               [&](const void*, std::size_t) {
                                 while (!release.load()) {
                                   std::this_thread::yield();
                                 }
                               }),
              Status::kSuccess);
    ASSERT_EQ(rt.action_create(kJobRecord, [](const void*, std::size_t) {}),
              Status::kSuccess);
    auto blocker = rt.task_start(kJobAdd, nullptr, 0);
    ASSERT_TRUE(blocker.has_value());
    while ((*blocker)->state() != TaskState::kRunning) {
      std::this_thread::yield();
    }
    auto victim = rt.task_start(kJobRecord, nullptr, 0);
    EXPECT_TRUE(victim.has_value());
    if (victim.has_value()) {
      EXPECT_EQ((*victim)->cancel(), Status::kSuccess);
      victim_ref = *victim;
    }
    // Let the blocker finish only once the teardown below has begun, so
    // the worker exits without dequeuing the victim.
    releaser = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.store(true);
    });
  }
  if (releaser.joinable()) releaser.join();
  EXPECT_TRUE(victim_ref.expired());
}

TEST(MtapiQueues, OrderedExecution) {
  TaskRuntime rt(TaskRuntimeOptions{.workers = 4});
  std::vector<int> order;
  std::mutex mu;
  ASSERT_EQ(rt.action_create(kJobRecord,
                             [&](const void* args, std::size_t) {
                               std::lock_guard lk(mu);
                               order.push_back(*static_cast<const int*>(args));
                             }),
            Status::kSuccess);
  auto queue = rt.queue_create(kJobRecord);
  ASSERT_TRUE(queue.has_value());
  auto group = rt.group_create();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(rt.queue_enqueue(*queue, &i, sizeof(i), group).has_value());
  }
  EXPECT_EQ(group->wait_all(), Status::kSuccess);
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(MtapiQueues, DisabledQueueRefusesWork) {
  TaskRuntime rt;
  ASSERT_EQ(rt.action_create(kJobRecord, [](const void*, std::size_t) {}),
            Status::kSuccess);
  auto queue = rt.queue_create(kJobRecord);
  ASSERT_TRUE(queue.has_value());
  ASSERT_EQ((*queue)->disable(), Status::kSuccess);
  EXPECT_EQ(rt.queue_enqueue(*queue, nullptr, 0).status(),
            Status::kQueueDisabled);
  ASSERT_EQ((*queue)->enable(), Status::kSuccess);
  auto t = rt.queue_enqueue(*queue, nullptr, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ((*t)->wait(), Status::kSuccess);
}

TEST(MtapiQueues, QueueForUnknownJob) {
  TaskRuntime rt;
  EXPECT_EQ(rt.queue_create(12345).status(), Status::kJobInvalid);
}

TEST(MtapiScheduler, WorkStealingBalancesLoad) {
  TaskRuntime rt(TaskRuntimeOptions{.workers = 4});
  std::atomic<int> count{0};
  ASSERT_EQ(rt.action_create(kJobRecord,
                             [&](const void*, std::size_t) {
                               count.fetch_add(1);
                               // Enough work that stealing has a window.
                               volatile double x = 0;
                               for (int i = 0; i < 2000; ++i) x = x + i;
                             }),
            Status::kSuccess);
  auto group = rt.group_create();
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(rt.task_start(kJobRecord, nullptr, 0, group).has_value());
  }
  EXPECT_EQ(group->wait_all(), Status::kSuccess);
  EXPECT_EQ(count.load(), 400);
}

TEST(MtapiScheduler, TwoQueuesRunIndependently) {
  TaskRuntime rt(TaskRuntimeOptions{.workers = 2});
  std::atomic<int> a{0}, b{0};
  ASSERT_EQ(rt.action_create(kJobAdd,
                             [&](const void*, std::size_t) {
                               a.fetch_add(1);
                             }),
            Status::kSuccess);
  ASSERT_EQ(rt.action_create(kJobRecord,
                             [&](const void*, std::size_t) {
                               b.fetch_add(1);
                             }),
            Status::kSuccess);
  auto qa = rt.queue_create(kJobAdd);
  auto qb = rt.queue_create(kJobRecord);
  auto group = rt.group_create();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(rt.queue_enqueue(*qa, nullptr, 0, group).has_value());
    ASSERT_TRUE(rt.queue_enqueue(*qb, nullptr, 0, group).has_value());
  }
  EXPECT_EQ(group->wait_all(), Status::kSuccess);
  EXPECT_EQ(a.load(), 50);
  EXPECT_EQ(b.load(), 50);
}

}  // namespace
}  // namespace ompmca::mtapi
