#include "gomp/icv.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace ompmca::gomp {
namespace {

class IcvEnvTest : public ::testing::Test {
 protected:
  void set(const char* name, const char* value) {
    ::setenv(name, value, 1);
    names_.push_back(name);
  }
  void TearDown() override {
    for (const char* n : names_) ::unsetenv(n);
  }
  std::vector<const char*> names_;
};

TEST_F(IcvEnvTest, DefaultsFromProcessorCount) {
  Icvs icvs = Icvs::from_env(24);
  EXPECT_EQ(icvs.num_threads, 24u);
  EXPECT_FALSE(icvs.dynamic_threads);
  EXPECT_FALSE(icvs.nested);
  // OMP_WAIT_POLICY unset is its own state (spin a short window, then
  // park), not passive.
  EXPECT_EQ(icvs.wait_policy, WaitPolicy::kDefault);
}

TEST_F(IcvEnvTest, OmpNumThreadsWins) {
  set("OMP_NUM_THREADS", "6");
  EXPECT_EQ(Icvs::from_env(24).num_threads, 6u);
}

TEST_F(IcvEnvTest, InvalidNumThreadsIgnored) {
  set("OMP_NUM_THREADS", "0");
  EXPECT_EQ(Icvs::from_env(24).num_threads, 24u);
  set("OMP_NUM_THREADS", "abc");
  EXPECT_EQ(Icvs::from_env(24).num_threads, 24u);
}

TEST_F(IcvEnvTest, DynamicAndNested) {
  set("OMP_DYNAMIC", "true");
  set("OMP_NESTED", "1");
  Icvs icvs = Icvs::from_env(4);
  EXPECT_TRUE(icvs.dynamic_threads);
  EXPECT_TRUE(icvs.nested);
  EXPECT_GT(icvs.max_active_levels, 1u);
}

TEST_F(IcvEnvTest, ScheduleParsed) {
  set("OMP_SCHEDULE", "guided,4");
  Icvs icvs = Icvs::from_env(4);
  EXPECT_EQ(icvs.run_schedule.kind, Schedule::kGuided);
  EXPECT_EQ(icvs.run_schedule.chunk, 4);
}

TEST_F(IcvEnvTest, WaitPolicyActive) {
  set("OMP_WAIT_POLICY", "ACTIVE");
  EXPECT_EQ(Icvs::from_env(4).wait_policy, WaitPolicy::kActive);
}

TEST_F(IcvEnvTest, WaitPolicyPassive) {
  set("OMP_WAIT_POLICY", "passive");
  EXPECT_EQ(Icvs::from_env(4).wait_policy, WaitPolicy::kPassive);
}

TEST_F(IcvEnvTest, UnknownWaitPolicyKeepsDefault) {
  set("OMP_WAIT_POLICY", "sometimes");
  EXPECT_EQ(Icvs::from_env(4).wait_policy, WaitPolicy::kDefault);
}

TEST_F(IcvEnvTest, ThreadLimitClampsNumThreads) {
  set("OMP_NUM_THREADS", "64");
  set("OMP_THREAD_LIMIT", "16");
  Icvs icvs = Icvs::from_env(4);
  EXPECT_EQ(icvs.thread_limit, 16u);
  EXPECT_EQ(icvs.num_threads, 16u);
}

TEST(ScheduleParse, AllKinds) {
  ScheduleSpec spec;
  ASSERT_TRUE(parse_schedule("static", &spec));
  EXPECT_EQ(spec.kind, Schedule::kStatic);
  EXPECT_EQ(spec.chunk, 0);
  ASSERT_TRUE(parse_schedule("dynamic", &spec));
  EXPECT_EQ(spec.kind, Schedule::kDynamic);
  EXPECT_EQ(spec.chunk, 1);  // default chunk for dynamic
  ASSERT_TRUE(parse_schedule("GUIDED , 8", &spec));
  EXPECT_EQ(spec.kind, Schedule::kGuided);
  EXPECT_EQ(spec.chunk, 8);
  ASSERT_TRUE(parse_schedule("auto", &spec));
  EXPECT_EQ(spec.kind, Schedule::kAuto);
}

TEST(ScheduleParse, Malformed) {
  ScheduleSpec spec;
  EXPECT_FALSE(parse_schedule("", &spec));
  EXPECT_FALSE(parse_schedule("bogus", &spec));
  EXPECT_FALSE(parse_schedule("static,0", &spec));
  EXPECT_FALSE(parse_schedule("static,-3", &spec));
  EXPECT_FALSE(parse_schedule("static,4,5", &spec));
  EXPECT_FALSE(parse_schedule("static,x", &spec));
}

TEST(ScheduleNames, ToString) {
  EXPECT_EQ(to_string(Schedule::kStatic), "static");
  EXPECT_EQ(to_string(Schedule::kGuided), "guided");
  EXPECT_EQ(to_string(Schedule::kRuntime), "runtime");
}

}  // namespace
}  // namespace ompmca::gomp
