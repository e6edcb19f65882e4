// Telemetry subsystem unit tests: counter/histogram mechanics, the
// disabled-mode no-op guarantee, JSON shape, and end-to-end counts from a
// real runtime driving real directives.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gomp/gomp.hpp"
#include "mrapi/mutex.hpp"

namespace ompmca::obs {
namespace {

TEST(Telemetry, DisabledHooksRecordNothing) {
  Registry::instance().reset();
  set_enabled(false);
  count(Counter::kGompParallel, 5);
  record(Hist::kGompParallelNs, 1234);
  gauge_max(Gauge::kGompTaskQueueDepthHwm, 42);
  placement(1, 3);
  { ScopedTimer t(Hist::kGompForNs); }
  Snapshot s = Registry::instance().snapshot();
  EXPECT_EQ(s.counter(Counter::kGompParallel), 0u);
  EXPECT_EQ(s.hist(Hist::kGompParallelNs).count, 0u);
  EXPECT_EQ(s.hist(Hist::kGompForNs).count, 0u);
  EXPECT_EQ(s.gauge(Gauge::kGompTaskQueueDepthHwm), 0u);
  EXPECT_EQ(s.placements[1], 0u);
}

TEST(Telemetry, CountersAccumulateAcrossThreads) {
  ScopedEnable scope;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 1000; ++i) count(Counter::kMrapiMutexAcquire);
    });
  }
  for (auto& t : threads) t.join();
  Snapshot s = Registry::instance().snapshot();
  EXPECT_EQ(s.counter(Counter::kMrapiMutexAcquire), 4000u);
  EXPECT_GE(s.threads_observed, 4u);
}

TEST(Telemetry, HistogramBucketsArePowersOfTwo) {
  ScopedEnable scope;
  // Bucket b >= 1 covers [2^(b-1), 2^b); bucket 0 holds zero samples.
  record(Hist::kGompBarrierWaitCentralNs, 0);     // bucket 0
  record(Hist::kGompBarrierWaitCentralNs, 1);     // bucket 1: [1, 2)
  record(Hist::kGompBarrierWaitCentralNs, 2);     // bucket 2: [2, 4)
  record(Hist::kGompBarrierWaitCentralNs, 3);     // bucket 2
  record(Hist::kGompBarrierWaitCentralNs, 1024);  // bucket 11: [1024, 2048)
  record(Hist::kGompBarrierWaitCentralNs, 2047);  // bucket 11
  Snapshot s = Registry::instance().snapshot();
  const HistogramData& h = s.hist(Hist::kGompBarrierWaitCentralNs);
  EXPECT_EQ(h.count, 6u);
  EXPECT_EQ(h.sum_ns, 0u + 1 + 2 + 3 + 1024 + 2047);
  EXPECT_EQ(h.max_ns, 2047u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[11], 2u);
  EXPECT_EQ(HistogramData::bucket_upper_ns(0), 1u);
  EXPECT_EQ(HistogramData::bucket_upper_ns(11), 2048u);
}

TEST(Telemetry, QuantileOfEmptyHistogramIsZero) {
  HistogramData h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(Telemetry, QuantileStaysInsideTheOccupiedBucket) {
  // All samples in bucket 11 ([1024, 2048)): every quantile must land in
  // that bucket's range, clamped to the recorded max.
  HistogramData h;
  for (int i = 0; i < 100; ++i) h.record(1500);
  for (double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_GE(h.quantile(q), 1024.0) << q;
    EXPECT_LE(h.quantile(q), 1500.0) << q;  // clamped to max_ns
  }
}

TEST(Telemetry, QuantileIsMonotonicAcrossBuckets) {
  HistogramData h;
  for (int i = 0; i < 90; ++i) h.record(100);     // bucket 7: [64, 128)
  for (int i = 0; i < 9; ++i) h.record(10'000);   // bucket 14
  h.record(1'000'000);                            // bucket 20
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p999 = h.quantile(0.999);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p999);
  // Rank math: p50 inside the 100ns bucket, p95 in the 10µs one, p99.9 at
  // the tail (clamped to the exact max).
  EXPECT_GE(p50, 64.0);
  EXPECT_LT(p50, 128.0);
  EXPECT_GE(p95, 8192.0);
  EXPECT_LE(p95, 16384.0);
  EXPECT_GT(p999, 16384.0);
  EXPECT_LE(p999, 1'000'000.0);
  // Out-of-range q is clamped, not UB.
  EXPECT_LE(h.quantile(2.0), 1'000'000.0);
  EXPECT_GE(h.quantile(-1.0), 0.0);
}

TEST(Telemetry, HistogramMergeAccumulatesBucketwise) {
  HistogramData a;
  HistogramData b;
  a.record(100);
  a.record(200);
  b.record(100);
  b.record(50'000);
  a += b;
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.sum_ns, 100u + 200 + 100 + 50'000);
  EXPECT_EQ(a.max_ns, 50'000u);
  EXPECT_EQ(a.buckets[HistogramData::bucket_of(100)], 2u);
}

TEST(Telemetry, GaugeKeepsHighWaterMark) {
  ScopedEnable scope;
  gauge_max(Gauge::kMrapiArenaBytesInUseHwm, 100);
  gauge_max(Gauge::kMrapiArenaBytesInUseHwm, 500);
  gauge_max(Gauge::kMrapiArenaBytesInUseHwm, 300);
  Snapshot s = Registry::instance().snapshot();
  EXPECT_EQ(s.gauge(Gauge::kMrapiArenaBytesInUseHwm), 500u);
}

TEST(Telemetry, ScopedTimerRecordsPlausibleDuration) {
  ScopedEnable scope;
  {
    ScopedTimer t(Hist::kMrapiArenaAllocateNs);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Snapshot s = Registry::instance().snapshot();
  const HistogramData& h = s.hist(Hist::kMrapiArenaAllocateNs);
  ASSERT_EQ(h.count, 1u);
  EXPECT_GE(h.sum_ns, 2'000'000u);  // at least the 2 ms we slept
}

TEST(Telemetry, JsonReportContainsAllSections) {
  ScopedEnable scope;
  count(Counter::kGompParallel, 3);
  record(Hist::kGompBarrierWaitCentralNs, 512);
  gauge_max(Gauge::kGompTaskQueueDepthHwm, 7);
  placement(2, 4);
  std::string json = Registry::instance().json("unit-test");
  EXPECT_NE(json.find("\"tag\": \"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"gomp.parallel\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"gomp.barrier_wait.central_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"le_ns\": 1024, \"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"gomp.task_queue_depth_hwm\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"cluster2\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(Telemetry, RuntimeDirectivesAreObserved) {
  ScopedEnable scope;
  gomp::RuntimeOptions opts;
  gomp::Icvs icvs;
  icvs.num_threads = 4;
  opts.icvs = icvs;
  gomp::Runtime rt(opts);

  long sum = 0;
  rt.parallel([&](gomp::ParallelContext& ctx) {
    long local = 0;
    ctx.for_loop(0, 1000, [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) local += i;
    });
    ctx.barrier();
    ctx.single([] {});
    ctx.critical([&] { sum += local; });
    (void)ctx.reduce_sum(local);
  });

  Snapshot s = Registry::instance().snapshot();
  EXPECT_EQ(s.counter(Counter::kGompParallel), 1u);
  EXPECT_EQ(s.counter(Counter::kGompFor), 4u);      // one per team member
  EXPECT_EQ(s.counter(Counter::kGompSingle), 4u);   // entry per thread
  EXPECT_EQ(s.counter(Counter::kGompCritical), 4u);
  EXPECT_EQ(s.counter(Counter::kGompReduction), 4u);
  // for (barrier) + explicit + single + reduce (one barrier), per thread;
  // the region's join is not a team barrier.
  EXPECT_EQ(s.counter(Counter::kGompBarrier), 4u * 4u);
  EXPECT_EQ(s.hist(Hist::kGompParallelNs).count, 1u);
  EXPECT_GE(s.hist(Hist::kGompBarrierWaitCentralNs).count,
            s.counter(Counter::kGompBarrier));
  // Three pool workers were handed the region.
  EXPECT_EQ(s.counter(Counter::kGompPoolDispatch), 3u);
  EXPECT_EQ(s.hist(Hist::kGompPoolDispatchNs).count, 3u);
}

TEST(Telemetry, WidthOneRegionSkipsPoolAndBarrier) {
  ScopedEnable scope;
  gomp::RuntimeOptions opts;
  gomp::Icvs icvs;
  icvs.num_threads = 4;
  opts.icvs = icvs;
  gomp::Runtime rt(opts);

  rt.parallel([](gomp::ParallelContext& ctx) { ctx.barrier(); }, 1);

  Snapshot s = Registry::instance().snapshot();
  EXPECT_EQ(s.counter(Counter::kGompParallel), 1u);
  // No pool dispatch and no barrier arrival: the serialized region never
  // touches its barrier or rings a doorbell.
  EXPECT_EQ(s.counter(Counter::kGompPoolDispatch), 0u);
  EXPECT_EQ(s.counter(Counter::kGompBarrier), 0u);
  EXPECT_EQ(s.hist(Hist::kGompBarrierWaitCentralNs).count, 0u);
}

TEST(Telemetry, McaBackendObservesMrapiLayer) {
  ScopedEnable scope;
  gomp::RuntimeOptions opts;
  opts.backend = gomp::BackendKind::kMca;
  gomp::Icvs icvs;
  icvs.num_threads = 4;
  opts.icvs = icvs;
  {
    gomp::Runtime rt(opts);
    rt.parallel([&](gomp::ParallelContext& ctx) {
      ctx.critical([] {});
    });
  }
  Snapshot s = Registry::instance().snapshot();
  // Master node + 3 worker nodes at minimum; all retired with the runtime.
  EXPECT_GE(s.counter(Counter::kMrapiNodeCreate), 4u);
  EXPECT_EQ(s.counter(Counter::kMrapiNodeCreate),
            s.counter(Counter::kMrapiNodeRetire));
  // The critical construct goes through an MRAPI mutex on this backend.
  EXPECT_GE(s.counter(Counter::kMrapiMutexAcquire), 4u);

  // A blocking MRAPI lock() records its acquire latency.
  mrapi::Mutex mu;
  mrapi::LockKey lock_key;
  ASSERT_EQ(mu.lock(mrapi::kTimeoutInfinite, &lock_key), Status::kSuccess);
  ASSERT_EQ(mu.unlock(lock_key), Status::kSuccess);
  s = Registry::instance().snapshot();
  EXPECT_GE(s.hist(Hist::kMrapiMutexAcquireNs).count, 1u);
}

TEST(Telemetry, ReportPathRedirectTruncatesThenAppends) {
  ScopedEnable scope;
  Registry::instance().reset();
  count(Counter::kGompParallel, 2);
  const std::string path = ::testing::TempDir() + "ompmca_telemetry_test.json";

  Registry::instance().set_report_path(path);
  Registry::instance().write_report("first");
  Registry::instance().write_report("second");  // appends

  std::string contents;
  {
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) contents.append(buf, n);
    std::fclose(f);
  }
  EXPECT_NE(contents.find("\"tag\": \"first\""), std::string::npos);
  EXPECT_NE(contents.find("\"tag\": \"second\""), std::string::npos);

  // Re-setting the same path starts a fresh file: the first report of a new
  // "session" truncates instead of growing the old one forever.
  Registry::instance().set_report_path(path);
  Registry::instance().write_report("third");
  contents.clear();
  {
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) contents.append(buf, n);
    std::fclose(f);
  }
  EXPECT_EQ(contents.find("\"tag\": \"first\""), std::string::npos);
  EXPECT_NE(contents.find("\"tag\": \"third\""), std::string::npos);

  Registry::instance().set_report_path("");  // back to stderr for later tests
  std::remove(path.c_str());
}

TEST(Telemetry, ResetClearsEverything) {
  ScopedEnable scope;
  count(Counter::kGompParallel, 9);
  record(Hist::kGompForNs, 77);
  gauge_max(Gauge::kGompTaskQueueDepthHwm, 5);
  placement(0, 2);
  Registry::instance().reset();
  Snapshot s = Registry::instance().snapshot();
  EXPECT_EQ(s.counter(Counter::kGompParallel), 0u);
  EXPECT_EQ(s.hist(Hist::kGompForNs).count, 0u);
  EXPECT_EQ(s.gauge(Gauge::kGompTaskQueueDepthHwm), 0u);
  EXPECT_EQ(s.placements[0], 0u);
}

}  // namespace
}  // namespace ompmca::obs
