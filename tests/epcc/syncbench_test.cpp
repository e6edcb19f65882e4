#include "epcc/syncbench.hpp"

#include <gtest/gtest.h>

#include "common/time.hpp"

namespace ompmca::epcc {
namespace {

gomp::Runtime make_runtime(gomp::BackendKind kind) {
  gomp::RuntimeOptions opts;
  opts.backend = kind;
  gomp::Icvs icvs;
  icvs.num_threads = 4;
  opts.icvs = icvs;
  return gomp::Runtime(opts);
}

SyncbenchOptions quick_options() {
  SyncbenchOptions o;
  o.outer_reps = 3;
  o.inner_reps = 8;
  o.delay_length = 32;
  return o;
}

TEST(Syncbench, DirectiveNames) {
  EXPECT_EQ(to_string(Directive::kParallel), "PARALLEL");
  EXPECT_EQ(to_string(Directive::kParallelFor), "PARALLEL FOR");
  EXPECT_EQ(to_string(Directive::kReduction), "REDUCTION");
  EXPECT_EQ(to_string(Directive::kForDynamic), "FOR DYNAMIC");
  // The seven Table-I rows plus FOR DYNAMIC (the steal-scheduler probe).
  EXPECT_EQ(kAllDirectives.size(), 8u);
}

TEST(Syncbench, DelayConsumesTime) {
  // delay() must not be elided (otherwise every overhead is noise).  Only
  // a lower bound: host load can stretch the loop but never shrink it, so
  // comparing two lengths' timings would be a race against the scheduler.
  const double t0 = monotonic_seconds();
  for (int i = 0; i < 20000; ++i) Syncbench::delay(640);
  EXPECT_GT(monotonic_seconds() - t0, 0.0);
  Syncbench::delay(0);  // degenerate lengths return
  Syncbench::delay(-1);
}

TEST(Syncbench, MeasurementFieldsPopulated) {
  gomp::Runtime rt = make_runtime(gomp::BackendKind::kNative);
  Syncbench bench(&rt, quick_options());
  Measurement m = bench.measure(Directive::kBarrier, 2);
  EXPECT_TRUE(m.valid());
  EXPECT_EQ(m.directive, Directive::kBarrier);
  EXPECT_EQ(m.nthreads, 2u);
  EXPECT_GT(m.mean_us, 0.0);
  EXPECT_GT(m.reference_us, 0.0);
  EXPECT_GE(m.sd_us, 0.0);
  // Bull's overhead is the construct time less the bare delay loop's; the
  // sign of a single short measurement is the host's, not the runtime's.
  EXPECT_EQ(m.outer_reps, quick_options().outer_reps);
  EXPECT_EQ(m.inner_reps, quick_options().inner_reps);
  EXPECT_DOUBLE_EQ(m.overhead_us, m.mean_us - m.reference_us);
}

TEST(Syncbench, AllDirectivesMeasurable) {
  gomp::Runtime rt = make_runtime(gomp::BackendKind::kNative);
  Syncbench bench(&rt, quick_options());
  for (Directive d : kAllDirectives) {
    Measurement m = bench.measure(d, 2);
    EXPECT_GT(m.mean_us, 0.0) << to_string(d);
  }
}

TEST(Syncbench, SweepCoversGrid) {
  gomp::Runtime rt = make_runtime(gomp::BackendKind::kNative);
  Syncbench bench(&rt, quick_options());
  auto measurements = bench.sweep({2, 4});
  EXPECT_EQ(measurements.size(), kAllDirectives.size() * 2);
}

TEST(Syncbench, RelativeOverheadsProduceFullTable) {
  gomp::Runtime native = make_runtime(gomp::BackendKind::kNative);
  gomp::Runtime mca = make_runtime(gomp::BackendKind::kMca);
  auto cells = relative_overheads(&native, &mca, {2, 4}, quick_options());
  ASSERT_EQ(cells.size(), kAllDirectives.size() * 2);
  // Structure only: wall-clock ratios belong to the benches, where they are
  // repeated and reported with their spread.
  for (const auto& cell : cells) {
    EXPECT_GT(cell.ratio, 0.0) << to_string(cell.directive);
  }
}

TEST(Syncbench, McaRuntimeMeasurableAtBoardWidth) {
  gomp::Runtime mca = make_runtime(gomp::BackendKind::kMca);
  Syncbench bench(&mca, quick_options());
  Measurement m = bench.measure(Directive::kParallel, 8);
  EXPECT_GT(m.mean_us, 0.0);
}

}  // namespace
}  // namespace ompmca::epcc
