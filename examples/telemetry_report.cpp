// Telemetry demo: watch the runtime observe itself.
//
// Runs the same small workload (a parallel reduction with a worksharing
// loop, a few explicit barriers and a contended critical) under both the
// stock runtime and the MCA-backed runtime with telemetry force-enabled,
// then prints the merged JSON report: per-directive entry counts and wall
// time, barrier wait-time histograms and MRAPI mutex/arena/node counters.
//
// The same report is available from any binary in the repo via
//   OMPMCA_TELEMETRY=json ./build/bench/table1_epcc_overhead --quick
// (report on stderr at exit, or to OMPMCA_TELEMETRY_FILE).
//
// Build & run:  cmake --build build && ./build/examples/telemetry_report
#include <cstdio>

#include "gomp/gomp.hpp"
#include "obs/telemetry.hpp"

using namespace ompmca;

namespace {

void run_workload(gomp::Runtime& rt) {
  double sum = 0.0;
  rt.parallel([&](gomp::ParallelContext& ctx) {
    double local = 0.0;
    ctx.for_loop(0, 200'000, [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) {
        local += 1.0 / static_cast<double>(i + 1);
      }
    });
    ctx.barrier();
    for (int i = 0; i < 50; ++i) {
      ctx.critical([&] { sum += local * 1e-3; });
    }
    ctx.single([] {});
    (void)ctx.reduce_sum(local);
  });
  std::printf("  workload checksum: %.6f\n", sum);
}

}  // namespace

int main() {
  std::printf("OpenMP-MCA telemetry report demo\n");
  std::printf("================================\n\n");

  obs::set_enabled(true);
  obs::Registry::instance().reset();

  for (auto kind : {gomp::BackendKind::kNative, gomp::BackendKind::kMca}) {
    std::printf("[%s runtime]\n", std::string(to_string(kind)).c_str());
    gomp::RuntimeOptions opts;
    opts.backend = kind;
    gomp::Icvs icvs;
    icvs.num_threads = 8;
    opts.icvs = icvs;
    gomp::Runtime rt(opts);
    run_workload(rt);
  }

  std::printf("\nmerged telemetry report:\n\n");
  obs::Registry::instance().write_report("telemetry_report_example", stdout);

  // Quick sanity so the example doubles as a smoke test: every team
  // barrier's wait lands in the central barrier's histogram.
  obs::Snapshot s = obs::Registry::instance().snapshot();
  const bool ok = s.counter(obs::Counter::kGompParallel) == 2 &&
                  s.counter(obs::Counter::kGompCritical) == 2u * 8u * 50u &&
                  s.hist(obs::Hist::kGompBarrierWaitCentralNs).count > 0 &&
                  s.counter(obs::Counter::kMrapiNodeCreate) > 0;
  std::printf("\n%s\n", ok ? "telemetry self-check: PASS"
                           : "telemetry self-check: FAIL");
  return ok ? 0 : 1;
}
