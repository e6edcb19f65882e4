// Ablation A1 (§5B.1 node management): persistent worker pool vs the
// literal create-per-region node lifecycle, under both backends.
//
// The paper's text describes nodes created at fork and finalized at join;
// libGOMP (and this runtime) parks a pool instead.  This bench quantifies
// what that choice is worth per PARALLEL construct.  The runtime has no
// per-region mode: the per-region variant launches and joins the backend's
// threads (MRAPI nodes under the MCA backend) around each region itself.
#include <benchmark/benchmark.h>

#include <atomic>

#include "gomp/gomp.hpp"

namespace {

using namespace ompmca;

gomp::Runtime make_runtime(benchmark::State& state,
                           gomp::BackendKind backend) {
  gomp::RuntimeOptions opts;
  opts.backend = backend;
  gomp::Icvs icvs;
  icvs.num_threads = static_cast<unsigned>(state.range(0));
  opts.icvs = icvs;
  return gomp::Runtime(opts);
}

/// The region body both variants run: identical work, so the only
/// difference measured is the worker lifecycle.
void region_body(gomp::ParallelContext& ctx, std::atomic<long>& sink) {
  benchmark::DoNotOptimize(ctx.thread_num());
  if (ctx.thread_num() == 0) sink.store(1, std::memory_order_relaxed);
}

void run_pool_regions(benchmark::State& state, gomp::BackendKind backend) {
  gomp::Runtime rt = make_runtime(state, backend);
  std::atomic<long> sink{0};
  for (auto _ : state) {
    rt.parallel([&](gomp::ParallelContext& ctx) { region_body(ctx, sink); });
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetLabel("pool");
}

void run_node_per_region(benchmark::State& state, gomp::BackendKind backend) {
  // Only the runtime's backend is used (its pool never launches), so the
  // worker indices below are free for the bench's own threads.  Each
  // region builds the same Team rt.parallel would, but its workers are
  // fresh backend threads (MRAPI nodes) launched at fork, joined at join.
  gomp::Runtime rt = make_runtime(state, backend);
  gomp::SystemBackend& sys = rt.backend();
  const unsigned width = static_cast<unsigned>(state.range(0));
  std::atomic<long> sink{0};
  auto body = [&sink](gomp::ParallelContext& ctx) { region_body(ctx, sink); };
  for (auto _ : state) {
    gomp::Team team(rt, width, nullptr);
    unsigned launched = 0;
    for (unsigned tid = 1; tid < width; ++tid) {
      if (!ok(sys.launch_thread(tid - 1, [&team, &body, tid] {
            team.run_thread(tid, body);
          }))) {
        break;
      }
      ++launched;
    }
    // The body never waits on a team barrier, so a short launch cannot hang.
    team.run_thread(0, body);
    for (unsigned i = 0; i < launched; ++i) (void)sys.join_thread(i);
    team.finish();
    if (launched + 1 != width) {
      state.SkipWithError("backend thread launch failed");
      break;
    }
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetLabel("per-region");
}

void BM_Parallel_Native_Pool(benchmark::State& state) {
  run_pool_regions(state, gomp::BackendKind::kNative);
}
void BM_Parallel_Native_PerRegion(benchmark::State& state) {
  run_node_per_region(state, gomp::BackendKind::kNative);
}
void BM_Parallel_Mca_Pool(benchmark::State& state) {
  run_pool_regions(state, gomp::BackendKind::kMca);
}
void BM_Parallel_Mca_PerRegion(benchmark::State& state) {
  run_node_per_region(state, gomp::BackendKind::kMca);
}

}  // namespace

BENCHMARK(BM_Parallel_Native_Pool)->Arg(2)->Arg(4)->Arg(8)->Iterations(200);
BENCHMARK(BM_Parallel_Native_PerRegion)->Arg(2)->Arg(4)->Arg(8)->Iterations(50);
BENCHMARK(BM_Parallel_Mca_Pool)->Arg(2)->Arg(4)->Arg(8)->Iterations(200);
BENCHMARK(BM_Parallel_Mca_PerRegion)->Arg(2)->Arg(4)->Arg(8)->Iterations(50);

BENCHMARK_MAIN();
