// Ablation A6: thread placement on the modelled T4240, in two parts.
//
// Part 1 (human mode): the classic OMP_PROC_BIND spread-vs-close study on
// the NAS kernels — spread gives every software thread its own core until
// 12 threads; close packs SMT pairs immediately.
//
// Part 2: the cost model's flat board-wide placement + flat barrier
// against bubble placement + two-tier barrier:
//   * a 24-thread top-level team's barrier, flat vs two-tier model;
//   * a 4-thread nested team: scatter (spans all 3 clusters) vs a bubble
//     pinned inside the master's cluster — barrier and fork critical path.
// Both sides are model predictions for the board (simulator input); the
// runtime itself runs one flat team with one central barrier on whatever
// host it is on.
//
// Flags:
//   --json            emit a diff_artifacts.py-compatible artifact with
//                     both configurations' modeled rows.
//   --quick           skip the simx spread/close study (CI smoke).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "npb/npb.hpp"
#include "platform/cost_model.hpp"
#include "simx/engine.hpp"

namespace {

using namespace ompmca;

double run_simx(const platform::CostModel& model, const simx::Program& program,
                unsigned n, platform::PlacementPolicy policy) {
  simx::Engine engine(&model, n, policy);
  return engine.run(program).seconds;
}

/// Spread-vs-close sanity study (pre-existing A6 content).
bool spread_close_study(const platform::CostModel& model) {
  bool all_ok = true;
  for (const auto& [name, trace] :
       {std::pair<const char*, simx::Program (*)(npb::Class)>{"EP",
                                                              npb::trace_ep},
        {"CG", npb::trace_cg}}) {
    simx::Program program = trace(npb::Class::A);
    std::printf("== placement ablation: NAS %s class A ==\n", name);
    std::printf("  %-8s %-14s %-14s %-8s\n", "threads", "spread (s)",
                "close (s)", "ratio");
    for (unsigned n : {2u, 4u, 8u, 12u, 16u, 24u}) {
      double spread =
          run_simx(model, program, n, platform::PlacementPolicy::kScatter);
      double close =
          run_simx(model, program, n, platform::PlacementPolicy::kCompact);
      std::printf("  %-8u %-14.4f %-14.4f %-8.3f\n", n, spread, close,
                  close / spread);
      if (n <= 12) all_ok &= close >= spread * 0.999;
      if (n == 24) all_ok &= std::fabs(close - spread) / spread < 0.01;
    }
    std::printf("\n");
  }
  return all_ok;
}

/// The four modeled quantities of one configuration, in microseconds.
struct ModeNumbers {
  double barrier_top_w24;
  double barrier_nested_w4;
  double fork_top_w24;
  double fork_nested_w4;
  double fork_cp_mean() const { return (fork_top_w24 + fork_nested_w4) / 2; }
};

ModeNumbers model_mode(const platform::CostModel& model, bool hier) {
  const platform::Topology& topo = model.topology();
  platform::TeamShape top(topo, 24);
  platform::TeamShape nested_flat(topo, 4);  // scatter: spans all 3 clusters

  // Bubble shape: the nested team pinned on 4 whole cores of the master's
  // cluster (cluster 0).
  std::vector<unsigned> bubble_hw;
  for (unsigned h = 0; h < topo.num_hw_threads() && bubble_hw.size() < 4; ++h) {
    if (topo.cluster_of_hw_thread(h) == 0 &&
        topo.hw_thread(h).smt_lane == 0) {
      bubble_hw.push_back(h);
    }
  }
  platform::TeamShape nested_bubble(topo, bubble_hw);

  ModeNumbers m;
  if (hier) {
    m.barrier_top_w24 = model.barrier_seconds_hierarchical(top) * 1e6;
    // The bubble team spans one cluster, so its barrier has no second tier:
    // flat model, 1-cluster shape.
    m.barrier_nested_w4 = model.barrier_seconds(nested_bubble) * 1e6;
    m.fork_top_w24 = model.fork_seconds(top) * 1e6;
    m.fork_nested_w4 = model.fork_seconds(nested_bubble) * 1e6;
  } else {
    m.barrier_top_w24 = model.barrier_seconds(top) * 1e6;
    m.barrier_nested_w4 = model.barrier_seconds(nested_flat) * 1e6;
    m.fork_top_w24 = model.fork_seconds(top) * 1e6;
    m.fork_nested_w4 = model.fork_seconds(nested_flat) * 1e6;
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  const platform::CostModel model(platform::Topology::t4240rdb(),
                                  platform::ServiceCosts::native());
  bool all_ok = true;

  if (!json && !quick) all_ok &= spread_close_study(model);

  const ModeNumbers flat = model_mode(model, false);
  const ModeNumbers hier = model_mode(model, true);
  all_ok &= hier.barrier_top_w24 < flat.barrier_top_w24;
  all_ok &= hier.barrier_nested_w4 < flat.barrier_nested_w4;
  all_ok &= hier.fork_nested_w4 < flat.fork_nested_w4;
  all_ok &= hier.fork_cp_mean() < flat.fork_cp_mean();

  const struct {
    const char* name;
    double f, h;
  } rows[] = {
      {"barrier_top_w24", flat.barrier_top_w24, hier.barrier_top_w24},
      {"barrier_nested_w4", flat.barrier_nested_w4, hier.barrier_nested_w4},
      {"fork_top_w24", flat.fork_top_w24, hier.fork_top_w24},
      {"fork_nested_w4", flat.fork_nested_w4, hier.fork_nested_w4},
      {"fork_cp_mean", flat.fork_cp_mean(), hier.fork_cp_mean()},
  };
  if (json) {
    std::printf("{\n");
    std::printf("  \"_meta\": {\"bench\": \"ablation_placement\", "
                "\"checks\": \"%s\"},\n",
                all_ok ? "PASS" : "FAIL");
    std::printf("  \"overheads\": {\n");
    const std::size_t n = sizeof(rows) / sizeof(rows[0]);
    for (std::size_t i = 0; i < n; ++i) {
      std::printf("    \"flat_%s\": {\"overhead_us\": %.4f},\n", rows[i].name,
                  rows[i].f);
      std::printf("    \"hier_%s\": {\"overhead_us\": %.4f}%s\n",
                  rows[i].name, rows[i].h, i + 1 == n ? "" : ",");
    }
    std::printf("  }\n}\n");
  } else {
    std::printf("== flat vs hier+bubble (modeled T4240, us) ==\n");
    std::printf("  %-20s %-12s %-12s %-8s\n", "quantity", "flat", "hier",
                "ratio");
    for (const auto& r : rows) {
      std::printf("  %-20s %-12.4f %-12.4f %-8.3f\n", r.name, r.f, r.h,
                  r.h / r.f);
    }
    std::printf("\nchecks: %s\n", all_ok ? "PASS" : "FAIL");
  }
  return all_ok ? 0 : 1;
}
