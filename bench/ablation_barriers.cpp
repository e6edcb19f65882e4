// Ablation A4: barrier algorithm choice (central vs tree vs hierarchical)
// measured two ways:
//   * wall clock on this host (real threads, oversubscribed — the relative
//     ordering still reflects wakeup-chain length), with the hierarchical
//     barrier running over a synthetic 3-cluster map, T4240-style;
//   * the platform cost model's T4240 prediction: the flat model
//     (barrier_seconds, per-thread term over the whole team plus a CoreNet
//     penalty per extra cluster) against the two-tier model
//     (barrier_seconds_hierarchical, per-thread term over the fullest
//     cluster only, CoreNet crossed once per occupied cluster).
//
// Flags:
//   --quick        fewer rounds/widths (CI smoke, sanitizer runs)
//   --kind=NAME    restrict the wall-clock section to one algorithm
//                  (e.g. --kind=hier under TSan exercises exactly the
//                  hierarchical protocol)
//   --json         emit a diff_artifacts.py-compatible artifact on stdout
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gomp/barrier.hpp"
#include "platform/cost_model.hpp"

namespace {

using namespace ompmca;

/// Wall-clock ns per barrier for @p threads real threads round-robined over
/// three synthetic clusters (so kHierarchical builds a real two-tier
/// instance instead of collapsing).
double run_wall_ns(gomp::BarrierKind kind, unsigned threads, int rounds) {
  // kActive: spinning waiters time the algorithm itself rather than the
  // host's condition-variable wake-ups.
  std::vector<unsigned> cluster_of_thread(threads);
  for (unsigned i = 0; i < threads; ++i) cluster_of_thread[i] = i % 3;
  auto barrier = gomp::make_barrier(kind, threads, gomp::WaitPolicy::kActive,
                                    cluster_of_thread.data());
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> team;
  for (unsigned t = 1; t < threads; ++t) {
    team.emplace_back([&barrier, t, rounds] {
      for (int r = 0; r < rounds; ++r) barrier->arrive_and_wait(t);
    });
  }
  for (int r = 0; r < rounds; ++r) barrier->arrive_and_wait(0);
  for (auto& t : team) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / rounds;
}

struct Row {
  std::string key;
  double us;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  gomp::BarrierKind only = gomp::BarrierKind::kAuto;  // kAuto = all kinds
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strncmp(argv[i], "--kind=", 7) == 0) {
      if (!gomp::parse_barrier_kind(argv[i] + 7, &only) ||
          only == gomp::BarrierKind::kAuto) {
        std::fprintf(stderr, "ablation_barriers: bad --kind=%s\n",
                     argv[i] + 7);
        return 2;
      }
    }
  }

  const int rounds = quick ? 200 : 2000;
  const std::vector<unsigned> widths = quick ? std::vector<unsigned>{4u}
                                             : std::vector<unsigned>{2u, 4u, 8u};
  std::vector<Row> rows;

  if (!json) {
    std::printf("== barrier ablation: wall clock (host, %d rounds) ==\n",
                rounds);
    std::printf("  %-14s %-8s %-12s\n", "kind", "threads", "ns/barrier");
  }
  for (gomp::BarrierKind kind :
       {gomp::BarrierKind::kCentral, gomp::BarrierKind::kTree,
        gomp::BarrierKind::kHierarchical}) {
    if (only != gomp::BarrierKind::kAuto && kind != only) continue;
    for (unsigned n : widths) {
      const double ns = run_wall_ns(kind, n, rounds);
      if (!json) {
        std::printf("  %-14s %-8u %-12.0f\n",
                    std::string(to_string(kind)).c_str(), n, ns);
      }
      rows.push_back({"host_" + std::string(to_string(kind)) + "_t" +
                          std::to_string(n),
                      ns / 1000.0});
    }
  }

  // Modeled T4240 view.  The flat model is algorithm-agnostic (central and
  // tree differ in constants the model folds into ServiceCosts), so the
  // interesting comparison is flat vs two-tier on scatter-placed teams.
  const platform::CostModel model(platform::Topology::t4240rdb(),
                                  platform::ServiceCosts::native());
  bool all_ok = true;
  if (!json) {
    std::printf("\n== barrier ablation: modeled T4240 (scatter teams) ==\n");
    std::printf("  %-8s %-12s %-12s %-8s\n", "threads", "flat (us)",
                "hier (us)", "ratio");
  }
  for (unsigned n : {4u, 12u, 24u}) {
    platform::TeamShape shape(model.topology(), n);
    const double flat = model.barrier_seconds(shape) * 1e6;
    const double hier = model.barrier_seconds_hierarchical(shape) * 1e6;
    if (!json) {
      std::printf("  %-8u %-12.4f %-12.4f %-8.3f\n", n, flat, hier,
                  hier / flat);
    }
    rows.push_back({"model_flat_w" + std::to_string(n), flat});
    rows.push_back({"model_hier_w" + std::to_string(n), hier});
    // The two-tier barrier must beat the flat one whenever combining depth
    // dominates — i.e. once the per-cluster occupancy is below the team
    // width (any multi-cluster team wider than its fullest cluster).
    if (n >= 12 && hier >= flat) all_ok = false;
  }

  if (json) {
    std::printf("{\n");
    std::printf("  \"_meta\": {\"bench\": \"ablation_barriers\", "
                "\"rounds\": %d, \"policy\": \"active\", "
                "\"clusters\": 3, \"checks\": \"%s\"},\n",
                rounds, all_ok ? "PASS" : "FAIL");
    std::printf("  \"overheads\": {\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::printf("    \"%s\": {\"overhead_us\": %.4f}%s\n",
                  rows[i].key.c_str(), rows[i].us,
                  i + 1 == rows.size() ? "" : ",");
    }
    std::printf("  }\n}\n");
  } else {
    std::printf("\nmodel checks: %s\n", all_ok ? "PASS" : "FAIL");
  }
  return all_ok ? 0 : 1;
}
