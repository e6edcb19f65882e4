// Ablation A4: the platform cost model's T4240 barrier prediction — the
// flat model (barrier_seconds, per-thread term over the whole team plus a
// CoreNet penalty per extra cluster) against the two-tier model
// (barrier_seconds_hierarchical, per-thread term over the fullest cluster
// only, CoreNet crossed once per occupied cluster).  This is simulator
// input: the runtime itself runs one central barrier on whatever host it
// is on (gomp/barrier.hpp), and the host comparison that retired the
// hierarchical one is in EXPERIMENTS.md.
//
// Flags:
//   --quick        accepted for CI symmetry (the model is instantaneous)
//   --json         emit a diff_artifacts.py-compatible artifact on stdout
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "platform/cost_model.hpp"

namespace {

using namespace ompmca;

struct Row {
  std::string key;
  double us;
};

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  const platform::CostModel model(platform::Topology::t4240rdb(),
                                  platform::ServiceCosts::native());
  std::vector<Row> rows;
  bool all_ok = true;
  if (!json) {
    std::printf("== barrier ablation: modeled T4240 (scatter teams) ==\n");
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
                "\"clusters\": 3, \"checks\": \"%s\"},\n",
                all_ok ? "PASS" : "FAIL");
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
