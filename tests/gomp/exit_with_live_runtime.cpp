// Exits with a runtime still alive: a global Runtime (the shape of the GOMP
// ABI's process-wide runtime) runs one width-2 region, and main returns
// without tearing it down.  Static destruction must then finalize the
// runtime's pool and MRAPI nodes and let the process exit 0; a hang at
// exit shows up as a ctest timeout.
//
//   exit_with_live_runtime native|mca
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>

#include "gomp/runtime.hpp"

namespace {

std::unique_ptr<ompmca::gomp::Runtime> g_runtime;

}  // namespace

int main(int argc, char** argv) {
  using ompmca::gomp::BackendKind;
  const bool mca = argc == 2 && std::strcmp(argv[1], "mca") == 0;
  if (argc != 2 || (!mca && std::strcmp(argv[1], "native") != 0)) {
    std::fprintf(stderr, "usage: %s native|mca\n", argv[0]);
    return 2;
  }
  ompmca::gomp::RuntimeOptions opts;
  opts.backend = mca ? BackendKind::kMca : BackendKind::kNative;
  g_runtime = std::make_unique<ompmca::gomp::Runtime>(std::move(opts));
  std::atomic<unsigned> ran{0};
  g_runtime->parallel(
      [&](ompmca::gomp::ParallelContext&) { ran.fetch_add(1); }, 2);
  if (ran.load() != 2) {
    std::fprintf(stderr, "region ran on %u threads, want 2\n", ran.load());
    return 1;
  }
  return 0;
}
