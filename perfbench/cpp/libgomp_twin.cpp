// libgomp_twin: the EPCC syncbench directives compiled with -fopenmp
// against the host compiler's libgomp — the paper's stock-libGOMP baseline.
//
// Same method as src/epcc/syncbench.cpp (Bull '99: overhead = (T_test -
// T_ref) / inner_reps, delay 64, one warm-up rep per measurement), same
// directive shapes, directives interleaved in seed-shuffled order.  It is a
// reference only: it runs in its own process, never alongside a workload,
// and its wait policy is whatever OMP_WAIT_POLICY the caller set.
//
//   libgomp_twin --threads N --seed S --seconds T
//
// Prints one JSON object: overhead samples (µs) per directive, uncontended
// omp_lock_t set/unset pair samples (ns), and whether the verification
// (critical counter sum, reduction value, exactly-once loop coverage) held.
#include <omp.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace {

constexpr int kDelay = 64;
constexpr int kInner = 64;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void delay(int length) {
  volatile double a = 0.0;
  for (int i = 0; i < length; ++i) a = a + i * 0.5;
  if (a < 0) std::abort();
}

constexpr std::array<const char*, 8> kNames = {
    "parallel", "for",     "for_dynamic", "parallel_for",
    "barrier",  "single",  "critical",    "reduction"};

bool g_ok = true;

double one_rep(int d, int n) {
  const double t0 = now_s();
  switch (d) {
    case 0:
      for (int j = 0; j < kInner; ++j) {
#pragma omp parallel num_threads(n)
        delay(kDelay);
      }
      break;
    case 1:
#pragma omp parallel num_threads(n)
      for (int j = 0; j < kInner; ++j) {
#pragma omp for
        for (int i = 0; i < n; ++i) delay(kDelay);
      }
      break;
    case 2:
#pragma omp parallel num_threads(n)
      for (int j = 0; j < kInner; ++j) {
#pragma omp for schedule(dynamic, 1)
        for (int i = 0; i < n; ++i) delay(kDelay);
      }
      break;
    case 3:
      for (int j = 0; j < kInner; ++j) {
#pragma omp parallel for num_threads(n)
        for (int i = 0; i < n; ++i) delay(kDelay);
      }
      break;
    case 4:
#pragma omp parallel num_threads(n)
      for (int j = 0; j < kInner; ++j) {
        delay(kDelay);
#pragma omp barrier
      }
      break;
    case 5:
#pragma omp parallel num_threads(n)
      for (int j = 0; j < kInner; ++j) {
#pragma omp single
        delay(kDelay);
      }
      break;
    case 6: {
      long sum = 0;
      const int per_thread = kInner / n + 1;
#pragma omp parallel num_threads(n)
      for (int j = 0; j < per_thread; ++j) {
#pragma omp critical
        {
          delay(kDelay);
          ++sum;
        }
      }
      if (sum != static_cast<long>(per_thread) * n) g_ok = false;
      break;
    }
    case 7:
      for (int j = 0; j < kInner; ++j) {
        long total = 0;
#pragma omp parallel num_threads(n) reduction(+ : total)
        {
          delay(kDelay);
          total += omp_get_thread_num() + 1;
        }
        if (total != static_cast<long>(n) * (n + 1) / 2) g_ok = false;
      }
      break;
  }
  return now_s() - t0;
}

bool verify_loops(int n) {
  const int iters = 8 * n;
  std::vector<int> hits(static_cast<std::size_t>(iters), 0);
#pragma omp parallel num_threads(n)
  {
#pragma omp for schedule(dynamic, 1)
    for (int i = 0; i < iters; ++i) {
#pragma omp atomic
      ++hits[static_cast<std::size_t>(i)];
    }
  }
  return std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; });
}

double reference_s() {
  delay(kDelay);
  double best = 1e30;
  for (int r = 0; r < 3; ++r) {
    const double t0 = now_s();
    for (int j = 0; j < kInner; ++j) delay(kDelay);
    best = std::min(best, now_s() - t0);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 0;
  unsigned long seed = 1;
  double seconds = 2;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      threads = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoul(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::strtod(argv[i + 1], nullptr);
    }
  }
  if (threads < 1 || !(seconds > 0)) {
    std::fprintf(stderr,
                 "usage: libgomp_twin --threads N --seed S --seconds T\n");
    return 2;
  }

  const double ref_us = reference_s() / kInner * 1e6;
  std::array<std::vector<double>, kNames.size()> samples;
  std::array<int, kNames.size()> order{};
  for (int i = 0; i < static_cast<int>(order.size()); ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  const double deadline = now_s() + seconds;
  for (int round = 0; round < 3 || now_s() < deadline; ++round) {
    std::shuffle(order.begin(), order.end(), rng);
    for (int d : order) {
      (void)one_rep(d, threads);  // warm-up rep, as syncbench does
      samples[d].push_back(one_rep(d, threads) / kInner * 1e6 - ref_us);
    }
  }
  g_ok = g_ok && verify_loops(threads);

  std::vector<double> lock_ns;
  omp_lock_t lock;
  omp_init_lock(&lock);
  for (int b = 0; b < 15; ++b) {
    constexpr int kPairs = 20000;
    const double t0 = now_s();
    for (int i = 0; i < kPairs; ++i) {
      omp_set_lock(&lock);
      omp_unset_lock(&lock);
    }
    lock_ns.push_back((now_s() - t0) / kPairs * 1e9);
  }
  omp_destroy_lock(&lock);

  std::printf("{\"threads\": %d, \"verified\": %s, \"overhead_us\": {",
              threads, g_ok ? "true" : "false");
  for (std::size_t d = 0; d < kNames.size(); ++d) {
    std::printf("%s\"%s\": [", d ? ", " : "", kNames[d]);
    for (std::size_t j = 0; j < samples[d].size(); ++j) {
      std::printf("%s%.9g", j ? ", " : "", samples[d][j]);
    }
    std::printf("]");
  }
  std::printf("}, \"omp_lock_ns\": [");
  for (std::size_t j = 0; j < lock_ns.size(); ++j) {
    std::printf("%s%.9g", j ? ", " : "", lock_ns[j]);
  }
  std::printf("]}\n");
  return g_ok ? 0 : 1;
}
