// taskbench: overheads of the work-stealing explicit-task subsystem.
//
// Four shapes, each verified against a serial reference before its timing
// is trusted:
//
//   task_spawn_steal   one producer, kTasks trivial tasks, an 8-thread team
//                      draining them at the implicit barrier — the pure
//                      spawn + steal + run path.  Reported per task.
//   loop_chunk_steal   the same bodies through the loop scheduler's
//                      work-stealing dynamic schedule (chunk=1) — the
//                      yardstick the deques are expected to sit within a
//                      band of (both paths pay one steal per unit).
//   fib                recursive fib with a taskwait per node: deep
//                      parent/child chains, owner-LIFO locality.
//   quicksort          task-parallel quicksort with a serial cutoff:
//                      irregular recursive fan-out.
//   spmv_taskgraph     a banded-SpMV sweep pipeline driven purely by
//                      depend clauses (block b of sweep s reads blocks
//                      b-1,b,b+1 of sweep s-1): the dependence table and
//                      release path under load.
//
// --quick shrinks reps for CI smoke runs; --json emits a machine-readable
// artifact (the "overheads" map diffs with bench/diff_artifacts.py against
// bench/artifacts/taskbench_ref.json) with the runtime's task telemetry —
// gomp.task_stolen and its local/remote split witness the cluster-first
// victim order — plus PASS/FAIL shape checks mirroring table1's.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "gomp/runtime.hpp"
#include "obs/telemetry.hpp"

namespace {

using ompmca::monotonic_nanos;
namespace gomp = ompmca::gomp;
namespace obs = ompmca::obs;

// EPCC-style delay: enough work that a task body is measurable, little
// enough that overhead dominates.
void delay(int length) {
  volatile double sink = 0.0;
  for (int i = 0; i < length; ++i) sink = sink + i * 0.5;
  (void)sink;
}

struct Cell {
  double overhead_us = 0.0;  // per task (or per chunk)
  double mean_ms = 0.0;      // whole timed section, mean over reps
  long units = 0;            // tasks/chunks the overhead is normalised by
  bool verified = true;
};

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// --- task_spawn_steal vs loop_chunk_steal ------------------------------------

constexpr int kDelay = 64;

Cell bench_spawn_steal(gomp::Runtime& rt, long ntasks, int reps) {
  std::vector<double> ms;
  std::atomic<long> ran{0};
  for (int r = 0; r <= reps; ++r) {
    ran.store(0);
    const std::uint64_t t0 = monotonic_nanos();
    rt.parallel([&](gomp::ParallelContext& ctx) {
      ctx.single([&] {
        for (long i = 0; i < ntasks; ++i) {
          ctx.task([&ran] {
            delay(kDelay);
            ran.fetch_add(1, std::memory_order_relaxed);
          });
        }
      }, /*nowait=*/true);
      // Everyone else drains at the implicit barrier (stealing).
    });
    if (r > 0) ms.push_back((monotonic_nanos() - t0) * 1e-6);  // warmup off
  }
  // Serial reference: the same bodies, no runtime.
  const std::uint64_t s0 = monotonic_nanos();
  for (long i = 0; i < ntasks; ++i) delay(kDelay);
  const double serial_ms = (monotonic_nanos() - s0) * 1e-6;
  Cell c;
  c.mean_ms = mean(ms);
  c.units = ntasks;
  c.overhead_us = (c.mean_ms - serial_ms) * 1e3 / static_cast<double>(ntasks);
  c.verified = ran.load() == ntasks;
  return c;
}

Cell bench_loop_chunk(gomp::Runtime& rt, long nchunks, int reps) {
  std::vector<double> ms;
  std::atomic<long> ran{0};
  gomp::ScheduleSpec spec;
  spec.kind = gomp::Schedule::kDynamic;
  spec.chunk = 1;
  for (int r = 0; r <= reps; ++r) {
    ran.store(0);
    const std::uint64_t t0 = monotonic_nanos();
    rt.parallel([&](gomp::ParallelContext& ctx) {
      ctx.for_loop(0, nchunks,
                   [&](long lo, long hi) {
                     for (long i = lo; i < hi; ++i) {
                       delay(kDelay);
                       ran.fetch_add(1, std::memory_order_relaxed);
                     }
                   },
                   spec);
    });
    if (r > 0) ms.push_back((monotonic_nanos() - t0) * 1e-6);
  }
  const std::uint64_t s0 = monotonic_nanos();
  for (long i = 0; i < nchunks; ++i) delay(kDelay);
  const double serial_ms = (monotonic_nanos() - s0) * 1e-6;
  Cell c;
  c.mean_ms = mean(ms);
  c.units = nchunks;
  c.overhead_us = (c.mean_ms - serial_ms) * 1e3 / static_cast<double>(nchunks);
  c.verified = ran.load() == nchunks;
  return c;
}

// --- recursive fib -----------------------------------------------------------

long fib_serial(int n) { return n < 2 ? n : fib_serial(n - 1) + fib_serial(n - 2); }

long fib_tasks(int n, std::atomic<long>* spawns) {
  gomp::ParallelContext& ctx = *gomp::Runtime::current();
  if (n < 2) return n;
  long a = 0, b = 0;
  spawns->fetch_add(1, std::memory_order_relaxed);
  ctx.task([&a, n, spawns] { a = fib_tasks(n - 1, spawns); });
  b = fib_tasks(n - 2, spawns);
  ctx.taskwait();
  return a + b;
}

Cell bench_fib(gomp::Runtime& rt, int n, int reps) {
  std::vector<double> ms;
  std::atomic<long> spawns{0};
  long result = 0;
  for (int r = 0; r <= reps; ++r) {
    spawns.store(0);
    const std::uint64_t t0 = monotonic_nanos();
    rt.parallel([&](gomp::ParallelContext& ctx) {
      ctx.single([&] { result = fib_tasks(n, &spawns); });
    });
    if (r > 0) ms.push_back((monotonic_nanos() - t0) * 1e-6);
  }
  const std::uint64_t s0 = monotonic_nanos();
  const long expect = fib_serial(n);
  const double serial_ms = (monotonic_nanos() - s0) * 1e-6;
  Cell c;
  c.mean_ms = mean(ms);
  c.units = spawns.load();
  c.overhead_us = (c.mean_ms - serial_ms) * 1e3 / static_cast<double>(c.units);
  c.verified = result == expect;
  return c;
}

// --- task quicksort ----------------------------------------------------------

constexpr long kSortCutoff = 2048;

void quicksort_tasks(int* lo, int* hi, std::atomic<long>* spawns) {
  while (hi - lo > kSortCutoff) {
    int* mid = lo + (hi - lo) / 2;
    // Median-of-three pivot, then partition.
    if (*mid < *lo) std::swap(*mid, *lo);
    if (*(hi - 1) < *lo) std::swap(*(hi - 1), *lo);
    if (*(hi - 1) < *mid) std::swap(*(hi - 1), *mid);
    const int pivot = *mid;
    int* cut = std::partition(lo, hi, [pivot](int x) { return x < pivot; });
    if (cut == lo || cut == hi) break;  // degenerate split: fall through
    gomp::ParallelContext& ctx = *gomp::Runtime::current();
    spawns->fetch_add(1, std::memory_order_relaxed);
    int* clo = lo;
    ctx.task([clo, cut, spawns] { quicksort_tasks(clo, cut, spawns); });
    lo = cut;  // iterate on the right half; the task owns the left
  }
  std::sort(lo, hi);
}

Cell bench_quicksort(gomp::Runtime& rt, long n, int reps) {
  std::mt19937 rng(12345);
  std::vector<int> base(static_cast<std::size_t>(n));
  for (int& x : base) x = static_cast<int>(rng());
  std::vector<int> expect = base;
  std::sort(expect.begin(), expect.end());

  std::vector<double> ms;
  std::atomic<long> spawns{0};
  bool ok = true;
  for (int r = 0; r <= reps; ++r) {
    std::vector<int> data = base;
    spawns.store(0);
    const std::uint64_t t0 = monotonic_nanos();
    rt.parallel([&](gomp::ParallelContext& ctx) {
      ctx.single([&] {
        quicksort_tasks(data.data(), data.data() + n, &spawns);
        // Subtree tasks spawn recursively; the implicit barrier would
        // cover them, but time the completion explicitly.
        ctx.taskwait();
      });
    });
    if (r > 0) ms.push_back((monotonic_nanos() - t0) * 1e-6);
    ok = ok && data == expect;
  }
  std::vector<int> data = base;
  const std::uint64_t s0 = monotonic_nanos();
  std::sort(data.begin(), data.end());
  const double serial_ms = (monotonic_nanos() - s0) * 1e-6;
  Cell c;
  c.mean_ms = mean(ms);
  c.units = std::max<long>(1, spawns.load());
  c.overhead_us = (c.mean_ms - serial_ms) * 1e3 / static_cast<double>(c.units);
  c.verified = ok;
  return c;
}

// --- dependence-driven banded SpMV sweeps ------------------------------------
//
// y_s[i] = 0.5*y_{s-1}[i] + 0.25*(y_{s-1}[i-1] + y_{s-1}[i+1]), blocked;
// block b of sweep s depends (in) on blocks b-1, b, b+1 of the previous
// sweep's buffer and writes (out) block b of the current one.  All
// ordering comes from the depend clauses — the single spawner never waits
// until the final taskwait.

void spmv_block(const std::vector<double>& x, std::vector<double>& y, long lo,
                long hi) {
  const long n = static_cast<long>(x.size());
  for (long i = lo; i < hi; ++i) {
    const double left = i > 0 ? x[static_cast<std::size_t>(i - 1)] : 0.0;
    const double right =
        i + 1 < n ? x[static_cast<std::size_t>(i + 1)] : 0.0;
    y[static_cast<std::size_t>(i)] =
        0.5 * x[static_cast<std::size_t>(i)] + 0.25 * (left + right);
  }
}

Cell bench_spmv_taskgraph(gomp::Runtime& rt, long n, long nblocks, int sweeps,
                          int reps) {
  std::vector<double> init(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    init[static_cast<std::size_t>(i)] = std::sin(0.01 * static_cast<double>(i));
  }
  // Serial reference.
  std::vector<double> ref = init, tmp(init.size());
  for (int s = 0; s < sweeps; ++s) {
    spmv_block(ref, tmp, 0, n);
    ref.swap(tmp);
  }

  const long bsz = (n + nblocks - 1) / nblocks;
  std::vector<double> ms;
  bool ok = true;
  std::vector<double> a, b;
  for (int r = 0; r <= reps; ++r) {
    a = init;
    b.assign(init.size(), 0.0);
    const std::uint64_t t0 = monotonic_nanos();
    rt.parallel([&](gomp::ParallelContext& ctx) {
      ctx.single([&] {
        std::vector<double>* src = &a;
        std::vector<double>* dst = &b;
        for (int s = 0; s < sweeps; ++s) {
          for (long blk = 0; blk < nblocks; ++blk) {
            const long lo = blk * bsz;
            const long hi = std::min<long>(n, lo + bsz);
            // Depend keys: one address per (buffer, block).
            auto key = [bsz](std::vector<double>* buf, long blok) {
              return static_cast<const void*>(buf->data() + blok * bsz);
            };
            std::initializer_list<const void*> ins = {
                key(src, blk > 0 ? blk - 1 : blk), key(src, blk),
                key(src, blk + 1 < nblocks ? blk + 1 : blk)};
            ctx.task_depend(
                [src, dst, lo, hi] { spmv_block(*src, *dst, lo, hi); }, ins,
                {key(dst, blk)});
          }
          std::swap(src, dst);
        }
        ctx.taskwait();
      });
    });
    if (r > 0) ms.push_back((monotonic_nanos() - t0) * 1e-6);
    const std::vector<double>& out = (sweeps % 2 == 0) ? a : b;
    double max_err = 0.0;
    for (long i = 0; i < n; ++i) {
      max_err = std::max(max_err, std::fabs(out[static_cast<std::size_t>(i)] -
                                            ref[static_cast<std::size_t>(i)]));
    }
    ok = ok && max_err < 1e-12;
  }
  // Serial timing of the same sweeps.
  std::vector<double> sx = init, sy(init.size());
  const std::uint64_t s0 = monotonic_nanos();
  for (int s = 0; s < sweeps; ++s) {
    spmv_block(sx, sy, 0, n);
    sx.swap(sy);
  }
  const double serial_ms = (monotonic_nanos() - s0) * 1e-6;
  Cell c;
  c.mean_ms = mean(ms);
  c.units = static_cast<long>(nblocks) * sweeps;
  c.overhead_us = (c.mean_ms - serial_ms) * 1e3 / static_cast<double>(c.units);
  c.verified = ok;
  return c;
}

// --- driver ------------------------------------------------------------------

struct Check {
  const char* name;
  bool ok;
  std::string detail;
};

void print_json(const std::vector<std::pair<std::string, Cell>>& cells,
                const std::vector<Check>& checks, bool all_ok,
                unsigned nthreads) {
  std::printf("{\n  \"bench\": \"taskbench\",\n  \"nthreads\": %u,\n",
              nthreads);
  std::printf("  \"_meta\": {\"method\": \"per-task overhead = (parallel mean "
              "- serial reference) / tasks; 8-thread MCA-backend runtime, "
              "mean over post-warmup reps\"},\n");
  std::printf("  \"overheads\": {\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& [name, c] = cells[i];
    std::printf("    \"%s\": {\"overhead_us\": %.4f, \"mean_ms\": %.4f, "
                "\"units\": %ld, \"verified\": %s}%s\n",
                name.c_str(), c.overhead_us, c.mean_ms, c.units,
                c.verified ? "true" : "false",
                i + 1 < cells.size() ? "," : "");
  }
  std::printf("  },\n  \"checks\": [\n");
  for (std::size_t i = 0; i < checks.size(); ++i) {
    std::printf("    {\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}%s\n",
                checks[i].name, checks[i].ok ? "true" : "false",
                checks[i].detail.c_str(), i + 1 < checks.size() ? "," : "");
  }
  std::printf("  ],\n  \"pass\": %s,\n", all_ok ? "true" : "false");
  std::printf("  \"telemetry\": %s\n}\n",
              obs::Registry::instance().json("taskbench").c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  // The artifact always carries the telemetry section (the steal counters
  // are part of the bench's evidence), independent of OMPMCA_TELEMETRY.
  obs::set_enabled(true);
  obs::Registry::instance().reset();

  const int reps = quick ? 2 : 5;
  const long ntasks = quick ? 500 : 2000;
  constexpr unsigned kThreads = 8;

  gomp::RuntimeOptions opts;
  opts.backend = gomp::BackendKind::kMca;
  gomp::Icvs icvs;
  icvs.num_threads = kThreads;
  opts.icvs = icvs;
  gomp::Runtime rt(opts);

  std::vector<std::pair<std::string, Cell>> cells;
  cells.emplace_back("taskbench.task_spawn_steal@8",
                     bench_spawn_steal(rt, ntasks, reps));
  cells.emplace_back("taskbench.loop_chunk_steal@8",
                     bench_loop_chunk(rt, ntasks, reps));
  cells.emplace_back("taskbench.fib@8", bench_fib(rt, quick ? 14 : 17, reps));
  cells.emplace_back("taskbench.quicksort@8",
                     bench_quicksort(rt, quick ? 40000 : 200000, reps));
  cells.emplace_back("taskbench.spmv_taskgraph@8",
                     bench_spmv_taskgraph(rt, quick ? 4096 : 16384, 16,
                                          quick ? 4 : 8, reps));

  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  const std::uint64_t stolen = snap.counter(obs::Counter::kGompTaskStolen);
  const std::uint64_t spawned =
      snap.counter(obs::Counter::kGompTaskSpawned);

  std::vector<Check> checks;
  bool verified = true;
  for (const auto& [name, c] : cells) verified = verified && c.verified;
  checks.push_back({"results", verified, "all workloads verified"});
  checks.push_back({"tasks_spawned", spawned > 0,
                    "gomp.task_spawned=" + std::to_string(spawned)});
  checks.push_back({"steals_observed", stolen > 0,
                    "gomp.task_stolen=" + std::to_string(stolen)});
  // The acceptance band: a deque spawn+steal+run round trip should sit
  // within an order of magnitude of the loop scheduler's chunk steal (both
  // pay one steal per unit of work).  Wide band: this host is 1-core and
  // heavily oversubscribed, so wall-clock noise dominates tight bounds.
  const double spawn_us = cells[0].second.overhead_us;
  const double chunk_us = std::max(1e-3, cells[1].second.overhead_us);
  const double ratio = spawn_us / chunk_us;
  checks.push_back({"spawn_within_band_of_chunk_steal",
                    ratio > 1.0 / 32 && ratio < 32,
                    "ratio=" + std::to_string(ratio)});

  bool all_ok = true;
  for (const Check& c : checks) all_ok = all_ok && c.ok;

  if (json) {
    print_json(cells, checks, all_ok, kThreads);
  } else {
    std::printf("taskbench (%u threads, %s)\n", kThreads,
                quick ? "quick" : "full");
    std::printf("  %-32s %12s %10s %8s\n", "workload", "overhead_us",
                "mean_ms", "units");
    for (const auto& [name, c] : cells) {
      std::printf("  %-32s %12.3f %10.2f %8ld%s\n", name.c_str(),
                  c.overhead_us, c.mean_ms, c.units,
                  c.verified ? "" : "  [VERIFY FAILED]");
    }
    std::printf("\n");
    for (const Check& c : checks) {
      std::printf("  [%s] %-32s %s\n", c.ok ? "PASS" : "FAIL", c.name,
                  c.detail.c_str());
    }
    std::printf("\noverall: %s\n", all_ok ? "PASS" : "FAIL");
  }
  obs::Registry::instance().maybe_write_report("taskbench");
  return all_ok ? 0 : 1;
}
