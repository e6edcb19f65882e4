// perfbench: the layered benchmark's measuring program.
//
// Times calls into the public functions of each layer of the runtime, from
// outside it, on the MCA backend at its default configuration.  The only
// override is the team width, passed through the API: the host's processor
// count (nproc), because the default nthreads-var follows the modeled
// board, not the host.
//
//   L0 mrapi  mutex, shmem and node cycles (traced run)
//   L1 gomp   pool dispatch, barrier, reduction, workshare, critical, and
//             the fork/join phases recovered from the tracer's events
//   L2 epcc   EPCC syncbench constructs (Bull's method, delay 64)
//   L3 npb    NPB CG, MG, FT, IS, EP at class W
//
// Workloads (one process, at most nproc threads counting masters and
// workers):
//   epcc     one master at width nproc; the eight EPCC directives
//            interleaved in seed-shuffled order over many outer reps
//   tenants  a closed loop of 2 masters sharing one runtime, each forking
//            fixed batches of width nproc/2 regions with a delay(32) body
//   npb      the five kernels at width nproc, seed-shuffled per round
//   epcc and tenants run in 1 s epochs, each on a freshly set-up runtime.
//   With --trace the process runs the whole layered suite instead and
//   reports the per-layer numbers (run it under OMPMCA_TRACE=ring).
//
// Every operation is verified; failures are counted, not hidden.  Output is
// one JSON document on stdout: config, attempted/failed counts, every metric
// with all of its samples, and (traced) the benchmark's own layer spans.
// perfbench/run.py turns that into the artifact and the result line.
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "epcc/syncbench.hpp"
#include "gomp/runtime.hpp"
#include "mrapi/node.hpp"
#include "npb/npb.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace {

namespace gomp = ompmca::gomp;
namespace epcc = ompmca::epcc;
namespace npb = ompmca::npb;
namespace obs = ompmca::obs;
namespace mrapi = ompmca::mrapi;
using ompmca::monotonic_nanos;
using ompmca::monotonic_seconds;

constexpr int kEpccDelay = 64;       // Bull's delay length for every workload
constexpr int kEpccInner = 64;       // constructs per EPCC outer rep
constexpr int kTenantDelay = 32;     // tenants' region body
constexpr int kTenantMasters = 2;
constexpr long kTenantBatch = 2000;  // regions per master per batch
constexpr int kSetupReps = 201;      // runtime set-ups before measuring
constexpr double kEpochSeconds = 1.0;  // fresh runtime + masters per epoch
constexpr int kMinEpochs = 3;
constexpr int kNpbMinRounds = 3;     // kernel rounds even on short runs
constexpr mrapi::DomainId kBenchDomain = 9;  // clear of the runtime's domain

// ---------------------------------------------------------------------------
// Report: metrics with samples, verification counts, the benchmark's spans.

struct Metric {
  std::string name;
  std::string layer;
  std::string unit;
  std::string better;
  std::vector<double> samples;
};

struct SpanRecord {
  std::string name;
  std::string layer;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
};

class Report {
 public:
  void add(std::string name, std::string layer, std::string unit,
           std::string better, std::vector<double> samples) {
    std::vector<double> finite;
    for (double v : samples) {
      if (std::isfinite(v)) finite.push_back(v);
    }
    if (finite.empty()) {
      fail("metric " + name + " has no finite sample");
      return;
    }
    metrics_.push_back({std::move(name), std::move(layer), std::move(unit),
                        std::move(better), std::move(finite)});
  }
  void add1(std::string name, std::string layer, std::string unit,
            std::string better, double value) {
    add(std::move(name), std::move(layer), std::move(unit), std::move(better),
        {value});
  }

  /// One verified operation.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) fail(what);
  }
  /// @p n verified operations of which @p bad failed.
  void checks(long n, long bad, const std::string& what) {
    attempted_ += n;
    failed_ += bad;
    if (bad > 0) note(what);
  }

  // Spans around layer calls (main thread only; nested by a stack).
  int open_span(std::string name, std::string layer) {
    spans_.push_back({std::move(name), std::move(layer), monotonic_nanos(), 0,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close_span(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = monotonic_nanos();
    stack_.pop_back();
  }

  void set_config(const std::string& key, const std::string& json_value) {
    config_[key] = json_value;
  }

  long failed() const { return failed_; }

  void print(const char* workload, std::uint64_t seed, bool traced) const;

 private:
  void fail(const std::string& what) {
    ++failed_;
    note(what);
  }
  void note(const std::string& what) {
    if (failures_.size() < 20) failures_.push_back(what);
  }

  std::vector<Metric> metrics_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  std::map<std::string, std::string> config_;
  std::vector<std::string> failures_;
  long attempted_ = 0;
  long failed_ = 0;
};

/// RAII span around one layer call: two clock reads, recorded in every run
/// and written to the artifact.
class LayerSpan {
 public:
  LayerSpan(Report& rep, std::string name, std::string layer)
      : rep_(rep), id_(rep.open_span(std::move(name), std::move(layer))) {}
  ~LayerSpan() { rep_.close_span(id_); }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  Report& rep_;
  int id_;
};

/// JSON string literal for @p s (control characters dropped).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void Report::print(const char* workload, std::uint64_t seed,
                   bool traced) const {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s,\n",
              workload, static_cast<unsigned long long>(seed),
              traced ? "true" : "false");
  std::printf(" \"config\": {");
  bool first = true;
  for (const auto& [k, v] : config_) {
    std::printf("%s\"%s\": %s", first ? "" : ", ", k.c_str(), v.c_str());
    first = false;
  }
  std::printf("},\n \"attempted\": %ld, \"failed\": %ld,\n \"failures\": [",
              attempted_, failed_);
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", quoted(failures_[i]).c_str());
  }
  std::printf("],\n \"metrics\": [\n");
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf(
        "  {\"name\": \"%s\", \"layer\": \"%s\", \"unit\": \"%s\", "
        "\"better\": \"%s\", \"samples\": [",
        m.name.c_str(), m.layer.c_str(), m.unit.c_str(), m.better.c_str());
    for (std::size_t j = 0; j < m.samples.size(); ++j) {
      std::printf("%s%.9g", j ? ", " : "", m.samples[j]);
    }
    std::printf("]}%s\n", i + 1 < metrics_.size() ? "," : "");
  }
  std::printf(" ],\n \"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::printf(
        "  {\"name\": \"%s\", \"layer\": \"%s\", \"begin_ns\": %llu, "
        "\"end_ns\": %llu, \"parent\": %d}%s\n",
        s.name.c_str(), s.layer.c_str(),
        static_cast<unsigned long long>(s.begin_ns),
        static_cast<unsigned long long>(s.end_ns), s.parent,
        i + 1 < spans_.size() ? "," : "");
  }
  std::printf(" ]\n}\n");
}

// ---------------------------------------------------------------------------
// Helpers.

unsigned host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Exact q-quantile (nearest rank) of @p v; reorders @p v.
double quantile(std::vector<double>& v, double q) {
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

void delay(int length) { epcc::Syncbench::delay(length); }

/// Runs @p fn in batches until @p batches samples of (seconds per call)
/// are collected; each sample times @p per_batch calls.
template <typename Fn>
std::vector<double> per_call_seconds(int batches, long per_batch, Fn&& fn) {
  std::vector<double> out;
  fn();  // warm
  for (int b = 0; b < batches; ++b) {
    const double t0 = monotonic_seconds();
    for (long i = 0; i < per_batch; ++i) fn();
    out.push_back((monotonic_seconds() - t0) / static_cast<double>(per_batch));
  }
  return out;
}

std::vector<double> scaled(std::vector<double> v, double k) {
  for (double& x : v) x *= k;
  return v;
}

const char* slug(epcc::Directive d) {
  switch (d) {
    case epcc::Directive::kParallel: return "parallel";
    case epcc::Directive::kFor: return "for";
    case epcc::Directive::kForDynamic: return "for_dynamic";
    case epcc::Directive::kParallelFor: return "parallel_for";
    case epcc::Directive::kBarrier: return "barrier";
    case epcc::Directive::kSingle: return "single";
    case epcc::Directive::kCritical: return "critical";
    case epcc::Directive::kReduction: return "reduction";
  }
  return "?";
}

std::string epcc_metric(epcc::Directive d) {
  return std::string("epcc.") + slug(d) + "_us";
}

/// Adds the end-to-end op_p50_us: the geometric mean over the workload's
/// operation kinds of each kind's median time (samples in µs), so every
/// kind weighs the same whatever its magnitude.
void add_op_metric(Report& rep,
                   const std::vector<std::vector<double>>& kinds) {
  double log_sum = 0;
  for (const auto& k : kinds) log_sum += std::log(median(k));
  rep.add1("op_p50_us", "bench", "us", "lower",
           std::exp(log_sum / static_cast<double>(kinds.size())));
}

// ---------------------------------------------------------------------------
// Runtime set-up: construction, MRAPI node launch (the pool launches its
// workers as MRAPI nodes on the first region) and one warm-up region.

std::unique_ptr<gomp::Runtime> make_runtime(gomp::BackendKind backend) {
  gomp::RuntimeOptions opts;
  opts.backend = backend;
  return std::make_unique<gomp::Runtime>(std::move(opts));
}

/// One timed set-up; appends its duration to @p setup_s.
std::unique_ptr<gomp::Runtime> set_up(unsigned width, Report& rep,
                                      std::vector<double>& setup_s) {
  const double t0 = monotonic_seconds();
  auto rt = make_runtime(gomp::BackendKind::kMca);
  std::atomic<unsigned> ran{0};
  rt->parallel(
      [&](gomp::ParallelContext&) {
        delay(kEpccDelay);
        ran.fetch_add(1, std::memory_order_relaxed);
      },
      width);
  setup_s.push_back(monotonic_seconds() - t0);
  rep.check(ran.load() == width, "warm-up region ran " +
                                     std::to_string(ran.load()) + " of " +
                                     std::to_string(width));
  return rt;
}

/// Runs @p epoch(runtime, seconds) on a fresh runtime per epoch of
/// kEpochSeconds until @p seconds have passed (at least kMinEpochs).  Each
/// epoch's workers are new threads, so one run samples many OS thread
/// placements instead of whichever one it happened to start with.  Epoch
/// set-ups land in @p setup_s; they follow a busy runtime's teardown and
/// run slower than the back-to-back set-ups at process start, so they are
/// kept apart from setup_s.  Returns the most pool workers any epoch
/// launched.
template <typename Fn>
unsigned in_epochs(unsigned width, double seconds, Report& rep,
                   std::vector<double>& setup_s, Fn&& epoch) {
  unsigned launched = 0;
  const double deadline = monotonic_seconds() + seconds;
  for (int n = 0; n < kMinEpochs || monotonic_seconds() < deadline; ++n) {
    auto rt = set_up(width, rep, setup_s);
    epoch(*rt, std::clamp(deadline - monotonic_seconds(), 0.0, kEpochSeconds));
    launched = std::max(launched, rt->pool().workers_launched());
  }
  return launched;
}

const char* wait_policy_name(gomp::WaitPolicy p) {
  return p == gomp::WaitPolicy::kActive ? "active" : "passive";
}

void record_config(gomp::Runtime& rt, unsigned width, Report& rep) {
  gomp::BarrierKind kind = gomp::BarrierKind::kAuto;
  rt.parallel(
      [&](gomp::ParallelContext& c) {
        if (c.thread_num() == 0) kind = c.team().barrier_kind();
      },
      width);
  rep.set_config("backend", quoted(std::string(rt.backend().name())));
  rep.set_config("width", std::to_string(width));
  rep.set_config("nproc", std::to_string(host_nproc()));
  rep.set_config("wait_policy",
                 quoted(wait_policy_name(rt.icvs().wait_policy)));
  rep.set_config("barrier_kind",
                 quoted(std::string(gomp::to_string(kind))));
  rep.set_config("modeled_topology", quoted(rt.topology().name()));
  rep.set_config("default_max_threads", std::to_string(rt.max_threads()));
}

// ---------------------------------------------------------------------------
// L2: EPCC directives, each followed by a verification probe of the same
// construct on the same runtime and width.

bool verify_directive(gomp::Runtime& rt, epcc::Directive d, unsigned w) {
  using D = epcc::Directive;
  switch (d) {
    case D::kParallel: {
      std::atomic<unsigned> ran{0};
      std::atomic<unsigned> width{0};
      rt.parallel(
          [&](gomp::ParallelContext& c) {
            ran.fetch_add(1);
            if (c.thread_num() == 0) width = c.num_threads();
          },
          w);
      return ran == w && width == w;
    }
    case D::kFor:
    case D::kForDynamic:
    case D::kParallelFor: {
      const long iters = 8L * w;
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(iters));
      auto body = [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      };
      const gomp::ScheduleSpec spec =
          d == D::kForDynamic
              ? gomp::ScheduleSpec{gomp::Schedule::kDynamic, 1}
              : gomp::ScheduleSpec{};
      if (d == D::kParallelFor) {
        rt.parallel_for(0, iters, body, spec, w);
      } else {
        rt.parallel(
            [&](gomp::ParallelContext& c) { c.for_loop(0, iters, body, spec); },
            w);
      }
      for (const auto& h : hits) {
        if (h.load() != 1) return false;
      }
      return true;
    }
    case D::kBarrier: {
      std::vector<std::atomic<unsigned>> phase(w);
      std::atomic<bool> ok{true};
      rt.parallel(
          [&](gomp::ParallelContext& c) {
            for (unsigned p = 1; p <= 4; ++p) {
              phase[c.thread_num()].store(p);
              c.barrier();
              for (const auto& q : phase) {
                if (q.load() < p) ok = false;
              }
            }
          },
          w);
      return ok;
    }
    case D::kSingle: {
      constexpr unsigned kSingles = 8;
      std::atomic<unsigned> winners{0};
      rt.parallel(
          [&](gomp::ParallelContext& c) {
            for (unsigned j = 0; j < kSingles; ++j) {
              c.single([&] { winners.fetch_add(1); });
            }
          },
          w);
      return winners == kSingles;
    }
    case D::kCritical: {
      constexpr long kPerThread = 16;
      long sum = 0;  // guarded by the critical section under test
      rt.parallel(
          [&](gomp::ParallelContext& c) {
            for (long j = 0; j < kPerThread; ++j) c.critical([&] { ++sum; });
          },
          w);
      return sum == kPerThread * static_cast<long>(w);
    }
    case D::kReduction: {
      const long expected = static_cast<long>(w) * (w + 1) / 2;
      std::atomic<unsigned> good{0};
      rt.parallel(
          [&](gomp::ParallelContext& c) {
            const long v = c.reduce_sum<long>(c.thread_num() + 1);
            if (v == expected) good.fetch_add(1);
          },
          w);
      return good == w;
    }
  }
  return false;
}

/// EPCC overhead samples (µs per construct), directive index -> samples.
using EpccSamples = std::array<std::vector<double>, epcc::kAllDirectives.size()>;

/// Interleaves the eight directives in seed-shuffled order until
/// @p seconds have passed (at least @p min_rounds rounds).
void epcc_rounds(gomp::Runtime& rt, unsigned w, double seconds,
                 int min_rounds, std::mt19937_64& rng, Report& rep,
                 EpccSamples& out) {
  epcc::SyncbenchOptions o;
  o.outer_reps = 1;
  o.inner_reps = kEpccInner;
  o.delay_length = kEpccDelay;
  epcc::Syncbench sb(&rt, o);
  std::array<std::size_t, epcc::kAllDirectives.size()> order{};
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const double deadline = monotonic_seconds() + seconds;
  for (int round = 0; round < min_rounds || monotonic_seconds() < deadline;
       ++round) {
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t i : order) {
      const epcc::Directive d = epcc::kAllDirectives[i];
      const epcc::Measurement m = sb.measure(d, w);
      out[i].push_back(m.overhead_us);
      rep.check(verify_directive(rt, d, w),
                std::string("epcc ") + slug(d) + " verification");
    }
  }
}

unsigned run_epcc(unsigned w, double seconds, std::mt19937_64& rng,
                  Report& rep, std::vector<double>& setup_s) {
  EpccSamples s;
  unsigned launched = 0;
  {
    LayerSpan span(rep, "epcc.syncbench", "epcc");
    launched = in_epochs(w, seconds, rep, setup_s,
                         [&](gomp::Runtime& rt, double epoch_s) {
                           epcc_rounds(rt, w, epoch_s, 1, rng, rep, s);
                         });
  }
  for (std::size_t i = 0; i < s.size(); ++i) {
    rep.add(epcc_metric(epcc::kAllDirectives[i]), "epcc", "us", "lower", s[i]);
  }
  add_op_metric(rep, {s.begin(), s.end()});
  return launched;
}

// ---------------------------------------------------------------------------
// tenants: 2 masters, closed loop, one shared runtime.

struct TenantStats {
  std::vector<double> p50_us, p99_us, rps;
  std::vector<double> latency_us;  // every region of every batch
  std::uint64_t regions = 0;
};

void add_tenant_metrics(Report& rep, const TenantStats& st) {
  rep.add("tenants.region_p50_us", "gomp", "us", "lower", st.p50_us);
  rep.add("tenants.region_p99_us", "gomp", "us", "lower", st.p99_us);
  rep.add("tenants.regions_per_s", "gomp", "1/s", "higher", st.rps);
}

/// Runs batches of kTenantBatch regions per master until @p seconds have
/// passed (or exactly @p fixed_batches batches when nonzero).
TenantStats run_tenant_batches(gomp::Runtime& rt, unsigned width,
                               double seconds, int fixed_batches,
                               Report& rep) {
  std::barrier sync(kTenantMasters + 1);
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> lat(
      kTenantMasters, std::vector<double>(static_cast<std::size_t>(kTenantBatch)));
  std::array<long, kTenantMasters> bad{};
  std::vector<std::thread> masters;
  for (int m = 0; m < kTenantMasters; ++m) {
    masters.emplace_back([&, m] {
      for (;;) {
        sync.arrive_and_wait();  // batch start
        if (stop.load()) return;
        for (long i = 0; i < kTenantBatch; ++i) {
          std::atomic<unsigned> ran{0};
          const std::uint64_t t0 = monotonic_nanos();
          rt.parallel(
              [&](gomp::ParallelContext&) {
                delay(kTenantDelay);
                ran.fetch_add(1, std::memory_order_relaxed);
              },
              width);
          lat[static_cast<std::size_t>(m)][static_cast<std::size_t>(i)] =
              static_cast<double>(monotonic_nanos() - t0) * 1e-3;
          if (ran.load() != width) ++bad[static_cast<std::size_t>(m)];
        }
        sync.arrive_and_wait();  // batch end
      }
    });
  }
  TenantStats st;
  const double deadline = monotonic_seconds() + seconds;
  for (int b = 0; fixed_batches > 0 ? b < fixed_batches
                                    : (b < 3 || monotonic_seconds() < deadline);
       ++b) {
    bad.fill(0);
    sync.arrive_and_wait();
    const double t0 = monotonic_seconds();
    sync.arrive_and_wait();
    const double wall = monotonic_seconds() - t0;
    std::vector<double> all;
    all.reserve(static_cast<std::size_t>(kTenantMasters * kTenantBatch));
    for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    st.latency_us.insert(st.latency_us.end(), all.begin(), all.end());
    const long regions = kTenantMasters * kTenantBatch;
    st.regions += static_cast<std::uint64_t>(regions);
    st.rps.push_back(static_cast<double>(regions) / wall);
    st.p50_us.push_back(quantile(all, 0.50));
    st.p99_us.push_back(quantile(all, 0.99));
    long nbad = 0;
    for (long x : bad) nbad += x;
    rep.checks(regions, nbad, "tenants: region ran != width");
  }
  stop = true;
  sync.arrive_and_wait();
  for (auto& t : masters) t.join();
  return st;
}

unsigned tenant_width(unsigned nproc) {
  return std::max(1u, nproc / kTenantMasters);
}

unsigned run_tenants(unsigned nproc, double seconds, Report& rep,
                     std::vector<double>& setup_s) {
  TenantStats st;
  unsigned launched = 0;
  {
    LayerSpan span(rep, "gomp.tenants", "gomp");
    launched = in_epochs(
        nproc, seconds, rep, setup_s, [&](gomp::Runtime& rt, double epoch_s) {
          TenantStats e =
              run_tenant_batches(rt, tenant_width(nproc), epoch_s, 0, rep);
          st.p50_us.insert(st.p50_us.end(), e.p50_us.begin(), e.p50_us.end());
          st.p99_us.insert(st.p99_us.end(), e.p99_us.begin(), e.p99_us.end());
          st.rps.insert(st.rps.end(), e.rps.begin(), e.rps.end());
          st.latency_us.insert(st.latency_us.end(), e.latency_us.begin(),
                               e.latency_us.end());
        });
  }
  add_tenant_metrics(rep, st);
  add_op_metric(rep, {std::move(st.latency_us)});
  return launched;
}

// ---------------------------------------------------------------------------
// L3: NPB kernels at class W.

struct KernelRun {
  double timed_s = 0;  // the kernel's own timed section
  double wall_s = 0;   // set-up (input generation) + timed section
  bool verified = false;
  std::string detail;
};

struct Kernel {
  const char* name;
  std::function<KernelRun(gomp::Runtime&, unsigned)> run;
  double mop;  // operations in the timed section, millions (NPB formulas)
};

template <typename R>
KernelRun kernel_run(double t0, const R& r) {
  return {r.seconds, monotonic_seconds() - t0, r.verify.verified,
          r.verify.detail};
}

std::vector<Kernel> npb_kernels() {
  constexpr npb::Class W = npb::Class::W;
  const npb::CgParams cg = npb::CgParams::for_class(W);
  const npb::MgParams mg = npb::MgParams::for_class(W);
  const npb::FtParams ft = npb::FtParams::for_class(W);
  const npb::IsParams is = npb::IsParams::for_class(W);
  const npb::EpParams ep = npb::EpParams::for_class(W);
  const double nzz = static_cast<double>(cg.nonzer) * (cg.nonzer + 1);
  const double ftn = static_cast<double>(ft.ntotal());
  const double mgn = std::pow(static_cast<double>(mg.nx), 3);
  return {
      {"cg",
       [](gomp::Runtime& rt, unsigned n) {
         const double t0 = monotonic_seconds();
         return kernel_run(t0, npb::run_cg(rt, W, n));
       },
       2.0 * cg.niter * cg.na * (3.0 + nzz + 25.0 * (5.0 + nzz) + 3.0) * 1e-6},
      {"mg",
       [](gomp::Runtime& rt, unsigned n) {
         const double t0 = monotonic_seconds();
         return kernel_run(t0, npb::run_mg(rt, W, n));
       },
       58.0 * mg.nit * mgn * 1e-6},
      {"ft",
       [](gomp::Runtime& rt, unsigned n) {
         const double t0 = monotonic_seconds();
         return kernel_run(t0, npb::run_ft(rt, W, n));
       },
       ftn * (14.8157 + 7.19641 * std::log(ftn) +
              (5.23518 + 7.21113 * std::log(ftn)) * ft.niter) *
           1e-6},
      {"is",
       [](gomp::Runtime& rt, unsigned n) {
         const double t0 = monotonic_seconds();
         return kernel_run(t0, npb::run_is(rt, W, n));
       },
       static_cast<double>(is.iterations) * static_cast<double>(is.num_keys()) *
           1e-6},
      {"ep",
       [](gomp::Runtime& rt, unsigned n) {
         const double t0 = monotonic_seconds();
         return kernel_run(t0, npb::run_ep(rt, W, n));
       },
       std::ldexp(1.0, ep.m + 1) * 1e-6},
  };
}

KernelRun run_kernel(const Kernel& k, gomp::Runtime& rt, unsigned n,
                     Report& rep) {
  KernelRun r;
  {
    LayerSpan span(rep, std::string("npb.") + k.name, "npb");
    r = k.run(rt, n);
  }
  rep.check(r.verified, std::string("npb ") + k.name + " class W at " +
                            std::to_string(n) + " threads: " + r.detail);
  return r;
}

/// Runs every kernel for an equal share of @p seconds: a calibration round
/// gives each kernel's wall time, then each round runs kernel i
/// round(slowest / wall_i) times, all shuffled together.  Returns the
/// median input-generation time summed over the kernels (set-up share).
double run_npb(gomp::Runtime& rt, unsigned w, double seconds,
               std::mt19937_64& rng, Report& rep) {
  const std::vector<Kernel> kernels = npb_kernels();
  std::vector<std::vector<double>> timed(kernels.size()), setup(kernels.size());
  auto run = [&](std::size_t i) {
    const KernelRun r = run_kernel(kernels[i], rt, w, rep);
    timed[i].push_back(r.timed_s);
    setup[i].push_back(r.wall_s - r.timed_s);
    return r.wall_s;
  };
  const double deadline = monotonic_seconds() + seconds;
  std::vector<std::size_t> order(kernels.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<double> wall(kernels.size());
  for (std::size_t i : order) wall[i] = run(i);
  const double slowest = *std::max_element(wall.begin(), wall.end());
  std::vector<std::size_t> round;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const long reps = std::max(1L, std::lround(slowest / wall[i]));
    round.insert(round.end(), static_cast<std::size_t>(reps), i);
  }
  for (int r = 1; r < kNpbMinRounds || monotonic_seconds() < deadline; ++r) {
    std::shuffle(round.begin(), round.end(), rng);
    for (std::size_t i : round) run(i);
  }
  double setup_sum = 0;
  std::vector<std::vector<double>> timed_us;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    rep.add(std::string("npb.") + kernels[i].name + ".timed_s", "npb", "s",
            "lower", timed[i]);
    timed_us.push_back(scaled(timed[i], 1e6));
    setup_sum += median(setup[i]);
  }
  add_op_metric(rep, std::move(timed_us));
  return setup_sum;
}

// ---------------------------------------------------------------------------
// Traced run: the whole layered suite, per-layer numbers.

void layer_mrapi(unsigned nproc, Report& rep) {
  LayerSpan span(rep, "mrapi", "mrapi");
  constexpr int kBatches = 15;
  {
    mrapi::Mutex mu;
    mrapi::LockKey key;
    bool ok = true;
    auto s = per_call_seconds(kBatches, 20000, [&] {
      ok = ok && mu.lock(mrapi::kTimeoutInfinite, &key) ==
                     ompmca::Status::kSuccess;
      ok = ok && mu.unlock(key) == ompmca::Status::kSuccess;
    });
    rep.check(ok, "mrapi mutex lock/unlock status");
    rep.add("mrapi.mutex_uncontended_ns", "mrapi", "ns", "lower",
            scaled(s, 1e9));
  }
  {
    std::mutex mu;
    auto s = per_call_seconds(kBatches, 20000, [&] {
      mu.lock();
      mu.unlock();
    });
    rep.add("ref.std_mutex_ns", "ref", "ns", "lower", scaled(s, 1e9));
  }
  {
    // nproc threads hammer one mrapi::Mutex; a plain counter inside the
    // critical section checks exclusion.
    constexpr long kPerThread = 20000;
    std::vector<double> s;
    bool ok = true;
    for (int b = 0; b < 7; ++b) {
      mrapi::Mutex mu;
      long counter = 0;
      std::atomic<bool> status_ok{true};
      std::vector<std::thread> ts;
      const double t0 = monotonic_seconds();
      for (unsigned t = 0; t < nproc; ++t) {
        ts.emplace_back([&] {
          mrapi::LockKey key;
          for (long i = 0; i < kPerThread; ++i) {
            if (mu.lock(mrapi::kTimeoutInfinite, &key) !=
                ompmca::Status::kSuccess) {
              status_ok = false;
              continue;
            }
            ++counter;
            if (mu.unlock(key) != ompmca::Status::kSuccess) status_ok = false;
          }
        });
      }
      for (auto& t : ts) t.join();
      s.push_back((monotonic_seconds() - t0) /
                  static_cast<double>(kPerThread * nproc) * 1e9);
      ok = ok && status_ok && counter == kPerThread * static_cast<long>(nproc);
    }
    rep.check(ok, "mrapi contended mutex counter");
    rep.add("mrapi.mutex_contended_ns", "mrapi", "ns", "lower", s);
  }
  {
    auto node = mrapi::Node::initialize(kBenchDomain, 1);
    rep.check(node.has_value(), "mrapi node initialize");
    if (node.has_value()) {
      bool ok = true;
      mrapi::ResourceKey key = 100;
      auto s = per_call_seconds(kBatches, 200, [&] {
        auto seg = node->shmem_create(key, 4096);
        if (!seg.has_value()) {
          ok = false;
          return;
        }
        auto p = (*seg)->attach(node->node_id());
        ok = ok && p.has_value() && *p != nullptr;
        if (p.has_value()) {
          static_cast<volatile char*>(*p)[0] = 1;
          ok = ok && (*seg)->detach(node->node_id()) ==
                         ompmca::Status::kSuccess;
        }
        ok = ok && node->shmem_delete(key) == ompmca::Status::kSuccess;
        ++key;
      });
      rep.check(ok, "mrapi shmem create/attach/detach/delete");
      rep.add("mrapi.shmem_cycle_us", "mrapi", "us", "lower", scaled(s, 1e6));
      // Teardown only; the cycles were verified above.
      (void)node->finalize();
    }
  }
  {
    // Node cycle: the per-worker MRAPI work of a runtime launch — node
    // init, mrapi_thread_create, join, thread/node finalize.
    bool ok = true;
    mrapi::NodeId id = 1000;
    auto s = per_call_seconds(kBatches, 20, [&] {
      auto n = mrapi::Node::initialize(kBenchDomain, id);
      if (!n.has_value()) {
        ok = false;
        return;
      }
      const mrapi::NodeId worker = id + 1;
      std::atomic<bool> ran{false};
      ok = ok && n->thread_create(worker, {[&] { ran = true; }}) ==
                     ompmca::Status::kSuccess;
      ok = ok && n->thread_join(worker) == ompmca::Status::kSuccess;
      ok = ok && n->thread_finalize(worker) == ompmca::Status::kSuccess;
      ok = ok && ran.load();
      ok = ok && n->finalize() == ompmca::Status::kSuccess;
      id += 2;
    });
    rep.check(ok, "mrapi node cycle");
    rep.add("mrapi.node_cycle_us", "mrapi", "us", "lower", scaled(s, 1e6));
  }
}

void layer_gomp(gomp::Runtime& rt, unsigned w, Report& rep) {
  LayerSpan span(rep, "gomp", "gomp");
  constexpr int kBatches = 15;
  constexpr long kRegions = 500;
  constexpr long kInner = 500;
  rep.add("gomp.parallel_empty_us", "gomp", "us", "lower",
          scaled(per_call_seconds(kBatches, kRegions,
                                  [&] {
                                    rt.parallel([](gomp::ParallelContext&) {},
                                                w);
                                  }),
                 1e6));
  rep.add("gomp.parallel_w1_us", "gomp", "us", "lower",
          scaled(per_call_seconds(kBatches, kRegions,
                                  [&] {
                                    rt.parallel([](gomp::ParallelContext&) {},
                                                1);
                                  }),
                 1e6));
  // One region of kInner constructs per sample; the fork/join is amortised.
  auto in_region = [&](auto&& construct) {
    return scaled(per_call_seconds(kBatches, 1,
                                   [&] {
                                     rt.parallel(
                                         [&](gomp::ParallelContext& c) {
                                           for (long i = 0; i < kInner; ++i) {
                                             construct(c);
                                           }
                                         },
                                         w);
                                   }),
                  1e6 / kInner);
  };
  rep.add("gomp.barrier_us", "gomp", "us", "lower",
          in_region([](gomp::ParallelContext& c) { c.barrier(); }));
  std::atomic<bool> sums_ok{true};
  const long expected = static_cast<long>(w) * (w + 1) / 2;
  rep.add("gomp.reduce_sum_us", "gomp", "us", "lower",
          in_region([&](gomp::ParallelContext& c) {
            if (c.reduce_sum<long>(c.thread_num() + 1) != expected) {
              sums_ok = false;
            }
          }));
  rep.check(sums_ok, "gomp reduce_sum value");
  rep.add("gomp.for_static_us", "gomp", "us", "lower",
          in_region([&](gomp::ParallelContext& c) {
            c.for_loop(0, w, [](long, long) {});
          }));

  // Dynamic chunks: enough chunks per thread that the steal path engages;
  // telemetry on for one extra sample to read the steal counters.
  constexpr long kChunks = 4096;
  constexpr int kLoops = 20;
  std::atomic<long> chunks{0};
  auto dyn = [&] {
    rt.parallel(
        [&](gomp::ParallelContext& c) {
          for (int j = 0; j < kLoops; ++j) {
            c.for_loop(0, kChunks,
                       [&](long lo, long hi) {
                         chunks.fetch_add(hi - lo, std::memory_order_relaxed);
                       },
                       gomp::ScheduleSpec{gomp::Schedule::kDynamic, 1});
          }
        },
        w);
  };
  rep.add("gomp.for_dynamic_chunk_ns", "gomp", "ns", "lower",
          scaled(per_call_seconds(kBatches, 1, dyn),
                 1e9 / (kChunks * kLoops)));
  rep.check(chunks.load() == (kBatches + 1) * kChunks * kLoops,
            "gomp dynamic loop covered every iteration once");
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  dyn();
  obs::set_enabled(false);
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  const double attempts =
      static_cast<double>(snap.counter(obs::Counter::kGompLoopStealAttempt));
  rep.add1("gomp.loop_steal_ratio", "gomp", "ratio", "higher",
           attempts > 0
               ? static_cast<double>(
                     snap.counter(obs::Counter::kGompLoopSteal)) /
                     attempts
               : 0.0);
}

/// L1 phases of EPCC PARALLEL from the tracer's fork_ring / worker_wake /
/// worker_work / join_wait events (ring mode).
void layer_phases(gomp::Runtime& rt, unsigned w, Report& rep) {
  LayerSpan span(rep, "gomp.phases", "gomp");
  constexpr long kRegions = 3000;
  obs::trace::set_ring_capacity(1 << 16);
  obs::trace::set_mode(obs::trace::Mode::kRing);
  obs::trace::reset();
  for (long i = 0; i < kRegions; ++i) {
    rt.parallel([](gomp::ParallelContext&) { delay(kEpccDelay); }, w);
  }
  obs::trace::set_mode(obs::trace::Mode::kOff);
  const std::vector<obs::trace::ThreadTrace> threads = obs::trace::snapshot();

  using T = obs::trace::Type;
  struct Region {
    std::uint64_t begin = 0, ring = 0, join_ns = 0;
    std::uint64_t last_wake = 0;
    double body_sum = 0;
    unsigned bodies = 0;
  };
  std::map<std::uint64_t, Region> regions;  // by dispatch seq
  for (const auto& t : threads) {
    std::uint64_t ring_seq = 0, ring_ts = 0, join_ns = 0;
    for (const auto& e : t.events) {
      if (e.type == T::kForkRing) {
        ring_seq = e.a0;
        ring_ts = e.begin_ns;
        join_ns = 0;
      } else if (e.type == T::kJoinWait && e.a0 == ring_seq) {
        join_ns = e.end_ns - e.begin_ns;
      } else if (e.type == T::kParallel && ring_seq != 0 &&
                 e.begin_ns <= ring_ts && ring_ts <= e.end_ns) {
        Region& r = regions[ring_seq];
        r.begin = e.begin_ns;
        r.ring = ring_ts;
        r.join_ns = join_ns;
        ring_seq = 0;
      }
    }
  }
  for (const auto& t : threads) {
    for (const auto& e : t.events) {
      auto it = regions.find(e.a0);
      if (it == regions.end()) continue;
      if (e.type == T::kWorkerWake) {
        it->second.last_wake = std::max(it->second.last_wake, e.begin_ns);
      } else if (e.type == T::kWorkerWork) {
        it->second.body_sum += static_cast<double>(e.end_ns - e.begin_ns);
        ++it->second.bodies;
      }
    }
  }
  std::vector<double> fork, wake, body, join;
  for (const auto& [seq, r] : regions) {
    if (r.bodies == 0 || r.last_wake < r.ring) continue;
    fork.push_back(static_cast<double>(r.ring - r.begin) * 1e-3);
    wake.push_back(static_cast<double>(r.last_wake - r.ring) * 1e-3);
    body.push_back(r.body_sum / r.bodies * 1e-3);
    join.push_back(static_cast<double>(r.join_ns) * 1e-3);
  }
  rep.check(w == 1 || fork.size() * 2 >= static_cast<std::size_t>(kRegions),
            "trace recovered " + std::to_string(fork.size()) + " of " +
                std::to_string(kRegions) + " regions");
  rep.add("gomp.fork_ring_us", "gomp", "us", "lower", fork);
  rep.add("gomp.wake_us", "gomp", "us", "lower", wake);
  rep.add("gomp.body_us", "gomp", "us", "lower", body);
  rep.add("gomp.join_wait_us", "gomp", "us", "lower", join);
}

void layer_epcc(gomp::Runtime& mca, unsigned w, std::mt19937_64& rng,
                Report& rep) {
  LayerSpan span(rep, "epcc", "epcc");
  auto native = make_runtime(gomp::BackendKind::kNative);
  native->parallel([](gomp::ParallelContext&) {}, w);
  EpccSamples m, n;
  // Alternate the runtimes in short slices so host noise hits both.
  for (int slice = 0; slice < 6; ++slice) {
    epcc_rounds(mca, w, 0.0, 5, rng, rep, m);
    epcc_rounds(*native, w, 0.0, 5, rng, rep, n);
  }
  for (std::size_t i = 0; i < m.size(); ++i) {
    const epcc::Directive d = epcc::kAllDirectives[i];
    rep.add(epcc_metric(d), "epcc", "us", "lower", m[i]);
    rep.add(std::string("epcc.native.") + slug(d) + "_us", "epcc", "us",
            "lower", n[i]);
    rep.add1(std::string("epcc.mca_native_ratio.") + slug(d), "epcc", "ratio",
             "lower", median(m[i]) / median(n[i]));
  }

  // Critical contention share under the EPCC CRITICAL shape.
  epcc::SyncbenchOptions o;
  o.outer_reps = 5;
  o.inner_reps = kEpccInner;
  o.delay_length = kEpccDelay;
  epcc::Syncbench sb(&mca, o);
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  (void)sb.measure(epcc::Directive::kCritical, w);
  obs::set_enabled(false);
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  const double crit =
      static_cast<double>(snap.counter(obs::Counter::kGompCritical));
  rep.add1("gomp.critical_contended_ratio", "gomp", "ratio", "lower",
           crit > 0 ? static_cast<double>(snap.counter(
                          obs::Counter::kGompCriticalContended)) /
                          crit
                    : 0.0);
}

void layer_tenants(gomp::Runtime& rt, unsigned nproc, Report& rep) {
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  TenantStats st;
  {
    LayerSpan span(rep, "gomp.tenants", "gomp");
    st = run_tenant_batches(rt, tenant_width(nproc), 0.0, 5, rep);
  }
  obs::set_enabled(false);
  add_tenant_metrics(rep, st);
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  // Leases wait only under worker pressure, which 2 tenants never create
  // on a 64-worker pool: the wait time is structurally zero here, so the
  // number of waits is the witness and the time per region rides along.
  const auto& lease = snap.hist(obs::Hist::kGompLeaseWaitNs);
  rep.add1("gomp.lease_waits", "gomp", "count", "lower",
           static_cast<double>(lease.count));
  rep.add1("gomp.lease_wait_ns", "gomp", "ns", "lower",
           static_cast<double>(lease.sum_ns) /
               static_cast<double>(std::max<std::uint64_t>(1, st.regions)));
  rep.add1("gomp.lease_degraded", "gomp", "count", "lower",
           static_cast<double>(snap.counter(obs::Counter::kGompLeaseDegraded)));
  rep.add1(
      "gomp.team_multiplexed", "gomp", "count", "higher",
      static_cast<double>(snap.counter(obs::Counter::kGompTeamMultiplexed)));
}

void layer_npb(gomp::Runtime& rt, unsigned w, Report& rep) {
  LayerSpan span(rep, "npb", "npb");
  for (const Kernel& k : npb_kernels()) {
    const std::string p = std::string("npb.") + k.name;
    obs::Registry::instance().reset();
    obs::set_enabled(true);
    (void)run_kernel(k, rt, w, rep);
    obs::set_enabled(false);
    const obs::Snapshot snap = obs::Registry::instance().snapshot();
    const KernelRun wide = run_kernel(k, rt, w, rep);
    const KernelRun one = run_kernel(k, rt, 1, rep);
    rep.add1(p + ".regions", "npb", "count", "lower",
             static_cast<double>(snap.counter(obs::Counter::kGompParallel)));
    rep.add1(p + ".barriers", "npb", "count", "lower",
             static_cast<double>(snap.counter(obs::Counter::kGompBarrier)) /
                 w);
    rep.add1(p + ".timed_s", "npb", "s", "lower", wide.timed_s);
    rep.add1(p + ".setup_s", "npb", "s", "lower", wide.wall_s - wide.timed_s);
    rep.add1(p + ".mops", "npb", "Mop/s", "higher", k.mop / wide.timed_s);
    rep.add1(p + ".speedup", "npb", "x", "higher", one.timed_s / wide.timed_s);
  }
}

/// EPCC PARALLEL with tracing+telemetry off vs on (ring), interleaved.
void layer_trace_overhead(gomp::Runtime& rt, unsigned w, Report& rep) {
  LayerSpan span(rep, "obs.overhead", "obs");
  epcc::SyncbenchOptions o;
  o.outer_reps = 1;
  o.inner_reps = kEpccInner;
  o.delay_length = kEpccDelay;
  epcc::Syncbench sb(&rt, o);
  std::vector<double> off, on;
  for (int i = 0; i < 60; ++i) {
    off.push_back(sb.measure(epcc::Directive::kParallel, w).mean_us);
    obs::trace::set_mode(obs::trace::Mode::kRing);
    obs::set_enabled(true);
    on.push_back(sb.measure(epcc::Directive::kParallel, w).mean_us);
    obs::set_enabled(false);
    obs::trace::set_mode(obs::trace::Mode::kOff);
  }
  rep.add1("obs.trace_overhead_pct", "obs", "%", "lower",
           (median(on) / median(off) - 1.0) * 100.0);
}

void run_traced(gomp::Runtime& rt, unsigned nproc, std::mt19937_64& rng,
                Report& rep) {
  // Timings below run with tracing and telemetry off unless a layer needs
  // the events or counters; those turn them on around exactly that call.
  const obs::trace::Mode env_mode = obs::trace::mode();
  obs::trace::set_mode(obs::trace::Mode::kOff);
  obs::set_enabled(false);
  rep.set_config("trace_mode_env",
                 quoted(env_mode == obs::trace::Mode::kOff
                            ? "off"
                            : env_mode == obs::trace::Mode::kRing ? "ring"
                                                                  : "full"));
  layer_mrapi(nproc, rep);
  layer_gomp(rt, nproc, rep);
  layer_phases(rt, nproc, rep);
  layer_epcc(rt, nproc, rng, rep);
  layer_tenants(rt, nproc, rep);
  layer_npb(rt, nproc, rep);
  layer_trace_overhead(rt, nproc, rep);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench <epcc|tenants|npb> --seed N --seconds S "
               "[--trace]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string workload = argv[1];
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      traced = true;
    } else {
      return usage();
    }
  }
  if (workload != "epcc" && workload != "tenants" && workload != "npb") {
    return usage();
  }
  if (!(seconds > 0)) return usage();

  // Untraced runs measure with telemetry off whatever the environment says.
  obs::set_enabled(false);
  if (!traced) obs::trace::set_mode(obs::trace::Mode::kOff);

  const unsigned nproc = host_nproc();
  std::mt19937_64 rng(seed);
  Report rep;
  std::vector<double> setup_s, epoch_setup_s;
  std::unique_ptr<gomp::Runtime> rt;
  {
    LayerSpan span(rep, "setup", "gomp");
    for (int i = 0; i < kSetupReps; ++i) {
      rt.reset();
      rt = set_up(nproc, rep, setup_s);
    }
  }
  record_config(*rt, nproc, rep);
  unsigned launched = rt->pool().workers_launched();

  double input_setup_s = 0;
  if (traced) {
    run_traced(*rt, nproc, rng, rep);
  } else if (workload == "npb") {
    input_setup_s = run_npb(*rt, nproc, seconds, rng, rep);
  } else {
    rt.reset();  // the epochs build their own runtimes
    if (workload == "epcc") {
      launched = run_epcc(nproc, seconds, rng, rep, epoch_setup_s);
    } else {
      launched = run_tenants(nproc, seconds, rep, epoch_setup_s);
      rep.set_config("tenant_masters", std::to_string(kTenantMasters));
      rep.set_config("tenant_width", std::to_string(tenant_width(nproc)));
    }
  }
  // Every set-up sample carries the same input-generation share (the NPB
  // kernels' median makea/init time; zero for the other workloads).
  for (double& s : setup_s) s += input_setup_s;
  rep.add("setup_s", "gomp", "s", "lower", setup_s);
  if (!epoch_setup_s.empty()) {
    rep.add("epoch_setup_s", "gomp", "s", "lower", epoch_setup_s);
  }
  rep.set_config("pool_workers_launched", std::to_string(launched));

  rep.print(workload.c_str(), seed, traced);
  std::fflush(stdout);
  return rep.failed() == 0 ? 0 : 1;
}
