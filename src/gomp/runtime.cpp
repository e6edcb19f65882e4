#include "gomp/runtime.hpp"

#include <algorithm>
#include <mutex>
#include <string_view>

#include "common/log.hpp"
#include "common/time.hpp"
#include "gomp/backend_mca.hpp"
#include "gomp/backend_native.hpp"
#include "mrapi/database.hpp"
#include "obs/monitor.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ompmca::gomp {

thread_local ParallelContext* Runtime::t_current_ = nullptr;

std::string_view to_string(BackendKind k) {
  switch (k) {
    case BackendKind::kNative: return "native";
    case BackendKind::kMca: return "mca";
  }
  return "?";
}

namespace {

/// Last-resort mutex for `critical` when the backend cannot produce one
/// even after its internal retries: exclusion must still hold, so degrade
/// to a plain process mutex (correct, just not an MRAPI-visible resource).
// tsa: erase-typed BackendMutex — see backend_native.cpp's NativeMutex.
class FallbackNativeMutex final : public BackendMutex {
 public:
  void lock() override { mu_.lock(); }
  void unlock() override { mu_.unlock(); }
  bool try_lock() override { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// One thread's env-ICV override for one runtime (keyed by the runtime's
/// serial: several runtimes coexist, and each needs its own per-thread
/// data environment).
struct EnvEntry {
  std::uint64_t serial;
  EnvIcvs icvs;
};

/// The calling thread's env-ICV overrides across all runtimes.  A handful
/// of entries at most (one per runtime the thread touched an ICV of, plus
/// one per nesting level while inside regions); entries for destroyed
/// runtimes are inert — the serial never recurs.
std::vector<EnvEntry>& env_overrides() {
  static thread_local std::vector<EnvEntry> t_entries;
  return t_entries;
}

/// The calling thread's last-region meters across all runtimes, keyed by
/// runtime serial (same multi-tenant shape as env_overrides: every master
/// owns its own snapshot, so concurrent masters never race on a shared
/// member).  A node-based map on purpose — last_region_meters() hands out
/// a reference that must survive later inserts for other runtimes.
std::map<std::uint64_t, std::vector<platform::Work>>& last_meters_map() {
  static thread_local std::map<std::uint64_t, std::vector<platform::Work>>
      t_meters;
  return t_meters;
}

std::atomic<std::uint64_t> g_runtime_serial{0};

/// RAII witness of a region in flight (exception-safe: a throwing body
/// must not leave the reset guard stuck).
class RegionInFlight {
 public:
  explicit RegionInFlight(std::atomic<unsigned>& counter) : counter_(counter) {
    counter_.fetch_add(1, std::memory_order_relaxed);
  }
  ~RegionInFlight() {
    // release: pairs with regions_in_flight()'s acquire load — a reader
    // seeing 0 sees the whole region retired.
    counter_.fetch_sub(1, std::memory_order_release);
  }
  RegionInFlight(const RegionInFlight&) = delete;
  RegionInFlight& operator=(const RegionInFlight&) = delete;

 private:
  std::atomic<unsigned>& counter_;
};

std::unique_ptr<SystemBackend> make_backend(const RuntimeOptions& opts) {
  if (opts.backend_factory) return opts.backend_factory();
  switch (opts.backend) {
    case BackendKind::kNative:
      return std::make_unique<NativeBackend>(opts.topology);
    case BackendKind::kMca:
      // The MRAPI domain models the same board the native backend is
      // configured with, so both runtimes see identical metadata.
      mrapi::Database::instance().configure_platform(opts.topology);
      return std::make_unique<McaBackend>(opts.domain);
  }
  return nullptr;
}

}  // namespace

Runtime::Runtime(RuntimeOptions opts)
    : serial_(g_runtime_serial.fetch_add(1, std::memory_order_relaxed) + 1),
      opts_(std::move(opts)),
      backend_(make_backend(opts_)) {
  icvs_ = opts_.icvs ? *opts_.icvs : Icvs::from_env(backend_->num_procs());
  icvs_.num_threads = std::min(icvs_.num_threads, icvs_.thread_limit);
  task_tuning_ = TaskTuning::from_env();
  pool_ = std::make_unique<ThreadPool>(*backend_, icvs_.wait_policy,
                                       opts_.pool_max_workers);
}

Runtime::~Runtime() {
  // Pool (and its backend threads / MRAPI worker nodes) must retire before
  // the backend is destroyed.
  for (auto& team : hot_teams_) team.reset();
  pool_.reset();
  criticals_.clear();
  backend_.reset();
}

unsigned Runtime::resolve_num_threads(unsigned requested) const {
  // nthreads-var is per data environment (the calling thread's view);
  // thread_limit is the one global clamp.
  unsigned n = requested != 0 ? requested : env_icvs().num_threads;
  return std::clamp(n, 1u, icvs_.thread_limit);
}

EnvIcvs Runtime::env_icvs() const {
  for (const EnvEntry& e : env_overrides()) {
    if (e.serial == serial_) return e.icvs;
  }
  return EnvIcvs{icvs_.num_threads, icvs_.nested, icvs_.max_active_levels};
}

void Runtime::set_env_num_threads(unsigned n) {
  n = std::clamp(n, 1u, icvs_.thread_limit);
  for (EnvEntry& e : env_overrides()) {
    if (e.serial == serial_) {
      e.icvs.num_threads = n;
      return;
    }
  }
  env_overrides().push_back(
      {serial_, EnvIcvs{n, icvs_.nested, icvs_.max_active_levels}});
}

void Runtime::set_env_nested(bool nested) {
  // OpenMP 5.0: true raises max-active-levels to the supported maximum,
  // false drops it to 1 — in the same data environment as nest-var.
  const unsigned levels = nested ? kMaxSupportedActiveLevels : 1;
  for (EnvEntry& e : env_overrides()) {
    if (e.serial == serial_) {
      e.icvs.nested = nested;
      e.icvs.max_active_levels = levels;
      return;
    }
  }
  env_overrides().push_back(
      {serial_, EnvIcvs{icvs_.num_threads, nested, levels}});
}

const std::vector<platform::Work>& Runtime::last_region_meters() const {
  const auto& meters = last_meters_map();
  auto it = meters.find(serial_);
  if (it == meters.end()) {
    static const std::vector<platform::Work> kEmpty;
    return kEmpty;
  }
  return it->second;
}

std::vector<platform::Work>& Runtime::last_meters_slot() {
  return last_meters_map()[serial_];
}

std::optional<EnvIcvs> Runtime::swap_env_override(std::optional<EnvIcvs> next) {
  auto& v = env_overrides();
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i].serial == serial_) {
      std::optional<EnvIcvs> prev = v[i].icvs;
      if (next) {
        v[i].icvs = *next;
      } else {
        v[i] = v.back();  // order is irrelevant; swap-remove
        v.pop_back();
      }
      return prev;
    }
  }
  if (next) v.push_back({serial_, *next});
  return std::nullopt;
}

BackendMutex& Runtime::critical_mutex(std::string_view name) {
  MutexLock lk(critical_mu_);
  auto it = criticals_.find(name);
  if (it == criticals_.end()) {
    auto mu = backend_->create_mutex();
    if (mu == nullptr) {
      OMPMCA_LOG_WARN(
          "critical(%.*s): backend mutex create failed, degrading to a "
          "native mutex",
          static_cast<int>(name.size()), name.data());
      mu = std::make_unique<FallbackNativeMutex>();
    }
    it = criticals_.emplace(std::string(name), std::move(mu)).first;
  }
  return *it->second;
}

BackendMutex& Runtime::unnamed_critical_mutex() {
  // acquire: pairs with the release publish below — a reader that sees
  // the pointer sees the constructed mutex.
  if (BackendMutex* mu = unnamed_critical_.load(std::memory_order_acquire)) {
    return *mu;
  }
  // Racing first entries all get the one registry entry, so any of them
  // may publish it.
  BackendMutex& mu = critical_mutex("");
  unnamed_critical_.store(&mu, std::memory_order_release);
  return mu;
}

ParallelContext* Runtime::current() { return t_current_; }

void Runtime::parallel(FunctionRef<void(ParallelContext&)> body,
                       unsigned num_threads) {
  obs::count(obs::Counter::kGompParallel);
  obs::ScopedTimer region_timer(obs::Hist::kGompParallelNs);
  obs::trace::Span region_span(obs::trace::Type::kParallel);
  // Marks this runtime busy for the whole region, so gomp_compat_reset()
  // can refuse to destroy it out from under a live team.
  RegionInFlight in_flight(regions_in_flight_);
  unsigned n = resolve_num_threads(num_threads);
  ParallelContext* outer = current();
  const bool nested = outer != nullptr;
  region_span.set_args(n, nested ? 1 : 0);
  // A nested region is active only under nest-var, and no region is once
  // max-active-levels active regions enclose it.
  const unsigned enclosing_active = nested ? outer->team().active_level() : 0;
  const EnvIcvs env = env_icvs();
  if ((nested && !env.nested) || enclosing_active >= env.max_active_levels) {
    n = 1;
  }

  if (n == 1) {
    // Width-1 fast path: no doorbell ring, no pool join bookkeeping, and
    // the Team skips barrier construction entirely — a serialized region
    // costs a Team frame and nothing else.
    if (!nested) obs::tenant::on_region(0, false);
    Team team(*this, 1, outer);
    team.run_thread(0, body);
    team.finish();
    return;
  }

  // The one fork path.  Every master — an application thread, a concurrent
  // tenant, or a team thread forking a nested region — claims a slot and
  // leases parked workers first: the returned width reflects launch
  // failures *and* lease/slot pressure, so the team (and its barrier) never
  // waits on a thread that does not exist.
  const unsigned requested = n;
  const bool meter = !nested && obs::enabled();
  const std::uint64_t fork_t0 = meter ? monotonic_nanos() : 0;
  ThreadPool::Dispatch dispatch;
  n = pool_->prepare(dispatch, n, nested ? outer->level() + 1 : 1);
  // A top-level region runs on its slot's hot team when the width matches;
  // nested regions, and any width change, build a fresh team.
  std::optional<Team> fresh;
  Team* team = nullptr;
  if (!nested && dispatch.slot() >= 0) {
    std::unique_ptr<Team>& hot =
        hot_teams_[static_cast<unsigned>(dispatch.slot())];
    if (hot != nullptr && hot->nthreads() == n) {
      hot->reset();
    } else {
      hot = std::make_unique<Team>(*this, n, nullptr);
    }
    team = hot.get();
  } else {
    team = &fresh.emplace(*this, n, outer);
  }
  auto thread_fn = [team, body](unsigned tid) { team->run_thread(tid, body); };
  pool_->start_team(dispatch, n, thread_fn);
  if (meter) {
    // Tenant attribution: prepare-to-ring latency and whether lease
    // pressure or launch failures narrowed this master's team.
    obs::tenant::on_region(monotonic_nanos() - fork_t0, n < requested);
  }
  thread_fn(0);
  // Finish before the slot is released: from then on a hot team belongs
  // to the slot's next owner.
  pool_->wait_team(dispatch, [team] { team->finish(); });
}

void Runtime::parallel_for(long begin, long end,
                           FunctionRef<void(long, long)> body,
                           ScheduleSpec spec, unsigned num_threads) {
  parallel(
      [&](ParallelContext& ctx) {
        ctx.for_loop(begin, end, body, spec, /*nowait=*/true);
      },
      num_threads);
}

}  // namespace ompmca::gomp
