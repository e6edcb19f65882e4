// Runtime facade — "ulibgomp".
//
// One Runtime is one OpenMP runtime-library instance: a system backend
// (native ↔ stock libGOMP, mca ↔ the paper's MCA-libGOMP), ICVs, a worker
// pool, and the named-critical registry.  Two instances can coexist (the
// benches run both side by side, exactly the comparison the paper makes).
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "gomp/backend.hpp"
#include "gomp/pool.hpp"
#include "gomp/team.hpp"
#include "mrapi/types.hpp"
#include "platform/topology.hpp"

namespace ompmca::gomp {

enum class BackendKind { kNative, kMca };

std::string_view to_string(BackendKind k);

struct RuntimeOptions {
  BackendKind backend = BackendKind::kNative;
  /// Board model; drives num_procs for the native backend and the MRAPI
  /// domain platform for the MCA backend (set before first MCA runtime).
  platform::Topology topology = platform::Topology::t4240rdb();
  mrapi::DomainId domain = 0;
  /// Defaults to Icvs::from_env(backend num_procs).
  std::optional<Icvs> icvs;
  /// Worker-lease capacity of the pool (clamped to ThreadPool::kMaxWorkers).
  /// Small caps make lease pressure deterministic — the concurrent-masters
  /// tests pin this to force width degradation.
  unsigned pool_max_workers = ThreadPool::kMaxWorkers;
  /// When set, overrides `backend` with a caller-supplied backend — the
  /// hook the validation suite uses to inject fault-seeded backends
  /// (reproducing §6A's broken-synchronisation-primitive hunt).
  std::function<std::unique_ptr<SystemBackend>()> backend_factory;
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions opts = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- the fork-join core -----------------------------------------------------
  /// Runs @p body on a team of @p num_threads (0 = nthreads-var) with an
  /// implicit ending barrier.  Nested calls (from inside a region) serialize
  /// unless nest-var is set; any region serializes once max-active-levels
  /// active regions enclose it.  Every team, nested or not, leases its
  /// workers from the one pool and may be narrower than requested.
  void parallel(FunctionRef<void(ParallelContext&)> body,
                unsigned num_threads = 0);

  /// parallel + for_loop in one step (the `parallel for` directive).
  void parallel_for(long begin, long end, FunctionRef<void(long, long)> body,
                    ScheduleSpec spec = {}, unsigned num_threads = 0);

  // --- configuration ------------------------------------------------------------
  SystemBackend& backend() { return *backend_; }
  Icvs& icvs() { return icvs_; }
  const Icvs& icvs() const { return icvs_; }
  const platform::Topology& topology() const { return opts_.topology; }
  ThreadPool& pool() { return *pool_; }

  unsigned max_threads() const { return env_icvs().num_threads; }

  /// Resolves a parallel clause request against the ICVs.
  unsigned resolve_num_threads(unsigned requested) const;

  // --- per-data-environment ICVs ----------------------------------------------
  /// The calling thread's data-environment ICVs for this runtime: its
  /// thread-local override when one exists (installed by
  /// omp_set_num_threads/omp_set_nested or inherited through a team),
  /// else the global Icvs defaults.
  EnvIcvs env_icvs() const;
  /// omp_set_num_threads semantics: sets the *calling thread's*
  /// nthreads-var (clamped to thread_limit), leaving other masters alone.
  void set_env_num_threads(unsigned n);
  /// omp_set_nested semantics, same thread-local scope.
  void set_env_nested(bool nested);
  /// Installs (or, with nullopt, removes) the calling thread's env-ICV
  /// override and returns the previous one.  Team::run_thread uses this
  /// pair to give every team thread the master's environment at fork and
  /// discard the region's changes at region end, per spec.
  std::optional<EnvIcvs> swap_env_override(std::optional<EnvIcvs> next);

  // --- services used by ParallelContext ------------------------------------------
  /// Mutex backing critical(@p name); created through the backend on first
  /// use (Listing 4's gomp_mutex path).
  BackendMutex& critical_mutex(std::string_view name);
  /// critical_mutex("") without the registry: created on first use, then
  /// published, so later entries cost one load.
  BackendMutex& unnamed_critical_mutex();

  /// The calling thread's innermost ParallelContext, or nullptr outside any
  /// region (this is what the omp_* shims in api.hpp read).
  static ParallelContext* current();

  bool in_parallel() const { return current() != nullptr; }

  /// Per-thread meters of the *calling master's* last completed top-level
  /// region.  Thread-local per master (keyed by runtime serial, like the
  /// env ICVs): concurrent tenants never see — or race on — each other's
  /// meters.
  const std::vector<platform::Work>& last_region_meters() const;

 private:
  friend class Team;
  friend class ParallelContext;

  static thread_local ParallelContext* t_current_;

  /// Process-unique runtime id keying this runtime's thread-local env-ICV
  /// overrides (several runtimes coexist; a plain thread_local member
  /// would alias them).
  const std::uint64_t serial_;

  RuntimeOptions opts_;
  std::unique_ptr<SystemBackend> backend_;
  Icvs icvs_;
  // Destruction order matters: pool_ (workers) retires before backend_ —
  // see ~Runtime.
  std::unique_ptr<ThreadPool> pool_;
  // The hot team of each dispatch slot: the last top-level team forked
  // through it, reused by the slot's next top-level region of the same
  // width — back to back when the master retains the slot.  Built on first
  // use; only the slot's current owner (prepare to wait_team) touches its
  // entry.
  std::array<std::unique_ptr<Team>, ThreadPool::kMaxSlots> hot_teams_;

  CapMutex critical_mu_;
  // std::less<>: looked up by string_view, so an entry allocates no key.
  std::map<std::string, std::unique_ptr<BackendMutex>, std::less<>> criticals_
      OMPMCA_GUARDED_BY(critical_mu_);
  // criticals_[""], published once it exists (owned by the map).
  std::atomic<BackendMutex*> unnamed_critical_{nullptr};

  /// The calling thread's meter slot for this runtime (Team::finish writes
  /// the finished region's meters here).
  std::vector<platform::Work>& last_meters_slot();
};

}  // namespace ompmca::gomp
