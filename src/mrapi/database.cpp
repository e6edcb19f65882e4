#include "mrapi/database.hpp"

#include "check/check.hpp"
#include "common/log.hpp"
#include "fault/fault.hpp"

namespace ompmca::mrapi {

DomainState::DomainState(DomainId id, platform::Topology topo,
                         std::size_t system_shm_bytes)
    : id_(id),
      topo_(std::move(topo)),
      tree_(platform::build_resource_tree(topo_)),
      arena_(system_shm_bytes) {}

DomainState::~DomainState() {
  // Join any worker threads whose nodes were never finalized so teardown
  // (Database::reset, process exit) cannot leak running threads.  The
  // records are detached under the lock and joined outside it, since a
  // worker may touch the domain on its way out.
  std::map<NodeId, std::unique_ptr<NodeRecord>> nodes;
  {
    WriterLock lk(mu_);
    nodes.swap(nodes_);
  }
  for (auto& [id, rec] : nodes) {
    if (rec->has_worker && !rec->worker_joined && rec->worker.joinable())
      rec->worker.join();
  }
}

Status DomainState::register_node(NodeId id, NodeAttributes attrs) {
  WriterLock lk(mu_);
  if (nodes_.size() >= Limits::kMaxNodesPerDomain)
    return Status::kOutOfResources;
  if (nodes_.count(id) > 0) return Status::kNodeExists;
  auto rec = std::make_unique<NodeRecord>();
  rec->id = id;
  rec->attrs = std::move(attrs);
  nodes_.emplace(id, std::move(rec));
  return Status::kSuccess;
}

Status DomainState::register_worker_node(NodeId id, NodeAttributes attrs,
                                         std::thread worker) {
  WriterLock lk(mu_);
  if (nodes_.size() >= Limits::kMaxNodesPerDomain) {
    lk.unlock();
    worker.join();
    return Status::kOutOfResources;
  }
  if (nodes_.count(id) > 0) {
    lk.unlock();
    worker.join();
    return Status::kNodeExists;
  }
  auto rec = std::make_unique<NodeRecord>();
  rec->id = id;
  rec->attrs = std::move(attrs);
  rec->worker = std::move(worker);
  rec->has_worker = true;
  nodes_.emplace(id, std::move(rec));
  return Status::kSuccess;
}

Status DomainState::unregister_node(NodeId id) {
  std::unique_ptr<NodeRecord> victim;
  {
    WriterLock lk(mu_);
    auto it = nodes_.find(id);
    if (it == nodes_.end()) return Status::kNodeInvalid;
    victim = std::move(it->second);
    nodes_.erase(it);
  }
  // Join outside the registry lock (the worker may itself touch the domain).
  if (victim->has_worker && !victim->worker_joined && victim->worker.joinable())
    victim->worker.join();
  return Status::kSuccess;
}

Status DomainState::join_worker(NodeId id) {
  // Claim the join under the exclusive lock by moving the thread out of the
  // record; the join itself happens outside it (the worker may touch the
  // domain on its way out).  The previous shared_lock/raw-pointer version
  // read worker_joined and called join() on the record after dropping the
  // lock, so two joiners could both join (UB) and a racing
  // unregister_node could free the record under the joiner's feet.
  std::thread worker;
  {
    WriterLock lk(mu_);
    auto it = nodes_.find(id);
    if (it == nodes_.end()) return Status::kNodeInvalid;
    NodeRecord& rec = *it->second;
    if (!rec.has_worker) return Status::kNodeInvalid;
    if (!rec.worker_joined && rec.worker.joinable()) {
      worker = std::move(rec.worker);
      rec.worker_joined = true;
    }
  }
  if (worker.joinable()) worker.join();
  return Status::kSuccess;
}

bool DomainState::node_registered(NodeId id) const {
  ReaderLock lk(mu_);
  return nodes_.count(id) > 0;
}

std::size_t DomainState::node_count() const {
  ReaderLock lk(mu_);
  return nodes_.size();
}

Result<ShmemHandle> DomainState::shmem_create(ResourceKey key,
                                              std::size_t size,
                                              ShmemAttributes attrs) {
  if (size == 0 || size > Limits::kMaxShmemBytes)
    return Status::kInvalidArgument;
  WriterLock lk(mu_);
  if (shmems_.size() >= Limits::kMaxShmems) return Status::kOutOfResources;
  if (shmems_.count(key) > 0) return Status::kShmemExists;
  auto seg = std::make_shared<Shmem>(key, size, attrs, &arena_);
  if (!seg->valid()) return Status::kOutOfResources;
  shmems_.emplace(key, seg);
  OMPMCA_CHECK_CREATE(check::LockClass::kMrapiShmem, key, seg.get());
  return seg;
}

Result<ShmemHandle> DomainState::shmem_get(ResourceKey key) const {
  ReaderLock lk(mu_);
  auto it = shmems_.find(key);
  if (it == shmems_.end()) return Status::kShmemIdInvalid;
  return it->second;
}

Status DomainState::shmem_delete(ResourceKey key) {
  ShmemHandle seg;
  {
    WriterLock lk(mu_);
    auto it = shmems_.find(key);
    if (it == shmems_.end()) {
      OMPMCA_CHECK_DELETE_MISSING(check::LockClass::kMrapiShmem, key);
      return Status::kShmemIdInvalid;
    }
    seg = it->second;
    // The key becomes free immediately; the segment's storage survives via
    // attached nodes' handles until the last detach (see Shmem::mark_delete).
    shmems_.erase(it);
  }
  OMPMCA_CHECK_DELETE(check::LockClass::kMrapiShmem, key, seg.get());
  return seg->mark_delete();
}

Result<std::shared_ptr<Mutex>> DomainState::mutex_create(
    ResourceKey key, MutexAttributes attrs) {
  WriterLock lk(mu_);
  if (OMPMCA_FAULT_POINT(kMrapiMutexCreate)) return Status::kOutOfResources;
  if (mutexes_.size() >= Limits::kMaxMutexes) return Status::kOutOfResources;
  if (mutexes_.count(key) > 0) return Status::kMutexExists;
  auto m = std::make_shared<Mutex>(attrs);
  mutexes_.emplace(key, m);
  OMPMCA_CHECK_CREATE(check::LockClass::kMrapiMutex, key, m.get());
  return m;
}

Result<std::shared_ptr<Mutex>> DomainState::mutex_get(ResourceKey key) const {
  ReaderLock lk(mu_);
  auto it = mutexes_.find(key);
  if (it == mutexes_.end()) return Status::kMutexIdInvalid;
  return it->second;
}

Status DomainState::mutex_delete(ResourceKey key) {
  WriterLock lk(mu_);
  auto it = mutexes_.find(key);
  if (it == mutexes_.end()) {
    OMPMCA_CHECK_DELETE_MISSING(check::LockClass::kMrapiMutex, key);
    return Status::kMutexIdInvalid;
  }
  // retire() is the atomic held-check-and-mark: a locked()-then-erase pair
  // would leave a window where a racing lock() through an existing handle
  // succeeds on a mutex whose key is already gone.  After retirement every
  // stale-handle operation fails with kMutexIdInvalid.
  OMPMCA_RETURN_IF_ERROR(it->second->retire());
  OMPMCA_CHECK_DELETE(check::LockClass::kMrapiMutex, key, it->second.get());
  mutexes_.erase(it);
  return Status::kSuccess;
}

Result<std::shared_ptr<Semaphore>> DomainState::sem_create(
    ResourceKey key, SemaphoreAttributes attrs) {
  if (attrs.shared_lock_limit == 0) return Status::kSemValueInvalid;
  WriterLock lk(mu_);
  // fault-policy: caller-handled — semaphore creation failures surface
  // straight to the application; nothing in-runtime retries them.
  if (OMPMCA_FAULT_POINT(kMrapiSemCreate)) return Status::kOutOfResources;
  if (sems_.size() >= Limits::kMaxSemaphores) return Status::kOutOfResources;
  if (sems_.count(key) > 0) return Status::kSemExists;
  auto s = std::make_shared<Semaphore>(attrs);
  sems_.emplace(key, s);
  OMPMCA_CHECK_CREATE(check::LockClass::kMrapiSemaphore, key, s.get());
  return s;
}

Result<std::shared_ptr<Semaphore>> DomainState::sem_get(
    ResourceKey key) const {
  ReaderLock lk(mu_);
  auto it = sems_.find(key);
  if (it == sems_.end()) return Status::kSemIdInvalid;
  return it->second;
}

Status DomainState::sem_delete(ResourceKey key) {
  WriterLock lk(mu_);
  auto it = sems_.find(key);
  if (it == sems_.end()) {
    OMPMCA_CHECK_DELETE_MISSING(check::LockClass::kMrapiSemaphore, key);
    return Status::kSemIdInvalid;
  }
  // Atomic outstanding-units check + mark; previously a semaphore could be
  // deleted while acquired, stranding the holders' releases.
  OMPMCA_RETURN_IF_ERROR(it->second->retire());
  OMPMCA_CHECK_DELETE(check::LockClass::kMrapiSemaphore, key,
                      it->second.get());
  sems_.erase(it);
  return Status::kSuccess;
}

Result<std::shared_ptr<Rwlock>> DomainState::rwlock_create(
    ResourceKey key, RwlockAttributes attrs) {
  WriterLock lk(mu_);
  if (rwlocks_.size() >= Limits::kMaxRwlocks) return Status::kOutOfResources;
  if (rwlocks_.count(key) > 0) return Status::kRwlExists;
  auto r = std::make_shared<Rwlock>(attrs);
  rwlocks_.emplace(key, r);
  OMPMCA_CHECK_CREATE(check::LockClass::kMrapiRwlock, key, r.get());
  return r;
}

Result<std::shared_ptr<Rwlock>> DomainState::rwlock_get(
    ResourceKey key) const {
  ReaderLock lk(mu_);
  auto it = rwlocks_.find(key);
  if (it == rwlocks_.end()) return Status::kRwlIdInvalid;
  return it->second;
}

Status DomainState::rwlock_delete(ResourceKey key) {
  WriterLock lk(mu_);
  auto it = rwlocks_.find(key);
  if (it == rwlocks_.end()) {
    OMPMCA_CHECK_DELETE_MISSING(check::LockClass::kMrapiRwlock, key);
    return Status::kRwlIdInvalid;
  }
  // Atomic idle-check + mark (same window as mutex_delete: a reader
  // arriving between the held-check and the erase used to survive the
  // delete unnoticed).
  OMPMCA_RETURN_IF_ERROR(it->second->retire());
  OMPMCA_CHECK_DELETE(check::LockClass::kMrapiRwlock, key, it->second.get());
  rwlocks_.erase(it);
  return Status::kSuccess;
}

Result<RmemHandle> DomainState::rmem_create(ResourceKey key, std::size_t size,
                                            RmemAccess access) {
  if (size == 0) return Status::kInvalidArgument;
  WriterLock lk(mu_);
  if (rmems_.size() >= Limits::kMaxRmems) return Status::kOutOfResources;
  if (rmems_.count(key) > 0) return Status::kRmemExists;
  auto r = std::make_shared<Rmem>(key, size, access, &dma_);
  rmems_.emplace(key, r);
  OMPMCA_CHECK_CREATE(check::LockClass::kMrapiRmem, key, r.get());
  return r;
}

Result<RmemHandle> DomainState::rmem_get(ResourceKey key) const {
  ReaderLock lk(mu_);
  auto it = rmems_.find(key);
  if (it == rmems_.end()) return Status::kRmemIdInvalid;
  return it->second;
}

Status DomainState::rmem_delete(ResourceKey key) {
  WriterLock lk(mu_);
  auto it = rmems_.find(key);
  if (it == rmems_.end()) {
    OMPMCA_CHECK_DELETE_MISSING(check::LockClass::kMrapiRmem, key);
    return Status::kRmemIdInvalid;
  }
  OMPMCA_CHECK_DELETE(check::LockClass::kMrapiRmem, key, it->second.get());
  rmems_.erase(it);
  return Status::kSuccess;
}

Database::Database() : default_topo_(platform::Topology::t4240rdb()) {}

Database& Database::instance() {
  // Leaked on purpose: a runtime that outlives main (a global, such as the
  // GOMP ABI's) still finalizes its MRAPI nodes during static destruction,
  // after a function-local static would already be gone, and ~DomainState
  // would then join pool workers that are still parked.
  static Database& db = *new Database;
  return db;
}

void Database::configure_platform(platform::Topology topo) {
  MutexLock lk(mu_);
  default_topo_ = std::move(topo);
}

void Database::configure_system_shm_bytes(std::size_t bytes) {
  MutexLock lk(mu_);
  system_shm_bytes_ = bytes;
}

Result<DomainState*> Database::domain(DomainId id) {
  MutexLock lk(mu_);
  auto it = domains_.find(id);
  if (it != domains_.end()) return it->second.get();
  if (domains_.size() >= Limits::kMaxDomains) return Status::kDomainInvalid;
  auto state =
      std::make_unique<DomainState>(id, default_topo_, system_shm_bytes_);
  DomainState* raw = state.get();
  domains_.emplace(id, std::move(state));
  return raw;
}

Result<DomainState*> Database::find_domain(DomainId id) const {
  MutexLock lk(mu_);
  auto it = domains_.find(id);
  if (it == domains_.end()) return Status::kDomainInvalid;
  return it->second.get();
}

void Database::reset() {
  MutexLock lk(mu_);
  domains_.clear();
}

}  // namespace ompmca::mrapi
