#include "mrapi/node.hpp"

#include "check/check.hpp"
#include "fault/fault.hpp"
#include "obs/event.hpp"

namespace ompmca::mrapi {

Result<Node> Node::initialize(DomainId domain, NodeId node,
                              NodeAttributes attrs) {
  auto d = Database::instance().domain(domain);
  if (!d) return d.status();
  if (OMPMCA_FAULT_POINT(kMrapiNodeCreate)) return Status::kOutOfResources;
  Status s = (*d)->register_node(node, std::move(attrs));
  if (!ok(s)) return s;
  obs::emit(obs::Event::kNodeCreate, node);
  return Node(*d, domain, node);
}

Status Node::finalize() {
  OMPMCA_RETURN_IF_ERROR(require_init());
  OMPMCA_CHECK_NODE_RETIRE(node_id_);
  Status s = domain_->unregister_node(node_id_);
  domain_ = nullptr;
  if (ok(s)) {
    obs::emit(obs::Event::kNodeRetire, node_id_);
  }
  return s;
}

Status Node::thread_create(NodeId worker_node, ThreadParameters params) {
  OMPMCA_RETURN_IF_ERROR(require_init());
  if (!params.start_routine) return Status::kInvalidArgument;
  if (OMPMCA_FAULT_POINT(kMrapiNodeCreate)) return Status::kOutOfResources;
  std::thread worker(std::move(params.start_routine));
  Status s = domain_->register_worker_node(
      worker_node, NodeAttributes{"worker"}, std::move(worker));
  if (ok(s)) {
    obs::emit(obs::Event::kNodeCreate, worker_node);
  }
  return s;
}

Status Node::thread_join(NodeId worker_node) {
  OMPMCA_RETURN_IF_ERROR(require_init());
  return domain_->join_worker(worker_node);
}

Status Node::thread_finalize(NodeId worker_node) {
  OMPMCA_RETURN_IF_ERROR(require_init());
  Status s = domain_->unregister_node(worker_node);
  if (ok(s)) {
    obs::emit(obs::Event::kNodeRetire, worker_node);
  }
  return s;
}

Result<ShmemHandle> Node::shmem_create(ResourceKey key, std::size_t size,
                                       ShmemAttributes attrs) {
  if (!initialized()) return Status::kNodeNotInit;
  auto seg = domain_->shmem_create(key, size, attrs);
  if (seg) obs::emit(obs::Event::kShmemCreate, key, size);
  return seg;
}

Result<ShmemHandle> Node::shmem_get(ResourceKey key) const {
  if (!initialized()) return Status::kNodeNotInit;
  return domain_->shmem_get(key);
}

Status Node::shmem_delete(ResourceKey key) {
  OMPMCA_RETURN_IF_ERROR(require_init());
  return domain_->shmem_delete(key);
}

Result<void*> Node::shmem_create_malloc(ResourceKey key, std::size_t size) {
  if (!initialized()) return Status::kNodeNotInit;
  ShmemAttributes attrs;
  attrs.use_malloc = true;  // the paper's MCA_TRUE attribute (Listing 3)
  auto seg = domain_->shmem_create(key, size, attrs);
  if (!seg) return seg.status();
  obs::emit(obs::Event::kShmemCreate, key, size);
  return (*seg)->attach(node_id_);
}

Result<RmemHandle> Node::rmem_create(ResourceKey key, std::size_t size,
                                     RmemAccess access) {
  if (!initialized()) return Status::kNodeNotInit;
  return domain_->rmem_create(key, size, access);
}

Result<RmemHandle> Node::rmem_get(ResourceKey key) const {
  if (!initialized()) return Status::kNodeNotInit;
  return domain_->rmem_get(key);
}

Status Node::rmem_delete(ResourceKey key) {
  OMPMCA_RETURN_IF_ERROR(require_init());
  return domain_->rmem_delete(key);
}

Result<std::shared_ptr<Mutex>> Node::mutex_create(ResourceKey key,
                                                  MutexAttributes attrs) {
  if (!initialized()) return Status::kNodeNotInit;
  return domain_->mutex_create(key, attrs);
}

Result<std::shared_ptr<Mutex>> Node::mutex_get(ResourceKey key) const {
  if (!initialized()) return Status::kNodeNotInit;
  return domain_->mutex_get(key);
}

Status Node::mutex_delete(ResourceKey key) {
  OMPMCA_RETURN_IF_ERROR(require_init());
  return domain_->mutex_delete(key);
}

Result<std::shared_ptr<Semaphore>> Node::sem_create(
    ResourceKey key, SemaphoreAttributes attrs) {
  if (!initialized()) return Status::kNodeNotInit;
  return domain_->sem_create(key, attrs);
}

Result<std::shared_ptr<Semaphore>> Node::sem_get(ResourceKey key) const {
  if (!initialized()) return Status::kNodeNotInit;
  return domain_->sem_get(key);
}

Status Node::sem_delete(ResourceKey key) {
  OMPMCA_RETURN_IF_ERROR(require_init());
  return domain_->sem_delete(key);
}

Result<std::shared_ptr<Rwlock>> Node::rwlock_create(ResourceKey key,
                                                    RwlockAttributes attrs) {
  if (!initialized()) return Status::kNodeNotInit;
  return domain_->rwlock_create(key, attrs);
}

Result<std::shared_ptr<Rwlock>> Node::rwlock_get(ResourceKey key) const {
  if (!initialized()) return Status::kNodeNotInit;
  return domain_->rwlock_get(key);
}

Status Node::rwlock_delete(ResourceKey key) {
  OMPMCA_RETURN_IF_ERROR(require_init());
  return domain_->rwlock_delete(key);
}

Result<Metadata> Node::metadata() const {
  if (!initialized()) return Status::kNodeNotInit;
  return Metadata(domain_);
}

const DmaEngine* Node::dma() const {
  return initialized() ? &domain_->dma() : nullptr;
}

}  // namespace ompmca::mrapi
