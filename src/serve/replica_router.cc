#include "serve/replica_router.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <string>
#include <utility>

namespace gmpsvm {

ReplicaRouter::ReplicaRouter(ModelRegistry* registry, RouterOptions options)
    : registry_(registry), options_(std::move(options)) {
  std::vector<ExecutorModel> devices = options_.devices;
  if (devices.empty()) devices.push_back(options_.serve.executor_model);
  for (const ExecutorModel& device : devices) {
    (void)AddReplica(device);  // cannot fail before Start()
  }
}

ReplicaRouter::~ReplicaRouter() { (void)Shutdown(); }

Status ReplicaRouter::AddReplica(const ExecutorModel& device) {
  std::unique_lock lock(mu_);
  const int index = static_cast<int>(registries_.size());
  auto metrics = std::make_unique<obs::MetricsRegistry>();
  ServeOptions serve = options_.serve;
  serve.executor_model = device;
  // Private registry per replica; router-level series carry the
  // {device=...} label instead.
  serve.metrics = metrics.get();
  serve.lane_base = options_.serve.lane_base +
                    index * std::max(1, serve.num_workers) *
                        SimExecutor::kLaneBand;
  auto replica = std::make_unique<InferenceServer>(registry_, std::move(serve));
  if (started_) GMP_RETURN_NOT_OK(replica->Start());
  if (paused_) replica->Pause();
  registries_.push_back(std::move(metrics));
  replicas_.push_back(std::move(replica));
  return Status::OK();
}

Status ReplicaRouter::Start() {
  std::unique_lock lock(mu_);
  started_ = true;
  for (const std::unique_ptr<InferenceServer>& replica : replicas_) {
    GMP_RETURN_NOT_OK(replica->Start());
  }
  return Status::OK();
}

std::unique_ptr<InferenceServer> ReplicaRouter::RetireNewest() {
  std::unique_lock lock(mu_);
  if (replicas_.empty()) return nullptr;
  std::unique_ptr<InferenceServer> victim = std::move(replicas_.back());
  replicas_.pop_back();
  return victim;
}

Result<std::future<Result<PredictResponse>>> ReplicaRouter::Submit(
    std::span<const int32_t> indices, std::span<const double> values,
    Deadline deadline, std::string model_name,
    CompletionCallback on_complete) {
  std::shared_lock lock(mu_);
  // Rank replicas by queue depth (snapshot), ties to the lowest index, and
  // admit at the first that accepts. Depths move under concurrent Submits —
  // the ranking is a heuristic, the fallback is the guarantee.
  std::vector<size_t> order(replicas_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<size_t> depth(replicas_.size());
  for (size_t r = 0; r < replicas_.size(); ++r) {
    depth[r] = replicas_[r]->queue_depth();
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return depth[a] < depth[b]; });

  Status last = Status::ResourceExhausted("router has no replicas");
  for (size_t r : order) {
    Result<std::future<Result<PredictResponse>>> admitted =
        replicas_[r]->Submit(indices, values, deadline, model_name, on_complete);
    if (admitted.ok()) {
      NoteRouted(r);
      return admitted;
    }
    last = admitted.status();
    // Only a full queue justifies spilling to the next replica; malformed
    // rows or a shut-down server fail the same way everywhere.
    if (!last.IsResourceExhausted()) return last;
  }
  return last;
}

Result<PredictResponse> ReplicaRouter::Predict(std::span<const int32_t> indices,
                                               std::span<const double> values,
                                               Deadline deadline) {
  return AwaitResponse(Submit(indices, values, deadline), deadline);
}

void ReplicaRouter::PauseAll() {
  std::unique_lock lock(mu_);
  paused_ = true;
  for (const std::unique_ptr<InferenceServer>& replica : replicas_) {
    replica->Pause();
  }
}

void ReplicaRouter::ResumeAll() {
  std::unique_lock lock(mu_);
  paused_ = false;
  for (const std::unique_ptr<InferenceServer>& replica : replicas_) {
    replica->Resume();
  }
}

Status ReplicaRouter::Shutdown() {
  std::unique_lock lock(mu_);
  Status first = Status::OK();
  for (const std::unique_ptr<InferenceServer>& replica : replicas_) {
    const Status s = replica->Shutdown();
    if (first.ok() && !s.ok()) first = s;
  }
  return first;
}

int ReplicaRouter::num_replicas() const {
  std::shared_lock lock(mu_);
  return static_cast<int>(replicas_.size());
}

int ReplicaRouter::replicas_created() const {
  std::shared_lock lock(mu_);
  return static_cast<int>(registries_.size());
}

size_t ReplicaRouter::total_queue_depth() const {
  std::shared_lock lock(mu_);
  size_t depth = 0;
  for (const std::unique_ptr<InferenceServer>& replica : replicas_) {
    depth += replica->queue_depth();
  }
  return depth;
}

size_t ReplicaRouter::total_capacity() const {
  std::shared_lock lock(mu_);
  return replicas_.size() * options_.serve.queue_capacity;
}

InferenceServer* ReplicaRouter::replica(int r) {
  std::shared_lock lock(mu_);
  return replicas_[static_cast<size_t>(r)].get();
}

int64_t ReplicaRouter::routed(int r) const {
  std::shared_lock lock(mu_);
  return static_cast<int64_t>(
      replicas_[static_cast<size_t>(r)]->stats().Snapshot().admitted);
}

std::vector<obs::MetricsRegistry*> ReplicaRouter::replica_registries() const {
  std::shared_lock lock(mu_);
  std::vector<obs::MetricsRegistry*> registries;
  registries.reserve(registries_.size());
  for (const auto& registry : registries_) registries.push_back(registry.get());
  return registries;
}

void ReplicaRouter::NoteRouted(size_t r) {
  if (options_.metrics == nullptr) return;
  const obs::Labels labels = {{"device", std::to_string(r)}};
  options_.metrics
      ->GetCounter(
          "gmpsvm_router_requests_routed_total",
          "Requests dispatched to a replica by the least-loaded router.",
          labels)
      ->Increment();
  options_.metrics
      ->GetGauge("gmpsvm_router_replica_queue_depth",
                 "Peak replica queue depth observed at routing decisions.",
                 labels)
      ->SetMax(static_cast<double>(replicas_[r]->queue_depth()));
}

}  // namespace gmpsvm
