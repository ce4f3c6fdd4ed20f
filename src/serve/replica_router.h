// ReplicaRouter: the serving stack's one replica pool.
//
// One InferenceServer replica per device model, all serving the same
// ModelRegistry (a hot-swap takes effect on every replica's next batch), with
// least-loaded dispatch: Submit routes each request to the replica with the
// shallowest queue (ties to the lowest replica index) and falls through to
// the next-least-loaded replica when a queue rejects with
// kResourceExhausted — a request is only rejected when every replica is full.
// Replicas may be added and retired while Submits race; the multi-tenant
// FleetServer sits on one router and keeps only fleet policy.
//
// Per-request results stay bit-identical to a direct MpSvmPredictor call
// whichever replica answers (the single-server guarantee, per replica).
//
// Observability: each replica keeps a private registry (kept after it
// retires) so per-worker series never collide; the router publishes routing
// counters and queue-depth gauges labeled {device=...} into
// RouterOptions::metrics. With a shared trace recorder, the i-th replica
// created traces at lane_base + i * SimExecutor::kLaneBand * num_workers.

#ifndef GMPSVM_SERVE_REPLICA_ROUTER_H_
#define GMPSVM_SERVE_REPLICA_ROUTER_H_

#include <future>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "serve/server.h"

namespace gmpsvm {

struct RouterOptions {
  // Template applied to every replica. Its executor_model is ignored when
  // `devices` is non-empty; its metrics pointer is ignored (replicas keep
  // private registries — see the header comment); its lane_base is the base
  // of replica 0's band.
  ServeOptions serve;

  // One replica per device model. Empty = one replica on
  // serve.executor_model.
  std::vector<ExecutorModel> devices;

  // Router-level metrics: gmpsvm_router_* series labeled {device=...}.
  // Null disables publication.
  obs::MetricsRegistry* metrics = nullptr;
};

class ReplicaRouter {
 public:
  // The registry must outlive the router.
  ReplicaRouter(ModelRegistry* registry, RouterOptions options);
  ~ReplicaRouter();

  ReplicaRouter(const ReplicaRouter&) = delete;
  ReplicaRouter& operator=(const ReplicaRouter&) = delete;

  // Starts every replica; fails on the first replica that cannot start.
  Status Start();

  // Adds a replica on `device` with the next lane band; it starts at once
  // when the router has started and begins paused while the pool is paused.
  Status AddReplica(const ExecutorModel& device);

  // Takes the newest replica out of routing and hands it back (null when
  // none is live). The caller drains it with Shutdown(), outside any lock;
  // its registry stays in replica_registries().
  std::unique_ptr<InferenceServer> RetireNewest();

  // Least-loaded admission across replicas (see header comment). Fails with
  // the last replica's kResourceExhausted only when every replica rejected.
  // `model_name` and `on_complete` pass through to InferenceServer::Submit.
  Result<std::future<Result<PredictResponse>>> Submit(
      std::span<const int32_t> indices, std::span<const double> values,
      Deadline deadline = Deadline::Infinite(), std::string model_name = {},
      CompletionCallback on_complete = nullptr);

  // Submit + wait, flattening admission and per-request errors.
  Result<PredictResponse> Predict(std::span<const int32_t> indices,
                                  std::span<const double> values,
                                  Deadline deadline = Deadline::Infinite());

  // Pauses/resumes every replica's consumption (admission unaffected),
  // including replicas added while paused.
  void PauseAll();
  void ResumeAll();

  // Shuts every live replica down (drains accepted requests). Idempotent;
  // returns the first error.
  Status Shutdown();

  int num_replicas() const;
  // Replicas ever created, retired ones included.
  int replicas_created() const;
  // Queued requests and queue capacity, summed over live replicas.
  size_t total_queue_depth() const;
  size_t total_capacity() const;

  // Live replica r (0 = oldest; valid until it retires) and the requests
  // dispatched to it so far (its admissions).
  InferenceServer* replica(int r);
  int64_t routed(int r) const;

  // Every replica's private registry, live and retired, in creation order.
  std::vector<obs::MetricsRegistry*> replica_registries() const;

 private:
  void NoteRouted(size_t r);

  ModelRegistry* registry_;
  RouterOptions options_;

  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<InferenceServer>> replicas_;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries_;
  bool started_ = false;
  bool paused_ = false;
};

}  // namespace gmpsvm

#endif  // GMPSVM_SERVE_REPLICA_ROUTER_H_
