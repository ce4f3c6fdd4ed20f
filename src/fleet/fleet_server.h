// FleetServer: multi-tenant serving over a dynamic replica set.
//
//   client ──Submit(tenant, row)──▶ quota gate (per-tenant token bucket)
//                                       │ shed: kUnavailable + retry-after
//                                   overload gate (priority ladder over the
//                                       │ fleet-wide queue fraction)
//                                   ReplicaRouter (least-loaded replica,
//                                       │ one simulated device per worker)
//                                   model-homogeneous micro-batches against
//                                       │ the tenant's registry snapshot
//                                   shared SV store (cross-tenant kernel-
//                                           value reuse, Section 3.3.3)
//
// The replicas, their lanes and registries, and the routing belong to one
// ReplicaRouter (serve/replica_router.h); the fleet keeps only its policy.
//
// Every tenant's models live in the TenantRegistry's namespace and hot-swap
// through the validator/rollback gate. With share_support_vectors on, all
// replicas bind their batches to one SvStore, so a kernel value computed for
// one tenant's query is gathered — not recomputed — when a co-resident model
// references the same support vector; probabilities stay byte-identical to
// the sharing-off path at any cache capacity.
//
// Replica autoscaling is gauge-driven: ScaleTick() publishes the fleet's
// queue-depth gauges and feeds the mean depth per replica to the Autoscaler;
// a scale-up adds a router replica (cycling through the configured device
// models — a SimCluster's devices make a natural substrate), a scale-down
// drain-and-retires the newest one. Both respect min/max_replicas.
//
// Observability: per-tenant series (gmpsvm_fleet_*_total{tenant=...},
// gmpsvm_fleet_latency_seconds{tenant=...}) and fleet gauges publish into
// FleetOptions::metrics (or a private registry when null). Each replica
// keeps a private registry in the router so per-worker series never collide;
// Snapshot() aggregates kernel-evaluation counters across live and retired
// replicas.

#ifndef GMPSVM_FLEET_FLEET_SERVER_H_
#define GMPSVM_FLEET_FLEET_SERVER_H_

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "fleet/autoscaler.h"
#include "fleet/quota.h"
#include "fleet/sv_store.h"
#include "fleet/tenant_registry.h"
#include "serve/replica_router.h"

namespace gmpsvm::fleet {

struct FleetOptions {
  // Template applied to every replica. Its model_name, metrics and
  // resolvers are managed by the fleet and its router; its lane_base is the
  // base of replica 0's trace band; its fault injector reaches every
  // replica's devices.
  ServeOptions serve;

  // Replica device models, cycled as replicas are added (replica i runs on
  // devices[i % devices.size()]); a SimCluster's device models slot in
  // directly. Empty = every replica on serve.executor_model.
  std::vector<ExecutorModel> devices;

  int initial_replicas = 1;
  AutoscalePolicy autoscale;

  // Cross-tenant SV sharing (the tentpole): off = every batch recomputes its
  // kernel block (the reference path results are compared against).
  bool share_support_vectors = true;
  int64_t sv_cache_capacity = 1 << 20;
  // Which whole query the store retires first on overflow; the
  // frequency-weighted policy is opt-in, FIFO is the default.
  SvStoreOptions::RetentionPolicy sv_retention =
      SvStoreOptions::RetentionPolicy::kFifo;

  // Fleet-wide queue fraction where priority shedding begins. At fraction f
  // in (shed_start_fraction, 1], a tenant with priority p (ladder top P) is
  // admitted only while f <= shed_start + (1 - shed_start) * (p+1)/(P+1) —
  // lowest priority sheds first, the top rung only at a completely full
  // fleet. >= 1 disables overload shedding (quota shedding still applies).
  double shed_start_fraction = 0.75;

  // Shared registry for fleet + per-tenant series; nullptr keeps a private
  // one (reachable via metrics()).
  obs::MetricsRegistry* metrics = nullptr;
};

struct TenantStatsSnapshot {
  std::string tenant;
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t shed_quota = 0;     // token bucket drained
  uint64_t shed_overload = 0;  // priority ladder under fleet overload
  uint64_t rejected = 0;       // every replica queue full / invalid rows
  uint64_t completed = 0;
  uint64_t failed = 0;         // terminal per-request failures
  double latency_mean = 0.0;   // admission -> response, seconds
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double latency_max = 0.0;
};

struct FleetStatsSnapshot {
  std::vector<TenantStatsSnapshot> tenants;  // sorted by name
  int replicas = 0;
  uint64_t scale_ups = 0;
  uint64_t scale_downs = 0;

  // Kernel-evaluation counters summed over every replica worker (live and
  // retired) — the quantity cross-tenant sharing reduces.
  int64_t kernel_values_computed = 0;
  int64_t kernel_values_reused = 0;

  SvStoreStats sv;

  // Renders the per-tenant table plus fleet totals.
  std::string ToTable() const;
};

class FleetServer {
 public:
  explicit FleetServer(FleetOptions options);
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  // Validates the policy and spins up the initial replicas (clamped to
  // [min_replicas, max_replicas]).
  Status Start();

  // Tenant lifecycle; AddTenant before or after Start(). Swaps go through
  // the validator/rollback gate (see TenantRegistry).
  Result<int64_t> AddTenant(const TenantSpec& spec, MpSvmModel model);
  Result<int64_t> SwapTenantModel(const std::string& tenant, MpSvmModel model);

  // Admission for one sparse row on behalf of `tenant`. Sheds with
  // kUnavailable (message carries a retry-after hint) on a drained quota
  // bucket or fleet overload below the tenant's priority rung; rejects with
  // kResourceExhausted only when every replica queue is full. An admitted
  // request always resolves its future.
  Result<std::future<Result<PredictResponse>>> Submit(
      const std::string& tenant, std::span<const int32_t> indices,
      std::span<const double> values, Deadline deadline = Deadline::Infinite());

  // Submit + wait, flattening admission and per-request errors.
  Result<PredictResponse> Predict(const std::string& tenant,
                                  std::span<const int32_t> indices,
                                  std::span<const double> values,
                                  Deadline deadline = Deadline::Infinite());

  // One autoscaling observation: publishes the fleet queue gauges, feeds
  // the mean depth per replica to the policy, and applies the decision
  // (scale-up replica add or drain-and-retire). Call on a fixed cadence.
  ScaleDecision ScaleTick();

  // Pauses/resumes every replica's consumption (admission unaffected) —
  // deterministic backlog for overload and autoscale tests.
  void PauseAll() { router_.PauseAll(); }
  void ResumeAll() { router_.ResumeAll(); }

  // Drains every replica and joins their workers. Idempotent.
  Status Shutdown();

  int num_replicas() const { return serving_ ? router_.num_replicas() : 0; }
  size_t total_queue_depth() const { return router_.total_queue_depth(); }
  TenantRegistry& tenants() { return tenants_; }
  SvStore& sv_store() { return sv_store_; }
  obs::MetricsRegistry* metrics() const { return metrics_; }
  const FleetOptions& options() const { return options_; }

  FleetStatsSnapshot Snapshot() const;

 private:
  struct TenantState {
    TenantSpec spec;
    std::unique_ptr<TokenBucket> bucket;
    obs::Counter* submitted;
    obs::Counter* admitted;
    obs::Counter* shed_quota;
    obs::Counter* shed_overload;
    obs::Counter* rejected;
    obs::Counter* completed;
    obs::Counter* failed;
    obs::Histogram* latency;
  };

  // Adds replica i on devices[i % n]. Requires lifecycle_mu_.
  Status AddReplicaLocked();

  TenantState* FindTenant(const std::string& name);

  FleetOptions options_;

  // Declared before sv_store_: the store publishes into the resolved
  // registry.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;

  TenantRegistry tenants_;
  SvStore sv_store_;
  Autoscaler autoscaler_;
  Stopwatch clock_;  // the token buckets' timeline

  obs::Gauge* replicas_gauge_;
  obs::Gauge* queue_depth_gauge_;
  obs::Gauge* mean_depth_gauge_;
  obs::Counter* scale_ups_;
  obs::Counter* scale_downs_;

  mutable std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<TenantState>> tenant_states_;
  int max_priority_ = 0;

  // Declared after every member its workers use, so it drains before them.
  ReplicaRouter router_;

  std::mutex lifecycle_mu_;  // serializes Start, ScaleTick and Shutdown
  bool shut_down_ = false;
  std::atomic<bool> serving_{false};  // started and not yet shut down
};

}  // namespace gmpsvm::fleet

#endif  // GMPSVM_FLEET_FLEET_SERVER_H_
