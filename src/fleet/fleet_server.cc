#include "fleet/fleet_server.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "metrics/report.h"

namespace gmpsvm::fleet {
namespace {

SvStoreOptions StoreOptions(const FleetOptions& options,
                            obs::MetricsRegistry* metrics) {
  SvStoreOptions store;
  store.kernel_value_capacity =
      options.share_support_vectors ? options.sv_cache_capacity : 0;
  store.retention = options.sv_retention;
  store.metrics = metrics;
  return store;
}

// The router's options: the fleet's serve template with the SV-store and
// per-tenant PredictOptions resolvers, one replica on the first device.
RouterOptions PoolOptions(const FleetOptions& options, SvStore* sv_store,
                          TenantRegistry* tenants) {
  RouterOptions pool;
  pool.serve = options.serve;
  if (!options.devices.empty()) pool.devices = {options.devices.front()};
  if (options.share_support_vectors) {
    pool.serve.kernel_cache_resolver = [sv_store](const ModelHandle& handle) {
      return sv_store->Bind(handle);
    };
  }
  // Per-tenant PredictOptions overrides: batches resolve their tenant from
  // the namespaced model key ("tenant:<name>"); tenants without an override
  // (and non-tenant keys) keep the fleet-wide serve.predict.
  pool.serve.predict_options_resolver =
      [tenants](const std::string& model_name) -> std::optional<PredictOptions> {
    const std::string prefix = TenantRegistry::ModelKey("");
    if (model_name.compare(0, prefix.size(), prefix) != 0) {
      return std::nullopt;
    }
    Result<TenantSpec> spec = tenants->GetSpec(model_name.substr(prefix.size()));
    if (!spec.ok()) return std::nullopt;
    return spec->predict;
  };
  return pool;
}

}  // namespace

FleetServer::FleetServer(FleetOptions options)
    : options_(std::move(options)),
      owned_metrics_(options_.metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : owned_metrics_.get()),
      sv_store_(StoreOptions(options_, metrics_)),
      autoscaler_(options_.autoscale),
      router_(tenants_.models(), PoolOptions(options_, &sv_store_, &tenants_)) {
  options_.initial_replicas = std::max(1, options_.initial_replicas);
  // Tenant hot-swaps ride the same validator/fault gate as single-model
  // serving.
  tenants_.SetFaultInjector(options_.serve.fault);

  replicas_gauge_ = metrics_->GetGauge(
      "gmpsvm_fleet_replicas", "Live serving replicas in the fleet");
  queue_depth_gauge_ = metrics_->GetGauge(
      "gmpsvm_fleet_queue_depth", "Queued requests across all replicas");
  mean_depth_gauge_ = metrics_->GetGauge(
      "gmpsvm_fleet_mean_queue_depth",
      "Queued requests per replica (the autoscaler's input)");
  scale_ups_ = metrics_->GetCounter("gmpsvm_fleet_scale_ups_total",
                                    "Replicas added by the autoscaler");
  scale_downs_ = metrics_->GetCounter(
      "gmpsvm_fleet_scale_downs_total",
      "Replicas drained and retired by the autoscaler");
}

FleetServer::~FleetServer() { (void)Shutdown(); }

Status FleetServer::AddReplicaLocked() {
  const std::vector<ExecutorModel>& devices = options_.devices;
  if (devices.empty()) return router_.AddReplica(options_.serve.executor_model);
  return router_.AddReplica(
      devices[static_cast<size_t>(router_.replicas_created()) % devices.size()]);
}

Status FleetServer::Start() {
  GMP_RETURN_NOT_OK(options_.autoscale.Validate());
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (shut_down_) return Status::FailedPrecondition("fleet was shut down");
  if (serving_) return Status::FailedPrecondition("fleet already started");
  const int initial =
      std::clamp(options_.initial_replicas, options_.autoscale.min_replicas,
                 options_.autoscale.max_replicas);
  GMP_RETURN_NOT_OK(router_.Start());  // its one replica; the rest join started
  while (router_.num_replicas() < initial) {
    GMP_RETURN_NOT_OK(AddReplicaLocked());
  }
  replicas_gauge_->Set(static_cast<double>(initial));
  serving_ = true;
  return Status::OK();
}

Result<int64_t> FleetServer::AddTenant(const TenantSpec& spec,
                                       MpSvmModel model) {
  GMP_ASSIGN_OR_RETURN(int64_t version,
                       tenants_.AddTenant(spec, std::move(model)));
  auto state = std::make_unique<TenantState>();
  state->spec = spec;
  state->bucket = std::make_unique<TokenBucket>(spec.quota);
  const obs::Labels labels{{"tenant", spec.name}};
  state->submitted = metrics_->GetCounter(
      "gmpsvm_fleet_submitted_total", "Fleet admission attempts", labels);
  state->admitted = metrics_->GetCounter(
      "gmpsvm_fleet_admitted_total", "Requests admitted to a replica queue",
      labels);
  state->shed_quota = metrics_->GetCounter(
      "gmpsvm_fleet_shed_quota_total",
      "Requests shed by the tenant's token bucket", labels);
  state->shed_overload = metrics_->GetCounter(
      "gmpsvm_fleet_shed_overload_total",
      "Requests shed by the overload priority ladder", labels);
  state->rejected = metrics_->GetCounter(
      "gmpsvm_fleet_rejected_total",
      "Requests rejected (queues full or malformed)", labels);
  state->completed = metrics_->GetCounter(
      "gmpsvm_fleet_completed_total", "Requests answered successfully",
      labels);
  state->failed = metrics_->GetCounter(
      "gmpsvm_fleet_failed_total", "Requests with terminal failures", labels);
  state->latency = metrics_->GetHistogram(
      "gmpsvm_fleet_latency_seconds", "Admission-to-response latency",
      obs::Histogram::LatencyBuckets(), labels);
  std::lock_guard<std::mutex> lock(tenants_mu_);
  max_priority_ = std::max(max_priority_, spec.priority);
  tenant_states_[spec.name] = std::move(state);
  return version;
}

Result<int64_t> FleetServer::SwapTenantModel(const std::string& tenant,
                                             MpSvmModel model) {
  return tenants_.SwapModel(tenant, std::move(model));
}

FleetServer::TenantState* FleetServer::FindTenant(const std::string& name) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  const auto it = tenant_states_.find(name);
  return it == tenant_states_.end() ? nullptr : it->second.get();
}

Result<std::future<Result<PredictResponse>>> FleetServer::Submit(
    const std::string& tenant, std::span<const int32_t> indices,
    std::span<const double> values, Deadline deadline) {
  TenantState* state = FindTenant(tenant);
  if (state == nullptr) {
    return Status::FailedPrecondition("no such tenant: " + tenant);
  }
  state->submitted->Increment();

  // Gate 1: the tenant's own admission quota.
  const double now = clock_.ElapsedSeconds();
  if (!state->bucket->TryAcquire(now)) {
    state->shed_quota->Increment();
    return Status::Unavailable(StrPrintf(
        "tenant %s over admission quota; retry after %.3f s", tenant.c_str(),
        state->bucket->RetryAfterSeconds(now)));
  }

  if (!serving_.load()) {
    state->rejected->Increment();
    return Status::FailedPrecondition("fleet is not serving");
  }
  const size_t depth = router_.total_queue_depth();
  const size_t capacity = router_.total_capacity();

  // Gate 2: the overload priority ladder — lowest priority sheds first.
  const double fraction =
      capacity > 0 ? static_cast<double>(depth) / static_cast<double>(capacity)
                   : 0.0;
  const double shed_start = options_.shed_start_fraction;
  if (shed_start < 1.0 && fraction > shed_start) {
    int ladder_top;
    {
      std::lock_guard<std::mutex> tenants_lock(tenants_mu_);
      ladder_top = max_priority_;
    }
    const double rung =
        shed_start + (1.0 - shed_start) *
                         (static_cast<double>(state->spec.priority) + 1.0) /
                         (static_cast<double>(ladder_top) + 1.0);
    if (fraction > rung) {
      state->shed_overload->Increment();
      return Status::Unavailable(StrPrintf(
          "fleet overloaded (queues %.0f%% full); tenant %s (priority %d) "
          "shed; retry after %.3f s",
          fraction * 100.0, tenant.c_str(), state->spec.priority,
          0.01 * fraction));
    }
  }

  auto submitted = router_.Submit(
      indices, values, deadline, TenantRegistry::ModelKey(tenant),
      [state](const Result<PredictResponse>& response) {
        if (response.ok()) {
          state->completed->Increment();
          state->latency->Observe(response->total_seconds);
        } else {
          state->failed->Increment();
        }
      });
  (submitted.ok() ? state->admitted : state->rejected)->Increment();
  return submitted;
}

Result<PredictResponse> FleetServer::Predict(const std::string& tenant,
                                             std::span<const int32_t> indices,
                                             std::span<const double> values,
                                             Deadline deadline) {
  return AwaitResponse(Submit(tenant, indices, values, deadline), deadline);
}

ScaleDecision FleetServer::ScaleTick() {
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  if (!serving_.load()) return ScaleDecision::kHold;
  const size_t depth = router_.total_queue_depth();
  const int count = router_.num_replicas();
  replicas_gauge_->Set(static_cast<double>(count));
  queue_depth_gauge_->Set(static_cast<double>(depth));
  mean_depth_gauge_->Set(static_cast<double>(depth) / count);

  // The policy consumes the published gauge, keeping "gauge-driven" literal:
  // what a dashboard shows is exactly what the autoscaler saw.
  const ScaleDecision decision =
      autoscaler_.Tick(mean_depth_gauge_->Value(), count);
  if (decision == ScaleDecision::kScaleUp) {
    if (AddReplicaLocked().ok()) {
      scale_ups_->Increment();
      replicas_gauge_->Set(static_cast<double>(count + 1));
    }
  } else if (decision == ScaleDecision::kScaleDown) {
    std::unique_ptr<InferenceServer> victim = router_.RetireNewest();
    scale_downs_->Increment();
    replicas_gauge_->Set(static_cast<double>(count - 1));
    lock.unlock();
    // Drain-and-retire outside the lock: accepted requests are answered
    // while new submissions route to the surviving replicas.
    (void)victim->Shutdown();
  }
  return decision;
}

Status FleetServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (shut_down_) return Status::OK();
    shut_down_ = true;
    serving_ = false;
  }
  const Status status = router_.Shutdown();
  replicas_gauge_->Set(0.0);
  return status;
}

FleetStatsSnapshot FleetServer::Snapshot() const {
  FleetStatsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    for (const auto& [name, state] : tenant_states_) {
      TenantStatsSnapshot tenant;
      tenant.tenant = name;
      tenant.submitted = static_cast<uint64_t>(state->submitted->Value());
      tenant.admitted = static_cast<uint64_t>(state->admitted->Value());
      tenant.shed_quota = static_cast<uint64_t>(state->shed_quota->Value());
      tenant.shed_overload =
          static_cast<uint64_t>(state->shed_overload->Value());
      tenant.rejected = static_cast<uint64_t>(state->rejected->Value());
      tenant.completed = static_cast<uint64_t>(state->completed->Value());
      tenant.failed = static_cast<uint64_t>(state->failed->Value());
      const obs::HistogramSnapshot latencies = state->latency->Snapshot();
      tenant.latency_mean = latencies.Mean();
      tenant.latency_p50 = latencies.Percentile(50.0);
      tenant.latency_p95 = latencies.Percentile(95.0);
      tenant.latency_p99 = latencies.Percentile(99.0);
      tenant.latency_max = latencies.Max();
      snap.tenants.push_back(std::move(tenant));
    }
  }
  snap.replicas = num_replicas();
  const int workers = std::max(1, options_.serve.num_workers);
  for (obs::MetricsRegistry* registry : router_.replica_registries()) {
    for (int w = 0; w < workers; ++w) {
      const obs::Labels labels{{"worker", std::to_string(w)}};
      snap.kernel_values_computed += static_cast<int64_t>(
          registry
              ->GetCounter("gmpsvm_kernel_values_computed_total",
                           "Kernel-function evaluations actually computed.",
                           labels)
              ->Value());
      snap.kernel_values_reused += static_cast<int64_t>(
          registry
              ->GetCounter("gmpsvm_kernel_values_reused_total",
                           "Kernel values served from a buffer instead of "
                           "recomputed.",
                           labels)
              ->Value());
    }
  }
  snap.scale_ups = static_cast<uint64_t>(scale_ups_->Value());
  snap.scale_downs = static_cast<uint64_t>(scale_downs_->Value());
  snap.sv = sv_store_.stats();
  return snap;
}

std::string FleetStatsSnapshot::ToTable() const {
  TablePrinter table({"tenant", "submitted", "admitted", "shed", "rejected",
                      "completed", "failed", "p50 ms", "p95 ms", "p99 ms"});
  for (const TenantStatsSnapshot& tenant : tenants) {
    table.AddRow({tenant.tenant, std::to_string(tenant.submitted),
                  std::to_string(tenant.admitted),
                  std::to_string(tenant.shed_quota + tenant.shed_overload),
                  std::to_string(tenant.rejected),
                  std::to_string(tenant.completed),
                  std::to_string(tenant.failed),
                  StrPrintf("%.3f", tenant.latency_p50 * 1e3),
                  StrPrintf("%.3f", tenant.latency_p95 * 1e3),
                  StrPrintf("%.3f", tenant.latency_p99 * 1e3)});
  }
  std::string out = table.ToString();
  out += StrPrintf(
      "replicas %d (scale-ups %llu, scale-downs %llu)\n"
      "kernel values: computed %lld, reused %lld\n"
      "sv store: pool %lld, unique %lld, hits %lld, misses %lld, evicted "
      "%lld\n",
      replicas, static_cast<unsigned long long>(scale_ups),
      static_cast<unsigned long long>(scale_downs),
      static_cast<long long>(kernel_values_computed),
      static_cast<long long>(kernel_values_reused),
      static_cast<long long>(sv.pool_rows), static_cast<long long>(sv.unique_svs),
      static_cast<long long>(sv.hits), static_cast<long long>(sv.misses),
      static_cast<long long>(sv.values_evicted));
  return out;
}

}  // namespace gmpsvm::fleet
