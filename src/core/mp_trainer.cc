#include "core/mp_trainer.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/model_io.h"
#include "core/shared_blocks.h"
#include "device/fork_join.h"
#include "fault/fault_injector.h"
#include "prob/pairwise_coupling.h"

namespace gmpsvm {
namespace {

// Accumulates trained binary SVMs into a model with (optionally deduplicated)
// support-vector pool.
class ModelBuilder {
 public:
  ModelBuilder(const Dataset* dataset, const MpTrainOptions& options)
      : dataset_(dataset), options_(options) {
    model_.num_classes = dataset->num_classes();
    model_.c = options.c;
    model_.kernel = options.kernel;
  }

  // Support-vector pool indices depend on insertion order, so callers must
  // feed pairs in ClassPairs() order — this is what keeps resumed runs
  // byte-identical to uninterrupted ones.
  void AddEntry(const PairCheckpoint& pair) {
    BinarySvmEntry entry;
    entry.class_s = pair.class_s;
    entry.class_t = pair.class_t;
    entry.bias = pair.bias;
    entry.sigmoid = pair.sigmoid;
    for (size_t m = 0; m < pair.sv_rows.size(); ++m) {
      entry.sv_pool_index.push_back(PoolIndex(pair.sv_rows[m]));
      entry.sv_coef.push_back(pair.sv_coef[m]);
    }
    model_.svms.push_back(std::move(entry));
  }

  MpSvmModel Finish() {
    model_.support_vectors = dataset_->features().SelectRows(pool_rows_);
    model_.pool_source_rows = std::move(pool_rows_);
    // Cascade statistics (docs/cascade.md): a pure function of the dataset's
    // class priors and each pair's Platt slope, so sequential, pair-parallel,
    // cluster, and resumed runs all stamp identical stats. |sigmoid.a| is the
    // calibrated sharpness of the pair's decision boundary (degraded pairs
    // have a zero slope and sort last); weighting by the priors puts pairs
    // that can eliminate the most probability mass first.
    const double total = static_cast<double>(dataset_->size());
    model_.cascade.clear();
    model_.cascade.reserve(model_.svms.size());
    for (const BinarySvmEntry& svm : model_.svms) {
      PairCascadeStats stats;
      if (total > 0.0) {
        stats.prior_s =
            static_cast<double>(dataset_->ClassRows(svm.class_s).size()) / total;
        stats.prior_t =
            static_cast<double>(dataset_->ClassRows(svm.class_t).size()) / total;
      }
      stats.score = std::abs(svm.sigmoid.a) * (stats.prior_s + stats.prior_t);
      model_.cascade.push_back(stats);
    }
    return std::move(model_);
  }

 private:
  int32_t PoolIndex(int32_t global_row) {
    if (options_.share_support_vectors) {
      auto [it, inserted] =
          pool_map_.try_emplace(global_row, static_cast<int32_t>(pool_rows_.size()));
      if (inserted) pool_rows_.push_back(global_row);
      return it->second;
    }
    pool_rows_.push_back(global_row);
    return static_cast<int32_t>(pool_rows_.size() - 1);
  }

  const Dataset* dataset_;
  const MpTrainOptions& options_;
  MpSvmModel model_;
  std::vector<int32_t> pool_rows_;
  std::unordered_map<int32_t, int32_t> pool_map_;
};

// Decision values on the training instances come for free from the final
// optimality indicators: v_i = f_i + y_i + b (Equation 3 vs Equation 11).
std::vector<double> TrainingDecisionValues(const BinaryProblem& problem,
                                           const BinarySolution& solution) {
  std::vector<double> v(solution.f.size());
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = solution.f[i] + static_cast<double>(problem.y[i]) + solution.bias;
  }
  return v;
}

// Distills a solved pair into its checkpoint-shaped result: the positive
// alphas as (global row, alpha * y) plus bias and sigmoid. Model entries are
// rebuilt from this whether the pair was just trained or loaded from disk, so
// the two paths cannot diverge.
PairCheckpoint DistillPair(int s, int t, const BinaryProblem& problem,
                           const BinarySolution& solution,
                           const SigmoidParams& sigmoid) {
  PairCheckpoint pair;
  pair.class_s = s;
  pair.class_t = t;
  pair.bias = solution.bias;
  pair.sigmoid = sigmoid;
  for (int64_t i = 0; i < problem.n(); ++i) {
    const double a = solution.alpha[static_cast<size_t>(i)];
    if (a <= 0.0) continue;
    pair.sv_rows.push_back(problem.rows[static_cast<size_t>(i)]);
    pair.sv_coef.push_back(a * static_cast<double>(problem.y[static_cast<size_t>(i)]));
  }
  return pair;
}

// The neutral entry a pair degrades to: no SVs, decision value 0, sigmoid
// {0, 0} so the pairwise probability is exactly 0.5.
PairCheckpoint DegradedPair(int s, int t) {
  PairCheckpoint pair;
  pair.class_s = s;
  pair.class_t = t;
  pair.degraded = true;
  return pair;
}

// Seed of the checkpoint fingerprint hashes: one digit short of the standard
// FNV offset basis. Existing checkpoint directories carry fingerprints made
// with it, so it must not change.
constexpr uint64_t kCheckpointFnvSeed = 1469598103934665603ull;

// Fingerprint of (dataset shape + content + the options that affect the
// numeric result). Content means the actual labels and CSR feature arrays —
// two same-shaped datasets must not collide, or a resume would silently mix
// pairs trained on different data.
uint64_t TrainFingerprint(const Dataset& dataset, const MpTrainOptions& options) {
  std::ostringstream key;
  key.precision(17);
  key << dataset.size() << " " << dataset.dim() << " " << dataset.num_classes();
  for (int k = 0; k < dataset.num_classes(); ++k) {
    key << " " << dataset.ClassRows(k).size();
  }
  uint64_t content = kCheckpointFnvSeed;
  const auto& labels = dataset.labels();
  content = Fnv1a64(labels.data(), labels.size() * sizeof(labels[0]), content);
  const CsrMatrix& features = dataset.features();
  content = Fnv1a64(features.col_idx().data(),
                    features.col_idx().size() * sizeof(int32_t), content);
  content = Fnv1a64(features.values().data(),
                    features.values().size() * sizeof(double), content);
  key << " content=" << content;
  key << " c=" << options.c
      << " kernel=" << KernelTypeToString(options.kernel.type)
      << " gamma=" << options.kernel.gamma
      << " coef0=" << options.kernel.coef0
      << " degree=" << options.kernel.degree
      << " eps=" << options.batch.eps
      << " ws=" << options.batch.working_set.ws_size
      << " cv=" << options.sigmoid_cv_folds
      << " shared_sv=" << (options.share_support_vectors ? 1 : 0);
  for (double w : options.class_weights) key << " w=" << w;
  const std::string text = key.str();
  return Fnv1a64(text.data(), text.size(), kCheckpointFnvSeed);
}

// Manages the checkpoint directory for one training run: loads completed
// pairs on resume, persists each newly completed pair, and flushes the
// manifest per the every_n_pairs cadence.
class CheckpointSession {
 public:
  Status Init(const TrainCheckpointOptions& options, uint64_t fingerprint,
              int num_classes, MpTrainReport* report) {
    options_ = options;
    if (!enabled()) return Status::OK();
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);
    if (ec) {
      return Status::IoError("cannot create checkpoint dir " + options_.dir +
                             ": " + ec.message());
    }
    manifest_.fingerprint = fingerprint;
    manifest_.num_classes = num_classes;
    const std::string manifest_path = ManifestPath();
    if (options_.resume && std::filesystem::exists(manifest_path)) {
      GMP_ASSIGN_OR_RETURN(CheckpointManifest on_disk,
                           LoadCheckpointManifest(manifest_path));
      if (on_disk.fingerprint != fingerprint) {
        return Status::InvalidArgument(StrPrintf(
            "checkpoint manifest fingerprint %llu does not match this "
            "dataset/configuration (%llu); refusing to resume",
            static_cast<unsigned long long>(on_disk.fingerprint),
            static_cast<unsigned long long>(fingerprint)));
      }
      if (on_disk.num_classes != num_classes) {
        return Status::InvalidArgument(
            StrPrintf("checkpoint manifest has %d classes, dataset has %d",
                      on_disk.num_classes, num_classes));
      }
      for (const auto& [s, t] : on_disk.completed) {
        GMP_ASSIGN_OR_RETURN(
            PairCheckpoint pair,
            LoadPairCheckpoint(options_.dir + "/" + PairCheckpointFileName(s, t)));
        if (pair.class_s != s || pair.class_t != t) {
          return Status::InvalidArgument(
              StrPrintf("pair checkpoint %d-%d names pair %d-%d", s, t,
                        pair.class_s, pair.class_t));
        }
        // Degraded pairs are retrained on resume rather than carried over.
        if (pair.degraded) continue;
        manifest_.completed.emplace_back(s, t);
        loaded_.emplace(std::make_pair(s, t), std::move(pair));
        if (report != nullptr) ++report->pairs_resumed;
      }
    }
    return Status::OK();
  }

  bool enabled() const { return !options_.dir.empty(); }

  const PairCheckpoint* Loaded(int s, int t) const {
    auto it = loaded_.find(std::make_pair(s, t));
    return it == loaded_.end() ? nullptr : &it->second;
  }

  Status OnPairComplete(const PairCheckpoint& pair) {
    if (!enabled()) return Status::OK();
    GMP_RETURN_NOT_OK(SavePairCheckpoint(
        pair, options_.dir + "/" +
                  PairCheckpointFileName(pair.class_s, pair.class_t)));
    manifest_.completed.emplace_back(pair.class_s, pair.class_t);
    if (++unflushed_ >= std::max(1, options_.every_n_pairs)) {
      return Flush();
    }
    return Status::OK();
  }

  Status Flush() {
    if (!enabled()) return Status::OK();
    unflushed_ = 0;
    return SaveCheckpointManifest(manifest_, ManifestPath());
  }

 private:
  std::string ManifestPath() const {
    return options_.dir + "/" + kCheckpointManifestFileName;
  }

  TrainCheckpointOptions options_;
  CheckpointManifest manifest_;
  std::map<std::pair<int, int>, PairCheckpoint> loaded_;
  int unflushed_ = 0;
};

// Runs `attempt` for pair (s, t) under the options' retry policy, counting
// retries in `retries`. Transient (kUnavailable) failures are retried with
// exponential backoff charged as simulated time to `stream`; exhaustion
// either propagates (kFailFast) or yields a degraded neutral pair
// (kSkipDegraded). Any other error propagates immediately.
Result<PairCheckpoint> RunPairWithRetry(
    const MpTrainOptions& options, SimExecutor* executor, StreamId stream,
    int s, int t, const std::function<Result<PairCheckpoint>()>& attempt,
    int64_t* retries) {
  const fault::RetryPolicy& policy = options.pair_retry;
  for (int att = 1;; ++att) {
    Result<PairCheckpoint> result = attempt();
    if (result.ok()) return result;
    if (!fault::IsTransientFault(result.status())) return result.status();
    if (att >= policy.max_attempts) {
      if (options.pair_failure_policy == PairFailurePolicy::kFailFast) {
        return Status::Unavailable(StrPrintf(
            "pair %dv%d failed after %d attempts: %s", s, t, att,
            result.status().message().c_str()));
      }
      GMP_LOG(Warning) << "pair " << s << "v" << t << " degraded after " << att
                       << " attempts: " << result.status().message();
      return DegradedPair(s, t);
    }
    ++*retries;
    const uint64_t seed =
        (static_cast<uint64_t>(s) << 32) | static_cast<uint64_t>(t);
    executor->AdvanceStream(stream, fault::BackoffSeconds(policy, att, seed),
                            "retry_backoff");
  }
}

// Consults the fault plan's simulated-kill knob after `completed_this_run`
// newly trained pairs; on interrupt, flushes the checkpoint manifest so a
// resume can pick up from here.
Status MaybeInterrupt(SimExecutor* executor, CheckpointSession* ckpt,
                      int64_t completed_this_run) {
  fault::FaultInjector* injector = executor->fault_injector();
  if (injector == nullptr ||
      !injector->ShouldInterruptTraining(completed_this_run)) {
    return Status::OK();
  }
  GMP_RETURN_NOT_OK(ckpt->Flush());
  return Status::Unavailable(
      StrPrintf("training interrupted by fault plan after %lld pairs",
                static_cast<long long>(completed_this_run)));
}

void FillReport(SimExecutor* executor, double sim_base,
                const ExecutorCounters& counters_base, const Stopwatch& wall,
                MpTrainReport* report) {
  if (report == nullptr) return;
  report->sim_seconds = executor->NowSeconds() - sim_base;
  report->wall_seconds = wall.ElapsedSeconds();
  report->kernel_values_computed =
      executor->counters().kernel_values_computed - counters_base.kernel_values_computed;
  report->kernel_values_reused =
      executor->counters().kernel_values_reused - counters_base.kernel_values_reused;
  report->peak_device_bytes = executor->counters().peak_bytes_in_use;
}

// One attempt at pair (s, t) at `placement`: the binary solve, then the
// sigmoid fit on the coordinator's stream (Section 3.3.2). A sharded
// placement, the shared block cache and warm seeds solve with the batched
// solver; otherwise `solve` runs, or the batched solver when it is null. CV
// folds re-solve sub-problems whole with `solve` on the coordinator.
Result<PairCheckpoint> SolvePairOnce(
    const MpTrainOptions& options, const BinarySolveFn& solve,
    const KernelComputer& computer, const PairPlacement& placement, int s,
    int t, const BinaryProblem& problem, std::span<const double> warm_alpha,
    PairTrainOutcome::Attempt* attempt) {
  SimExecutor* const exec = placement.executor;
  const StreamId stream = placement.stream;
  const BatchSmoSolver batch(options.batch);
  const BinarySolveFn batch_solve =
      [&batch](const BinaryProblem& p, const KernelComputer& kc, SimExecutor* e,
               StreamId str, SolverStats* stats) {
        return batch.Solve(p, kc, e, str, stats);
      };
  const BinarySolveFn& plain_solve = solve != nullptr ? solve : batch_solve;

  BinarySolution solution;
  const double smo_t0 = exec->StreamTime(stream);
  if (!placement.shards.empty()) {
    GMP_ASSIGN_OR_RETURN(
        solution, batch.SolveSharded(problem, computer, placement.shards,
                                     placement.topology, &attempt->stats,
                                     placement.dist_stats));
  } else if (placement.cache != nullptr || !warm_alpha.empty()) {
    std::optional<SharedRowSource> shared;
    if (placement.cache != nullptr) {
      shared.emplace(&problem, s, t, placement.cache, &computer);
    }
    GMP_ASSIGN_OR_RETURN(
        solution,
        batch.SolveWarm(problem, computer, shared ? &*shared : nullptr,
                        warm_alpha, exec, stream, &attempt->stats));
  } else {
    GMP_ASSIGN_OR_RETURN(solution, plain_solve(problem, computer, exec, stream,
                                               &attempt->stats));
  }
  RecordPhaseSpan(exec, stream, StrPrintf("smo %dv%d", s, t), smo_t0,
                  exec->StreamTime(stream));

  std::vector<double> v;
  if (options.sigmoid_cv_folds >= 2) {
    GMP_ASSIGN_OR_RETURN(
        v, CrossValidatedDecisionValues(problem, computer, plain_solve,
                                        options.sigmoid_cv_folds,
                                        /*seed=*/1u, exec, stream));
  } else {
    v = TrainingDecisionValues(problem, solution);
  }
  const double sigmoid_t0 = exec->StreamTime(stream);
  GMP_ASSIGN_OR_RETURN(
      SigmoidParams sigmoid,
      FitSigmoid(v, problem.y, options.platt, exec, stream,
                 options.platt_parallel_candidates));
  RecordPhaseSpan(exec, stream, StrPrintf("sigmoid %dv%d", s, t), sigmoid_t0,
                  exec->StreamTime(stream));
  attempt->sigmoid_seconds = exec->StreamTime(stream) - sigmoid_t0;
  attempt->sigmoid_done = true;
  return DistillPair(s, t, problem, solution, sigmoid);
}

// Greedily packs `todo` (indices into `pairs`) into concurrent groups under
// the executor's memory budget: each pair needs its kernel buffer
// (min(ws, n_pair) * n_pair doubles) on the device, and a group never exceeds
// max_concurrent_svms.
std::vector<std::vector<size_t>> PackPairGroups(
    const Dataset& dataset, const MpTrainOptions& options,
    const SimExecutor& executor, const std::vector<size_t>& todo,
    const std::vector<std::pair<int, int>>& pairs) {
  const int64_t ws_rows = std::max(2, options.batch.working_set.ws_size);
  const size_t budget = executor.memory_budget();
  std::vector<std::vector<size_t>> groups;
  std::vector<size_t> current;
  size_t current_bytes = 0;
  const size_t usable = budget > executor.bytes_in_use()
                            ? (budget - executor.bytes_in_use()) * 6 / 10
                            : 0;
  for (size_t p : todo) {
    const auto& [s, t] = pairs[p];
    const int64_t n_pair =
        static_cast<int64_t>(dataset.ClassRows(s).size() +
                             dataset.ClassRows(t).size());
    const size_t need = static_cast<size_t>(std::min<int64_t>(ws_rows, n_pair) *
                                            n_pair) *
                        sizeof(double);
    const bool full = !current.empty() &&
                      (static_cast<int>(current.size()) >=
                           std::max(1, options.max_concurrent_svms) ||
                       current_bytes + need > usable);
    if (full) {
      groups.push_back(std::move(current));
      current.clear();
      current_bytes = 0;
    }
    current.push_back(p);
    current_bytes += need;
  }
  if (!current.empty()) groups.push_back(std::move(current));
  return groups;
}

// Both single-device trainers: a checkpoint session around one device pair
// loop, the report merged attempt by attempt in pair order, and the model
// assembled in ClassPairs() order. `sequential_solve` as in
// TrainPairsOnDevice.
Result<MpSvmModel> TrainOnOneDevice(const Dataset& dataset,
                                    const MpTrainOptions& options,
                                    SimExecutor* executor,
                                    const BinarySolveFn& sequential_solve,
                                    MpTrainReport* report) {
  GMP_RETURN_NOT_OK(options.Validate(dataset.num_classes()));
  Stopwatch wall;
  executor->SynchronizeAll();
  const double sim_base = executor->NowSeconds();
  const ExecutorCounters counters_base = executor->counters();

  CheckpointSession ckpt;
  GMP_RETURN_NOT_OK(ckpt.Init(options.checkpoint,
                              TrainFingerprint(dataset, options),
                              dataset.num_classes(), report));
  const auto pairs = dataset.ClassPairs();
  std::vector<PairCheckpoint> checkpoints(pairs.size());
  std::vector<size_t> todo;  // indices into `pairs` that still need training
  for (size_t p = 0; p < pairs.size(); ++p) {
    const auto [s, t] = pairs[p];
    if (const PairCheckpoint* loaded = ckpt.Loaded(s, t)) {
      checkpoints[p] = *loaded;
    } else {
      todo.push_back(p);
    }
  }

  int64_t completed_this_run = 0;
  GMP_ASSIGN_OR_RETURN(
      std::vector<PairTrainOutcome> outcomes,
      TrainPairsOnDevice(
          dataset, options, executor, todo, /*injector_factory=*/nullptr,
          /*warm_start=*/nullptr,
          [&](const PairTrainOutcome& outcome) -> Status {
            if (report != nullptr) {
              MergePairOutcome(outcome, /*per_attempt=*/true, report);
            }
            GMP_RETURN_NOT_OK(ckpt.OnPairComplete(outcome.checkpoint));
            return MaybeInterrupt(executor, &ckpt, ++completed_this_run);
          },
          sequential_solve));
  for (PairTrainOutcome& outcome : outcomes) {
    checkpoints[outcome.pair_index] = std::move(outcome.checkpoint);
  }
  GMP_RETURN_NOT_OK(ckpt.Flush());
  FillReport(executor, sim_base, counters_base, wall, report);
  return AssembleModelFromPairs(dataset, options, checkpoints);
}

}  // namespace

Status MpTrainOptions::Validate(int num_classes) const {
  if (!(c > 0.0)) {
    return Status::InvalidArgument(StrPrintf("c must be positive, got %g", c));
  }
  GMP_RETURN_NOT_OK(batch.Validate());
  if (!class_weights.empty()) {
    if (num_classes > 0 &&
        class_weights.size() != static_cast<size_t>(num_classes)) {
      return Status::InvalidArgument(
          StrPrintf("class_weights size (%zu) must equal num_classes (%d)",
                    class_weights.size(), num_classes));
    }
    for (size_t k = 0; k < class_weights.size(); ++k) {
      if (!(class_weights[k] > 0.0)) {
        return Status::InvalidArgument(
            StrPrintf("class_weights[%zu] must be positive, got %g", k,
                      class_weights[k]));
      }
    }
  }
  if (max_concurrent_svms < 1) {
    return Status::InvalidArgument(StrPrintf(
        "max_concurrent_svms must be >= 1, got %d", max_concurrent_svms));
  }
  if (platt_parallel_candidates < 1) {
    return Status::InvalidArgument(
        StrPrintf("platt_parallel_candidates must be >= 1, got %d",
                  platt_parallel_candidates));
  }
  if (sigmoid_cv_folds < 0 || sigmoid_cv_folds == 1) {
    return Status::InvalidArgument(StrPrintf(
        "sigmoid_cv_folds must be 0 or >= 2, got %d", sigmoid_cv_folds));
  }
  GMP_RETURN_NOT_OK(pair_retry.Validate());
  if (host_threads < 0) {
    return Status::InvalidArgument(
        StrPrintf("host_threads must be >= 0, got %d", host_threads));
  }
  if (checkpoint.every_n_pairs < 1) {
    return Status::InvalidArgument(
        StrPrintf("checkpoint.every_n_pairs must be >= 1, got %d",
                  checkpoint.every_n_pairs));
  }
  if (checkpoint.resume && checkpoint.dir.empty()) {
    return Status::InvalidArgument(
        "checkpoint.resume requires checkpoint.dir to be set");
  }
  return Status::OK();
}

void MpTrainReport::PublishTo(obs::MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->GetGauge("gmpsvm_train_sim_seconds",
                     "Simulated seconds from training start to model completion.")
      ->Set(sim_seconds);
  registry->GetGauge("gmpsvm_train_wall_seconds",
                     "Host wall-clock seconds spent training.")
      ->Set(wall_seconds);
  registry->GetCounter("gmpsvm_train_solver_iterations_total",
                       "SMO subproblems solved across all binary SVMs.")
      ->Add(static_cast<double>(solver.iterations));
  registry->GetCounter("gmpsvm_train_solver_outer_rounds_total",
                       "Working-set refreshes across all binary SVMs.")
      ->Add(static_cast<double>(solver.outer_rounds));
  registry->GetCounter("gmpsvm_train_kernel_rows_computed_total",
                       "Kernel rows computed by the solvers.")
      ->Add(static_cast<double>(solver.kernel_rows_computed));
  registry->GetCounter("gmpsvm_train_kernel_rows_reused_total",
                       "Kernel rows served from the buffer by the solvers.")
      ->Add(static_cast<double>(solver.kernel_rows_reused));
  registry->GetCounter("gmpsvm_train_kernel_values_computed_total",
                       "Kernel values computed during training.")
      ->Add(static_cast<double>(kernel_values_computed));
  registry->GetCounter("gmpsvm_train_kernel_values_reused_total",
                       "Kernel values reused during training.")
      ->Add(static_cast<double>(kernel_values_reused));
  registry->GetGauge("gmpsvm_train_peak_device_bytes",
                     "Peak simulated device memory during training.")
      ->SetMax(static_cast<double>(peak_device_bytes));
  registry->GetCounter("gmpsvm_train_pair_retries_total",
                       "Whole-pair retries after transient faults.")
      ->Add(static_cast<double>(pair_retries));
  registry->GetCounter("gmpsvm_train_pairs_degraded_total",
                       "Pairs that exhausted retries and emitted a neutral entry.")
      ->Add(static_cast<double>(pairs_degraded));
  registry->GetCounter("gmpsvm_train_pairs_resumed_total",
                       "Pairs loaded from a checkpoint instead of trained.")
      ->Add(static_cast<double>(pairs_resumed));
  registry->GetCounter("gmpsvm_train_kernel_row_retries_total",
                       "Retried batched kernel-row computations inside the solver.")
      ->Add(static_cast<double>(solver.kernel_row_retries));
  registry->GetCounter("gmpsvm_train_alloc_retries_total",
                       "Retried device allocations inside the solver.")
      ->Add(static_cast<double>(solver.alloc_retries));
  registry->GetCounter("gmpsvm_train_rows_poisoned_total",
                       "Kernel buffer rows poisoned by injected eviction faults.")
      ->Add(static_cast<double>(solver.rows_poisoned));
  for (const auto& [phase, seconds] : phases.phases()) {
    registry
        ->GetCounter("gmpsvm_train_phase_sim_seconds_total",
                     "Simulated seconds attributed to a training phase.",
                     {{"phase", phase}})
        ->Add(seconds);
  }
}

Result<MpSvmModel> SequentialMpTrainer::Train(const Dataset& dataset,
                                              SimExecutor* executor,
                                              MpTrainReport* report) const {
  // The baseline fits each sigmoid one backtracking candidate at a time.
  MpTrainOptions options = options_;
  options.platt_parallel_candidates = 1;
  const SmoSolver solver(options.smo);
  return TrainOnOneDevice(
      dataset, options, executor,
      [&solver](const BinaryProblem& problem, const KernelComputer& computer,
                SimExecutor* exec, StreamId stream, SolverStats* stats) {
        return solver.Solve(problem, computer, exec, stream, stats);
      },
      report);
}

Result<MpSvmModel> GmpSvmTrainer::Train(const Dataset& dataset,
                                        SimExecutor* executor,
                                        MpTrainReport* report) const {
  return TrainOnOneDevice(dataset, options_, executor,
                          /*sequential_solve=*/nullptr, report);
}

PairFaultInjectorFactory MakePairFaultInjectorFactory(
    const std::optional<fault::FaultPlan>& plan, obs::MetricsRegistry* metrics) {
  if (!plan.has_value()) return nullptr;
  return [base_plan = *plan, metrics](size_t pair_index)
             -> std::unique_ptr<fault::FaultInjector> {
    fault::FaultPlan pair_plan = base_plan;
    pair_plan.seed = SplitMix64(base_plan.seed ^ SplitMix64(0x70A1Bull + pair_index));
    // Pair injectors never consult kDeviceLoss/kNodeLoss (trainers draw
    // losses separately), so those probabilities staying set is harmless.
    return std::make_unique<fault::FaultInjector>(pair_plan, metrics);
  };
}

BinaryProblem MakeTrainPairProblem(const Dataset& dataset,
                                   const MpTrainOptions& options, int s, int t) {
  BinaryProblem problem = dataset.MakePairProblem(s, t, options.c, options.kernel);
  if (!options.class_weights.empty()) {
    problem.weight_pos = options.class_weights[static_cast<size_t>(s)];
    problem.weight_neg = options.class_weights[static_cast<size_t>(t)];
  }
  return problem;
}

void MergePairOutcome(const PairTrainOutcome& outcome, bool per_attempt,
                      MpTrainReport* report) {
  auto merge = [report](const SolverStats& stats, double sigmoid_seconds,
                        bool sigmoid_done) {
    if (sigmoid_done) report->phases.Add("sigmoid", sigmoid_seconds);
    report->solver.Merge(stats);
    report->phases.Merge(stats.phases);
  };
  if (per_attempt) {
    for (const PairTrainOutcome::Attempt& attempt : outcome.attempts) {
      merge(attempt.stats, attempt.sigmoid_seconds, attempt.sigmoid_done);
    }
  } else {
    merge(outcome.stats, outcome.sigmoid_seconds, outcome.sigmoid_done);
  }
  report->pair_retries += outcome.retries;
  if (outcome.degraded) ++report->pairs_degraded;
}

Result<PairTrainOutcome> TrainPair(
    const MpTrainOptions& options, const KernelComputer& computer,
    size_t pair_index, int s, int t, const BinaryProblem& problem,
    const PairPlacement& placement,
    const PairFaultInjectorFactory& injector_factory,
    std::span<const double> warm_alpha, const BinarySolveFn& solve) {
  SimExecutor* const executor = placement.executor;
  fault::FaultInjector* const base_injector = executor->fault_injector();
  std::unique_ptr<fault::FaultInjector> pair_injector;
  if (injector_factory != nullptr) {
    pair_injector = injector_factory(pair_index);
    executor->SetFaultInjector(pair_injector.get());
  }

  PairTrainOutcome outcome;
  outcome.pair_index = pair_index;
  auto attempt = [&]() -> Result<PairCheckpoint> {
    PairTrainOutcome::Attempt& record = outcome.attempts.emplace_back();
    Result<PairCheckpoint> result =
        SolvePairOnce(options, solve, computer, placement, s, t, problem,
                      warm_alpha, &record);
    // Work done by failed attempts still counts toward the pair.
    outcome.stats.Merge(record.stats);
    outcome.sigmoid_seconds += record.sigmoid_seconds;
    outcome.sigmoid_done = outcome.sigmoid_done || record.sigmoid_done;
    return result;
  };
  Result<PairCheckpoint> pair = RunPairWithRetry(
      options, executor, placement.stream, s, t, attempt, &outcome.retries);
  if (injector_factory != nullptr) executor->SetFaultInjector(base_injector);
  if (!pair.ok()) return pair.status();
  outcome.checkpoint = std::move(pair).value();
  outcome.degraded = outcome.checkpoint.degraded;
  return outcome;
}

Result<std::vector<PairTrainOutcome>> TrainPairsOnDevice(
    const Dataset& dataset, const MpTrainOptions& options,
    SimExecutor* executor, const std::vector<size_t>& pair_indices,
    const PairFaultInjectorFactory& injector_factory,
    const PairWarmStartProvider& warm_start,
    const PairCompleteCallback& on_pair_complete,
    const BinarySolveFn& sequential_solve) {
  GMP_RETURN_NOT_OK(options.Validate(dataset.num_classes()));
  const auto pairs = dataset.ClassPairs();
  for (size_t p : pair_indices) {
    if (p >= pairs.size()) {
      return Status::InvalidArgument(
          StrPrintf("pair index %zu out of range (dataset has %zu pairs)", p,
                    pairs.size()));
    }
  }
  executor->SynchronizeAll();

  // Each device pays for its own copy of the training data — there is no
  // modeled device-to-device interconnect (docs/cost_model.md).
  const double load_t0 = executor->StreamTime(kDefaultStream);
  executor->Transfer(kDefaultStream,
                     static_cast<double>(dataset.features().ByteSize()),
                     TransferDirection::kHostToDevice);
  RecordPhaseSpan(executor, kDefaultStream, "data_load", load_t0,
                  executor->StreamTime(kDefaultStream));

  KernelComputer computer(&dataset.features(), options.kernel);
  const bool sequential = sequential_solve != nullptr;
  // Per-executor shared block cache: later pairs reuse earlier pairs' class
  // segments; there is no cross-device sharing.
  std::unique_ptr<SharedBlockCache> cache;
  if (options.share_kernel_blocks && !sequential) {
    cache = std::make_unique<SharedBlockCache>(
        &dataset, &computer, options.shared_cache_bytes, executor);
  }
  std::vector<std::vector<size_t>> groups;
  if (!sequential) {
    groups = PackPairGroups(dataset, options, *executor, pair_indices, pairs);
  } else if (!pair_indices.empty()) {
    groups.push_back(pair_indices);
  }

  // The pair-parallel gate. Per-pair injectors and the executor's own
  // injector consume fault decisions in pair order, and the shared block
  // cache's hit/miss accounting depends on the order pairs touch it, so all
  // three keep the loop serial; every output is thread-count invariant.
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* const pool =
      injector_factory == nullptr && cache == nullptr
          ? ResolveForkJoinPool(executor, options.host_threads, &owned_pool)
          : nullptr;

  std::vector<PairTrainOutcome> outcomes;
  outcomes.reserve(pair_indices.size());
  for (const std::vector<size_t>& group : groups) {
    // One stream per pair in the group, each owning an equal share of SMs
    // (the paper caps SMs per binary SVM to enable concurrency); the
    // sequential baseline trains every pair on the default stream.
    std::vector<StreamId> streams(group.size(), kDefaultStream);
    if (!sequential) {
      const double share = 1.0 / static_cast<double>(group.size());
      for (StreamId& stream : streams) stream = executor->CreateStream(share);
    }
    std::vector<BinaryProblem> problems;
    std::vector<std::vector<double>> warm_alphas;
    for (size_t pair_index : group) {
      const auto [s, t] = pairs[pair_index];
      problems.push_back(MakeTrainPairProblem(dataset, options, s, t));
      warm_alphas.push_back(warm_start != nullptr
                                ? warm_start(pair_index, problems.back())
                                : std::vector<double>{});
    }
    std::vector<PairTrainOutcome> trained(group.size());
    GMP_RETURN_NOT_OK(RunForkJoin(
        executor, streams, pool,
        [&](size_t gi, SimExecutor* exec, StreamId stream) -> Status {
          const auto [s, t] = pairs[group[gi]];
          GMP_ASSIGN_OR_RETURN(
              trained[gi],
              TrainPair(options, computer, group[gi], s, t, problems[gi],
                        PairPlacement::Whole(exec, stream, cache.get()),
                        injector_factory, warm_alphas[gi], sequential_solve));
          return Status::OK();
        },
        [&](size_t gi) -> Status {
          outcomes.push_back(std::move(trained[gi]));
          return on_pair_complete != nullptr ? on_pair_complete(outcomes.back())
                                             : Status::OK();
        }));
    // Barrier between groups: buffers are reclaimed before the next group.
    executor->SynchronizeAll();
  }

  executor->SynchronizeAll();
  return outcomes;
}

Result<MpSvmModel> AssembleModelFromPairs(
    const Dataset& dataset, const MpTrainOptions& options,
    const std::vector<PairCheckpoint>& pairs_in_order) {
  GMP_RETURN_NOT_OK(options.Validate(dataset.num_classes()));
  const auto pairs = dataset.ClassPairs();
  if (pairs_in_order.size() != pairs.size()) {
    return Status::InvalidArgument(
        StrPrintf("got %zu pair checkpoints, dataset has %zu pairs",
                  pairs_in_order.size(), pairs.size()));
  }
  ModelBuilder builder(&dataset, options);
  for (size_t p = 0; p < pairs.size(); ++p) {
    const PairCheckpoint& pair = pairs_in_order[p];
    if (pair.class_s != pairs[p].first || pair.class_t != pairs[p].second) {
      return Status::InvalidArgument(StrPrintf(
          "pair checkpoint %zu is %dv%d, expected %dv%d", p, pair.class_s,
          pair.class_t, pairs[p].first, pairs[p].second));
    }
    builder.AddEntry(pair);
  }
  return builder.Finish();
}

}  // namespace gmpsvm
