#include "online/warm_retrain.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "common/string_util.h"

namespace gmpsvm::online {

Status WarmRetrainOptions::Validate(int num_classes) const {
  GMP_RETURN_NOT_OK(train.Validate(num_classes));
  if (!train.checkpoint.dir.empty() || train.checkpoint.resume) {
    return Status::InvalidArgument(
        "warm retraining does not support checkpoint/resume");
  }
  if (fault.has_value()) {
    GMP_RETURN_NOT_OK(fault->Validate());
    if (fault->interrupt_after_pairs > 0) {
      return Status::InvalidArgument(
          "warm retraining does not support interrupt_after_pairs");
    }
  }
  return Status::OK();
}

std::vector<PairCheckpoint> CheckpointsFromModel(const MpSvmModel& model) {
  std::vector<PairCheckpoint> checkpoints;
  checkpoints.reserve(model.svms.size());
  for (const BinarySvmEntry& entry : model.svms) {
    PairCheckpoint pair;
    pair.class_s = entry.class_s;
    pair.class_t = entry.class_t;
    pair.bias = entry.bias;
    pair.sigmoid = entry.sigmoid;
    pair.degraded = entry.num_svs() == 0;
    pair.sv_rows.reserve(entry.sv_pool_index.size());
    for (int32_t pool_index : entry.sv_pool_index) {
      pair.sv_rows.push_back(
          model.pool_source_rows[static_cast<size_t>(pool_index)]);
    }
    pair.sv_coef = entry.sv_coef;
    checkpoints.push_back(std::move(pair));
  }
  return checkpoints;
}

std::vector<size_t> AffectedPairIndices(
    const Dataset& dataset, const std::vector<int>& affected_classes,
    const std::vector<PairCheckpoint>& previous) {
  const auto pairs = dataset.ClassPairs();
  std::vector<bool> affected(static_cast<size_t>(dataset.num_classes()), false);
  for (int cls : affected_classes) {
    if (cls >= 0 && cls < dataset.num_classes()) {
      affected[static_cast<size_t>(cls)] = true;
    }
  }
  std::vector<size_t> indices;
  for (size_t p = 0; p < pairs.size(); ++p) {
    const auto& [s, t] = pairs[p];
    const bool touched = affected[static_cast<size_t>(s)] ||
                         affected[static_cast<size_t>(t)];
    const bool degraded = p < previous.size() && previous[p].degraded;
    if (touched || degraded) indices.push_back(p);
  }
  return indices;
}

Result<MpSvmModel> WarmRetrain(const Dataset& dataset,
                               const std::vector<PairCheckpoint>& previous,
                               const std::vector<int>& affected_classes,
                               const WarmRetrainOptions& options,
                               cluster::SimCluster* cluster,
                               WarmRetrainReport* report) {
  GMP_RETURN_NOT_OK(options.Validate(dataset.num_classes()));
  if (cluster == nullptr || cluster->num_devices() < 1) {
    return Status::InvalidArgument("cluster must have at least one device");
  }
  const auto pairs = dataset.ClassPairs();
  if (previous.size() != pairs.size()) {
    return Status::InvalidArgument(
        StrPrintf("got %zu previous checkpoints, dataset has %zu pairs",
                  previous.size(), pairs.size()));
  }
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (previous[p].class_s != pairs[p].first ||
        previous[p].class_t != pairs[p].second) {
      return Status::InvalidArgument(StrPrintf(
          "previous checkpoint %zu is %dv%d, expected %dv%d", p,
          previous[p].class_s, previous[p].class_t, pairs[p].first,
          pairs[p].second));
    }
  }

  const std::vector<size_t> retrain_indices =
      AffectedPairIndices(dataset, affected_classes, previous);

  int64_t warm_seeded_rows = 0;

  // Same per-pair injector seeding as the cluster trainer, so a pair's fault
  // sequence never depends on the device assignment.
  const PairFaultInjectorFactory injector_factory =
      MakePairFaultInjectorFactory(options.fault, options.fault_metrics);

  const int n_devices = cluster->num_devices();
  const cluster::PairAssignment assignment = cluster::SchedulePairs(
      dataset, retrain_indices, cluster->speeds(), {}, options.schedule);

  std::vector<double> base_seconds(static_cast<size_t>(n_devices), 0.0);
  for (int d = 0; d < n_devices; ++d) {
    SimExecutor* dev = cluster->device(d);
    dev->SynchronizeAll();
    base_seconds[static_cast<size_t>(d)] = dev->NowSeconds();
  }

  // One thread per device — wall-clock parallelism only, each device is an
  // independent simulator (same contract as ClusterTrainer). Each device
  // gets its own warm provider so the seeded-row counter never races;
  // totals are aggregated after the join.
  using DeviceResult = Result<std::vector<PairTrainOutcome>>;
  std::vector<DeviceResult> device_results(
      static_cast<size_t>(n_devices),
      DeviceResult(std::vector<PairTrainOutcome>{}));
  std::vector<int64_t> device_seeded(static_cast<size_t>(n_devices), 0);
  const auto run_device = [&](int d) {
    // Warm seeds: the previous pair's alphas keyed by global row. sv_coef
    // stores alpha * y with alpha >= 0, so |sv_coef| recovers alpha
    // regardless of which side the row sat on — which also makes relabeled
    // rows legal seeds (SolveWarm clamps into the box and repairs the
    // equality constraint).
    int64_t local_seeded = 0;
    PairWarmStartProvider local_provider =
        [&previous, &local_seeded](size_t pair_index,
                                   const BinaryProblem& problem) {
          const PairCheckpoint& prev = previous[pair_index];
          if (prev.degraded || prev.sv_rows.empty()) {
            return std::vector<double>{};
          }
          std::unordered_map<int32_t, double> alpha_by_row;
          alpha_by_row.reserve(prev.sv_rows.size());
          for (size_t m = 0; m < prev.sv_rows.size(); ++m) {
            alpha_by_row.emplace(prev.sv_rows[m], std::fabs(prev.sv_coef[m]));
          }
          std::vector<double> seed(static_cast<size_t>(problem.n()), 0.0);
          for (size_t i = 0; i < seed.size(); ++i) {
            const auto it = alpha_by_row.find(problem.rows[i]);
            if (it != alpha_by_row.end()) {
              seed[i] = it->second;
              ++local_seeded;
            }
          }
          return seed;
        };
    device_results[static_cast<size_t>(d)] = TrainGmpPairSubset(
        dataset, options.train, cluster->device(d),
        assignment.device_pairs[static_cast<size_t>(d)], injector_factory,
        local_provider);
    device_seeded[static_cast<size_t>(d)] = local_seeded;
  };
  if (n_devices == 1) {
    run_device(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(n_devices));
    for (int d = 0; d < n_devices; ++d) threads.emplace_back(run_device, d);
    for (std::thread& th : threads) th.join();
  }

  for (int d = 0; d < n_devices; ++d) {
    if (!device_results[static_cast<size_t>(d)].ok()) {
      return device_results[static_cast<size_t>(d)].status();
    }
    warm_seeded_rows += device_seeded[static_cast<size_t>(d)];
  }

  // Stitch: retrained outcomes replace their slots, everything else carries
  // the previous checkpoint verbatim (byte identity by construction).
  std::vector<PairCheckpoint> checkpoints(previous);
  std::vector<PairTrainOutcome> retrained(pairs.size());
  std::vector<bool> have_outcome(pairs.size(), false);
  for (int d = 0; d < n_devices; ++d) {
    for (PairTrainOutcome& outcome : *device_results[static_cast<size_t>(d)]) {
      const size_t p = outcome.pair_index;
      checkpoints[p] = outcome.checkpoint;
      have_outcome[p] = true;
      retrained[p] = std::move(outcome);
    }
  }
  for (size_t p : retrain_indices) {
    if (!have_outcome[p]) {
      return Status::Internal(
          StrPrintf("retrained pair %zu was scheduled on no device", p));
    }
  }

  if (report != nullptr) {
    report->pairs_retrained = static_cast<int64_t>(retrain_indices.size());
    report->pairs_carried =
        static_cast<int64_t>(pairs.size() - retrain_indices.size());
    report->warm_seeded_rows = warm_seeded_rows;
    double makespan = 0.0;
    for (int d = 0; d < n_devices; ++d) {
      makespan = std::max(makespan, cluster->device(d)->NowSeconds() -
                                        base_seconds[static_cast<size_t>(d)]);
    }
    report->makespan_sim_seconds = makespan;
    report->retrained.clear();
    for (size_t p : retrain_indices) {
      report->pair_retries += retrained[p].retries;
      if (retrained[p].degraded) ++report->pairs_degraded;
      report->retrained.push_back(std::move(retrained[p]));
    }
  }

  return AssembleModelFromPairs(dataset, options.train, checkpoints);
}

}  // namespace gmpsvm::online
