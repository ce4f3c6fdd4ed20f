#include "cluster/cluster_trainer.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace gmpsvm::cluster {
namespace {

// One loss draw for member `index` (a device or node) of `plan`, from a
// stream that depends only on the plan seed, the stream's `salt` and `index` —
// independent of the pair streams and of each other.
bool DrawLoss(const fault::FaultPlan& plan, obs::MetricsRegistry* metrics,
              fault::Site site, uint64_t salt, int index) {
  fault::FaultPlan draw_plan = plan;
  draw_plan.seed =
      SplitMix64(plan.seed ^ SplitMix64(salt + static_cast<uint64_t>(index)));
  return fault::FaultInjector(draw_plan, metrics).ShouldInject(site);
}

// Phase A: train one sharded pair across its shard group. Only the shard
// setup and the per-shard data loads are specific to sharding; the pair then
// runs through the same per-pair body (TrainPair) as a whole pair, so the
// outcome — checkpoint, stats, retry/degrade behaviour — is byte-identical to
// training the pair whole on one device.
Result<PairTrainOutcome> TrainShardedPair(
    const Dataset& dataset, const MpTrainOptions& options,
    const dist::ClusterTopology& topology, SimCluster* cluster,
    const ShardedPair& sharded,
    const PairFaultInjectorFactory& injector_factory,
    dist::DistStats* dist_stats) {
  const auto [s, t] = dataset.ClassPairs()[sharded.pair];
  const BinaryProblem problem = MakeTrainPairProblem(dataset, options, s, t);
  const int64_t n = problem.n();

  // Never more shards than rows; the scheduler already caps this, but loss
  // re-forming may have shrunk the group below the cap it was built for.
  const size_t n_shards =
      std::min(sharded.devices.size(), static_cast<size_t>(std::max<int64_t>(n, 1)));
  const std::vector<std::pair<int64_t, int64_t>> ranges =
      dist::ContiguousShardRanges(n, static_cast<int>(n_shards));

  std::vector<dist::Shard> shards(n_shards);
  for (size_t j = 0; j < n_shards; ++j) {
    const int d = sharded.devices[j];
    shards[j].executor = cluster->device(d);
    shards[j].stream = kDefaultStream;
    shards[j].device = d;
    shards[j].begin = ranges[j].first;
    shards[j].end = ranges[j].second;
    shards[j].executor->SynchronizeAll();
  }

  // Each shard pays host->device transfer for its instance slice: the
  // slice's share of the full feature matrix (pair rows are dataset rows).
  const double dataset_rows = static_cast<double>(std::max<int64_t>(
      static_cast<int64_t>(dataset.size()), 1));
  for (const dist::Shard& shard : shards) {
    const double fraction =
        static_cast<double>(shard.end - shard.begin) / dataset_rows;
    const double load_t0 = shard.executor->StreamTime(shard.stream);
    shard.executor->Transfer(
        shard.stream,
        static_cast<double>(dataset.features().ByteSize()) * fraction,
        TransferDirection::kHostToDevice);
    RecordPhaseSpan(shard.executor, shard.stream, "data_load", load_t0,
                    shard.executor->StreamTime(shard.stream));
  }

  KernelComputer computer(&dataset.features(), options.kernel);
  Result<PairTrainOutcome> outcome = TrainPair(
      options, computer, sharded.pair, s, t, problem,
      PairPlacement::Sharded(shards, &topology, dist_stats), injector_factory);
  for (const dist::Shard& shard : shards) shard.executor->SynchronizeAll();
  return outcome;
}

}  // namespace

Result<DeviceFanOut> TrainPairsOnDevices(
    const Dataset& dataset, const MpTrainOptions& options, SimCluster* cluster,
    const std::vector<std::vector<size_t>>& device_pairs,
    const std::vector<double>& base_seconds,
    const std::vector<size_t>& scheduled,
    std::vector<std::pair<PairTrainOutcome, int>> trained_elsewhere,
    const PairFaultInjectorFactory& injector_factory,
    const PairWarmStartProvider& warm_start) {
  // One thread per device: devices are independent simulators, so this is
  // wall-clock parallelism only — simulated results are identical to
  // running the devices one after another.
  const int n_devices = cluster->num_devices();
  using DeviceResult = Result<std::vector<PairTrainOutcome>>;
  std::vector<DeviceResult> device_results(
      static_cast<size_t>(n_devices),
      DeviceResult(std::vector<PairTrainOutcome>{}));
  const auto run_device = [&](int d) {
    device_results[static_cast<size_t>(d)] = TrainPairsOnDevice(
        dataset, options, cluster->device(d),
        device_pairs[static_cast<size_t>(d)], injector_factory, warm_start);
  };
  if (n_devices == 1) {
    run_device(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(n_devices));
    for (int d = 0; d < n_devices; ++d) threads.emplace_back(run_device, d);
    for (std::thread& th : threads) th.join();
  }

  // Propagate failures in device-index order for a deterministic error.
  for (int d = 0; d < n_devices; ++d) {
    if (!device_results[static_cast<size_t>(d)].ok()) {
      return device_results[static_cast<size_t>(d)].status();
    }
  }

  // Re-key outcomes by global pair index.
  const size_t n_pairs = dataset.ClassPairs().size();
  std::vector<PairTrainOutcome> by_pair(n_pairs);
  std::vector<int> device_of(n_pairs, -1);
  for (int d = 0; d < n_devices; ++d) {
    for (PairTrainOutcome& outcome : *device_results[static_cast<size_t>(d)]) {
      trained_elsewhere.emplace_back(std::move(outcome), d);
    }
  }
  for (auto& [outcome, d] : trained_elsewhere) {
    device_of[outcome.pair_index] = d;
    by_pair[outcome.pair_index] = std::move(outcome);
  }

  DeviceFanOut out;
  out.pairs_trained.assign(static_cast<size_t>(n_devices), 0);
  for (size_t p : scheduled) {
    if (device_of[p] < 0) {
      return Status::Internal(
          StrPrintf("pair %zu was scheduled on no device", p));
    }
    out.outcomes.push_back(std::move(by_pair[p]));
    out.pair_device.push_back(device_of[p]);
    ++out.pairs_trained[static_cast<size_t>(device_of[p])];
  }
  for (int d = 0; d < n_devices; ++d) {
    out.elapsed.push_back(cluster->device(d)->NowSeconds() -
                          base_seconds[static_cast<size_t>(d)]);
    out.makespan = std::max(out.makespan, out.elapsed.back());
  }
  return out;
}

Status ClusterTrainOptions::Validate(int num_classes) const {
  GMP_RETURN_NOT_OK(train.Validate(num_classes));
  if (!train.checkpoint.dir.empty() || train.checkpoint.resume) {
    return Status::InvalidArgument(
        "cluster training does not support checkpoint/resume; use a single "
        "device (GmpSvmTrainer) for checkpointed sessions");
  }
  if (!(schedule.affinity_discount >= 0.0 && schedule.affinity_discount < 0.5)) {
    return Status::InvalidArgument(
        StrPrintf("affinity_discount must be in [0, 0.5), got %g",
                  schedule.affinity_discount));
  }
  if (schedule.max_shards_per_pair < 1) {
    return Status::InvalidArgument(
        StrPrintf("max_shards_per_pair must be >= 1, got %d",
                  schedule.max_shards_per_pair));
  }
  if (!(schedule.shard_oversize_factor >= 0.0)) {
    return Status::InvalidArgument(
        StrPrintf("shard_oversize_factor must be >= 0, got %g",
                  schedule.shard_oversize_factor));
  }
  if (schedule.max_shards_per_pair > 1 &&
      train.batch.working_set.drop_policy !=
          WorkingSetConfig::DropPolicy::kOldest) {
    return Status::InvalidArgument(
        "intra-pair sharding requires the kOldest working-set drop policy "
        "(the distributed refresh cannot reproduce kLeastViolating)");
  }
  if (fault.has_value()) {
    GMP_RETURN_NOT_OK(fault->Validate());
    if (fault->interrupt_after_pairs > 0) {
      return Status::InvalidArgument(
          "cluster training does not support interrupt_after_pairs (a "
          "single-device checkpoint/resume concept)");
    }
  }
  return Status::OK();
}

void ClusterTrainReport::PublishTo(obs::MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  merged.PublishTo(registry);
  registry
      ->GetGauge("gmpsvm_cluster_devices",
                 "Devices in the training cluster.")
      ->Set(static_cast<double>(devices.size()));
  registry
      ->GetGauge("gmpsvm_cluster_makespan_sim_seconds",
                 "Cluster training makespan in simulated seconds.")
      ->Set(makespan_sim_seconds);
  registry
      ->GetCounter("gmpsvm_cluster_pairs_rescheduled_total",
                   "Pairs rescheduled onto surviving devices after a "
                   "device loss.")
      ->Add(static_cast<double>(pairs_rescheduled));
  registry
      ->GetCounter("gmpsvm_cluster_devices_lost_total",
                   "Cluster devices lost to injected device-loss faults.")
      ->Add(static_cast<double>(devices_lost));
  registry
      ->GetGauge("gmpsvm_cluster_nodes", "Nodes in the training cluster.")
      ->Set(static_cast<double>(nodes));
  registry
      ->GetCounter("gmpsvm_cluster_nodes_lost_total",
                   "Cluster nodes lost to injected node-loss faults.")
      ->Add(static_cast<double>(nodes_lost));
  registry
      ->GetGauge("gmpsvm_cluster_pairs_sharded",
                 "Pairs trained via intra-pair instance sharding.")
      ->Set(static_cast<double>(pairs_sharded));
  registry
      ->GetCounter("gmpsvm_cluster_shards_rescheduled_total",
                   "Shard slots vacated by lost devices/nodes whose pairs "
                   "re-formed on the survivors.")
      ->Add(static_cast<double>(shards_rescheduled));
  registry
      ->GetCounter("gmpsvm_dist_allreduces_total",
                   "Allreduce merges performed by sharded pair solves.")
      ->Add(static_cast<double>(dist.allreduces));
  registry
      ->GetCounter("gmpsvm_dist_allreduce_rounds_total",
                   "Total recursive-doubling rounds across allreduce merges.")
      ->Add(static_cast<double>(dist.allreduce_rounds));
  registry
      ->GetGauge("gmpsvm_dist_merge_sim_seconds",
                 "Simulated seconds sharded solves spent in merges.")
      ->Set(dist.merge_seconds);
  registry
      ->GetCounter("gmpsvm_dist_link_bytes_total",
                   "Bytes moved by shard merges, per link class.",
                   {{"link", "intra_node"}})
      ->Add(dist.intra_node_bytes);
  registry
      ->GetCounter("gmpsvm_dist_link_bytes_total",
                   "Bytes moved by shard merges, per link class.",
                   {{"link", "inter_node"}})
      ->Add(dist.inter_node_bytes);
  for (size_t d = 0; d < devices.size(); ++d) {
    const obs::Labels labels = {{"device", std::to_string(d)}};
    registry
        ->GetGauge("gmpsvm_cluster_device_sim_seconds",
                   "Simulated seconds a device spent on its pair subset.",
                   labels)
        ->Set(devices[d].sim_seconds);
    registry
        ->GetGauge("gmpsvm_cluster_device_utilization",
                   "Device busy fraction of the cluster makespan.", labels)
        ->Set(devices[d].utilization);
    registry
        ->GetGauge("gmpsvm_cluster_device_pairs_trained",
                   "Binary pairs trained on a device.", labels)
        ->Set(static_cast<double>(devices[d].pairs_trained));
  }
}

Result<MpSvmModel> ClusterTrainer::Train(const Dataset& dataset,
                                         SimCluster* cluster,
                                         ClusterTrainReport* report) const {
  GMP_RETURN_NOT_OK(options_.Validate(dataset.num_classes()));
  if (cluster == nullptr || cluster->num_devices() < 1) {
    return Status::InvalidArgument("cluster must have at least one device");
  }
  Stopwatch wall;
  const int n_devices = cluster->num_devices();
  const dist::ClusterTopology& topology = cluster->topology();
  const std::vector<std::pair<int, int>> pairs = dataset.ClassPairs();

  std::vector<size_t> all_pairs(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) all_pairs[p] = p;

  // Node-loss draws: once per non-primary node, from a stream that depends
  // only on the plan seed and the node index. Node 0 never dies; losing a
  // node loses every device on it.
  std::vector<bool> node_lost(static_cast<size_t>(topology.num_nodes), false);
  int nodes_lost = 0;
  if (options_.fault.has_value() && options_.fault->node_loss_prob > 0.0) {
    for (int m = 1; m < topology.num_nodes; ++m) {
      if (DrawLoss(*options_.fault, options_.fault_metrics,
                   fault::Site::kNodeLoss, 0x40DEull, m)) {
        node_lost[static_cast<size_t>(m)] = true;
        ++nodes_lost;
      }
    }
  }

  // Device-loss draws: once per non-primary device, from a stream that
  // depends only on the plan seed and the device index (never the node
  // grouping, so draws match across topologies). Device 0 never dies.
  std::vector<bool> lost(static_cast<size_t>(n_devices), false);
  if (options_.fault.has_value() && options_.fault->device_loss_prob > 0.0) {
    for (int d = 1; d < n_devices; ++d) {
      lost[static_cast<size_t>(d)] =
          DrawLoss(*options_.fault, options_.fault_metrics,
                   fault::Site::kDeviceLoss, 0xD00Dull, d);
    }
  }
  int devices_lost = 0;
  for (int d = 1; d < n_devices; ++d) {
    if (node_lost[static_cast<size_t>(topology.node_of(d))]) {
      lost[static_cast<size_t>(d)] = true;
    }
    if (lost[static_cast<size_t>(d)]) ++devices_lost;
  }

  ScheduleOptions schedule = options_.schedule;
  schedule.topology = &topology;
  PairAssignment assignment =
      SchedulePairs(dataset, all_pairs, cluster->speeds(), {}, schedule);

  // Shard groups re-form on the survivors of any lost devices/nodes: with
  // >= 2 members left the pair stays sharded; with one it trains whole
  // there; with none it falls back to device 0 (which never dies). The
  // re-formed solve is byte-identical, so losses never perturb the model.
  int64_t shards_rescheduled = 0;
  {
    std::vector<ShardedPair> kept;
    for (ShardedPair& sp : assignment.sharded_pairs) {
      std::vector<int> survivors;
      for (int d : sp.devices) {
        if (!lost[static_cast<size_t>(d)]) survivors.push_back(d);
      }
      shards_rescheduled +=
          static_cast<int64_t>(sp.devices.size() - survivors.size());
      if (survivors.size() >= 2) {
        sp.devices = std::move(survivors);
        kept.push_back(std::move(sp));
        continue;
      }
      const int target = survivors.size() == 1 ? survivors[0] : 0;
      std::vector<size_t>& queue =
          assignment.device_pairs[static_cast<size_t>(target)];
      queue.insert(std::upper_bound(queue.begin(), queue.end(), sp.pair),
                   sp.pair);
      const int ps = pairs[sp.pair].first;
      const int pt = pairs[sp.pair].second;
      const double speed = cluster->speed(target);
      assignment.device_load[static_cast<size_t>(target)] +=
          EstimatePairCost(dataset, ps, pt) / (speed > 0.0 ? speed : 1.0);
    }
    assignment.sharded_pairs = std::move(kept);
  }

  // A lost device fails at a pair boundary after completing the first half
  // of its queue; it keeps the completed pairs and the orphaned remainder is
  // rescheduled LPT onto the survivors, on top of the load they already
  // carry.
  int64_t pairs_rescheduled = 0;
  {
    std::vector<size_t> orphans;
    for (int d = 1; d < n_devices; ++d) {
      if (!lost[static_cast<size_t>(d)]) continue;
      std::vector<size_t>& queue = assignment.device_pairs[static_cast<size_t>(d)];
      const size_t keep = queue.size() / 2;
      orphans.insert(orphans.end(), queue.begin() + static_cast<long>(keep),
                     queue.end());
      queue.resize(keep);
    }
    if (!orphans.empty()) {
      pairs_rescheduled = static_cast<int64_t>(orphans.size());
      std::vector<double> initial = assignment.device_load;
      for (int d = 0; d < n_devices; ++d) {
        if (lost[static_cast<size_t>(d)]) {
          initial[static_cast<size_t>(d)] =
              std::numeric_limits<double>::infinity();
        }
      }
      // Orphans reschedule whole — no second-guessing the shard decision
      // mid-recovery.
      ScheduleOptions resched_options = schedule;
      resched_options.max_shards_per_pair = 1;
      const PairAssignment resched =
          SchedulePairs(dataset, orphans, cluster->speeds(),
                        std::move(initial), resched_options);
      for (int d = 0; d < n_devices; ++d) {
        if (lost[static_cast<size_t>(d)]) continue;
        std::vector<size_t>& queue =
            assignment.device_pairs[static_cast<size_t>(d)];
        const std::vector<size_t>& extra =
            resched.device_pairs[static_cast<size_t>(d)];
        queue.insert(queue.end(), extra.begin(), extra.end());
        std::sort(queue.begin(), queue.end());
        assignment.device_load[static_cast<size_t>(d)] =
            resched.device_load[static_cast<size_t>(d)];
      }
    }
  }

  // Per-pair injectors depend on the pair index only, so the fault sequence a
  // pair experiences is the same on any device.
  const PairFaultInjectorFactory injector_factory =
      MakePairFaultInjectorFactory(options_.fault, options_.fault_metrics);

  // Baselines so elapsed sim time / counter deltas are attributable to this
  // run even on reused executors.
  std::vector<double> base_seconds(static_cast<size_t>(n_devices), 0.0);
  std::vector<int64_t> base_kernel_computed(static_cast<size_t>(n_devices), 0);
  std::vector<int64_t> base_kernel_reused(static_cast<size_t>(n_devices), 0);
  for (int d = 0; d < n_devices; ++d) {
    SimExecutor* dev = cluster->device(d);
    dev->SynchronizeAll();
    base_seconds[static_cast<size_t>(d)] = dev->NowSeconds();
    base_kernel_computed[static_cast<size_t>(d)] =
        dev->counters().kernel_values_computed;
    base_kernel_reused[static_cast<size_t>(d)] =
        dev->counters().kernel_values_reused;
  }

  // Phase A: sharded pairs, sequentially in pair order. Each solve spans
  // several devices, so these cannot overlap the per-device threads below;
  // they run first and leave every participant synchronized. A sharded pair
  // reports its coordinator as the training device.
  dist::DistStats dist_stats;
  std::vector<std::pair<PairTrainOutcome, int>> sharded_outcomes;
  for (const ShardedPair& sp : assignment.sharded_pairs) {
    GMP_ASSIGN_OR_RETURN(
        PairTrainOutcome outcome,
        TrainShardedPair(dataset, options_.train, topology, cluster, sp,
                         injector_factory, &dist_stats));
    sharded_outcomes.emplace_back(std::move(outcome), sp.devices[0]);
  }

  // Phase B: the whole pairs, one thread per device.
  GMP_ASSIGN_OR_RETURN(
      DeviceFanOut run,
      TrainPairsOnDevices(dataset, options_.train, cluster,
                          assignment.device_pairs, base_seconds, all_pairs,
                          std::move(sharded_outcomes), injector_factory));

  std::vector<PairCheckpoint> checkpoints;
  checkpoints.reserve(pairs.size());
  for (const PairTrainOutcome& outcome : run.outcomes) {
    checkpoints.push_back(outcome.checkpoint);
  }

  if (report != nullptr) {
    report->makespan_sim_seconds = run.makespan;
    report->wall_seconds = wall.ElapsedSeconds();
    report->pairs_rescheduled = pairs_rescheduled;
    report->devices_lost = devices_lost;
    report->nodes = topology.num_nodes;
    report->nodes_lost = nodes_lost;
    report->pairs_sharded = static_cast<int>(assignment.sharded_pairs.size());
    report->shards_rescheduled = shards_rescheduled;
    report->dist = dist_stats;
    report->pair_device = std::move(run.pair_device);

    // Merge per-pair totals in global ClassPairs() order, so merged reports
    // line up across device counts.
    MpTrainReport& merged = report->merged;
    for (const PairTrainOutcome& outcome : run.outcomes) {
      MergePairOutcome(outcome, /*per_attempt=*/false, &merged);
    }
    merged.sim_seconds = run.makespan;
    merged.wall_seconds = report->wall_seconds;
    for (int d = 0; d < n_devices; ++d) {
      const ExecutorCounters& counters = cluster->device(d)->counters();
      merged.kernel_values_computed +=
          counters.kernel_values_computed -
          base_kernel_computed[static_cast<size_t>(d)];
      merged.kernel_values_reused += counters.kernel_values_reused -
                                     base_kernel_reused[static_cast<size_t>(d)];
      merged.peak_device_bytes =
          std::max(merged.peak_device_bytes, counters.peak_bytes_in_use);
    }

    report->devices.resize(static_cast<size_t>(n_devices));
    for (int d = 0; d < n_devices; ++d) {
      DeviceUtilization& util = report->devices[static_cast<size_t>(d)];
      util.model_name = cluster->model(d).name;
      util.pairs_trained = run.pairs_trained[static_cast<size_t>(d)];
      util.lost = lost[static_cast<size_t>(d)];
      util.sim_seconds = run.elapsed[static_cast<size_t>(d)];
      util.utilization =
          run.makespan > 0.0 ? util.sim_seconds / run.makespan : 0.0;
    }
    report->pair_outcomes = std::move(run.outcomes);
  }

  return AssembleModelFromPairs(dataset, options_.train, checkpoints);
}

}  // namespace gmpsvm::cluster
