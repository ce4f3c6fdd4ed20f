// Cluster training: shard the k(k-1)/2 pair problems across devices and, for
// oversized pairs, shard a single pair's instances across several devices.
//
// The trainer schedules pairs with the cost-model-aware pair scheduler.
// Pairs the scheduler marked for intra-pair sharding train first (Phase A):
// each runs once through BatchSmoSolver::SolveSharded across its shard group,
// merges priced by the cluster's node topology, inside the same per-pair body
// (TrainPair) whole pairs use. The remaining whole pairs then train through
// TrainPairsOnDevices (Phase B): one std::thread per device, each running the
// one device pair loop, TrainPairsOnDevice — devices are independent
// simulators, so this is pure wall-clock parallelism, and inside each device
// the pair-parallel gate of MpTrainOptions::host_threads applies as on a
// single device. WarmRetrain fans out through the same function. Results
// are stitched back together in global ClassPairs() order with
// AssembleModelFromPairs.
//
// Determinism contract (extends PR 4): the model, predicted probabilities,
// and per-pair COUNTER statistics are byte-identical for nodes=1/devices=1
// vs any nodes x devices topology at any host_threads, clean or under a
// fault plan; only the simulated makespan and wall clock change. Three
// mechanisms make that hold:
//   * pair solutions are schedule-invariant (exact kernel math — see
//     mp_trainer.h), so the assignment never changes the numbers;
//   * a sharded pair's solve is byte-identical to the single-device solve —
//     solution AND counters — for any shard count or placement
//     (BatchSmoSolver::SolveSharded), so sharding never changes the numbers
//     either;
//   * chaos runs use one fault injector PER PAIR, seeded from the plan seed
//     and the pair index, so a pair sees the same fault sequence whatever
//     device (or shard group, via the coordinator) trains it. (Per-pair
//     sim-time attribution still depends on the stream shares of the run,
//     and with share_kernel_blocks on, cache hit/miss counters depend on
//     co-location — those are the documented schedule-dependent quantities.
//     Sharded pairs always solve through the direct row source, never the
//     shared block cache.)
//
// Device loss (fault.device_loss_prob / Site::kDeviceLoss): each non-primary
// device draws once at the start of the run; a lost device completes the
// first half of its whole-pair queue at a pair boundary, keeps those pairs,
// and its orphaned remainder is rescheduled LPT onto the survivors. Device 0
// never dies, so progress is always possible. Every pair still trains
// exactly once with its own injector, which is why loss does not perturb the
// model.
//
// Node loss (fault.node_loss_prob / Site::kNodeLoss): each non-primary node
// draws once at the start of the run; losing a node loses every device on
// it. Shard groups that lose members re-form on the survivors — still ≥2
// left: the pair stays sharded on them; exactly 1: it trains whole there;
// none: it trains whole on device 0. Node 0 never dies. Orphaned shards are
// counted in shards_rescheduled, and because the re-formed solve is still
// byte-identical, chaos runs recover the exact clean model.
//
// Out of scope (rejected by Validate): checkpoint/resume and
// interrupt_after_pairs — both are single-device session concepts; train on
// one device if you need them.

#ifndef GMPSVM_CLUSTER_CLUSTER_TRAINER_H_
#define GMPSVM_CLUSTER_CLUSTER_TRAINER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/pair_scheduler.h"
#include "core/mp_trainer.h"
#include "dist/shard.h"
#include "fault/fault_injector.h"

namespace gmpsvm::cluster {

struct ClusterTrainOptions {
  MpTrainOptions train;

  // schedule.topology is ignored — the trainer always prices merges with the
  // cluster's own topology. Intra-pair sharding (max_shards_per_pair > 1)
  // requires the working set's kOldest drop policy (see
  // BatchSmoSolver::SolveSharded).
  ScheduleOptions schedule;

  // Optional chaos plan; see the header comment for how it is split into
  // per-pair injectors and per-device loss draws.
  std::optional<fault::FaultPlan> fault;

  // When set, per-pair fault injectors publish
  // gmpsvm_fault_injected_total{site=...} here (the registry is thread-safe;
  // device threads share it). Null disables fault metrics.
  obs::MetricsRegistry* fault_metrics = nullptr;

  Status Validate(int num_classes) const;
};

struct DeviceUtilization {
  std::string model_name;
  // Pairs this device trained, a sharded pair counted on its coordinator —
  // the entries of pair_device naming it.
  int pairs_trained = 0;
  bool lost = false;
  // Simulated seconds this device spent on its subset (its own clock).
  double sim_seconds = 0.0;
  // sim_seconds / cluster makespan, in [0, 1].
  double utilization = 0.0;
};

struct ClusterTrainReport {
  // Cluster makespan: the max per-device simulated time. This is the
  // headline scaling number bench_cluster_scaling sweeps.
  double makespan_sim_seconds = 0.0;
  double wall_seconds = 0.0;

  // Per-pair statistics merged in global ClassPairs() order — the same merge
  // order a single-device GmpSvmTrainer report uses. merged.sim_seconds is
  // the makespan.
  MpTrainReport merged;

  std::vector<DeviceUtilization> devices;

  // Per-pair outcomes in ClassPairs() order (counter fields are
  // schedule-invariant when share_kernel_blocks is off; see mp_trainer.h).
  std::vector<PairTrainOutcome> pair_outcomes;

  // Which device each pair trained on (the coordinator, for sharded pairs),
  // in ClassPairs() order.
  std::vector<int> pair_device;

  int64_t pairs_rescheduled = 0;
  int devices_lost = 0;

  // Node topology and intra-pair sharding.
  int nodes = 1;
  int nodes_lost = 0;
  int pairs_sharded = 0;
  // Shard slots vacated by lost devices/nodes whose pairs re-formed on the
  // survivors.
  int64_t shards_rescheduled = 0;
  // Communication accounting summed over every sharded solve.
  dist::DistStats dist;

  // Publishes merged (gmpsvm_train_*) plus gmpsvm_cluster_* gauges (the
  // per-device series labeled {device=...}) and the gmpsvm_dist_* transfer
  // series (per-link byte counters labeled {link=intra_node|inter_node}).
  void PublishTo(obs::MetricsRegistry* registry) const;
};

// A multi-device pair run re-keyed by global pair index.
struct DeviceFanOut {
  // The scheduled pairs' outcomes and training devices (the coordinator,
  // for a sharded pair), in the order of `scheduled`.
  std::vector<PairTrainOutcome> outcomes;
  std::vector<int> pair_device;
  // Per device: the pairs pair_device names it for, and the simulated
  // seconds since its base clock; makespan is the max of the latter.
  std::vector<int> pairs_trained;
  std::vector<double> elapsed;
  double makespan = 0.0;
};

// Trains device_pairs[d] on cluster device d with TrainPairsOnDevice, one
// std::thread per device, with the per-pair `injector_factory` and
// `warm_start` (both optional; `warm_start` is called from every device
// thread, so it must be thread-safe). `trained_elsewhere` adds pairs that
// already trained (outcome, device) — the sharded pairs. Device errors
// propagate in device order; a pair of `scheduled` with no outcome is
// Internal. `base_seconds[d]` is device d's clock at the start of the run.
Result<DeviceFanOut> TrainPairsOnDevices(
    const Dataset& dataset, const MpTrainOptions& options, SimCluster* cluster,
    const std::vector<std::vector<size_t>>& device_pairs,
    const std::vector<double>& base_seconds,
    const std::vector<size_t>& scheduled,
    std::vector<std::pair<PairTrainOutcome, int>> trained_elsewhere = {},
    const PairFaultInjectorFactory& injector_factory = nullptr,
    const PairWarmStartProvider& warm_start = nullptr);

class ClusterTrainer {
 public:
  explicit ClusterTrainer(ClusterTrainOptions options)
      : options_(std::move(options)) {}

  // Trains the full MP-SVM model across the cluster's devices. `report` may
  // be null. The model is byte-identical to a single-device GmpSvmTrainer
  // run for any device count.
  Result<MpSvmModel> Train(const Dataset& dataset, SimCluster* cluster,
                           ClusterTrainReport* report) const;

 private:
  ClusterTrainOptions options_;
};

}  // namespace gmpsvm::cluster

#endif  // GMPSVM_CLUSTER_CLUSTER_TRAINER_H_
