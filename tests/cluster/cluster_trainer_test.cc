// ClusterTrainer: the sharded trainer must produce the exact single-device
// model at every device count, report a makespan that shrinks as devices are
// added, survive device loss by rescheduling orphaned pairs, count every pair
// (sharded ones on their coordinator) on the device that trained it, and
// reject the single-device-only options up front.

#include "cluster/cluster_trainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../test_util.h"
#include "cluster/cluster.h"
#include "core/model_io.h"
#include "core/mp_trainer.h"

namespace gmpsvm::cluster {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

MpTrainOptions BaseOptions() {
  MpTrainOptions options;
  options.kernel.gamma = 0.3;
  options.batch.working_set.ws_size = 32;
  options.batch.working_set.q = 16;
  options.max_concurrent_svms = 4;
  options.shared_cache_bytes = 64ull << 20;
  return options;
}

Dataset SmallProxy() {
  return ValueOrDie(MakeMulticlassBlobs(4, 22, 6, 2.5, 42));
}

std::string SingleDeviceModelText(const Dataset& data) {
  SimExecutor exec(ExecutorModel::TeslaP100());
  auto model = ValueOrDie(GmpSvmTrainer(BaseOptions()).Train(data, &exec, nullptr));
  return SerializeModel(model);
}

TEST(ClusterTrainerTest, ModelMatchesSingleDeviceTrainer) {
  Dataset data = SmallProxy();
  const std::string reference = SingleDeviceModelText(data);

  SimCluster cluster = SimCluster::Homogeneous(3, ExecutorModel::TeslaP100());
  ClusterTrainOptions options;
  options.train = BaseOptions();
  ClusterTrainReport report;
  auto model = ValueOrDie(ClusterTrainer(options).Train(data, &cluster, &report));
  EXPECT_EQ(SerializeModel(model), reference);

  ASSERT_EQ(report.pair_outcomes.size(), 6u);
  ASSERT_EQ(report.pair_device.size(), 6u);
  for (int d : report.pair_device) {
    EXPECT_GE(d, 0);
    EXPECT_LT(d, 3);
  }
}

TEST(ClusterTrainerTest, MakespanStrictlyDecreasesOneToFourDevices) {
  // 6 classes -> 15 pairs: enough parallel slack that each doubling of the
  // device count must strictly shorten the makespan.
  Dataset data = ValueOrDie(MakeMulticlassBlobs(6, 15, 5, 2.0, 11));
  std::vector<double> makespans;
  std::string reference;
  for (int n : {1, 2, 4}) {
    SimCluster cluster = SimCluster::Homogeneous(n, ExecutorModel::TeslaP100());
    ClusterTrainOptions options;
    options.train = BaseOptions();
    ClusterTrainReport report;
    auto model =
        ValueOrDie(ClusterTrainer(options).Train(data, &cluster, &report));
    if (reference.empty()) {
      reference = SerializeModel(model);
    } else {
      EXPECT_EQ(SerializeModel(model), reference) << n << " devices";
    }
    makespans.push_back(report.makespan_sim_seconds);

    // Utilization bookkeeping: the makespan device is fully utilized, every
    // device's share is in (0, 1], and the per-device pair counts cover all
    // 15 pairs.
    ASSERT_EQ(report.devices.size(), static_cast<size_t>(n));
    double max_util = 0.0;
    int pairs_total = 0;
    for (const DeviceUtilization& u : report.devices) {
      EXPECT_GT(u.utilization, 0.0);
      EXPECT_LE(u.utilization, 1.0 + 1e-12);
      max_util = std::max(max_util, u.utilization);
      pairs_total += u.pairs_trained;
      EXPECT_FALSE(u.lost);
    }
    EXPECT_NEAR(max_util, 1.0, 1e-12);
    EXPECT_EQ(pairs_total, 15);
  }
  EXPECT_LT(makespans[1], makespans[0]);
  EXPECT_LT(makespans[2], makespans[1]);
}

TEST(ClusterTrainerTest, DeviceLossReschedulesOrphansWithoutChangingModel) {
  Dataset data = SmallProxy();
  const std::string reference = SingleDeviceModelText(data);

  fault::FaultPlan plan;
  plan.seed = 5;
  plan.device_loss_prob = 1.0;  // every non-primary device dies
  SimCluster cluster = SimCluster::Homogeneous(3, ExecutorModel::TeslaP100());
  ClusterTrainOptions options;
  options.train = BaseOptions();
  options.fault = plan;
  ClusterTrainReport report;
  auto model = ValueOrDie(ClusterTrainer(options).Train(data, &cluster, &report));

  EXPECT_EQ(SerializeModel(model), reference);
  EXPECT_EQ(report.devices_lost, 2);
  EXPECT_FALSE(report.devices[0].lost);
  EXPECT_TRUE(report.devices[1].lost);
  EXPECT_TRUE(report.devices[2].lost);
  EXPECT_GT(report.pairs_rescheduled, 0);
  int pairs_total = 0;
  for (const DeviceUtilization& u : report.devices) pairs_total += u.pairs_trained;
  EXPECT_EQ(pairs_total, 6);
}

TEST(ClusterTrainerTest, PairsTrainedCountsShardedPairsOnTheirCoordinator) {
  Dataset data = SmallProxy();
  SimCluster cluster = SimCluster::Homogeneous(4, ExecutorModel::TeslaP100());
  ClusterTrainOptions options;
  options.train = BaseOptions();
  options.train.share_kernel_blocks = false;
  options.schedule.max_shards_per_pair = 2;
  options.schedule.shard_oversize_factor = 0.0;  // force sharding
  ClusterTrainReport report;
  ValueOrDie(ClusterTrainer(options).Train(data, &cluster, &report));

  ASSERT_GT(report.pairs_sharded, 0);
  ASSERT_EQ(report.pair_device.size(), 6u);
  int pairs_total = 0;
  for (int d = 0; d < static_cast<int>(report.devices.size()); ++d) {
    const auto named =
        std::count(report.pair_device.begin(), report.pair_device.end(), d);
    const int trained = report.devices[static_cast<size_t>(d)].pairs_trained;
    EXPECT_EQ(trained, named) << "device " << d;
    pairs_total += trained;
  }
  EXPECT_EQ(pairs_total, 6);
}

TEST(ClusterTrainerTest, ChaosRunRecoversToTheCleanModel) {
  Dataset data = SmallProxy();
  const std::string reference = SingleDeviceModelText(data);

  SimCluster cluster = SimCluster::Homogeneous(4, ExecutorModel::TeslaP100());
  ClusterTrainOptions options;
  options.train = BaseOptions();
  options.fault = fault::FaultPlan::Chaos(7);
  ClusterTrainReport report;
  auto model = ValueOrDie(ClusterTrainer(options).Train(data, &cluster, &report));
  EXPECT_EQ(SerializeModel(model), reference);
}

TEST(ClusterTrainerTest, ValidateRejectsSingleDeviceOnlyOptions) {
  Dataset data = SmallProxy();
  SimCluster cluster = SimCluster::Homogeneous(2, ExecutorModel::TeslaP100());

  ClusterTrainOptions checkpoint;
  checkpoint.train = BaseOptions();
  checkpoint.train.checkpoint.dir = "/tmp/nope";
  EXPECT_FALSE(ClusterTrainer(checkpoint).Train(data, &cluster, nullptr).ok());

  ClusterTrainOptions resume;
  resume.train = BaseOptions();
  resume.train.checkpoint.resume = true;
  EXPECT_FALSE(ClusterTrainer(resume).Train(data, &cluster, nullptr).ok());

  ClusterTrainOptions interrupt;
  interrupt.train = BaseOptions();
  interrupt.fault = fault::FaultPlan{};
  interrupt.fault->interrupt_after_pairs = 1;
  EXPECT_FALSE(ClusterTrainer(interrupt).Train(data, &cluster, nullptr).ok());

  ClusterTrainOptions discount;
  discount.train = BaseOptions();
  discount.schedule.affinity_discount = 0.6;
  EXPECT_FALSE(ClusterTrainer(discount).Train(data, &cluster, nullptr).ok());
}

TEST(SimClusterTest, HomogeneousDevicesShareSpeedAndBandLanes) {
  SimCluster cluster = SimCluster::Homogeneous(3, ExecutorModel::TeslaP100());
  ASSERT_EQ(cluster.num_devices(), 3);
  EXPECT_GT(cluster.speed(0), 0.0);
  EXPECT_EQ(cluster.speed(0), cluster.speed(1));
  EXPECT_EQ(cluster.speed(1), cluster.speed(2));
  EXPECT_EQ(cluster.speeds().size(), 3u);

  // Lane banding: device d's spans land in [d*16, (d+1)*16).
  obs::TraceRecorder trace;
  cluster.SetSpanRecorder(&trace);
  Dataset data = ValueOrDie(MakeMulticlassBlobs(3, 12, 4, 2.5, 3));
  ClusterTrainOptions options;
  options.train = BaseOptions();
  ClusterTrainReport report;
  ValueOrDie(ClusterTrainer(options).Train(data, &cluster, &report));
  ASSERT_GT(trace.size(), 0u);
  bool saw_banded_lane = false;
  for (const obs::SpanEvent& event : trace.events()) {
    EXPECT_GE(event.lane, 0);
    EXPECT_LT(event.lane, 3 * kClusterLaneBand);
    if (event.lane >= kClusterLaneBand) saw_banded_lane = true;
  }
  EXPECT_TRUE(saw_banded_lane) << "no span landed on a non-primary device band";
}

}  // namespace
}  // namespace gmpsvm::cluster
