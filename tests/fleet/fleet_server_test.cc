#include "fleet/fleet_server.h"

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "../test_util.h"
#include "core/mp_trainer.h"
#include "core/predictor.h"
#include "fleet/fleet_config.h"

namespace gmpsvm::fleet {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

MpSvmModel TrainSmallModel(uint64_t seed, int k = 3) {
  auto data = ValueOrDie(MakeMulticlassBlobs(k, 15, 5, 2.5, seed));
  MpTrainOptions options;
  options.kernel.gamma = 0.3;
  options.batch.working_set.ws_size = 16;
  options.batch.working_set.q = 8;
  SimExecutor exec(ExecutorModel::TeslaP100());
  return ValueOrDie(GmpSvmTrainer(options).Train(data, &exec, nullptr));
}

// Trained once; tests copy it into tenants.
const MpSvmModel& SharedModel() {
  static const MpSvmModel* const model = new MpSvmModel(TrainSmallModel(7));
  return *model;
}

TenantSpec Spec(const std::string& name, int priority = 0) {
  TenantSpec spec;
  spec.name = name;
  spec.priority = priority;
  return spec;
}

const TenantStatsSnapshot& TenantSnap(const FleetStatsSnapshot& snap,
                                      const std::string& name) {
  for (const TenantStatsSnapshot& tenant : snap.tenants) {
    if (tenant.tenant == name) return tenant;
  }
  ADD_FAILURE() << "no tenant " << name << " in snapshot";
  static const TenantStatsSnapshot empty;
  return empty;
}

TEST(FleetServerTest, PredictMatchesOfflinePredictorByteForByte) {
  FleetOptions options;
  options.serve.num_workers = 2;
  options.initial_replicas = 1;
  FleetServer fleet(options);
  ASSERT_TRUE(fleet.Start().ok());
  ValueOrDie(fleet.AddTenant(Spec("acme"), MpSvmModel(SharedModel())));
  ValueOrDie(fleet.AddTenant(Spec("beta"), MpSvmModel(SharedModel())));

  auto queries = ValueOrDie(MakeMulticlassBlobs(3, 6, 5, 2.5, 42));
  SimExecutor ref_exec(ExecutorModel::TeslaP100());
  auto reference = ValueOrDie(MpSvmPredictor(&SharedModel())
                                  .Predict(queries.features(), &ref_exec,
                                           PredictOptions{}));

  const CsrMatrix& rows = queries.features();
  for (const char* tenant : {"acme", "beta"}) {
    for (int64_t i = 0; i < queries.size(); ++i) {
      auto response = ValueOrDie(
          fleet.Predict(tenant, rows.RowIndices(i), rows.RowValues(i)));
      ASSERT_EQ(response.probabilities.size(),
                static_cast<size_t>(reference.num_classes));
      EXPECT_EQ(std::memcmp(
                    response.probabilities.data(),
                    reference.probabilities.data() + i * reference.num_classes,
                    sizeof(double) * reference.num_classes),
                0)
          << tenant << " row " << i;
      EXPECT_EQ(response.label, reference.labels[i]);
      EXPECT_EQ(response.model_version, 1);
    }
  }

  EXPECT_TRUE(fleet.Shutdown().ok());
  FleetStatsSnapshot snap = fleet.Snapshot();
  const uint64_t n = static_cast<uint64_t>(queries.size());
  EXPECT_EQ(TenantSnap(snap, "acme").completed, n);
  EXPECT_EQ(TenantSnap(snap, "beta").completed, n);
  // The second tenant's identical queries were served from the shared store.
  EXPECT_GT(snap.sv.hits, 0);
  EXPECT_GT(snap.kernel_values_computed, 0);
  EXPECT_NE(snap.ToTable().find("acme"), std::string::npos);
}

TEST(FleetServerTest, SubmitFailsWithoutReplicasOrTenant) {
  FleetServer fleet(FleetOptions{});
  ValueOrDie(fleet.AddTenant(Spec("acme"), MpSvmModel(SharedModel())));

  const std::vector<int32_t> indices = {0, 2};
  const std::vector<double> values = {1.0, -0.5};
  // Before Start() there is nothing to serve on.
  EXPECT_TRUE(
      fleet.Submit("acme", indices, values).status().IsFailedPrecondition());

  ASSERT_TRUE(fleet.Start().ok());
  // A tenant that was never added is an admission error, not a crash.
  EXPECT_TRUE(
      fleet.Submit("ghost", indices, values).status().IsFailedPrecondition());
  EXPECT_TRUE(fleet.Shutdown().ok());
}

TEST(FleetServerTest, QuotaShedsWithRetryAfterHint) {
  FleetOptions options;
  options.serve.num_workers = 1;
  FleetServer fleet(options);
  ASSERT_TRUE(fleet.Start().ok());

  TenantSpec metered = Spec("metered");
  metered.quota.rate_per_sec = 1e-9;  // never refills within the test
  metered.quota.burst = 2.0;
  ValueOrDie(fleet.AddTenant(metered, MpSvmModel(SharedModel())));

  auto queries = ValueOrDie(MakeMulticlassBlobs(3, 2, 5, 2.5, 42));
  const CsrMatrix& rows = queries.features();
  ValueOrDie(fleet.Predict("metered", rows.RowIndices(0), rows.RowValues(0)));
  ValueOrDie(fleet.Predict("metered", rows.RowIndices(1), rows.RowValues(1)));

  auto shed = fleet.Submit("metered", rows.RowIndices(0), rows.RowValues(0));
  ASSERT_TRUE(shed.status().IsUnavailable()) << shed.status().ToString();
  EXPECT_NE(shed.status().message().find("retry after"), std::string::npos);

  EXPECT_TRUE(fleet.Shutdown().ok());
  const FleetStatsSnapshot snap = fleet.Snapshot();
  EXPECT_EQ(TenantSnap(snap, "metered").shed_quota, 1u);
  EXPECT_EQ(TenantSnap(snap, "metered").completed, 2u);
}

TEST(FleetServerTest, OverloadShedsLowestPriorityFirst) {
  FleetOptions options;
  options.serve.num_workers = 1;
  options.serve.queue_capacity = 8;
  options.initial_replicas = 1;
  options.autoscale.max_replicas = 1;
  options.shed_start_fraction = 0.5;
  FleetServer fleet(options);
  ASSERT_TRUE(fleet.Start().ok());
  ValueOrDie(fleet.AddTenant(Spec("lo", /*priority=*/0),
                             MpSvmModel(SharedModel())));
  ValueOrDie(fleet.AddTenant(Spec("hi", /*priority=*/1),
                             MpSvmModel(SharedModel())));

  auto queries = ValueOrDie(MakeMulticlassBlobs(3, 3, 5, 2.5, 42));
  const CsrMatrix& rows = queries.features();
  auto submit = [&](const char* tenant) {
    return fleet.Submit(tenant, rows.RowIndices(0), rows.RowValues(0));
  };

  // Freeze consumption so the backlog (and the queue fraction) is exact.
  fleet.PauseAll();
  std::vector<std::future<Result<PredictResponse>>> admitted;
  for (int i = 0; i < 7; ++i) {
    admitted.push_back(ValueOrDie(submit("hi")));
  }
  ASSERT_EQ(fleet.total_queue_depth(), 7u);

  // 7/8 full: above lo's rung (0.75) but below hi's (1.0).
  auto shed = submit("lo");
  ASSERT_TRUE(shed.status().IsUnavailable()) << shed.status().ToString();
  EXPECT_NE(shed.status().message().find("shed"), std::string::npos);
  admitted.push_back(ValueOrDie(submit("hi")));

  // Completely full: even the top priority is past its rung's capacity and
  // every replica queue rejects.
  auto rejected = submit("hi");
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();

  fleet.ResumeAll();
  for (auto& future : admitted) {
    EXPECT_TRUE(future.get().ok());
  }
  EXPECT_TRUE(fleet.Shutdown().ok());

  const FleetStatsSnapshot snap = fleet.Snapshot();
  EXPECT_EQ(TenantSnap(snap, "lo").shed_overload, 1u);
  EXPECT_EQ(TenantSnap(snap, "lo").completed, 0u);
  EXPECT_EQ(TenantSnap(snap, "hi").shed_overload, 0u);
  EXPECT_EQ(TenantSnap(snap, "hi").rejected, 1u);
  EXPECT_EQ(TenantSnap(snap, "hi").completed, 8u);
}

TEST(FleetServerTest, AutoscalesUpUnderBacklogAndDownWhenIdle) {
  FleetOptions options;
  options.serve.num_workers = 1;
  options.initial_replicas = 1;
  options.autoscale.min_replicas = 1;
  options.autoscale.max_replicas = 3;
  options.autoscale.scale_up_depth = 2.0;
  options.autoscale.scale_up_ticks = 2;
  options.autoscale.scale_down_depth = 0.25;
  options.autoscale.scale_down_ticks = 2;
  FleetServer fleet(options);
  ASSERT_TRUE(fleet.Start().ok());
  ValueOrDie(fleet.AddTenant(Spec("acme"), MpSvmModel(SharedModel())));
  ASSERT_EQ(fleet.num_replicas(), 1);

  auto queries = ValueOrDie(MakeMulticlassBlobs(3, 4, 5, 2.5, 42));
  const CsrMatrix& rows = queries.features();

  fleet.PauseAll();
  std::vector<std::future<Result<PredictResponse>>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(ValueOrDie(fleet.Submit(
        "acme", rows.RowIndices(i % queries.size()),
        rows.RowValues(i % queries.size()))));
  }

  // Two sustained hot observations per step; the ceiling then clamps.
  EXPECT_EQ(fleet.ScaleTick(), ScaleDecision::kHold);
  EXPECT_EQ(fleet.ScaleTick(), ScaleDecision::kScaleUp);
  EXPECT_EQ(fleet.num_replicas(), 2);
  EXPECT_EQ(fleet.ScaleTick(), ScaleDecision::kHold);
  EXPECT_EQ(fleet.ScaleTick(), ScaleDecision::kScaleUp);
  EXPECT_EQ(fleet.num_replicas(), 3);
  EXPECT_EQ(fleet.ScaleTick(), ScaleDecision::kHold);
  EXPECT_EQ(fleet.ScaleTick(), ScaleDecision::kHold);  // at the ceiling
  EXPECT_EQ(fleet.num_replicas(), 3);

  fleet.ResumeAll();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }

  // Idle ticks drain-and-retire one replica per decision.
  EXPECT_EQ(fleet.ScaleTick(), ScaleDecision::kHold);
  EXPECT_EQ(fleet.ScaleTick(), ScaleDecision::kScaleDown);
  EXPECT_EQ(fleet.num_replicas(), 2);

  // A retired replica's work remains visible in the aggregate counters.
  EXPECT_TRUE(fleet.Shutdown().ok());
  const FleetStatsSnapshot snap = fleet.Snapshot();
  EXPECT_EQ(snap.scale_ups, 2u);
  EXPECT_EQ(snap.scale_downs, 1u);
  EXPECT_EQ(TenantSnap(snap, "acme").completed, 12u);
  EXPECT_GT(snap.kernel_values_computed, 0);
}

TEST(FleetServerTest, SwapGoesThroughValidatorAndServesTheNewVersion) {
  FleetOptions options;
  options.serve.num_workers = 1;
  FleetServer fleet(options);
  fleet.tenants().SetValidator([](const MpSvmModel& model) {
    return model.num_classes >= 3
               ? Status::OK()
               : Status::InvalidArgument("needs >= 3 classes");
  });
  ASSERT_TRUE(fleet.Start().ok());
  ValueOrDie(fleet.AddTenant(Spec("acme"), MpSvmModel(SharedModel())));

  auto queries = ValueOrDie(MakeMulticlassBlobs(3, 2, 5, 2.5, 42));
  const CsrMatrix& rows = queries.features();
  auto before = ValueOrDie(
      fleet.Predict("acme", rows.RowIndices(0), rows.RowValues(0)));
  EXPECT_EQ(before.model_version, 1);

  // A rejected candidate never serves; the old version keeps answering.
  EXPECT_TRUE(fleet.SwapTenantModel("acme", TrainSmallModel(8, /*k=*/2))
                  .status()
                  .IsInvalidArgument());
  auto still_v1 = ValueOrDie(
      fleet.Predict("acme", rows.RowIndices(0), rows.RowValues(0)));
  EXPECT_EQ(still_v1.model_version, 1);

  EXPECT_EQ(ValueOrDie(fleet.SwapTenantModel("acme", TrainSmallModel(9))), 2);
  auto after = ValueOrDie(
      fleet.Predict("acme", rows.RowIndices(0), rows.RowValues(0)));
  EXPECT_EQ(after.model_version, 2);
  EXPECT_TRUE(fleet.Shutdown().ok());
}

TEST(FleetServerTest, PerTenantPredictOverridesApply) {
  // Three tenants sharing one model but diverging in prediction options: the
  // fleet default (probability + exact), a voting tenant, and a cascade
  // tenant. Each tenant's answers must match the offline predictor run with
  // that tenant's effective options, byte for byte.
  FleetOptions options;
  options.serve.num_workers = 1;
  options.initial_replicas = 1;
  FleetServer fleet(options);
  ASSERT_TRUE(fleet.Start().ok());

  TenantSpec vote_spec = Spec("voter");
  vote_spec.predict.emplace();
  vote_spec.predict->decision = PredictOptions::Decision::kVoting;
  TenantSpec cascade_spec = Spec("pruner");
  cascade_spec.predict.emplace();
  cascade_spec.predict->cascade.mode = CascadeOptions::Mode::kEliminate;
  cascade_spec.predict->cascade.ambiguity_band = 0.0;
  ValueOrDie(fleet.AddTenant(Spec("plain"), MpSvmModel(SharedModel())));
  ValueOrDie(fleet.AddTenant(vote_spec, MpSvmModel(SharedModel())));
  ValueOrDie(fleet.AddTenant(cascade_spec, MpSvmModel(SharedModel())));

  auto queries = ValueOrDie(MakeMulticlassBlobs(3, 4, 5, 2.5, 43));
  const CsrMatrix& rows = queries.features();
  const auto reference_for = [&](const PredictOptions& predict) {
    SimExecutor exec(ExecutorModel::TeslaP100());
    return ValueOrDie(MpSvmPredictor(&SharedModel())
                          .Predict(queries.features(), &exec, predict));
  };
  PredictOptions voting;
  voting.decision = PredictOptions::Decision::kVoting;
  const PredictResult plain_ref = reference_for(PredictOptions{});
  const PredictResult vote_ref = reference_for(voting);
  const PredictResult cascade_ref = reference_for(*cascade_spec.predict);

  const auto expect_matches = [&](const std::string& tenant,
                                  const PredictResult& reference) {
    for (int64_t i = 0; i < queries.size(); ++i) {
      auto response = ValueOrDie(
          fleet.Predict(tenant, rows.RowIndices(i), rows.RowValues(i)));
      ASSERT_EQ(response.probabilities.size(),
                static_cast<size_t>(reference.num_classes));
      EXPECT_EQ(std::memcmp(
                    response.probabilities.data(),
                    reference.probabilities.data() + i * reference.num_classes,
                    sizeof(double) * reference.num_classes),
                0)
          << tenant << " row " << i;
      EXPECT_EQ(response.label, reference.labels[i]) << tenant << " row " << i;
    }
  };
  expect_matches("plain", plain_ref);
  expect_matches("voter", vote_ref);
  expect_matches("pruner", cascade_ref);
  // Voting and probability disagree on the probability vector itself (vote
  // fractions vs coupled probabilities), proving the override really applied.
  EXPECT_NE(0, std::memcmp(vote_ref.probabilities.data(),
                           plain_ref.probabilities.data(),
                           sizeof(double) * vote_ref.probabilities.size()));
  EXPECT_TRUE(fleet.Shutdown().ok());
}

TEST(FleetServerTest, AddTenantRejectsInvalidPredictOverride) {
  FleetServer fleet(FleetOptions{});
  TenantSpec spec = Spec("broken");
  spec.predict.emplace();
  spec.predict->cascade.budget = -5;
  auto result = fleet.AddTenant(spec, MpSvmModel(SharedModel()));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().message().find("broken"), std::string::npos);
  EXPECT_NE(result.status().message().find("cascade.budget"),
            std::string::npos);
}

TEST(FleetConfigTest, ParsesPerTenantPredictKeys) {
  auto config = ValueOrDie(ParseFleetConfig(
      "replicas 1\n"
      "tenant plain model=a.model\n"
      "tenant voter model=b.model decision=voting weight=2\n"
      "tenant pruner model=c.model cascade=eliminate cascade_budget=16 "
      "cascade_threshold=1.5 cascade_band=0.1\n"));
  ASSERT_EQ(config.tenants.size(), 3u);
  EXPECT_FALSE(config.tenants[0].spec.predict.has_value());
  ASSERT_TRUE(config.tenants[1].spec.predict.has_value());
  EXPECT_EQ(config.tenants[1].spec.predict->decision,
            PredictOptions::Decision::kVoting);
  ASSERT_TRUE(config.tenants[2].spec.predict.has_value());
  const PredictOptions& pruner = *config.tenants[2].spec.predict;
  EXPECT_EQ(pruner.cascade.mode, CascadeOptions::Mode::kEliminate);
  EXPECT_EQ(pruner.cascade.budget, 16);
  EXPECT_DOUBLE_EQ(pruner.cascade.elimination_threshold, 1.5);
  EXPECT_DOUBLE_EQ(pruner.cascade.ambiguity_band, 0.1);
}

TEST(FleetConfigTest, ParsesAndValidatesSimdKey) {
  // scalar is supported on every CPU, so this parses everywhere.
  auto config = ValueOrDie(ParseFleetConfig(
      "replicas 1\n"
      "tenant slow model=a.model simd=scalar\n"
      "tenant fast model=b.model simd=auto\n"));
  ASSERT_EQ(config.tenants.size(), 2u);
  ASSERT_TRUE(config.tenants[0].spec.predict.has_value());
  EXPECT_EQ(config.tenants[0].spec.predict->simd, simd::SimdTier::kScalar);
  ASSERT_TRUE(config.tenants[1].spec.predict.has_value());
  EXPECT_EQ(config.tenants[1].spec.predict->simd, simd::SimdTier::kAuto);

  auto bad_name = ParseFleetConfig("tenant t model=a.model simd=sse9\n");
  ASSERT_FALSE(bad_name.ok());
  EXPECT_NE(bad_name.status().message().find("line 1"), std::string::npos);

  // A real tier the CPU cannot run fails Validate() with the line number.
  const simd::SimdTier foreign = simd::TierSupported(simd::SimdTier::kAvx2)
                                     ? simd::SimdTier::kNeon
                                     : simd::SimdTier::kAvx2;
  auto unsupported = ParseFleetConfig(
      std::string("tenant t model=a.model simd=") + simd::TierName(foreign) +
      "\n");
  ASSERT_FALSE(unsupported.ok());
  EXPECT_NE(unsupported.status().message().find("line 1"), std::string::npos);
}

TEST(FleetConfigTest, RejectsBadPredictKeysWithLineNumber) {
  auto bad_mode = ParseFleetConfig("tenant t model=a.model cascade=maybe\n");
  ASSERT_FALSE(bad_mode.ok());
  EXPECT_NE(bad_mode.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(bad_mode.status().message().find("exact|eliminate"),
            std::string::npos);

  auto bad_decision =
      ParseFleetConfig("replicas 1\ntenant t model=a.model decision=coinflip\n");
  ASSERT_FALSE(bad_decision.ok());
  EXPECT_NE(bad_decision.status().message().find("line 2"), std::string::npos);

  // Structurally valid keys but invalid values fail Validate() at the line.
  auto bad_band = ParseFleetConfig(
      "tenant t model=a.model cascade=eliminate cascade_band=2.0\n");
  ASSERT_FALSE(bad_band.ok());
  EXPECT_NE(bad_band.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(bad_band.status().message().find("cascade.ambiguity_band"),
            std::string::npos);
}

TEST(FleetConfigTest, RejectsNonFiniteNumbersWithLineNumber) {
  // An unlimited quota is rate <= 0; no number field accepts nan or inf.
  for (const char* field : {"rate=nan", "burst=inf", "weight=-inf",
                            "cascade_threshold=infinity"}) {
    auto config = ParseFleetConfig(std::string("replicas 1\ntenant t "
                                               "model=a.model ") +
                                   field + "\n");
    ASSERT_FALSE(config.ok()) << field;
    EXPECT_TRUE(config.status().IsInvalidArgument()) << field;
    EXPECT_NE(config.status().message().find("line 2"), std::string::npos)
        << field << ": " << config.status().message();
  }
}

}  // namespace
}  // namespace gmpsvm::fleet
