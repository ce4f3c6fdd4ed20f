// Cross-commit golden values for every trainer's pair orchestration: the
// FNV-1a fingerprint of the serialized model and the bits of every report
// field (each phase of `phases` included; wall-clock fields excluded) for
// GmpSvmTrainer, SequentialMpTrainer, OvaTrainer, ClusterTrainer and
// WarmRetrain, clean, at host_threads > 1, and under fault plans, plus the
// fingerprint of two span streams. The determinism suites compare runs of
// ONE build against each other; this file pins the numbers across commits,
// so a refactor of the pair loops that silently reorders a floating-point
// merge, a stream charge or a span fails here. An intentional change updates
// these values and says so in CHANGES.md; on a mismatch the test prints the
// actual value in source form.
//
// The data come from SplitMix64 (no std:: distributions), so the inputs are
// the same on every standard library.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cluster_trainer.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/model_io.h"
#include "core/mp_trainer.h"
#include "core/ova_trainer.h"
#include "fault/fault_injector.h"
#include "obs/span.h"
#include "online/delta.h"
#include "online/warm_retrain.h"

namespace gmpsvm {
namespace {

// k classes of n_per_class rows in `dim` dense dimensions, labels
// round-robin: class c sits at `separation` on axis c mod dim, plus
// U(-1, 1) noise on every coordinate.
Dataset MakeGoldenData(int k, int n_per_class, int dim, double separation,
                       uint64_t seed) {
  CsrBuilder builder(dim);
  std::vector<int32_t> labels;
  uint64_t counter = 0;
  for (int i = 0; i < k * n_per_class; ++i) {
    const int c = i % k;
    std::vector<int32_t> idx(static_cast<size_t>(dim));
    std::vector<double> val(static_cast<size_t>(dim));
    for (int d = 0; d < dim; ++d) {
      const double u =
          static_cast<double>(SplitMix64(seed + counter++) >> 11) * 0x1.0p-53;
      idx[static_cast<size_t>(d)] = d;
      val[static_cast<size_t>(d)] =
          (d == c % dim ? separation : 0.0) + (2.0 * u - 1.0);
    }
    builder.AddRow(idx, val);
    labels.push_back(c);
  }
  return ValueOrDie(Dataset::Create(ValueOrDie(builder.Finish()),
                                    std::move(labels), k, "golden"));
}

MpTrainOptions GoldenOptions() {
  MpTrainOptions options;
  options.kernel.gamma = 0.3;
  options.batch.working_set.ws_size = 32;
  options.batch.working_set.q = 16;
  options.max_concurrent_svms = 4;
  options.shared_cache_bytes = 64ull << 20;
  return options;
}

std::string Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return StrPrintf("0x%016" PRIx64, bits);
}

std::string Fnv(const std::string& bytes) {
  return StrPrintf("0x%016" PRIx64,
                   Fnv1a64(bytes.data(), bytes.size(), kFnv1aOffset));
}

std::string PhasesText(const PhaseTimer& phases) {
  std::string out = "{";
  for (const auto& [name, seconds] : phases.phases()) {
    out += " " + name + "=" + Bits(seconds);
  }
  return out + " }";
}

std::string SolverText(const SolverStats& s) {
  return StrPrintf("it=%lld or=%lld krc=%lld kru=%lld krr=%lld ar=%lld rp=%lld",
                   static_cast<long long>(s.iterations),
                   static_cast<long long>(s.outer_rounds),
                   static_cast<long long>(s.kernel_rows_computed),
                   static_cast<long long>(s.kernel_rows_reused),
                   static_cast<long long>(s.kernel_row_retries),
                   static_cast<long long>(s.alloc_retries),
                   static_cast<long long>(s.rows_poisoned)) +
         " phases" + PhasesText(s.phases);
}

// Every MpTrainReport field except wall_seconds.
std::string ReportText(const MpTrainReport& r) {
  return "sim=" + Bits(r.sim_seconds) + "\nsolver " + SolverText(r.solver) +
         "\nphases" + PhasesText(r.phases) +
         StrPrintf("\nkv_computed=%lld kv_reused=%lld peak=%zu retries=%lld "
                   "degraded=%lld resumed=%lld\n",
                   static_cast<long long>(r.kernel_values_computed),
                   static_cast<long long>(r.kernel_values_reused),
                   r.peak_device_bytes, static_cast<long long>(r.pair_retries),
                   static_cast<long long>(r.pairs_degraded),
                   static_cast<long long>(r.pairs_resumed));
}

std::string OutcomeText(const PairTrainOutcome& o) {
  return StrPrintf("pair %zu ckpt=", o.pair_index) +
         Fnv(SerializePairCheckpoint(o.checkpoint)) + " " + SolverText(o.stats) +
         " sigmoid=" + Bits(o.sigmoid_seconds) +
         StrPrintf(" done=%d retries=%lld degraded=%d\n", o.sigmoid_done ? 1 : 0,
                   static_cast<long long>(o.retries), o.degraded ? 1 : 0);
}

// Fingerprint of a span stream in recorded order: every field of every
// event.
std::string SpansFnv(const obs::TraceRecorder& recorder) {
  std::string text;
  for (const obs::SpanEvent& e : recorder.events()) {
    text += e.name +
            StrPrintf(" o=%d l=%d ", static_cast<int>(e.origin), e.lane) +
            Bits(e.start_seconds) + " " + Bits(e.end_seconds) + " " +
            Bits(e.flops) + " " + Bits(e.bytes) +
            StrPrintf(" t=%d p=%d\n", e.is_transfer ? 1 : 0, e.is_phase ? 1 : 0);
  }
  return StrPrintf("spans=%zu fnv=", recorder.size()) + Fnv(text) + "\n";
}

// Compares against the pinned value; on a mismatch prints the actual value
// as a raw string literal ready to paste.
void ExpectGolden(const std::string& actual, const std::string& golden) {
  EXPECT_EQ(actual, golden);
  if (actual != golden) {
    std::printf("actual golden value:\nR\"(%s)\"\n", actual.c_str());
  }
}

// Chaos(seed) with kernel-row batches failing often enough, and up to four
// times in a row, that some pairs exhaust the solver's row retries and are
// retried whole.
fault::FaultPlan RetryingChaos(uint64_t seed) {
  fault::FaultPlan plan = fault::FaultPlan::Chaos(seed);
  plan.kernel_row_fail_prob = 0.6;
  plan.max_consecutive_per_site = 4;
  return plan;
}

std::string GmpRun(const Dataset& data, const MpTrainOptions& options,
                   SimExecutor* exec) {
  MpTrainReport report;
  const MpSvmModel model =
      ValueOrDie(GmpSvmTrainer(options).Train(data, exec, &report));
  return "model=" + Fnv(SerializeModel(model)) + "\n" + ReportText(report);
}

TEST(TrainerGoldenTest, GmpCleanWithSharing) {
  const Dataset data = MakeGoldenData(4, 20, 6, 2.5, 1301);
  SimExecutor exec(ExecutorModel::TeslaP100());
  ExpectGolden(GmpRun(data, GoldenOptions(), &exec), R"(model=0x10350e95ad536ee2
sim=0x3f4028de20d0c294
solver it=448 or=29 krc=231 kru=697 krr=0 ar=0 rp=0 phases{ kernel_values=0x3f30e37b7b9a28f9 other=0x3f40030782de647a subproblem=0x3f2bad8f7317d99a }
phases{ kernel_values=0x3f30e37b7b9a28f9 other=0x3f40030782de647a sigmoid=0x3f390b7a45720a9d subproblem=0x3f2bad8f7317d99a }
kv_computed=6100 kv_reused=31020 peak=67119104 retries=0 degraded=0 resumed=0
)");
}

TEST(TrainerGoldenTest, GmpHostThreadsWithoutSharingAndSpans) {
  const Dataset data = MakeGoldenData(4, 20, 6, 2.5, 1301);
  MpTrainOptions options = GoldenOptions();
  options.share_kernel_blocks = false;
  options.host_threads = 4;
  SimExecutor exec(ExecutorModel::TeslaP100());
  obs::TraceRecorder recorder;
  exec.SetSpanRecorder(&recorder);
  ExpectGolden(GmpRun(data, options, &exec) + SpansFnv(recorder), R"(model=0x10350e95ad536ee2
sim=0x3f3f67f90b9e04b1
solver it=448 or=29 krc=231 kru=697 krr=0 ar=0 rp=0 phases{ kernel_values=0x3f2c845041e1ad9b other=0x3f40030782de647a subproblem=0x3f2bad8f7317d998 }
phases{ kernel_values=0x3f2c845041e1ad9b other=0x3f40030782de647a sigmoid=0x3f390b7a45720a9c subproblem=0x3f2bad8f7317d998 }
kv_computed=9240 kv_reused=27880 peak=10240 retries=0 degraded=0 resumed=0
spans=0 fnv=0xcbf29ce484222325
)");
}

TEST(TrainerGoldenTest, GmpChaosWithPairRetries) {
  const Dataset data = MakeGoldenData(4, 20, 6, 2.5, 1301);
  fault::FaultInjector injector(RetryingChaos(3));
  SimExecutor exec(ExecutorModel::TeslaP100());
  exec.SetFaultInjector(&injector);
  MpTrainReport report;
  const MpSvmModel model =
      ValueOrDie(GmpSvmTrainer(GoldenOptions()).Train(data, &exec, &report));
  EXPECT_GT(report.pair_retries, 0);
  EXPECT_EQ(report.pairs_degraded, 0);
  ExpectGolden("model=" + Fnv(SerializeModel(model)) + "\n" + ReportText(report),
               R"(model=0x10350e95ad536ee2
sim=0x3f7878f4c1914ab7
solver it=448 or=29 krc=336 kru=784 krr=31 ar=2 rp=0 phases{ kernel_values=0x3f3e025df6010d75 other=0x3f51d618d999cb35 subproblem=0x3f3af2392f1a0e8f }
phases{ kernel_values=0x3f3e025df6010d75 other=0x3f51d618d999cb35 sigmoid=0x3f431375dd80165c subproblem=0x3f3af2392f1a0e8f }
kv_computed=6100 kv_reused=38700 peak=67119104 retries=4 degraded=0 resumed=0
)");
}

TEST(TrainerGoldenTest, GmpSkipDegraded) {
  const Dataset data = MakeGoldenData(4, 20, 6, 2.5, 1301);
  MpTrainOptions options = GoldenOptions();
  options.pair_failure_policy = PairFailurePolicy::kSkipDegraded;
  options.pair_retry.max_attempts = 2;
  fault::FaultPlan plan;
  plan.seed = 4;
  plan.kernel_row_fail_prob = 0.6;
  plan.max_consecutive_per_site = 0;
  fault::FaultInjector injector(plan);
  SimExecutor exec(ExecutorModel::TeslaP100());
  exec.SetFaultInjector(&injector);
  MpTrainReport report;
  const MpSvmModel model =
      ValueOrDie(GmpSvmTrainer(options).Train(data, &exec, &report));
  EXPECT_GT(report.pairs_degraded, 0);
  EXPECT_LT(report.pairs_degraded, 6);
  ExpectGolden("model=" + Fnv(SerializeModel(model)) + "\n" + ReportText(report),
               R"(model=0xce9b86d4706e8f6c
sim=0x3f6579bd29aebf57
solver it=299 or=19 krc=283 kru=485 krr=30 ar=0 rp=0 phases{ kernel_values=0x3f27ccbc2c2c424c other=0x3f34fee14b3afeee subproblem=0x3f223d6f4c3e1c0b }
phases{ kernel_values=0x3f27ccbc2c2c424c other=0x3f34fee14b3afeee sigmoid=0x3f30b25183a15c82 subproblem=0x3f223d6f4c3e1c0b }
kv_computed=5920 kv_reused=24800 peak=67119104 retries=3 degraded=2 resumed=0
)");
}

TEST(TrainerGoldenTest, GmpCheckpointInterruptThenResume) {
  const Dataset data = MakeGoldenData(4, 20, 6, 2.5, 1301);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "trainer_golden_ckpt";
  std::filesystem::remove_all(dir);
  MpTrainOptions options = GoldenOptions();
  options.checkpoint.dir = dir.string();

  fault::FaultPlan plan;
  plan.interrupt_after_pairs = 2;
  fault::FaultInjector injector(plan);
  SimExecutor exec(ExecutorModel::TeslaP100());
  exec.SetFaultInjector(&injector);
  const Result<MpSvmModel> interrupted =
      GmpSvmTrainer(options).Train(data, &exec, nullptr);
  ASSERT_FALSE(interrupted.ok());
  EXPECT_TRUE(interrupted.status().IsUnavailable());

  options.checkpoint.resume = true;
  SimExecutor resume_exec(ExecutorModel::TeslaP100());
  ExpectGolden(GmpRun(data, options, &resume_exec), R"(model=0x10350e95ad536ee2
sim=0x3f30709ca9ee79c5
solver it=309 or=20 krc=155 kru=485 krr=0 ar=0 rp=0 phases{ kernel_values=0x3f2a1d864627d67a other=0x3f360bc6b16101ad subproblem=0x3f2316c3a4b693bc }
phases{ kernel_values=0x3f2a1d864627d67a other=0x3f360bc6b16101ad sigmoid=0x3f30b25183a15c64 subproblem=0x3f2316c3a4b693bc }
kv_computed=4520 kv_reused=21080 peak=67119104 retries=0 degraded=0 resumed=2
)");
  std::filesystem::remove_all(dir);
}

std::string SequentialRun(int host_threads, bool trace) {
  const Dataset data = MakeGoldenData(3, 18, 5, 2.5, 77);
  MpTrainOptions options = GoldenOptions();
  options.host_threads = host_threads;
  SimExecutor exec(ExecutorModel::TeslaP100());
  obs::TraceRecorder recorder;
  if (trace) exec.SetSpanRecorder(&recorder);
  MpTrainReport report;
  const MpSvmModel model =
      ValueOrDie(SequentialMpTrainer(options).Train(data, &exec, &report));
  return "model=" + Fnv(SerializeModel(model)) + "\n" + ReportText(report) +
         (trace ? SpansFnv(recorder) : "");
}

TEST(TrainerGoldenTest, SequentialSingleThread) {
  ExpectGolden(SequentialRun(1, false), R"(model=0x2ff8a8337ca0f038
sim=0x3f7059a9afd0a8d9
solver it=123 or=123 krc=52 kru=197 krr=0 ar=0 rp=0 phases{ kernel_values=0x3f54a5c90ebc8586 other=0x3f649238386f6980 }
phases{ kernel_values=0x3f54a5c90ebc8586 other=0x3f649238386f6980 sigmoid=0x3f28e64f444d04f8 }
kv_computed=1872 kv_reused=7092 peak=0 retries=0 degraded=0 resumed=0
)");
}

TEST(TrainerGoldenTest, SequentialHostThreadsAndSpans) {
  ExpectGolden(SequentialRun(4, true), R"(model=0x2ff8a8337ca0f038
sim=0x3f7059a9afd0a8d9
solver it=123 or=123 krc=52 kru=197 krr=0 ar=0 rp=0 phases{ kernel_values=0x3f54a5c90ebc8532 other=0x3f649238386f697a }
phases{ kernel_values=0x3f54a5c90ebc8532 other=0x3f649238386f697a sigmoid=0x3f28e64f444d0548 }
kv_computed=1872 kv_reused=7092 peak=0 retries=0 degraded=0 resumed=0
spans=797 fnv=0x27be48650693e8b8
)");
}

TEST(TrainerGoldenTest, OvaHostThreads) {
  const Dataset data = MakeGoldenData(4, 15, 6, 2.5, 4242);
  MpTrainOptions options = GoldenOptions();
  options.host_threads = 4;
  SimExecutor exec(ExecutorModel::TeslaP100());
  MpTrainReport report;
  const OvaModel model =
      ValueOrDie(OvaTrainer(options).Train(data, &exec, &report));
  std::string text;
  for (const OvaClassEntry& entry : model.classes) {
    text += StrPrintf("class %d bias=", entry.cls) + Bits(entry.bias) +
            " a=" + Bits(entry.sigmoid.a) + " b=" + Bits(entry.sigmoid.b);
    for (size_t m = 0; m < entry.sv_pool_index.size(); ++m) {
      text += StrPrintf(" %d:", entry.sv_pool_index[m]) + Bits(entry.sv_coef[m]);
    }
    text += "\n";
  }
  for (int32_t row : model.pool_source_rows) text += StrPrintf("%d ", row);
  ExpectGolden("model=" + Fnv(text) + "\n" + ReportText(report), R"(model=0x29a35f9c0de87a93
sim=0x3f5394e5421a8c17
solver it=382 or=24 krc=225 kru=543 krr=0 ar=0 rp=0 phases{ kernel_values=0x3f3102932859565f other=0x3f3b0b7e34df5f0c subproblem=0x3f271f9f0ba1bc8a }
phases{ kernel_values=0x3f3102932859565f other=0x3f3b0b7e34df5f0c subproblem=0x3f271f9f0ba1bc8a }
kv_computed=13500 kv_reused=32580 peak=15360 retries=0 degraded=0 resumed=0
)");
}

std::string ClusterText(const MpSvmModel& model,
                        const cluster::ClusterTrainReport& r) {
  std::string text = "model=" + Fnv(SerializeModel(model)) +
                     "\nmakespan=" + Bits(r.makespan_sim_seconds) + "\n" +
                     ReportText(r.merged);
  for (const cluster::DeviceUtilization& d : r.devices) {
    text += d.model_name + StrPrintf(" lost=%d sim=", d.lost ? 1 : 0) +
            Bits(d.sim_seconds) + " util=" + Bits(d.utilization) + "\n";
  }
  for (const PairTrainOutcome& o : r.pair_outcomes) text += OutcomeText(o);
  text += "pair_device";
  for (int d : r.pair_device) text += StrPrintf(" %d", d);
  text += StrPrintf(
      "\nrescheduled=%lld devices_lost=%d nodes=%d nodes_lost=%d sharded=%d "
      "shards_rescheduled=%lld\n",
      static_cast<long long>(r.pairs_rescheduled), r.devices_lost, r.nodes,
      r.nodes_lost, r.pairs_sharded,
      static_cast<long long>(r.shards_rescheduled));
  text += StrPrintf("dist allreduces=%lld rounds=%lld merge=",
                    static_cast<long long>(r.dist.allreduces),
                    static_cast<long long>(r.dist.allreduce_rounds)) +
          Bits(r.dist.merge_seconds) + " intra=" + Bits(r.dist.intra_node_bytes) +
          " inter=" + Bits(r.dist.inter_node_bytes) + "\n";
  return text;
}

// pairs_trained is not pinned above: it counts every pair on the device that
// trained it (the coordinator, for sharded pairs), which is what pair_device
// records, so it is checked against pair_device instead.
void ExpectPairsTrainedMatchPairDevice(const cluster::ClusterTrainReport& r) {
  for (size_t d = 0; d < r.devices.size(); ++d) {
    int on_device = 0;
    for (int pd : r.pair_device) on_device += pd == static_cast<int>(d) ? 1 : 0;
    EXPECT_EQ(r.devices[d].pairs_trained, on_device) << "device " << d;
  }
}

TEST(TrainerGoldenTest, ClusterShardedUnderNodeLoss) {
  const Dataset data = MakeGoldenData(4, 20, 6, 2.5, 1301);
  cluster::SimCluster cluster = cluster::SimCluster::HomogeneousNodes(
      2, 2, ExecutorModel::TeslaP100());
  cluster::ClusterTrainOptions options;
  options.train = GoldenOptions();
  options.train.share_kernel_blocks = false;
  options.schedule.max_shards_per_pair = 4;
  options.schedule.shard_oversize_factor = 0.0;
  options.fault = RetryingChaos(23);
  options.fault->node_loss_prob = 1.0;
  cluster::ClusterTrainReport report;
  const MpSvmModel model =
      ValueOrDie(cluster::ClusterTrainer(options).Train(data, &cluster, &report));
  EXPECT_GT(report.pairs_sharded, 0);
  EXPECT_EQ(report.nodes_lost, 1);
  EXPECT_GT(report.merged.pair_retries, 0);
  ExpectPairsTrainedMatchPairDevice(report);
  ExpectGolden(ClusterText(model, report), R"(model=0x10350e95ad536ee2
makespan=0x3f7e8d2a46ed63a2
sim=0x3f7e8d2a46ed63a2
solver it=448 or=29 krc=332 kru=724 krr=27 ar=1 rp=0 phases{ kernel_values=0x3f46600ba57d84cd other=0x3f519edffb316944 subproblem=0x3f2bad8f7317da02 }
phases{ kernel_values=0x3f46600ba57d84cd other=0x3f519edffb316944 sigmoid=0x3f465a523ae39ee4 subproblem=0x3f2bad8f7317da02 }
kv_computed=13280 kv_reused=28960 peak=5120 retries=3 degraded=0 resumed=0
tesla-p100 lost=0 sim=0x3f7e8d2a46ed63a2 util=0x3ff0000000000000
tesla-p100 lost=0 sim=0x3f7e4a6100dede2e util=0x3fefba0c12510a9d
tesla-p100 lost=1 sim=0x3ea1eb066b2081cd util=0x3f12c483f9b10c27
tesla-p100 lost=1 sim=0x3ea1eb066b2081cd util=0x3f12c483f9b10c27
pair 0 ckpt=0xf943a3b55b4e90b4 it=80 or=5 krc=38 kru=122 krr=1 ar=0 rp=0 phases{ kernel_values=0x3eff83fea7d414aa other=0x3f3a259e0abb392e subproblem=0x3f034d46fbb9ac86 } sigmoid=0x3f25749a375ecfd0 done=1 retries=0 degraded=0
pair 1 ckpt=0x09ebdafe91e9b1d2 it=59 or=4 krc=102 kru=90 krr=9 ar=1 rp=0 phases{ kernel_values=0x3efa45d1459b3a00 other=0x3f151d5a844b95c0 subproblem=0x3efe1bd07b96d600 } sigmoid=0x3f25749a375ed020 done=1 retries=2 degraded=0
pair 2 ckpt=0xeadca810eed77d3d it=80 or=5 krc=76 kru=148 krr=7 ar=0 rp=0 phases{ kernel_values=0x3f08c22e1e5cb680 other=0x3f2a1350dc192840 subproblem=0x3f034d46fbb9ad00 } sigmoid=0x3f25749a375ed020 done=1 retries=1 degraded=0
pair 3 ckpt=0xa0acc057e89d8f63 it=76 or=5 krc=38 kru=122 krr=5 ar=0 rp=0 phases{ kernel_values=0x3f31d45600693bc0 other=0x3f2a1669c6dc3e00 subproblem=0x3f02fdfc4e9de600 } sigmoid=0x3f10b25183a15d00 done=1 retries=0 degraded=0
pair 4 ckpt=0x878b42b13c4237e0 it=80 or=5 krc=36 kru=124 krr=3 ar=0 rp=0 phases{ kernel_values=0x3f0a979b5b3d6200 other=0x3f19f3e0061a2a40 subproblem=0x3f034d46fbb9ad00 } sigmoid=0x3f10b25183a15d00 done=1 retries=0 degraded=0
pair 5 ckpt=0xfe1ea751da418d74 it=73 or=5 krc=42 kru=118 krr=2 ar=0 rp=0 phases{ kernel_values=0x3f30e3eb1c8795e0 other=0x3f19f2d7b7d92300 subproblem=0x3f02c2844cc91080 } sigmoid=0x3f10b25183a15d00 done=1 retries=0 degraded=0
pair_device 0 0 0 0 0 0
rescheduled=0 devices_lost=2 nodes=2 nodes_lost=1 sharded=6 shards_rescheduled=12
dist allreduces=140 rounds=140 merge=0x3f22661457c5b04d intra=0x410b320000000000 inter=0x0000000000000000
)");
}

TEST(TrainerGoldenTest, ClusterCleanHostThreads) {
  const Dataset data = MakeGoldenData(4, 20, 6, 2.5, 1301);
  ExecutorModel device = ExecutorModel::TeslaP100();
  device.host_threads = 4;
  cluster::SimCluster cluster = cluster::SimCluster::Homogeneous(2, device);
  cluster::ClusterTrainOptions options;
  options.train = GoldenOptions();
  options.train.share_kernel_blocks = false;
  cluster::ClusterTrainReport report;
  const MpSvmModel model =
      ValueOrDie(cluster::ClusterTrainer(options).Train(data, &cluster, &report));
  ExpectPairsTrainedMatchPairDevice(report);
  ExpectGolden(ClusterText(model, report), R"(model=0x10350e95ad536ee2
makespan=0x3f2f71e91ea4af41
sim=0x3f2f71e91ea4af41
solver it=448 or=29 krc=231 kru=697 krr=0 ar=0 rp=0 phases{ kernel_values=0x3f2c845041e1ad98 other=0x3f40030782de6478 subproblem=0x3f2bad8f7317d994 }
phases{ kernel_values=0x3f2c845041e1ad98 other=0x3f40030782de6478 sigmoid=0x3f390b7a45720a96 subproblem=0x3f2bad8f7317d994 }
kv_computed=9240 kv_reused=27880 peak=10240 retries=0 degraded=0 resumed=0
tesla-p100 lost=0 sim=0x3f2f6ff3ff027a95 util=0x3feffe0207f47631
tesla-p100 lost=0 sim=0x3f2f71e91ea4af41 util=0x3ff0000000000000
pair 0 ckpt=0xf943a3b55b4e90b4 it=80 or=5 krc=38 kru=122 krr=0 ar=0 rp=0 phases{ kernel_values=0x3ef99d45472e8cfe other=0x3f160931edbe6f88 subproblem=0x3f034d46fbb9ac80 } sigmoid=0x3f10b25183a15c64 done=1 retries=0 degraded=0
pair 1 ckpt=0x09ebdafe91e9b1d2 it=59 or=4 krc=38 kru=90 krr=0 ar=0 rp=0 phases{ kernel_values=0x3ef99d45472e8cfe other=0x3f11dfef63b0ad85 subproblem=0x3efe1bd07b96d5d4 } sigmoid=0x3f10b25183a15c64 done=1 retries=0 degraded=0
pair 2 ckpt=0xeadca810eed77d3d it=80 or=5 krc=39 kru=121 krr=0 ar=0 rp=0 phases{ kernel_values=0x3f0777b93e2d5837 other=0x3f160510b4ba5281 subproblem=0x3f034d46fbb9ac82 } sigmoid=0x3f10b25183a15c64 done=1 retries=0 degraded=0
pair 3 ckpt=0xa0acc057e89d8f63 it=76 or=5 krc=38 kru=122 krr=0 ar=0 rp=0 phases{ kernel_values=0x3f074afd6808faf7 other=0x3f1611745fc6a997 subproblem=0x3f02fdfc4e9de58e } sigmoid=0x3f10b25183a15c64 done=1 retries=0 degraded=0
pair 4 ckpt=0x878b42b13c4237e0 it=80 or=5 krc=36 kru=124 krr=0 ar=0 rp=0 phases{ kernel_values=0x3f01b3585987663b other=0x3f160d5326c28c8f subproblem=0x3f034d46fbb9ac82 } sigmoid=0x3f10b25183a15c64 done=1 retries=0 degraded=0
pair 5 ckpt=0xfe1ea751da418d74 it=73 or=5 krc=42 kru=118 krr=0 ar=0 rp=0 phases{ kernel_values=0x3f07fdecc09a6ff9 other=0x3f160b428a407e0d subproblem=0x3f02c2844cc9105a } sigmoid=0x3f10b25183a15c64 done=1 retries=0 degraded=0
pair_device 0 1 0 1 0 1
rescheduled=0 devices_lost=0 nodes=1 nodes_lost=0 sharded=0 shards_rescheduled=0
dist allreduces=0 rounds=0 merge=0x0000000000000000 intra=0x0000000000000000 inter=0x0000000000000000
)");
}

std::string WarmText(const MpSvmModel& model,
                     const online::WarmRetrainReport& r) {
  std::string text =
      "model=" + Fnv(SerializeModel(model)) +
      StrPrintf("\nretrained=%lld carried=%lld retries=%lld degraded=%lld "
                "seeded=%lld makespan=",
                static_cast<long long>(r.pairs_retrained),
                static_cast<long long>(r.pairs_carried),
                static_cast<long long>(r.pair_retries),
                static_cast<long long>(r.pairs_degraded),
                static_cast<long long>(r.warm_seeded_rows)) +
      Bits(r.makespan_sim_seconds) + "\n";
  for (const PairTrainOutcome& o : r.retrained) text += OutcomeText(o);
  return text;
}

// Warm-retrains a drifted copy of the golden data (the first 8 class-0 rows
// relabeled to class 1) on 2 devices.
std::string WarmRun(int host_threads, std::optional<fault::FaultPlan> plan) {
  const Dataset base = MakeGoldenData(4, 20, 6, 2.5, 1301);
  SimExecutor exec(ExecutorModel::TeslaP100());
  const MpSvmModel initial =
      ValueOrDie(GmpSvmTrainer(GoldenOptions()).Train(base, &exec, nullptr));

  online::DatasetDelta delta;
  delta.base_fingerprint = online::DatasetFingerprint(base);
  delta.num_classes = base.num_classes();
  for (int i = 0; i < 8; ++i) {
    online::DeltaOp op;
    op.kind = online::DeltaOp::Kind::kRelabel;
    op.row = base.ClassRows(0)[static_cast<size_t>(i)];
    op.old_label = 0;
    op.new_label = 1;
    delta.ops.push_back(op);
  }
  const Dataset drifted = ValueOrDie(online::ApplyDelta(base, delta));

  ExecutorModel device = ExecutorModel::TeslaP100();
  device.host_threads = host_threads;
  cluster::SimCluster cluster = cluster::SimCluster::Homogeneous(2, device);
  online::WarmRetrainOptions options;
  options.train = GoldenOptions();
  options.train.share_kernel_blocks = false;
  const bool plan_set = plan.has_value();
  options.fault = std::move(plan);
  online::WarmRetrainReport report;
  const MpSvmModel warm = ValueOrDie(online::WarmRetrain(
      drifted, online::CheckpointsFromModel(initial),
      online::AffectedClasses(delta), options, &cluster, &report));
  EXPECT_GT(report.warm_seeded_rows, 0);
  if (plan_set) {
    EXPECT_GT(report.pair_retries, 0);
  }
  return WarmText(warm, report);
}

TEST(TrainerGoldenTest, WarmRetrainChaosOnTwoDevices) {
  ExpectGolden(WarmRun(1, RetryingChaos(5)), R"(model=0x70592b42a007650b
retrained=5 carried=1 retries=4 degraded=0 seeded=113 makespan=0x3f70eac2f03fd5fb
pair 0 ckpt=0x2828c77a85b83bba it=56 or=4 krc=77 kru=83 krr=9 ar=1 rp=0 phases{ kernel_values=0x3f0b2336f423f4c0 other=0x3f26021e671d3710 subproblem=0x3efda4e077ed2c00 } sigmoid=0x3f25749a375ed020 done=1 retries=2 degraded=0
pair 1 ckpt=0x827789507e7c5d5c it=43 or=3 krc=32 kru=64 krr=0 ar=0 rp=0 phases{ kernel_values=0x3eea1038f210f300 other=0x3f23e5ad1f01ad25 subproblem=0x3f1fcfb6573c3432 } sigmoid=0x3f37c95ae6313266 done=1 retries=0 degraded=0
pair 2 ckpt=0xc1fd8a5905d4d832 it=44 or=3 krc=32 kru=64 krr=1 ar=0 rp=0 phases{ kernel_values=0x3ef24649db4153be other=0x3f23e4063b666e54 subproblem=0x3f1fd99facdfad10 } sigmoid=0x3f1080c2d7700010 done=1 retries=0 degraded=0
pair 3 ckpt=0x44f901a357ec5df9 it=73 or=5 krc=98 kru=126 krr=8 ar=0 rp=0 phases{ kernel_values=0x3ef85b300e28ba80 other=0x3f2847ff76892840 subproblem=0x3f02c2844cc910c0 } sigmoid=0x3f13b4858d2081a0 done=1 retries=2 degraded=0
pair 4 ckpt=0x782687b28ef8eb2c it=64 or=4 krc=35 kru=93 krr=2 ar=0 rp=0 phases{ kernel_values=0x3f01a1739d78da89 other=0x3f26336365c741b7 subproblem=0x3efee20b2c5c4736 } sigmoid=0x3f320892d8d64224 done=1 retries=0 degraded=0
)");
}

TEST(TrainerGoldenTest, WarmRetrainCleanHostThreads) {
  ExpectGolden(WarmRun(4, std::nullopt), R"(model=0x70592b42a007650b
retrained=5 carried=1 retries=0 degraded=0 seeded=113 makespan=0x3f2fcee956d81748
pair 0 ckpt=0x2828c77a85b83bba it=56 or=4 krc=45 kru=83 krr=0 ar=0 rp=0 phases{ kernel_values=0x3f088420430787b9 other=0x3f11cd59e31e2ae3 subproblem=0x3efda4e077ed2b6c } sigmoid=0x3f10b25183a15c64 done=1 retries=0 degraded=0
pair 1 ckpt=0x827789507e7c5d5c it=43 or=3 krc=32 kru=64 krr=0 ar=0 rp=0 phases{ kernel_values=0x3eea1038f210f304 other=0x3f0b28eea5ce2e30 subproblem=0x3ef6634db07fc408 } sigmoid=0x3f1080c2d7700010 done=1 retries=0 degraded=0
pair 2 ckpt=0xc1fd8a5905d4d832 it=44 or=3 krc=32 kru=64 krr=0 ar=0 rp=0 phases{ kernel_values=0x3eea1038f210f304 other=0x3f0b2253176132f0 subproblem=0x3ef68af3070da780 } sigmoid=0x3f1080c2d7700010 done=1 retries=0 degraded=0
pair 3 ckpt=0x44f901a357ec5df9 it=73 or=5 krc=34 kru=126 krr=0 ar=0 rp=0 phases{ kernel_values=0x3ef85b300e28ba62 other=0x3f16591c01f60d5d subproblem=0x3f02c2844cc9105a } sigmoid=0x3f13b4858d20823a done=1 retries=0 degraded=0
pair 4 ckpt=0x782687b28ef8eb2c it=64 or=4 krc=35 kru=93 krr=0 ar=0 rp=0 phases{ kernel_values=0x3ef8c68c76800096 other=0x3f122fe3e072403d subproblem=0x3efee20b2c5c4734 } sigmoid=0x3f13b4858d20823a done=1 retries=0 degraded=0
)");
}

}  // namespace
}  // namespace gmpsvm
