// Phases a workload run is made of (internal to the benchmark).

#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "core/model.h"
#include "core/mp_trainer.h"
#include "core/predictor.h"
#include "device/sim_model.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

// Paper options for a proxy, scaled to the proxy world the same way the
// repository's table benches scale them: row capacities by sigma, byte
// capacities by sigma^2, launch overhead by sigma (sigma = proxy / paper
// cardinality, floored at 1/16). The benchmark keeps its own copy so that a
// change to the table benches cannot change what it measures.
gmpsvm::ExecutorModel ScaledDeviceModel(const gmpsvm::SyntheticSpec& spec,
                                        int host_threads);
gmpsvm::MpTrainOptions PaperTrainOptions(const gmpsvm::SyntheticSpec& spec);
gmpsvm::PredictOptions CascadePredictOptions();

// Checks every probability row: finite, non-negative, sums to 1 within
// kProbSumTolerance. Returns the largest |sum - 1| seen through `max_dev`.
inline constexpr double kProbSumTolerance = 1e-12;
bool ProbabilitiesValid(const std::vector<double>& probs, int k,
                        double* max_dev);

namespace serve_detail {
struct LevelResult;
}  // namespace serve_detail

// Open-loop serving of one model with a workload's serve plan: one generator
// thread submits at fixed absolute rates to an InferenceServer with
// kServeWorkers workers, every request is timed from its due time, and every
// answer is compared byte for byte with offline Predict (`expected`, the
// probabilities of `rows`).
// The server: 2 workers, micro-batches of at most 32 requests, and a batch
// window of 500 us.
inline constexpr int kServeWorkers = 2;
inline constexpr int kMaxBatch = 32;
inline constexpr int kBatchDelayUs = 500;
class ServeSession {
 public:
  // All referents must outlive the session; the model is copied.
  ServeSession(const WorkloadConfig& config, const gmpsvm::MpSvmModel& model,
               const gmpsvm::CsrMatrix& rows, const std::vector<double>& expected);
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  // One chunk of at least kMinLevelRequests requests at each rate, with
  // request spans, then one ladder sweep; fills the serve.* metrics.
  void RunTraced(Tracer* tracer, RunOutput* out);
  // Request accounting and the answer check.
  void Finish(RunOutput* out) const;

 private:
  struct Counts {
    int64_t submitted = 0, ok = 0, rejected = 0, expired = 0, failed = 0;
  };
  void Account(const serve_detail::LevelResult& level, bool ladder);
  // Returns the throughput achieved at the highest passing rung.
  double RunLadder();

  ServePlan plan_;
  const gmpsvm::CsrMatrix& rows_;
  const std::vector<double>& expected_;
  int k_;
  gmpsvm::ModelRegistry registry_;
  gmpsvm::ServeOptions options_;
  int64_t next_row_ = 0;  // ladder rungs walk on through the test rows
  Counts fixed_counts_, ladder_counts_;
  int64_t wrong_answers_ = 0;
  size_t max_queue_depth_ = 0;
  int64_t low_samples_ = 0, high_samples_ = 0;
  std::string ladder_detail_;
};

// Traced training replay: pair by pair through MakePairProblem ->
// BatchSmoSolver::Solve (rows from a traced SharedRowSource over one
// SharedBlockCache) -> FitSigmoid, then AssembleModelFromPairs. Returns the
// replayed model; solver statistics and kernel counters go to `out`.
struct TrainReplay {
  gmpsvm::MpSvmModel model;
  gmpsvm::SolverStats solver;
  int64_t rows_requested = 0;
  int64_t values_computed = 0;
  int64_t values_reused = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  double wall_seconds = 0.0;
};
gmpsvm::Result<TrainReplay> ReplayTraining(const gmpsvm::Dataset& train,
                                           const gmpsvm::MpTrainOptions& options,
                                           const gmpsvm::ExecutorModel& device,
                                           Tracer* tracer);

// Traced exact-prediction replay: per tile, KernelComputer::ComputeBlock
// (tile x support-vector pool) -> gathered decision values ->
// SigmoidParams::Probability -> CoupleBatch. Returns the probabilities,
// which must equal MpSvmPredictor::Predict's byte for byte.
struct PredictReplay {
  std::vector<double> probabilities;
  double wall_seconds = 0.0;
};
gmpsvm::Result<PredictReplay> ReplayPrediction(const gmpsvm::MpSvmModel& model,
                                               const gmpsvm::CsrMatrix& test,
                                               const gmpsvm::ExecutorModel& device,
                                               Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
