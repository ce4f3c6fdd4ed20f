// Traced replays of training and exact prediction through the library's
// public layer functions, with a benchmark span around each call.

#include <algorithm>
#include <numeric>

#include "core/shared_blocks.h"
#include "kernel/kernel_computer.h"
#include "phases.h"
#include "prob/pairwise_coupling.h"
#include "prob/platt.h"
#include "simd/simd.h"
#include "solver/batch_smo_solver.h"

namespace perfbench {

using namespace gmpsvm;  // NOLINT

namespace {

// Kernel rows for one pair from the shared class-block cache, with a
// "kernel.rows" span around every batched request the solver makes.
class TracedRowSource : public KernelRowSource {
 public:
  TracedRowSource(const BinaryProblem* problem, int class_s, int class_t,
                  SharedBlockCache* cache, const KernelComputer* computer,
                  Tracer* tracer, int64_t* rows_requested)
      : inner_(problem, class_s, class_t, cache, computer),
        tracer_(tracer),
        rows_requested_(rows_requested) {}

  void ComputeRows(std::span<const int32_t> local_rows,
                   std::span<double* const> dest, SimExecutor* executor,
                   StreamId stream) override {
    ScopedSpan span(tracer_, "kernel.rows");
    *rows_requested_ += static_cast<int64_t>(local_rows.size());
    inner_.ComputeRows(local_rows, dest, executor, stream);
  }

 private:
  SharedRowSource inner_;
  Tracer* tracer_;
  int64_t* rows_requested_;
};

}  // namespace

Result<TrainReplay> ReplayTraining(const Dataset& train,
                                   const MpTrainOptions& options,
                                   const ExecutorModel& device,
                                   Tracer* tracer) {
  TrainReplay out;
  const Clock::time_point t0 = Clock::now();
  SimExecutor exec(device);
  {
    ScopedSpan root(tracer, "train.replay");
    KernelComputer computer(&train.features(), options.kernel);
    BatchSmoSolver solver(options.batch);
    SharedBlockCache cache(&train, &computer, options.shared_cache_bytes, &exec);
    const auto pairs = train.ClassPairs();
    std::vector<PairCheckpoint> checkpoints;
    checkpoints.reserve(pairs.size());
    for (const auto& [s, t] : pairs) {
      BinaryProblem problem;
      {
        ScopedSpan span(tracer, "core.pair_problem");
        problem = train.MakePairProblem(s, t, options.c, options.kernel);
      }
      SolverStats stats;
      BinarySolution solution;
      {
        ScopedSpan span(tracer, "solver.solve");
        TracedRowSource source(&problem, s, t, &cache, &computer, tracer,
                               &out.rows_requested);
        GMP_ASSIGN_OR_RETURN(solution,
                             solver.Solve(problem, computer, &source, &exec,
                                          kDefaultStream, &stats));
      }
      out.solver.Merge(stats);
      // Training decision values fall out of the solver: v = f + y + b.
      std::vector<double> v(solution.f.size());
      for (size_t i = 0; i < v.size(); ++i) {
        v[i] = solution.f[i] + static_cast<double>(problem.y[i]) + solution.bias;
      }
      PairCheckpoint pair;
      {
        ScopedSpan span(tracer, "prob.platt");
        GMP_ASSIGN_OR_RETURN(
            pair.sigmoid,
            FitSigmoid(v, problem.y, options.platt, &exec, kDefaultStream,
                       options.platt_parallel_candidates));
      }
      pair.class_s = s;
      pair.class_t = t;
      pair.bias = solution.bias;
      for (int64_t i = 0; i < problem.n(); ++i) {
        const double a = solution.alpha[static_cast<size_t>(i)];
        if (a <= 0.0) continue;
        pair.sv_rows.push_back(problem.rows[static_cast<size_t>(i)]);
        pair.sv_coef.push_back(a * static_cast<double>(problem.y[static_cast<size_t>(i)]));
      }
      checkpoints.push_back(std::move(pair));
    }
    {
      ScopedSpan span(tracer, "core.assemble");
      GMP_ASSIGN_OR_RETURN(out.model,
                           AssembleModelFromPairs(train, options, checkpoints));
    }
    out.cache_hits = cache.hits();
    out.cache_misses = cache.misses();
  }
  out.values_computed = exec.counters().kernel_values_computed;
  out.values_reused = exec.counters().kernel_values_reused;
  out.wall_seconds = SecondsSince(t0);
  return out;
}

Result<PredictReplay> ReplayPrediction(const MpSvmModel& model,
                                       const CsrMatrix& test,
                                       const ExecutorModel& device,
                                       Tracer* tracer) {
  PredictReplay out;
  const Clock::time_point t0 = Clock::now();
  SimExecutor exec(device);
  const int k = model.num_classes;
  const int64_t n = test.rows();
  const int64_t pool = model.pool_size();
  out.probabilities.assign(static_cast<size_t>(n) * k, 0.0);
  {
    ScopedSpan root(tracer, "predict.replay");
    KernelComputer computer(&test, &model.support_vectors, model.kernel);
    const simd::SimdOps& ops = simd::OpsFor(simd::SimdTier::kAuto);
    const CouplingOptions coupling;
    std::vector<int32_t> pool_rows(static_cast<size_t>(pool));
    std::iota(pool_rows.begin(), pool_rows.end(), 0);

    // Tiles sized as MpSvmPredictor sizes them: the tile x pool kernel block
    // takes at most a quarter of the free device memory.
    const size_t free_bytes = exec.memory_budget() > exec.bytes_in_use()
                                  ? exec.memory_budget() - exec.bytes_in_use()
                                  : 0;
    const int64_t tile_rows = std::clamp<int64_t>(
        static_cast<int64_t>(free_bytes / 4 / (sizeof(double) * std::max<int64_t>(1, pool))),
        1, std::max<int64_t>(1, n));
    std::vector<int32_t> tile_ids;
    std::vector<double> kblock, v, r, p;
    const size_t num_pairs = model.svms.size();
    for (int64_t begin = 0; begin < n; begin += tile_rows) {
      const int64_t tile = std::min(tile_rows, n - begin);
      tile_ids.resize(static_cast<size_t>(tile));
      std::iota(tile_ids.begin(), tile_ids.end(), static_cast<int32_t>(begin));
      kblock.resize(static_cast<size_t>(tile * pool));
      {
        ScopedSpan span(tracer, "kernel.block");
        computer.ComputeBlock(tile_ids, pool_rows, &exec, kDefaultStream,
                              kblock.data());
      }
      // Decision values of every binary SVM for the tile, gathered from the
      // shared block: v = b + sum coef * K (the predictor's order exactly).
      v.resize(num_pairs * static_cast<size_t>(tile));
      {
        ScopedSpan span(tracer, "core.decision");
        for (size_t pi = 0; pi < num_pairs; ++pi) {
          const BinarySvmEntry& svm = model.svms[pi];
          double* vp = v.data() + pi * static_cast<size_t>(tile);
          exec.HostParallelFor(tile, /*min_chunk=*/64, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              vp[i] = svm.bias;
              vp[i] += ops.gather_dot(svm.sv_coef.data(), svm.sv_pool_index.data(),
                                      svm.num_svs(), kblock.data() + i * pool);
            }
          });
        }
      }
      r.assign(static_cast<size_t>(tile) * k * k, 0.0);
      {
        ScopedSpan span(tracer, "prob.sigmoid");
        for (size_t pi = 0; pi < num_pairs; ++pi) {
          const BinarySvmEntry& svm = model.svms[pi];
          const double* vp = v.data() + pi * static_cast<size_t>(tile);
          for (int64_t i = 0; i < tile; ++i) {
            const double prob_s = svm.sigmoid.Probability(vp[i]);
            const size_t base = static_cast<size_t>(i) * k * k;
            r[base + static_cast<size_t>(svm.class_s) * k + svm.class_t] = prob_s;
            r[base + static_cast<size_t>(svm.class_t) * k + svm.class_s] = 1.0 - prob_s;
          }
        }
      }
      p.resize(static_cast<size_t>(tile) * k);
      {
        ScopedSpan span(tracer, "prob.coupling");
        GMP_RETURN_NOT_OK(
            CoupleBatch(r, k, tile, coupling, &exec, kDefaultStream, p.data()));
      }
      std::copy(p.begin(), p.end(),
                out.probabilities.begin() + static_cast<ptrdiff_t>(begin * k));
    }
  }
  out.wall_seconds = SecondsSince(t0);
  return out;
}

}  // namespace perfbench
