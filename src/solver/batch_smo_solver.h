// BatchSmoSolver: the binary-SVM-level solver of GMP-SVM (Section 3.3.1).
//
// Differences from the classic SmoSolver:
//   * a working set of ws_size instances instead of two, refreshed by
//     replacing its q most stale members with the q most violating eligible
//     instances (q = ws/2 by default, the paper's keep-half heuristic);
//   * the kernel rows of the working set are computed in one batched sparse
//     product and kept in a pre-allocated GPU buffer with FIFO replacement,
//     so refreshes only compute rows that are not already buffered;
//   * multiple SMO subproblems are solved per refresh against the buffered
//     rows ("solving q/2 subproblems in a batch is cheaper than solving the
//     same number individually");
//   * the inner optimization terminates early, with a budget scaled by
//     delta = f_l - f_u, to avoid over-fitting the working set ("reducing
//     the negative effect of local optimization on the working set").
//
// The solver produces the same classifier as SmoSolver/LibSVM up to the
// shared optimality tolerance (verified in tests and Table 4's bench). The
// same loop also solves a pair with its instances sharded across devices
// (SolveSharded); a single-device solve is its one-shard case.

#ifndef GMPSVM_SOLVER_BATCH_SMO_SOLVER_H_
#define GMPSVM_SOLVER_BATCH_SMO_SOLVER_H_

#include <cstdint>
#include <span>

#include "device/executor.h"
#include "dist/shard.h"
#include "dist/topology.h"
#include "kernel/kernel_computer.h"
#include "solver/kernel_buffer.h"
#include "solver/kernel_row_source.h"
#include "solver/solver_stats.h"
#include "solver/svm_problem.h"
#include "solver/working_set.h"

namespace gmpsvm {

struct BatchSmoOptions {
  WorkingSetConfig working_set;

  // Buffer capacity in rows; 0 means "same as the working set size" (the
  // paper equates buffer size and working-set size in Section 4.2). Values
  // larger than ws_size let rows of instances that left the working set be
  // reused if they re-enter.
  int buffer_rows = 0;

  // Buffer replacement policy (paper default: FIFO; kLru for the ablation).
  KernelBuffer::Policy buffer_policy = KernelBuffer::Policy::kFifo;

  // Optimality tolerance (Constraint (9)).
  double eps = 1e-3;

  // Safety bound on outer working-set refreshes.
  int64_t max_outer_rounds = 1'000'000;

  // Inner-iteration budget policy. kDeltaAdaptive spends few iterations per
  // working set while the global violation delta is large and more as the
  // solver approaches optimality; kFixed always runs max_inner (ablation).
  enum class InnerPolicy { kFixed, kDeltaAdaptive };
  InnerPolicy inner_policy = InnerPolicy::kDeltaAdaptive;

  // Max SMO subproblems per refresh; 0 means ws_size / 2.
  int max_inner = 0;

  // Count the kernel buffer against the executor's device-memory budget.
  bool buffer_on_device = true;

  // --- Fault recovery ------------------------------------------------------
  // With a FaultInjector attached to the executor, the batched row
  // computation and the buffer allocation can fail transiently; the solver
  // retries them in place up to these attempt counts before giving up with
  // kUnavailable (which the trainers' pair-level retry then handles).
  int max_row_batch_retries = 4;
  int max_alloc_retries = 4;

  // Checks the configuration and returns InvalidArgument naming the offending
  // field (ws_size < 2, q < 1, non-positive eps, negative
  // buffer_rows/max_inner, non-positive max_outer_rounds). Called by the
  // solver and by MpTrainOptions::Validate. Oversized ws_size/q remain legal:
  // WorkingSetSelector clamps them to the problem size.
  Status Validate() const;
};

class BatchSmoSolver {
 public:
  explicit BatchSmoSolver(const BatchSmoOptions& options) : options_(options) {}

  // Trains one binary SVM; kernel rows come from `source` (direct or shared;
  // null computes them directly from the feature matrix).
  Result<BinarySolution> Solve(const BinaryProblem& problem,
                               const KernelComputer& computer,
                               KernelRowSource* source, SimExecutor* executor,
                               StreamId stream, SolverStats* stats) const;

  // Convenience overload using a DirectRowSource.
  Result<BinarySolution> Solve(const BinaryProblem& problem,
                               const KernelComputer& computer,
                               SimExecutor* executor, StreamId stream,
                               SolverStats* stats) const;

  // Warm-started solve ("alpha seeding", DeCoste & Wagstaff): starts from
  // `initial_alpha` (clamped into the problem's box; the equality constraint
  // must already hold, as it does for any previous solution of the same
  // data). Cuts iterations dramatically along hyper-parameter paths where
  // consecutive problems share most of their solution.
  Result<BinarySolution> SolveWarm(const BinaryProblem& problem,
                                   const KernelComputer& computer,
                                   std::span<const double> initial_alpha,
                                   SimExecutor* executor, StreamId stream,
                                   SolverStats* stats) const;

  // Warm-started solve against an explicit kernel-row source (the shared
  // kernel-block path; null as in Solve); otherwise identical to SolveWarm
  // above. This is the online pipeline's retraining entry point:
  // initial_alpha comes from the previous model's per-pair checkpoint,
  // mapped onto the new problem's rows.
  Result<BinarySolution> SolveWarm(const BinaryProblem& problem,
                                   const KernelComputer& computer,
                                   KernelRowSource* source,
                                   std::span<const double> initial_alpha,
                                   SimExecutor* executor, StreamId stream,
                                   SolverStats* stats) const;

  // Trains one binary SVM with the problem's instances sharded across devices
  // (intra-pair data parallelism). Each shard owns a contiguous local-index
  // range [begin, end) (dist/shard.h). Per outer round, every shard computes
  // its slice of the missing working-set kernel rows, its slice of the
  // f-vector update, and its local top-q violator candidates; the global
  // working set is then selected by a deterministic merge in the same total
  // order (f, index) the single-device sort uses, and the inner SMO
  // subproblems run on the coordinator (shards[0]). Merges are priced as
  // recursive-doubling allreduces under `topology`'s per-link model.
  //
  // Determinism contract: the solution, SolverStats counters, and every
  // kernel value are byte-identical to Solve on a single device, for any
  // shard count and any placement of the shards across nodes — only
  // simulated time (and hence phase attribution) depends on the topology.
  // The single-device solve is this same loop over one shard, so the loop
  // body is shared by construction; three facts carry the rest:
  //   * kernel slices — KernelComputer::ComputeBlock values are per-element
  //     independent of the target subset, so per-shard slices concatenate to
  //     the exact full-row bits;
  //   * selection — WorkingSetSelector's distributed refresh admits exactly
  //     the members the full sort would (working_set.h);
  //   * updates — the inner loop and the aggregate f update run in one
  //     element order whatever the sharding, and the convergence reduction
  //     merges min/max, which are order-free.
  // Fault parity: only the coordinator's executor may carry a FaultInjector
  // (the trainer attaches the per-pair injector there); the solver then
  // consults kDeviceAlloc / kKernelRowBatch / kBufferEvict in exactly the
  // single-device sequence, so chaos runs recover the clean model too.
  //
  // Cold start only (the warm-retrain path never shards). Requires
  // WorkingSetConfig::DropPolicy::kOldest — the distributed refresh cannot
  // reproduce kLeastViolating's tie behaviour — a non-null `topology`
  // covering every shard's device, and shards that ValidateShards accepts.
  // `stats` and `dist_stats` may be null; both accumulate.
  Result<BinarySolution> SolveSharded(const BinaryProblem& problem,
                                      const KernelComputer& computer,
                                      std::span<const dist::Shard> shards,
                                      const dist::ClusterTopology* topology,
                                      SolverStats* stats,
                                      dist::DistStats* dist_stats) const;

 private:
  // The one batched-SMO loop. A single-device solve is one shard covering
  // [0, n) with no topology (no merges); `source` null means a
  // DirectRowSource over the shards.
  Result<BinarySolution> SolveImpl(const BinaryProblem& problem,
                                   const KernelComputer& computer,
                                   KernelRowSource* source,
                                   std::span<const double> initial_alpha,
                                   std::span<const dist::Shard> shards,
                                   const dist::ClusterTopology* topology,
                                   SolverStats* stats,
                                   dist::DistStats* dist_stats) const;

  BatchSmoOptions options_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_SOLVER_BATCH_SMO_SOLVER_H_
