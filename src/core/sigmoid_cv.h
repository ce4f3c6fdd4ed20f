// Cross-validated decision values for sigmoid fitting.
//
// Stock LibSVM (svm_binary_svc_probability) fits the Platt sigmoid on
// decision values from an internal 5-fold cross-validation rather than on
// the training-set decision values, trading ~5x extra binary training for
// less optimistic (better calibrated) probabilities. The paper's Algorithm 2
// uses the direct training-set values, so that is this library's default;
// this module provides the LibSVM-faithful alternative behind
// MpTrainOptions::sigmoid_cv_folds.

#ifndef GMPSVM_CORE_SIGMOID_CV_H_
#define GMPSVM_CORE_SIGMOID_CV_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "device/executor.h"
#include "kernel/kernel_computer.h"
#include "solver/solver_stats.h"
#include "solver/svm_problem.h"

namespace gmpsvm {

// Trains one binary SVM for a (sub-)problem whose kernel rows come from
// `computer`, charging `stream`; `stats` may be null. The signature of
// SmoSolver::Solve and BatchSmoSolver::Solve, so a trainer passes either.
using BinarySolveFn = std::function<Result<BinarySolution>(
    const BinaryProblem& problem, const KernelComputer& computer,
    SimExecutor* executor, StreamId stream, SolverStats* stats)>;

// Returns per-instance decision values where v[i] was produced by a model
// that did NOT train on instance i (stratified `folds`-fold CV inside the
// binary problem). `computer` must cover the problem's underlying matrix.
Result<std::vector<double>> CrossValidatedDecisionValues(
    const BinaryProblem& problem, const KernelComputer& computer,
    const BinarySolveFn& solve, int folds, uint64_t seed, SimExecutor* executor,
    StreamId stream);

}  // namespace gmpsvm

#endif  // GMPSVM_CORE_SIGMOID_CV_H_
