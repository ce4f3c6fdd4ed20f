#include "core/sigmoid_cv.h"

#include <algorithm>

#include "common/rng.h"
#include "common/string_util.h"

namespace gmpsvm {

Result<std::vector<double>> CrossValidatedDecisionValues(
    const BinaryProblem& problem, const KernelComputer& computer,
    const BinarySolveFn& solve, int folds, uint64_t seed, SimExecutor* executor,
    StreamId stream) {
  const int64_t n = problem.n();
  if (folds < 2 || folds > n) {
    return Status::InvalidArgument(
        StrPrintf("bad fold count %d for %lld instances", folds,
                  static_cast<long long>(n)));
  }

  // Stratified fold assignment per side (+1 / -1 round-robin after shuffle).
  std::vector<int32_t> fold_of(static_cast<size_t>(n), 0);
  {
    Rng rng(seed);
    for (int side = 0; side < 2; ++side) {
      std::vector<int32_t> locals;
      for (int64_t i = 0; i < n; ++i) {
        if ((problem.y[static_cast<size_t>(i)] > 0) == (side == 0)) {
          locals.push_back(static_cast<int32_t>(i));
        }
      }
      rng.Shuffle(&locals);
      for (size_t p = 0; p < locals.size(); ++p) {
        fold_of[static_cast<size_t>(locals[p])] =
            static_cast<int32_t>(p % static_cast<size_t>(folds));
      }
    }
  }

  std::vector<double> values(static_cast<size_t>(n), 0.0);
  for (int f = 0; f < folds; ++f) {
    // Build the sub-problem of everything outside fold f.
    BinaryProblem sub;
    sub.data = problem.data;
    sub.C = problem.C;
    sub.weight_pos = problem.weight_pos;
    sub.weight_neg = problem.weight_neg;
    sub.kernel = problem.kernel;
    std::vector<int32_t> held_out;
    int pos = 0, neg = 0;
    for (int64_t i = 0; i < n; ++i) {
      if (fold_of[static_cast<size_t>(i)] == f) {
        held_out.push_back(static_cast<int32_t>(i));
        continue;
      }
      sub.rows.push_back(problem.rows[static_cast<size_t>(i)]);
      sub.y.push_back(problem.y[static_cast<size_t>(i)]);
      (problem.y[static_cast<size_t>(i)] > 0 ? pos : neg) += 1;
    }
    if (held_out.empty()) continue;
    if (pos == 0 || neg == 0) {
      // Degenerate fold (LibSVM assigns fixed pseudo-values in this case).
      for (int32_t i : held_out) {
        values[static_cast<size_t>(i)] = pos == 0 ? -1.0 : 1.0;
      }
      continue;
    }

    GMP_ASSIGN_OR_RETURN(BinarySolution solution,
                         solve(sub, computer, executor, stream, nullptr));

    // Decision values of the held-out instances against the sub-model's SVs.
    std::vector<int32_t> sv_globals;
    std::vector<double> sv_coef;
    for (size_t j = 0; j < solution.alpha.size(); ++j) {
      if (solution.alpha[j] <= 0.0) continue;
      sv_globals.push_back(sub.rows[j]);
      sv_coef.push_back(solution.alpha[j] * static_cast<double>(sub.y[j]));
    }
    if (sv_globals.empty()) {
      for (int32_t i : held_out) values[static_cast<size_t>(i)] = solution.bias;
      continue;
    }
    std::vector<int32_t> held_globals(held_out.size());
    for (size_t h = 0; h < held_out.size(); ++h) {
      held_globals[h] = problem.rows[static_cast<size_t>(held_out[h])];
    }
    std::vector<double> block(held_out.size() * sv_globals.size());
    computer.ComputeBlock(held_globals, sv_globals, executor, stream, block.data());
    for (size_t h = 0; h < held_out.size(); ++h) {
      const double* row = block.data() + h * sv_globals.size();
      double v = solution.bias;
      for (size_t m = 0; m < sv_coef.size(); ++m) v += sv_coef[m] * row[m];
      values[static_cast<size_t>(held_out[h])] = v;
    }
    TaskCost cost;
    cost.parallel_items = static_cast<int64_t>(held_out.size());
    cost.flops = 2.0 * static_cast<double>(held_out.size() * sv_coef.size());
    executor->Charge(stream, cost);
  }
  return values;
}

}  // namespace gmpsvm
