// Working-set selection for the batched SMO solver (Section 3.3.1).
//
// Each refresh keeps ws_size - q members of the previous working set and adds
// the q most-violating eligible instances: the top q/2 by ascending
// optimality indicator f whose y_i*alpha_i can be increased (the I_up side)
// and the bottom q/2 whose y_i*alpha_i can be decreased (the I_low side).
// The paper found that replacing only half of the working set (q = ws/2)
// converges fastest; both ws_size and q are configurable to reproduce the
// Figure 6/7 sensitivity sweeps.

#ifndef GMPSVM_SOLVER_WORKING_SET_H_
#define GMPSVM_SOLVER_WORKING_SET_H_

#include <cstdint>
#include <deque>
#include <span>
#include <unordered_set>
#include <vector>

#include "solver/svm_problem.h"

namespace gmpsvm {

// Eligibility sets from Section 2.1.1. I_up = I_1 u I_2 u I_3 (y_i*alpha_i
// can increase), I_low = I_1 u I_4 u I_5 (can decrease). `c` is the
// instance's own box constraint (per-class weighted C).
inline bool InUpSet(int8_t y, double alpha, double c) {
  return (y > 0 && alpha < c) || (y < 0 && alpha > 0);
}
inline bool InLowSet(int8_t y, double alpha, double c) {
  return (y > 0 && alpha > 0) || (y < 0 && alpha < c);
}

// Packs a solver's final dual state into a BinarySolution, identically for
// every SMO variant. Bias (Equation (11)): b = -rho, rho the mean f over free
// support vectors (0 < alpha_i < c_i), or the midpoint of the violation
// interval when none are free. Objective: the maximization form of
// problem (2), sum(alpha) - 0.5*alpha'Q alpha = -0.5 * sum_i alpha_i (G_i - 1)
// with G_i = y_i f_i. `c` is each instance's box constraint.
BinarySolution FinishBinarySolution(std::vector<double> alpha,
                                    std::vector<double> f,
                                    std::span<const int8_t> y,
                                    std::span<const double> c);

struct WorkingSetConfig {
  // Working set size == GPU buffer rows (the paper's bs; default 1024).
  int ws_size = 1024;

  // New violating instances admitted per refresh (the paper's q; default
  // bs/2 per the Figure 7 finding).
  int q = 512;

  // Which members leave when the set is full. kOldest matches the FIFO
  // buffer replacement; kLeastViolating is the ablation alternative.
  enum class DropPolicy { kOldest, kLeastViolating };
  DropPolicy drop_policy = DropPolicy::kOldest;
};

class WorkingSetSelector {
 public:
  // `n` is the binary problem size; sizes are clamped to it.
  WorkingSetSelector(const WorkingSetConfig& config, int64_t n);

  // Refreshes the working set from the current solver state. The first call
  // fills the whole set. Returns the new working set (unordered).
  const std::vector<int32_t>& Update(std::span<const double> f,
                                     std::span<const double> alpha,
                                     std::span<const int8_t> y,
                                     std::span<const double> c);

  const std::vector<int32_t>& working_set() const { return members_; }

  // --- Distributed refresh (sharded solves) ---------------------------------
  //
  // BatchSmoSolver::SolveSharded selects the same working set as Update()
  // without any shard looking at instances outside its contiguous range:
  //   1. BeginDistributedRefresh() drops the stale members (bookkeeping only
  //      under kOldest) and returns how many new violators the merge needs;
  //   2. each shard calls CollectShardCandidates() over its own range and
  //      gets back its top `needed` eligible non-members per side, ordered by
  //      the same total order (f, index) the full sort uses;
  //   3. FinishDistributedRefresh() merges the shard lists in that total
  //      order and admits exactly as Update()'s full-sort scan would.
  // Any instance the full scan admits ranks within the top `needed` eligible
  // candidates of its own shard on the relevant side, so the merged selection
  // equals the full-sort selection for every shard partition (working_set_test
  // checks the equivalence). Requires DropPolicy::kOldest: kLeastViolating's
  // nth_element tie behaviour is not reproducible from shard-local data.

  // Per-shard candidate lists for one distributed refresh.
  struct ShardCandidates {
    std::vector<int32_t> up;   // eligible non-members, ascending (f, index)
    std::vector<int32_t> low;  // eligible non-members, descending (f, index)
  };

  // Drops this refresh's stale members and returns the number of new
  // violators to admit (ws_size on the first call). kOldest only.
  int BeginDistributedRefresh();

  // Collects the shard [begin, end)'s top `needed` eligible non-member
  // candidates per side. Pure: does not change the selector.
  ShardCandidates CollectShardCandidates(int64_t begin, int64_t end, int needed,
                                         std::span<const double> f,
                                         std::span<const double> alpha,
                                         std::span<const int8_t> y,
                                         std::span<const double> c) const;

  // Merges the shard candidate lists and admits new members exactly as
  // Update() would. Returns the new working set.
  const std::vector<int32_t>& FinishDistributedRefresh(
      std::span<const ShardCandidates> shards, std::span<const double> f,
      std::span<const double> alpha, std::span<const int8_t> y,
      std::span<const double> c);

  // Effective (clamped) configuration.
  int ws_size() const { return ws_size_; }
  int q() const { return q_; }

 private:
  void Drop(int count, std::span<const double> f, std::span<const double> alpha,
            std::span<const int8_t> y, std::span<const double> c);
  // Admits up to `count` new violators; returns how many were added.
  int Admit(int count, std::span<const double> f, std::span<const double> alpha,
            std::span<const int8_t> y, std::span<const double> c);

  WorkingSetConfig::DropPolicy drop_policy_;
  int ws_size_;
  int q_;
  int64_t n_;
  std::vector<int32_t> members_;
  std::deque<int32_t> insertion_order_;  // for kOldest
  std::unordered_set<int32_t> member_set_;
  std::vector<int32_t> sorted_;  // scratch: all indices sorted by f
};

}  // namespace gmpsvm

#endif  // GMPSVM_SOLVER_WORKING_SET_H_
