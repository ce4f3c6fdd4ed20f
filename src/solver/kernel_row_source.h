// Abstraction over where a binary problem's kernel rows come from.
//
// The batched solver requests q rows at a time; a DirectRowSource computes
// them with one batched sparse product (the binary-SVM-level technique) —
// per shard when the problem's instances are sharded across devices —
// while the MP-SVM-level SharedRowSource (src/core/shared_blocks.h) assembles
// rows from class-block segments shared across concurrently-trained binary
// SVMs (Figure 3 of the paper).

#ifndef GMPSVM_SOLVER_KERNEL_ROW_SOURCE_H_
#define GMPSVM_SOLVER_KERNEL_ROW_SOURCE_H_

#include <span>
#include <vector>

#include "device/executor.h"
#include "dist/shard.h"
#include "kernel/kernel_computer.h"
#include "solver/svm_problem.h"

namespace gmpsvm {

class KernelRowSource {
 public:
  virtual ~KernelRowSource() = default;

  // Fills dest[k][0..n) with the kernel row of local instance local_rows[k]
  // against all n instances of the problem, charging `executor` on `stream`.
  virtual void ComputeRows(std::span<const int32_t> local_rows,
                           std::span<double* const> dest, SimExecutor* executor,
                           StreamId stream) = 0;
};

// Computes rows directly from the feature matrix as one batched product.
class DirectRowSource : public KernelRowSource {
 public:
  // Rows are computed whole on the executor/stream ComputeRows is given.
  // Both referents must outlive the source.
  DirectRowSource(const BinaryProblem* problem, const KernelComputer* computer)
      : problem_(problem), computer_(computer) {}

  // Sharded rows: each shard computes the slice of every row covering its own
  // range, on its own executor (ComputeRows' executor/stream are unused).
  // Block values are per-element independent of the target subset
  // (kernel_computer.h), so the slices concatenate to the exact full-row
  // bits. With a topology, a `ws_gather` barrier then ships the
  // `gather_columns` working-set entries of every fresh row to the
  // coordinator, accounted in `dist_stats` (may be null). All referents must
  // outlive the source.
  DirectRowSource(const BinaryProblem* problem, const KernelComputer* computer,
                  std::span<const dist::Shard> shards,
                  const dist::ClusterTopology* topology, int gather_columns,
                  dist::DistStats* dist_stats)
      : problem_(problem),
        computer_(computer),
        shards_(shards),
        topology_(topology),
        gather_columns_(gather_columns),
        dist_stats_(dist_stats) {}

  void ComputeRows(std::span<const int32_t> local_rows,
                   std::span<double* const> dest, SimExecutor* executor,
                   StreamId stream) override;

 private:
  // Computes columns [begin, end) of every batch row into dest and charges
  // the device-side scatter copy.
  void ComputeSlice(std::span<double* const> dest, SimExecutor* executor,
                    StreamId stream, int64_t begin, int64_t end);

  const BinaryProblem* problem_;
  const KernelComputer* computer_;
  std::span<const dist::Shard> shards_;
  const dist::ClusterTopology* topology_ = nullptr;
  int gather_columns_ = 0;
  dist::DistStats* dist_stats_ = nullptr;
  std::vector<double> scratch_;
  std::vector<int32_t> batch_globals_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_SOLVER_KERNEL_ROW_SOURCE_H_
