#include "solver/kernel_row_source.h"

#include <cstring>

namespace gmpsvm {

void DirectRowSource::ComputeRows(std::span<const int32_t> local_rows,
                                  std::span<double* const> dest,
                                  SimExecutor* executor, StreamId stream) {
  if (local_rows.empty()) return;
  batch_globals_.resize(local_rows.size());
  for (size_t k = 0; k < local_rows.size(); ++k) {
    batch_globals_[k] = problem_->rows[static_cast<size_t>(local_rows[k])];
  }
  if (shards_.empty()) {
    ComputeSlice(dest, executor, stream, 0, problem_->n());
    return;
  }
  for (const dist::Shard& shard : shards_) {
    ComputeSlice(dest, shard.executor, shard.stream, shard.begin, shard.end);
  }
  if (topology_ != nullptr) {
    dist::AllreduceBarrier(shards_, *topology_,
                           static_cast<double>(local_rows.size()) *
                               static_cast<double>(gather_columns_) *
                               sizeof(double),
                           "ws_gather", dist_stats_);
  }
}

void DirectRowSource::ComputeSlice(std::span<double* const> dest,
                                   SimExecutor* executor, StreamId stream,
                                   int64_t begin, int64_t end) {
  const size_t rows = batch_globals_.size();
  const size_t len = static_cast<size_t>(end - begin);
  scratch_.resize(rows * len);
  computer_->ComputeBlock(
      batch_globals_,
      std::span<const int32_t>(problem_->rows.data() + begin, len), executor,
      stream, scratch_.data());
  // Scatter the contiguous block into the buffer slots (device-side copy).
  for (size_t k = 0; k < rows; ++k) {
    std::memcpy(dest[k] + begin, scratch_.data() + k * len,
                len * sizeof(double));
  }
  TaskCost copy_cost;
  copy_cost.parallel_items = static_cast<int64_t>(rows * len);
  copy_cost.bytes_read = static_cast<double>(rows * len) * sizeof(double);
  copy_cost.bytes_written = copy_cost.bytes_read;
  executor->Charge(stream, copy_cost);
}

}  // namespace gmpsvm
