#include "dist/shard.h"

#include <algorithm>

namespace gmpsvm::dist {

void DistStats::Merge(const DistStats& other) {
  allreduces += other.allreduces;
  allreduce_rounds += other.allreduce_rounds;
  merge_seconds += other.merge_seconds;
  intra_node_bytes += other.intra_node_bytes;
  inter_node_bytes += other.inter_node_bytes;
}

std::vector<std::pair<int64_t, int64_t>> ContiguousShardRanges(int64_t n,
                                                               int num_shards) {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  if (num_shards < 1) return ranges;
  ranges.reserve(static_cast<size_t>(num_shards));
  const int64_t s = num_shards;
  for (int64_t j = 0; j < s; ++j) {
    ranges.emplace_back(j * n / s, (j + 1) * n / s);
  }
  return ranges;
}

Status ValidateShards(std::span<const Shard> shards, int64_t n,
                      const ClusterTopology& topology) {
  if (shards.empty()) {
    return Status::InvalidArgument("sharded solve requires >= 1 shard");
  }
  int64_t cursor = 0;
  for (size_t si = 0; si < shards.size(); ++si) {
    const Shard& shard = shards[si];
    if (shard.executor == nullptr) {
      return Status::InvalidArgument("shard executor is null");
    }
    if (shard.begin != cursor || shard.end <= shard.begin) {
      return Status::InvalidArgument(
          "shards must be non-empty contiguous ranges covering [0, n)");
    }
    cursor = shard.end;
    if (shard.device < 0 || shard.device >= topology.num_devices()) {
      return Status::InvalidArgument("shard device outside the topology");
    }
    if (si > 0 && shard.executor->fault_injector() != nullptr) {
      return Status::InvalidArgument(
          "only the coordinator shard may have a fault injector");
    }
  }
  if (cursor != n) {
    return Status::InvalidArgument("shards do not cover the problem");
  }
  return Status::OK();
}

void AllreduceBarrier(std::span<const Shard> shards,
                      const ClusterTopology& topology, double payload_bytes,
                      const char* label, DistStats* dist_stats) {
  std::vector<int> devices(shards.size());
  double t = 0.0;
  for (size_t si = 0; si < shards.size(); ++si) {
    devices[si] = shards[si].device;
    t = std::max(t, shards[si].executor->StreamTime(shards[si].stream));
  }
  const AllreduceCost cost = EstimateAllreduce(topology, devices, payload_bytes);
  for (const Shard& shard : shards) {
    const double dt =
        t + cost.seconds - shard.executor->StreamTime(shard.stream);
    if (dt > 0.0) shard.executor->AdvanceStream(shard.stream, dt, label);
  }
  if (dist_stats != nullptr) {
    ++dist_stats->allreduces;
    dist_stats->allreduce_rounds += cost.rounds;
    dist_stats->merge_seconds += cost.seconds;
    dist_stats->intra_node_bytes += cost.intra_node_bytes;
    dist_stats->inter_node_bytes += cost.inter_node_bytes;
  }
}

}  // namespace gmpsvm::dist
