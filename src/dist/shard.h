// Instance shards of one binary problem and the collective barrier that
// joins them (intra-pair data parallelism).
//
// A sharded solve splits a pair's instances into contiguous local-index
// ranges, one per device. Every shard charges its slice of each vector pass
// to its own executor; merges (convergence reduction, working-set candidate
// exchange, alpha broadcast, kernel-row gather) join all shard streams at an
// AllreduceBarrier priced by the ClusterTopology's link model (topology.h).
// BatchSmoSolver::SolveSharded (solver/batch_smo_solver.h) runs the loop.

#ifndef GMPSVM_DIST_SHARD_H_
#define GMPSVM_DIST_SHARD_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "device/executor.h"
#include "dist/topology.h"

namespace gmpsvm::dist {

// One instance shard of a sharded solve. `device` is the global device index
// in the ClusterTopology; `executor`/`stream` is where the shard's work is
// charged. shards[0] is the coordinator.
struct Shard {
  SimExecutor* executor = nullptr;
  StreamId stream = kDefaultStream;
  int device = 0;
  int64_t begin = 0;
  int64_t end = 0;
};

// Communication accounting of one (or several merged) sharded solves.
struct DistStats {
  int64_t allreduces = 0;        // collective merges performed
  int64_t allreduce_rounds = 0;  // sum of per-merge round counts
  double merge_seconds = 0.0;    // simulated seconds spent in merges
  double intra_node_bytes = 0.0;
  double inter_node_bytes = 0.0;

  void Merge(const DistStats& other);
};

// Deterministic contiguous ranges: shard j gets [j*n/S, (j+1)*n/S).
std::vector<std::pair<int64_t, int64_t>> ContiguousShardRanges(int64_t n,
                                                               int num_shards);

// Checks that `shards` are non-empty contiguous ranges covering [0, n) on
// non-null executors and devices of `topology`, and that only the
// coordinator carries a fault injector (a single consult sequence is what
// keeps chaos runs placement-invariant).
Status ValidateShards(std::span<const Shard> shards, int64_t n,
                      const ClusterTopology& topology);

// Joins all shard streams at (max stream time) + the allreduce duration for
// `payload_bytes`, and accounts the merge in `dist_stats` (may be null). A
// zero payload is a pure barrier (it still pays per-round link latency).
void AllreduceBarrier(std::span<const Shard> shards,
                      const ClusterTopology& topology, double payload_bytes,
                      const char* label, DistStats* dist_stats);

}  // namespace gmpsvm::dist

#endif  // GMPSVM_DIST_SHARD_H_
