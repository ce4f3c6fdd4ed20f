// Cross-commit golden values for the batched SMO solver: FNV-1a fingerprints
// of the alpha and f bytes, the bit patterns of bias, objective and the final
// stream sim-seconds, and the SolverStats / DistStats counters of fixed
// Gaussian-kernel problems. The determinism suites compare runs of ONE
// build against each other; this file pins the numbers across commits, so a
// refactor that silently changes the solver's arithmetic or its cost
// charges fails here. An intentional numeric change updates these values and
// says so in CHANGES.md.
//
// Portability: the data come from SplitMix64 (no std:: distributions) and
// the Gaussian kernel uses the SIMD tier's deterministic exp, never libm.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "cluster/cluster.h"
#include "common/hash.h"
#include "common/rng.h"
#include "dist/shard.h"
#include "dist/topology.h"
#include "solver/batch_smo_solver.h"
#include "sparse/csr_matrix.h"

namespace gmpsvm {
namespace {

struct GoldenProblem {
  CsrMatrix data;
  BinaryProblem problem;
};

// 2 * n_per_class interleaved +/-1 instances in `dim` dense dimensions:
// x = y * separation + U(-1, 1) per coordinate.
GoldenProblem MakeGoldenProblem(int n_per_class, int dim, double separation,
                                uint64_t seed) {
  CsrBuilder builder(dim);
  std::vector<int8_t> y;
  uint64_t counter = 0;
  for (int i = 0; i < 2 * n_per_class; ++i) {
    const int8_t label = (i % 2 == 0) ? int8_t{1} : int8_t{-1};
    std::vector<int32_t> idx(static_cast<size_t>(dim));
    std::vector<double> val(static_cast<size_t>(dim));
    for (int d = 0; d < dim; ++d) {
      const double u =
          static_cast<double>(SplitMix64(seed + counter++) >> 11) * 0x1.0p-53;
      idx[static_cast<size_t>(d)] = d;
      val[static_cast<size_t>(d)] = label * separation + (2.0 * u - 1.0);
    }
    builder.AddRow(idx, val);
    y.push_back(label);
  }
  GoldenProblem out{ValueOrDie(builder.Finish()), {}};
  out.problem.rows.resize(static_cast<size_t>(out.data.rows()));
  for (size_t i = 0; i < out.problem.rows.size(); ++i) {
    out.problem.rows[i] = static_cast<int32_t>(i);
  }
  out.problem.y = std::move(y);
  out.problem.kernel.type = KernelType::kGaussian;
  out.problem.kernel.gamma = 0.4;
  return out;
}

BatchSmoOptions GoldenOptions() {
  BatchSmoOptions opts;
  opts.working_set.ws_size = 32;
  opts.working_set.q = 16;
  return opts;
}

uint64_t Fingerprint(const std::vector<double>& v) {
  return Fnv1a64(v.data(), v.size() * sizeof(double), kFnv1aOffset);
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

struct Golden {
  uint64_t alpha;
  uint64_t f;
  uint64_t bias;
  uint64_t objective;
  uint64_t sim_seconds;
  int64_t iterations;
  int64_t outer_rounds;
  int64_t kernel_rows_computed;
  int64_t kernel_rows_reused;
};

void ExpectGolden(const BinarySolution& solution, const SolverStats& stats,
                  double sim_seconds, const Golden& golden) {
  EXPECT_EQ(Fingerprint(solution.alpha), golden.alpha);
  EXPECT_EQ(Fingerprint(solution.f), golden.f);
  EXPECT_EQ(Bits(solution.bias), golden.bias);
  EXPECT_EQ(Bits(solution.objective), golden.objective);
  EXPECT_EQ(Bits(sim_seconds), golden.sim_seconds);
  EXPECT_EQ(stats.iterations, golden.iterations);
  EXPECT_EQ(stats.outer_rounds, golden.outer_rounds);
  EXPECT_EQ(stats.kernel_rows_computed, golden.kernel_rows_computed);
  EXPECT_EQ(stats.kernel_rows_reused, golden.kernel_rows_reused);
  EXPECT_EQ(stats.kernel_row_retries, 0);
  EXPECT_EQ(stats.alloc_retries, 0);
  EXPECT_EQ(stats.rows_poisoned, 0);
}

// The cold single-device solve; the sharded solves below reproduce its
// solution and counters, only the sim-seconds differ.
constexpr Golden kCold = {0xe107f1cf59762433ull, 0x5dc0dcacfa9bbc8aull,
                          0x3fa494070ea4afdfull, 0x404973aa5aaa3fecull,
                          0x3f37ae9fa65c0ca2ull, 160, 10, 98, 222};

TEST(SolverGoldenTest, ColdSingleDevice) {
  GoldenProblem g = MakeGoldenProblem(60, 6, 0.35, 2019);
  g.problem.data = &g.data;
  g.problem.C = 2.0;
  KernelComputer kc(g.problem.data, g.problem.kernel);
  SimExecutor exec(ExecutorModel::TeslaP100());
  SolverStats stats;
  const BinarySolution solution = ValueOrDie(
      BatchSmoSolver(GoldenOptions())
          .Solve(g.problem, kc, &exec, kDefaultStream, &stats));
  ExpectGolden(solution, stats, exec.StreamTime(kDefaultStream), kCold);
}

TEST(SolverGoldenTest, WarmStartFromSmallerC) {
  GoldenProblem g = MakeGoldenProblem(60, 6, 0.35, 2019);
  g.problem.data = &g.data;
  KernelComputer kc(g.problem.data, g.problem.kernel);
  g.problem.C = 1.0;
  SimExecutor seed_exec(ExecutorModel::TeslaP100());
  const BinarySolution seed = ValueOrDie(
      BatchSmoSolver(GoldenOptions())
          .Solve(g.problem, kc, &seed_exec, kDefaultStream, nullptr));

  g.problem.C = 2.0;
  SimExecutor exec(ExecutorModel::TeslaP100());
  SolverStats stats;
  const BinarySolution solution = ValueOrDie(
      BatchSmoSolver(GoldenOptions())
          .SolveWarm(g.problem, kc, seed.alpha, &exec, kDefaultStream, &stats));
  ExpectGolden(solution, stats, exec.StreamTime(kDefaultStream),
               {0xc208da4bbcfc1485ull, 0x918a167e9d99c87full,
                0x3fa49eeb09108e56ull, 0x404973aa59ce59cdull,
                0x3f333385d89f6646ull, 125, 8, 65, 191});
}

struct ShardedGolden {
  uint64_t sim_seconds;  // every shard's stream drains at the final sync
  int64_t allreduces;
  int64_t allreduce_rounds;
  uint64_t merge_seconds;
  uint64_t intra_node_bytes;
  uint64_t inter_node_bytes;
};

// Shards j = 0..S-1 on devices 0..S-1 of a 2-node x 2-device cluster.
void ExpectShardedGolden(int num_shards, const ShardedGolden& golden) {
  GoldenProblem g = MakeGoldenProblem(60, 6, 0.35, 2019);
  g.problem.data = &g.data;
  g.problem.C = 2.0;
  KernelComputer kc(g.problem.data, g.problem.kernel);
  const dist::ClusterTopology topology = dist::ClusterTopology::Contiguous(
      2, 4, dist::NvlinkClassLink(), dist::NetworkClassLink());
  cluster::SimCluster devices =
      cluster::SimCluster::Homogeneous(4, ExecutorModel::TeslaP100());
  const auto ranges = dist::ContiguousShardRanges(g.problem.n(), num_shards);
  std::vector<dist::Shard> shards;
  for (int j = 0; j < num_shards; ++j) {
    shards.push_back(dist::Shard{devices.device(j), kDefaultStream, j,
                                 ranges[static_cast<size_t>(j)].first,
                                 ranges[static_cast<size_t>(j)].second});
  }
  SolverStats stats;
  dist::DistStats dist_stats;
  const BinarySolution solution = ValueOrDie(
      BatchSmoSolver(GoldenOptions())
          .SolveSharded(g.problem, kc, shards, &topology, &stats, &dist_stats));
  Golden expected = kCold;
  expected.sim_seconds = golden.sim_seconds;
  ExpectGolden(solution, stats, devices.device(0)->StreamTime(kDefaultStream),
               expected);
  for (int j = 1; j < num_shards; ++j) {
    EXPECT_EQ(Bits(devices.device(j)->StreamTime(kDefaultStream)),
              golden.sim_seconds)
        << "shard " << j;
  }
  EXPECT_EQ(dist_stats.allreduces, golden.allreduces);
  EXPECT_EQ(dist_stats.allreduce_rounds, golden.allreduce_rounds);
  EXPECT_EQ(Bits(dist_stats.merge_seconds), golden.merge_seconds);
  EXPECT_EQ(Bits(dist_stats.intra_node_bytes), golden.intra_node_bytes);
  EXPECT_EQ(Bits(dist_stats.inter_node_bytes), golden.inter_node_bytes);
}

TEST(SolverGoldenTest, TwoShardsOneNode) {
  ExpectShardedGolden(2, {0x3f3944c671f090a3ull, 40, 40, 0x3f05070c122f81aaull,
                          0x40ef4c0000000000ull, 0x0000000000000000ull});
}

TEST(SolverGoldenTest, FourShardsTwoNodes) {
  ExpectShardedGolden(4, {0x3f42fed540ec2e8aull, 40, 80, 0x3f2fcead2770b801ull,
                          0x40ff4c0000000000ull, 0x40ff4c0000000000ull});
}

}  // namespace
}  // namespace gmpsvm
