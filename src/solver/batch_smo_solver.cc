#include "solver/batch_smo_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "fault/fault_injector.h"
#include "solver/kernel_buffer.h"

namespace gmpsvm {
namespace {

constexpr double kTau = 1e-12;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Serialized size of one working-set candidate: (int32 index, double f).
constexpr double kCandidateBytes = 12.0;

// The error a non-finite solver quantity of local instance `i` fails with.
Status NonFiniteError(const char* what, const BinaryProblem& problem, int64_t i,
                      double value) {
  return Status::InvalidArgument(StrPrintf(
      "non-finite %s = %g at instance %lld (dataset row %d): the features or "
      "kernel parameters contain NaN/Inf",
      what, value, static_cast<long long>(i),
      problem.rows[static_cast<size_t>(i)]));
}

// Alpha deltas of one two-variable SMO update.
struct SmoPairDelta {
  double d_alpha_u = 0.0;
  double d_alpha_l = 0.0;
};

// One LibSVM-style two-variable update for the working-set pair (u, l):
// steps alpha[u]/alpha[l] along the constrained Newton direction and clips to
// the box.
SmoPairDelta SmoUpdatePair(int32_t u, int32_t l, std::span<const int8_t> y,
                           double c_u_bound, double c_l_bound, double k_uu,
                           double k_ll, double k_ul, std::span<const double> f,
                           std::span<double> alpha) {
  const double old_au = alpha[u];
  const double old_al = alpha[l];
  const double g_u = y[u] * f[u];
  const double g_l = y[l] * f[l];
  double& a_u = alpha[u];
  double& a_l = alpha[l];
  double quad = k_uu + k_ll - 2.0 * k_ul;
  if (quad <= 0) quad = kTau;
  if (y[u] != y[l]) {
    const double delta = (-g_u - g_l) / quad;
    const double diff = a_u - a_l;
    a_u += delta;
    a_l += delta;
    if (diff > 0) {
      if (a_l < 0) {
        a_l = 0;
        a_u = diff;
      }
    } else {
      if (a_u < 0) {
        a_u = 0;
        a_l = -diff;
      }
    }
    if (diff > c_u_bound - c_l_bound) {
      if (a_u > c_u_bound) {
        a_u = c_u_bound;
        a_l = c_u_bound - diff;
      }
    } else {
      if (a_l > c_l_bound) {
        a_l = c_l_bound;
        a_u = c_l_bound + diff;
      }
    }
  } else {
    const double delta = (g_u - g_l) / quad;
    const double sum = a_u + a_l;
    a_u -= delta;
    a_l += delta;
    if (sum > c_u_bound) {
      if (a_u > c_u_bound) {
        a_u = c_u_bound;
        a_l = sum - c_u_bound;
      }
    } else {
      if (a_l < 0) {
        a_l = 0;
        a_u = sum;
      }
    }
    if (sum > c_l_bound) {
      if (a_l > c_l_bound) {
        a_l = c_l_bound;
        a_u = sum - c_l_bound;
      }
    } else {
      if (a_u < 0) {
        a_u = 0;
        a_l = sum;
      }
    }
  }
  return SmoPairDelta{a_u - old_au, a_l - old_al};
}

}  // namespace

Status BatchSmoOptions::Validate() const {
  if (working_set.ws_size < 2) {
    return Status::InvalidArgument(
        StrPrintf("working_set.ws_size must be >= 2, got %d", working_set.ws_size));
  }
  if (working_set.q < 1) {
    return Status::InvalidArgument(
        StrPrintf("working_set.q must be >= 1, got %d", working_set.q));
  }
  // q and ws_size may both exceed the problem size; WorkingSetSelector
  // documents clamping them to the effective (n-limited) working set, and
  // callers rely on that for scaled configurations.
  if (!(eps > 0.0)) {
    return Status::InvalidArgument(StrPrintf("eps must be positive, got %g", eps));
  }
  if (buffer_rows < 0) {
    return Status::InvalidArgument(
        StrPrintf("buffer_rows must be >= 0, got %d", buffer_rows));
  }
  if (max_outer_rounds <= 0) {
    return Status::InvalidArgument(
        StrPrintf("max_outer_rounds must be positive, got %lld",
                  static_cast<long long>(max_outer_rounds)));
  }
  if (max_inner < 0) {
    return Status::InvalidArgument(
        StrPrintf("max_inner must be >= 0, got %d", max_inner));
  }
  if (max_row_batch_retries < 1) {
    return Status::InvalidArgument(StrPrintf(
        "max_row_batch_retries must be >= 1, got %d", max_row_batch_retries));
  }
  if (max_alloc_retries < 1) {
    return Status::InvalidArgument(
        StrPrintf("max_alloc_retries must be >= 1, got %d", max_alloc_retries));
  }
  return Status::OK();
}

Result<BinarySolution> BatchSmoSolver::Solve(const BinaryProblem& problem,
                                             const KernelComputer& computer,
                                             SimExecutor* executor, StreamId stream,
                                             SolverStats* stats) const {
  return SolveWarm(problem, computer, nullptr, {}, executor, stream, stats);
}

Result<BinarySolution> BatchSmoSolver::Solve(const BinaryProblem& problem,
                                             const KernelComputer& computer,
                                             KernelRowSource* source,
                                             SimExecutor* executor, StreamId stream,
                                             SolverStats* stats) const {
  return SolveWarm(problem, computer, source, {}, executor, stream, stats);
}

Result<BinarySolution> BatchSmoSolver::SolveWarm(const BinaryProblem& problem,
                                                 const KernelComputer& computer,
                                                 std::span<const double> initial_alpha,
                                                 SimExecutor* executor,
                                                 StreamId stream,
                                                 SolverStats* stats) const {
  return SolveWarm(problem, computer, nullptr, initial_alpha, executor, stream,
                   stats);
}

Result<BinarySolution> BatchSmoSolver::SolveWarm(const BinaryProblem& problem,
                                                 const KernelComputer& computer,
                                                 KernelRowSource* source,
                                                 std::span<const double> initial_alpha,
                                                 SimExecutor* executor,
                                                 StreamId stream,
                                                 SolverStats* stats) const {
  const dist::Shard whole{executor, stream, 0, 0, problem.n()};
  return SolveImpl(problem, computer, source, initial_alpha, {&whole, 1},
                   nullptr, stats, nullptr);
}

Result<BinarySolution> BatchSmoSolver::SolveSharded(
    const BinaryProblem& problem, const KernelComputer& computer,
    std::span<const dist::Shard> shards, const dist::ClusterTopology* topology,
    SolverStats* stats, dist::DistStats* dist_stats) const {
  GMP_RETURN_NOT_OK(options_.Validate());
  if (options_.working_set.drop_policy !=
      WorkingSetConfig::DropPolicy::kOldest) {
    return Status::InvalidArgument("sharded solve requires DropPolicy::kOldest");
  }
  if (topology == nullptr) {
    return Status::InvalidArgument("sharded solve requires a topology");
  }
  GMP_RETURN_NOT_OK(dist::ValidateShards(shards, problem.n(), *topology));
  return SolveImpl(problem, computer, nullptr, {}, shards, topology, stats,
                   dist_stats);
}

Result<BinarySolution> BatchSmoSolver::SolveImpl(
    const BinaryProblem& problem, const KernelComputer& computer,
    KernelRowSource* source, std::span<const double> initial_alpha,
    std::span<const dist::Shard> shards, const dist::ClusterTopology* topology,
    SolverStats* stats, dist::DistStats* dist_stats) const {
  GMP_RETURN_NOT_OK(options_.Validate());
  const int64_t n = problem.n();
  if (n < 2) {
    return Status::InvalidArgument("binary problem needs at least 2 instances");
  }
  if (problem.C <= 0) {
    return Status::InvalidArgument("C must be positive");
  }
  // The coordinator runs the inner subproblems, carries the only fault
  // injector, and owns the solver's phase attribution.
  SimExecutor* const executor = shards[0].executor;
  const StreamId stream = shards[0].stream;

  // Every vector pass is charged per shard over the shard's own range.
  const auto charge_pass = [&](double flops_per_item, double bytes_per_item) {
    for (const dist::Shard& shard : shards) {
      shard.executor->Charge(shard.stream,
                             VectorPassCost(shard.end - shard.begin,
                                            flops_per_item, bytes_per_item));
    }
  };
  // Merges join the shard streams only when a topology prices them.
  const auto barrier = [&](double payload_bytes, const char* label) {
    if (topology != nullptr) {
      dist::AllreduceBarrier(shards, *topology, payload_bytes, label,
                             dist_stats);
    }
  };

  const auto& y = problem.y;
  const std::span<const int8_t> y_span(y);
  // Per-instance box constraints (class-weighted C).
  std::vector<double> cvec(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    cvec[static_cast<size_t>(i)] = problem.CFor(y[static_cast<size_t>(i)]);
  }

  WorkingSetSelector selector(options_.working_set, n);
  const int ws_size = selector.ws_size();
  const int64_t buffer_rows =
      std::max<int64_t>(options_.buffer_rows > 0 ? options_.buffer_rows : ws_size,
                        ws_size);

  // Reserve the GPU buffer against the device budget. The buffer is
  // column-sharded: each shard reserves the slice of every buffered row
  // covering its own range. A transient (injected) allocation failure is
  // retried in place; genuine OOM propagates.
  std::vector<DeviceAllocation> reservations;
  if (options_.buffer_on_device) {
    reservations.reserve(shards.size());
    for (const dist::Shard& shard : shards) {
      const size_t slice_bytes =
          static_cast<size_t>(buffer_rows * (shard.end - shard.begin)) *
          sizeof(double);
      for (int attempt = 1;; ++attempt) {
        auto reservation = shard.executor->Allocate(slice_bytes);
        if (reservation.ok()) {
          reservations.push_back(std::move(*reservation));
          break;
        }
        if (!reservation.status().IsUnavailable() ||
            attempt >= options_.max_alloc_retries) {
          return reservation.status();
        }
        if (stats != nullptr) ++stats->alloc_retries;
      }
    }
  }
  KernelBuffer buffer(n, buffer_rows, options_.buffer_policy);
  buffer.SetFaultInjector(executor->fault_injector());

  // Without an explicit source, rows come straight from the feature matrix,
  // computed per shard.
  std::optional<DirectRowSource> direct;
  if (source == nullptr) {
    source = &direct.emplace(&problem, &computer, shards, topology, ws_size,
                             dist_stats);
  }

  // Solver state (host-resident; shards charge their slices of each pass).
  std::vector<double> alpha(static_cast<size_t>(n), 0.0);
  std::vector<double> f(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) f[static_cast<size_t>(i)] = -static_cast<double>(y[i]);
  charge_pass(1.0, sizeof(double));

  if (!initial_alpha.empty()) {
    if (static_cast<int64_t>(initial_alpha.size()) != n) {
      return Status::InvalidArgument("initial_alpha size mismatch");
    }
    // Alpha seeding: clamp into this problem's box, repair the equality
    // constraint (clamping can break it), then rebuild f from the seed.
    double drift = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const double a = std::clamp(initial_alpha[static_cast<size_t>(i)], 0.0,
                                  cvec[static_cast<size_t>(i)]);
      alpha[static_cast<size_t>(i)] = a;
      drift += a * static_cast<double>(y[i]);
    }
    for (int64_t i = 0; i < n && std::abs(drift) > 1e-12; ++i) {
      double& a = alpha[static_cast<size_t>(i)];
      if (a <= 0.0) continue;
      if ((drift > 0) == (y[i] > 0)) {
        const double reduce = std::min(a, std::abs(drift));
        a -= reduce;
        drift -= static_cast<double>(y[i]) * reduce;
      }
    }
    // f_i = sum_j alpha_j y_j K_ij - y_i via one batched product over seeds
    // (warm starts are single-device: SolveSharded is cold).
    std::vector<int32_t> seed_locals;
    for (int64_t j = 0; j < n; ++j) {
      if (alpha[static_cast<size_t>(j)] > 0.0) {
        seed_locals.push_back(static_cast<int32_t>(j));
      }
    }
    if (!seed_locals.empty()) {
      std::vector<int32_t> seed_globals(seed_locals.size());
      for (size_t m = 0; m < seed_locals.size(); ++m) {
        seed_globals[m] = problem.rows[static_cast<size_t>(seed_locals[m])];
      }
      std::vector<double> block(seed_locals.size() * static_cast<size_t>(n));
      computer.ComputeBlock(seed_globals, problem.rows, executor, stream,
                            block.data());
      for (size_t m = 0; m < seed_locals.size(); ++m) {
        const double coef = alpha[static_cast<size_t>(seed_locals[m])] *
                            static_cast<double>(y[seed_locals[m]]);
        const double* row = block.data() + m * static_cast<size_t>(n);
        for (int64_t i = 0; i < n; ++i) f[static_cast<size_t>(i)] += coef * row[i];
      }
      charge_pass(2.0 * static_cast<double>(seed_locals.size()),
                  2 * sizeof(double));
    }
  }

  std::vector<double> diag(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    diag[static_cast<size_t>(i)] =
        computer.SelfKernelA(problem.rows[static_cast<size_t>(i)]);
    if (!std::isfinite(diag[static_cast<size_t>(i)])) {
      return NonFiniteError("self-kernel value K(x, x)", problem, i,
                            diag[static_cast<size_t>(i)]);
    }
  }
  charge_pass(2.0, sizeof(double));

  const int max_inner =
      options_.max_inner > 0 ? options_.max_inner : std::max(2, ws_size / 2);

  const double time_base = executor->StreamTime(stream);
  double kernel_time = 0.0;
  double subproblem_time = 0.0;

  std::vector<int32_t> present, missing;
  std::vector<WorkingSetSelector::ShardCandidates> candidates(shards.size());
  std::vector<double*> row_ptr(static_cast<size_t>(n), nullptr);
  std::vector<double> delta_alpha(static_cast<size_t>(n), 0.0);
  std::vector<uint8_t> in_ws(static_cast<size_t>(n), 0);
  int64_t iterations = 0;
  int64_t rounds = 0;
  double delta0 = -1.0;  // first observed global violation

  for (;; ++rounds) {
    if (rounds >= options_.max_outer_rounds) {
      GMP_LOG(Warning) << "batch SMO hit max_outer_rounds";
      break;
    }

    // Global convergence check: per-shard partial reductions merged by one
    // tiny allreduce (min/max merge bit-identically in any order). A
    // non-finite indicator would poison every later selection, so it fails
    // the solve here instead.
    double f_up_min = kInf, f_low_max = -kInf;
    for (int64_t i = 0; i < n; ++i) {
      const double fi = f[static_cast<size_t>(i)];
      if (!std::isfinite(fi)) {
        return NonFiniteError("optimality indicator f", problem, i, fi);
      }
      const double a = alpha[static_cast<size_t>(i)];
      if (InUpSet(y[i], a, cvec[static_cast<size_t>(i)])) f_up_min = std::min(f_up_min, fi);
      if (InLowSet(y[i], a, cvec[static_cast<size_t>(i)])) f_low_max = std::max(f_low_max, fi);
    }
    charge_pass(2.0, 2 * sizeof(double));
    barrier(2 * sizeof(double), "allreduce_delta");
    const double delta = f_low_max - f_up_min;
    if (delta < options_.eps) break;
    if (delta0 < 0) delta0 = delta;

    // Refresh the working set; each shard sorts its own range (sorting by f
    // dominates: len log len). One shard keeps the full sort, the only
    // refresh kLeastViolating supports. Several shards each collect their
    // top candidates and the merge admits exactly what the full sort would
    // (working_set.h).
    for (const dist::Shard& shard : shards) {
      const int64_t len = shard.end - shard.begin;
      shard.executor->Charge(
          shard.stream,
          VectorPassCost(len, 2.0 * std::log2(static_cast<double>(len) + 2.0),
                         2 * sizeof(double)));
    }
    const std::vector<int32_t>* ws_ptr = nullptr;
    double candidate_bytes = 0.0;
    if (shards.size() == 1) {
      ws_ptr = &selector.Update(f, alpha, y_span, cvec);
    } else {
      const int needed = selector.BeginDistributedRefresh();
      for (size_t si = 0; si < shards.size(); ++si) {
        candidates[si] = selector.CollectShardCandidates(
            shards[si].begin, shards[si].end, needed, f, alpha, y_span, cvec);
      }
      ws_ptr = &selector.FinishDistributedRefresh(candidates, f, alpha, y_span,
                                                  cvec);
      candidate_bytes = 2.0 * static_cast<double>(needed) * kCandidateBytes;
    }
    barrier(candidate_bytes, "allreduce_ws");
    const std::vector<int32_t>& ws = *ws_ptr;

    // Ensure all working-set rows are buffered; batch-compute the missing
    // ones (this is THE kernel-value computation of Figure 11).
    buffer.Pin(ws);
    buffer.Partition(ws, &present, &missing);
    if (!missing.empty()) {
      const double t0 = executor->StreamTime(stream);
      GMP_ASSIGN_OR_RETURN(std::vector<double*> slots, buffer.InsertBatch(missing));
      // Recovery: under an attached fault injector the batched row launch can
      // fail transiently. Each failed attempt burns a launch slot on the
      // stream; bounded retries either get through (the injector's
      // consecutive cap guarantees progress for well-formed plans) or give up
      // with kUnavailable for the trainer's pair-level retry to handle.
      fault::FaultInjector* injector = executor->fault_injector();
      int failed_attempts = 0;
      while (injector != nullptr &&
             injector->ShouldInject(fault::Site::kKernelRowBatch)) {
        executor->Charge(stream, TaskCost{});  // failed launch overhead
        if (stats != nullptr) ++stats->kernel_row_retries;
        if (++failed_attempts >= options_.max_row_batch_retries) {
          return Status::Unavailable(
              StrPrintf("kernel row batch failed %d times on stream %d",
                        failed_attempts, stream));
        }
      }
      source->ComputeRows(missing, slots, executor, stream);
      kernel_time += executor->StreamTime(stream) - t0;
      if (stats != nullptr) {
        stats->kernel_rows_computed += static_cast<int64_t>(missing.size());
      }
    }
    if (!present.empty()) {
      for (const dist::Shard& shard : shards) {
        shard.executor->counters().kernel_values_reused +=
            static_cast<int64_t>(present.size()) * (shard.end - shard.begin);
      }
      if (stats != nullptr) {
        stats->kernel_rows_reused += static_cast<int64_t>(present.size());
      }
    }
    std::fill(in_ws.begin(), in_ws.end(), 0);
    for (int32_t w : ws) {
      row_ptr[static_cast<size_t>(w)] = const_cast<double*>(buffer.Lookup(w));
      GMP_DCHECK(row_ptr[static_cast<size_t>(w)] != nullptr);
      in_ws[static_cast<size_t>(w)] = 1;
    }

    // Inner loop: solve SMO subproblems restricted to the working set using
    // only buffered kernel values.
    const double inner_t0 = executor->StreamTime(stream);
    int budget = max_inner;
    if (options_.inner_policy == BatchSmoOptions::InnerPolicy::kDeltaAdaptive) {
      // Large delta (far from optimal) => fewer iterations per working set;
      // near convergence => optimize the set thoroughly.
      const double ratio = std::clamp(delta / delta0, 0.0, 1.0);
      budget = std::max(16, static_cast<int>(max_inner * (1.0 - 0.75 * ratio)));
      budget = std::min(budget, max_inner);
    }
    std::fill(delta_alpha.begin(), delta_alpha.end(), 0.0);
    int inner_done = 0;
    for (; inner_done < budget; ++inner_done) {
      // Selection restricted to the working set.
      int32_t u = -1;
      double f_u = kInf;
      for (int32_t w : ws) {
        if (InUpSet(y[w], alpha[w], cvec[static_cast<size_t>(w)]) && f[static_cast<size_t>(w)] < f_u) {
          f_u = f[static_cast<size_t>(w)];
          u = w;
        }
      }
      if (u < 0) break;
      const double* row_u = row_ptr[static_cast<size_t>(u)];

      int32_t l = -1;
      double best_gain = 0.0;
      double ws_low_max = -kInf;
      for (int32_t w : ws) {
        if (!InLowSet(y[w], alpha[w], cvec[static_cast<size_t>(w)])) continue;
        const double f_w = f[static_cast<size_t>(w)];
        ws_low_max = std::max(ws_low_max, f_w);
        const double grad_diff = f_w - f_u;
        if (grad_diff > 0) {
          double eta = diag[static_cast<size_t>(u)] + diag[static_cast<size_t>(w)] -
                       2.0 * row_u[w];
          if (eta <= 0) eta = kTau;
          const double gain = grad_diff * grad_diff / eta;
          if (gain > best_gain) {
            best_gain = gain;
            l = w;
          }
        }
      }
      // Early termination on the working set: once the local violation falls
      // well under the current global violation, further inner iterations
      // would only locally over-optimize this working set.
      if (l < 0 || ws_low_max - f_u < std::max(options_.eps * 0.5, 0.0)) break;

      const double* row_l = row_ptr[static_cast<size_t>(l)];
      const SmoPairDelta upd =
          SmoUpdatePair(u, l, y, cvec[static_cast<size_t>(u)],
                        cvec[static_cast<size_t>(l)], diag[static_cast<size_t>(u)],
                        diag[static_cast<size_t>(l)], row_u[l], f, alpha);
      delta_alpha[static_cast<size_t>(u)] += upd.d_alpha_u;
      delta_alpha[static_cast<size_t>(l)] += upd.d_alpha_l;

      // Update f for working-set members only (the cheap inner update).
      const double yu_dau = y[u] * upd.d_alpha_u;
      const double yl_dal = y[l] * upd.d_alpha_l;
      for (int32_t w : ws) {
        f[static_cast<size_t>(w)] += yu_dau * row_u[w] + yl_dal * row_l[w];
      }
    }
    // The whole inner solve runs as ONE device kernel (as in ThunderSVM's
    // local SMO): charge its accumulated reductions and updates in a single
    // launch rather than one launch per subproblem — this is precisely the
    // "solving q/2 subproblems in a batch is cheaper" effect.
    if (inner_done > 0) {
      TaskCost inner_cost = VectorPassCost(
          ws_size, 12.0 * static_cast<double>(inner_done),
          4.0 * static_cast<double>(inner_done) * sizeof(double));
      executor->Charge(stream, inner_cost);
    }
    iterations += inner_done;
    subproblem_time += executor->StreamTime(stream) - inner_t0;

    // Broadcast the batch's net alpha deltas so every shard can update its
    // slice of f.
    barrier(static_cast<double>(ws_size) * sizeof(double), "allreduce_alpha");

    // Propagate the net alpha change to all n optimality indicators
    // (Equation (8) with the batch's aggregate delta; Line 11 of Alg. 2).
    int changed = 0;
    for (int32_t w : ws) {
      const double da = delta_alpha[static_cast<size_t>(w)];
      if (da == 0.0) continue;
      ++changed;
      const double yda = y[w] * da;
      const double* row_w = row_ptr[static_cast<size_t>(w)];
      // Working-set members were already updated incrementally inside the
      // inner loop; only non-members receive the aggregate update.
      for (int64_t i = 0; i < n; ++i) {
        if (!in_ws[static_cast<size_t>(i)]) {
          f[static_cast<size_t>(i)] += yda * row_w[i];
        }
      }
    }
    if (changed > 0) {
      charge_pass(2.0 * changed, static_cast<double>(changed) * sizeof(double));
    } else if (inner_done == 0) {
      // The working set admitted no violating pair although the global check
      // saw one; numerically stuck — bail out rather than loop forever.
      GMP_LOG(Warning) << "batch SMO stalled at delta=" << delta;
      break;
    }
  }

  // Final sync: the solve finishes when every shard's stream has drained.
  barrier(0.0, "dist_sync");

  if (stats != nullptr) {
    stats->iterations += iterations;
    stats->outer_rounds += rounds;
    stats->rows_poisoned += buffer.rows_poisoned();
    stats->phases.Add("kernel_values", kernel_time);
    stats->phases.Add("subproblem", subproblem_time);
    stats->phases.Add("other", executor->StreamTime(stream) - time_base -
                                   kernel_time - subproblem_time);
  }

  return FinishBinarySolution(std::move(alpha), std::move(f), y_span, cvec);
}

}  // namespace gmpsvm
