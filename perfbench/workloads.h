// The benchmark's workloads and the phases they are made of.
//
// Every workload runs the same pipeline on its own generated data set —
// set-up (generate, LibSVM text round-trip, optional set-up training), then
// training, offline prediction (exact and cascade) and open-loop serving —
// so every metric exists on every workload. What differs is the data and how
// the measuring window is split between the phases, which is what makes each
// workload stress a different layer (README.md in this directory).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/synthetic.h"

namespace perfbench {

// Open-loop load for the serve phase: chunks at two fixed absolute rates,
// and an ascending rate ladder that stops after two consecutive rates miss
// the p99 limit.
struct ServePlan {
  double low_rps = 0.0;
  double high_rps = 0.0;
  std::vector<double> ladder_rps;
};
// Length of the traced run's chunk at the low and at the high rate.
inline constexpr double kChunkSeconds = 0.5;
// Every ladder rung lasts kRungSeconds: long enough that one 10% step past
// capacity builds a backlog whose wait exceeds the limit, while a host stall
// shorter than the limit does not fail the rung. Rungs and chunks send at
// least kMinLevelRequests requests so their p99 has at least ten samples
// beyond it.
inline constexpr double kRungSeconds = 0.6;
inline constexpr double kP99LimitMs = 30.0;
inline constexpr int kMinLevelRequests = 1000;
inline int LevelRequests(double rps, double seconds) {
  return std::max(kMinLevelRequests, static_cast<int>(rps * seconds));
}

// Shares of the measuring window given to each repeated task: one training
// run, one exact or one cascade prediction of the timed block.
struct TaskMix {
  double train = 0.0;
  double predict = 0.0;
  double cascade = 0.0;
};

struct WorkloadConfig {
  std::string name;
  std::string why;
  gmpsvm::SyntheticSpec data;
  // The model used by prediction and serving is trained during set-up
  // (predict-largek) rather than in the measuring window.
  bool train_in_setup = false;
  // Rows of the test set (from its start) whose prediction is timed; the
  // whole test set is predicted once for quality and reference answers.
  int64_t timing_rows = 0;
  TaskMix mix;
  ServePlan serve;
};

// The workloads; `seed` reseeds every generated train/test set.
std::vector<WorkloadConfig> Workloads(uint64_t seed);

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one run produced: metrics by name, operation accounting, checks.
struct RunOutput {
  std::map<std::string, Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Failure accounting per phase, as a JSON object (attempted, succeeded,
  // failed, and the phase's own failure kinds).
  std::map<std::string, std::string> accounting;
  // Correctness checks: name -> passed, plus one line of detail each.
  std::map<std::string, bool> checks;
  std::map<std::string, std::string> check_detail;
  std::string trace_json;  // Chrome trace (traced runs only)
  std::map<std::string, double> layer_self_seconds;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    // A check run more than once fails if any run fails.
    auto it = checks.find(name);
    checks[name] = (it == checks.end() || it->second) && ok;
    if (!ok || check_detail.count(name) == 0) check_detail[name] = detail;
  }
  bool AllChecksPassed() const {
    for (const auto& [name, ok] : checks) {
      if (!ok) return false;
    }
    return !checks.empty();
  }
};

struct RunParams {
  double seconds = 10.0;
  int host_threads = 2;
  bool trace = false;
  std::string manifest_json;  // embedded in the trace
};

// Runs one workload. With params.trace false the end-to-end metrics are
// filled; with it true the traced replays fill the per-layer metrics.
RunOutput RunWorkload(const WorkloadConfig& config, const RunParams& params);

// JSON object describing a workload's generated inputs (for the manifest).
std::string WorkloadInputsJson(const WorkloadConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
