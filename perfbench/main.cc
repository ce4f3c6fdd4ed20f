// End-to-end benchmark program (run through run.py, which builds it).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--out-dir <dir>]
//
// Runs one workload, prints checks, metrics and failure accounting, writes
// the full report (and, traced, a Chrome trace) stamped with the run
// manifest into --out-dir, and ends with one line
//   PERFBENCH_RESULT {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 0 all checks passed, 1 a correctness check failed,
// 2 usage error or a build that must not record numbers.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "manifest.h"
#include "stats.h"
#include "workloads.h"

using namespace perfbench;  // NOLINT

namespace {

constexpr uint64_t kDefaultSeed = 1;

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>] [--out-dir <dir>]\n",
               why);
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, git_sha = "unknown", out_dir = ".bench_out";
  uint64_t seed = kDefaultSeed, seconds = 10, trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    bool ok = true;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      ok = ParseUint(value, &seed);
    } else if (arg == "--seconds") {
      ok = ParseUint(value, &seconds) && seconds >= 1 && seconds <= 600;
    } else if (arg == "--trace") {
      ok = ParseUint(value, &trace) && trace <= 1;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (!ok) return Usage(("bad value for " + arg + ": " + value).c_str());
  }

  const std::vector<WorkloadConfig> all = Workloads(seed);
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const WorkloadConfig& w) { return w.name == workload; });
  if (it == all.end()) return Usage(("unknown workload '" + workload + "'").c_str());
  const WorkloadConfig& config = *it;

  Manifest manifest = CaptureManifest();
  if (!IsReleaseBuild(manifest)) {
    std::fprintf(stderr,
                 "error: refusing to record numbers from a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 manifest.build_type.c_str());
    return 2;
  }
  manifest.git_sha = git_sha;
  // One host thread for the training and prediction executors: on a shared
  // 4-vCPU VM, two threads made training times swing ~3x more from run to
  // run (each fork-join waits for a vCPU wake-up). Serving still runs its
  // two worker threads plus the load generator.
  manifest.host_threads = 1;
  manifest.seed = seed;
  manifest.default_seed = kDefaultSeed;
  manifest.workload = config.name;
  manifest.workload_inputs = WorkloadInputsJson(config);
  manifest.traced = trace == 1;
  manifest.run_seconds = static_cast<double>(seconds);
  const std::string manifest_json = manifest.ToJson();

  std::printf("workload %s (%s), seed %llu, %llus, trace %llu\n", config.name.c_str(),
              config.why.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seconds),
              static_cast<unsigned long long>(trace));
  std::printf("manifest %s\n", manifest_json.c_str());
  std::fflush(stdout);

  RunParams params;
  params.seconds = static_cast<double>(seconds);
  params.host_threads = manifest.host_threads;
  params.trace = trace == 1;
  params.manifest_json = manifest_json;
  const RunOutput out = RunWorkload(config, params);
  const bool correct = out.AllChecksPassed();

  for (const auto& [name, ok] : out.checks) {
    std::printf("check %-48s %s  %s\n", name.c_str(), ok ? "ok  " : "FAIL",
                out.check_detail.at(name).c_str());
  }
  for (const auto& [name, detail] : out.check_detail) {
    if (out.checks.count(name) == 0) {
      std::printf("info  %-48s %s\n", name.c_str(), detail.c_str());
    }
  }
  for (const auto& [phase, json] : out.accounting) {
    std::printf("ops   %-10s %s\n", phase.c_str(), json.c_str());
  }
  for (const auto& [name, m] : out.metrics) {
    std::printf("metric %-36s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  JsonObject layers;
  for (const auto& [layer, s] : out.layer_self_seconds) {
    std::printf("self  %-12s %.6f s\n", layer.c_str(), s);
    layers.Num(layer, s);
  }

  JsonObject metrics, checks, accounting;
  for (const auto& [name, m] : out.metrics) {
    metrics.Raw(name, JsonObject().Num("value", m.value).Str("unit", m.unit).Build());
  }
  for (const auto& [name, ok] : out.checks) {
    checks.Raw(name, JsonObject().Bool("passed", ok).Str("detail", out.check_detail.at(name)).Build());
  }
  for (const auto& [phase, json] : out.accounting) accounting.Raw(phase, json);
  const std::string result = JsonObject()
                                 .Bool("correct", correct)
                                 .Int("attempted", std::max<int64_t>(1, out.attempted))
                                 .Int("failed", out.failed)
                                 .Raw("metrics", metrics.Build())
                                 .Build();

  const std::string stem = out_dir + "/" + config.name + "-seed" + std::to_string(seed) +
                           (params.trace ? "-traced" : "");
  std::ofstream report(stem + ".json");
  report << JsonObject()
                .Raw("manifest", manifest_json)
                .Raw("result", result)
                .Raw("checks", checks.Build())
                .Raw("accounting", accounting.Build())
                .Raw("layer_self_seconds", layers.Build())
                .Build()
         << "\n";
  if (!report) std::fprintf(stderr, "warning: could not write %s.json\n", stem.c_str());
  if (params.trace && !out.trace_json.empty()) {
    std::ofstream trace_file(stem + ".trace.json");
    trace_file << out.trace_json;
  }

  std::printf("PERFBENCH_RESULT %s\n", result.c_str());
  return correct ? 0 : 1;
}
