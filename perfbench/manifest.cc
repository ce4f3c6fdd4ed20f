#include "manifest.h"

#include <cstdlib>
#include <thread>

#include "simd/simd.h"
#include "stats.h"

namespace perfbench {

Manifest CaptureManifest() {
  Manifest m;
  m.build_type = PERFBENCH_BUILD_TYPE;
  m.compiler = PERFBENCH_COMPILER;
  m.cxx_flags = PERFBENCH_CXX_FLAGS;
  m.simd_tier = gmpsvm::simd::TierName(gmpsvm::simd::ActiveTier());
  m.simd_environment = gmpsvm::simd::DescribeEnvironment();
  m.nproc = static_cast<int>(std::thread::hardware_concurrency());
  double load[1] = {0.0};
  if (getloadavg(load, 1) == 1) m.load_average_1m = load[0];
  return m;
}

bool IsReleaseBuild(const Manifest& manifest) {
#ifdef NDEBUG
  return manifest.build_type == "Release";
#else
  (void)manifest;
  return false;
#endif
}

std::string Manifest::ToJson() const {
  return JsonObject()
      .Str("git_sha", git_sha)
      .Str("build_type", build_type)
      .Str("compiler", compiler)
      .Str("cxx_flags", cxx_flags)
      .Str("simd_tier", simd_tier)
      .Str("simd_environment", simd_environment)
      .Int("nproc", nproc)
      .Num("load_average_1m_at_start", load_average_1m)
      .Int("host_threads", host_threads)
      .Int("seed", static_cast<int64_t>(seed))
      .Int("default_seed", static_cast<int64_t>(default_seed))
      .Str("workload", workload)
      .Raw("workload_inputs", workload_inputs)
      .Bool("traced", traced)
      .Num("run_seconds", run_seconds)
      .Build();
}

}  // namespace perfbench
