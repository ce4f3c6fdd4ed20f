// Run manifest stamped on every artifact the benchmark writes: what code,
// build and host produced the numbers, and with which inputs.

#ifndef PERFBENCH_MANIFEST_H_
#define PERFBENCH_MANIFEST_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct Manifest {
  std::string git_sha;
  std::string build_type;
  std::string compiler;
  std::string cxx_flags;
  std::string simd_tier;
  std::string simd_environment;
  int nproc = 0;
  double load_average_1m = 0.0;
  int host_threads = 0;
  uint64_t seed = 0;
  uint64_t default_seed = 0;
  std::string workload;
  std::string workload_inputs;  // JSON object describing the generated data
  bool traced = false;
  double run_seconds = 0.0;

  std::string ToJson() const;
};

// Fills the build, compiler, SIMD and host fields; the caller sets the rest.
Manifest CaptureManifest();

// True for an optimized, assertion-free build (the only kind whose numbers
// may be recorded as a baseline).
bool IsReleaseBuild(const Manifest& manifest);

}  // namespace perfbench

#endif  // PERFBENCH_MANIFEST_H_
