#!/usr/bin/env python3
"""Builds and runs the gmpsvm end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

The first run configures and builds the library and the benchmark binary
(Release) into $CARGO_TARGET_DIR, default .bench_build; later runs only check
the build is current. Build output goes to stderr. The binary's report goes
to stdout, and the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics, where metrics holds exactly the
end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer metrics
(--trace 1). Full reports, stamped with the run manifest, and traced runs'
Chrome traces are written to .bench_out/.

Exit status: 0 on a correct run; 1 when a correctness check fails or a
metric is missing (the JSON line is still printed when the run finished);
2 when the benchmark cannot build or run here.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(proc.stdout[-4000:] if proc.returncode else "")
    if proc.returncode != 0:
        fail(f"{what} failed (exit {proc.returncode})")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "cmake configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs], "build")
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("benchmark binary missing after build")
    return binary


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring window; default run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")

    result = None
    for line in stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if result is None:
        fail(f"benchmark exited {proc.returncode} without a result")

    metrics = {}
    missing = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = got
    if missing:
        fail("metrics missing or with the wrong unit: " + ", ".join(missing), code=1)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
