#!/usr/bin/env python3
"""Build and run one bench_e2e workload.

Usage (from the repository root):

    python3 bench_e2e/run.py --workload exp1_mixed|serve_stream|ingest_reuse \
        --seed N --seconds S --trace 0|1

Builds the Release binary from source into $CARGO_TARGET_DIR (default
.bench_build) the first time, runs the workload, and passes its output
through.  The last stdout line is the JSON result
{correct, attempted, failed, metrics}, with the metrics BENCHMARK.json
lists.  Exits 1 without a result when the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no library sources next to the benchmark (" + ROOT + ")")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir, *generator,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target", "bench_e2e",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "bench_e2e")


def git_sha():
    """HEAD of the repository the benchmark sits in, if it is one."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        return head.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources: provenance for a
    checkout exported without its git metadata, where git_sha() is unknown."""
    digest = hashlib.sha256()
    for top in ("src", "bench_e2e", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work", args.workload + "-t" + args.trace)
    shutil.rmtree(work_dir, ignore_errors=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir,
               "--metrics", os.path.join(ROOT, "BENCHMARK.json"),
               "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("bench_e2e exited with %d" % run.returncode)
    print(run.stdout, end="")


if __name__ == "__main__":
    main()
