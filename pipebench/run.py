#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

From the repository root:

    python3 pipebench/run.py --workload train_kdd --seed 1 --seconds 10 --trace 0
    python3 pipebench/run.py --quick

The first form builds pipebench/ and the library under src/ with CMake into
$CARGO_TARGET_DIR/pipebench (default .bench_build/pipebench), runs one
workload and passes the binary's output through: a report line, then the
result object as the last line.

--quick is the benchmark's own test: every workload at a small scale,
untraced and traced, on two seeds, with every correctness gate on. It exits
non-zero if a run is incorrect, fails an operation, or prints metric names
that differ from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("train_kdd", "serve_syngen", "stream_drift_kdd", "baselines_kdd")


def fail(message):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("library sources not found at %s" % os.path.join(REPO, "src"))
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target_dir), "pipebench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "pipebench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "pipebench")


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(REPO, ".git")):
        head = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", REPO, "status", "--porcelain", "--", "src",
                 "pipebench"], capture_output=True, text=True).stdout.strip()
            return head.stdout.strip() + ("+dirty" if dirty else "")
    digest = hashlib.sha256()
    for base in ("src", "pipebench"):
        for root, dirs, files in os.walk(os.path.join(REPO, base)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def quick(binary):
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    rev = revision()
    failures = 0
    for seed in (1, 2):
        for workload in WORKLOADS:
            for trace in (0, 1):
                proc = subprocess.run(
                    [binary, "--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace), "--quick",
                     "--revision", rev],
                    capture_output=True, text=True, timeout=170)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else {}
                ok = (proc.returncode == 0 and result.get("correct") is True
                      and result.get("failed") == 0)
                if ok:
                    key = "per_layer" if trace else "end_to_end"
                    names = {m["name"] for m in spec[key]}
                    ok = names == set(result["metrics"])
                print("%-17s seed=%d trace=%d %s"
                      % (workload, seed, trace, "ok" if ok else "FAIL"))
                if not ok:
                    failures += 1
                    sys.stdout.write(proc.stdout)
                    sys.stderr.write(proc.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small-scale self-test of every workload")
    args = parser.parse_args()
    if not args.quick and args.workload is None:
        parser.error("--workload is required (or --quick)")
    binary = build()
    if args.quick:
        return quick(binary)
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--revision", revision()]).returncode


if __name__ == "__main__":
    sys.exit(main())
