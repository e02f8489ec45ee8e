#!/usr/bin/env python3
"""Key-recovery benchmark: build the benchmark program from source, then run one workload.

Run from the repository root:

    python3 krbench/run.py --workload recover-serial --seed 0 --seconds 10 --trace 0

The benchmark program (krbench/kr_bench.cpp) is built with CMake into
.bench_build/krbench on first use. Everything the run prints goes to
stdout; the last line is the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is nonzero
when the sources are missing, the build fails, or any correctness check
fails. Workloads, metrics and seeds are described in krbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "krbench")


def log(msg):
    print(f"krbench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the program and benchmark sources (the checkout has no git)."""
    h = hashlib.sha256()
    for top in ("src", "krbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "none"
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "none"


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "kr_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 is fd-attack's default victim and campaign")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measured time after set-up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    ap.add_argument("--shape", choices=("full", "tiny"), default="full",
                    help="tiny is for the benchmark's own smoke tests")
    ap.add_argument("--corrupt-rep", type=int, default=-1,
                    help="corrupt this repetition's result (tests the checks)")
    args = ap.parse_args()

    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no program sources under {ROOT}/src; run from a full checkout")
        return 2
    binary = build()
    if binary is None:
        log("build failed")
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--shape", args.shape, "--work-dir", BUILD,
           "--commit", commit_id(), "--src-digest", source_digest(),
           "--corrupt-rep", str(args.corrupt_rep)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
