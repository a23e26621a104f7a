#!/usr/bin/env python3
"""Runs one perfbench workload: builds the benchmark binary if needed, then runs it.

    python3 perfbench/run.py --workload history_scan --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The binary is built from source into
.bench_build/ (CMake, Release). Every SEGDIFF_* variable is removed from
the binary's environment so an operator's shell cannot skew a run; the
binary pins the same knobs again through explicit options.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A full report, with run metadata
and sample counts, is written to .bench_build/results/. The exit code is
nonzero when the build fails, the binary fails, or the correctness gate
fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("history_scan", "live_ingest", "transect_sweep")
BINARY_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def source_digest(paths):
    """SHA-256 over every file under `paths` (names and bytes, sorted)."""
    digest = hashlib.sha256()
    for top in paths:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")) or not shutil.which("git"):
        return "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def build(bench_dir, build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    src_dir = os.path.join(root, "src")
    if not os.path.isdir(src_dir):
        log(f"segdiff sources not found at {src_dir}")
        return 2
    out_dir = os.path.join(root, ".bench_build")
    binary = build(bench_dir, os.path.join(out_dir, "cmake"))
    if binary is None:
        return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith("SEGDIFF_")}
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", out_dir,
        "--commit", git_commit(root),
        "--source-digest", source_digest([src_dir, os.path.join(bench_dir, "src")]),
    ]
    try:
        result = subprocess.run(command, env=env, cwd=root,
                                timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {BINARY_TIMEOUT_S} s and was killed")
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
