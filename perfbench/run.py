#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload wire_single --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build lands in $CARGO_TARGET_DIR
(default .bench_build) under the checkout; traces of --trace 1 runs land
in .bench_out/. The last line of stdout is the JSON result printed by the
perfbench binary. Exits non-zero, without a result, if the build fails.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ("wire_single", "wire_batch", "feedback_drift")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures and builds perfbench; returns the binary path or None."""
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not os.path.exists(
                os.path.join(build_dir, "Makefile")):
            configure += ["-G", "Ninja"]
        jobs = str(min(os.cpu_count() or 1, 8))
        for cmd in (configure,
                    ["cmake", "--build", build_dir, "-j", jobs]):
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                log(proc.stdout[-4000:])
                log("perfbench: build failed: " + " ".join(cmd))
                return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
