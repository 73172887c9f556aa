#!/usr/bin/env python3
"""Builds and runs the MQO end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (the MQO library from src/
plus the benchmark binary, mqo_perfbench) into the directory named by
CARGO_TARGET_DIR, or .bench_build when unset; later calls only rebuild what
changed. Build output goes to standard error. The binary then runs with
every MQO_* environment variable removed, and its last line of standard
output is the result JSON (see perfbench/README.md). The exit code is the
binary's, or 1 when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dashboard_burst", "report_scan", "session_refresh")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "--parallel", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(build_dir, "mqo_perfbench")
    return binary if os.path.exists(binary) else None


def describe():
    """`git describe` of the checkout, or "unknown" outside a git work tree."""
    root = os.path.dirname(HERE)
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "-C", root, "describe", "--always", "--dirty", "--tags"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    text = out.stdout.decode().strip()
    return text if out.returncode == 0 and text else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.abspath(build_dir))
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("MQO_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(HERE, "out"), "--describe", describe()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
