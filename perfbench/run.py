#!/usr/bin/env python3
"""Builds the RuleLink benchmark from this checkout's sources and runs one
workload in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is built (Release) into .bench_build/ at the checkout root; the
first run in a checkout pays for the build. The last line of standard output
is the program's result object, {"correct", "attempted", "failed",
"metrics"}, checked against BENCHMARK.json: its end-to-end metrics with
--trace 0, its per-layer metrics with --trace 1. Build output and
diagnostics go to standard error.

Exits non-zero without a result when the checkout has no library sources,
the build fails, or the program's output does not match BENCHMARK.json;
exits non-zero after the result when an answer was wrong.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "rulelink_perfbench")
# A run may take 180 s, the first one in a checkout 900 s with its build.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_step(command, deadline):
    """Runs one build step; its output reaches stderr only if it fails."""
    try:
        step = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}", 3)
    if step.returncode != 0:
        sys.stderr.write(step.stdout.decode(errors="replace")[-20000:])
        fail(f"failed with exit code {step.returncode}: {' '.join(command)}",
             3)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources beside perfbench/ (src/CMakeLists.txt)", 2)
    if shutil.which("cmake") is None:
        fail("cmake is not installed", 2)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        run_step(configure, deadline)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", BUILD, "--target", "rulelink_perfbench",
              "-j", jobs], deadline)


def check_result(result, specs):
    """Returns what is wrong with the result object, or None."""
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "the result object does not have exactly the four keys"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return f"{key} is not a whole number"
    if result["attempted"] < 1 or result["failed"] < 0:
        return "attempted must be at least 1 and failed at least 0"
    metrics = result["metrics"]
    expected = {spec["name"]: spec["unit"] for spec in specs}
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        return "the metrics differ from BENCHMARK.json's"
    for name, unit in expected.items():
        metric = metrics[name]
        value = metric.get("value") if isinstance(metric, dict) else None
        if (set(metric) != {"value", "unit"} or metric["unit"] != unit
                or isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            return f"metric {name} is malformed"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}", 2)
    # BENCHMARK.json lists the workloads the benchmark gates on; the program
    # also runs serve_read, the read-only baseline (README.md).
    if args.workload not in [w["name"] for w in spec["workloads"]] + [
            "serve_read"]:
        fail(f"unknown workload {args.workload}", 2)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60", 2)

    build()
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    # The program pins its own SIMD mode, pinning and thread counts; no
    # RULELINK_* setting of the caller's may leak into a run.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RULELINK_")}
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-out",
               os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = run.stdout.decode(errors="replace").splitlines()
    if not lines:
        fail(f"the program printed nothing (exit code {run.returncode})", 5)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        fail(f"no result object (exit code {run.returncode})", 5)
    problem = check_result(
        result, spec["per_layer" if args.trace else "end_to_end"])
    if problem is not None:
        fail(problem, 5)
    print("\n".join(lines), flush=True)
    if run.returncode != 0:
        return run.returncode
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
