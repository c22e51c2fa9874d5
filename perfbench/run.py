#!/usr/bin/env python3
"""Build and run the column-cache benchmark from the root of a checkout.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The benchmark program (perfbench/colbench.ml) is built with dune from the
checkout's sources, then run once; its last stdout line, a JSON object with
the keys correct/attempted/failed/metrics, is checked and printed last.
--self-test runs all four workloads at a small size, traced and untraced,
and asserts that every metric named in BENCHMARK.json is present and finite and
that verification passes.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

EXE = "_build/default/perfbench/colbench.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORKLOADS = ["replay", "traffic", "sweep", "paper"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isdir("lib") or shutil.which("dune") is None:
        fail("run from the root of a colcache checkout with dune installed")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/colbench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("build failed")


def probe(command):
    """First line of a command's output, or "unknown" if it cannot run."""
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.strip().splitlines()
    return lines[0].strip() if done.returncode == 0 and lines else "unknown"


def host_args():
    flambda = probe(["ocamlfind", "ocamlopt", "-config-var", "flambda"])
    flambda = {"true": "yes", "false": "no"}.get(flambda, flambda)
    rev = probe(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "none"
    return ["--flambda", flambda, "--git-rev", rev]


def run(args):
    """Run the program once; return its stdout lines and the parsed result."""
    command = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size] + host_args()
    # Its own session, so that a timeout also stops its calibration helper.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out" % args.workload)
    lines = stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail("%s exited with %d" % (args.workload, proc.returncode))
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("unexpected result keys %s" % sorted(result))
    return lines, result


def self_test():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    # All four workloads, including the two BENCHMARK.json leaves out.
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=2, seconds=0.2,
                                      trace=trace, size="small")
            _, result = run(args)
            label = "%s --trace %d" % (workload, trace)
            metrics = result["metrics"]
            if not result["correct"] or result["failed"] != 0:
                problems.append(label + ": verification failed")
            if result["attempted"] < 1:
                problems.append(label + ": nothing attempted")
            if sorted(metrics) != sorted(names[trace]):
                problems.append(label + ": metrics %s" % sorted(metrics))
            for name, metric in metrics.items():
                value = metric["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append("%s: %s = %r" % (label, name, value))
            print("self-test %-20s %d metrics, %s" % (
                label, len(metrics), "ok" if result["correct"] else "FAILED"))
    for problem in problems:
        print("self-test: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if args.self_test:
        sys.exit(self_test())
    if args.workload is None:
        fail("--workload is required")
    lines, result = run(args)
    for line in lines[:-1]:
        print(line)
    print(lines[-1])


if __name__ == "__main__":
    main()
