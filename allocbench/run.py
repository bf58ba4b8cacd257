#!/usr/bin/env python3
"""Build the allocator benchmark driver from source and run one workload.

Usage, from the repository root:

    python3 allocbench/run.py --workload exchange --seed 1 --seconds 10 --trace 0

The driver is configured through the repository's own CMakeLists.txt
(allocbench/CMakeLists.txt adds it as a subdirectory) and built into
.bench_build/allocbench. With --trace 0 the run is ROUNDS driver
processes of --seconds / ROUNDS each, one after the other: each sets
up from scratch, so setup_s is the median over rounds and the other
end-to-end metrics are medians over the 1-s windows of all rounds.
With --trace 1 it is one process. The result keeps exactly the
metrics BENCHMARK.json lists for the mode (end_to_end for --trace 0,
per_layer for --trace 1), with names and units checked against that
list, and is printed as the last line.

Exit codes: 0 for a correct run, 1 when a check of the program's
outputs failed, 2 for a usage error, 3 when the build, the run or the
metric list is broken.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "allocbench")
BINARY = os.path.join(BUILD, "allocbench")
RUN_TIMEOUT_S = 170
ROUNDS = 10


def fail(msg):
    print(f"allocbench: {msg}", file=sys.stderr)
    sys.exit(3)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "allocbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def metric_list(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_driver(args, seconds, deadline):
    """One driver process: (stdout lines before the result, result)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.inject is not None:
        cmd += ["--inject", args.inject]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"driver printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"driver's last line is not JSON (exit {proc.returncode})")
    if proc.returncode not in (0, 1) or \
            (proc.returncode == 0) != (result.get("correct") is True):
        fail(f"driver exit {proc.returncode} disagrees with its result")
    return lines[:-1], result


def run(args):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        info, result = run_driver(args, args.seconds, deadline)
        rounds = [result]
    else:
        info, rounds = [], []
        per_round = max(1, round(args.seconds / ROUNDS))
        for i in range(ROUNDS):
            lines, result = run_driver(args, per_round, deadline)
            info += [f"round {i}: {line}" for line in lines]
            rounds.append(result)

    # A metric with per-window values is the median over every window
    # of every round; the others (setup_s) the median over rounds.
    printed = {}
    for name, m in rounds[0]["metrics"].items():
        if name in rounds[0].get("windows", {}):
            values = [v for r in rounds for v in r["windows"][name]]
        else:
            values = [r["metrics"][name]["value"] for r in rounds]
        printed[name] = {"value": statistics.median(values),
                         "unit": m["unit"]}
    wanted = metric_list(args.trace)
    names = [m["name"] for m in wanted]
    if sorted(printed) != sorted(names):
        fail("metric names differ from BENCHMARK.json: extra "
             f"{sorted(set(printed) - set(names))}, missing "
             f"{sorted(set(names) - set(printed))}")
    for m in wanted:
        if printed[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {printed[m['name']]['unit']} != "
                 f"{m['unit']} in BENCHMARK.json")

    for line in info:
        print(line)
    correct = all(r["correct"] for r in rounds)
    out = {"correct": correct,
           "attempted": sum(r["attempted"] for r in rounds),
           "failed": sum(r["failed"] for r in rounds),
           "metrics": {n: printed[n] for n in names}}
    print(json.dumps(out))
    return 0 if correct else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["exchange", "rcu_table", "reclaim_wave"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--inject", choices=["live", "stamp"],
                   help="break one check input on purpose (self-tests)")
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        p.error("--seed must be >= 0 and --seconds in [1, 120]")
    build()
    sys.exit(run(args))


if __name__ == "__main__":
    main()
