#!/usr/bin/env python3
"""Self-tests of the allocator benchmark.

Usage, from the repository root:

    python3 allocbench/selftest.py

Checks, each through allocbench/run.py as the benchmark is run:
  1. every workload prints exactly the metrics BENCHMARK.json lists,
     with their units, in both modes, and runs correct with no failure;
  2. the traced counters confirm each workload's design (see
     README.md, "What each workload must show");
  3. a deliberately broken check input (a leaked object, or a wrong
     key stamp) makes the runner exit nonzero with correct = false.
Exits 0 when all pass.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["exchange", "rcu_table", "reclaim_wave"]
SEED = 7

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "2",
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    per_layer = {}
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res = run(w, trace)
            check(code == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and res["attempted"] > 0,
                  f"{w} trace={trace}: exit 0, correct, no failure")
            if res is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: v["unit"] for n, v in res["metrics"].items()}
            check(got == want, f"{w} trace={trace}: metrics match {key}")
            if trace:
                per_layer[w] = {n: v["value"]
                                for n, v in res["metrics"].items()}

    if len(per_layer) == len(WORKLOADS):
        ex, rt, rw = (per_layer[w] for w in WORKLOADS)
        check(ex["slab.depot_exchanges_per_kop"] >=
              100 * ex["page.allocs_per_kop"],
              "exchange: depot exchanges >= 100x buddy allocs")
        check(rw["slab.grows_per_kop"] > 0 and rw["page.allocs_per_kop"] > 0,
              "reclaim_wave: slab grows and buddy allocs are nonzero")
        check(rw["page.allocs_per_kop"] >= 10 * ex["page.allocs_per_kop"],
              "reclaim_wave: buddy allocs/kop >= 10x exchange's")
        check(rt["rcu.lookups_per_update"] >= 4,
              "rcu_table: lookups >= 4x updates")
        check(rt["slab.deferred_frac"] > 0.99 and
              rw["slab.deferred_frac"] > 0.99 and
              ex["slab.deferred_frac"] == 0,
              "deferred_frac fixed by the scripts (1, 1, 0)")

    for w in WORKLOADS:
        for inject in ("live", "stamp"):
            code, res = run(w, 0, "--inject", inject)
            check(code != 0 and res is not None and not res["correct"]
                  and res["failed"] > 0,
                  f"{w} --inject {inject}: runner exits nonzero")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
