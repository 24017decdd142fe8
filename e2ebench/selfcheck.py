#!/usr/bin/env python3
"""Planted-slowdown self-check: shows that the benchmark's bounds bite.

Run from the repository root:

    python3 e2ebench/selfcheck.py [--seeds 21 22 23] [--seconds 20]

For each batch workload it runs the benchmark plain and with --plant core
and --plant ml, which add before every timed Augment call one extra call
of the same size into that layer (DiscoverFeatures on a fresh engine, or
the call's k+1 TrainAndEvaluate calls). A plant must move op_ms_p50 and
ops_per_s past their BENCHMARK.json bounds on the workload its layer
dominates (core on lake_discovered, ml on kfk_registry) and keep them
within the bounds on the other batch workload. The host's speed drifts
over minutes, so each seed runs plain, core and ml back to back (in
alternating order) and the verdict uses the median over seeds of how much
each planted run got worse than its plain neighbour. Exits 1 when a
prediction fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METRICS = ("op_ms_p50", "ops_per_s")
DOMINATES = {"core": "lake_discovered", "ml": "kfk_registry"}


def run(workload, seed, seconds, plant):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    if plant:
        command += ["--plant", plant]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s plant=%s seed %s failed" % (workload, plant, seed))
    metrics = json.loads(lines[-1])["metrics"]
    return {m: metrics[m]["value"] for m in METRICS}


def worse_share(spec, plain, planted):
    if spec["better"] == "lower":
        return planted / plain - 1.0
    return 1.0 - planted / plain


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="+", default=[21, 22, 23])
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    print("%-16s %-6s %-10s %8s  %-22s %s" % (
        "workload", "plant", "metric", "worse", "per seed", "prediction"))
    for workload in ("kfk_registry", "lake_discovered"):
        worse = {(p, m): [] for p in DOMINATES for m in METRICS}
        for n, seed in enumerate(args.seeds):
            variants = [None] + list(DOMINATES)
            if n % 2:
                variants.reverse()
            got = {v: run(workload, seed, args.seconds, v) for v in variants}
            for plant in DOMINATES:
                for m in METRICS:
                    worse[(plant, m)].append(
                        worse_share(specs[m], got[None][m], got[plant][m]))
        for plant, dominated in DOMINATES.items():
            for m in METRICS:
                median = statistics.median(worse[(plant, m)])
                expect_past = workload == dominated
                holds = (median > specs[m]["bound"]) == expect_past
                ok = ok and holds
                print("%-16s %-6s %-10s %+7.1f%%  %-22s %s bound %.0f%%: %s" % (
                    workload, plant, m, median * 100,
                    " ".join("%+.0f%%" % (w * 100) for w in worse[(plant, m)]),
                    "past" if expect_past else "within",
                    specs[m]["bound"] * 100, "ok" if holds else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
