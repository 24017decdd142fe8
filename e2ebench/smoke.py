#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 e2ebench/smoke.py [--seed 7] [--seconds 2]

Runs every workload of BENCHMARK.json briefly, untraced and traced, at a
seed other than the default, and checks that:

  * each run exits 0 with correct=true and failed=0;
  * the untraced run prints exactly the end-to-end metrics, the traced run
    exactly the per-layer metrics, each with its BENCHMARK.json unit, and
    no end-to-end value is 0;
  * the traced run wrote its Chrome trace and layer table, and every layer
    in that table belongs to a module BENCHMARK.json has metrics for;
  * the traced shares show the predicted dominance: ml.* is the majority
    of replayed Augment time on kfk_registry, core.discover on
    lake_discovered, and ml.* is absent on serve_mutating.

Exits 1 when any check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DOMINANCE = {
    "kfk_registry": ("ml.self_share", lambda v: v > 0.5, "> 0.5"),
    "lake_discovered": ("core.self_share", lambda v: v > 0.5, "> 0.5"),
    "serve_mutating": ("ml.self_share", lambda v: v == 0, "== 0"),
}


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc, result


def check_metrics(result, specs, nonzero):
    problems = []
    printed = result["metrics"]
    if sorted(printed) != sorted(s["name"] for s in specs):
        problems.append("metric names differ from BENCHMARK.json: %s"
                        % sorted(set(printed) ^ {s["name"] for s in specs}))
    for spec in specs:
        got = printed.get(spec["name"])
        if got is None:
            continue
        if got.get("unit") != spec["unit"]:
            problems.append("%s: unit %r, expected %r"
                            % (spec["name"], got.get("unit"), spec["unit"]))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r is not a number" % (spec["name"], value))
        elif nonzero and value == 0:
            problems.append("%s: end-to-end value is 0" % spec["name"])
    return problems


def check_rollup(workload, per_layer):
    problems = []
    out = os.path.join(ROOT, ".bench_out")
    if not os.path.isfile(os.path.join(out, "TRACE_%s.json" % workload)):
        problems.append("no Chrome trace written")
    modules = {s["name"].split(".")[0] for s in per_layer}
    try:
        with open(os.path.join(out, "LAYERS_%s.tsv" % workload)) as f:
            rows = [line.rstrip("\n").split("\t") for line in f][1:]
    except OSError:
        return problems + ["no layer table written"]
    for row in rows:
        layer = row[1]
        if layer != "(unattributed)" and layer.split(".")[0] not in modules:
            problems.append("rollup layer %s has no module in BENCHMARK.json"
                            % layer)
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc, result = run(workload, args.seed, args.seconds, trace)
            problems = []
            if proc.returncode != 0:
                problems.append("exit code %d" % proc.returncode)
            if result is None:
                problems.append("no JSON result line")
            else:
                if not result.get("correct") or result.get("failed") != 0:
                    problems.append("correct=%s failed=%s" % (
                        result.get("correct"), result.get("failed")))
                specs = bench["per_layer"] if trace else bench["end_to_end"]
                problems += check_metrics(result, specs, nonzero=not trace)
                if trace:
                    problems += check_rollup(workload, bench["per_layer"])
                    name, holds, want = DOMINANCE[workload]
                    value = result["metrics"].get(name, {}).get("value")
                    if value is None or not holds(value):
                        problems.append("%s = %s, predicted %s"
                                        % (name, value, want))
            status = "ok" if not problems else "FAIL"
            print("%-16s trace=%d %s" % (workload, trace, status))
            for p in problems:
                print("    " + p)
            if problems:
                failures += 1
                sys.stderr.write(proc.stderr[-2000:])
    print("smoke: %d failing run(s)" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
