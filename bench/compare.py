"""Compare two versions of pulsemass, a parent and a change, with one benchmark.

    python3 bench/compare.py --parent DIR --change DIR

DIR is the root of a checkout of each side.  Both sides run this copy of
bench/run.py for BENCHMARK.json's run_seconds, so the benchmark code and
settings are identical.  Every workload runs PAIRS pairs; pair i uses seed
BASE_SEED + i on both sides, and the side that runs first alternates pair by
pair.  For each workload and end-to-end metric the table gives each side's
median and quartiles, the pairs the change won (ties count for neither) and
a verdict, in this order of precedence:

  unresolved  the run-to-run spread (quartile distance over median) of
              either side exceeds the metric's bound, and not every change
              run beats every parent run
  regressed   the change's median is worse than the parent's by more than
              the bound
  improved    at least ten pairs ran, the change won at least 9 of 10 of
              them and the medians differ by more than the parent's
              quartile distance
  same        otherwise

Metrics are never combined into one score.  The output starts with the
`# machine` line of the host the runs were made on.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import BENCH_DIR, WORKLOADS, machine_info, spec

PAIRS = 10
BASE_SEED = 1


def run_side(tree: str, workload: str, seed: int, seconds: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"  {tree} {workload} seed {seed}: exit {proc.returncode}\n"
              f"{proc.stderr[-1000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, parent: list[float], change: list[float], wins: int,
            pairs: int) -> str:
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if spread > bound and not all_better:
        return "unresolved"
    worse_by = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else 0.0
    if worse_by > bound:
        return "regressed"
    if pairs >= 10 and wins >= 0.9 * pairs and abs(cm - pm) > p3 - p1:
        return "improved"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    args = parser.parse_args(argv)

    bench = spec()
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    print("# machine " + json.dumps(machine_info()), flush=True)
    runs = []
    for workload in WORKLOADS:
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_side(trees[side], workload, BASE_SEED + i, seconds)
                runs.append({"workload": workload, "pair": i, "side": side, "result": result})

    print(f"{'workload':15s} {'metric':14s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':>7s}  verdict")
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        ok_pairs = [i for i in range(PAIRS)
                    if all(r["result"] for r in mine if r["pair"] == i)]
        for metric in metrics:
            name = metric["name"]
            side_values = {side: [r["result"]["metrics"][name]["value"] for r in mine
                                  if r["side"] == side and r["pair"] in ok_pairs]
                           for side in trees}
            parent, change = side_values["parent"], side_values["change"]
            if not parent:
                print(f"{workload:15s} {name:14s} no complete pairs")
                continue
            sign = -1.0 if metric["better"] == "lower" else 1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            fmt = lambda v: "{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(v))  # noqa: E731
            print(f"{workload:15s} {name:14s} {fmt(parent):34s} {fmt(change):34s} "
                  f"{wins:>3d}/{len(ok_pairs):<3d}  "
                  f"{verdict(metric, parent, change, wins, len(ok_pairs))}")
    return 0 if all(r["result"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
