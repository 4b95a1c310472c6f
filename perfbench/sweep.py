"""Run workloads over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/sweep.py --workloads table1 serve query \\
        --seeds 1-10 --out perfbench/out/base.jsonl

Each run is ``run.py`` in its own process; its result line is appended
to ``--out``.  Per workload and end-to-end metric the sweep prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median,
next to the metric's bound from ``BENCHMARK.json``.  A spread above a
third of the bound is flagged: runs that noisy cannot resolve the
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    """``(median, q1, q3, (q3 - q1) / median)`` of ``values``."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else 0.0


def load_runs(path: str):
    """``{workload: [result, ...]}`` of the untraced runs in a JSON-lines file."""
    runs = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("trace", 0) == 0:
                runs.setdefault(record["workload"], []).append(record["result"])
    return runs


def report(runs, spec) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, fail_frac {failed / max(1, attempted):.3g}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(values) < 2:
                continue
            mid, q1, q3, width = spread(values)
            flag = "  NOISY" if width > bound / 3 and name != "setup_s" else ""
            print(
                f"  {name:14s} median {mid:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                f"spread {width:7.2%}  bound {bound:g}{flag}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True, help="JSON-lines file to append results to")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads:
            command = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
                "--out", args.out,
            ]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = done.stdout.strip().splitlines()[-1:] or [""]
            print(f"[{workload} seed {seed}] exit {done.returncode} {last[0][:160]}",
                  flush=True)
    report(load_runs(args.out), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
