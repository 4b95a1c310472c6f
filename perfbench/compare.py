"""Compare two sets of benchmark runs metric by metric.

Usage::

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Both files are JSON-lines results as written by ``run.py --out`` or
``sweep.py`` (several seeds per workload).  One row per workload; one
column per end-to-end metric of ``BENCHMARK.json``.  Each cell is the
change of the new median against the old, signed so that a positive
number is worse, followed by a verdict:

* ``ok`` - within the metric's bound;
* ``better`` - better by more than either side's own spread (a hint,
  not a claim: a claimed gain needs paired runs);
* ``WORSE`` - worse by more than the bound;
* ``unresolved`` - the old or new spread (quartile distance over
  median) is wider than the bound, so the runs cannot tell, unless
  every new run is better than every old run (then ``better``).

The exit code is 1 when any cell is ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from sweep import load_runs, spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def verdict(old, new, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    old_mid, _, _, old_spread = spread(old)
    new_mid, _, _, new_spread = spread(new)
    change = sign * (new_mid - old_mid) / old_mid if old_mid else 0.0
    all_better = (
        max(new) < min(old) if better == "lower" else min(new) > max(old)
    )
    if max(old_spread, new_spread) > bound and not all_better:
        tag = "unresolved"
    elif change > bound:
        tag = "WORSE"
    elif -change > max(old_spread, new_spread) or all_better:
        tag = "better"
    else:
        tag = "ok"
    return f"{change:+.1%} {tag}"


def compare(old_runs, new_runs, spec):
    metrics = spec["end_to_end"]
    rows = [["workload"] + [m["name"] for m in metrics]]
    worse = False
    for workload in sorted(set(old_runs) & set(new_runs)):
        row = [workload]
        for metric in metrics:
            name = metric["name"]
            old = [r["metrics"][name]["value"] for r in old_runs[workload]]
            new = [r["metrics"][name]["value"] for r in new_runs[workload]]
            if len(old) < 2 or len(new) < 2:
                row.append("n/a")
                continue
            cell = verdict(old, new, metric["better"], metric["bound"])
            worse = worse or cell.endswith("WORSE")
            row.append(cell)
        rows.append(row)
    return rows, worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    rows, worse = compare(load_runs(args.old), load_runs(args.new), spec)
    bounds = ["bound"] + [f"{m['bound']:g}" for m in spec["end_to_end"]]
    table = rows[:1] + [bounds] + rows[1:]
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
