"""Machine-readable benchmark metrics (``BENCH_<name>.json``).

Every ``bench_*.py`` records its headline numbers through
:func:`record_metric`; the files land in ``benchmarks/out/`` (override
with ``BENCH_OUT_DIR``) as::

    {
      "bench": "io",
      "commit": "<git sha or 'unknown'>",
      "metrics": [
        {"name": "roundtrip_nodes_per_s", "value": 140000, "unit": "nodes/s"},
        ...
      ],
      "obs": {"repro_manager_apply_total": [...], ...}
    }

CI uploads the directory as an artifact per run, so the performance
trajectory is tracked from the commit that introduced this module on.
Re-recording a metric name within one run overwrites the previous
value (benches parameterize names instead).

The ``obs`` section is a compact :func:`repro.obs.snapshot` of the
benchmarking process at recording time — non-zero samples only — so
every ``BENCH_*.json`` doubles as a workload profile (cache hit rates,
GC volume, spill traffic) next to its headline numbers.

:func:`measure` is the shared A/B timing method for ratio gates: it
runs both sides alternately and compares medians, so a gate does not
flake when the host slows down between two back-to-back blocks.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
from typing import Callable, Tuple, Union

_COMMIT: Union[str, None] = None


def _commit() -> str:
    global _COMMIT
    if _COMMIT is None:
        try:
            result = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                cwd=os.path.dirname(os.path.abspath(__file__)),
                timeout=10,
            )
            _COMMIT = result.stdout.strip() or "unknown"
        except Exception:
            _COMMIT = "unknown"
    return _COMMIT


def _out_dir() -> str:
    directory = os.environ.get("BENCH_OUT_DIR") or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "out"
    )
    os.makedirs(directory, exist_ok=True)
    return directory


def _obs_section() -> dict:
    """A compact metrics snapshot: non-zero samples per family name.

    Best-effort — an environment without the package importable (or a
    snapshot failure) produces an empty section rather than breaking
    the benchmark run.
    """
    try:
        from repro import obs

        snapshot = obs.snapshot()
    except Exception:
        return {}
    section: dict = {}
    for name in sorted(snapshot):
        entry = snapshot[name]
        samples = []
        for sample in entry.get("samples", ()):
            if entry.get("type") == "histogram":
                if not sample["count"]:
                    continue
                samples.append(
                    {
                        "labels": sample["labels"],
                        "count": sample["count"],
                        "sum": round(float(sample["sum"]), 6),
                    }
                )
            elif sample["value"]:
                samples.append(
                    {"labels": sample["labels"], "value": sample["value"]}
                )
        if samples:
            section[name] = samples
    return section


def record_metric(bench: str, name: str, value, unit: str) -> str:
    """Record one metric of benchmark ``bench``; returns the json path."""
    path = os.path.join(_out_dir(), f"BENCH_{bench}.json")
    doc = {"bench": bench, "metrics": []}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fileobj:
                doc = json.load(fileobj)
        except (OSError, ValueError):
            pass
    doc["bench"] = bench
    doc["commit"] = _commit()
    metrics = [m for m in doc.get("metrics", []) if m.get("name") != name]
    if isinstance(value, float):
        value = round(value, 6)
    metrics.append({"name": name, "value": value, "unit": unit})
    doc["metrics"] = sorted(metrics, key=lambda m: m["name"])
    doc["obs"] = _obs_section()
    with open(path, "w", encoding="utf-8") as fileobj:
        json.dump(doc, fileobj, indent=2)
        fileobj.write("\n")
    return path


def measure(
    a: Callable[[], float], b: Callable[[], float], rounds: int
) -> Tuple[float, float, float]:
    """Time ``a`` and ``b`` in alternation; returns medians and their ratio.

    Each callable runs one timed pass and returns its own elapsed
    seconds (so set-up work can stay outside the timed region).  The
    two sides alternate for ``rounds`` rounds, and the side that goes
    first swaps every round, so host drift hits both sides alike.
    Returns ``(median_a, median_b, ratio)`` where ``ratio`` is the
    median over rounds of ``b / a`` — each round's pair ran back to
    back under the same host conditions, which keeps the ratio steady
    when a busy host shifts whole blocks of samples.
    """
    times_a = []
    times_b = []
    for i in range(rounds):
        if i % 2:
            times_b.append(b())
            times_a.append(a())
        else:
            times_a.append(a())
            times_b.append(b())
    ratio = statistics.median(tb / ta for ta, tb in zip(times_a, times_b))
    return statistics.median(times_a), statistics.median(times_b), ratio
