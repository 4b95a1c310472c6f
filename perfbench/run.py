"""Run one benchmark workload and print its result as the last line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` runs a warm-up pass, a traced pass
and an untraced pass and reports the per-layer metrics, writing every span to
``perfbench/out/trace-<workload>-seed<seed>.json``.  ``--out FILE``
also appends the result, with its workload and seed, to a JSON-lines
file that ``compare.py`` reads.  The program under test is imported
from ``src/`` of the same checkout; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Setups per run: at least ``SETUP_MIN_REPS``, and more while they
#: have taken under ``SETUP_BUDGET_S`` (cheap setups repeat more).
#: ``setup_s`` is their median at reference host speed.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 9
SETUP_BUDGET_S = 2.0

#: Per-layer seconds read from span self times (span name per metric).
SPAN_LAYERS = {
    "network.parse_s": "network.parse",
    "core.build_s": "core.build",
    "reorder.sift_s": "reorder.sift",
    "bdd.build_s": "bdd.build",
    "bdd.sift_s": "bdd.sift",
    "xmem.build_s": "xmem.build",
    "io.dump_s": "io.dump",
    "io.load_s": "io.load",
    "wmc.p_one_s": "wmc.p_one",
    "wmc.marginals_s": "wmc.marginals",
    "reach.transition_s": "reach.transition",
    "reach.fixpoint_s": "reach.fixpoint",
    "serve.bulk_s": "serve.bulk",
    "gen.wait_s": "gen.wait",
    "gen.send_s": "gen.send",
    "gen.drain_s": "gen.drain",
    "check.s": "check",
    "calibrate.s": "calibrate",
}

#: Spans that only group layer calls; their self time is unattributed.
CONTAINER_SPANS = {
    "table1.pass", "table1.op", "query.pass", "reach.op", "wmc.op",
    "serve.pass", "serve.replay",
}

#: Spans that measure waiting, not work (the open-loop generator's
#: sleep until the next due time).  Time in which only they run is
#: idle: it is taken out of the traced wall before attribution.
IDLE_SPANS = {"gen.wait"}

#: Largest share of the traced (non-idle) wall that may be left
#: unattributed: the layer self times must cover at least 95% of it.
MAX_UNATTRIBUTED_FRAC = 0.05


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the result to this JSON-lines file")
    return parser.parse_args(argv)


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _workload(name: str, out: str):
    if name == "table1":
        from wl_table1 import Table1

        return Table1(out)
    if name == "serve":
        from wl_serve import Serve

        return Serve(out)
    if name == "query":
        from wl_query import Query

        return Query(out)
    raise SystemExit(f"unknown workload {name!r}")


def _setup(workload, seed: int, min_reps: int) -> float:
    from common import Speedometer, Tracer, median, perf_counter

    speed = Speedometer(Tracer(False))
    times: list = []
    spent = 0.0
    before = speed.sample()
    while len(times) < min_reps or (
        len(times) < SETUP_MAX_REPS and spent < SETUP_BUDGET_S
    ):
        if times:
            workload.discard()
        started = perf_counter()
        workload.setup(seed)
        seconds = perf_counter() - started
        spent += seconds
        after = speed.sample()
        times.append(seconds * speed.scale(before, after))
        before = after
    return median(times)


def _end_to_end(workload, args, checks) -> dict:
    from common import Tracer

    setup_s = _setup(workload, args.seed, SETUP_MIN_REPS)
    metrics = workload.measure(args.seconds, Tracer(False), checks)
    workload.finish(Tracer(False), checks)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = workload.peak_rss_mb()
    return metrics


def _per_layer(workload, args, checks, out: str) -> dict:
    from common import Tracer, ratio
    from repro import obs

    workload.setup(args.seed)
    # A first untraced pass warms up (lazy imports, first-use caches);
    # the traced pass is then compared with the untraced one after it.
    workload.one_pass(Tracer(False), checks)
    tracer = Tracer(True)
    obs.enable_tracing()
    try:
        stats = workload.one_pass(tracer, checks)
    finally:
        obs.disable_tracing()
    untraced = workload.one_pass(Tracer(False), checks)
    workload.finish(Tracer(False), checks)
    layers = tracer.layer_seconds()
    metrics = {name: layers.get(span, 0.0) for name, span in SPAN_LAYERS.items()}
    metrics.update(workload.layer_metrics(stats, tracer))
    own = tracer.self_times()
    unattributed = sum(
        own[sid] for sid, _p, name, _s, _e, _a in tracer.spans if name in CONTAINER_SPANS
    )
    idle = tracer.idle_seconds(IDLE_SPANS)
    metrics["obs.traced_wall_s"] = stats["wall_s"]
    metrics["obs.idle_s"] = idle
    metrics["obs.unattributed_frac"] = ratio(unattributed, stats["wall_s"] - idle)
    checks.check(
        metrics["obs.unattributed_frac"] < MAX_UNATTRIBUTED_FRAC,
        f"layer self times cover only {1 - metrics['obs.unattributed_frac']:.1%} "
        f"of the traced wall (idle time excluded)",
    )
    # Closed-loop passes compare their operation seconds at reference
    # host speed, so the host's drift between the passes cancels; the
    # open loop compares walls.
    key = "timed_s" if "timed_s" in stats else "wall_s"
    metrics["obs.trace_overhead_frac"] = ratio(stats[key], untraced[key]) - 1.0
    metrics["check.fail_frac"] = ratio(checks.failed, checks.attempted)
    tracer.dump(
        os.path.join(out, f"trace-{args.workload}-seed{args.seed}.json"),
        {
            "workload": args.workload,
            "seed": args.seed,
            "traced_wall_s": stats["wall_s"],
            "untraced_wall_s": untraced["wall_s"],
            "idle_s": idle,
            "unattributed_frac": metrics["obs.unattributed_frac"],
        },
    )
    return metrics


def _terminated(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from common import BenchError, Checks, adopt_orphans, out_dir, stop_processes

    # Every process the run starts is stopped and waited for on the way
    # out, also when the run is terminated.
    adopt_orphans()
    signal.signal(signal.SIGTERM, _terminated)

    spec = _load_spec()
    out = out_dir(ROOT)
    # Anything the package or its server puts in a temporary file stays
    # inside the checkout.
    os.environ["TMPDIR"] = out
    tempfile.tempdir = out
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[section]}
    workload = _workload(args.workload, out)
    checks = Checks()
    try:
        if args.trace:
            metrics = _per_layer(workload, args, checks, out)
        else:
            metrics = _end_to_end(workload, args, checks)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - a crashed run must not print a result
        traceback.print_exc()
        return 1
    finally:
        try:
            workload.close()
        finally:
            stop_processes()
    missing = sorted(set(wanted) - set(metrics)) if not args.trace else []
    if missing:
        print(f"perfbench: workload did not measure {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in wanted.items()
        },
    }
    for note in checks.notes:
        print(f"# failed check: {note}")
    print(
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} "
        f"fail_frac={checks.failed / max(1, checks.attempted):.6g}"
    )
    if args.out:
        with open(args.out, "a") as handle:
            record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "seconds": args.seconds, "result": result}
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
