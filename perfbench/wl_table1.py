"""Workload ``table1``: the paper's Table I pipeline, closed loop, in process.

Every fast-profile Table I circuit goes through BLIF parse -> build ->
sift -> v2 compressed dump -> load on ``bbdd`` and ``bdd``, and through
parse -> build -> dump -> load on ``xmem`` (no sifting there, as in the
harness).  One operation is one circuit on one backend.  The seed
shuffles the circuit order and draws the assignments on which loaded
and in-memory forests must agree.
"""

from __future__ import annotations

import io
import random
from typing import Dict, List

from common import (
    Checks,
    add_counts,
    core_metrics,
    blif_input,
    manager_counters,
    op_latency_metrics,
    pass_budget,
    per_key_medians,
    perf_counter,
    ratio,
    self_peak_rss_mb,
    Speedometer,
)

BACKENDS = ("bbdd", "bdd", "xmem")

#: Pre-sift BBDD node counts of the fast profile (canonical: a BBDD is
#: unique for a function and an order, so any drift is a wrong result).
CANONICAL_BBDD_NODES = {
    "C1355": 1181, "C1908": 1298, "C499": 943, "seq": 2627, "my_adder": 304,
    "frg1": 1720, "misex3": 4585, "misex1": 78, "comp": 79, "count": 352,
    "cordic": 70, "alu4": 841, "C17": 12, "9symml": 18, "z4ml": 34,
    "decod": 31, "parity": 8,
}

#: Random assignments per circuit checked on loaded vs in-memory forests.
CHECK_ASSIGNMENTS = 24

#: Span (layer) names of the build and sift stages per backend.
BUILD_SPAN = {"bbdd": "core.build", "bdd": "bdd.build", "xmem": "xmem.build"}
SIFT_SPAN = {"bbdd": "reorder.sift", "bdd": "bdd.sift"}


class Table1:
    name = "table1"

    def __init__(self, out: str) -> None:
        self.out = out

    def setup(self, seed: int) -> None:
        from repro.circuits.registry import TABLE1_ROWS

        rng = random.Random(seed)
        rows = list(TABLE1_ROWS)
        rng.shuffle(rows)
        self.circuits = []
        for row in rows:
            network = row.build(full=False)
            assignments = [
                {name: rng.getrandbits(1) for name in network.inputs}
                for _ in range(CHECK_ASSIGNMENTS)
            ]
            self.circuits.append((row.name, blif_input(network), assignments))

    def discard(self) -> None:
        self.circuits = []

    def finish(self, tracer, checks) -> None:
        pass

    def close(self) -> None:
        pass

    # -- one circuit on one backend ---------------------------------------

    def _pipeline(self, name, text, assignments, backend, tracer, checks, stats) -> float:
        """Run one operation; returns its timed seconds (checks excluded)."""
        import repro
        from repro import io as rio
        from repro.network.blif import parse_blif
        from repro.network.build import build

        kwargs = {"spill_dir": self.out} if backend == "xmem" else {}
        with tracer.span("table1.op", circuit=name, backend=backend):
            timed = 0.0
            with tracer.span("network.parse") as s:
                network = parse_blif(text)
            timed += s.seconds
            with tracer.span(BUILD_SPAN[backend]) as s:
                manager, functions = build(network, backend=backend, **kwargs)
            timed += s.seconds
            handles = list(functions.values())
            with tracer.span("check"):
                if backend == "bbdd":
                    pre = manager.node_count(handles)
                    checks.check(
                        pre == CANONICAL_BBDD_NODES[name],
                        f"{name}: pre-sift BBDD nodes {pre} != {CANONICAL_BBDD_NODES[name]}",
                    )
                    stats["initial_nodes"] = stats.get("initial_nodes", 0) + pre
            if backend in SIFT_SPAN:
                with tracer.span(SIFT_SPAN[backend]) as s:
                    result = manager.sift()
                timed += s.seconds
                stats[f"{backend}.swaps"] = stats.get(f"{backend}.swaps", 0) + result.swaps
                stats[f"{backend}.sift_s"] = stats.get(f"{backend}.sift_s", 0.0) + s.seconds
            buffer = io.BytesIO()
            with tracer.span("io.dump") as s:
                manager.dump(functions, buffer, compress=True)
            timed += s.seconds
            data = buffer.getvalue()
            with tracer.span("io.load") as s:
                if backend == "bbdd":
                    _loaded_manager, loaded = rio.load(io.BytesIO(data))
                elif backend == "bdd":
                    _loaded_manager, loaded = rio.load_bdd(io.BytesIO(data))
                else:
                    target = repro.open("xmem", vars=list(network.inputs), **kwargs)
                    loaded = target.load(io.BytesIO(data))
            timed += s.seconds
            with tracer.span("check"):
                nodes = manager.node_count(handles)
                if backend != "xmem":
                    # xmem keeps separately built outputs unshared, so
                    # only its per-output counts compare.
                    loaded_nodes = _loaded_count(loaded)
                    checks.check(
                        nodes == loaded_nodes,
                        f"{name}/{backend}: loaded {loaded_nodes} nodes != {nodes}",
                    )
                for out_name, f in functions.items():
                    g = loaded.get(out_name)
                    checks.check(
                        g is not None
                        and f.node_count() == g.node_count()
                        and f.evaluate_batch(assignments) == g.evaluate_batch(assignments),
                        f"{name}/{backend}/{out_name}: loaded function differs",
                    )
                stats[f"{backend}.nodes"] = stats.get(f"{backend}.nodes", 0) + nodes
                stats[f"{backend}.bytes"] = stats.get(f"{backend}.bytes", 0) + len(data)
                counts = stats.setdefault(f"{backend}.counters", {})
                add_counts(counts, manager_counters(manager))
        return timed

    def one_pass(self, tracer, checks) -> dict:
        """Every circuit on every backend; op times at reference speed."""
        stats: Dict = {"per_op": {}}
        speed = Speedometer(tracer)
        with tracer.span("table1.pass") as whole:
            before = speed.sample()
            for name, text, assignments in self.circuits:
                for backend in BACKENDS:
                    seconds = self._pipeline(
                        name, text, assignments, backend, tracer, checks, stats
                    )
                    after = speed.sample()
                    seconds *= speed.scale(before, after)
                    before = after
                    stats["per_op"][(name, backend)] = seconds
        stats["wall_s"] = whole.seconds
        stats["timed_s"] = sum(stats["per_op"].values())
        return stats

    # -- metrics ------------------------------------------------------------

    def _warm_up(self, tracer) -> None:
        """One untimed, unchecked run of the smallest circuit per backend."""
        name, text, assignments = min(self.circuits, key=lambda c: len(c[1]))
        for backend in BACKENDS:
            self._pipeline(name, text, assignments, backend, tracer, Checks(), {})

    def measure(self, seconds: float, tracer, checks) -> Dict[str, float]:
        self._warm_up(tracer)
        started = perf_counter()
        passes: List[dict] = []
        while pass_budget(started, seconds, [p["wall_s"] for p in passes]):
            passes.append(self.one_pass(tracer, checks))
        op_s = per_key_medians(passes, "per_op")
        per_backend = {
            backend: sum(t for (_name, b), t in op_s.items() if b == backend)
            for backend in BACKENDS
        }
        metrics = {
            "bbdd_s": per_backend["bbdd"],
            "bdd_s": per_backend["bdd"],
            "xmem_s": per_backend["xmem"],
            "bbdd_nodes": passes[0]["bbdd.nodes"],
        }
        metrics.update(op_latency_metrics(op_s.values()))
        for p in passes[1:]:
            checks.check(
                p["bbdd.nodes"] == passes[0]["bbdd.nodes"],
                "sifted BBDD node total differs between passes",
            )
        return metrics

    def layer_metrics(self, stats: dict, tracer) -> Dict[str, float]:
        layers = tracer.layer_seconds()
        core = stats.get("bbdd.counters", {})
        xmem = stats.get("xmem.counters", {})
        bbdd_sift = stats.get("bbdd.sift_s", 0.0)
        bdd_sift = stats.get("bdd.sift_s", 0.0)
        nodes = sum(stats.get(f"{b}.nodes", 0) for b in BACKENDS)
        out = {
            **core_metrics(core),
            "reorder.swaps": stats.get("bbdd.swaps", 0),
            "reorder.swaps_per_s": ratio(stats.get("bbdd.swaps", 0), bbdd_sift),
            "reorder.size_reduction": ratio(
                stats.get("bbdd.nodes", 0), stats.get("initial_nodes", 0)
            ),
            "bdd.swaps_per_s": ratio(stats.get("bdd.swaps", 0), bdd_sift),
            "xmem.spill_bytes": xmem.get("repro_xmem_spill_bytes_total", 0),
            "xmem.level_loads": xmem.get("repro_xmem_level_loads_total", 0),
            "io.bytes_per_node": ratio(
                sum(stats.get(f"{b}.bytes", 0) for b in BACKENDS), nodes
            ),
            "harness.table1_time_ratio": ratio(
                _build_sift(layers, "core.build", "reorder.sift"),
                _build_sift(layers, "bdd.build", "bdd.sift"),
            ),
        }
        return out

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


def _build_sift(layers: dict, build: str, sift: str) -> float:
    return layers.get(build, 0.0) + layers.get(sift, 0.0)


def _loaded_count(functions: dict) -> int:
    handles = list(functions.values())
    if not handles:
        return 0
    return handles[0].manager.node_count(handles)
