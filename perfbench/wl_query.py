"""Workload ``query``: reachability fixpoints and exact weighted counting.

Closed loop, in process, no sifting.  Reachability runs
``reachable(from_network(m))`` on three sequential models on ``bbdd``
and ``bdd``; its image steps create and free nodes under garbage
collection and computed-table churn.  Exact ``p_one`` runs on every
output of each fast-profile Table I circuit with at most 20 inputs,
plus ``marginals`` on that circuit's largest output, on ``bbdd``,
``bdd`` and ``xmem``.  One operation is one public call.  The seed
draws the exact (Fraction) weights and the order of the calls.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List

from common import (
    Checks,
    add_counts,
    core_metrics,
    manager_counters,
    op_latency_metrics,
    pass_budget,
    per_key_medians,
    perf_counter,
    ratio,
    self_peak_rss_mb,
    snapshot_totals,
    Speedometer,
)

REACH_BACKENDS = ("bbdd", "bdd")
WMC_BACKENDS = ("bbdd", "bdd", "xmem")
MAX_WMC_INPUTS = 20
#: Weights are k / WEIGHT_DENOMINATOR with 0 < k < WEIGHT_DENOMINATOR.
WEIGHT_DENOMINATOR = 256


def _models():
    from repro.reach import models

    return [
        ("ca18", models.cellular_automaton(18, seed=1)),
        ("counter10", models.counter(10)),
        ("lfsr14", models.lfsr(14)),
    ]


class Query:
    name = "query"

    def __init__(self, out: str) -> None:
        self.out = out
        self._reference = None

    def setup(self, seed: int) -> None:
        from repro.circuits.registry import TABLE1_ROWS
        from repro.network.build import build
        from repro.reach.oracle import explicit_reachable

        rng = random.Random(seed)
        self.models = [
            (name, network, explicit_reachable(network)) for name, network in _models()
        ]
        self.circuits = []
        for row in TABLE1_ROWS:
            network = row.build(full=False)
            if network.num_inputs > MAX_WMC_INPUTS:
                continue
            weights = {
                name: Fraction(rng.randrange(1, WEIGHT_DENOMINATOR), WEIGHT_DENOMINATOR)
                for name in network.inputs
            }
            forests = {}
            for backend in WMC_BACKENDS:
                kwargs = {"spill_dir": self.out} if backend == "xmem" else {}
                _manager, functions = build(network, backend=backend, **kwargs)
                forests[backend] = functions
            largest = max(
                sorted(forests["bbdd"]), key=lambda out: forests["bbdd"][out].node_count()
            )
            self.circuits.append((row.name, weights, forests, largest))
        self.ops = [("reach", name, backend) for name, _n, _o in self.models
                    for backend in REACH_BACKENDS]
        self.ops += [("wmc", index, backend) for index in range(len(self.circuits))
                     for backend in WMC_BACKENDS]
        rng.shuffle(self.ops)
        self._reference = None
        self._unverified = []

    def discard(self) -> None:
        self.models = self.circuits = self.ops = []

    def close(self) -> None:
        pass

    def finish(self, tracer, checks) -> None:
        """Compare the first pass's reached state sets with explicit BFS."""
        with tracer.span("check"):
            for name, backend, system, result, oracle in self._unverified:
                checks.check(
                    system.state_codes(result.states) == oracle,
                    f"reach {name}/{backend}: state set differs from explicit BFS",
                )
        self._unverified = []

    # -- operations ---------------------------------------------------------

    def _reach(self, model, backend, tracer, checks, stats, first) -> tuple:
        from repro.reach.fixpoint import reachable
        from repro.reach.transition import from_network

        name, network, oracle = next(m for m in self.models if m[0] == model)
        with tracer.span("reach.op", model=name, backend=backend):
            with tracer.span("reach.transition", model=name, backend=backend) as s1:
                system = from_network(network, backend=backend)
            with tracer.span("reach.fixpoint", model=name, backend=backend) as s2:
                result = reachable(system)
            seconds = s1.seconds + s2.seconds
            with tracer.span("check"):
                checks.check(
                    result.state_count == len(oracle),
                    f"reach {name}/{backend}: {result.state_count} states != {len(oracle)}",
                )
        if first:
            # Decoding every state is slow; it runs after the timed
            # passes (see ``finish``) so it does not crowd them out.
            self._unverified.append((name, backend, system, result, oracle))
        stats["reach.fixpoint_s"] = stats.get("reach.fixpoint_s", 0.0) + s2.seconds
        stats[f"reach.{name}_s"] = stats.get(f"reach.{name}_s", 0.0) + s2.seconds
        stats["reach.iterations"] = stats.get("reach.iterations", 0) + result.iterations
        stats["reach.frontier_peak"] = max(stats.get("reach.frontier_peak", 0), result.frontier_peak)
        stats["reach.visited_peak"] = max(stats.get("reach.visited_peak", 0), result.visited_peak)
        if backend == "bbdd":
            stats["bbdd_nodes"] = stats.get("bbdd_nodes", 0) + result.states.node_count()
            # Apply, computed/unique-table and GC counters of the one
            # manager that built this relation and ran its fixpoint.
            counts = stats.setdefault("bbdd.counters", {})
            add_counts(counts, manager_counters(system.manager))
        key = ("reach", name, backend)
        return key, seconds, {key: seconds}

    def _wmc(self, index, backend, tracer, checks, stats, answers) -> tuple:
        name, weights, forests, largest = self.circuits[index]
        functions = forests[backend]
        values = {}
        seconds = 0.0
        calls = {}
        with tracer.span("wmc.op", circuit=name, backend=backend):
            for out in sorted(functions):
                with tracer.span("wmc.p_one", backend=backend) as s:
                    values[out] = functions[out].p_one(weights)
                seconds += s.seconds
                calls[("p_one", name, backend, out)] = s.seconds
                stats[f"wmc.p_one_s.{backend}"] = stats.get(f"wmc.p_one_s.{backend}", 0.0) + s.seconds
                if out == largest:
                    stats["largest_p_one_s"] = stats.get("largest_p_one_s", 0.0) + s.seconds
            with tracer.span("wmc.marginals", backend=backend) as s:
                marginal = functions[largest].marginals(weights)
            seconds += s.seconds
            calls[("marginals", name, backend, largest)] = s.seconds
            stats["wmc.marginals_s"] = stats.get("wmc.marginals_s", 0.0) + s.seconds
            with tracer.span("check"):
                for backend_seen, (seen_values, seen_marginal) in answers.get(index, {}).items():
                    checks.check(
                        seen_values == values and seen_marginal == marginal,
                        f"wmc {name}: {backend} disagrees with {backend_seen}",
                    )
                answers.setdefault(index, {})[backend] = (values, marginal)
        if backend == "bbdd":
            stats["bbdd_nodes"] = stats.get("bbdd_nodes", 0) + sum(
                f.node_count() for f in functions.values()
            )
        return ("wmc", name, backend), seconds, calls

    def one_pass(self, tracer, checks) -> dict:
        from repro import obs

        stats: Dict = {"per_op": {}, "per_call": {}}
        answers: Dict = {}
        first = self._reference is None
        counters = snapshot_totals(obs.REGISTRY.snapshot())
        speed = Speedometer(tracer)
        with tracer.span("query.pass") as whole:
            before = speed.sample()
            for kind, key, backend in self.ops:
                if kind == "reach":
                    op, seconds, calls = self._reach(key, backend, tracer, checks, stats, first)
                else:
                    op, seconds, calls = self._wmc(key, backend, tracer, checks, stats, answers)
                # Scale the operation, and each call in it, to reference speed.
                after = speed.sample()
                factor = speed.scale(before, after)
                before = after
                stats["per_op"][op] = seconds * factor
                for call, call_s in calls.items():
                    stats["per_call"][call] = call_s * factor
        done = snapshot_totals(obs.REGISTRY.snapshot())
        for family in ("repro_wmc_sweeps_total", "repro_reach_images_total"):
            stats[family] = done.get(family, 0) - counters.get(family, 0)
        with tracer.span("check"):
            digest = {index: seen["bbdd"] for index, seen in answers.items()}
            if first:
                self._reference = digest
            else:
                checks.check(digest == self._reference, "wmc answers differ between passes")
        stats["wall_s"] = whole.seconds
        stats["timed_s"] = sum(stats["per_op"].values())
        return stats

    # -- metrics ------------------------------------------------------------

    def _warm_up(self, tracer) -> None:
        """One untimed, unchecked call of each kind on the smallest inputs."""
        model = min(self.models, key=lambda m: len(m[2]))[0]
        index = min(range(len(self.circuits)), key=lambda i: len(self.circuits[i][1]))
        for backend in REACH_BACKENDS:
            self._reach(model, backend, tracer, Checks(), {}, first=False)
        for backend in WMC_BACKENDS:
            self._wmc(index, backend, tracer, Checks(), {}, {})

    def measure(self, seconds: float, tracer, checks) -> Dict[str, float]:
        self._warm_up(tracer)
        started = perf_counter()
        passes: List[dict] = []
        while pass_budget(started, seconds, [p["wall_s"] for p in passes]):
            passes.append(self.one_pass(tracer, checks))
        per_backend: Dict[str, float] = {}
        for (_kind, _name, backend), op_s in per_key_medians(passes, "per_op").items():
            per_backend[backend] = per_backend.get(backend, 0.0) + op_s
        metrics = {
            "bbdd_s": per_backend["bbdd"],
            "bdd_s": per_backend["bdd"],
            "xmem_s": per_backend["xmem"],
            "bbdd_nodes": passes[0]["bbdd_nodes"],
        }
        metrics.update(op_latency_metrics(per_key_medians(passes, "per_call").values()))
        return metrics

    def layer_metrics(self, stats: dict, tracer) -> Dict[str, float]:
        p_one_s = sum(
            stats.get(f"wmc.p_one_s.{backend}", 0.0) for backend in WMC_BACKENDS
        )
        iterations = stats.get("reach.iterations", 0)
        core = stats.get("bbdd.counters", {})
        out = {
            **core_metrics(core),
            "xmem.p_one_s": stats.get("wmc.p_one_s.xmem", 0.0),
            "wmc.sweeps": stats.get("repro_wmc_sweeps_total", 0),
            "wmc.marginals_per_p_one": ratio(
                stats.get("wmc.marginals_s", 0.0), stats.get("largest_p_one_s", 0.0)
            ),
            "wmc.p_one_s": p_one_s,
            "reach.iterations": iterations,
            "reach.images": stats.get("repro_reach_images_total", 0),
            "reach.image_s_per_iter": ratio(stats.get("reach.fixpoint_s", 0.0), iterations),
            "reach.frontier_nodes_peak": stats.get("reach.frontier_peak", 0),
            "reach.visited_nodes_peak": stats.get("reach.visited_peak", 0),
        }
        for name, _network, _oracle in self.models:
            out[f"reach.fixpoint_s.{name}"] = stats.get(f"reach.{name}_s", 0.0)
        return out

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()
