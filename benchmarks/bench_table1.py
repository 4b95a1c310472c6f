"""Table I reproduction bench: BBDD package vs. baseline BDD package.

One benchmark per MCNC row and package (build + sift pipeline), plus a
summary benchmark that prints the full Table I layout with the paper
reference averages.  Default profile scales the heaviest generators down
for pure-Python tractability; ``REPRO_FULL=1`` selects paper-scale
circuits (see DESIGN.md §3.5).
"""

import pytest

from _metrics import measure, record_metric
from repro.circuits.registry import TABLE1_ROWS, full_profile
from repro.harness.table1 import render_table1, run_benchmark, run_table1

_ROWS = {row.name: row for row in TABLE1_ROWS}

# Rows light enough to run per-row benches on every invocation.
_PER_ROW = [
    "C1355", "C1908", "C499", "my_adder", "comp", "count", "cordic",
    "alu4", "C17", "9symml", "z4ml", "decod", "parity", "misex1",
]


@pytest.mark.parametrize("name", _PER_ROW)
@pytest.mark.parametrize("package", ["bbdd", "bdd"])
def test_build_and_sift(benchmark, name, package):
    row = _ROWS[name]
    network = row.build(full=False)

    def pipeline():
        return run_benchmark(network, package)

    result = benchmark.pedantic(pipeline, rounds=1, iterations=1)
    benchmark.extra_info["nodes"] = result.nodes
    benchmark.extra_info["paper_nodes"] = (
        row.paper_bbdd_nodes if package == "bbdd" else row.paper_bdd_nodes
    )
    record_metric("table1", f"{package}_{name}_nodes", result.nodes, "nodes")


# Gate constants: the paper's Table I average for the default profile and
# the flat-store performance target (BBDD pipeline within 2x of the BDD
# baseline pipeline on the same circuits).
_PAPER_AVG_BBDD_NODES = 575.65
_NODE_TOLERANCE = 0.10
_MAX_TIME_RATIO = 2.0
_RATIO_ROUNDS = 5


def _pipeline(networks, package):
    """One timed pass: build + sift of every network on ``package``."""

    def run():
        total = 0.0
        for network in networks:
            result = run_benchmark(network, package)
            total += result.build_time + result.sift_time
        return total

    return run


def test_table1_summary(benchmark, capsys):
    """Full Table I pipeline; prints the paper-style table and gates.

    The time-ratio gate runs the BDD and BBDD build+sift passes over
    every row alternately through :func:`_metrics.measure` and takes
    the median per-round ratio, so load shifts on the host hit both
    packages alike.
    """
    summary = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(render_table1(summary))
    for backend in summary["backends"]:
        record_metric(
            "table1", f"avg_{backend}_nodes", summary[f"avg_{backend}_nodes"], "nodes"
        )
        record_metric(
            "table1", f"total_{backend}_time", summary[f"total_{backend}_time"], "s"
        )
    full = full_profile()
    networks = [row.build(full=full) for row in TABLE1_ROWS]
    _bdd_s, _bbdd_s, ratio = measure(
        _pipeline(networks, "bdd"), _pipeline(networks, "bbdd"), _RATIO_ROUNDS
    )
    record_metric("table1", "bbdd_bdd_time_ratio", ratio, "x")
    assert summary["rows"]
    # Structural gate: sifted BBDD sizes must track the paper's average.
    avg_nodes = summary["avg_bbdd_nodes"]
    assert (
        abs(avg_nodes - _PAPER_AVG_BBDD_NODES)
        <= _NODE_TOLERANCE * _PAPER_AVG_BBDD_NODES
    ), f"avg_bbdd_nodes {avg_nodes} strayed from {_PAPER_AVG_BBDD_NODES}"
    # Performance gate: the flat-store BBDD pipeline stays within 2x of
    # the baseline BDD package end to end.
    assert ratio <= _MAX_TIME_RATIO, (
        f"BBDD/BDD harness time ratio {ratio:.2f} exceeds {_MAX_TIME_RATIO}"
    )
