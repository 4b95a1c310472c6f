"""Weighted-counting gates: exact ``p_one`` versus the truth-table oracle.

For every Table I circuit whose fast profile has at most 20 inputs, the
exhaustive bit-parallel simulator (:func:`repro.network.simulate.
output_truth_masks`) computes the representative output's full truth
table, and a memoized Shannon fold over that word with pseudo-random
``k/16`` weights gives the ground-truth ``P[f = 1]`` as an exact
Fraction.  The acceptance gate: ``f.p_one(weights)`` must equal that
oracle **bit for bit** on every circuit across all three backends
(bbdd/bdd/xmem) — the levelized sweep is an optimization of the
semantics, never an approximation.

A second gate times all posterior marginals of the largest output
against one ``p_one`` of it: they must cost at most 3x (one forward
and one backward pass, see :func:`repro.wmc.sweep.joint_sweep`).

The sweep-vs-enumeration timing of the largest circuit and the
marginals ratio land in ``benchmarks/out/BENCH_wmc.json`` so the
asymptotic win (O(nodes) per query versus O(2^n) enumeration) stays
visible run over run.
"""

import random
import time
from fractions import Fraction

import repro
from repro.circuits.registry import TABLE1_ROWS
from repro.network.build import build
from repro.network.simulate import output_truth_masks
from _metrics import measure, record_metric

INPUT_LIMIT = 20
BACKENDS = ("bbdd", "bdd", "xmem")
WEIGHT_SEED = 0x20140807
#: The marginals gate: one forward and one backward pass must cost at
#: most this many ``p_one`` sweeps of the same output.
MAX_MARGINALS_PER_P_ONE = 3.0
MARGINALS_ROUNDS = 11


def _oracle_fold(word, names, probs):
    """Exact ``P[f = 1]`` by memoized Shannon folding of a truth word.

    ``word`` is the exhaustive truth table over ``names`` (input ``j``
    is bit ``j`` of the pattern index).  The fold splits on the highest
    variable; full and empty subwords terminate immediately because
    probability mass over a subcube always sums to one.
    """
    memo = {}

    def fold(w, k):
        if w == 0:
            return Fraction(0)
        full = (1 << (1 << k)) - 1
        if w == full:
            return Fraction(1)
        key = (k, w)
        hit = memo.get(key)
        if hit is not None:
            return hit
        half = 1 << (k - 1)
        p = probs[names[k - 1]]
        value = (1 - p) * fold(w & ((1 << half) - 1), k - 1) + p * fold(
            w >> half, k - 1
        )
        memo[key] = value
        return value

    return fold(word, len(names))


def _eligible_circuits():
    """Fast-profile Table I circuits with at most ``INPUT_LIMIT`` inputs."""
    for row in TABLE1_ROWS:
        network = row.build(full=False)
        if network.num_inputs <= INPUT_LIMIT:
            yield row.name, network


def test_p_one_bit_exact_on_table1_circuits(capsys):
    """Gate: exact-Fraction ``p_one`` == truth-table oracle, everywhere."""
    checked = 0
    slowest = (0.0, None)
    enumeration_s = {}
    sweep_s = {}
    for name, network in _eligible_circuits():
        rng = random.Random(WEIGHT_SEED ^ hash(name))
        weights = {
            signal: Fraction(rng.randint(0, 16), 16)
            for signal in network.inputs
        }
        t0 = time.perf_counter()
        truth = output_truth_masks(network)
        # The representative output: the one touching the most of the
        # circuit (densest truth word ties break deterministically).
        output = max(
            truth, key=lambda out: (bin(truth[out]).count("1"), out)
        )
        oracle = _oracle_fold(truth[output], network.inputs, weights)
        t_oracle = time.perf_counter() - t0
        enumeration_s[name] = t_oracle

        for backend in BACKENDS:
            manager, functions = build(network, backend=backend)
            f = functions[output]
            t0 = time.perf_counter()
            got = f.p_one(weights)
            t_sweep = time.perf_counter() - t0
            sweep_s.setdefault(name, {})[backend] = t_sweep
            # -- the acceptance gate ----------------------------------
            assert got == oracle, (
                f"{name}/{output} on {backend}: p_one {got} != oracle "
                f"{oracle} ({network.num_inputs} inputs)"
            )
        checked += 1
        if t_oracle > slowest[0]:
            slowest = (t_oracle, name)

    assert checked >= 8, f"only {checked} circuits under {INPUT_LIMIT} inputs"
    big = slowest[1]
    with capsys.disabled():
        print(
            f"\nwmc: {checked} circuits bit-exact across {len(BACKENDS)} "
            f"backends; largest ({big}) oracle {enumeration_s[big]:.3f}s vs "
            f"sweep {max(sweep_s[big].values()):.4f}s"
        )
    record_metric("wmc", "circuits_bit_exact", checked, "count")
    record_metric("wmc", "oracle_enumeration_s", enumeration_s[big], "s")
    for backend, t_sweep in sweep_s[big].items():
        record_metric("wmc", f"p_one_sweep_{backend}_s", t_sweep, "s")


def _timed(fn, *args):
    """A zero-argument pass of ``fn(*args)`` returning its seconds."""

    def run():
        t0 = time.perf_counter()
        fn(*args)
        return time.perf_counter() - t0

    return run


def test_marginals_throughput_on_largest_circuit(capsys, once):
    """Gate: all posterior marginals cost at most 3x one ``p_one``.

    Both run on the largest output of the densest eligible circuit,
    alternated by :func:`_metrics.measure`; the gate is the median
    per-round ratio.
    """
    name, network = max(
        _eligible_circuits(), key=lambda item: item[1].num_inputs
    )
    manager, functions = build(network, backend="bbdd")
    f = max(functions.values(), key=lambda g: g.node_count())
    rng = random.Random(WEIGHT_SEED)
    weights = {
        signal: Fraction(rng.randint(1, 15), 16) for signal in network.inputs
    }

    posterior = once(f.marginals, weights)
    support = sorted(f.support())
    assert sorted(posterior) == support
    assert all(0 <= p <= 1 for p in posterior.values())
    p_one_s, marginals_s, ratio = measure(
        _timed(f.p_one, weights), _timed(f.marginals, weights), MARGINALS_ROUNDS
    )
    with capsys.disabled():
        print(
            f"wmc: {name} marginals over {len(support)} vars "
            f"({f.node_count()} nodes) in {marginals_s:.4f}s, "
            f"{ratio:.2f}x p_one ({p_one_s:.4f}s)"
        )
    record_metric("wmc", "marginals_vars", len(support), "count")
    record_metric("wmc", "marginals_s", marginals_s, "s")
    record_metric("wmc", "marginals_per_p_one", ratio, "x")
    assert ratio <= MAX_MARGINALS_PER_P_ONE, (
        f"marginals took {ratio:.2f}x one p_one "
        f"(gate {MAX_MARGINALS_PER_P_ONE}x)"
    )
