"""Weighted model counting: differential oracles over every backend.

Three ground truths anchor :mod:`repro.wmc`:

* the **counting identity** — uniform ``1/2`` weights on the support
  reduce the weighted count to ``sat_count / 2^|support|``;
* **brute-force enumeration** — exact-Fraction ``p_one`` must match a
  term-by-term sum over all assignments, bit for bit;
* the **restrict oracle** — each posterior marginal must satisfy
  ``p(v=1 | f=1) = p_v * p_one(f|v=1) / p_one(f)``.

Every property runs on the full backend matrix (bbdd/bdd/xmem).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.api.base import ForeignManagerError
from repro.wmc import WmcError, p_one, resolve_weights, shannon_count, total_mass

from test_api_protocol import ALL_BACKENDS

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

def variant_managers(names):
    """Yield ``(backend, manager)`` across the backend matrix."""
    for backend in ("bbdd", "bdd", "xmem"):
        yield backend, repro.open(backend, vars=names)


@st.composite
def weighted_expr(draw, max_vars=6, max_depth=4):
    """A random expression plus random per-variable Fraction weights."""
    n = draw(st.integers(min_value=2, max_value=max_vars))
    names = [f"v{i}" for i in range(n)]

    def expr(depth):
        if depth >= max_depth or draw(st.booleans()):
            leaf = draw(st.integers(min_value=0, max_value=5))
            if leaf == 0:
                return "TRUE"
            if leaf == 1:
                return "FALSE"
            return draw(st.sampled_from(names))
        op = draw(st.sampled_from(["&", "|", "^", "->", "<->", "~"]))
        if op == "~":
            return f"~({expr(depth + 1)})"
        return f"({expr(depth + 1)} {op} {expr(depth + 1)})"

    weights = {
        name: Fraction(draw(st.integers(min_value=0, max_value=8)), 8)
        for name in names
        if draw(st.booleans())
    }
    return names, expr(0), weights


def brute_force_p_one(names, f, weights):
    """Exact ``p(f = 1)`` by summing the weight of every assignment."""
    probability = {
        name: weights.get(name, Fraction(1, 2)) for name in names
    }
    totals = Fraction(0)
    for code in range(1 << len(names)):
        assignment = {
            name: bool(code >> i & 1) for i, name in enumerate(names)
        }
        if f.evaluate(assignment):
            term = Fraction(1)
            for name in names:
                p = probability[name]
                term *= p if assignment[name] else 1 - p
            totals += term
    return totals


# ----------------------------------------------------------------------
# the counting identity
# ----------------------------------------------------------------------


@given(weighted_expr())
@settings(**_SETTINGS)
def test_uniform_weights_reduce_to_sat_count(case):
    """Uniform 1/2 weights on the support = ``sat_count / 2^|support|``."""
    names, text, _weights = case
    for label, manager in variant_managers(names):
        f = manager.add_expr(text)
        support = sorted(f.support())
        uniform = {name: Fraction(1, 2) for name in support}
        # sat_count ranges over all manager variables; each satisfying
        # assignment weighs 1/2^|support| (non-support weights are 1).
        expected = Fraction(f.sat_count(), 1 << len(support))
        got = f.weighted_count(uniform)
        assert got == expected, (label, text)
        # And with no weights at all the count is exactly sat_count.
        assert f.weighted_count() == f.sat_count(), (label, text)


# ----------------------------------------------------------------------
# brute-force enumeration
# ----------------------------------------------------------------------


@given(weighted_expr())
@settings(**_SETTINGS)
def test_p_one_exact_matches_enumeration(case):
    """Exact-Fraction ``p_one`` is bit-identical to full enumeration."""
    names, text, weights = case
    oracle = None
    for label, manager in variant_managers(names):
        f = manager.add_expr(text)
        if oracle is None:
            oracle = brute_force_p_one(names, f, weights)
        got = f.p_one(weights)
        assert isinstance(got, Fraction) or got in (0, 1)
        assert got == oracle, (label, text, weights)
        # Float mode tracks the exact value to rounding error.
        assert f.p_one(weights, exact=False) == pytest.approx(float(oracle))


def test_p_one_enumeration_larger_random_expressions():
    """Randomized ≤14-variable expressions against full enumeration."""
    rng = random.Random(20140807)
    names = [f"v{i}" for i in range(14)]
    for _trial in range(3):
        terms = []
        for _ in range(6):
            picked = rng.sample(names, rng.randint(2, 4))
            literals = [
                name if rng.random() < 0.5 else f"~{name}" for name in picked
            ]
            terms.append("(" + " & ".join(literals) + ")")
        text = " | ".join(terms)
        weights = {
            name: Fraction(rng.randint(0, 16), 16)
            for name in rng.sample(names, 7)
        }
        oracle = None
        for label, manager in variant_managers(names):
            f = manager.add_expr(text)
            if oracle is None:
                oracle = brute_force_p_one(names, f, weights)
            assert f.p_one(weights) == oracle, (label, text)


# ----------------------------------------------------------------------
# the restrict oracle for marginals
# ----------------------------------------------------------------------


@given(weighted_expr())
@settings(**_SETTINGS)
def test_marginals_match_restrict_oracle(case):
    """``p(v=1|f=1) = p_v * p_one(f|v=1) / p_one(f)`` per support var."""
    names, text, weights = case
    for label, manager in variant_managers(names):
        f = manager.add_expr(text)
        denominator = f.p_one(weights)
        if not denominator:
            with pytest.raises(WmcError, match="undefined"):
                f.marginals(weights)
            continue
        got = f.marginals(weights)
        assert sorted(got) == sorted(f.support())
        for name in got:
            p_v = weights.get(name, Fraction(1, 2))
            expected = p_v * p_one(f.restrict(name, True), weights) / denominator
            assert got[name] == expected, (label, text, name)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("circuit", ["C17", "misex1", "z4ml", "decod"])
def test_marginals_match_restrict_oracle_on_circuits(backend, circuit):
    """The restrict oracle on every output and input of small circuits.

    Non-support inputs are asked for too: their posterior is the prior.
    """
    from repro.circuits.registry import TABLE1_ROWS
    from repro.network.build import build

    row = next(row for row in TABLE1_ROWS if row.name == circuit)
    network = row.build(full=False)
    _manager, functions = build(network, backend=backend)
    rng = random.Random(circuit)
    weights = {
        name: Fraction(rng.randrange(1, 64), 64) for name in network.inputs
    }
    for out, f in sorted(functions.items()):
        denominator = f.p_one(weights)
        got = f.marginals(weights, network.inputs)
        for name in network.inputs:
            cofactor = p_one(f.restrict(name, True), weights)
            assert got[name] == weights[name] * cofactor / denominator, (out, name)


def test_marginals_across_skipped_positions():
    """Variables skipped above, between and below the diagram's nodes."""
    names = ["a", "b", "c", "d", "e", "g"]
    weights = {name: Fraction(k, 13) for k, name in enumerate(names, start=2)}
    for label, manager in variant_managers(names):
        for text in ("(b ^ c) | e", "(b ^ c) & ~e", "c ^ g", "(b & e) | (c ^ g)"):
            f = manager.add_expr(text)
            got = f.marginals(weights, names)
            denominator = f.p_one(weights)
            for name in names:
                cofactor = p_one(f.restrict(name, True), weights)
                assert got[name] == weights[name] * cofactor / denominator, (
                    label, text, name,
                )


# ----------------------------------------------------------------------
# surface, fallback and error behavior
# ----------------------------------------------------------------------


def test_manager_and_function_spellings_agree():
    manager = repro.open("bbdd", vars=["a", "b", "c"])
    f = manager.add_expr("(a & b) | c")
    weights = {"a": Fraction(1, 4)}
    assert manager.p_one(f, weights) == f.p_one(weights)
    assert manager.weighted_count(f) == f.weighted_count()
    assert manager.marginals(f, weights) == f.marginals(weights)


def test_constants_and_sparse_support():
    for label, manager in variant_managers(["a", "b", "c", "d"]):
        assert manager.true().p_one() == 1, label
        assert manager.false().p_one() == 0, label
        assert manager.true().weighted_count() == 16, label
        # A function touching one of four variables: the others cancel.
        f = manager.var("c")
        assert f.p_one({"c": Fraction(1, 8)}) == Fraction(1, 8), label
        assert f.marginals() == {"c": Fraction(1)}, label


def test_shannon_count_fallback_matches_sweep():
    """The protocol-pure recursion equals the levelized sweep."""
    names = [f"v{i}" for i in range(5)]
    manager = repro.open("bbdd", vars=names)
    f = manager.add_expr("(v0 ^ v1) | (v2 & v3 & ~v4)")
    weights = {"v0": Fraction(1, 3), "v3": Fraction(5, 7)}
    w1, w0, one, zero = resolve_weights(manager, weights, probabilities=True)
    direct = shannon_count(manager, f.edge, w1, w0, one, zero)
    assert direct == f.p_one(weights)
    assert total_mass(w1, w0, one) == 1


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_marginals_fallback_without_level_stream(backend):
    """Without ``batch_stream``, pinned re-counts give the same answer."""
    from repro import obs
    from repro.obs.catalog import family

    names = [f"v{i}" for i in range(5)]
    manager = repro.open(backend, vars=names)
    f = manager.add_expr("(v0 ^ v1) | (v2 & v3 & ~v4)")
    weights = {"v0": Fraction(1, 3), "v3": Fraction(5, 7)}
    want = f.marginals(weights)
    manager.batch_stream = lambda edge: None
    sweeps = family(obs.REGISTRY, "repro_wmc_sweeps_total")
    before = sweeps.value
    assert f.marginals(weights) == want
    assert sweeps.value - before == 1 + len(names)


def test_weight_validation_errors():
    manager = repro.open("bbdd", vars=["a", "b"])
    f = manager.var("a")
    with pytest.raises(WmcError, match=r"\[0, 1\]"):
        f.p_one({"a": 2})
    with pytest.raises(WmcError, match=r"\[0, 1\]"):
        f.p_one({"a": Fraction(-1, 2)})
    other = repro.open("bbdd", vars=["a", "b"])
    with pytest.raises(ForeignManagerError):
        manager.p_one(other.var("a"))


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_wmc_counts_sweeps(backend):
    """Every query bumps the ``repro_wmc_sweeps_total`` counter."""
    from repro import obs
    from repro.obs.catalog import family

    manager = repro.open(backend, vars=["a", "b"])
    f = manager.add_expr("a | b")
    before = family(obs.REGISTRY, "repro_wmc_sweeps_total").value
    f.p_one()
    f.marginals()
    after = family(obs.REGISTRY, "repro_wmc_sweeps_total").value
    # p_one is one sweep; marginals is one forward and one backward
    # pass, however many variables the support has.
    assert after - before == 1 + 2
