"""Algorithm 1 correctness: all 16 operators vs. the truth-table oracle,
canonicity of the result, and sat-count with level skipping (checked
against the truth-table popcount on every backend)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import BBDDManager
from repro.core.operations import ALL_OPS, op_name
from repro.core.reorder import from_truth_table
from repro.core.truthtable import TruthTable
from repro.par import ShmForest, shm_available


@pytest.mark.parametrize("op", ALL_OPS)
def test_all_ops_exhaustive_n3(op):
    n = 3
    for ma in range(0, 256, 37):
        for mb in range(0, 256, 41):
            m = BBDDManager(n)
            fa = m.function(from_truth_table(m, ma))
            fb = m.function(from_truth_table(m, mb))
            fc = fa.apply(fb, op)
            tt = TruthTable(n, ma).apply(TruthTable(n, mb), op)
            assert fc.truth_mask(range(n)) == tt.mask, op_name(op)


@given(
    st.integers(min_value=2, max_value=6),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_random_ops_match_truth_tables(n, data):
    full = (1 << (1 << n)) - 1
    ma = data.draw(st.integers(min_value=0, max_value=full))
    mb = data.draw(st.integers(min_value=0, max_value=full))
    op = data.draw(st.sampled_from(ALL_OPS))
    m = BBDDManager(n)
    fa = m.function(from_truth_table(m, ma))
    fb = m.function(from_truth_table(m, mb))
    fc = fa.apply(fb, op)
    tt = TruthTable(n, ma).apply(TruthTable(n, mb), op)
    assert fc.truth_mask(range(n)) == tt.mask
    # Canonicity: the truth-table build of the result is the same edge.
    rebuilt = m.function(from_truth_table(m, tt.mask))
    assert fc == rebuilt
    m.check_invariants()


def _from_mask(manager, n, mask):
    """Shannon-expand a truth table (bit ``i``: variable ``j`` = bit ``j``)."""
    level = [manager.true() if mask >> i & 1 else manager.false() for i in range(1 << n)]
    for var in range(n):
        x = manager.var(var)
        level = [x.ite(level[k + 1], level[k]) for k in range(0, len(level), 2)]
    return level[0]


@given(st.integers(min_value=1, max_value=7), st.data())
@settings(max_examples=60, deadline=None)
def test_sat_count_matches_popcount(n, data):
    """The truth-table popcount, independent of the shared count kernel,
    on every backend and on a frozen forest."""
    full = (1 << (1 << n)) - 1
    mask = data.draw(st.integers(min_value=0, max_value=full))
    want = TruthTable(n, mask).sat_count()
    m = BBDDManager(n)
    f = m.function(from_truth_table(m, mask))
    assert f.sat_count() == want
    for backend in ("bdd", "xmem"):
        g = _from_mask(repro.open(backend, vars=n), n, mask)
        assert g.sat_count() == want, backend
    if shm_available():
        with ShmForest.freeze(m, {"f": f, "g": ~f}) as forest:
            assert forest.sat_count("f") == want
            assert forest.sat_count("g") == (1 << n) - want


def test_canonicity_different_expression_trees():
    m = BBDDManager(4)
    a, b, c, d = m.variables()
    f1 = (a & b) | (c & d)
    f2 = (d & c) | (b & a)
    f3 = ~(~(a & b) & ~(c & d))
    assert f1 == f2 == f3


def test_equivalence_is_pointer_comparison():
    m = BBDDManager(5)
    vs = m.variables()
    parity1 = vs[0]
    for v in vs[1:]:
        parity1 = parity1 ^ v
    parity2 = vs[4] ^ vs[3] ^ vs[2] ^ vs[1] ^ vs[0]
    assert parity1.node is parity2.node
    assert parity1.attr == parity2.attr


def test_xor_rich_compactness():
    """BBDDs should beat BDDs clearly on parity (the paper's motivation)."""
    from repro.bdd import BDDManager

    n = 12
    m = BBDDManager(n)
    vs = m.variables()
    p = vs[0]
    for v in vs[1:]:
        p = p ^ v
    mb = BDDManager(n)
    vsb = mb.variables()
    pb = vsb[0]
    for v in vsb[1:]:
        pb = pb ^ v
    assert p.node_count() < pb.node_count()


def test_sat_one_returns_satisfying_assignment():
    random.seed(5)
    for _ in range(20):
        n = random.randint(2, 6)
        mask = random.getrandbits(1 << n)
        m = BBDDManager(n)
        f = m.function(from_truth_table(m, mask))
        witness = f.sat_one()
        if mask == 0:
            assert witness is None
        else:
            assert witness is not None
            assert f.evaluate(witness)
