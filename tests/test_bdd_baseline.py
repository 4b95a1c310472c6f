"""Baseline BDD package tests (the CUDD substitute of Table I)."""

import random

import pytest

from repro.bdd import BDDManager
from repro.bdd.reorder import reorder_to_bdd, sift_bdd, swap_adjacent_bdd
from repro.core.operations import ALL_OPS
from repro.core.truthtable import TruthTable


def _build(manager, tt, variables):
    """Shannon-build a BDD from a truth table (test-local oracle path)."""
    if tt.mask == 0:
        return manager.false()
    if tt.mask == tt._full():
        return manager.true()

    def rec(table, j):
        if table.mask == 0:
            return manager.false()
        if table.mask == table._full():
            return manager.true()
        f1 = rec(table.restrict(j, True), j + 1)
        f0 = rec(table.restrict(j, False), j + 1)
        return variables[j].ite(f1, f0)

    return rec(tt, 0)


@pytest.mark.parametrize("op", ALL_OPS)
def test_bdd_ops_match_truth_tables(op):
    rng = random.Random(op)
    n = 4
    m = BDDManager(n)
    vs = m.variables()
    ta = TruthTable(n, rng.getrandbits(1 << n))
    tb = TruthTable(n, rng.getrandbits(1 << n))
    fa = _build(m, ta, vs)
    fb = _build(m, tb, vs)
    fc = fa.apply(fb, op)
    assert fc.truth_mask(range(n)) == ta.apply(tb, op).mask
    m.check_invariants()


def test_bdd_canonicity_and_complement_edges():
    m = BDDManager(3)
    a, b, c = m.variables()
    f1 = (a & b) | c
    f2 = ~(~(a & b) & ~c)
    assert f1 == f2
    assert ~~f1 == f1
    assert (f1 ^ f1).is_false


def test_bdd_sat_count():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(1, 6)
        tt = TruthTable(n, rng.getrandbits(1 << n))
        m = BDDManager(n)
        f = _build(m, tt, m.variables())
        assert f.sat_count() == tt.sat_count()


@pytest.mark.parametrize("seed", range(6))
def test_bdd_swap_preserves_functions(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    m = BDDManager(n)
    vs = m.variables()
    masks = [rng.getrandbits(1 << n) for _ in range(2)]
    funcs = [_build(m, TruthTable(n, mask), vs) for mask in masks]
    for _ in range(rng.randint(1, 8)):
        swap_adjacent_bdd(m, rng.randrange(n - 1))
        m.check_invariants()
        for f, mask in zip(funcs, masks):
            assert f.truth_mask(range(n)) == mask


def test_bdd_sift_preserves_and_shrinks():
    n_pairs = 4
    names = [f"a{i}" for i in range(n_pairs)] + [f"b{i}" for i in range(n_pairs)]
    m = BDDManager(names)
    f = m.true()
    for i in range(n_pairs):
        f = f & m.var(f"a{i}").xnor(m.var(f"b{i}"))
    mask = f.truth_mask(names)
    result = sift_bdd(m, converge=True)
    m.check_invariants()
    assert f.truth_mask(names) == mask
    assert result.final_size <= result.initial_size


@pytest.mark.parametrize("name", ["C1908", "frg1"])
def test_bdd_sift_dumps_are_reproducible(name):
    """Two build+sift runs in one process give byte-identical dumps.

    Swaps walk each level's node set in uid order; address-hashed
    iteration would allocate rewritten nodes (and so record order)
    differently from run to run.
    """
    import io

    from repro.circuits.registry import TABLE1_ROWS
    from repro.network.build import build

    row = next(row for row in TABLE1_ROWS if row.name == name)
    dumps = []
    for _run in range(2):
        manager, functions = build(row.build(full=False), backend="bdd")
        manager.sift()
        buffer = io.BytesIO()
        manager.dump(functions, buffer)
        dumps.append(buffer.getvalue())
    assert dumps[0] == dumps[1]


def test_bdd_reorder_to():
    rng = random.Random(3)
    n = 5
    m = BDDManager(n)
    vs = m.variables()
    mask = rng.getrandbits(1 << n)
    f = _build(m, TruthTable(n, mask), vs)
    perm = list(range(n))
    rng.shuffle(perm)
    reorder_to_bdd(m, perm)
    assert m.order.order == tuple(perm)
    assert f.truth_mask(range(n)) == mask


def test_bdd_gc():
    m = BDDManager(3)
    a, b, c = m.variables()
    f = (a & b) ^ c
    before = m.size()
    del f
    assert m.gc() > 0
    assert m.size() < before
    m.check_invariants()
