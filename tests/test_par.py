"""The repro.par subsystem: shared-memory forests and parallel sweeps.

Covers the freeze → attach → query contract against the in-process
manager as oracle (all backends, hypothesis-driven), the segment
lifecycle error surface, true cross-process attachment, the
:class:`~repro.par.pool.ParallelPool` round trip including
worker-death respawn, and the no-leaked-segments guarantee.
"""

import multiprocessing
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from test_expr_api import expressions
from repro.par import (
    ParallelPool,
    ParError,
    ShmForest,
    active_segments,
    parallel_sat_count,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NAMES = ["a", "b", "c", "d", "e", "f"]
ALL_BACKENDS = ["bbdd", "bdd", "xmem"]


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must unlink the segments it created."""
    before = set(active_segments())
    yield
    assert set(active_segments()) - before == set()


def all_assignments(names):
    for bits in range(1 << len(names)):
        yield {name: (bits >> i) & 1 for i, name in enumerate(names)}


def build(backend, expr="(a ^ b) | (c & d) | (e & ~f)"):
    manager = repro.open(backend, vars=NAMES)
    return manager, manager.add_expr(expr)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_frozen_forest_matches_manager(backend):
    manager, f = build(backend)
    g = manager.add_expr("~a | (b ^ c)")
    queries = list(all_assignments(NAMES))
    rng = random.Random(5)
    cubes = [
        {name: rng.getrandbits(1) for name in rng.sample(NAMES, rng.randrange(len(NAMES)))}
        for _ in range(64)
    ]
    with ShmForest.freeze(manager, {"f": f, "g": g}) as forest:
        assert forest.kind == backend
        assert sorted(forest.functions) == ["f", "g"]
        assert forest.num_vars == len(NAMES)
        assert forest.node_count > 0
        for name, func in (("f", f), ("g", g)):
            assert forest.evaluate_batch(name, queries) == func.evaluate_batch(queries)
            assert forest.satisfiable_batch(name, cubes) == func.satisfiable_batch(cubes)
            assert forest.sat_count(name) == func.sat_count()
            named_support = {forest.var_name(i) for i in forest.support(name)}
            assert named_support == func.support()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_frozen_constants_and_complements(backend):
    manager = repro.open(backend, vars=["x", "y"])
    t, f_ = manager.true(), manager.false()
    g = ~(manager.var("x") & manager.var("y"))
    queries = list(all_assignments(["x", "y"]))
    with ShmForest.freeze(manager, {"t": t, "f": f_, "g": g}) as forest:
        assert forest.evaluate_batch("t", queries) == [True] * 4
        assert forest.evaluate_batch("f", queries) == [False] * 4
        assert forest.evaluate_batch("g", queries) == g.evaluate_batch(queries)
        assert forest.sat_count("t") == 4
        assert forest.sat_count("f") == 0
        assert forest.sat_count("g") == 3


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@settings(**_SETTINGS)
@given(data=st.data())
def test_frozen_forest_equivalence_property(backend, data):
    expr = data.draw(expressions(tuple(NAMES[:4])))
    manager = repro.open(backend, vars=NAMES[:4])
    f = manager.add_expr(expr)
    queries = list(all_assignments(NAMES[:4]))
    with ShmForest.freeze(manager, {"f": f}) as forest:
        assert forest.evaluate_batch("f", queries) == f.evaluate_batch(queries)
        assert forest.sat_count("f") == f.sat_count()


def _misex1(backend):
    """The misex1 Table I circuit (8 inputs): couples, gaps and sharing."""
    from repro.circuits.registry import TABLE1_ROWS
    from repro.network.build import build as build_network

    row = next(row for row in TABLE1_ROWS if row.name == "misex1")
    network = row.build(full=False)
    manager, functions = build_network(network, backend=backend)
    weights = {
        name: Fraction(k, 11) for k, name in enumerate(network.inputs, start=1)
    }
    return manager, functions, weights


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_frozen_marginals_equal_in_process_exactly(backend):
    manager, functions, weights = _misex1(backend)
    functions = dict(functions, always=manager.true())
    with ShmForest.freeze(manager, functions) as forest:
        for name, func in sorted(functions.items()):
            got = forest.marginals(name, weights)
            assert got == func.marginals(weights), name
            assert all(isinstance(value, Fraction) for value in got.values())


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_frozen_marginals_of_non_support_variable_is_prior(backend):
    manager = repro.open(backend, vars=NAMES)
    f = manager.add_expr("(a & ~c) | (c ^ f)")
    weights = {"b": Fraction(2, 9), "c": Fraction(1, 3), "e": Fraction(5, 8)}
    asked = ["b", "e", "d", "c"]
    want = f.marginals(weights, asked)
    assert want["b"] == Fraction(2, 9)
    assert want["e"] == Fraction(5, 8)
    assert want["d"] == Fraction(1, 2)
    with ShmForest.freeze(manager, {"f": f, "t": manager.true()}) as forest:
        assert forest.marginals("f", weights, asked) == want
        assert forest.marginals("t", weights, asked) == {
            "b": Fraction(2, 9), "e": Fraction(5, 8), "d": Fraction(1, 2), "c": Fraction(1, 3)
        }
        assert forest.marginals("f", weights, "e") == {"e": Fraction(5, 8)}


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_float_marginals_track_exact(backend):
    manager, functions, weights = _misex1(backend)
    with ShmForest.freeze(manager, functions) as forest:
        for name, func in sorted(functions.items()):
            exact = func.marginals(weights)
            for got in (
                func.marginals(weights, exact=False),
                forest.marginals(name, weights, exact=False),
            ):
                assert sorted(got) == sorted(exact)
                for var, value in exact.items():
                    assert isinstance(got[var], float)
                    assert abs(got[var] - value) <= 1e-12, (name, var)


def test_sequential_fallback_when_freeze_unavailable():
    """A backend whose ``batch_stream`` yields no export still answers."""
    manager, f = build("bbdd")
    queries = list(all_assignments(NAMES))
    want = f.evaluate_batch(queries)
    manager.freeze_export = lambda named: None
    with pytest.raises(ParError, match="sequential in-process batch path"):
        ShmForest.freeze(manager, {"f": f})
    # The workers= protocol surface falls back without raising.
    assert f.evaluate_batch(queries, workers=2) == want
    assert f.satisfiable_batch([{"a": 1}], workers=2) == f.satisfiable_batch([{"a": 1}])
    assert parallel_sat_count({"f": f}) == {"f": f.sat_count()}


def test_segment_lifecycle_errors():
    manager, f = build("bbdd")
    forest = ShmForest.freeze(manager, {"f": f})
    name = forest.name
    attached = ShmForest.attach(name)
    assert attached.evaluate("f", {n: 1 for n in NAMES}) == f.evaluate(
        {n: 1 for n in NAMES}
    )
    attached.close()
    attached.close()  # double close is fine
    with pytest.raises(ParError, match="closed"):
        attached.evaluate("f", {n: 1 for n in NAMES})
    forest.unlink()
    with pytest.raises(ParError, match="no shared forest segment"):
        ShmForest.attach(name)
    with pytest.raises(ParError):
        forest.unlink()  # double unlink reports, not crashes
    forest.close()


def test_freeze_rejects_bad_functions():
    manager, f = build("bbdd")
    other = repro.open("bbdd", vars=NAMES)
    with pytest.raises(ParError):
        ShmForest.freeze(manager, {})
    with pytest.raises(ParError):
        ShmForest.freeze(manager, {"g": other.add_expr("a")})


def _attach_and_evaluate(segment, queries, queue):
    from repro.par import ShmForest

    forest = ShmForest.attach(segment)
    try:
        queue.put(forest.evaluate_batch("f", queries))
    finally:
        forest.close()


@pytest.mark.timeout(60)
def test_attach_from_subprocess():
    """A separate process sees the same bits through the segment."""
    manager, f = build("bbdd")
    queries = list(all_assignments(NAMES))
    want = f.evaluate_batch(queries)
    with ShmForest.freeze(manager, {"f": f}) as forest:
        ctx = multiprocessing.get_context()
        queue = ctx.Queue()
        process = ctx.Process(
            target=_attach_and_evaluate, args=(forest.name, queries, queue)
        )
        process.start()
        got = queue.get(timeout=30)
        process.join(timeout=10)
    assert got == want
    assert process.exitcode == 0


@pytest.mark.timeout(120)
def test_parallel_pool_round_trip():
    manager, f = build("bbdd")
    g = manager.add_expr("a <-> (b & e)")
    rng = random.Random(11)
    queries = [{n: rng.getrandbits(1) for n in NAMES} for _ in range(500)]
    cubes = [
        {n: rng.getrandbits(1) for n in rng.sample(NAMES, rng.randrange(len(NAMES)))}
        for _ in range(200)
    ]
    forest = ShmForest.freeze(manager, {"f": f, "g": g})
    try:
        with ParallelPool(workers=2, timeout=60) as pool:
            assert sorted(pool.warm(forest)) == ["f", "g"]
            assert pool.evaluate_batch(forest, "f", queries) == f.evaluate_batch(queries)
            many = pool.evaluate_many(forest, ["f", "g"], queries)
            assert many["g"] == g.evaluate_batch(queries)
            assert pool.satisfiable_batch(forest, "f", cubes) == f.satisfiable_batch(cubes)
            assert pool.sat_count(forest, ["f", "g"]) == {
                "f": f.sat_count(),
                "g": g.sat_count(),
            }
            stats = pool.stats()
            assert stats["workers"] == 2
            assert stats["batches"] >= 3
            assert stats["tasks_dispatched"] >= stats["batches"]
            pool.detach(forest)
    finally:
        forest.unlink()
        forest.close()


def test_parallel_pool_inline_mode():
    """``workers=0`` serves the same answers without subprocesses."""
    manager, f = build("bbdd")
    queries = list(all_assignments(NAMES))
    forest = ShmForest.freeze(manager, {"f": f})
    try:
        with ParallelPool(workers=0) as pool:
            assert pool.workers == 0
            assert pool.evaluate_batch(forest, "f", queries) == f.evaluate_batch(queries)
            assert pool.sat_count(forest, ["f"]) == {"f": f.sat_count()}
    finally:
        forest.unlink()
        forest.close()


@pytest.mark.timeout(120)
def test_parallel_pool_worker_death_respawns():
    manager, f = build("bbdd")
    rng = random.Random(13)
    queries = [{n: rng.getrandbits(1) for n in NAMES} for _ in range(300)]
    want = f.evaluate_batch(queries)
    forest = ShmForest.freeze(manager, {"f": f})
    try:
        with ParallelPool(workers=2, timeout=60) as pool:
            pool.warm(forest)
            assert pool.evaluate_batch(forest, "f", queries) == want
            pool._crew.processes[0].kill()
            time.sleep(0.2)
            assert pool.evaluate_batch(forest, "f", queries) == want
            assert pool.worker_restarts >= 1
    finally:
        forest.unlink()
        forest.close()


def test_one_shot_helpers_and_workers_kwarg():
    manager, f = build("bbdd")
    queries = list(all_assignments(NAMES))
    want = f.evaluate_batch(queries)
    assert f.evaluate_batch(queries, workers=2) == want
    assert parallel_sat_count({"f": f}, workers=2) == {"f": f.sat_count()}
