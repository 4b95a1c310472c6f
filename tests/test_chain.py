"""XOR/parity chains and the containers that carry them, on plain managers.

The biconditional expansion absorbs XOR/parity chains into couples, so
these shapes need no special node kind. This module pins that down:

* Golden v1 dump: the checked-in v1 container must keep loading
  bit-exactly (and re-dump byte-identically) forever.
* Sweeps: ``evaluate_batch``/``satisfiable_batch`` on parity-chain
  functions match plain one-at-a-time evaluation and restriction, and
  a frozen :class:`~repro.par.shm.ShmForest` keeps its four-column
  layout.
* Interchange: compressed v2 dumps round-trip across ALL backends, and
  the ``python -m repro.io scan`` CLI reports every container kind.
"""

import io as stdio
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import io as rio
from repro.io.__main__ import main as io_main
from repro.io.format import FORMAT_VERSION, read_header
from repro.par.shm import ShmForest, shm_available

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BACKENDS = ["bbdd", "bdd"]
ALL_BACKENDS = BACKENDS + ["xmem"]

GOLDEN_V1 = os.path.join(os.path.dirname(__file__), "data", "golden_v1.bbdd")
GOLDEN_VARS = ["a", "b", "c", "d"]
GOLDEN_MASKS = {"maj": 0xE8E8, "parity": 0x6996, "bic": 0x9990}

N = 8
NAMES = [f"x{i}" for i in range(N)]


def _parity(m, lo=0, hi=N, neg=False):
    """An XNOR tower over ``names[lo:hi]``."""
    f = m.var(NAMES[lo])
    for i in range(lo + 1, hi):
        f = ~f.xnor(m.var(NAMES[i]))
    return ~f if neg else f


#: label -> builder: full, negated and partial parity chains, chains
#: under AND/OR, and two chains meeting.
CHAIN_BUILDERS = {
    "parity8": lambda m: _parity(m),
    "parity8n": lambda m: _parity(m, neg=True),
    "parity_mid": lambda m: _parity(m, 2, 7),
    "parity_and": lambda m: _parity(m, 1, 6) & m.var("x0"),
    "parity_or": lambda m: _parity(m, 0, 5) | (m.var("x6") & m.var("x7")),
    "two_par": lambda m: _parity(m, 0, 4).xnor(_parity(m, 4, 8)),
    "par_xor_var": lambda m: ~_parity(m, 0, 6).xnor(m.var("x7")),
    "mixed": lambda m: (_parity(m, 0, 5) & m.var("x5"))
    | (~_parity(m, 2, 8) & ~m.var("x0")),
}


# ----------------------------------------------------------------------
# golden v1 regression
# ----------------------------------------------------------------------


def test_golden_v1_reloads_bit_exactly():
    with open(GOLDEN_V1, "rb") as fileobj:
        data = fileobj.read()
    header = read_header(stdio.BytesIO(data))
    assert header.version == FORMAT_VERSION
    assert header.flags == 0
    manager, functions = rio.loads(data)
    assert set(functions) == set(GOLDEN_MASKS)
    for name, mask in GOLDEN_MASKS.items():
        assert functions[name].truth_mask(GOLDEN_VARS) == mask, name
    # A plain manager re-dumps the v1 container byte for byte.
    assert rio.dumps(manager, functions) == data


# ----------------------------------------------------------------------
# batch sweeps and the shared-memory forest
# ----------------------------------------------------------------------


def _all_assignments():
    return [
        {NAMES[i]: bool((m >> i) & 1) for i in range(N)} for m in range(1 << N)
    ]


def _random_cubes(count=120, seed=0xC0DE):
    rng = random.Random(seed)
    cubes = []
    for _ in range(count):
        chosen = rng.sample(NAMES, rng.randrange(0, N + 1))
        cubes.append({name: bool(rng.getrandbits(1)) for name in chosen})
    return cubes


def _satisfiable(f, cube):
    for name, value in cube.items():
        f = f.restrict(name, value)
    return not f.is_false


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label", sorted(CHAIN_BUILDERS))
def test_batch_sweeps_match_plain(backend, label):
    """Batch sweeps agree with plain per-item evaluation and restriction."""
    manager = repro.open(backend, vars=NAMES)
    f = CHAIN_BUILDERS[label](manager)
    assignments = _all_assignments()
    assert f.evaluate_batch(assignments) == [f.evaluate(a) for a in assignments]
    cubes = _random_cubes()
    assert f.satisfiable_batch(cubes) == [_satisfiable(f, c) for c in cubes]
    manager.check_invariants()


@pytest.mark.skipif(not shm_available(), reason="shared memory unavailable")
def test_shm_forest_plain_segments_stay_four_column():
    """Freezes use the four-column RPARFRZ1 layout, and it attaches."""
    plain = repro.open("bbdd", vars=NAMES)
    f = CHAIN_BUILDERS["mixed"](plain)
    export = plain.freeze_export([("f", f.edge)])
    assert set(export) == {"kind", "pv", "sv", "t", "f", "roots"}
    with ShmForest.freeze(plain, {"f": f}) as frozen:
        attached = ShmForest.attach(frozen.name)
        try:
            assert attached.sat_count("f") == f.sat_count()
        finally:
            attached.close()


# ----------------------------------------------------------------------
# interchange: compressed containers and the scan CLI
# ----------------------------------------------------------------------


def test_scan_cli_reports_every_container_kind(tmp_path):
    m = repro.open("bbdd", vars=NAMES)
    compressed = str(tmp_path / "par.bbdd")
    m.dump({"par": _parity(m)}, compressed, compress=True)
    out = stdio.StringIO()
    assert io_main(["scan", compressed, GOLDEN_V1], out=out) == 0
    text = out.getvalue()
    assert "version:        2" in text
    assert "compressed" in text
    assert "version:        1" in text
    assert "backend kind:   bbdd" in text
    assert "bytes per node:" in text


def test_scan_cli_missing_file_exits_nonzero(tmp_path, capsys):
    out = stdio.StringIO()
    missing = str(tmp_path / "nope.bbdd")
    assert io_main(["scan", missing], out=out) == 1
    captured = capsys.readouterr()
    assert "nope.bbdd" in captured.err
    assert out.getvalue() == ""


# ----------------------------------------------------------------------
# property round trips across every backend
# ----------------------------------------------------------------------


@st.composite
def masked_function(draw, max_vars=4):
    n = draw(st.integers(min_value=2, max_value=max_vars))
    mask = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return n, mask


def _build_from_mask(manager, names, mask):
    """Sum-of-minterms build through the shared protocol surface."""
    f = manager.false()
    variables = [manager.var(name) for name in names]
    for idx in range(1 << len(names)):
        if not (mask >> idx) & 1:
            continue
        term = manager.true()
        for bit, v in enumerate(variables):
            term = term & (v if (idx >> bit) & 1 else ~v)
        f = f | term
    return f


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@given(masked_function(), st.booleans())
@settings(**_SETTINGS)
def test_compressed_roundtrip_across_backends(backend, fn, compress):
    n, mask = fn
    names = [f"v{i}" for i in range(n)]
    manager = repro.open(backend, vars=names)
    f = _build_from_mask(manager, names, mask)
    buf = stdio.BytesIO()
    manager.dump({"f": f}, buf, compress=compress)
    fresh = repro.open(backend, vars=names)
    loaded = fresh.load(stdio.BytesIO(buf.getvalue()))
    assert loaded["f"].truth_mask(names) == mask
