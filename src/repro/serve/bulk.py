"""Vectorized batch evaluation: the levelized cohort sweep.

The looped alternative — one root-to-sink walk per assignment — costs
``O(nodes_on_path)`` *per query*.  This module instead pushes the whole
batch through the diagram **top-down, one level at a time**: every node
carries a *cohort*, a pair of big-integer bitsets recording which
queries currently sit on that node with even/odd complement parity.
One node is then processed exactly once per batch — its branching
condition is computed for **all** queries at once with a couple of
word-parallel integer operations — so bulk evaluation is
``O(nodes + queries)`` instead of ``O(nodes × queries)``.

Two input forms are supported:

* an iterable of assignment *mappings* (the :meth:`FunctionBase.evaluate
  <repro.api.base.FunctionBase.evaluate>` format) — transposed into bit
  columns at C speed, eight bits per query (a "byte lane", which is
  what :func:`bytes` and :func:`int.from_bytes` produce natively);
* a :class:`ColumnBatch` — assignments already stored *columnar* (one
  bitmask per variable, bit ``i`` = query ``i``), the natural format of
  a vectorized query service.  Packing cost disappears entirely and
  cohorts are eight times denser.

The sweep itself is stride-agnostic: it only needs every bitset to use
the same lane layout and a ``full`` mask with one set bit per query.

Backends plug in through :meth:`DDManager.batch_stream
<repro.api.base.DDManager.batch_stream>`, which takes a sequence of
edges and yields the union of their cones — every node once, parents
strictly before children, keys unique across the stream — as
*items*::

    (key, pv, sv, t_key, t_flip, t_pv, f_key, f_flip, f_pv)

``key`` is any hashable node identity; ``sv`` is ``None`` for
single-variable tests (literal/Shannon nodes); the *t*-branch is taken
where the node's test is true (``pv != sv`` for chain nodes, ``pv`` for
the rest), ``*_key`` is ``None`` for the 1-sink, ``*_flip`` marks a
complemented edge and ``*_pv`` is the branch target's primary variable
(``None`` for the sink).  The child variables are what lets the *cube*
sweep (:func:`satisfiable_batch`) carry relational state across
consecutive couples: taking a branch at a chain node ``(pv, sv)`` pins
the value of ``sv``, which is tested next exactly when the child's PV
is ``sv``.  The same stream numbered in order is the shared-memory
column layout (:meth:`~repro.api.base.DDManager.freeze_export`), and
walked in reverse it is the exact model count.

Every batch query runs through :func:`evaluate_batch_edges` /
:func:`satisfiable_batch_edges` on a ``(source, edge)`` pair — the
source a manager or a frozen :class:`repro.par.shm.ShmForest`, whose
``batch_stream`` yields the edge's cone straight off the shared
columns — and :func:`query_batch` splits large batches into chunks.
Sources without a structural stream fall back to a per-query loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.api.base import check_assignment_bit, duplicate_assignment_error
from repro.core.exceptions import BBDDError, VariableError

#: Bits per query of the byte-lane encoding produced from mappings.
BYTE_LANE = 8

#: Query count above which one sweep is split into sub-batches (bounds
#: the size of the cohort bitsets parked on the frontier).
DEFAULT_CHUNK = 1 << 15

_NOT_01 = bytes(range(2, 256))


class ServeError(BBDDError):
    """A query-service failure (pool worker death, unknown function, ...)."""


def lane_ones(count: int, stride: int = BYTE_LANE) -> int:
    """The ``full`` mask: one set bit per query lane."""
    if stride == 1:
        return (1 << count) - 1
    return int.from_bytes(b"\x01" * count, "little")


class ColumnBatch:
    """A batch of assignments stored columnar: one bitmask per variable.

    ``columns`` maps variables (names or indices are both fine — they
    are resolved against the manager at evaluation time) to integers
    whose bit ``i`` is the variable's value in query ``i``; ``count``
    is the number of queries.  Variables absent from ``columns`` are
    False everywhere (they must not be in the function's support — the
    same contract as :meth:`FunctionBase.evaluate
    <repro.api.base.FunctionBase.evaluate>`).

    This is the zero-copy input of :func:`evaluate_batch`: a service
    that keeps its request batches columnar never pays the per-query
    transpose that mapping input needs.
    """

    __slots__ = ("columns", "count")

    def __init__(self, columns: Mapping, count: int) -> None:
        if count < 0:
            raise BBDDError("ColumnBatch count must be non-negative")
        mask = (1 << count) - 1
        for var, bits in columns.items():
            if not isinstance(bits, int) or isinstance(bits, bool):
                raise TypeError(
                    f"column for variable {var!r} must be an int bitmask, "
                    f"got {type(bits).__name__}"
                )
            if bits & ~mask:
                raise BBDDError(
                    f"column for variable {var!r} has bits set beyond "
                    f"query {count - 1}"
                )
        self.columns = dict(columns)
        self.count = count

    def __len__(self) -> int:
        return self.count

    @classmethod
    def from_assignments(cls, assignments: Iterable[Mapping]) -> "ColumnBatch":
        """Pack an iterable of assignment mappings into columns.

        A convenience for callers that want to pay the transpose once
        and reuse the batch against several functions.
        """
        columns: Dict[object, int] = {}
        count = 0
        for i, assignment in enumerate(assignments):
            for key, bit in assignment.items():
                check_assignment_bit(bit, key, f"assignment {i}")
                if bit:
                    columns[key] = columns.get(key, 0) | (1 << i)
                else:
                    columns.setdefault(key, 0)
            count = i + 1
        return cls(columns, count)


class EncodedBatch:
    """A batch resolved against one manager, ready for the sweep.

    Internal interchange between the front-end encoders below, the
    :class:`~repro.api.base.DDManager` batch protocol and the sweep:
    ``var_bits`` maps variable *indices* to lane bitsets, ``full`` has
    one set bit per query lane, ``known_bits`` (cube queries only) maps
    variable indices to the lanes where that variable is constrained.
    """

    __slots__ = ("count", "stride", "full", "var_bits", "known_bits")

    def __init__(
        self,
        count: int,
        stride: int,
        var_bits: Dict[int, int],
        known_bits: Optional[Dict[int, int]] = None,
    ) -> None:
        self.count = count
        self.stride = stride
        self.full = lane_ones(count, stride)
        self.var_bits = var_bits
        self.known_bits = known_bits

    def unpack(self, bits: int) -> List[bool]:
        """Decode a result bitset (one answer bit per lane) to bools."""
        count = self.count
        if count == 0:
            return []
        if self.stride == 1:
            # bin() renders MSB first; a guard bit pads to exactly
            # ``count`` digits, the reversal restores query order and
            # map() keeps the per-query work at C speed.
            digits = bin(bits | (1 << count))[3:]
            return list(map("1".__eq__, digits[::-1]))
        return list(map((1).__eq__, bits.to_bytes(count, "little")))

    def iter_value_dicts(self, num_vars: int) -> Iterator[Dict[int, bool]]:
        """Per-query complete ``{index: bool}`` dicts (the loop fallback)."""
        stride = self.stride
        items = list(self.var_bits.items())
        for i in range(self.count):
            lane = 1 << (i * stride)
            values = {v: False for v in range(num_vars)}
            for var, bits in items:
                if bits & lane:
                    values[var] = True
            yield values

    def iter_known_dicts(self) -> Iterator[Dict[int, bool]]:
        """Per-query partial ``{index: bool}`` dicts of the known bits."""
        stride = self.stride
        known = self.known_bits or {}
        for i in range(self.count):
            lane = 1 << (i * stride)
            yield {
                var: bool(self.var_bits.get(var, 0) & lane)
                for var, bits in known.items()
                if bits & lane
            }


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------


def cohort_sweep(
    root_key,
    root_attr: bool,
    items: Iterable[tuple],
    var_bits: Dict[int, int],
    full: int,
) -> Tuple[int, int]:
    """Push complete-assignment query cohorts through a level stream.

    Returns ``(sat_even, sat_odd)``: the lanes that reach the 1-sink
    with even / odd accumulated complement parity.  Every lane follows
    exactly one root-to-sink path, so ``sat_even`` *is* the result
    bitset (even parity means the function is True) and the two halves
    partition ``full``.
    """
    if root_key is None:
        return (0, full) if root_attr else (full, 0)
    cohorts: Dict[object, Tuple[int, int]] = {
        root_key: (0, full) if root_attr else (full, 0)
    }
    sat_even = sat_odd = 0
    pop = cohorts.pop
    get_bits = var_bits.get
    for key, pv, sv, t_key, t_flip, _t_pv, f_key, f_flip, _f_pv in items:
        pair = pop(key, None)
        if pair is None:
            continue
        even, odd = pair
        if not even and not odd:
            continue
        if sv is None:
            t_mask = get_bits(pv, 0)
        else:
            t_mask = get_bits(pv, 0) ^ get_bits(sv, 0)
        f_mask = full & ~t_mask
        ce = even & t_mask
        co = odd & t_mask
        if ce or co:
            if t_flip:
                ce, co = co, ce
            if t_key is None:
                sat_even |= ce
                sat_odd |= co
            else:
                pe, po = cohorts.get(t_key, (0, 0))
                cohorts[t_key] = (pe | ce, po | co)
        ce = even & f_mask
        co = odd & f_mask
        if ce or co:
            if f_flip:
                ce, co = co, ce
            if f_key is None:
                sat_even |= ce
                sat_odd |= co
            else:
                pe, po = cohorts.get(f_key, (0, 0))
                cohorts[f_key] = (pe | ce, po | co)
    return sat_even, sat_odd


#: Empty cube-sweep state: {pin-0, pin-1, floating} × {even, odd parity}.
_ZERO6 = (0, 0, 0, 0, 0, 0)


def cube_sweep(
    root_key,
    root_attr: bool,
    items: Iterable[tuple],
    var_bits: Dict[int, int],
    known_bits: Dict[int, int],
    full: int,
) -> Tuple[int, int]:
    """Push *partial*-assignment (cube) cohorts through a level stream.

    Each lane asks "is ``f ∧ cube`` satisfiable"; a lane whose test is
    undecided by its cube flows into **both** branches and cohorts merge
    by union.  On BBDDs that alone would over-approximate: along a path
    the same variable appears first as a couple's SV and then as the
    next couple's PV, so two locally-free branch choices can demand
    contradictory values of it.  The sweep therefore tracks, per lane,
    whether the node's PV is *pinned* to 0 / pinned to 1 by the branch
    taken at the parent couple, or *floating* — six bitset planes
    (pin-state × parity):

    * arriving at a node, pins are reconciled with the cube (a conflict
      kills that path's lane contribution; a floating lane whose PV the
      cube constrains becomes pinned);
    * a chain branch whose SV the cube leaves free pins the SV's value
      (``sv = pv ⊕ branch``) — passed to the branch target exactly when
      the target's PV *is* that SV (otherwise the variable is skipped,
      can never be tested again, and the pin collapses to floating);
    * single-variable tests (literal/Shannon nodes) always pass
      floating — their branch constrains only the variable just tested.

    Returns ``(sat_even, sat_odd)``; bit ``i`` of ``sat_even`` means
    some cube-consistent path evaluates to True — satisfiability of
    ``f ∧ cube``.
    """
    if root_key is None:
        return (0, full) if root_attr else (full, 0)
    root = (0, 0, 0, 0, full, 0) if not root_attr else (0, 0, 0, 0, 0, full)
    cohorts: Dict[object, tuple] = {root_key: root}
    sat_even = sat_odd = 0
    pop = cohorts.pop
    get_bits = var_bits.get
    get_known = known_bits.get

    def route(child_key, flip, e0, o0, e1, o1, ef, of):
        nonlocal sat_even, sat_odd
        if not (e0 | o0 | e1 | o1 | ef | of):
            return
        if flip:
            e0, o0, e1, o1, ef, of = o0, e0, o1, e1, of, ef
        if child_key is None:
            sat_even |= e0 | e1 | ef
            sat_odd |= o0 | o1 | of
            return
        c = cohorts.get(child_key, _ZERO6)
        cohorts[child_key] = (
            c[0] | e0, c[1] | o0, c[2] | e1, c[3] | o1, c[4] | ef, c[5] | of,
        )

    for key, pv, sv, t_key, t_flip, t_pv, f_key, f_flip, f_pv in items:
        state = pop(key, None)
        if state is None:
            continue
        e0, o0, e1, o1, ef, of = state
        k = get_known(pv, 0)
        kv = k & get_bits(pv, 0)
        knv = k ^ kv
        # Reconcile pins with the cube: conflicting lanes die on this
        # path, floating lanes the cube constrains become pinned.
        e0 = (e0 & ~kv) | (ef & knv)
        o0 = (o0 & ~kv) | (of & knv)
        e1 = (e1 & ~knv) | (ef & kv)
        o1 = (o1 & ~knv) | (of & kv)
        ef &= ~k
        of &= ~k
        # Now e0/o0 hold lanes with pv = 0, e1/o1 with pv = 1, ef/of
        # with pv genuinely free (neither cube- nor pin-constrained).
        if sv is None:
            # Single-variable test: free lanes take both branches and
            # nothing is pinned downstream.
            route(t_key, t_flip, 0, 0, 0, 0, e1 | ef, o1 | of)
            route(f_key, f_flip, 0, 0, 0, 0, e0 | ef, o0 | of)
            continue
        ks = get_known(sv, 0)
        ksv = ks & get_bits(sv, 0)
        ksnv = ks ^ ksv
        free_s = full & ~ks
        # t-branch (pv != sv): lanes whose sv the cube decides float on,
        # lanes with a free sv pin it to ~pv for the branch target.
        te0 = e1 & free_s
        to0 = o1 & free_s
        te1 = e0 & free_s
        to1 = o0 & free_s
        tef = (e0 & ksv) | (e1 & ksnv) | (ef & ks) | (ef & free_s)
        tof = (o0 & ksv) | (o1 & ksnv) | (of & ks) | (of & free_s)
        if t_pv != sv:
            # sv is skipped below this branch and can never be tested
            # again, so its pin is irrelevant: collapse to floating.
            tef |= te0 | te1
            tof |= to0 | to1
            te0 = to0 = te1 = to1 = 0
        route(t_key, t_flip, te0, to0, te1, to1, tef, tof)
        # f-branch (pv == sv).
        fe0 = e0 & free_s
        fo0 = o0 & free_s
        fe1 = e1 & free_s
        fo1 = o1 & free_s
        fef = (e0 & ksnv) | (e1 & ksv) | (ef & ks) | (ef & free_s)
        fof = (o0 & ksnv) | (o1 & ksv) | (of & ks) | (of & free_s)
        if f_pv != sv:
            fef |= fe0 | fe1
            fof |= fo0 | fo1
            fe0 = fo0 = fe1 = fo1 = 0
        route(f_key, f_flip, fe0, fo0, fe1, fo1, fef, fof)
    return sat_even, sat_odd


# ----------------------------------------------------------------------
# encoding mappings / columns against a manager
# ----------------------------------------------------------------------


def _resolve_keys(manager, keys, where: str) -> List[int]:
    """Map one key tuple to variable indices, rejecting duplicates."""
    indices = []
    seen = set()
    for key in keys:
        index = manager.var_index(key)
        if index in seen:
            raise duplicate_assignment_error(manager, index, where)
        seen.add(index)
        indices.append(index)
    return indices


def _missing_error(manager, missing, where: str) -> VariableError:
    names = ", ".join(manager.var_name(v) for v in sorted(missing))
    return VariableError(f"{where} misses support variable(s): {names}")


def _column_scan(run, start: int):
    """Slow path of one run: per-item validation with precise messages."""
    for offset, assignment in enumerate(run):
        for key, bit in assignment.items():
            check_assignment_bit(bit, key, f"assignment {start + offset}")
    raise BBDDError("batch encoding failed without an invalid value")


def encode_mappings(
    manager,
    batch: List[Mapping],
    support: Optional[frozenset] = None,
    with_known: bool = False,
) -> EncodedBatch:
    """Transpose assignment mappings into byte-lane bit columns.

    Consecutive assignments sharing one key tuple (the overwhelmingly
    common shape of a service batch) are validated once and transposed
    at C speed — ``zip(*values)`` + :func:`bytes` +
    :func:`int.from_bytes`; heterogeneous batches degrade to shorter
    runs, never to wrong answers.

    With ``support`` given, every assignment must cover it (missing
    variables raise :class:`~repro.core.exceptions.VariableError`
    naming them and the offending batch position).  With
    ``with_known=True`` the batch is treated as *cubes*: assignments
    may be partial and the per-variable constrained lanes are recorded
    in ``known_bits``.
    """
    count = len(batch)
    var_bits: Dict[int, int] = {}
    known_bits: Optional[Dict[int, int]] = {} if with_known else None
    try:
        sigs = list(map(tuple, batch))
    except TypeError:
        for i, assignment in enumerate(batch):
            if not isinstance(assignment, Mapping):
                raise TypeError(
                    f"assignment {i} must be a mapping, "
                    f"got {type(assignment).__name__}"
                ) from None
        raise
    start = 0
    while start < count:
        sig = sigs[start]
        stop = start + 1
        while stop < count and sigs[stop] == sig:
            stop += 1
        where = f"assignment {start}" if stop == start + 1 else (
            f"assignments {start}..{stop - 1}"
        )
        run = batch[start:stop]
        for offset, assignment in enumerate(run):
            # A non-mapping (e.g. a key tuple) can share a mapping's
            # key signature; reject it before any run-level error can
            # misattribute the problem.
            if not isinstance(assignment, Mapping):
                raise TypeError(
                    f"assignment {start + offset} must be a mapping, "
                    f"got {type(assignment).__name__}"
                )
        indices = _resolve_keys(manager, sig, where)
        if support is not None:
            missing = support.difference(indices)
            if missing:
                raise _missing_error(manager, missing, where)
        columns = zip(*(a.values() for a in run))
        shift = BYTE_LANE * start
        run_ones = lane_ones(stop - start) << shift
        made = 0
        for index, column in zip(indices, columns):
            made += 1
            try:
                raw = bytes(column)
            except (TypeError, ValueError):
                _column_scan(run, start)
                raise
            if raw.translate(None, _NOT_01) != raw:
                # Some value was an int outside 0/1; pinpoint it.
                for offset, byte in enumerate(raw):
                    if byte > 1:
                        check_assignment_bit(
                            byte, sig[made - 1], f"assignment {start + offset}"
                        )
            bits = int.from_bytes(raw, "little")
            if bits:
                var_bits[index] = var_bits.get(index, 0) | (bits << shift)
            if known_bits is not None:
                known_bits[index] = known_bits.get(index, 0) | run_ones
        start = stop
    return EncodedBatch(count, BYTE_LANE, var_bits, known_bits)


def encode_columns(
    manager,
    batch: ColumnBatch,
    support: Optional[frozenset] = None,
    with_known: bool = False,
) -> EncodedBatch:
    """Resolve a :class:`ColumnBatch` against a manager (stride 1)."""
    var_bits: Dict[int, int] = {}
    for key, bits in batch.columns.items():
        index = manager.var_index(key)
        if index in var_bits:
            raise VariableError(
                f"batch assigns variable {manager.var_name(index)!r} "
                "more than once"
            )
        var_bits[index] = bits
    if support is not None:
        missing = support.difference(var_bits)
        if missing:
            raise _missing_error(manager, missing, "batch")
    known_bits = None
    if with_known:
        full = (1 << batch.count) - 1
        known_bits = {index: full for index in var_bits}
    return EncodedBatch(batch.count, 1, var_bits, known_bits)


def _slice_encoded(batch: EncodedBatch, start: int, stop: int) -> EncodedBatch:
    """A lane-range view of an encoded batch (used for chunking)."""
    if start == 0 and stop == batch.count:
        return batch
    stride = batch.stride
    lo = start * stride
    mask = (1 << ((stop - start) * stride)) - 1
    var_bits = {}
    for var, bits in batch.var_bits.items():
        sliced = (bits >> lo) & mask
        if sliced:
            var_bits[var] = sliced
    known_bits = None
    if batch.known_bits is not None:
        known_bits = {
            var: (bits >> lo) & mask
            for var, bits in batch.known_bits.items()
            if (bits >> lo) & mask
        }
    return EncodedBatch(stop - start, stride, var_bits, known_bits)


def _encode(manager, assignments, support, with_known: bool) -> EncodedBatch:
    if isinstance(assignments, ColumnBatch):
        return encode_columns(manager, assignments, support, with_known)
    if isinstance(assignments, EncodedBatch):
        return assignments
    batch = assignments if isinstance(assignments, list) else list(assignments)
    return encode_mappings(manager, batch, support, with_known)


# ----------------------------------------------------------------------
# public batch queries
# ----------------------------------------------------------------------


def evaluate_batch_edges(source, edge, batch: EncodedBatch) -> List[bool]:
    """Evaluate ``edge`` of ``source`` at every query of one encoded batch.

    ``source`` is a manager or a frozen
    :class:`repro.par.shm.ShmForest`.  With a ``batch_stream`` this is
    the levelized cohort sweep over the edge's cone —
    ``O(nodes + queries)``; without one it degrades to the looped
    ``O(nodes × queries)`` walk per query.
    """
    stream = source.batch_stream([edge])
    if stream is None:
        evaluate = source.evaluate_edge
        return [
            evaluate(edge, values)
            for values in batch.iter_value_dicts(source.num_vars)
        ]
    (root_key,), items = stream
    sat_even, _sat_odd = cohort_sweep(
        root_key, source.edge_attr(edge), items, batch.var_bits, batch.full
    )
    return batch.unpack(sat_even)


def satisfiable_batch_edges(source, edge, batch: EncodedBatch) -> List[bool]:
    """Cube satisfiability of ``edge`` for every query of one encoded batch.

    With a ``batch_stream``, unconstrained queries flow into both
    branches of one :func:`cube_sweep`; the fallback restricts the
    edge by each cube and checks the cofactor against the 0-sink.
    """
    stream = source.batch_stream([edge])
    if stream is None:
        results = []
        with source.defer_gc():
            for values in batch.iter_known_dicts():
                cofactor = edge
                for var, value in values.items():
                    cofactor = source.restrict_edge(cofactor, var, value)
                results.append(not source.edge_is_false(cofactor))
        return results
    (root_key,), items = stream
    sat_even, _sat_odd = cube_sweep(
        root_key,
        source.edge_attr(edge),
        items,
        batch.var_bits,
        batch.known_bits or {},
        batch.full,
    )
    return batch.unpack(sat_even)


def query_batch(
    source, edge, assignments, *, cube: bool = False, chunk: int = DEFAULT_CHUNK
) -> List[bool]:
    """Answer a whole batch against ``edge`` of ``source``, in order.

    ``assignments`` is an iterable of mappings, a :class:`ColumnBatch`
    or an already encoded batch.  Complete-assignment queries
    (``cube=False``) must cover the edge's support; cube queries may
    be partial.  ``chunk`` bounds how many queries share one sweep (and
    therefore the cohort bitset sizes parked on the level frontier).
    """
    support = None if cube else source.support_edge(edge)
    encoded = _encode(source, assignments, support, with_known=cube)
    sweep = satisfiable_batch_edges if cube else evaluate_batch_edges
    results: List[bool] = []
    for start in range(0, encoded.count, chunk):
        stop = min(start + chunk, encoded.count)
        results.extend(sweep(source, edge, _slice_encoded(encoded, start, stop)))
    return results


def evaluate_batch(f, assignments, chunk: int = DEFAULT_CHUNK) -> List[bool]:
    """Evaluate ``f`` at every assignment with one sweep per chunk.

    ``assignments`` is an iterable of mappings (each must cover the
    function's support, like :meth:`FunctionBase.evaluate
    <repro.api.base.FunctionBase.evaluate>`) or a :class:`ColumnBatch`.
    Returns one ``bool`` per assignment, in order (see
    :func:`query_batch`).
    """
    return query_batch(f.manager, f.edge, assignments, chunk=chunk)


def satisfiable_batch(f, assignments, chunk: int = DEFAULT_CHUNK) -> List[bool]:
    """For each partial assignment (cube): is ``f ∧ cube`` satisfiable?

    Assignments may constrain any subset of the variables; a query
    whose test variable is unconstrained at some node flows into both
    branches, so the whole batch still needs only one top-down sweep.
    ``f.satisfiable_batch([{}])`` is ``[not f.is_false]``.
    """
    return query_batch(f.manager, f.edge, assignments, cube=True, chunk=chunk)
