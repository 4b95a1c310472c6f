"""The weighted-counting mass sweep, the model count and their fallback.

Weighted model counting assigns every variable ``v`` a pair of weights
``(w1(v), w0(v))`` and asks for the total weight of the on-set,

.. math:: WMC(f) = \\sum_{a : f(a)=1} \\; \\prod_v w_{a_v}(v),

which specializes to probabilistic inference (``w1 + w0 = 1`` makes it
``p(f = 1)`` for independent inputs) and to plain ``sat_count``
(``w1 = w0 = 1``).  :func:`mass_sweep` computes it in **one top-down
levelized pass** over the same 9-tuple item streams the batch
evaluator uses (:meth:`repro.api.base.DDManager.batch_stream`):
instead of query bitsets, each node accumulates *mass* — the summed
weight of all root paths reaching it — keyed by the path's complement
parity and by the value the path fixed for the node's primary
variable.  The primary-value key is what makes the sweep exact on
BBDDs: a couple ``(v, w)`` branches on ``v = w`` / ``v != w``, so the
``=``-branch of independent inputs carries ``p·q + (1−p)(1−q)`` — the
mass that arrived with ``v = 1`` pairs with ``w = 1`` and the ``v = 0``
mass with ``w = 0``.  Variables skipped between levels (sparse
supports, chain gaps) contribute their weight *sum* as a free factor,
handled with prefix products in O(1) per edge.

:func:`joint_sweep` adds a backward pass to the same forward pass and
returns every joint ``p(f = 1, v = 1)`` at once, which the posterior
marginals divide by ``p(f = 1)``.  :func:`sat_counts` is the plain
model count as one exact integer pass over the reversed stream.

:func:`sat_count_edge` and :func:`weighted_count_edge` run these
kernels on one ``(source, edge)`` pair, where the source is a manager
or a frozen :class:`repro.par.shm.ShmForest` (whose edges are signed
slot references); every count of every backend goes through them.

Arithmetic is generic over the scalar type: exact mode runs on
:class:`fractions.Fraction` (bit-exact results, the differential-oracle
contract), float mode on machine doubles.  For backends without a
levelized stream, :func:`shannon_count` computes the same quantity
through the public protocol (``root_var`` / ``restrict_edge``) with a
per-node memo — linear in the diagram, correct for any backend.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence, Tuple

from repro.core.exceptions import BBDDError


class WmcError(BBDDError):
    """Raised for malformed weights or undefined conditional queries."""


def _scalar(value, exact: bool):
    """One weight as a :class:`~fractions.Fraction` or a float."""
    try:
        return Fraction(value) if exact else float(value)
    except (TypeError, ValueError) as exc:
        raise WmcError(f"weight {value!r} is not a number") from exc


def resolve_weights(
    manager,
    weights,
    *,
    probabilities: bool,
    exact: bool = True,
) -> Tuple[list, list, object, object]:
    """Per-variable weight columns from a user mapping.

    :param manager: anything with ``num_vars`` and ``var_index`` —
        a manager, or a frozen :class:`repro.par.shm.ShmForest`.
    :param weights: mapping of variable (name or index) to either a
        single number ``p`` (meaning ``(p, 1 - p)``) or, when
        ``probabilities`` is false, a ``(w1, w0)`` pair.  ``None``
        means all defaults.
    :param probabilities: probability mode — values must be single
        numbers in ``[0, 1]`` and unmentioned variables default to
        ``1/2``; in plain weighted-count mode unmentioned variables
        default to ``(1, 1)`` (they sum out), and weights may be any
        numbers, including negative.
    :param exact: exact :class:`~fractions.Fraction` arithmetic
        (default) or floats.
    :returns: ``(w1, w0, one, zero)`` — two columns indexed by
        variable index plus the scalar constants of the chosen
        arithmetic.
    :raises WmcError: for non-numeric weights, pairs in probability
        mode, or probabilities outside ``[0, 1]``.
    """
    one = Fraction(1) if exact else 1.0
    zero = one - one
    n = manager.num_vars
    if probabilities:
        half = one / 2
        w1 = [half] * n
        w0 = [one - half] * n
    else:
        w1 = [one] * n
        w0 = [one] * n
    if weights:
        for var, value in weights.items():
            index = manager.var_index(var)
            if isinstance(value, (tuple, list)):
                if probabilities:
                    raise WmcError(
                        "probability weights are single numbers in [0, 1]; "
                        f"got the pair {value!r} for {var!r} "
                        "(pairs are for weighted_count)"
                    )
                if len(value) != 2:
                    raise WmcError(
                        f"weight pair for {var!r} must have exactly two "
                        f"entries (w1, w0); got {value!r}"
                    )
                hi = _scalar(value[0], exact)
                lo = _scalar(value[1], exact)
            else:
                hi = _scalar(value, exact)
                lo = one - hi
                if probabilities and not zero <= hi <= one:
                    raise WmcError(
                        f"probability for {var!r} must lie in [0, 1]; "
                        f"got {value!r}"
                    )
            w1[index] = hi
            w0[index] = lo
    return w1, w0, one, zero


def total_mass(w1: Sequence, w0: Sequence, one):
    """``prod(w1[v] + w0[v])`` — the weighted count of ``TRUE``."""
    total = one
    for hi, lo in zip(w1, w0):
        total = total * (hi + lo)
    return total


def level_stream(source, edge):
    """``(root_key, items, order, positions)`` for the sweeps, or None.

    :param source: a manager or a frozen
        :class:`repro.par.shm.ShmForest` — anything with the read side
        of the edge protocol (``batch_stream``, ``order``, ...).

    None for constants and for sources without a levelized
    ``batch_stream`` or a variable order; those take the protocol-pure
    :func:`shannon_count` path instead.
    """
    order_obj = getattr(source, "order", None)
    if order_obj is None or source.edge_is_sink(edge):
        return None
    stream = source.batch_stream([edge])
    if stream is None:
        return None
    (root_key,), items = stream
    order = tuple(order_obj.order)
    positions = [0] * source.num_vars
    for pos, var in enumerate(order):
        positions[var] = pos
    return root_key, items, order, positions


def sat_count_edge(source, edge) -> int:
    """Satisfying assignments of ``edge`` over all of ``source``'s variables.

    One exact integer bottom-up count (:func:`sat_counts`) over the
    reversed ``batch_stream`` of a manager or a frozen
    :class:`repro.par.shm.ShmForest`; a source without a stream takes
    :func:`shannon_count` with unit weights.
    """
    n = source.num_vars
    if source.edge_is_sink(edge):
        return 0 if source.edge_is_false(edge) else 1 << n
    stream = source.batch_stream([edge])
    if stream is None:
        one = Fraction(1)
        return int(shannon_count(source, edge, [one] * n, [one] * n, one, one - one))
    (root_key,), items = stream
    count = sat_counts(list(items), n)[root_key]
    return (1 << n) - count if source.edge_attr(edge) else count


def weighted_count_edge(source, edge, w1: Sequence, w0: Sequence, one, zero):
    """Weighted model count of ``edge`` (see :mod:`repro.wmc`).

    ``w1``/``w0`` are per-variable weight columns indexed by variable
    index, ``one``/``zero`` the units of the arithmetic in use
    (Fractions or floats).  With a levelized stream
    (:func:`level_stream`) this is the one-pass :func:`mass_sweep`;
    any other source takes the protocol-pure memoized Shannon recursion
    (:func:`shannon_count`) — correct without knowing the node layout.
    """
    if source.edge_is_sink(edge):
        return zero if source.edge_is_false(edge) else total_mass(w1, w0, one)
    stream = level_stream(source, edge)
    if stream is None:
        return shannon_count(source, edge, w1, w0, one, zero)
    root_key, items, order, positions = stream
    return mass_sweep(
        root_key,
        source.edge_attr(edge),
        items,
        order=order,
        positions=positions,
        w1=w1,
        w0=w0,
        one=one,
        zero=zero,
    )


def sat_counts(items: Sequence[tuple], num_vars: int) -> dict:
    """Model count of every streamed node, over all ``num_vars`` variables.

    :param items: a parents-first list of 9-tuple items, as produced by
        ``batch_stream``; it is walked in reverse, so every child is
        counted before its parents.
    :param num_vars: the number of variables the counts range over.
    :returns: ``{key: count}`` for the regular function of each node.

    A node is ``t`` where its test holds and ``f`` elsewhere, and
    neither child depends on the node's primary variable, so for every
    assignment of the other variables exactly one value of it takes
    each branch: the count is half the children's counts summed.  No
    order position is needed; a complemented edge counts
    ``2^num_vars - count``.
    """
    full = 1 << num_vars
    counts: Dict[object, int] = {}
    for key, _pv, _sv, t_key, t_flip, _t_pv, f_key, f_flip, _f_pv in reversed(items):
        t = full if t_key is None else counts[t_key]
        f = full if f_key is None else counts[f_key]
        counts[key] = ((full - t if t_flip else t) + (full - f if f_flip else f)) >> 1
    return counts


def mass_sweep(
    root_key,
    root_attr: bool,
    items,
    *,
    order: Sequence[int],
    positions: Sequence[int],
    w1: Sequence,
    w0: Sequence,
    one,
    zero,
):
    """Weighted count of one diagram from its levelized item stream.

    :param root_key: the node key the stream names as the root (mass is
        seeded when its item appears; streamed nodes the root does not
        reach stay massless).
    :param root_attr: complement attribute of the root edge.
    :param items: parents-first 9-tuple items as produced by
        ``batch_stream``.
    :param order: variable indices by order position.
    :param positions: order position by variable index.
    :param w1: weight of assigning 1, indexed by variable.
    :param w0: weight of assigning 0, indexed by variable.
    :param one: multiplicative unit of the arithmetic in use.
    :param zero: additive unit of the arithmetic in use.
    :returns: the weighted count, in the same scalar type as ``one``.

    Per node the sweep keeps masses keyed ``(parity, pv_value)``;
    skipped order positions multiply in their weight sum via prefix
    products.  A sum may be zero (``(1, -1)``, say) while the count is
    not — a variable the diagram tests never multiplies in its sum — so
    the prefix products take only the nonzero sums, a prefix count
    tracks the zero ones, and mass crossing a gap that holds a zero sum
    is dropped: no sum is ever divided by.
    """
    n = len(order)
    prefix = [one]
    zeros = [0]
    for var in order:
        s = w1[var] + w0[var]
        if s == zero:
            prefix.append(prefix[-1])
            zeros.append(zeros[-1] + 1)
        else:
            prefix.append(prefix[-1] * s)
            zeros.append(zeros[-1])
    root_attr = bool(root_attr)
    masses: Dict[object, dict] = {}
    acc = zero

    def route(branch_key, branch_pv, flip, parity, mass, from_pos):
        """Push ``mass`` (integrated above ``from_pos``) down one edge."""
        nonlocal acc
        if not mass:
            return
        parity ^= flip
        if branch_key is None:
            if not parity and zeros[n] == zeros[from_pos]:
                acc += mass * (prefix[n] / prefix[from_pos])
            return
        q = positions[branch_pv]
        if zeros[q] != zeros[from_pos]:
            return
        mass = mass * (prefix[q] / prefix[from_pos])
        slots = masses.get(branch_key)
        if slots is None:
            slots = masses[branch_key] = {}
        hi_key = (parity, True)
        lo_key = (parity, False)
        slots[hi_key] = slots.get(hi_key, zero) + mass * w1[branch_pv]
        slots[lo_key] = slots.get(lo_key, zero) + mass * w0[branch_pv]

    for key, pv, sv, t_key, t_flip, t_pv, f_key, f_flip, f_pv in items:
        if key == root_key:
            # Seed at the root's own item: gap factors above it are
            # free, and its pv weight splits the initial mass.
            p = positions[pv]
            base = zero if zeros[p] else prefix[p]
            slots = masses.setdefault(key, {})
            hi_key = (root_attr, True)
            lo_key = (root_attr, False)
            slots[hi_key] = slots.get(hi_key, zero) + base * w1[pv]
            slots[lo_key] = slots.get(lo_key, zero) + base * w0[pv]
        m = masses.pop(key, None)
        if m is None:
            # Streamed but unreachable from this root (a forest
            # stream): no mass, nothing to do.
            continue
        p = positions[pv]
        if sv is None:
            # Single-variable test (literal / Shannon): value 1 -> t.
            for parity in (False, True):
                hi = m.get((parity, True))
                lo = m.get((parity, False))
                if hi:
                    route(t_key, t_pv, t_flip, parity, hi, p + 1)
                if lo:
                    route(f_key, f_pv, f_flip, parity, lo, p + 1)
        else:
            # Couple (pv, sv): pv != sv -> t.  The =-branch pairs the
            # pv=1 mass with sv=1 and pv=0 with sv=0 (p*q + (1-p)(1-q)
            # for probabilities); the !=-branch crosses them.  A child
            # rooted *at* sv keeps the per-value split; deeper children
            # integrate sv out.
            s = sv
            ps = positions[s]
            if zeros[ps] != zeros[p + 1]:
                continue
            gap = prefix[ps] / prefix[p + 1]
            ws1 = w1[s]
            ws0 = w0[s]
            for parity in (False, True):
                hi = m.get((parity, True), zero)
                lo = m.get((parity, False), zero)
                if not hi and not lo:
                    continue
                for branch_key, branch_pv, flip, m_s1, m_s0 in (
                    (t_key, t_pv, t_flip, lo * ws1, hi * ws0),
                    (f_key, f_pv, f_flip, hi * ws1, lo * ws0),
                ):
                    m_s1 = m_s1 * gap
                    m_s0 = m_s0 * gap
                    out = parity ^ flip
                    if branch_key is None:
                        if not out and zeros[n] == zeros[ps + 1]:
                            acc += (m_s1 + m_s0) * (prefix[n] / prefix[ps + 1])
                        continue
                    if branch_pv != s:
                        q = positions[branch_pv]
                        if zeros[q] != zeros[ps + 1]:
                            continue
                        mm = (m_s1 + m_s0) * (prefix[q] / prefix[ps + 1])
                        m_s1 = mm * w1[branch_pv]
                        m_s0 = mm * w0[branch_pv]
                    slots = masses.get(branch_key)
                    if slots is None:
                        slots = masses[branch_key] = {}
                    hi_key = (out, True)
                    lo_key = (out, False)
                    slots[hi_key] = slots.get(hi_key, zero) + m_s1
                    slots[lo_key] = slots.get(lo_key, zero) + m_s0
    return acc


def _add_pair(masses, key, out, hi, lo) -> None:
    """Add ``(hi, lo)`` to parity ``out`` of ``key``'s slot list."""
    slots = masses.get(key)
    if slots is None:
        slots = masses[key] = [None, None, None, None]
    at = 2 if out else 0
    if slots[at] is None:
        slots[at] = hi
        slots[at + 1] = lo
    else:
        slots[at] += hi
        slots[at + 1] += lo


def joint_sweep(
    root_key,
    root_attr: bool,
    items,
    *,
    order: Sequence[int],
    positions: Sequence[int],
    w1: Sequence,
    w0: Sequence,
    one,
    zero,
):
    """``p(f = 1)`` and every joint ``p(f = 1, v = 1)`` in two passes.

    The weights must be probabilities (``w1[v] + w0[v] == 1``, as
    :func:`resolve_weights` makes them in probability mode), so skipped
    variables are free factors of one.  The arguments are those of
    :func:`mass_sweep`.

    :returns: ``(p, joint)`` — ``p(f = 1)`` and a list indexed by
        variable index holding ``p(f = 1, v = 1)``.  Both equal what
        :func:`mass_sweep` returns with ``w0[v]`` pinned to zero (and
        unpinned, for ``p``), bit for bit in exact mode.

    The forward pass is :func:`mass_sweep`'s arithmetic, with every
    node's slot masses kept.  The backward pass visits the same nodes
    children-first and gives each slot its downstream value
    ``d p / d slot`` (the differential method of Darwiche's arithmetic
    circuits).  ``p`` is linear in each variable's pair ``(w1, w0)``,
    so the joint of ``v`` is the sum, over every use of ``w1[v]``, of
    the mass flowing through it times its downstream value.  The uses
    are: entering a node whose primary variable is ``v`` (one credit
    per slot: all mass in a ``(parity, 1)`` slot carries ``w1[pv]``),
    ``w1[sv]`` at a couple whose child does not start at ``sv``, and
    the weight sum of ``v`` wherever a path skips its position —
    collected in one difference array over positions.

    Slots exist by structure (a parity reached from the root), never by
    value, so a slot's downstream value is defined even when its mass
    is zero.
    """
    n = len(order)
    root_attr = bool(root_attr)
    masses: Dict[object, list] = {}
    visited = []
    p_true = zero
    # Forward: mass_sweep with unit gap factors and kept slots.  Slot
    # lists are ``[hi, lo]`` for the even parity, then the odd one;
    # ``None`` marks a parity no root path reaches.
    for item in items:
        key, pv, sv, t_key, t_flip, t_pv, f_key, f_flip, f_pv = item
        if key == root_key:
            _add_pair(masses, key, root_attr, w1[pv], w0[pv])
        m = masses.get(key)
        if m is None:
            continue
        visited.append(item)
        for at in (0, 2):
            hi = m[at]
            if hi is None:
                continue
            lo = m[at + 1]
            parity = at == 2
            if sv is None:
                branches = ((t_key, t_pv, t_flip, hi), (f_key, f_pv, f_flip, lo))
                for child, c_pv, flip, mass in branches:
                    out = parity ^ flip
                    if child is None:
                        if not out:
                            p_true += mass
                    else:
                        _add_pair(masses, child, out, mass * w1[c_pv], mass * w0[c_pv])
                continue
            ws1 = w1[sv]
            ws0 = w0[sv]
            for child, c_pv, flip, s1, s0 in (
                (t_key, t_pv, t_flip, lo * ws1, hi * ws0),
                (f_key, f_pv, f_flip, hi * ws1, lo * ws0),
            ):
                out = parity ^ flip
                if child is None:
                    if not out:
                        p_true += s1 + s0
                elif c_pv == sv:
                    _add_pair(masses, child, out, s1, s0)
                else:
                    mm = s1 + s0
                    _add_pair(masses, child, out, mm * w1[c_pv], mm * w0[c_pv])
    joint = [zero] * len(w1)
    if root_key not in masses:
        return p_true, joint
    # Backward.  ``down[key]`` holds the downstream value of each slot
    # (same layout as the masses); ``enter[key]`` the value of entering
    # the node from above, ``w1[pv]·down_hi + w0[pv]·down_lo``, per
    # parity.  The 0-sink is worth 1 under an even parity, else 0.
    down: Dict[object, list] = {}
    enter: Dict[object, list] = {}
    sink = (one, zero)
    gaps = [zero] * (n + 1)
    for item in reversed(visited):
        key, pv, sv, t_key, t_flip, t_pv, f_key, f_flip, f_pv = item
        m = masses[key]
        p = positions[pv]
        d = [None, None, None, None]
        e = [None, None]
        hi_w = w1[pv]
        lo_w = w0[pv]
        if sv is None:
            # Per branch: entry values and the end of the gap below p.
            t_values, t_end = (sink, n)
            if t_key is not None:
                t_values, t_end = enter[t_key], positions[t_pv]
            f_values, f_end = (sink, n)
            if f_key is not None:
                f_values, f_end = enter[f_key], positions[f_pv]
            for at in (0, 2):
                hi = m[at]
                if hi is None:
                    continue
                parity = at == 2
                d_hi = t_values[parity ^ t_flip]
                d_lo = f_values[parity ^ f_flip]
                d[at] = d_hi
                d[at + 1] = d_lo
                e[parity] = hi_w * d_hi + lo_w * d_lo
                flow_hi = hi * d_hi
                joint[pv] += flow_hi
                if t_end > p + 1:
                    gaps[p + 1] += flow_hi
                    gaps[t_end] -= flow_hi
                if f_end > p + 1:
                    flow_lo = m[at + 1] * d_lo
                    gaps[p + 1] += flow_lo
                    gaps[f_end] -= flow_lo
        else:
            ps = positions[sv]
            ws1 = w1[sv]
            ws0 = w0[sv]
            # Per branch: child values and the end of the gap below sv;
            # a child starting at sv keeps the split (end None).
            branches = []
            for child, c_pv in ((t_key, t_pv), (f_key, f_pv)):
                if child is None:
                    branches.append((sink, n))
                elif c_pv == sv:
                    branches.append((down[child], None))
                else:
                    branches.append((enter[child], positions[c_pv]))
            (t_values, t_end), (f_values, f_end) = branches
            for at in (0, 2):
                hi = m[at]
                if hi is None:
                    continue
                lo = m[at + 1]
                parity = at == 2
                t_out = parity ^ t_flip
                f_out = parity ^ f_flip
                if t_end is None:
                    t1 = t_values[2 if t_out else 0]
                    t0 = t_values[3 if t_out else 1]
                else:
                    t1 = t0 = t_values[t_out]
                if f_end is None:
                    f1 = f_values[2 if f_out else 0]
                    f0 = f_values[3 if f_out else 1]
                else:
                    f1 = f0 = f_values[f_out]
                # t takes (lo·ws1, hi·ws0), f takes (hi·ws1, lo·ws0).
                d_hi = ws0 * t0 + ws1 * f1
                d_lo = ws1 * t1 + ws0 * f0
                d[at] = d_hi
                d[at + 1] = d_lo
                e[parity] = hi_w * d_hi + lo_w * d_lo
                flow_hi = hi * d_hi
                joint[pv] += flow_hi
                if ps > p + 1:
                    through = flow_hi + lo * d_lo
                    gaps[p + 1] += through
                    gaps[ps] -= through
                for end, s1, s0, value in (
                    (t_end, lo * ws1, hi * ws0, t1),
                    (f_end, hi * ws1, lo * ws0, f1),
                ):
                    if end is None:
                        continue
                    joint[sv] += s1 * value
                    if end > ps + 1:
                        through = (s1 + s0) * value
                        gaps[ps + 1] += through
                        gaps[end] -= through
        down[key] = d
        enter[key] = e
    # Every path skips the positions above the root (the first item).
    root_pos = positions[visited[0][1]]
    if root_pos:
        gaps[0] += p_true
        gaps[root_pos] -= p_true
    running = zero
    for pos in range(n):
        running += gaps[pos]
        if running:
            var = order[pos]
            joint[var] += running * w1[var]
    return p_true, joint


def shannon_count(manager, edge, w1: Sequence, w0: Sequence, one, zero):
    """Weighted count through the public protocol, one memo per node.

    The per-node fallback for backends without ``batch_stream``: a
    memoized Shannon recursion over ``root_var`` / ``restrict_edge``
    (iterative, like :func:`repro.api.base.rebuild_function`'s
    protocol path).  Each node computes the *normalized* mass
    ``(w1(v)·p(f|v=1) + w0(v)·p(f|v=0)) / (w1(v) + w0(v))`` so skipped
    variables need no position bookkeeping; the total weight
    ``prod(w1 + w0)`` multiplies back in at the end.

    Normalizing divides by weight sums, so a pair summing to zero is
    handled up front: the count is exactly zero when both weights are
    zero or the function does not depend on the variable, and otherwise
    :class:`WmcError` names it (:func:`mass_sweep` counts those pairs).
    """
    zero_sums = [var for var, (hi, lo) in enumerate(zip(w1, w0)) if hi + lo == zero]
    if zero_sums:
        support = manager.support_edge(edge)
        if any(not w1[var] or var not in support for var in zero_sums):
            return zero
        raise WmcError(
            f"the weights of {manager.var_name(zero_sums[0])!r} sum to zero; "
            "only a backend with a levelized batch_stream counts them"
        )
    sums: Dict[int, object] = {}
    total = one
    for var, (hi, lo) in enumerate(zip(w1, w0)):
        sums[var] = hi + lo
        total = total * sums[var]
    memo: Dict[object, object] = {}
    pending: Dict[object, tuple] = {}
    edge_uid = manager.edge_uid
    with manager.defer_gc():
        stack = [edge]
        while stack:
            e = stack[-1]
            uid = edge_uid(e)
            if uid in memo:
                stack.pop()
                continue
            entry = pending.pop(uid, None)
            if entry is not None:
                var, hi_e, lo_e = entry
                memo[uid] = (
                    w1[var] * memo[edge_uid(hi_e)]
                    + w0[var] * memo[edge_uid(lo_e)]
                ) / sums[var]
                stack.pop()
                continue
            if manager.edge_is_sink(e):
                memo[uid] = zero if manager.edge_is_false(e) else one
                stack.pop()
                continue
            var = manager.root_var(e)
            hi_e = manager.restrict_edge(e, var, True)
            lo_e = manager.restrict_edge(e, var, False)
            pending[uid] = (var, hi_e, lo_e)
            stack.append(lo_e)
            stack.append(hi_e)
    return memo[edge_uid(edge)] * total
