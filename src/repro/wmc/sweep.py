"""The weighted-counting mass sweep and its protocol-pure fallback.

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

Arithmetic is generic over the scalar type: exact mode runs on
:class:`fractions.Fraction` (bit-exact results, the differential-oracle
contract), float mode on machine doubles.  For backends without a
levelized stream, :func:`shannon_count` computes the same quantity
through the public protocol (``root_var`` / ``restrict_edge``) with a
per-node memo — linear in the diagram, correct for any backend.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

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
        seeded when its item appears, so shared multi-root stores can
        stream every stored node and non-reachable ones stay massless).
    :param root_attr: complement attribute of the root edge.
    :param items: parents-first 9-tuple items as produced by
        ``batch_stream`` / :meth:`repro.par.shm.ShmForest._items`.
    :param order: variable indices by order position.
    :param positions: order position by variable index.
    :param w1: weight of assigning 1, indexed by variable.
    :param w0: weight of assigning 0, indexed by variable.
    :param one: multiplicative unit of the arithmetic in use.
    :param zero: additive unit of the arithmetic in use.
    :returns: the weighted count, in the same scalar type as ``one``.

    Per node the sweep keeps masses keyed ``(parity, pv_value)``;
    skipped order positions multiply in their weight sum via prefix
    products.  Any variable whose weights sum to the exact zero makes
    every full-assignment product zero, so the sweep short-circuits.
    """
    n = len(order)
    sums = []
    for var in order:
        s = w1[var] + w0[var]
        if s == zero:
            return zero
        sums.append(s)
    prefix = [one]
    for s in sums:
        prefix.append(prefix[-1] * s)
    total = prefix[n]
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
            if not parity:
                acc += mass * (total / prefix[from_pos])
            return
        q = positions[branch_pv]
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
            base = prefix[positions[pv]]
            slots = masses.setdefault(key, {})
            hi_key = (root_attr, True)
            lo_key = (root_attr, False)
            slots[hi_key] = slots.get(hi_key, zero) + base * w1[pv]
            slots[lo_key] = slots.get(lo_key, zero) + base * w0[pv]
        m = masses.pop(key, None)
        if m is None:
            # Stored but unreachable from this root (shared stores
            # stream every slot): no mass, nothing to do.
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
                        if not out:
                            acc += (m_s1 + m_s0) * (total / prefix[ps + 1])
                        continue
                    slots = masses.get(branch_key)
                    if slots is None:
                        slots = masses[branch_key] = {}
                    if branch_pv == s:
                        hi_key = (out, True)
                        lo_key = (out, False)
                        slots[hi_key] = slots.get(hi_key, zero) + m_s1
                        slots[lo_key] = slots.get(lo_key, zero) + m_s0
                    else:
                        q = positions[branch_pv]
                        mm = (m_s1 + m_s0) * (prefix[q] / prefix[ps + 1])
                        hi_key = (out, True)
                        lo_key = (out, False)
                        slots[hi_key] = (
                            slots.get(hi_key, zero) + mm * w1[branch_pv]
                        )
                        slots[lo_key] = (
                            slots.get(lo_key, zero) + mm * w0[branch_pv]
                        )
    return acc


def shannon_count(manager, edge, w1: Sequence, w0: Sequence, one, zero):
    """Weighted count through the public protocol, one memo per node.

    The per-node fallback for backends without ``batch_stream``: a
    memoized Shannon recursion over ``root_var`` / ``restrict_edge``
    (iterative, like :func:`repro.api.base.rebuild_function`'s
    protocol path).  Each node computes the *normalized* mass
    ``(w1(v)·p(f|v=1) + w0(v)·p(f|v=0)) / (w1(v) + w0(v))`` so skipped
    variables need no position bookkeeping; the total weight
    ``prod(w1 + w0)`` multiplies back in at the end.
    """
    sums: Dict[int, object] = {}
    total = one
    for var, (hi, lo) in enumerate(zip(w1, w0)):
        s = hi + lo
        if s == zero:
            return zero
        sums[var] = s
        total = total * s
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
