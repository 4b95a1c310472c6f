"""Weighted model counting and probabilistic inference (`repro.wmc`).

Treats a decision diagram as the arithmetic circuit of its Boolean
function (the "BDDs are a subset of Bayesian nets" view): per-variable
weights flow through the same top-down levelized sweep batch
evaluation uses, giving the weighted count and the probability
``p(f = 1)`` under independent inputs in one ``O(nodes)`` pass, and
the posterior marginals of *all* variables in one downward and one
upward pass (:func:`repro.wmc.sweep.joint_sweep`) — with exact
:class:`fractions.Fraction` arithmetic by default.

Each query is written once over a ``(source, edge)`` pair
(:func:`weighted_count_of`, :func:`p_one_of`, :func:`marginals_of`),
where the source is a manager or a frozen
:class:`repro.par.shm.ShmForest` and the sweep runs over the edge's
cone.  The conveniences :func:`weighted_count`, :func:`p_one` and
:func:`marginals` take :class:`repro.api.base.FunctionBase` handles;
the same queries are methods on functions (``f.p_one(...)``), on
managers (``manager.weighted_count(f, ...)``) and, keyed by root name,
on frozen forests (``forest.p_one("y0", ...)``).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.wmc.sweep import (
    WmcError,
    joint_sweep,
    level_stream,
    mass_sweep,
    resolve_weights,
    shannon_count,
    total_mass,
    weighted_count_edge,
)

__all__ = [
    "WmcError",
    "joint_sweep",
    "mass_sweep",
    "marginals",
    "marginals_of",
    "p_one",
    "p_one_of",
    "resolve_weights",
    "shannon_count",
    "total_mass",
    "weighted_count",
    "weighted_count_of",
]


def _count_sweeps(count: int = 1) -> None:
    """Bump the ``repro_wmc_sweeps_total`` observability counter."""
    from repro import obs
    from repro.obs.catalog import family

    family(obs.REGISTRY, "repro_wmc_sweeps_total").inc(count)


def weighted_count_of(source, edge, weights: Optional[Mapping] = None, *, exact: bool = True):
    """The weighted model count of ``edge`` over all of ``source``'s variables.

    :param source: a manager, or a frozen :class:`repro.par.shm.ShmForest`.
    :param edge: an edge of ``source`` (a signed slot reference on a
        frozen forest).
    :param weights: mapping of variable to a ``(w1, w0)`` pair or a
        single number ``p`` (shorthand for ``(p, 1 - p)``); unmentioned
        variables weigh ``(1, 1)``, so with uniform ``1/2`` weights on
        the support this equals ``sat_count / 2^|support|`` and with no
        weights at all it is exactly ``sat_count``.
    :param exact: exact Fraction arithmetic (default) or floats.
    """
    w1, w0, one, zero = resolve_weights(
        source, weights, probabilities=False, exact=exact
    )
    _count_sweeps()
    return weighted_count_edge(source, edge, w1, w0, one, zero)


def p_one_of(source, edge, weights: Optional[Mapping] = None, *, exact: bool = True):
    """``p(edge = 1)`` under independent per-variable probabilities.

    :param source: a manager, or a frozen :class:`repro.par.shm.ShmForest`.
    :param edge: an edge of ``source``.
    :param weights: mapping of variable to ``p(v = 1)`` in ``[0, 1]``;
        unmentioned variables default to ``1/2``.
    :param exact: exact Fraction arithmetic (default) or floats.
    """
    w1, w0, one, zero = resolve_weights(
        source, weights, probabilities=True, exact=exact
    )
    _count_sweeps()
    return weighted_count_edge(source, edge, w1, w0, one, zero)


def marginals_of(
    source,
    edge,
    weights: Optional[Mapping] = None,
    variables=None,
    *,
    exact: bool = True,
) -> dict:
    """Posterior marginals ``p(v = 1 | edge = 1)`` per support variable.

    All of them come from one :func:`joint_sweep`: a forward pass
    yields ``p(f = 1)`` and a backward pass every joint
    ``p(f = 1, v = 1)``, so the cost is a small constant times one
    ``p_one`` whatever the number of variables.  Sources without a
    levelized stream re-count once per variable with ``w0[v]`` pinned
    to zero.

    :param source: a manager, or a frozen :class:`repro.par.shm.ShmForest`.
    :param edge: an edge of ``source``.
    :param variables: None (the support, in name order), one variable,
        or an iterable of variables (names or indices); variables
        outside the support get their prior.
    :raises WmcError: when ``p(f = 1)`` is zero — the posterior is
        undefined.
    """
    w1, w0, one, zero = resolve_weights(
        source, weights, probabilities=True, exact=exact
    )
    if variables is None:
        indices = sorted(source.support_edge(edge), key=source.var_name)
    elif isinstance(variables, (str, int)):
        indices = [source.var_index(variables)]
    else:
        indices = [source.var_index(var) for var in variables]
    stream = level_stream(source, edge)
    if stream is not None:
        root_key, items, order, positions = stream
        p, joint = joint_sweep(
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
        _count_sweeps(2)
    elif source.edge_is_sink(edge):
        p, joint = (zero if source.edge_is_false(edge) else one), w1
        _count_sweeps(2)
    else:
        p = weighted_count_edge(source, edge, w1, w0, one, zero)
        joint = {}
        for index in indices:
            held = w0[index]
            w0[index] = zero
            joint[index] = weighted_count_edge(source, edge, w1, w0, one, zero)
            w0[index] = held
        _count_sweeps(1 + len(indices))
    if not p:
        raise WmcError(
            "marginals are undefined: p(f = 1) is 0 under these weights"
        )
    return {source.var_name(index): joint[index] / p for index in indices}


def weighted_count(f, weights: Optional[Mapping] = None, *, exact: bool = True):
    """The weighted model count of function handle ``f`` (see :func:`weighted_count_of`)."""
    return weighted_count_of(f.manager, f.edge, weights, exact=exact)


def p_one(f, weights: Optional[Mapping] = None, *, exact: bool = True):
    """``p(f = 1)`` of function handle ``f`` (see :func:`p_one_of`)."""
    return p_one_of(f.manager, f.edge, weights, exact=exact)


def marginals(
    f,
    weights: Optional[Mapping] = None,
    variables=None,
    *,
    exact: bool = True,
) -> dict:
    """Posterior marginals ``p(v = 1 | f = 1)`` of function handle ``f``.

    See :func:`marginals_of`.
    """
    return marginals_of(f.manager, f.edge, weights, variables, exact=exact)
