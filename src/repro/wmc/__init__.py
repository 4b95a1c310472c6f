"""Weighted model counting and probabilistic inference (`repro.wmc`).

Treats a decision diagram as the arithmetic circuit of its Boolean
function (the "BDDs are a subset of Bayesian nets" view): per-variable
weights flow through the same top-down levelized sweep batch
evaluation uses, giving the weighted count and the probability
``p(f = 1)`` under independent inputs in one ``O(nodes)`` pass, and
the posterior marginals of *all* variables in one downward and one
upward pass (:func:`repro.wmc.sweep.joint_sweep`) — with exact
:class:`fractions.Fraction` arithmetic by default.

The conveniences here take :class:`repro.api.base.FunctionBase`
handles; the same queries are methods on functions
(``f.p_one(...)``, ``f.weighted_count(...)``, ``f.marginals(...)``),
on managers (``manager.weighted_count(f, ...)``) and on frozen
shared-memory forests (:class:`repro.par.shm.ShmForest` answers them
zero-copy straight off the segment arrays).
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
)

__all__ = [
    "WmcError",
    "joint_sweep",
    "mass_sweep",
    "marginals",
    "p_one",
    "resolve_weights",
    "shannon_count",
    "total_mass",
    "weighted_count",
]


def _count_sweeps(count: int = 1) -> None:
    """Bump the ``repro_wmc_sweeps_total`` observability counter."""
    from repro import obs
    from repro.obs.catalog import family

    family(obs.REGISTRY, "repro_wmc_sweeps_total").inc(count)


def weighted_count(f, weights: Optional[Mapping] = None, *, exact: bool = True):
    """The weighted model count of ``f`` over all manager variables.

    :param f: a function handle of any backend.
    :param weights: mapping of variable to a ``(w1, w0)`` pair or a
        single number ``p`` (shorthand for ``(p, 1 - p)``); unmentioned
        variables weigh ``(1, 1)``, so with uniform ``1/2`` weights on
        the support this equals ``sat_count / 2^|support|`` and with no
        weights at all it is exactly ``sat_count``.
    :param exact: exact Fraction arithmetic (default) or floats.
    """
    manager = f.manager
    w1, w0, one, zero = resolve_weights(
        manager, weights, probabilities=False, exact=exact
    )
    _count_sweeps()
    return manager.weighted_count_edge(f.edge, w1, w0, one, zero)


def p_one(f, weights: Optional[Mapping] = None, *, exact: bool = True):
    """``p(f = 1)`` under independent per-variable probabilities.

    :param f: a function handle of any backend.
    :param weights: mapping of variable to ``p(v = 1)`` in ``[0, 1]``;
        unmentioned variables default to ``1/2``.
    :param exact: exact Fraction arithmetic (default) or floats.
    """
    manager = f.manager
    w1, w0, one, zero = resolve_weights(
        manager, weights, probabilities=True, exact=exact
    )
    _count_sweeps()
    return manager.weighted_count_edge(f.edge, w1, w0, one, zero)


def _marginal_indices(source, variables, support) -> list:
    """Variable indices a ``marginals`` query asks about.

    :param source: a manager or :class:`repro.par.shm.ShmForest`.
    :param variables: None (meaning ``support``), one variable, or an
        iterable of variables (names or indices).
    :param support: the default, already as indices.
    """
    if variables is None:
        return list(support)
    if isinstance(variables, (str, int)):
        return [source.var_index(variables)]
    return [source.var_index(var) for var in variables]


def _posteriors(source, p, joint, indices) -> dict:
    """``{name: joint[v] / p}`` over ``indices``.

    :raises WmcError: when ``p`` (that is ``p(f = 1)``) is zero.
    """
    if not p:
        raise WmcError(
            "marginals are undefined: p(f = 1) is 0 under these weights"
        )
    return {source.var_name(index): joint[index] / p for index in indices}


def marginals(
    f,
    weights: Optional[Mapping] = None,
    variables=None,
    *,
    exact: bool = True,
) -> dict:
    """Posterior marginals ``p(v = 1 | f = 1)`` per support variable.

    All of them come from one :func:`joint_sweep`: a forward pass
    yields ``p(f = 1)`` and a backward pass every joint
    ``p(f = 1, v = 1)``, so the cost is a small constant times one
    ``p_one`` whatever the number of variables.  Backends without a
    levelized stream re-count once per variable with ``w0[v]`` pinned
    to zero.  :param variables: restricts/extends the queried set
    (default: the support, in name order).

    :raises WmcError: when ``p(f = 1)`` is zero — the posterior is
        undefined.
    """
    manager = f.manager
    edge = f.edge
    w1, w0, one, zero = resolve_weights(
        manager, weights, probabilities=True, exact=exact
    )
    indices = _marginal_indices(
        manager, variables, [manager.var_index(v) for v in sorted(f.support())]
    )
    if manager.edge_is_sink(edge):
        _count_sweeps(2)
        return _posteriors(
            manager, zero if manager.edge_is_false(edge) else one, w1, indices
        )
    stream = level_stream(manager, edge)
    if stream is None:
        p = manager.weighted_count_edge(edge, w1, w0, one, zero)
        joint = {}
        for index in indices:
            held = w0[index]
            w0[index] = zero
            joint[index] = manager.weighted_count_edge(edge, w1, w0, one, zero)
            w0[index] = held
        _count_sweeps(1 + len(indices))
        return _posteriors(manager, p, joint, indices)
    root_key, items, order, positions = stream
    p, joint = joint_sweep(
        root_key,
        manager.edge_attr(edge),
        items,
        order=order,
        positions=positions,
        w1=w1,
        w0=w0,
        one=one,
        zero=zero,
    )
    _count_sweeps(2)
    return _posteriors(manager, p, joint, indices)
