"""Backend-agnostic manager protocol and the shared function wrapper.

This module defines the two halves of the unified ``repro.api`` front
end (in the style of tulip-control/``dd``):

* :class:`DDManager` — the **edge protocol** every decision-diagram
  backend implements.  A backend subclasses it and provides the
  primitives listed in its docstring, all operating on bare edges.
  An edge is an opaque per-backend value: the flat-store BBDD backend
  uses signed ints, the object backends ``(node, attr)`` tuples — the
  ``edge_*`` accessor hooks (with tuple-edge defaults) are the only
  way shared code inspects one.  Everything user-facing —
  :meth:`DDManager.add_expr`, :meth:`DDManager.let`, the whole
  :class:`FunctionBase` surface — is written once against that protocol
  and works identically on BBDDs (:class:`repro.core.BBDDManager`) and
  on the baseline ROBDDs (:class:`repro.bdd.BDDManager`).
* :class:`FunctionBase` — the user-facing handle.  It owns a reference
  on its root node, overloads the Boolean operators and implements the
  package API (evaluation, sat-count/sat-one, cofactors, composition,
  quantification, simultaneous substitution, expression export) purely
  in terms of the protocol, collapsing what used to be two near-
  duplicate wrapper modules.

Nothing here imports a concrete manager, so backends are free to import
this module at class-definition time.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Union

from repro.core.exceptions import BBDDError, ForeignManagerError, VariableError
from repro.core.operations import (
    OP_AND,
    OP_GT,
    OP_LE,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    op_from_name,
)


def check_assignment_bit(bit, label, where: str) -> None:
    """Validate one assignment value (the shared strictness contract).

    Accepts ``bool`` and int ``0``/``1`` only; anything else raises
    ``TypeError`` naming the variable (``label``) and the context
    (``where`` — e.g. ``"assignment"`` or ``"assignment 3"``).  Used by
    both the single-query path (:meth:`FunctionBase.evaluate`) and the
    batch encoders (:mod:`repro.serve.bulk`), so the two surfaces
    cannot drift apart.
    """
    if isinstance(bit, bool):
        return
    if isinstance(bit, int) and bit in (0, 1):
        return
    raise TypeError(
        f"{where}: value for variable {label!r} must be a Boolean "
        f"(bool, or int 0/1), got {bit!r}"
    )


def duplicate_assignment_error(manager, index: int, where: str) -> VariableError:
    """The shared error for a variable assigned twice (name and index)."""
    return VariableError(
        f"{where} assigns variable {manager.var_name(index)!r} more than once"
    )


class DDManager:
    """The uniform decision-diagram manager protocol.

    A backend subclasses this and implements the primitives below
    (``NotImplementedError`` stubs here document the contract; they all
    take/return bare ``(node, attr)`` edges):

    ``true_edge`` / ``false_edge``
        Terminal edge properties.
    ``literal_edge(var, positive=True)``
        The projection function of a variable (name or index).
    ``apply_edges(f, g, op)``
        Any of the 16 two-operand operators (4-bit truth-table code).
    ``ite_edges(f, g, h)`` / ``restrict_edge(f, var, value)`` /
    ``compose_edge(f, var, g)`` / ``quantify_edge(f, vars, forall)``
        The derived manipulation operations.
    ``evaluate_edge(f, values)`` / ``sat_count_edge(f)`` /
    ``sat_one_edge(f)`` / ``support_edge(f)`` / ``root_var(f)`` /
    ``count_nodes(edges)``
        Semantics and structure queries (``values`` and the returned
        assignments are keyed by variable *index*).
    ``acquire_ref(node)`` / ``release_ref(node)`` / ``defer_gc()``
        Memory management hooks used by the function handles.
    ``var_index`` / ``var_name`` / ``num_vars`` / ``order`` /
    ``current_order`` / ``sift(**kw)`` / ``dump(functions, target)``
        Variable bookkeeping, reordering and persistence.

    The function-returning conveniences (``var``, ``nvar``,
    ``variables``, ``true``, ``false``, ``function``, ``node_count``)
    are installed by the backend's function module.
    """

    #: Registry name of the backend ("bbdd", "bdd", ...).
    backend = "abstract"

    # -- edge accessors ------------------------------------------------------
    #
    # Shared code never destructures an edge itself; it goes through
    # these hooks.  The defaults implement the ``(node, attr)`` tuple
    # coding used by the object backends; the flat-store BBDD backend
    # overrides all of them with signed-int arithmetic.

    def edge_node(self, edge):
        """The root node (handle/view object) of an edge."""
        return edge[0]

    def edge_attr(self, edge) -> bool:
        """The complement attribute of an edge."""
        return edge[1]

    def node_edge(self, node):
        """The regular (attribute-free) edge onto a node handle/view."""
        return (node, False)

    def negate_edge(self, edge):
        """The complement of an edge (no new nodes)."""
        return (edge[0], not edge[1])

    def edge_is_sink(self, edge) -> bool:
        """True iff the edge denotes a constant."""
        return edge[0].is_sink

    def edge_is_false(self, edge) -> bool:
        """True iff the edge denotes the constant FALSE."""
        return edge[0].is_sink and edge[1]

    def edge_uid(self, edge):
        """A hashable identity of the edge (memo keys, hashes)."""
        return (edge[0].uid, edge[1])

    def acquire_edge(self, edge) -> None:
        """Acquire one reference on an edge's root (handle creation)."""
        self.acquire_ref(edge[0])

    def release_edge(self, edge) -> None:
        """Release one reference on an edge's root (handle drop)."""
        self.release_ref(edge[0])

    # -- shared front-end surface (written once, works on any backend) --

    def add_expr(self, text: str):
        """Build a function from a Boolean expression string.

        Grammar (see :mod:`repro.api.expr`): ``& | ^ ~ -> <->``,
        ``ite(f, g, h)``, ``TRUE``/``FALSE``, and the quantifiers
        ``\\E x, y: ...`` / ``\\A x, y: ...``.
        """
        from repro.api.expr import add_expr

        return add_expr(self, text)

    def let(self, substitutions: Mapping, f: "FunctionBase"):
        """Manager-level spelling of :meth:`FunctionBase.let`."""
        if f.manager is not self:
            raise ForeignManagerError("function belongs to a different manager")
        return f.let(substitutions)

    def to_expr(self, f: "FunctionBase") -> str:
        """Manager-level spelling of :meth:`FunctionBase.to_expr`."""
        if f.manager is not self:
            raise ForeignManagerError("function belongs to a different manager")
        return f.to_expr()

    def evaluate_batch(self, f: "FunctionBase", assignments, workers: Optional[int] = None):
        """Manager-level spelling of :meth:`FunctionBase.evaluate_batch`."""
        if f.manager is not self:
            raise ForeignManagerError("function belongs to a different manager")
        return f.evaluate_batch(assignments, workers=workers)

    def weighted_count(self, f: "FunctionBase", weights=None, *, exact: bool = True):
        """Manager-level spelling of :meth:`FunctionBase.weighted_count`."""
        if f.manager is not self:
            raise ForeignManagerError("function belongs to a different manager")
        return f.weighted_count(weights, exact=exact)

    def p_one(self, f: "FunctionBase", weights=None, *, exact: bool = True):
        """Manager-level spelling of :meth:`FunctionBase.p_one`."""
        if f.manager is not self:
            raise ForeignManagerError("function belongs to a different manager")
        return f.p_one(weights, exact=exact)

    def marginals(
        self, f: "FunctionBase", weights=None, variables=None, *, exact: bool = True
    ):
        """Manager-level spelling of :meth:`FunctionBase.marginals`."""
        if f.manager is not self:
            raise ForeignManagerError("function belongs to a different manager")
        return f.marginals(weights, variables, exact=exact)

    def and_exists(self, f: "FunctionBase", g: "FunctionBase", variables):
        """Manager-level spelling of :meth:`FunctionBase.and_exists`."""
        if f.manager is not self or g.manager is not self:
            raise ForeignManagerError("function belongs to a different manager")
        return f.and_exists(g, variables)

    # -- batch protocol (repro.serve) ---------------------------------------

    def batch_stream(self, edge):
        """Top-down level stream of ``edge``'s diagram for cohort sweeps.

        Backends with a levelized structure return ``(root_key, items)``
        where ``items`` yields the reachable nodes parents-first in the
        shape documented in :mod:`repro.serve.bulk`; the batch queries
        below then run as a single sweep.  The default ``None`` makes
        them fall back to one root-to-sink walk per query, so any
        third-party backend is correct without knowing about batching.
        """
        return None

    def evaluate_batch_edges(self, edge, batch):
        """Evaluate one encoded batch (see :mod:`repro.serve.bulk`).

        With a :meth:`batch_stream` this is the levelized cohort sweep —
        ``O(nodes + queries)``; without one it degrades to the looped
        ``O(nodes × queries)`` walk per query.
        """
        stream = self.batch_stream(edge)
        if stream is not None:
            from repro.serve.bulk import cohort_sweep

            root_key, items = stream
            sat_even, _sat_odd = cohort_sweep(
                root_key, self.edge_attr(edge), items, batch.var_bits, batch.full
            )
            return batch.unpack(sat_even)
        evaluate = self.evaluate_edge
        return [
            evaluate(edge, values)
            for values in batch.iter_value_dicts(self.num_vars)
        ]

    def freeze_export(self, named):
        """Flatten a named forest into parallel int64 columns, or None.

        The array producer behind :meth:`repro.par.shm.ShmForest.freeze`
        (``named`` is a list of ``(name, edge)`` pairs).  Returns a dict
        of ``kind`` (the backend name), four per-slot integer lists
        ``pv``/``sv``/``t``/``f`` (slots 0 and 1 reserved, ``sv = -1``
        marks a single-variable test, child references are signed with
        ``abs(ref) == 1`` the sink) in one **global topological order**
        — children strictly after parents across all roots — and
        ``roots`` mapping each name to its signed root reference
        (``±1`` for constants).

        This default builds on :meth:`batch_stream`: backends without a
        structural level stream return None, and shared-memory callers
        fall back to the sequential in-process path.  Backends with a
        cheaper global enumeration override it.
        """
        infos: Dict[object, tuple] = {}
        node_roots: Dict[str, tuple] = {}
        # Item keys are only guaranteed unique *within* one stream (the
        # xmem backend, say, numbers nodes per root representation), so
        # each stream's keys are namespaced by a stream index; two names
        # rooted at the same node share one stream (and its slots).
        streams_by_node: Dict[object, tuple] = {}
        for name, edge in named:
            if self.edge_is_sink(edge):
                continue
            attr = self.edge_attr(edge)
            regular = self.negate_edge(edge) if attr else edge
            node_key = self.edge_uid(regular)
            entry = streams_by_node.get(node_key)
            if entry is None:
                stream = self.batch_stream(edge)
                if stream is None:
                    return None
                root_key, items = stream
                ns = len(streams_by_node)
                for key, pvv, svv, tk, tf, tpv, fk, ff, fpv in items:
                    infos.setdefault(
                        (ns, key),
                        (
                            (ns, key),
                            pvv,
                            svv,
                            None if tk is None else (ns, tk),
                            tf,
                            tpv,
                            None if fk is None else (ns, fk),
                            ff,
                            fpv,
                        ),
                    )
                entry = ((ns, root_key),)
                streams_by_node[node_key] = entry
            node_roots[name] = (entry[0], attr)
        # Reverse DFS post-order = parents before children, merged
        # across roots (a node shared between two roots keeps one slot).
        seen = set()
        order = []
        for name, _edge in named:
            entry = node_roots.get(name)
            if entry is None or entry[0] in seen:
                continue
            stack = [(entry[0], False)]
            while stack:
                key, finished = stack.pop()
                if finished:
                    order.append(key)
                    continue
                if key in seen:
                    continue
                seen.add(key)
                stack.append((key, True))
                item = infos[key]
                for child in (item[6], item[3]):
                    if child is not None and child not in seen:
                        stack.append((child, False))
        ids: Dict[object, int] = {}
        pv = [0, 0]
        sv = [-1, -1]
        t = [0, 0]
        f = [0, 0]
        for key in reversed(order):
            ids[key] = 2 + len(ids)
        for key in reversed(order):
            _key, pvv, svv, t_key, t_flip, _tpv, f_key, f_flip, _fpv = infos[key]
            pv.append(pvv)
            sv.append(-1 if svv is None else svv)
            t_ref = 1 if t_key is None else ids[t_key]
            t.append(-t_ref if t_flip else t_ref)
            f_ref = 1 if f_key is None else ids[f_key]
            f.append(-f_ref if f_flip else f_ref)
        roots: Dict[str, int] = {}
        for name, edge in named:
            if self.edge_is_sink(edge):
                roots[name] = -1 if self.edge_is_false(edge) else 1
            else:
                key, attr = node_roots[name]
                roots[name] = -ids[key] if attr else ids[key]
        return {
            "kind": self.backend,
            "pv": pv,
            "sv": sv,
            "t": t,
            "f": f,
            "roots": roots,
        }

    def satisfiable_batch_edges(self, edge, batch):
        """Batched cube satisfiability (see :func:`repro.serve.bulk.satisfiable_batch`).

        With a :meth:`batch_stream`, unconstrained queries flow into
        both branches of one sweep; the fallback restricts the edge by
        each cube and checks the cofactor against the 0-sink.
        """
        stream = self.batch_stream(edge)
        if stream is not None:
            from repro.serve.bulk import cube_sweep

            root_key, items = stream
            sat_even, _sat_odd = cube_sweep(
                root_key,
                self.edge_attr(edge),
                items,
                batch.var_bits,
                batch.known_bits or {},
                batch.full,
            )
            return batch.unpack(sat_even)
        results = []
        with self.defer_gc():
            for values in batch.iter_known_dicts():
                cofactor = edge
                for var, value in values.items():
                    cofactor = self.restrict_edge(cofactor, var, value)
                results.append(not self.edge_is_false(cofactor))
        return results

    def weighted_count_edge(self, edge, w1, w0, one, zero):
        """Weighted model count of ``edge`` (see :mod:`repro.wmc`).

        ``w1``/``w0`` are per-variable weight columns indexed by
        variable index, ``one``/``zero`` the units of the arithmetic in
        use (Fractions or floats).  With a :meth:`batch_stream` and a
        variable order this is the one-pass levelized
        :func:`repro.wmc.sweep.mass_sweep`; any other backend takes the
        protocol-pure memoized Shannon recursion
        (:func:`repro.wmc.sweep.shannon_count`) — correct without
        knowing the node layout.
        """
        from repro.wmc.sweep import level_stream, mass_sweep, shannon_count, total_mass

        if self.edge_is_sink(edge):
            if self.edge_is_false(edge):
                return zero
            return total_mass(w1, w0, one)
        stream = level_stream(self, edge)
        if stream is None:
            return shannon_count(self, edge, w1, w0, one, zero)
        root_key, items, order, positions = stream
        return mass_sweep(
            root_key,
            self.edge_attr(edge),
            items,
            order=order,
            positions=positions,
            w1=w1,
            w0=w0,
            one=one,
            zero=zero,
        )

    def and_exists_edges(self, f, g, variables):
        """Relational product ``exists variables . f & g``.

        The built-in backends override this with a fused one-pass
        cofactor sweep (:func:`repro.core.apply.and_exists`,
        :func:`repro.bdd.ops.and_exists`); this default composes public
        operations with *early quantification* — variables confined to
        one operand's support are quantified out of that operand before
        the conjunction, so only variables both operands mention pay
        for the intermediate product.
        """
        if isinstance(variables, (str, int)):
            variables = (variables,)
        indices = sorted({self.var_index(v) for v in variables})
        with self.defer_gc():
            if not indices:
                return self.apply_edges(f, g, OP_AND)
            fsupp = set(self.support_edge(f))
            gsupp = set(self.support_edge(g))
            f_only = [v for v in indices if v in fsupp and v not in gsupp]
            g_only = [v for v in indices if v in gsupp and v not in fsupp]
            shared = [v for v in indices if v in fsupp and v in gsupp]
            if f_only:
                f = self.quantify_edge(f, f_only, False)
            if g_only:
                g = self.quantify_edge(g, g_only, False)
            product = self.apply_edges(f, g, OP_AND)
            if shared:
                product = self.quantify_edge(product, shared, False)
            return product


def rebuild_function(manager, root, var_fn, target, memo=None):
    """Rebuild the regular (attribute-free) function of node ``root``
    inside ``target``, mapping every source variable through ``var_fn``
    (index -> target function).

    The workhorse behind simultaneous substitution
    (:meth:`FunctionBase.let`, where ``target`` is the source manager
    itself) and cross-backend migration
    (:class:`repro.io.migrate.ProtocolMigrator`): each Shannon node
    rebuilds as ``ite(var_fn(v), then, else)``, each biconditional
    couple as ``ite(var_fn(pv) <-> var_fn(sv), eq, neq)``, each literal
    as ``var_fn(pv)`` — substitution distributes over the expansions, so
    the walk is *simultaneous* by construction (values are never
    re-substituted).  Iterative post-order, memoized per source node:
    linear in the diagram size times the cost of the target operations.
    A caller copying a shared forest may pass one ``memo`` dict across
    calls to keep the sharing.

    The couple/Shannon walks are structural fast paths for the built-in
    backends; any other registered backend takes the protocol-pure
    Shannon decomposition via ``root_var``/``restrict_edge`` (the same
    one ``to_expr`` uses), so third-party backends plug in without this
    function knowing their node layout.
    """
    true = target.true()
    if root.is_sink:
        return true
    if memo is None:
        memo = {}
    backend = manager.backend
    if backend not in ("bbdd", "bdd"):
        return _rebuild_via_protocol(manager, root, var_fn, target, memo)
    bbdd_nodes = backend == "bbdd"
    stack = [root]
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        if bbdd_nodes:
            if top.is_literal:
                memo[top] = var_fn(top.pv)
                stack.pop()
                continue
            children = (top.neq, top.eq)
        else:
            children = (top.then, top.else_)
        pending = [c for c in children if not c.is_sink and c not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if bbdd_nodes:
            d = true if top.neq.is_sink else memo[top.neq]
            if top.neq_attr:
                d = ~d
            e = true if top.eq.is_sink else memo[top.eq]
            memo[top] = var_fn(top.pv).xnor(var_fn(top.sv)).ite(e, d)
        else:
            t = true if top.then.is_sink else memo[top.then]
            e = true if top.else_.is_sink else memo[top.else_]
            if top.else_attr:
                e = ~e
            memo[top] = var_fn(top.var).ite(t, e)
    return memo[root]


def _rebuild_via_protocol(manager, root, var_fn, target, memo):
    """Backend-agnostic :func:`rebuild_function` core.

    Decomposes through the edge protocol only (``root_var`` +
    ``restrict_edge``), memoized on ``(uid, attr)`` edge keys — the
    cofactors of ``f = ite(v, f|v=1, f|v=0)`` never mention ``v``, so
    mapping ``v`` through ``var_fn`` at every level is a simultaneous
    substitution.  Bare cofactor edges are parked across the walk, so
    GC stays deferred for its duration.
    """
    true = target.true()
    false = ~true
    edge_uid = manager.edge_uid
    pending: Dict[tuple, tuple] = {}
    with manager.defer_gc():
        root_edge = manager.node_edge(root)
        stack = [root_edge]
        while stack:
            edge = stack[-1]
            key = edge_uid(edge)
            if key in memo:
                stack.pop()
                continue
            if manager.edge_is_sink(edge):
                memo[key] = false if manager.edge_attr(edge) else true
                stack.pop()
                continue
            entry = pending.get(key)
            if entry is None:
                var = manager.root_var(edge)
                high = manager.restrict_edge(edge, var, True)
                low = manager.restrict_edge(edge, var, False)
                pending[key] = (var, high, low)
                stack.append(low)
                stack.append(high)
                continue
            var, high, low = entry
            t = memo[edge_uid(high)]
            e = memo[edge_uid(low)]
            memo[key] = var_fn(var).ite(t, e)
            stack.pop()
    return memo[edge_uid(root_edge)]


def install_function_helpers(manager_cls, function_cls) -> None:
    """Attach the function-returning conveniences to a manager class.

    Called by each backend's function module (which avoids a circular
    import between its manager and function modules) with its concrete
    :class:`FunctionBase` subclass; the installed surface —
    ``var``/``nvar``/``variables``/``true``/``false``/``function``/
    ``node_count`` — is therefore identical across backends by
    construction.
    """

    def var(self, name_or_index):
        return function_cls(self, self.literal_edge(name_or_index))

    def nvar(self, name_or_index):
        return function_cls(self, self.literal_edge(name_or_index, positive=False))

    def variables(self):
        return [function_cls(self, self.literal_edge(i)) for i in range(self.num_vars)]

    def true(self):
        return function_cls(self, self.true_edge)

    def false(self):
        return function_cls(self, self.false_edge)

    def function(self, edge):
        return function_cls(self, edge)

    def node_count(self, functions):
        edges = [f.edge if isinstance(f, FunctionBase) else f for f in functions]
        return self.count_nodes(edges)

    manager_cls.var = var
    manager_cls.nvar = nvar
    manager_cls.variables = variables
    manager_cls.true = true
    manager_cls.false = false
    manager_cls.function = function
    manager_cls.node_count = node_count


class FunctionBase:
    """A Boolean function handle over any :class:`DDManager` backend.

    Create instances through the manager helpers (``manager.var``,
    ``manager.true``, ``manager.add_expr``, ...) or by combining other
    functions with the overloaded operators.  Because both backends keep
    reduced, ordered, canonical diagrams, ``f == g`` is a pointer
    comparison on ``(node, attr)``.
    """

    __slots__ = ("manager", "_edge", "__weakref__")

    def __init__(self, manager, edge) -> None:
        self.manager = manager
        self._edge = edge
        manager.acquire_edge(edge)

    def __del__(self) -> None:
        # Interpreter shutdown may have torn down attributes already.
        edge = getattr(self, "_edge", None)
        if edge is None:
            return
        manager = getattr(self, "manager", None)
        if manager is None:
            return
        try:
            # Dropping a handle feeds the automatic garbage collector.
            manager.release_edge(edge)
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    # -- identity -----------------------------------------------------------

    @property
    def edge(self):
        """The bare backend edge this handle references."""
        return self._edge

    @property
    def node(self):
        """The root node of this handle's edge (a backend node/view)."""
        return self.manager.edge_node(self._edge)

    @property
    def attr(self) -> bool:
        """The complement attribute of this handle's edge."""
        return self.manager.edge_attr(self._edge)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionBase):
            return NotImplemented
        return self.manager is other.manager and self._edge == other._edge

    def __hash__(self) -> int:
        return hash((id(self.manager), self.manager.edge_uid(self._edge)))

    def _wrap(self, edge) -> "FunctionBase":
        return type(self)(self.manager, edge)

    def _coerce(self, other):
        """Normalize an operand to an edge of this manager.

        Accepts a function of the same manager, or the Boolean constants
        ``True``/``False``/``1``/``0`` (``bool`` or ``int`` only — any
        other type raises ``TypeError``, including number-like objects
        that merely compare equal to 0 or 1).
        """
        if isinstance(other, FunctionBase):
            if other.manager is not self.manager:
                raise ForeignManagerError(
                    "cannot combine functions from different managers"
                )
            return other.edge
        if isinstance(other, bool):
            return self.manager.true_edge if other else self.manager.false_edge
        if isinstance(other, int) and other in (0, 1):
            return self.manager.true_edge if other else self.manager.false_edge
        raise TypeError(
            f"cannot combine {type(self).__name__} with {type(other).__name__}"
        )

    # -- Boolean operators --------------------------------------------------

    def apply(self, other, op: Union[int, str]) -> "FunctionBase":
        """Apply any of the 16 two-operand operators (table or name)."""
        if isinstance(op, str):
            op = op_from_name(op)
        return self._wrap(self.manager.apply_edges(self.edge, self._coerce(other), op))

    def __and__(self, other) -> "FunctionBase":
        return self.apply(other, OP_AND)

    __rand__ = __and__

    def __or__(self, other) -> "FunctionBase":
        return self.apply(other, OP_OR)

    __ror__ = __or__

    def __xor__(self, other) -> "FunctionBase":
        return self.apply(other, OP_XOR)

    __rxor__ = __xor__

    def __invert__(self) -> "FunctionBase":
        return self._wrap(self.manager.negate_edge(self._edge))

    def xnor(self, other) -> "FunctionBase":
        """Biconditional (equality) of two functions."""
        return self.apply(other, OP_XNOR)

    def implies(self, other) -> "FunctionBase":
        """Material implication ``self -> other``."""
        return self.apply(other, OP_LE)

    def and_not(self, other) -> "FunctionBase":
        """Difference ``self & ~other``."""
        return self.apply(other, OP_GT)

    def ite(self, g, h) -> "FunctionBase":
        """``self ? g : h``."""
        return self._wrap(
            self.manager.ite_edges(self.edge, self._coerce(g), self._coerce(h))
        )

    # -- constants ----------------------------------------------------------

    @property
    def is_true(self) -> bool:
        """True iff this is the constant TRUE (the regular sink edge)."""
        manager = self.manager
        return manager.edge_is_sink(self._edge) and not manager.edge_is_false(
            self._edge
        )

    @property
    def is_false(self) -> bool:
        """True iff this is the constant FALSE (the complemented sink)."""
        return self.manager.edge_is_false(self._edge)

    @property
    def is_constant(self) -> bool:
        """True iff this is TRUE or FALSE."""
        return self.manager.edge_is_sink(self._edge)

    # -- semantics ----------------------------------------------------------

    def _values_from(self, assignment: Mapping) -> Dict[int, bool]:
        """Normalize an assignment to ``{index: bool}``, strictly.

        Unknown variables raise :class:`VariableError`; a variable
        assigned twice (say, by name *and* by index) raises
        :class:`VariableError`; values other than ``bool``/``0``/``1``
        raise ``TypeError``.  This is the validation contract shared by
        :meth:`evaluate`, :meth:`evaluate_batch` and
        :meth:`satisfiable_batch` — constants included: an empty-support
        function still rejects a malformed mapping instead of silently
        ignoring it.
        """
        manager = self.manager
        values: Dict[int, bool] = {}
        for key, bit in assignment.items():
            index = manager.var_index(key)
            if index in values:
                raise duplicate_assignment_error(manager, index, "assignment")
            check_assignment_bit(bit, manager.var_name(index), "assignment")
            values[index] = bool(bit)
        return values

    def evaluate(self, assignment: Mapping) -> bool:
        """Evaluate at an assignment keyed by variable name or index.

        The assignment must cover the function's support variables;
        missing support variables raise
        :class:`~repro.core.exceptions.VariableError` *naming the
        missing variables*.  Variables outside the support may be
        omitted (they default to False, which cannot change the
        result).  Unknown variables, duplicate assignments and
        non-Boolean values are rejected even on constants (see
        :meth:`_values_from`).
        """
        values = self._values_from(assignment)
        if len(values) < self.manager.num_vars:
            # Partial assignment: the support check needs the actual
            # support (O(1) mask read on BBDDs, a DAG walk on BDDs —
            # complete assignments skip it entirely).
            missing = [
                v for v in self.manager.support_edge(self.edge) if v not in values
            ]
            if missing:
                names = ", ".join(
                    self.manager.var_name(v) for v in sorted(missing)
                )
                raise VariableError(
                    f"assignment misses support variable(s): {names}"
                )
            for var in range(self.manager.num_vars):
                values.setdefault(var, False)
        return self.manager.evaluate_edge(self.edge, values)

    def evaluate_batch(self, assignments, workers: Optional[int] = None) -> list:
        """Evaluate at many assignments with one levelized sweep.

        ``assignments`` is an iterable of mappings — each under the
        exact :meth:`evaluate` contract, with error messages naming the
        offending batch position and the missing variables — or a
        pre-packed :class:`repro.serve.bulk.ColumnBatch`.  Returns one
        ``bool`` per assignment, in order.  The whole batch flows
        through the diagram top-down as bitset cohorts
        (:mod:`repro.serve.bulk`), so the cost is
        ``O(nodes + queries)`` instead of one root-to-sink walk per
        query.

        With ``workers=N`` (truthy) the sweep runs across the shared
        worker pool of :mod:`repro.par`: the forest is frozen into
        shared memory and the batch's lane chunks are swept by ``N``
        processes in parallel — worthwhile for large batches on large
        diagrams.  Backends without a freeze export silently use the
        sequential path.
        """
        if workers:
            from repro.par import parallel_evaluate_batch

            return parallel_evaluate_batch(self, assignments, workers=workers)
        from repro.serve.bulk import evaluate_batch

        return evaluate_batch(self, assignments)

    def satisfiable_batch(self, assignments, workers: Optional[int] = None) -> list:
        """For each partial assignment (cube): is ``f ∧ cube`` satisfiable?

        Same input forms and error contract as :meth:`evaluate_batch`,
        except assignments may be partial — unconstrained variables are
        existentially quantified by the sweep itself (a query flows
        into both branches where its cube does not decide the test).
        ``workers=N`` parallelizes exactly like :meth:`evaluate_batch`.
        """
        if workers:
            from repro.par import parallel_satisfiable_batch

            return parallel_satisfiable_batch(self, assignments, workers=workers)
        from repro.serve.bulk import satisfiable_batch

        return satisfiable_batch(self, assignments)

    def __call__(self, **kwargs) -> bool:
        return self.evaluate(kwargs)

    def sat_count(self) -> int:
        """Number of satisfying assignments over all manager variables."""
        return self.manager.sat_count_edge(self.edge)

    def weighted_count(self, weights=None, *, exact: bool = True):
        """Weighted model count over all manager variables.

        ``weights`` maps variables to ``(w1, w0)`` pairs or single
        numbers ``p`` (meaning ``(p, 1 - p)``); unmentioned variables
        weigh ``(1, 1)``.  See :func:`repro.wmc.weighted_count`.
        """
        from repro.wmc import weighted_count

        return weighted_count(self, weights, exact=exact)

    def p_one(self, weights=None, *, exact: bool = True):
        """``p(f = 1)`` under independent per-variable probabilities.

        ``weights`` maps variables to ``p(v = 1)``; unmentioned
        variables default to ``1/2``.  See :func:`repro.wmc.p_one`.
        """
        from repro.wmc import p_one

        return p_one(self, weights, exact=exact)

    def marginals(self, weights=None, variables=None, *, exact: bool = True):
        """Posterior marginals ``p(v = 1 | f = 1)`` per support variable.

        See :func:`repro.wmc.marginals`.
        """
        from repro.wmc import marginals

        return marginals(self, weights, variables, exact=exact)

    def sat_one(self) -> Optional[Dict[str, bool]]:
        """One satisfying assignment (by name), or None if unsatisfiable.

        The assignment covers the function's whole support (support
        variables the witness path leaves unconstrained are fixed to
        False), so it always evaluates to True via :meth:`evaluate`.
        """
        values = self.manager.sat_one_edge(self.edge)
        if values is None:
            return None
        for var in self.manager.support_edge(self.edge):
            values.setdefault(var, False)
        return {self.manager.var_name(v): b for v, b in values.items()}

    def node_count(self) -> int:
        """Nodes of this function's diagram (sink excluded)."""
        return self.manager.count_nodes([self.edge])

    def support(self) -> frozenset:
        """Names of the variables the function truly depends on."""
        return frozenset(
            self.manager.var_name(v) for v in self.manager.support_edge(self.edge)
        )

    def truth_mask(self, variables: Iterable) -> int:
        """Truth-table bitmask over the given variables (testing helper)."""
        manager = self.manager
        indices = [manager.var_index(v) for v in variables]
        values: Dict[int, bool] = {v: False for v in range(manager.num_vars)}
        mask = 0
        edge = self.edge
        for i in range(1 << len(indices)):
            for j, var in enumerate(indices):
                values[var] = bool((i >> j) & 1)
            if manager.evaluate_edge(edge, values):
                mask |= 1 << i
        return mask

    # -- manipulation -------------------------------------------------------

    def restrict(self, var, value: bool) -> "FunctionBase":
        """Cofactor with ``var = value``."""
        return self._wrap(self.manager.restrict_edge(self.edge, var, value))

    def compose(self, var, g) -> "FunctionBase":
        """Substitute function ``g`` for variable ``var``."""
        return self._wrap(
            self.manager.compose_edge(self.edge, var, self._coerce(g))
        )

    def exists(self, variables) -> "FunctionBase":
        """Existential quantification over ``variables`` (names/indices)."""
        return self._wrap(self.manager.quantify_edge(self.edge, variables, False))

    def forall(self, variables) -> "FunctionBase":
        """Universal quantification over ``variables`` (names/indices)."""
        return self._wrap(self.manager.quantify_edge(self.edge, variables, True))

    def and_exists(self, other, variables) -> "FunctionBase":
        """Relational product ``exists variables . self & other``.

        One fused sweep on the built-in backends — the conjunction is
        never materialized, which is what makes symbolic image
        computation (:mod:`repro.reach`) scale.
        """
        return self._wrap(
            self.manager.and_exists_edges(self.edge, self._coerce(other), variables)
        )

    def equivalent(self, other) -> bool:
        """Canonicity-based equivalence check (pointer comparison)."""
        return self._edge == self._coerce(other)

    def let(self, substitutions: Mapping) -> "FunctionBase":
        """Simultaneous substitution (the ``dd``-style ``let``).

        ``substitutions`` maps variables (names or indices) to
        replacement values, which may be

        * a variable **name** (``str``) — rename,
        * a Boolean **constant** (``bool`` or ``int`` 0/1) — restrict,
        * a **function** of the same manager — compose.

        All substitutions happen simultaneously: ``f.let({'x': 'y',
        'y': 'x'})`` swaps the two variables, unlike a chain of
        one-at-a-time ``compose`` calls.  Internally the function's
        diagram is rebuilt bottom-up with every variable mapped through
        the substitution (a vector compose), so values may freely
        mention the substituted variables, and the cost is linear in
        the diagram size — bulk renames of many variables are cheap.
        """
        manager = self.manager
        consts = []
        funcs = []
        seen = set()
        for var, value in substitutions.items():
            index = manager.var_index(var)
            if index in seen:
                raise BBDDError(
                    f"duplicate substitution for {manager.var_name(index)!r}"
                )
            seen.add(index)
            if isinstance(value, FunctionBase):
                if value.manager is not manager:
                    raise ForeignManagerError(
                        "substitution value belongs to a different manager"
                    )
                funcs.append((index, value))
            elif isinstance(value, str):
                funcs.append((index, self._wrap(manager.literal_edge(value))))
            elif isinstance(value, bool) or (
                isinstance(value, int) and value in (0, 1)
            ):
                consts.append((index, bool(value)))
            else:
                raise TypeError(
                    "let values must be a variable name, a Boolean "
                    f"constant, or a function; got {type(value).__name__}"
                )
        f = self
        # Constants commute with everything: plain restricts, cheapest
        # first.  They also cannot collide with the simultaneous pass
        # below because each key is distinct.
        for index, bit in consts:
            f = f.restrict(index, bit)
        if not funcs:
            return f
        # Simultaneous general substitution: rebuild f's diagram with
        # every variable mapped through the substitution (vector
        # compose).  Values are resolved against the *original* f, so
        # they are never re-substituted — simultaneity by construction.
        values: Dict[int, "FunctionBase"] = dict(funcs)

        def var_fn(index: int) -> "FunctionBase":
            value = values.get(index)
            if value is None:
                value = self._wrap(manager.literal_edge(index))
                values[index] = value
            return value

        result = rebuild_function(manager, f.node, var_fn, manager)
        return ~result if f.attr else result

    # -- expression export --------------------------------------------------

    def to_expr(self) -> str:
        """Canonical, re-parseable expression string of the function.

        The output uses only ``ite(v, T, E)`` nests (Shannon expansion on
        the first support variable in the current order), literal
        shortcuts ``v`` / ``~v``, and the constants ``TRUE``/``FALSE`` —
        all inside the :meth:`DDManager.add_expr` grammar, so
        ``manager.add_expr(f.to_expr()) == f`` for every function.  The
        string is deterministic for a given function and variable order.

        The grammar has no sharing construct (no let-binding), so the
        output is a *tree*: a shared subgraph is re-rendered at every
        reference, and share-heavy functions (e.g. wide parities) grow
        exponentially in their support size.  ``to_expr`` is an
        interchange/debugging surface for small functions — persist
        large forests with :meth:`dump`, which keeps the DAG sharing.

        Variable names that the grammar cannot re-tokenize — non-
        identifiers, or collisions with the ``TRUE``/``FALSE``/``ite``
        keywords — raise :class:`~repro.api.expr.ExprError` instead of
        silently emitting a string that parses to a different function.
        """
        from repro.api.expr import exportable_name

        manager = self.manager
        memo: Dict[tuple, str] = {}
        pending: Dict[tuple, tuple] = {}
        root = self.edge
        # Iterative post-order: bare child edges are parked in ``pending``
        # until both sub-expressions are rendered, so GC stays deferred
        # for the whole walk.
        edge_uid = manager.edge_uid
        with manager.defer_gc():
            stack = [root]
            while stack:
                edge = stack[-1]
                key = edge_uid(edge)
                if key in memo:
                    stack.pop()
                    continue
                if manager.edge_is_sink(edge):
                    memo[key] = "FALSE" if manager.edge_attr(edge) else "TRUE"
                    stack.pop()
                    continue
                entry = pending.get(key)
                if entry is None:
                    var = manager.root_var(edge)
                    high = manager.restrict_edge(edge, var, True)
                    low = manager.restrict_edge(edge, var, False)
                    pending[key] = (var, high, low)
                    stack.append(low)
                    stack.append(high)
                    continue
                var, high, low = entry
                s1 = memo[edge_uid(high)]
                s0 = memo[edge_uid(low)]
                name = exportable_name(manager.var_name(var))
                if s1 == "TRUE" and s0 == "FALSE":
                    memo[key] = name
                elif s1 == "FALSE" and s0 == "TRUE":
                    memo[key] = "~" + name
                else:
                    memo[key] = f"ite({name}, {s1}, {s0})"
                stack.pop()
        return memo[edge_uid(root)]

    # -- persistence --------------------------------------------------------

    def dump(self, target, name: str = "f0", compress: bool = False) -> None:
        """Write this function to ``target`` in the backend's binary format.

        ``target`` is a path or a binary file object; ``name`` is the
        root's stored name (what the loader keys it by);
        ``compress=True`` writes the v2 ``FLAG_COMPRESSED`` container.
        """
        self.manager.dump({name: self}, target, compress=compress)

    # -- display ------------------------------------------------------------

    def __repr__(self) -> str:
        label = type(self).__name__
        if self.is_true:
            return f"<{label} TRUE>"
        if self.is_false:
            return f"<{label} FALSE>"
        return (
            f"<{label} root=v{self.manager.root_var(self.edge)}"
            f"{'~' if self.attr else ''} nodes={self.node_count()}>"
        )
