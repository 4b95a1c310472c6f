"""Computed table: the operation cache of Algorithm 1 (Sec. IV-A2/3).

Previously performed Boolean operations ``{f, g, op} -> result`` are
stored for later reuse.  Keys and values are packed ints of the flat
store: an apply entry is ``(f_index, g_index, op) -> signed_result``,
and the derived-op families (ITE/restrict/quantify) prefix a tag int
so the key spaces can never collide.

Two backends remain: the dict-backed cache (the default — packed int
keys hash natively) and :class:`DisabledComputedTable` for ablation
runs.
"""

from __future__ import annotations


class DictComputedTable:
    """Unbounded dict-backed operation cache (cleared at GC / reorder)."""

    __slots__ = ("_table", "lookups", "hits")

    def __init__(self) -> None:
        self._table: dict = {}
        self.lookups = 0
        self.hits = 0

    def lookup(self, key: tuple):
        self.lookups += 1
        entry = self._table.get(key)
        if entry is not None:
            self.hits += 1
        return entry

    def insert(self, key: tuple, value) -> None:
        self._table[key] = value

    def clear(self) -> None:
        self._table.clear()

    def __len__(self) -> int:
        return len(self._table)

    def stats(self) -> dict:
        return {
            "backend": "dict",
            "entries": len(self._table),
            "lookups": self.lookups,
            "hits": self.hits,
        }


class DisabledComputedTable:
    """Null cache used by the ablation benches (computed table off)."""

    __slots__ = ("lookups", "hits")

    def __init__(self) -> None:
        self.lookups = 0
        self.hits = 0

    def lookup(self, key: tuple):
        self.lookups += 1
        return None

    def insert(self, key: tuple, value) -> None:
        pass

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def stats(self) -> dict:
        return {"backend": "disabled", "entries": 0, "lookups": self.lookups, "hits": 0}


def make_computed_table(backend: str = "dict"):
    """Factory: ``"dict"`` (the default) or ``"disabled"`` (ablation)."""
    if backend == "dict":
        return DictComputedTable()
    if backend == "disabled":
        return DisabledComputedTable()
    raise ValueError(f"unknown computed-table backend: {backend!r}")
