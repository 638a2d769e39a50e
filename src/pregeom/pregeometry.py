"""Closure, rank and pregeometry extraction from a predimension function.

The rank of a subset B is min { predim(X) : B <= X <= universe }, which is a
matroid rank function whenever the structure is in its class (submodularity
plus unit increase).  Closure is the associated matroid closure.  On
self-sufficient bases this coincides with the union-of-dependent-sets
description of the closure; the closed-set families agree everywhere, and the
test suite checks both facts against brute force.

cl(B) is also the largest X >= B with predim(X) = rank(B): an element e is in
cl(B) exactly when some minimiser over [B, U] contains it, and by
submodularity the minimisers are closed under union.  Both come from one
max-flow in `predimension`: `rank` is min_predim_over(B) = |B| − |M| + ν_B,
with M the members' units and ν_B how many a maximum placement places off
B, and `closure` is `largest_minimiser(B)`, B plus the elements whose slot is
full in every maximum placement.  Neither runs a subset search.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional

from .errors import DomainError
from .predimension import _evaluator, largest_minimiser, min_predim_over
from .structures import Structure

DEFAULT_MAX_GROUND = 18
ENV_MAX_GROUND = "PREGEOM_MAX_GROUND"


def max_ground_cap() -> int:
    raw = os.environ.get(ENV_MAX_GROUND)
    if raw is None:
        return DEFAULT_MAX_GROUND
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"{ENV_MAX_GROUND} must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise DomainError(f"{ENV_MAX_GROUND} must be non-negative, got {cap}")
    return cap


def _require_in_class(struct: Structure) -> None:
    # decided once per cached evaluator, by its placement for base = ∅ (predimension.in_class)
    if not _evaluator(struct).in_class():
        raise DomainError("structure is not in its class (some subset has negative predimension)")


def _predim_table(ev) -> list[int]:
    """predim of every subset mask."""
    return [ev.value(m) for m in range(1 << ev.nbits)]


def _rank_table(ev) -> list[int]:
    """rank of every subset mask: min predim over supersets.

    Masks are filled in decreasing order: every one-element superset m | bit
    is larger than m, so it already holds its rank when m reads it.
    """
    table = _predim_table(ev)
    full = ev.full
    for m in range(full, -1, -1):
        best = table[m]
        free = full & ~m
        while free:
            bit = free & -free
            free ^= bit
            v = table[m | bit]
            if v < best:
                best = v
        table[m] = best
    return table


@dataclass(frozen=True, eq=False)
class Pregeometry:
    """Ground set plus the rank of every subset mask of it (ground order)."""

    ground: tuple[int, ...]
    table: tuple[int, ...] = field(repr=False)

    def _index(self, e: int) -> int:
        i = self.ground.index(e) if e in self.ground else -1
        if i < 0:
            raise DomainError(f"element {e} is outside the ground set")
        return i

    def _mask(self, subset: Iterable[int]) -> int:
        m = 0
        for e in subset:
            m |= 1 << self._index(e)
        return m

    def rank(self, subset: Iterable[int]) -> int:
        return self.table[self._mask(subset)]

    def closure(self, subset: Iterable[int]) -> frozenset[int]:
        m = self._mask(subset)
        r = self.table[m]
        out = set()
        for i, e in enumerate(self.ground):
            if m >> i & 1 or self.table[m | (1 << i)] == r:
                out.add(e)
        return frozenset(out)

    def is_closed(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        return self.closure(s) == s

    def full_table(self) -> dict[frozenset[int], int]:
        out = {}
        for m in range(1 << len(self.ground)):
            members = frozenset(e for i, e in enumerate(self.ground) if m >> i & 1)
            out[members] = self.table[m]
        return out


def rank(a: Structure, subset: Iterable[int]) -> int:
    """Pregeometry rank of `subset` inside `a` (the minimum over supersets)."""
    _require_in_class(a)
    return min_predim_over(a, subset)


def closure(a: Structure, subset: Iterable[int]) -> frozenset[int]:
    """The largest superset of `subset` with the same rank: the elements that do not raise it."""
    _require_in_class(a)
    return largest_minimiser(a, subset)


def pregeometry_of(a: Structure) -> Pregeometry:
    """The pregeometry of an in-class structure, with its full rank table.

    The ground set must fit the cap (`max_ground_cap`) and `rank_table_of`'s
    22-element ceiling; both raise DomainError.
    """
    _require_in_class(a)
    cap = max_ground_cap()
    ground = tuple(a.sorted_universe())
    if len(ground) > cap:
        raise DomainError(f"ground set has {len(ground)} elements, above the cap {cap}")
    return Pregeometry(ground, rank_table_of(a))


@lru_cache(maxsize=64)
def rank_table_of(a: Structure) -> tuple[int, ...]:
    """Rank of every subset mask of the sorted universe (capped to keep runs bounded)."""
    if len(a.universe) > 22:
        raise DomainError("universe too large for a full rank table")
    _require_in_class(a)
    return tuple(_rank_table(_evaluator(a)))


def same_pregeometry(a: Structure, b: Structure) -> bool:
    """Whether two in-class structures on the same universe have identical rank tables."""
    if frozenset(a.universe) != frozenset(b.universe):
        raise DomainError("structures live on different universes")
    # both evaluators sort the universe, so masks line up
    return rank_table_of(a) == rank_table_of(b)


def pg_isomorphic(p: Pregeometry, q: Pregeometry) -> Optional[dict[int, int]]:
    """A rank-preserving ground bijection, lexicographically least, or None.

    Backtracking in ground order, pruned by point rank and verified subset by
    subset as the map grows.
    """
    if len(p.ground) != len(q.ground):
        return None
    if p.rank(p.ground) != q.rank(q.ground):
        return None
    p_single = sorted(p.rank((e,)) for e in p.ground)
    q_single = sorted(q.rank((e,)) for e in q.ground)
    if p_single != q_single:
        return None

    src = list(p.ground)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def compatible(e: int, w: int) -> bool:
        dom = [x for x in src if x in mapping and x != e]
        for m in range(1 << len(dom)):
            sub = [dom[i] for i in range(len(dom)) if m >> i & 1]
            if p.rank(sub + [e]) != q.rank([mapping[x] for x in sub] + [w]):
                return False
        return True

    def rec(i: int) -> bool:
        if i == len(src):
            return True
        e = src[i]
        for w in q.ground:
            if w in used:
                continue
            mapping[e] = w
            used.add(w)
            if compatible(e, w) and rec(i + 1):
                return True
            used.discard(w)
            del mapping[e]
        return False

    if rec(0):
        return dict(mapping)
    return None
