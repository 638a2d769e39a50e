"""Independent computations that the benchmark checks pregeom's outputs against.

Nothing here imports pregeom.  A structure is a `Struct`: plain ints,
tuples and frozensets.  Ranks of single subsets come from maximum bipartite
matching (Hall's theorem); full rank tables come from evaluating the
predimension on every subset, then taking the minimum over supersets.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple


class Struct(NamedTuple):
    """A tuple structure (`rel` holds n-tuples) or a clique structure
    (`rel` holds maximal cliques, each a frozenset of r-tuples)."""

    kind: str
    n: int
    r: int
    universe: frozenset
    rel: frozenset

    @property
    def s(self) -> int:
        return self.n - self.r + 1


def make(kind: str, n: int, r: int, universe: Iterable[int], rel: Iterable) -> Struct:
    if kind == "nary":
        body = frozenset(tuple(t) for t in rel)
    else:
        body = frozenset(frozenset(tuple(t) for t in k) for k in rel)
    return Struct(kind, n, r, frozenset(universe), body)


def to_plain(a: Struct) -> dict:
    """JSON-ready form, canonically sorted."""
    if a.kind == "nary":
        body = sorted(list(t) for t in a.rel)
    else:
        body = sorted(sorted(list(t) for t in k) for k in a.rel)
    return {"kind": a.kind, "n": a.n, "r": a.r, "universe": sorted(a.universe), "rel": body}


def from_plain(d: dict) -> Struct:
    return make(d["kind"], d["n"], d["r"], d["universe"], d["rel"])


def validate(a: Struct) -> list[str]:
    """Every broken invariant of the structure; empty when it is valid."""
    out = []
    width = a.n if a.kind == "nary" else a.r
    tuples = a.rel if a.kind == "nary" else {t for k in a.rel for t in k}
    for t in tuples:
        if len(t) != width or len(set(t)) != len(t) or not set(t) <= a.universe:
            out.append(f"bad tuple {t}")
    if a.kind == "clique":
        for k in a.rel:
            if len(k) < a.s:
                out.append(f"clique {sorted(k)} has fewer than s={a.s} members")
        for k1, k2 in itertools.combinations(a.rel, 2):
            if len(k1 & k2) >= a.s:
                out.append(f"cliques {sorted(k1)} and {sorted(k2)} share at least s members")
    return out


def predim(a: Struct, x: Iterable[int]) -> int:
    x = frozenset(x)
    if a.kind == "nary":
        return len(x) - sum(1 for t in a.rel if set(t) <= x)
    s1 = a.s - 1
    return len(x) - sum(max(0, sum(1 for t in k if set(t) <= x) - s1) for k in a.rel)


def induced(a: Struct, x: Iterable[int]) -> Struct:
    x = frozenset(x)
    if a.kind == "nary":
        return a._replace(universe=x, rel=frozenset(t for t in a.rel if set(t) <= x))
    traces = {frozenset(t for t in k if set(t) <= x) for k in a.rel}
    traces = {k for k in traces if len(k) >= a.s}
    return a._replace(universe=x, rel=frozenset(k for k in traces if not any(k < o for o in traces)))


def relabel(a: Struct, mapping: dict) -> Struct:
    universe = frozenset(mapping[e] for e in a.universe)
    if a.kind == "nary":
        return a._replace(universe=universe,
                          rel=frozenset(tuple(mapping[e] for e in t) for t in a.rel))
    return a._replace(universe=universe, rel=frozenset(
        frozenset(tuple(mapping[e] for e in t) for t in k) for k in a.rel))


def _max_matching(demands: list[frozenset]) -> int:
    """Size of a maximum matching of the demands to distinct elements they contain."""
    owner: dict = {}

    def augment(i: int, seen: set) -> bool:
        for e in demands[i]:
            if e in seen:
                continue
            seen.add(e)
            if e not in owner or augment(owner[e], seen):
                owner[e] = i
                return True
        return False

    return sum(1 for i in range(len(demands)) if augment(i, set()))


def rank(a: Struct, base: Iterable[int]) -> int:
    """min{predim(X) : base <= X <= universe}, by Hall's theorem.

    Tuple structures: every tuple not inside the base needs a distinct
    element outside the base that it contains.  Clique structures with r = 1:
    a clique K needs (|K|-(s-1))+ - (|K & base|-(s-1))+ distinct members
    outside the base.  The minimum is predim(base) minus the demands that a
    maximum matching leaves unmet.
    """
    b = frozenset(base)
    if a.kind == "nary":
        demands = [frozenset(t) - b for t in a.rel if not set(t) <= b]
    else:
        if a.r != 1:
            raise ValueError("the matching rank is for clique structures with r = 1")
        s1 = a.s - 1
        demands = []
        for k in a.rel:
            members = frozenset(t[0] for t in k)
            need = max(0, len(members) - s1) - max(0, len(members & b) - s1)
            demands += [members - b] * need
    return predim(a, b) - (len(demands) - _max_matching(demands))


def is_strong(a: Struct, base: Iterable[int]) -> bool:
    return rank(a, base) == predim(a, base)


def in_class(a: Struct) -> bool:
    return not validate(a) and rank(a, ()) == 0


def closure(a: Struct, base: Iterable[int]) -> frozenset:
    b = frozenset(base)
    r = rank(a, b)
    return b | {e for e in a.universe - b if rank(a, b | {e}) == r}


def rank_table(a: Struct):
    """Rank of every subset of the sorted universe, indexed by bitmask.

    The predimension of each subset is counted directly, member by member;
    the minimum over supersets is then taken one element at a time.
    """
    import numpy as np

    elems = sorted(a.universe)
    pos = {e: i for i, e in enumerate(elems)}
    masks = np.arange(1 << len(elems), dtype=np.int64)

    def inside(t) -> np.ndarray:
        tm = sum(1 << pos[e] for e in t)
        return (masks & tm) == tm

    size = np.zeros(len(masks), dtype=np.int64)
    for i in range(len(elems)):
        size += (masks >> i) & 1
    table = size
    if a.kind == "nary":
        for t in a.rel:
            table = table - inside(t)
    else:
        for k in a.rel:
            count = sum(inside(t).astype(np.int64) for t in k)
            table = table - np.maximum(count - (a.s - 1), 0)
    for i in range(len(elems)):
        view = table.reshape(-1, 2, 1 << i)
        np.minimum(view[:, 0, :], view[:, 1, :], out=view[:, 0, :])
    return table
