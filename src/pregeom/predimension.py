"""Predimension functions, relative predimension and self-sufficiency.

Tuple structures: predim = |A| - |R^A|.  Clique structures: predim =
|A| - sum over maximal cliques of max(0, |K| - (s - 1)).  All arithmetic is
exact integers.

Class membership (the empty set is self-sufficient) is decided by one
max-flow, `_class_flow`, in time polynomial in the size of the structure.
The remaining searches (self-sufficiency of a base, the dimension, the
closure and the strong hull) run the branch-and-bound `_min_over`.  The two
predimension functions are submodular on valid inputs, and the branch-and-bound
relies on that in two ways:

  * contraction: an element whose marginal w.r.t. the current upper set is
    non-negative can be discarded from every minimiser (its marginal only
    grows as the set shrinks);
  * a lower bound: predim(X) >= predim(S) + sum of the negative top
    marginals of the still-free elements, for every S <= X <= T.

Both facts hold for any submodular objective.  Minimisers over [B, U] are
closed under union and intersection, so there is a least and a largest one,
the unique argmins of (n+1)·predim(X) ± |X| (n = |U|; one unit of predim
outweighs any difference in size), which are submodular too.  The largest is
the closure of B when the structure is in class.  The least, H, is the
self-sufficient closure of B: predim(X ∩ S) <= predim(X) for a minimiser X
and a strong S >= B, so H lies inside every strong superset of B; and
predim(V ∩ H) <= predim(V) + predim(H) - predim(V ∪ H) <= predim(V), so every
minimum-size violator V of a non-strong B lies inside H.

The max-flow and the branch-and-bound are required to agree bit-exactly
with plain enumeration; the test suite carries the naive oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .errors import DomainError
from .structures import NaryStructure, Structure, validate


def clique_weight(members, s: int) -> int:
    """Contribution of a clique at threshold s: max(0, |members| - (s - 1)).

    Accepts the member set itself or its cardinality.
    """
    if s < 2:
        raise DomainError(f"threshold s must be >= 2, got {s}")
    size = members if isinstance(members, int) else len(members)
    return max(0, size - (s - 1))


class _Evaluator:
    """Predimension of induced substructures, evaluated on element bitmasks."""

    __slots__ = ("elems", "index", "nbits", "full", "rel_masks", "cliques", "s", "verdict")

    def __init__(self, struct: Structure):
        report = validate(struct)
        if report:
            raise DomainError("invalid structure: " + "; ".join(report))
        self.elems = struct.sorted_universe()
        self.index = {e: i for i, e in enumerate(self.elems)}
        self.nbits = len(self.elems)
        self.full = (1 << self.nbits) - 1
        if isinstance(struct, NaryStructure):
            self.rel_masks = [self._mask_of(t) for t in sorted(struct.relation)]
            self.cliques = None
            self.s = None
        else:
            # distinct member tuples may share a support mask; count tuples, not masks
            self.s = struct.params.s
            self.cliques = [[self._mask_of(t) for t in sorted(k)]
                            for k in sorted(struct.maxcliques, key=lambda k: sorted(k))]
            self.rel_masks = None
        self.verdict = None  # class membership, filled by in_class()

    def _mask_of(self, t) -> int:
        m = 0
        for e in t:
            m |= 1 << self.index[e]
        return m

    def mask(self, subset: Iterable[int]) -> int:
        m = 0
        for e in subset:
            if e not in self.index:
                raise DomainError(f"element {e} is outside the universe")
            m |= 1 << self.index[e]
        return m

    def unmask(self, mask: int) -> frozenset[int]:
        out = []
        while mask:
            bit = mask & -mask
            mask ^= bit
            out.append(self.elems[bit.bit_length() - 1])
        return frozenset(out)

    def value(self, mask: int) -> int:
        size = mask.bit_count()
        if self.rel_masks is not None:
            hits = 0
            for tm in self.rel_masks:
                if tm & mask == tm:
                    hits += 1
            return size - hits
        total = 0
        s1 = self.s - 1
        for kmasks in self.cliques:
            cnt = 0
            for tm in kmasks:
                if tm & mask == tm:
                    cnt += 1
            if cnt > s1:
                total += cnt - s1
        return size - total

    def in_class(self) -> bool:
        """Whether the empty set is self-sufficient; decided once per evaluator."""
        if self.verdict is None:
            self.verdict = _class_flow(self)
        return self.verdict


@lru_cache(maxsize=2048)
def _evaluator(struct: Structure) -> _Evaluator:
    return _Evaluator(struct)


def _class_flow(ev: _Evaluator) -> bool:
    """Class membership by one max-flow on Picard's closure network.

    Every member (a relation tuple, or one member tuple of one maxclique)
    carries one unit.  It may place it on one of its own elements, each
    taking one unit, or, in the clique class, on its own maxclique, which
    takes s − 1.  The structure is in class exactly when every unit is
    placed: a set M of members whose elements and cliques can take fewer
    than |M| units gives predim(X) < 0 for the elements X of M, and the
    members inside a violator X of the cliques that count in X are such an
    M.  For tuples this is Hall's condition.  Members are placed one at a
    time, each by a breadth-first augmenting-path search; when one finds no
    path, no placement of all units exists.
    """
    n = ev.nbits
    if ev.rel_masks is not None:
        slots = [[ev.index[e] for e in ev.unmask(tm)] for tm in ev.rel_masks]
        cap = [1] * n
    else:
        slots = [[ev.index[e] for e in ev.unmask(tm)] + [n + k]
                 for k, kmasks in enumerate(ev.cliques) for tm in kmasks]
        cap = [1] * n + [ev.s - 1] * len(ev.cliques)
    holders = [[] for _ in cap]  # the units placed on each slot
    placed = [None] * len(slots)  # the slot each unit sits on
    for unit in range(len(slots)):
        # a placed unit is queued only through its own slot, and each slot is reached once
        reached = {}  # slot -> the unit whose search reached it
        queue = [unit]
        free = None
        i = 0
        while free is None and i < len(queue):
            x = queue[i]
            i += 1
            for v in slots[x]:
                if v in reached:
                    continue
                reached[v] = x
                if len(holders[v]) < cap[v]:
                    free = v
                    break
                queue.extend(holders[v])
        if free is None:
            return False
        v = free
        while v is not None:  # move each unit on the path to the slot after it
            x = reached[v]
            old = placed[x]
            placed[x] = v
            holders[v].append(x)
            if old is not None:
                holders[old].remove(x)
            v = old
    return True


def _contract(value, top: int, base: int) -> int:
    """Shrink `top`: drop elements with non-negative marginal under `value`, to a fixpoint."""
    while True:
        p_top = value(top)
        drop = 0
        m = top & ~base
        while m:
            bit = m & -m
            m ^= bit
            if p_top - value(top & ~bit) >= 0:
                drop |= bit
        if not drop:
            return top
        top &= ~drop


def _min_over(ev: _Evaluator, base: int, tilt: int = 0) -> tuple[int, int]:
    """Exact min of predim(X) over base <= X <= universe, with an argmin mask.

    With tilt=+1 the argmin is the least minimiser and with tilt=-1 the
    largest: the search runs on (n+1)·predim(X) + tilt·|X| (see the module
    docstring).  With tilt=0 it is whichever minimiser the search meets first.
    """
    scale = ev.nbits + 1
    value = (lambda m: scale * ev.value(m) + tilt * m.bit_count()) if tilt else ev.value
    top = _contract(value, ev.full, base)
    free = []
    m = top & ~base
    while m:
        bit = m & -m
        m ^= bit
        free.append(bit)
    p_top = value(top)
    marg = {bit: p_top - value(top & ~bit) for bit in free}
    free.sort(key=lambda b: marg[b])
    suffix = [0] * (len(free) + 1)
    for i in range(len(free) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + min(0, marg[free[i]])
    best = value(base)
    best_mask = base

    def dfs(i: int, cur_mask: int, cur_val: int):
        nonlocal best, best_mask
        if cur_val + suffix[i] >= best:
            return
        if i == len(free):
            if cur_val < best:
                best = cur_val
                best_mask = cur_mask
            return
        bit = free[i]
        dfs(i + 1, cur_mask | bit, value(cur_mask | bit))
        dfs(i + 1, cur_mask, cur_val)

    dfs(0, base, best)
    if tilt:
        best = (best - tilt * best_mask.bit_count()) // scale
    return best, best_mask


def predim(a: Structure) -> int:
    """The predimension of the whole structure (exact integer, possibly negative)."""
    ev = _evaluator(a)
    return ev.value(ev.full)


def predim_rel(a: Structure, part: Iterable[int], base: Iterable[int]) -> int:
    """Relative predimension predim(part over base) = predim(part + base) - predim(base)."""
    ev = _evaluator(a)
    pm = ev.mask(part)
    bm = ev.mask(base)
    return ev.value(pm | bm) - ev.value(bm)


def min_predim_over(a: Structure, base: Iterable[int]) -> int:
    """min { predim(X) : base <= X <= universe }, the dimension of `base` when a is in class."""
    ev = _evaluator(a)
    return _min_over(ev, ev.mask(base))[0]


def largest_minimiser(a: Structure, base: Iterable[int]) -> frozenset[int]:
    """The largest X with base <= X <= universe and predim(X) = min_predim_over(a, base).

    One search on (n+1)·predim(X) − |X| finds it (see the module docstring).
    """
    ev = _evaluator(a)
    return ev.unmask(_min_over(ev, ev.mask(base), tilt=-1)[1])


@dataclass(frozen=True)
class StrongWitness:
    """A violating intermediate set: base <= violating <= universe with negative relative predim."""

    violating: tuple[int, ...]
    relative_value: int


def check_strong(a: Structure, base: Iterable[int]) -> tuple[bool, Optional[StrongWitness]]:
    """Self-sufficiency of `base` in `a`, plus a witness when it fails.

    The witness is the minimum-cardinality violating superset, lexicographic
    least among those (element ids ascending).  `base` is strong exactly when
    it is its own strong hull, which holds every such violator (see the module
    docstring).
    """
    ev = _evaluator(a)
    bmask = ev.mask(base)
    hull = _min_over(ev, bmask, tilt=1)[1]
    if hull == bmask:
        return True, None
    p_base = ev.value(bmask)
    cand = sorted(ev.unmask(hull & ~bmask))
    for k in range(1, len(cand) + 1):
        for extra in itertools.combinations(cand, k):
            m = bmask | ev.mask(extra)
            val = ev.value(m)
            if val < p_base:
                return False, StrongWitness(tuple(sorted(ev.unmask(m))), val - p_base)
    raise AssertionError("the strong hull is larger than the base but holds no violating superset")


def is_strong(a: Structure, base: Iterable[int]) -> bool:
    ev = _evaluator(a)
    bmask = ev.mask(base)
    return _min_over(ev, bmask)[0] >= ev.value(bmask)


def in_class(a: Structure) -> bool:
    """Membership in the amalgamation class: the empty set is self-sufficient."""
    return _evaluator(a).in_class()


def strong_hull(a: Structure, base: Iterable[int]) -> frozenset[int]:
    """The self-sufficient closure of `base`, its least strong superset.

    It is the least X with base <= X <= universe and predim(X) =
    min_predim_over(a, base); one search on (n+1)·predim(X) + |X| finds it.
    """
    ev = _evaluator(a)
    return ev.unmask(_min_over(ev, ev.mask(base), tilt=1)[1])
