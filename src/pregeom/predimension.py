"""Predimension functions, relative predimension and self-sufficiency.

Tuple structures: predim = |A| - |R^A|.  Clique structures: predim =
|A| - sum over maximal cliques of max(0, |K| - (s - 1)).  All arithmetic is
exact integers.  Both functions are submodular on valid inputs, and the
subset searches below rely on that in two ways:

  * contraction: an element whose marginal w.r.t. the current upper set is
    non-negative can be discarded from every minimiser (its marginal only
    grows as the set shrinks);
  * a lower bound: predim(X) >= predim(S) + sum of the negative top
    marginals of the still-free elements, for every S <= X <= T.

The branch-and-bound is required to agree bit-exactly with plain
enumeration; the test suite carries the naive oracle.
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

    __slots__ = ("elems", "index", "nbits", "full", "rel_masks", "cliques", "s")

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


@lru_cache(maxsize=2048)
def _evaluator(struct: Structure) -> _Evaluator:
    return _Evaluator(struct)


def _contract(ev: _Evaluator, base: int, top: int) -> int:
    """Shrink the upper set: drop elements with non-negative marginal, to a fixpoint."""
    while True:
        p_top = ev.value(top)
        drop = 0
        rest = top & ~base
        m = rest
        while m:
            bit = m & -m
            m ^= bit
            if p_top - ev.value(top & ~bit) >= 0:
                drop |= bit
        if not drop:
            return top
        top &= ~drop


def _min_over(ev: _Evaluator, base: int, top: Optional[int] = None,
              want_argmin: bool = False):
    """Exact min of predim(X) over base <= X <= top, optionally with an argmin."""
    if top is None:
        top = ev.full
    top = _contract(ev, base, top)
    free = []
    m = top & ~base
    while m:
        bit = m & -m
        m ^= bit
        free.append(bit)
    p_top = ev.value(top)
    marg = {bit: p_top - ev.value(top & ~bit) for bit in free}
    free.sort(key=lambda b: marg[b])
    suffix = [0] * (len(free) + 1)
    for i in range(len(free) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + min(0, marg[free[i]])
    best = ev.value(base)
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
        dfs(i + 1, cur_mask | bit, ev.value(cur_mask | bit))
        dfs(i + 1, cur_mask, cur_val)

    dfs(0, base, best)
    if want_argmin:
        return best, best_mask
    return best


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
    return _min_over(ev, ev.mask(base))


@dataclass(frozen=True)
class StrongWitness:
    """A violating intermediate set: base <= violating <= universe with negative relative predim."""

    violating: tuple[int, ...]
    relative_value: int


def check_strong(a: Structure, base: Iterable[int]) -> tuple[bool, Optional[StrongWitness]]:
    """Self-sufficiency of `base` in `a`, plus a witness when it fails.

    The witness is the minimum-cardinality violating superset, lexicographic
    least among those (element ids ascending).
    """
    ev = _evaluator(a)
    bmask = ev.mask(base)
    p_base = ev.value(bmask)
    if _min_over(ev, bmask) >= p_base:
        return True, None
    # minimum-size violators never use elements removed by contraction
    top = _contract(ev, bmask, ev.full)
    cand = sorted(ev.unmask(top & ~bmask))
    for k in range(1, len(cand) + 1):
        for extra in itertools.combinations(cand, k):
            m = bmask
            for e in extra:
                m |= 1 << ev.index[e]
            val = ev.value(m)
            if val < p_base:
                return False, StrongWitness(tuple(sorted(ev.unmask(m))), val - p_base)
    raise AssertionError("minimum below base predim but no violating superset found")


def is_strong(a: Structure, base: Iterable[int]) -> bool:
    ev = _evaluator(a)
    bmask = ev.mask(base)
    return _min_over(ev, bmask) >= ev.value(bmask)


def in_class(a: Structure) -> bool:
    """Membership in the amalgamation class: the empty set is self-sufficient."""
    return is_strong(a, ())


def strong_hull(a: Structure, base: Iterable[int]) -> frozenset[int]:
    """A deterministic self-sufficient superset of `base` realising the minimum predimension.

    No single element outside `base` can be dropped from the result without
    raising its predimension.  The result need not be inclusion-minimal among
    the minimisers: a block of elements may only be removable together.
    """
    ev = _evaluator(a)
    bmask = ev.mask(base)
    best, mask = _min_over(ev, bmask, want_argmin=True)
    # every minimiser is self-sufficient; drop single elements while the minimum holds
    changed = True
    while changed:
        changed = False
        for e in sorted(ev.unmask(mask & ~bmask), reverse=True):
            bit = 1 << ev.index[e]
            if ev.value(mask & ~bit) == best:
                mask &= ~bit
                changed = True
    return ev.unmask(mask)
