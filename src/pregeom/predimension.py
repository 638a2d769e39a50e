"""Predimension functions, relative predimension and self-sufficiency.

Tuple structures: predim = |A| - |R^A|.  Clique structures: predim =
|A| - sum over maximal cliques of max(0, |K| - (s - 1)).  All arithmetic is
exact integers.

Class membership (the empty set is self-sufficient), the dimension
min_predim_over(B) and its largest minimiser (the closure of B) come from one
max-flow, `_placement`, in time polynomial in the size of the structure.
Self-sufficiency of a base, the strong hull and the strong witness still run
the branch-and-bound `_min_over`.  The two predimension functions are
submodular on valid inputs, and the branch-and-bound relies on that in two
ways:

  * contraction: an element whose marginal w.r.t. the current upper set is
    non-negative can be discarded from every minimiser (its marginal only
    grows as the set shrinks).  That marginal is one minus the units the
    element's removal loses, so the rule is "at most one lost unit"; the
    tie-break below keeps it, as (n+1)·(1 − lost) + 1 >= 0 exactly when
    lost <= 1.  One sweep over the units counts every loss of a round;
  * a lower bound: predim(X) >= predim(S) + sum of the negative top
    marginals of the still-free elements, for every S <= X <= T.

Both facts hold for any submodular objective.  Minimisers over [B, U] are
closed under union and intersection, so there is a least and a largest one.
The least is the unique argmin of (n+1)·predim(X) + |X| (n = |U|; one unit
of predim outweighs any difference in size), which is submodular too.  It,
H, is the self-sufficient closure of B: predim(X ∩ S) <= predim(X) for a
minimiser X and a strong S >= B, so H lies inside every strong superset of
B; and predim(V ∩ H) <= predim(V) + predim(H) - predim(V ∪ H) <= predim(V),
so every minimum-size violator V of a non-strong B lies inside H.

The max-flow and the branch-and-bound are required to agree bit-exactly
with plain enumeration; the test suite carries the naive oracle.
"""

from __future__ import annotations

import itertools
from collections import Counter
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

    __slots__ = ("elems", "index", "nbits", "full", "rel_masks", "cliques", "members", "most",
                 "s", "units", "verdict")

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
            self.cliques = self.members = self.most = None
            self.s = None
            self.units = [_bits(tm) for tm in self.rel_masks]
        else:
            # distinct member tuples may share a support mask; count tuples, not masks
            self.s = struct.params.s
            self.cliques = [[self._mask_of(t) for t in sorted(k)]
                            for k in sorted(struct.maxcliques, key=lambda k: sorted(k))]
            self.rel_masks = None
            self.members = [[_bits(tm) for tm in kmasks] for kmasks in self.cliques]
            # the most members of one maxclique that any one element lies in
            self.most = [max(Counter(i for bits in kbits for i in bits).values())
                         for kbits in self.members]
            self.units = [bits + [self.nbits + k]
                          for k, kbits in enumerate(self.members) for bits in kbits]
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
        return frozenset(self.elems[i] for i in _bits(mask))

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
            self.verdict = None not in _placement(self, 0)[3]
        return self.verdict


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return out


@lru_cache(maxsize=2048)
def _evaluator(struct: Structure) -> _Evaluator:
    return _Evaluator(struct)


def _placement(ev: _Evaluator, base: int) -> tuple[list, list, list, list]:
    """A maximum placement of the members' units on Picard's closure network.

    Every member (a relation tuple, or one member tuple of one maxclique)
    carries one unit.  It may place it on one of its own elements outside
    `base`, each taking one unit, or, in the clique class, on its own
    maxclique, which takes s − 1.  Slots 0..n−1 are the elements, n + k the
    k-th maxclique.  Members are placed one at a time, each by a
    breadth-first augmenting-path search; a unit that finds no path stays
    unplaced, and it would find none later either, so the placement is
    maximum.  Returns (slots, cap, holders, placed): the slots each unit may
    use, each slot's capacity, the units on each slot and each unit's slot
    (None when unplaced).

    With base = ∅ every unit is placed exactly when the structure is in
    class: a set M of members whose elements and cliques take fewer than |M|
    units gives predim(X) < 0 for the elements X of M, and the members inside
    a violator X of the cliques that count in X are such an M (for tuples,
    Hall's condition).  `min_predim_over` and `largest_minimiser` read the
    same placement with the base's elements closed.
    """
    n = ev.nbits
    slots = [[v for v in unit if v >= n or not base >> v & 1] for unit in ev.units]
    cap = [1] * n if ev.cliques is None else [1] * n + [ev.s - 1] * len(ev.cliques)
    holders = [[] for _ in cap]
    placed = [None] * len(slots)
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
        v = free
        while v is not None:  # move each unit on the path to the slot after it
            x = reached[v]
            old = placed[x]
            placed[x] = v
            holders[v].append(x)
            if old is not None:
                holders[old].remove(x)
            v = old
    return slots, cap, holders, placed


def _contract(ev: _Evaluator, base: int) -> tuple[int, list[int]]:
    """Shrink the universe to a fixpoint `top` and count each element's lost units there.

    Dropping element i from `top` loses lost[i] units, so its marginal is
    1 − lost[i]: a tuple inside `top` containing i, or, for a maxclique K
    with c_K members inside `top` of which d_K(i) contain i,
    min(d_K(i), max(0, c_K − (s − 1))).  Each round is one sweep over the
    units and drops every element outside `base` that loses at most one.
    """
    top = ev.full
    while True:
        lost = [0] * ev.nbits
        if ev.cliques is None:
            for tm, unit in zip(ev.rel_masks, ev.units):
                if tm & top == tm:
                    for i in unit:
                        lost[i] += 1
        else:
            for kmasks, kbits, most in zip(ev.cliques, ev.members, ev.most):
                inside = [bits for tm, bits in zip(kmasks, kbits) if tm & top == tm]
                spare = len(inside) - (ev.s - 1)
                if spare >= most:  # d_K(i) <= most <= spare, so min(d_K(i), spare) = d_K(i)
                    for bits in inside:
                        for i in bits:
                            lost[i] += 1
                elif spare > 0:
                    for i, d in Counter(i for bits in inside for i in bits).items():
                        lost[i] += min(d, spare)
        drop = 0
        for i in _bits(top & ~base):
            if lost[i] <= 1:
                drop |= 1 << i
        if not drop:
            return top, lost
        top &= ~drop


def _min_over(ev: _Evaluator, base: int, tilt: int = 0) -> tuple[int, int]:
    """Exact min of predim(X) over base <= X <= universe, with an argmin mask.

    With tilt=+1 the argmin is the least minimiser: the search runs on
    (n+1)·predim(X) + |X| (see the module docstring).  With tilt=0 it is
    whichever minimiser the search meets first.
    """
    scale = ev.nbits + 1
    value = (lambda m: scale * ev.value(m) + tilt * m.bit_count()) if tilt else ev.value
    top, lost = _contract(ev, base)
    # the marginal of element i against top is 1 − lost[i], times scale plus tilt when tilted
    weight = scale if tilt else 1
    marg = {1 << i: weight * (1 - lost[i]) + tilt for i in _bits(top & ~base)}
    free = sorted(marg, key=marg.get)
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
    """min { predim(X) : base <= X <= universe }, the dimension of `base` when a is in class.

    It is |B| − |M| + ν_B, where M is the set of units and ν_B the number a
    maximum placement with B's elements closed places (`_placement`): Hall's
    deficiency form.  For a set T of units let c(T) be the capacity of the
    slots they may use.  Each placed unit of T sits on one of those slots, so
    |T| − c(T) <= |M| − ν_B.
      (>=) For X >= B let T be the units that count in X: the tuples inside
      X, or the members inside X of the cliques with more than s − 1 of them.
      Then predim(X) = |X| − |T| + (s − 1)·#cliques of T >= |B| + c(T) − |T|
      >= |B| − |M| + ν_B, since the slot elements of T lie in X − B.
      (<=) Let T be the units that an unplaced unit reaches by alternating
      paths (unit, a slot it may use, a unit on that slot).  Their slots are
      full and hold only units of T, so |T| − c(T) = |M| − ν_B, and X = B
      plus those slots' elements has predim(X) <= |B| + c(T) − |T|.
    """
    ev = _evaluator(a)
    bmask = ev.mask(base)
    return bmask.bit_count() - _placement(ev, bmask)[3].count(None)


def largest_minimiser(a: Structure, base: Iterable[int]) -> frozenset[int]:
    """The largest X with base <= X <= universe and predim(X) = min_predim_over(a, base).

    It is B plus every element whose slot is full in every maximum placement.
    Equality in min_predim_over's (>=) chain makes X − B the slot elements of
    T and fills their slots with units of T, in any maximum placement; so no
    minimiser holds an element whose slot some maximum placement leaves
    spare.  Those slots are found by one reverse search from the spare
    slots: a unit that may move onto a slot that can be freed frees the slot
    it holds.  The units on the slots that cannot be freed, with the
    unplaced ones, may use only those slots (else a slot could be freed or a
    unit placed) and fill them, so as in the (<=) step B plus those slots'
    elements is itself a minimiser.
    """
    ev = _evaluator(a)
    bmask = ev.mask(base)
    slots, cap, holders, placed = _placement(ev, bmask)
    users = [[] for _ in cap]  # the units that may use each slot
    for x, usable in enumerate(slots):
        for v in usable:
            users[v].append(x)
    freed = [len(h) < c for h, c in zip(holders, cap)]
    stack = [v for v, spare in enumerate(freed) if spare]
    while stack:
        for x in users[stack.pop()]:
            v = placed[x]
            if v is not None and not freed[v]:
                freed[v] = True
                stack.append(v)
    keep = bmask
    for v in range(ev.nbits):
        if not freed[v]:
            keep |= 1 << v
    return ev.unmask(keep)


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
