"""Predimension functions, relative predimension and self-sufficiency.

The members of a structure's relation fall into groups that share one
threshold t, and

    predim(A) = |A| - sum over the groups of max(0, c - t),

with c the group's members inside A.  A tuple structure is one group, all its
tuples, with t = 0, so predim(A) = |A| - |R^A|; a clique structure has one
group per maximal clique, with t = s - 1.  All arithmetic is exact integers.

Class membership (the empty set is self-sufficient), the dimension
min_predim_over(B) and its largest minimiser (the closure of B) come from one
bipartite matching, `_placement`, in time polynomial in the size of the
structure.  Each member carries one unit, and each slot holds at most one:
the elements, and group k's t slots (the tuple relation, t = 0, has none).
Those are the block w_K of s − 1 imaginary elements that the paper's
construction gives a maxclique K: turning each member x of K into the tuple
w_K + x makes a tuple structure T_C whose class, dimension and closure on the
real elements are those of C.  The evaluator keeps the maximum matching for
B = ∅, which decides membership; for a base B, `_placement` unplaces only the
units on B's element slots, at most |B|, and re-augments just those (the
proof is in its docstring).
Self-sufficiency of a base, the strong hull and `check_strong`'s witness,
which is the hull itself, still come from one branch-and-bound search for the
least minimiser, `_least_minimiser`.  The predimension is submodular on valid
inputs, and the branch-and-bound relies on that in two ways:

  * contraction: an element whose marginal w.r.t. the current upper set is
    non-negative can be discarded from every minimiser (its marginal only
    grows as the set shrinks).  That marginal is one minus the units the
    element's removal loses, so the rule is "at most one lost unit"; the
    tie-break below keeps it, as (n+1)·(1 − lost) + 1 >= 0 exactly when
    lost <= 1.  So a round needs only the elements that lose two or more
    units, which each counting group's masks of the elements in at least
    one and at least two of its members give as one bitmask.  The first
    round, against the universe, is the same for every base, so the
    evaluator keeps it; a later round recounts only the groups its drop
    touched, and a group left with at most t members is retired for good,
    as the upper set only shrinks.  The exact counts are taken once, at the
    fixpoint, for the free elements.  The search then evaluates on the
    kernel, the counting groups' members inside the upper set T.  That is
    exact on every X with B <= X <= T: a member outside T is never inside X,
    and a group with at most t members inside T has at most t inside X;
  * a lower bound: predim(X) >= predim(S) + sum of the negative top
    marginals of the still-free elements, for every S <= X <= T.

Both facts hold for any submodular objective.  Minimisers over [B, U] are
closed under union and intersection, so there is a least and a largest one.
The least is the unique argmin of (n+1)·predim(X) + |X| (n = |U|; one unit
of predim outweighs any difference in size), which is submodular too.  It,
H, is the self-sufficient closure of B: predim(X ∩ S) <= predim(X) for a
minimiser X and a strong S >= B, so H lies inside every strong superset of
B.  So B is strong exactly when H = B, and otherwise H itself violates it:
predim(H) < predim(B).

The max-flow and the branch-and-bound are required to agree bit-exactly
with plain enumeration; the test suite carries the naive oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .errors import DomainError
from .structures import NaryStructure, Structure, validate


class _Evaluator:
    """Predimension of induced substructures, evaluated on element bitmasks.

    `groups` holds each group's member masks and `t` the threshold they
    share (see the module docstring); the structure's kind is read here and
    nowhere else.  Each member carries one unit, in group order, and every
    slot holds at most one unit.  Slots 0..n−1 are the elements, and
    n + k·t .. n + (k+1)·t − 1 are group k's, its maxclique's block w_K; the
    tuple relation, with t = 0, has none.  Also the indexes the kernels
    read: `units` (the slots each unit may use: its member's elements, then
    its group's slots; `_placement`), `users` (the units that may use each
    slot; a block's slots share one list), `incidence` (per element, the
    groups through it, each with its member masks that contain the element;
    `_contract`), the first contraction round against the whole universe
    (`live`, the counting groups' states, and `twos`, the elements that lose
    two units or more; `_round`), and the cached maximum placement with no
    slot closed (`owner`, each slot's unit or None, and `placed`, each
    unit's slot or None).
    """

    __slots__ = ("elems", "index", "nbits", "full", "groups", "t", "units", "users",
                 "incidence", "live", "twos", "owner", "placed")

    def __init__(self, struct: Structure):
        report = validate(struct)
        if report:
            raise DomainError("invalid structure: " + "; ".join(report))
        self.elems = struct.sorted_universe()
        self.index = {e: i for i, e in enumerate(self.elems)}
        self.nbits = n = len(self.elems)
        self.full = (1 << n) - 1
        if isinstance(struct, NaryStructure):
            self.t, groups = 0, [sorted(struct.relation)]
        else:
            self.t = struct.params.s - 1
            groups = [sorted(k) for k in sorted(struct.maxcliques, key=sorted)]
        # distinct member tuples may share a support mask; count tuples, not masks
        self.groups = [[self._mask_of(m) for m in g] for g in groups]
        self.units = []
        self.users = [[] for _ in range(n)]
        self.incidence = [[] for _ in range(n)]
        for k, group in enumerate(self.groups):
            block = list(range(n + k * self.t, n + (k + 1) * self.t))  # group k's slots: w_K
            members = list(range(len(self.units), len(self.units) + len(group)))
            self.users += [members] * self.t  # one list, shared by the block's slots
            through = {}  # element -> the masks of this group's members that contain it
            for x, tm in zip(members, group):
                bits = _bits(tm)
                self.units.append(bits + block)
                for i in bits:
                    self.users[i].append(x)
                    through.setdefault(i, []).append(tm)
            for i, masks in through.items():
                self.incidence[i].append((k, masks))
        # the first contraction round, against the whole universe, is the same for every base
        self.live, self.twos = _round([(k, g, *_spread(g)) for k, g in enumerate(self.groups)],
                                      0, self.t)
        self.owner = self.placed = None  # filled by in_class()

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
        return _predim(self.groups, self.t, mask)

    def in_class(self) -> bool:
        """Whether the empty set is self-sufficient: every unit is placed at base ∅.

        The first call builds the maximum placement with no slot closed,
        which `_placement` then re-augments for each base.
        """
        if self.placed is None:
            self.owner = [None] * len(self.users)
            self.placed = [None] * len(self.units)
            for x in range(len(self.units)):
                _augment(self, x, 0, self.owner, self.placed)
        return None not in self.placed


def _predim(groups: list, t: int, mask: int) -> int:
    """|mask| minus, over the groups, max(0, c − t) for c the group's members inside mask."""
    total = 0
    for group in groups:
        c = 0
        for tm in group:
            if tm & mask == tm:
                c += 1
        if c > t:
            total += c - t
    return mask.bit_count() - total


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


def _augment(ev: _Evaluator, unit: int, base: int, owner: list, placed: list) -> None:
    """Place `unit` by one breadth-first augmenting-path search that skips `base`'s slots.

    The search alternates a unit, a slot it may use and that slot's owner.
    Each unit on the path found moves to the slot after it, which frees the
    slot it held for the unit before it.  When no path reaches an empty slot
    nothing changes, and the unit stays unplaced.
    """
    # a placed unit is queued only through its own slot, and each slot is reached once
    reached = {}  # slot -> the unit whose search reached it
    queue = [unit]
    free = None
    i = 0
    while free is None and i < len(queue):
        x = queue[i]
        i += 1
        for v in ev.units[x]:
            if v in reached or base >> v & 1:
                continue
            reached[v] = x
            if owner[v] is None:
                free = v
                break
            queue.append(owner[v])
    v = free
    while v is not None:  # move each unit on the path to the slot after it
        x = reached[v]
        old = placed[x]
        placed[x] = v
        owner[v] = x
        v = old


def _placement(ev: _Evaluator, base: int) -> tuple[list, list]:
    """A maximum matching of the members' units to slots, one unit per slot.

    Every member of a group carries one unit.  It may place it on one of its
    own elements outside `base` or on one of its group's t slots, the block
    w_K (none for the tuple relation, where t = 0).  These t slots carry
    what Picard's closure network gives the group as one node of capacity
    t, so the matching is that network's maximum flow.  Slots 0..n−1 are
    the elements, and n + k·t .. n + (k+1)·t − 1 group k's; `base`'s element
    slots are closed.  Returns (owner, placed): each slot's unit and each
    unit's slot (None when empty or unplaced).

    The evaluator keeps a maximum placement for base = ∅, built by
    `in_class` one unit at a time, each by one augmenting search
    (`_augment`).  A unit that finds no path stays unplaced, and it would
    find none later either: augmenting along a path opens none for a unit
    that had none.  So no unplaced unit has an augmenting path, and by
    Berge's theorem the placement is maximum.  For a base B the cached
    placement is copied, the units on B's element slots (at most |B|) are
    unplaced, and just those are re-augmented with B's slots closed.  A unit
    left unplaced at ∅ stays unplaced: before the re-augmentation every
    open slot has the same owner as in the ∅ placement, so an augmenting
    path for that unit, which avoids B's slots, would also have augmented
    the ∅ placement; and the re-augmentations open none.  By Berge's theorem
    the result is maximum, so ν_B and the slots full in every maximum
    placement, which are all that `min_predim_over` and `largest_minimiser`
    read, are those of a placement from nothing.

    With base = ∅ every unit is placed exactly when the structure is in
    class, by Hall's theorem: a set M of units that may use fewer than |M|
    slots gives predim(X) < 0 for the elements X of M, and the members
    inside a violator X of the groups that count in X (more than t members
    inside) are such an M.
    """
    ev.in_class()  # builds the placement for base = ∅ on the first call
    owner = ev.owner[:]  # copies: the cache stays the placement for ∅
    placed = ev.placed[:]
    moved = [owner[v] for v in _bits(base) if owner[v] is not None]
    for x in moved:
        owner[placed[x]] = None
        placed[x] = None
    for x in moved:
        _augment(ev, x, base, owner, placed)
    return owner, placed


def _spread(members: list) -> tuple[int, int]:
    """The elements in at least one and in at least two of the member masks."""
    one = two = 0
    for tm in members:
        two |= one & tm
        one |= tm
    return one, two


def _round(live: list, drop: int, t: int) -> tuple[list, int]:
    """One contraction round after `drop` left `top`: the groups still counting, and `twos`.

    Each state is (k, members, one, two): group k's members inside `top`, and
    the elements in at least one and in at least two of them (`_spread`).  A
    group whose `one` misses `drop` keeps all of them, so only the others are
    recounted, and each of those loses at least one member.  A group with
    c <= t members inside `top` adds nothing, and as `top` only shrinks it
    never counts again, so it leaves the list for good.  `twos` collects the
    elements that lose at least two units (see `_contract`).
    """
    kept = []
    ones = twos = 0
    for state in live:
        k, members, one, two = state
        if one & drop:
            if len(members) <= t + 1:  # it loses a member, so it no longer counts
                continue
            members = [tm for tm in members if not tm & drop]
            one, two = _spread(members)
            state = k, members, one, two
        spare = len(members) - t
        if spare > 0:
            kept.append(state)
            twos |= ones & one
            if spare >= 2:
                twos |= two
            ones |= one
    return kept, twos


def _contract(ev: _Evaluator, base: int) -> tuple[int, dict[int, int], list]:
    """Shrink the universe to a fixpoint `top`, and count its free elements' lost units.

    Dropping element i from `top` loses lost[i] units, so its marginal is
    1 − lost[i]: the sum over the groups of min(d(i), max(0, c − t)), where
    c of the group's members lie inside `top` and d(i) of those contain i.
    (For the tuple relation t = 0 and d(i) <= c, so that is d(i), the tuples
    inside `top` containing i.)  Each round drops every element outside
    `base` that loses at most one unit, so it needs only the set `twos` of
    the elements that lose two or more.  Two saturating masks, `ones` and
    `twos`, hold the elements that lose at least one and at least two units.
    A group with spare = c − t >= 2 adds its `two` (min(d(i), spare) >= 2
    exactly when d(i) >= 2); with spare >= 1 it adds its `one`, and an element
    in the `one` of two such groups loses two units.  A group with spare <= 0
    adds nothing.  `_round` keeps each counting group's members inside `top`
    with their `one` and `two`.  With `top` the universe the first round does
    not depend on the base, so the evaluator keeps it (`live`, `twos`) and
    the first drop needs no scan; later rounds recount only the groups that a
    drop touched.  Only at the fixpoint are the exact counts taken, for the
    free elements (`top` − `base`) alone.

    Returns (top, lost, kernel): lost is keyed by the free elements' indices,
    and the kernel is the counting groups' members inside `top`.  Its
    predimension (`_predim` with the threshold t) equals the structure's on
    every X with base <= X <= top: a member outside `top` is never inside X,
    and a group with c <= t members inside `top` has at most t inside X.
    """
    t = ev.t
    top, live, twos = ev.full, ev.live, ev.twos
    while drop := top & ~base & ~twos:
        top &= ~drop
        live, twos = _round(live, drop, t)
    kernel = []
    spares = {}
    for k, members, _, _ in live:
        kernel.append(members)
        spares[k] = len(members) - t
    lost = {}
    for i in _bits(top & ~base):
        total = 0
        for k, masks in ev.incidence[i]:
            if k in spares:
                d = 0
                for tm in masks:
                    if tm & top == tm:
                        d += 1
                total += min(d, spares[k])
        lost[i] = total
    return top, lost, kernel


def _least_minimiser(ev: _Evaluator, base: int) -> int:
    """The least X with base <= X <= universe and predim(X) minimal, as a mask.

    The search runs on (n+1)·predim(X) + |X|, whose unique argmin is that X
    (see the module docstring).  Every minimiser lies inside `_contract`'s
    `top`, and the search evaluates only masks in [base, top], on the kernel,
    which gives them the structure's predimension.
    """
    scale = ev.nbits + 1
    _, lost, kernel = _contract(ev, base)
    t = ev.t
    # a mask's value is scale·predim + size; element i's marginal against top is 1 − lost[i]
    marg = {1 << i: scale * (1 - loss) + 1 for i, loss in lost.items()}
    free = sorted(marg, key=marg.get)
    suffix = [0] * (len(free) + 1)
    for i in range(len(free) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + min(0, marg[free[i]])
    best = scale * _predim(kernel, t, base) + base.bit_count()
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
        m = cur_mask | free[i]
        dfs(i + 1, m, scale * _predim(kernel, t, m) + m.bit_count())
        dfs(i + 1, cur_mask, cur_val)

    dfs(0, base, best)
    return best_mask


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

    It is |B| − |M| + ν_B, where M is the set of units and ν_B the size of a
    maximum matching with B's elements closed (`_placement`): Ore's
    deficiency form of Hall's theorem.  For a set T of units let c(T) be the
    number of open slots they may use: their members' elements outside B,
    and the t slots of each group of T.  Each placed unit of T sits on one
    of those slots, so |T| − c(T) <= |M| − ν_B.
      (>=) For X >= B let T be the units that count in X: the members
      inside X of the groups with more than t of them.  Then predim(X) =
      |X| − |T| + t·#groups of T >= |B| + c(T) − |T| >= |B| − |M| + ν_B,
      since the open element slots of T lie in X − B.
      (<=) Let T be the units that an unplaced unit reaches by alternating
      paths (unit, a slot it may use, the unit on that slot).  Each slot
      they may use holds a unit (else a path would augment), that unit is
      in T, and each placed unit of T sits on one of them, so |T| − c(T) =
      |M| − ν_B; and X = B plus those slots' elements holds every member of
      T, so predim(X) <= |X| − |T| + t·#groups of T = |B| + c(T) − |T|.
    ν_B is the same for every maximum placement, so it may be read off the
    one `_placement` re-augments from the cached placement for ∅: the units
    left unplaced at ∅ stay unplaced, and by Berge's theorem no unplaced
    unit has an augmenting path (see `_placement`).
    """
    ev = _evaluator(a)
    bmask = ev.mask(base)
    return bmask.bit_count() - _placement(ev, bmask)[1].count(None)


def largest_minimiser(a: Structure, base: Iterable[int]) -> frozenset[int]:
    """The largest X with base <= X <= universe and predim(X) = min_predim_over(a, base).

    It is B plus every element whose slot holds a unit in every maximum
    placement (Dulmage & Mendelsohn).  Equality in min_predim_over's (>=)
    chain makes X − B the element slots of T and fills every slot T may use
    with a unit of T, in any maximum placement; so no minimiser holds an
    element whose slot some maximum placement leaves empty.  Those slots are
    found by one reverse search from the empty slots: a unit that may move
    onto a slot that can be freed frees the slot it holds.  Every unit that
    may use such a slot is placed, else a path would augment.  The units on
    the slots that cannot be freed, with the unplaced ones, may use only
    those slots (else a slot could be freed or a unit placed) and fill them,
    so as in the (<=) step B plus those slots' elements is itself a
    minimiser.
    Only element slots are read; group k's slots enter through c(T), as the
    block w_K, which adds no element of the universe.  Any maximum placement
    serves, and `_placement`'s re-augmented one is maximum.  The search
    reads the evaluator's `users` index, built with no slot closed; it never
    pushes a closed slot of B, so it only crosses slots the units may use.
    """
    ev = _evaluator(a)
    bmask = ev.mask(base)
    owner, placed = _placement(ev, bmask)
    freed = [x is None for x in owner]
    for v in _bits(bmask):
        freed[v] = False  # a closed slot is never pushed (no unit may use it) and is kept
    stack = [v for v, spare in enumerate(freed) if spare]
    while stack:
        users = ev.users[stack.pop()]
        for x in users:
            v = placed[x]
            if not freed[v]:
                freed[v] = True
                if ev.users[v] is not users:  # a block shares one list: no second scan
                    stack.append(v)
    return frozenset(e for e, spare in zip(ev.elems, freed) if not spare)


@dataclass(frozen=True)
class StrongWitness:
    """A violating intermediate set: base <= violating <= universe with negative relative predim."""

    violating: tuple[int, ...]
    relative_value: int


def check_strong(a: Structure, base: Iterable[int]) -> tuple[bool, Optional[StrongWitness]]:
    """Self-sufficiency of `base` in `a`, plus a witness when it fails.

    `base` is strong exactly when it is its own strong hull.  When it is not,
    the witness is the hull, with its predimension over `base`, which is
    min_predim_over(a, base) − predim(base) < 0 (see the module docstring).
    """
    ev = _evaluator(a)
    bmask = ev.mask(base)
    hull = _least_minimiser(ev, bmask)
    if hull == bmask:
        return True, None
    return False, StrongWitness(tuple(sorted(ev.unmask(hull))), ev.value(hull) - ev.value(bmask))


def is_strong(a: Structure, base: Iterable[int]) -> bool:
    """Whether `base` is self-sufficient in `a`: it is its own strong hull."""
    ev = _evaluator(a)
    bmask = ev.mask(base)
    return _least_minimiser(ev, bmask) == bmask


def in_class(a: Structure) -> bool:
    """Membership in the amalgamation class: the empty set is self-sufficient."""
    return _evaluator(a).in_class()


def strong_hull(a: Structure, base: Iterable[int]) -> frozenset[int]:
    """The self-sufficient closure of `base`, its least strong superset.

    It is the least X with base <= X <= universe and predim(X) =
    min_predim_over(a, base); one search on (n+1)·predim(X) + |X| finds it.
    """
    ev = _evaluator(a)
    return ev.unmask(_least_minimiser(ev, ev.mask(base)))
