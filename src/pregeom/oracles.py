"""Naive full-enumeration oracles, kept deliberately independent of the package internals.

Everything here works on plain sets and itertools, with no bitmasks, no
pruning and no caching, so the package's kernels have an honest reference to
agree with bit-for-bit: the unit-placement flow (`predimension._placement`),
behind class membership, rank and closure, and the branch-and-bound
(`predimension._least_minimiser`), behind strongness and the strong hull,
which is also `check_strong`'s witness.  The acceptance suite and the tests
both check against this module; it imports nothing from the package but the
structure types.
"""

import itertools

from .structures import NaryStructure


def subsets(elems):
    elems = sorted(elems)
    for k in range(len(elems) + 1):
        yield from (frozenset(c) for c in itertools.combinations(elems, k))


def naive_predim(struct, subset):
    s = frozenset(subset)
    if isinstance(struct, NaryStructure):
        hits = sum(1 for t in struct.relation if set(t) <= s)
        return len(s) - hits
    traces = {frozenset(t for t in k if set(t) <= s) for k in struct.maxcliques}
    traces = [k for k in traces if len(k) >= struct.params.s]
    maximal = [k for k in traces if not any(k < other for other in traces)]
    total = sum(len(k) - (struct.params.s - 1) for k in maximal)
    return len(s) - total


def naive_min_over(struct, base):
    base = frozenset(base)
    rest = struct.universe - base
    return min(naive_predim(struct, base | extra) for extra in subsets(rest))


def naive_is_strong(struct, base):
    base = frozenset(base)
    p0 = naive_predim(struct, base)
    return all(naive_predim(struct, base | extra) >= p0
               for extra in subsets(struct.universe - base))


def naive_strong_hull(struct, base):
    """The intersection of every superset of `base` that reaches the minimum predimension."""
    base = frozenset(base)
    d0 = naive_min_over(struct, base)
    return frozenset.intersection(*(base | extra for extra in subsets(struct.universe - base)
                                    if naive_predim(struct, base | extra) == d0))


def naive_closure(struct, base):
    """Matroid closure from the minimum-over-supersets dimension, by full enumeration."""
    base = frozenset(base)
    d0 = naive_min_over(struct, base)
    return base | {e for e in struct.universe - base
                   if naive_min_over(struct, base | {e}) == d0}

