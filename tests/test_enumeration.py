"""The orbit-wise enumerations in `pregeom.generic` against a plain reference.

The reference is the direct loop: build every candidate structure, filter it
with `in_class`, deduplicate it by `canonical_key`, and sort by that key.
The enumerations must return the same structures and pair types, in the same
order, bit for bit.
"""

import itertools
from functools import lru_cache
from math import comb

import pytest

from pregeom import (ClassParams, CliqueStructure, DomainError, NaryStructure,
                     canonical_key, in_class, is_strong)
from pregeom.generic import (_ENUMERATION_GUARD, enumerate_clique_structures,
                             enumerate_extension_pairs, enumerate_nary_structures,
                             enumerate_structures)
from pregeom.structures import structure_from_key


def _collect(candidates, in_class_only, up_to_iso):
    out = []
    seen = set()
    for a in candidates:
        if in_class_only and not in_class(a):
            continue
        if up_to_iso:
            key = canonical_key(a)
            if key in seen:
                continue
            seen.add(key)
            a = structure_from_key(key)
        out.append(a)
    out.sort(key=canonical_key)
    return tuple(out)


@lru_cache(maxsize=None)
def reference_nary(params, size, in_class_only=True, up_to_iso=True):
    universe = frozenset(range(size))
    pool = sorted(itertools.permutations(range(size), params.n)) if size >= params.n else []
    candidates = (NaryStructure(params, universe, frozenset(rel))
                  for k in range(min(size, len(pool)) + 1)
                  for rel in itertools.combinations(pool, k))
    return _collect(candidates, in_class_only, up_to_iso)


@lru_cache(maxsize=None)
def reference_clique(params, size, in_class_only=True, up_to_iso=True):
    s = params.s
    universe = frozenset(range(size))
    members = sorted(itertools.permutations(range(size), params.r)) if size >= params.r else []
    max_weight = size if in_class_only else None
    max_clique = len(members) if max_weight is None else min(len(members), size + s - 1)
    cliques = sorted((frozenset(k) for c in range(s, max_clique + 1)
                      for k in itertools.combinations(members, c)), key=sorted)

    def families(start, family, weight):
        yield CliqueStructure(params, universe, frozenset(family))
        for i in range(start, len(cliques)):
            k = cliques[i]
            w = len(k) - (s - 1)
            if max_weight is not None and weight + w > max_weight:
                continue
            if all(len(k & other) < s for other in family):
                yield from families(i + 1, family + [k], weight + w)

    return _collect(families(0, [], 0), in_class_only, up_to_iso)


def reference_structures(kind, params, size):
    if kind == "nary":
        return reference_nary(params, size)
    return reference_clique(params, size)


def reference_pairs(kind, params, max_size):
    pairs = {}
    for size in range(1, max_size + 1):
        for b in reference_structures(kind, params, size):
            for k in range(size):
                for sub in itertools.combinations(range(size), k):
                    base = frozenset(sub)
                    if is_strong(b, base):
                        pairs.setdefault(canonical_key(b, base), (b, base))
    ordered = sorted(pairs.items(), key=lambda kv: (len(kv[1][0].universe), len(kv[1][1]), kv[0]))
    return [pt for _, pt in ordered]


CASES = [("nary", (2, 1), 4), ("nary", (3, 1), 4), ("nary", (4, 2), 3),
         ("clique", (2, 1), 4), ("clique", (3, 1), 4), ("clique", (3, 2), 3)]
IDS = [f"{kind}-{n}-{r}-to{m}" for kind, (n, r), m in CASES]


@pytest.mark.parametrize("kind, nr, max_size", CASES, ids=IDS)
def test_structures_equal_reference(kind, nr, max_size):
    params = ClassParams(*nr)
    for size in range(max_size + 1):
        assert enumerate_structures(kind, params, size) == reference_structures(kind, params, size)


@pytest.mark.parametrize("kind, nr, max_size", CASES, ids=IDS)
def test_pairs_equal_reference(kind, nr, max_size):
    params = ClassParams(*nr)
    got = [(pt.pattern, pt.base_ids) for pt in enumerate_extension_pairs(kind, params, max_size)]
    assert got == reference_pairs(kind, params, max_size)


FLAG_CASES = [("nary", (2, 1), 4), ("nary", (3, 1), 3), ("clique", (2, 1), 4), ("clique", (3, 1), 4)]


@pytest.mark.parametrize("in_class_only", [True, False])
@pytest.mark.parametrize("up_to_iso", [True, False])
@pytest.mark.parametrize("kind, nr, size", FLAG_CASES,
                         ids=[f"{kind}-{n}-{r}-{m}" for kind, (n, r), m in FLAG_CASES])
def test_flags_equal_reference(kind, nr, size, in_class_only, up_to_iso):
    params = ClassParams(*nr)
    if kind == "nary":
        got = enumerate_nary_structures(params, size, in_class_only, up_to_iso)
        want = reference_nary(params, size, in_class_only, up_to_iso)
    else:
        got = enumerate_clique_structures(params, size, in_class_only, up_to_iso)
        want = reference_clique(params, size, in_class_only, up_to_iso)
    assert got == want


def test_guard_count_and_limit():
    # tuple (3,1) on five points: 60 candidate tuples, at most five at a time
    total = sum(comb(60, k) for k in range(6))
    assert total > _ENUMERATION_GUARD == 2_000_000
    with pytest.raises(DomainError, match=f"about {total} candidates"):
        enumerate_nary_structures(ClassParams(3, 1), 5)
