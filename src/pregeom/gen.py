"""Seeded random instance generators for the property and acceptance suites.

Everything here is deterministic given the Random instance handed in; the
acceptance criteria fix their seeds explicitly.
"""

from __future__ import annotations

import random
from typing import Optional

from .predimension import in_class
from .structures import CliqueStructure, ClassParams, NaryStructure

_MAX_CLIQUES = 3  # random_clique draws between 0 and this many cliques
_IN_CLASS_TRIES = 64  # draws before an *_in_class helper falls back to a free structure


def random_nary(rng: random.Random, params: ClassParams, max_size: int,
                min_size: int = 0, max_relations: Optional[int] = None) -> NaryStructure:
    size = rng.randint(min_size, max_size)
    universe = frozenset(range(size))
    if size < params.n:
        return NaryStructure(params, universe, frozenset())
    budget = size if max_relations is None else max_relations
    want = rng.randint(0, budget)
    rel = set()
    for _ in range(want * 3):
        if len(rel) >= want:
            break
        rel.add(tuple(rng.sample(range(size), params.n)))
    return NaryStructure(params, universe, frozenset(rel))


def random_nary_in_class(rng: random.Random, params: ClassParams, max_size: int,
                         min_size: int = 0) -> NaryStructure:
    for _ in range(_IN_CLASS_TRIES):
        a = random_nary(rng, params, max_size, min_size)
        if in_class(a):
            return a
    size = max(min_size, params.n)
    return NaryStructure(params, frozenset(range(size)), frozenset())


def random_clique(rng: random.Random, params: ClassParams, max_size: int,
                  min_size: int = 0) -> CliqueStructure:
    """A random valid clique structure: antichain with pairwise intersections below s."""
    s, r = params.s, params.r
    size = rng.randint(min_size, max_size)
    universe = frozenset(range(size))
    cliques: list[frozenset] = []
    want = rng.randint(0, _MAX_CLIQUES)
    for _ in range(want * 6):
        if len(cliques) >= want:
            break
        csize = rng.randint(s, s + 2)
        if size < r:
            continue
        members = set()
        for _ in range(csize * 4):
            if len(members) >= csize:
                break
            members.add(tuple(rng.sample(range(size), r)))
        if len(members) < csize:
            continue
        members = frozenset(members)
        if all(len(members & other) < s for other in cliques):
            cliques.append(members)
    return CliqueStructure(params, universe, frozenset(cliques))


def random_clique_in_class(rng: random.Random, params: ClassParams, max_size: int,
                           min_size: int = 0) -> CliqueStructure:
    for _ in range(_IN_CLASS_TRIES):
        a = random_clique(rng, params, max_size, min_size)
        if in_class(a):
            return a
    return CliqueStructure(params, frozenset(range(min_size)), frozenset())


def random_subset(rng: random.Random, universe, max_take: Optional[int] = None) -> frozenset[int]:
    elems = sorted(universe)
    cap = len(elems) if max_take is None else min(max_take, len(elems))
    k = rng.randint(0, cap)
    return frozenset(rng.sample(elems, k))

