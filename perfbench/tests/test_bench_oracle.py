"""The benchmark's oracles against plain enumeration on seeded small instances."""

import itertools
import random

import pytest

import oracle as O


def subsets(elems):
    elems = sorted(elems)
    for k in range(len(elems) + 1):
        yield from (frozenset(c) for c in itertools.combinations(elems, k))


def brute_rank(a, base):
    base = frozenset(base)
    return min(O.predim(a, base | extra) for extra in subsets(a.universe - base))


def random_struct(rng, kind, n, r, size):
    universe = range(size)
    if kind == "nary":
        pool = list(itertools.permutations(universe, n))
        rel = rng.sample(pool, min(len(pool), rng.randint(0, size + 2)))
        return O.make(kind, n, r, universe, rel)
    s = n - r + 1
    members = list(itertools.permutations(universe, r))
    while True:
        cliques = []
        for _ in range(rng.randint(0, 3)):
            if len(members) >= s:
                cliques.append(rng.sample(members, rng.randint(s, min(len(members), s + 2))))
        a = O.make(kind, n, r, universe, cliques)
        if not O.validate(a):
            return a


CLASSES = [("nary", 3, 1), ("nary", 4, 2), ("nary", 2, 1), ("clique", 2, 1), ("clique", 3, 1)]


@pytest.mark.parametrize("kind,n,r", CLASSES)
def test_matching_rank_equals_enumeration(kind, n, r):
    rng = random.Random(f"{kind}{n}{r}")
    seen_in, seen_out = 0, 0
    for _ in range(300):
        a = random_struct(rng, kind, n, r, rng.randint(0, 7))
        in_class = all(O.predim(a, x) >= 0 for x in subsets(a.universe))
        assert O.in_class(a) == in_class
        seen_in += in_class
        seen_out += not in_class
        base = frozenset(rng.sample(sorted(a.universe), rng.randint(0, len(a.universe))))
        assert O.rank(a, base) == brute_rank(a, base)
        assert O.is_strong(a, base) == (brute_rank(a, base) == O.predim(a, base))
        if in_class:
            d = brute_rank(a, base)
            assert O.closure(a, base) == base | {e for e in a.universe - base
                                                 if brute_rank(a, base | {e}) == d}
    assert seen_in and (seen_out or kind == "clique")


@pytest.mark.parametrize("kind,n,r", CLASSES + [("clique", 3, 2)])
def test_rank_table_equals_enumeration(kind, n, r):
    rng = random.Random(f"table{kind}{n}{r}")
    for _ in range(40):
        a = random_struct(rng, kind, n, r, rng.randint(0, 6))
        elems = sorted(a.universe)
        table = O.rank_table(a)
        for mask in range(1 << len(elems)):
            base = {e for i, e in enumerate(elems) if mask >> i & 1}
            assert table[mask] == brute_rank(a, base)


def test_matching_rank_refuses_clique_members_of_size_two():
    a = O.make("clique", 3, 2, range(4), [[(0, 1), (2, 3)]])
    with pytest.raises(ValueError):
        O.rank(a, ())
