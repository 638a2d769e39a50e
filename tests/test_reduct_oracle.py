"""Brute-force cross-check of the reduct computation.

The oracle below re-derives the clique reduct with plain set arithmetic:
candidate members are relation suffixes (forced by the exact-relation
condition), families are enumerated as raw subsets, the witness search scans
every possible witness tuple, and bounded self-sufficiency enumerates every
superset within the size allowance.  No prefix grouping, no level-by-level
closure, no search-space restrictions shared with the implementation.
"""

import itertools
import random

from pregeom import (ClassParams, CliqueStructure, NaryStructure,
                     clique_certificate, in_class, lift, reduct_of)
from pregeom.gen import random_nary, random_nary_in_class, random_subset
from pregeom.oracles import naive_predim
from pregeom.reduct import _bounded_strong


def naive_phi(m, members):
    """Plain evaluation of the defining formula; returns the witness set."""
    s, r = m.params.s, m.params.r
    members = [tuple(t) for t in members]
    if len(set(members)) != len(members):
        return []
    member_elems = {e for t in members for e in t}
    witnesses = []
    for witness in itertools.permutations(sorted(m.universe), s - 1):
        if any(e in member_elems for e in witness):
            continue
        x = frozenset(member_elems | set(witness))
        inside = {t for t in m.relation if set(t) <= x}
        if inside != {witness + t for t in members}:
            continue
        ok = True
        rest = sorted(m.universe - x)
        for k in range(1, s + 1):
            for extra in itertools.combinations(rest, k):
                if naive_predim(m, x | set(extra)) < naive_predim(m, x):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            witnesses.append(witness)
    return witnesses


def naive_bounded_strong(m, x):
    """No superset of x with 1 to s extra elements has a smaller predimension."""
    p0 = naive_predim(m, x)
    rest = sorted(m.universe - x)
    return not any(naive_predim(m, x | set(extra)) < p0
                   for k in range(1, m.params.s + 1)
                   for extra in itertools.combinations(rest, k))


def single_parts_strong(m, x):
    """The test on single outside parts t - x only, without unions of them."""
    parts = [frozenset(t) - x for t in m.relation]
    parts = [p for p in parts if 0 < len(p) <= m.params.s]
    return all(sum(q <= p for q in parts) <= len(p) for p in parts)


def naive_reduct_cliques(m):
    s = m.params.s
    suffixes = sorted({t[s - 1:] for t in m.relation})
    cliques = []
    for size in range(s, len(suffixes) + 1):
        for family in itertools.combinations(suffixes, size):
            good = True
            for k in range(s, size + 1):
                for sub in itertools.combinations(family, k):
                    if not naive_phi(m, sub):
                        good = False
                        break
                if not good:
                    break
            if good:
                cliques.append(frozenset(family))
    return frozenset(k for k in cliques if not any(k < o for o in cliques))


P31 = ClassParams(3, 1)
P32 = ClassParams(3, 2)


def test_oracle_agrees_on_the_planted_example():
    m = NaryStructure.of(P31, range(5), [(3, 4, 0), (3, 4, 1), (3, 4, 2)])
    assert naive_reduct_cliques(m) == reduct_of(m).maxcliques


def test_oracle_agreement_random_r1():
    rng = random.Random(51)
    interesting = 0
    for _ in range(120):
        m = random_nary(rng, P31, 6, max_relations=5)
        if rng.random() < 0.5 and len(m.universe) >= 5:
            elems = sorted(m.universe)
            y1, y2, *rest = rng.sample(elems, 5)
            planted = {(y1, y2, x) for x in rest}
            m = NaryStructure.of(P31, m.universe, m.relation | planted)
        expect = naive_reduct_cliques(m)
        assert reduct_of(m).maxcliques == expect
        interesting += bool(expect)
    # noise usually kills the planted family on both sides alike; the
    # noise-free planted test below guarantees the nonempty case
    assert interesting >= 1


def test_oracle_agreement_planted_r1():
    # plant shared-prefix families of varying size, then add noise
    rng = random.Random(52)
    interesting = 0
    for _ in range(60):
        k = rng.randint(3, 4)
        rel = [(5, 6, i) for i in range(k)]
        noise = random_nary(rng, P31, 5, max_relations=2)
        m = NaryStructure.of(P31, set(range(k)) | {5, 6} | noise.universe,
                             rel + sorted(noise.relation))
        expect = naive_reduct_cliques(m)
        assert reduct_of(m).maxcliques == expect
        interesting += bool(expect)
    assert interesting >= 30


def test_oracle_agreement_r2():
    # members are 2-tuples, witnesses single elements
    rng = random.Random(53)
    interesting = 0
    for _ in range(80):
        m = random_nary(rng, P32, 6, max_relations=4)
        if rng.random() < 0.5 and len(m.universe) >= 5:
            y, a, b, c, d = rng.sample(sorted(m.universe), 5)
            m = NaryStructure.of(P32, m.universe,
                                 m.relation | {(y, a, b), (y, c, d)})
        expect = naive_reduct_cliques(m)
        assert reduct_of(m).maxcliques == expect
        interesting += bool(expect)
    assert interesting >= 3


def test_certificate_agrees_with_naive_witnesses():
    rng = random.Random(54)
    for _ in range(60):
        m = random_nary_in_class(rng, P31, 6)
        suffixes = sorted({t[2:] for t in m.relation})
        for members in itertools.combinations(suffixes, 3):
            expect = naive_phi(m, members)
            got = clique_certificate(m, members)
            assert (got is not None) == bool(expect)
            if got is not None:
                assert [got.witness] == expect


def test_r2_planted_pair_clique():
    # two disjoint 2-tuples sharing a single witness element
    m = NaryStructure.of(P32, range(5), [(4, 0, 1), (4, 2, 3)])
    r = reduct_of(m)
    assert r.maxcliques == frozenset({frozenset({(0, 1), (2, 3)})})
    assert naive_reduct_cliques(m) == r.maxcliques


def test_s4_params_bigger_witness():
    # r=1, s=4: witnesses are 3-tuples, cliques need at least four members
    p41 = ClassParams(4, 1)
    m = NaryStructure.of(p41, range(7),
                         [(4, 5, 6, 0), (4, 5, 6, 1), (4, 5, 6, 2), (4, 5, 6, 3)])
    assert in_class(m)
    r = reduct_of(m)
    assert r.maxcliques == frozenset({frozenset({(0,), (1,), (2,), (3,)})})
    cert = clique_certificate(m, [(0,), (1,), (2,), (3,)])
    assert cert.witness == (4, 5, 6)
    # a three-member subfamily is below the threshold
    import pytest
    with pytest.raises(Exception):
        clique_certificate(m, [(0,), (1,), (2,)])


def test_bounded_strong_agrees_with_enumeration():
    rng = random.Random(61)
    union_only = 0
    for n, r, max_size in ((3, 1, 7), (4, 1, 7), (4, 2, 7), (3, 2, 7), (5, 2, 8)):
        params = ClassParams(n, r)
        for _ in range(400):
            m = random_nary(rng, params, max_size, min_size=n + 1)
            x = random_subset(rng, m.universe, max_take=3)
            expect = naive_bounded_strong(m, x)
            assert _bounded_strong(m, x) == expect
            union_only += not expect and single_parts_strong(m, x)
    # cases only a union of two or more outside parts violates; a search
    # over single parts would call them strong
    assert union_only == 33


def _clique_extension(rng, a_c, stretch, fresh, isolated):
    """a_c with one clique grown by `stretch` new members, a new clique of
    `fresh` members (none if 0) and `isolated` new unrelated elements."""
    start = max(a_c.universe) + 1
    new = iter(range(start, start + stretch + fresh + isolated))
    cliques = set(a_c.maxcliques)
    if stretch:
        k = rng.choice(sorted(cliques, key=sorted))
        cliques.remove(k)
        cliques.add(k | {(next(new),) for _ in range(stretch)})
    if fresh:
        cliques.add(frozenset((next(new),) for _ in range(fresh)))
    universe = a_c.universe | frozenset(range(start, start + stretch + fresh + isolated))
    return CliqueStructure(a_c.params, universe, frozenset(cliques))


def _lift_built(rng):
    """A witness pair relating three or four members, then one or two lifts
    that keep the universe at 10 elements or fewer."""
    size = rng.randint(5, 6)
    x, y, *members = rng.sample(range(size), size)
    a = NaryStructure.of(P31, range(size), [(x, y, e) for e in members])
    for _ in range(rng.randint(1, 2)):
        n = len(a.universe)
        a_c = reduct_of(a)
        largest = max(len(k) for k in a_c.maxcliques)
        # a fresh clique also brings a fresh witness pair; the oracle's time
        # grows steeply with the clique size, so cliques stay at 6 members
        shapes = [(st, fr, iso) for st in (0, 1, 2) for fr in (0, 3) for iso in (0, 1)
                  if (st or fr) and largest + st <= 6
                  and n + st + (fr + 2 if fr else 0) + iso <= 10]
        if not shapes:
            break
        a, _ = lift(a, _clique_extension(rng, a_c, *rng.choice(shapes)))
    return a


def test_oracle_agreement_lift_built():
    # the shape of the benchmark's lift inputs: witness tuples sharing members
    rng = random.Random(55)
    sizes = set()
    two_cliques = 0
    for _ in range(40):
        m = _lift_built(rng)
        expect = naive_reduct_cliques(m)
        assert expect
        assert reduct_of(m).maxcliques == expect
        sizes.add(len(m.universe))
        two_cliques += len(expect) >= 2
    assert max(sizes) == 10 and len(sizes) >= 4
    assert two_cliques >= 5
