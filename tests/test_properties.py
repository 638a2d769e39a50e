"""Property tests over randomly generated structures.

Hypothesis drives the generator seeds; all structure construction goes
through the package's seeded generators so failures shrink to a seed.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from pregeom import (ClassParams, canonical_key, closure, in_class, induced,
                     is_strong, min_predim_over, predim, predim_rel, relabel,
                     strong_hull)
from pregeom.gen import (random_clique, random_nary, random_nary_in_class,
                         random_subset)
from pregeom.oracles import naive_min_over, naive_predim

P31 = ClassParams(3, 1)
P21 = ClassParams(2, 1)

seeds = st.integers(0, 2 ** 30)


def make(seed, kind="nary"):
    rng = random.Random(seed)
    if kind == "nary":
        return rng, random_nary(rng, P31, 7)
    return rng, random_clique(rng, P21, 7)


@settings(max_examples=80, deadline=None)
@given(seeds, st.sampled_from(["nary", "clique"]))
def test_predim_matches_oracle(seed, kind):
    _, a = make(seed, kind)
    assert predim(a) == naive_predim(a, a.universe)


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(["nary", "clique"]))
def test_min_predim_matches_oracle(seed, kind):
    rng, a = make(seed, kind)
    base = random_subset(rng, a.universe)
    assert min_predim_over(a, base) == naive_min_over(a, base)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_relative_predim_additive_over_chains(seed):
    rng, a = make(seed)
    small = random_subset(rng, a.universe)
    mid = small | random_subset(rng, a.universe - small)
    big = mid | random_subset(rng, a.universe - mid)
    assert (predim_rel(a, big, small)
            == predim_rel(a, big, mid) + predim_rel(a, mid, small))


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_strong_hull_idempotent(seed):
    rng, a = make(seed)
    hull = strong_hull(a, random_subset(rng, a.universe))
    assert strong_hull(a, hull) == hull
    assert is_strong(a, hull)


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_closure_idempotent_and_extensive(seed):
    rng = random.Random(seed)
    a = random_nary_in_class(rng, P31, 7)
    b = random_subset(rng, a.universe)
    cl = closure(a, b)
    assert b <= cl
    assert closure(a, cl) == cl


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_closure_determined_by_strong_hull(seed):
    # the closure of a set equals the closure of any predimension-minimal
    # self-sufficient superset
    rng = random.Random(seed)
    a = random_nary_in_class(rng, P31, 7)
    b = random_subset(rng, a.universe)
    assert closure(a, b) == closure(a, strong_hull(a, b))


@settings(max_examples=50, deadline=None)
@given(seeds, st.sampled_from(["nary", "clique"]))
def test_canonical_key_relabel_invariant(seed, kind):
    rng, a = make(seed, kind)
    elems = sorted(a.universe)
    shuffled = elems[:]
    rng.shuffle(shuffled)
    mapping = {e: 100 + w for e, w in zip(elems, shuffled)}
    assert canonical_key(a) == canonical_key(relabel(a, mapping))


@settings(max_examples=50, deadline=None)
@given(seeds, st.sampled_from(["nary", "clique"]))
def test_class_membership_hereditary(seed, kind):
    rng, a = make(seed, kind)
    if not in_class(a):
        return
    sub = random_subset(rng, a.universe)
    assert in_class(induced(a, sub))
