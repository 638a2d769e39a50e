import itertools
import random

import pytest

from pregeom import (CliqueStructure, ClassParams, DomainError, NaryStructure,
                     check_strong, clique_weight, in_class, induced,
                     is_strong, min_predim_over, predim, predim_rel,
                     rank, strong_hull)
from pregeom.gen import random_clique, random_nary, random_subset

from oracles import (naive_is_strong, naive_min_over, naive_predim,
                     naive_strong_witness, subsets)

P31 = ClassParams(3, 1)
P21 = ClassParams(2, 1)


class TestCliqueWeight:
    def test_clamped_at_zero(self):
        assert clique_weight(1, 3) == 0

    def test_direct_value(self):
        assert clique_weight(3, 2) == 2

    def test_boundary(self):
        for s in (2, 3, 4):
            assert clique_weight(s - 1, s) == 0
            assert clique_weight(s, s) == 1


class TestPredim:
    def test_empty(self):
        assert predim(NaryStructure.of(P31, [], [])) == 0
        assert predim(CliqueStructure.of(P21, [], [])) == 0

    def test_single_tuple(self):
        assert predim(NaryStructure.of(P31, [0, 1, 2], [(0, 1, 2)])) == 2

    def test_fresh_tuple_raises_delta_by_n_minus_one(self):
        f = NaryStructure.of(P31, [0, 1, 2], [(0, 1, 2), (0, 2, 1)])
        ext = NaryStructure.of(P31, [0, 1, 2, 3, 4, 5],
                               [(0, 1, 2), (0, 2, 1), (3, 4, 5)])
        assert predim(ext) == predim(f) + P31.n - 1

    def test_single_clique(self):
        a = CliqueStructure.of(P21, [0, 1, 2], [[(0,), (1,), (2,)]])
        assert predim(a) == 1

    def test_two_cliques(self):
        a = CliqueStructure.of(P21, [0, 1, 2, 3, 4],
                               [[(0,), (1,), (2,)], [(2,), (3,), (4,)]])
        assert predim(a) == 1

    def test_invalid_raises(self):
        with pytest.raises(DomainError):
            predim(NaryStructure.of(P31, [0, 1], [(0, 0, 1)]))


class TestPredimRel:
    def test_same_set(self):
        a = NaryStructure.of(P31, [0, 1, 2], [(0, 1, 2)])
        assert predim_rel(a, {0, 1}, {0, 1}) == 0

    def test_nary_example(self):
        a = NaryStructure.of(P31, [0, 1, 2], [(0, 1, 2)])
        assert predim_rel(a, {2}, {0, 1}) == 0

    def test_clique_example(self):
        a = CliqueStructure.of(P21, [0, 1, 2], [[(0,), (1,), (2,)]])
        assert predim_rel(a, {2}, {0, 1}) == 0

    def test_outside_universe(self):
        a = NaryStructure.of(P31, [0, 1, 2], [])
        with pytest.raises(DomainError):
            predim_rel(a, {9}, set())


class TestIsStrong:
    def test_full_universe(self):
        a = NaryStructure.of(P31, [0, 1, 2], [(0, 1, 2)])
        assert is_strong(a, a.universe)

    def test_small_witness_structure_is_strong(self):
        # one tuple over the base: every intermediate set keeps predim up
        a = NaryStructure.of(P31, [0, 1, 2], [(1, 2, 0)])
        ok, witness = check_strong(a, {0})
        assert ok and witness is None

    def test_three_tuples_break_strongness(self):
        a = NaryStructure.of(P31, [0, 1, 2, 3, 4],
                             [(3, 4, 0), (3, 4, 1), (3, 4, 2)])
        ok, witness = check_strong(a, {0, 1, 2})
        assert not ok
        assert witness.violating == (0, 1, 2, 3, 4)
        assert witness.relative_value == -1

    def test_in_class_examples(self):
        assert in_class(NaryStructure.of(P31, [], []))
        assert in_class(NaryStructure.of(P31, [0, 1, 2], [(0, 1, 2), (0, 2, 1)]))
        bad = NaryStructure.of(P31, [0, 1, 2],
                               [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0)])
        assert not in_class(bad)

    def test_in_class_closed_under_substructures(self):
        rng = random.Random(7)
        for _ in range(60):
            a = random_nary(rng, P31, 7)
            if not in_class(a):
                continue
            sub = random_subset(rng, a.universe)
            assert in_class(induced(a, sub))


class TestOracleAgreement:
    def test_nary_exhaustive_small(self):
        pool = list(itertools.permutations(range(4), 3))
        rng = random.Random(1)
        for _ in range(120):
            rel = rng.sample(pool, rng.randint(0, 4))
            a = NaryStructure.of(P31, range(4), rel)
            for base in subsets(a.universe):
                assert min_predim_over(a, base) == naive_min_over(a, base)
                got = check_strong(a, base)
                expect = naive_is_strong(a, base)
                assert got[0] == expect
                if not expect:
                    wit = naive_strong_witness(a, base)
                    assert (got[1].violating, got[1].relative_value) == wit

    def test_clique_random(self):
        rng = random.Random(2)
        for _ in range(150):
            a = random_clique(rng, P21, 7)
            base = random_subset(rng, a.universe)
            assert predim(a) == naive_predim(a, a.universe)
            assert min_predim_over(a, base) == naive_min_over(a, base)
            got = check_strong(a, base)
            assert got[0] == naive_is_strong(a, base)
            if not got[0]:
                wit = naive_strong_witness(a, base)
                assert (got[1].violating, got[1].relative_value) == wit

    def test_larger_clique_params(self):
        rng = random.Random(3)
        p32 = ClassParams(3, 2)
        for _ in range(80):
            a = random_clique(rng, p32, 6)
            base = random_subset(rng, a.universe)
            assert min_predim_over(a, base) == naive_min_over(a, base)
            assert is_strong(a, base) == naive_is_strong(a, base)


class TestSubmodularity:
    def test_delta_submodular_random(self):
        rng = random.Random(4)
        for _ in range(80):
            a = random_nary(rng, P31, 6, max_relations=8)
            elems = sorted(a.universe)
            for x in subsets(elems):
                for y in subsets(elems):
                    lhs = naive_predim(a, x | y) + naive_predim(a, x & y)
                    rhs = naive_predim(a, x) + naive_predim(a, y)
                    assert lhs <= rhs

    def test_lambda_submodular_random(self):
        rng = random.Random(5)
        for _ in range(60):
            a = random_clique(rng, P21, 5)
            for x in subsets(a.universe):
                for y in subsets(a.universe):
                    lhs = naive_predim(a, x | y) + naive_predim(a, x & y)
                    rhs = naive_predim(a, x) + naive_predim(a, y)
                    assert lhs <= rhs

    def test_strong_transitive(self):
        rng = random.Random(6)
        for _ in range(40):
            a = random_nary(rng, P31, 6, max_relations=6)
            elems = sorted(a.universe)
            for _ in range(20):
                x = random_subset(rng, elems)
                y = x | random_subset(rng, set(elems) - x)
                if is_strong(induced(a, y), x) and is_strong(a, y):
                    assert is_strong(a, x)


class TestStrongHull:
    def test_hull_is_strong_superset(self):
        rng = random.Random(8)
        for _ in range(60):
            a = random_nary(rng, P31, 7)
            seed = random_subset(rng, a.universe)
            hull = strong_hull(a, seed)
            assert seed <= hull
            assert is_strong(a, hull)
            assert naive_predim(a, hull) == naive_min_over(a, seed)

    def test_hull_drops_single_elements_only(self):
        # over {0}, the triples {0,3,4} (three tuples) and {0,1,2} (two) both
        # keep the minimum 0, but the second one is removable only as a block
        a = NaryStructure.of(P31, range(5), [(0, 3, 4), (0, 4, 3), (3, 4, 0),
                                             (0, 1, 2), (0, 2, 1)])
        hull = strong_hull(a, {0})
        assert hull == frozenset(range(5))
        assert is_strong(a, hull)
        assert naive_predim(a, hull) == rank(a, {0}) == 0
        for e in hull - {0}:
            assert naive_predim(a, hull - {e}) > naive_predim(a, hull)
        assert naive_predim(a, {0, 3, 4}) == 0
