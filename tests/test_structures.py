import itertools

import pytest

from pregeom import (CliqueStructure, ClassParams, DomainError, NaryStructure,
                     canonical_key, extend_clique, induced_clique, induced_nary,
                     isomorphic_over, iter_embeddings, relabel, validate_clique,
                     validate_nary, verify_embedding)

P31 = ClassParams(3, 1)
P21 = ClassParams(2, 1)


def nary(universe, relation, params=P31):
    return NaryStructure.of(params, universe, relation)


def clq(universe, cliques, params=P21):
    return CliqueStructure.of(params, universe, cliques)


class TestParams:
    def test_s_derivation(self):
        assert ClassParams(3, 1).s == 3
        assert ClassParams(3, 2).s == 2
        assert ClassParams(4, 2).s == 3

    @pytest.mark.parametrize("n,r", [(1, 1), (2, 0), (2, 2), (3, 3), (3, 0)])
    def test_bad_params(self, n, r):
        with pytest.raises(DomainError):
            ClassParams(n, r)


class TestValidateNary:
    def test_empty_is_valid(self):
        assert validate_nary(nary([], [])) == []

    def test_single_tuple_valid(self):
        assert validate_nary(nary([0, 1, 2], [(0, 1, 2)])) == []

    def test_repeated_entry_invalid(self):
        report = validate_nary(nary([0, 1], [(0, 0, 1)]))
        assert any("repeated" in line for line in report)

    def test_arity_and_membership(self):
        report = validate_nary(nary([0, 1], [(0, 1), (0, 1, 5)]))
        assert any("length" in line for line in report)
        assert any("outside" in line for line in report)


class TestValidateClique:
    def test_threshold_clique_valid(self):
        assert validate_clique(clq([0, 1], [[(0,), (1,)]])) == []

    def test_big_intersection_invalid(self):
        a = clq([0, 1, 2, 3], [[(0,), (1,), (2,)], [(1,), (2,), (3,)]])
        report = validate_clique(a)
        assert any("share 2" in line for line in report)

    def test_small_clique_invalid(self):
        a = CliqueStructure.of(ClassParams(3, 1), [0, 1], [[(0,), (1,)]])
        report = validate_clique(a)
        assert any("below the threshold" in line for line in report)

    def test_antichain_violation_reported(self):
        a = clq([0, 1, 2], [[(0,), (1,)], [(0,), (1,), (2,)]])
        report = validate_clique(a)
        assert any("antichain" in line for line in report)


class TestInduced:
    def test_identity(self):
        a = nary([0, 1, 2, 3], [(0, 1, 2)])
        assert induced_nary(a, a.universe) == a

    def test_tuple_leaves_subset(self):
        a = nary([0, 1, 2, 3], [(0, 1, 2)])
        assert induced_nary(a, {0, 1, 3}).relation == frozenset()

    def test_filtering(self):
        a = nary([0, 1, 2, 3], [(0, 1, 2), (1, 2, 3)])
        assert induced_nary(a, {1, 2, 3}).relation == frozenset({(1, 2, 3)})

    def test_outside_subset_errors(self):
        with pytest.raises(DomainError):
            induced_nary(nary([0], []), {0, 7})

    def test_clique_trace(self):
        a = clq([0, 1, 2], [[(0,), (1,), (2,)]])
        assert induced_clique(a, {0, 1}).maxcliques == frozenset({frozenset({(0,), (1,)})})
        assert induced_clique(a, {0}).maxcliques == frozenset()
        assert induced_clique(a, a.universe) == a

    def test_idempotent_and_monotone(self):
        a = nary([0, 1, 2, 3], [(0, 1, 2), (0, 2, 1), (1, 2, 3)])
        c = clq([0, 1, 2, 3], [[(0,), (1,), (2,)], [(2,), (3,)]])
        for struct, ind in ((a, induced_nary), (c, induced_clique)):
            elems = sorted(struct.universe)
            for k in range(len(elems) + 1):
                for sub in itertools.combinations(elems, k):
                    once = ind(struct, sub)
                    assert ind(once, sub) == once
                    for j in range(k + 1):
                        for smaller in itertools.combinations(sub, j):
                            assert ind(once, smaller) == ind(struct, smaller)

    def test_induced_clique_stays_valid(self):
        a = clq([0, 1, 2, 3, 4], [[(0,), (1,), (2,)], [(2,), (3,), (4,)]])
        elems = sorted(a.universe)
        for k in range(len(elems) + 1):
            for sub in itertools.combinations(elems, k):
                assert validate_clique(induced_clique(a, sub)) == []


class TestExtendClique:
    def test_already_maximal(self):
        a = clq([0, 1], [[(0,), (1,)]])
        assert extend_clique(a, {0, 1}, [(0,), (1,)]) == frozenset({(0,), (1,)})

    def test_unique_extension(self):
        a = clq([0, 1, 2], [[(0,), (1,), (2,)]])
        assert extend_clique(a, {0, 1}, [(0,), (1,)]) == frozenset({(0,), (1,), (2,)})

    def test_not_a_trace_clique(self):
        a = clq([0, 1, 2], [[(0,), (1,), (2,)]])
        with pytest.raises(DomainError):
            extend_clique(a, {0, 1}, [(0,)])

    def test_restriction_recovers_clique(self):
        a = clq([0, 1, 2, 3, 4], [[(0,), (1,), (2,)], [(2,), (3,), (4,)]])
        for sub_size in (2, 3, 4, 5):
            for sub in itertools.combinations(sorted(a.universe), sub_size):
                for k in induced_clique(a, sub).maxcliques:
                    big = extend_clique(a, sub, k)
                    assert frozenset(t for t in big if all(e in sub for e in t)) == k


class TestIsomorphicOver:
    def test_identity(self):
        a = nary([0, 1, 2], [(0, 1, 2)])
        emb = isomorphic_over(a, a, {0, 1, 2})
        assert emb is not None and emb.mapping == {0: 0, 1: 1, 2: 2}

    def test_relabelled_copy(self):
        a = nary([0, 1, 2, 3], [(0, 1, 2), (1, 2, 3)])
        b = relabel(a, {0: 10, 1: 11, 2: 12, 3: 13})
        emb = isomorphic_over(a, b, ())
        assert emb is not None
        assert verify_embedding(emb)

    def test_extra_tuple_blocks_isomorphism(self):
        # one extension acquires a tuple on the fresh elements, the other does not
        base = nary([0], [])
        plain = nary([0, 1, 2, 3], [])
        related = nary([0, 1, 2, 3], [(1, 2, 3)])
        assert isomorphic_over(plain, related, {0}) is None

    def test_disagreeing_base_errors(self):
        a = nary([0, 1, 2], [(0, 1, 2)])
        b = nary([0, 1, 2], [])
        with pytest.raises(DomainError):
            isomorphic_over(a, b, {0, 1, 2})

    def test_clique_structures(self):
        a = clq([0, 1, 2], [[(0,), (1,), (2,)]])
        b = clq([0, 1, 2], [[(0,), (1,), (2,)]])
        emb = isomorphic_over(a, b, ())
        assert emb is not None and verify_embedding(emb)


class TestLargeInputs:
    # the search keeps its own stack, so its depth is not bounded by Python's
    # recursion limit (about 1000 frames)
    @pytest.mark.parametrize("a", [nary(range(1500), []), clq(range(1500), [])],
                             ids=["nary", "clique"])
    def test_embedding_of_1500_elements(self, a):
        emb = next(iter_embeddings(a, a))
        assert emb.pairs == tuple((e, e) for e in range(1500))

    @pytest.mark.parametrize("a", [nary(range(1500), []), clq(range(1500), [])],
                             ids=["nary", "clique"])
    def test_isomorphism_of_1500_elements(self, a):
        emb = isomorphic_over(a, a, ())
        assert emb is not None and emb.pairs == tuple((e, e) for e in range(1500))


class TestCanonicalKey:
    def test_relabel_invariance(self):
        a = nary([0, 1, 2, 3], [(0, 1, 2), (1, 2, 3)])
        b = relabel(a, {0: 7, 1: 3, 2: 9, 3: 0})
        assert canonical_key(a) == canonical_key(b)

    def test_distinguishes_structures(self):
        a = nary([0, 1, 2], [(0, 1, 2)])
        b = nary([0, 1, 2], [(0, 1, 2), (0, 2, 1)])
        assert canonical_key(a) != canonical_key(b)

    def test_pair_marking_matters(self):
        a = nary([0, 1, 2], [(0, 1, 2)])
        assert canonical_key(a, frozenset({0})) != canonical_key(a, frozenset({2}))

    @pytest.mark.parametrize("a", [nary(range(10), []), clq(range(10), [])],
                             ids=["nary", "clique"])
    def test_ten_elements_raise(self, a):
        # 10! orderings exceed the enumeration guard; 9! = 362880 do not
        with pytest.raises(DomainError, match="3628800 candidates"):
            canonical_key(a)

    @pytest.mark.parametrize("a", [nary([0, 1, 2], [(0, 1, 2)]), clq([0, 1, 2], [[(0,), (1,)]])],
                             ids=["nary", "clique"])
    def test_marked_subset_outside_the_universe(self, a):
        with pytest.raises(DomainError, match=r"\[7\] is not contained"):
            canonical_key(a, frozenset({7}))
        with pytest.raises(DomainError):
            canonical_key(a, frozenset({0, 7}))
