import random

import pytest

from pregeom import (CliqueStructure, ClassParams, DomainError, GrowthSchedule,
                     NaryStructure, closure, grow, in_class, induced,
                     is_strong, min_predim_over, pg_isomorphic, pregeometry_of,
                     rank, relabel, same_pregeometry)
from pregeom import predimension
from pregeom.gen import (random_clique_in_class, random_nary_in_class,
                         random_subset)
from pregeom.oracles import naive_closure, naive_min_over, naive_predim, subsets
from pregeom.pregeometry import rank_table_of

P31 = ClassParams(3, 1)
P21 = ClassParams(2, 1)


def naive_closure_union_formula(struct, base):
    """The union of all sets X with predim(X / X intersect base) <= 0."""
    base = frozenset(base)
    out = set(base)
    for x in subsets(struct.universe):
        if naive_predim(struct, x) - naive_predim(struct, x & base) <= 0:
            out |= x
    return frozenset(out)


def naive_dims(struct, base):
    """Literal definition: least size of a subset with the same closure."""
    base = frozenset(base)
    target = naive_closure(struct, base)
    return min(len(x) for x in subsets(base) if naive_closure(struct, x) == target)


def in_class_samples(seed, count, kind="nary"):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        if kind == "nary":
            out.append(random_nary_in_class(rng, P31, 6))
        else:
            out.append(random_clique_in_class(rng, P21, 6))
    return out


class TestClosure:
    def test_closure_of_universe(self):
        a = NaryStructure.of(P31, [0, 1, 2], [(0, 1, 2)])
        assert closure(a, a.universe) == a.universe

    def test_single_clique_closure(self):
        a = CliqueStructure.of(P21, [0, 1, 2], [[(0,), (1,), (2,)]])
        assert closure(a, {0}) == frozenset({0, 1, 2})

    def test_relation_free_closure_trivial(self):
        a = NaryStructure.of(P31, range(4), [])
        for b in subsets(a.universe):
            assert closure(a, b) == b

    def test_out_of_class_rejected(self):
        bad = NaryStructure.of(P31, [0, 1, 2],
                               [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0)])
        with pytest.raises(DomainError):
            closure(bad, set())

    def test_agrees_with_enumeration_oracle(self):
        for i, a in enumerate(in_class_samples(11, 40) + in_class_samples(12, 30, "clique")):
            rng = random.Random(i)
            for _ in range(4):
                b = random_subset(rng, a.universe)
                assert closure(a, b) == naive_closure(a, b)

    def test_one_search_per_closure(self, monkeypatch):
        a = grow(GrowthSchedule("nary", P31, 12, 3, 0)).final
        assert in_class(a)  # warms the evaluator and its placement for base = ∅
        inner = predimension._least_minimiser
        calls = []

        def counted(ev, base):
            calls.append(base)
            return inner(ev, base)

        monkeypatch.setattr(predimension, "_least_minimiser", counted)
        # rank and closure each read one unit placement and run no subset search
        rank(a, {a.sorted_universe()[0]})
        assert calls == []
        closure(a, {a.sorted_universe()[0]})
        assert calls == []

    @pytest.mark.parametrize("kind,params,target", [("nary", P31, 30), ("clique", P21, 40)],
                             ids=["tuple", "clique"])
    def test_agrees_with_per_element_definition_on_grown_stages(self, kind, params, target):
        # above enumeration size: e is in cl(B) iff adding it keeps the minimum
        a = grow(GrowthSchedule(kind, params, target, 3, 0)).final
        elems = a.sorted_universe()
        rng = random.Random(target)
        for _ in range(10):
            b = set(rng.sample(elems, rng.randint(1, 3)))
            r = min_predim_over(a, b)
            expected = {e for e in elems if min_predim_over(a, b | {e}) == r}
            assert closure(a, b) == expected

    def test_union_formula_on_self_sufficient_bases(self):
        # the union-of-dependent-sets description matches on strong bases
        for a in in_class_samples(13, 30):
            for b in subsets(a.universe):
                if is_strong(a, b):
                    assert closure(a, b) == naive_closure_union_formula(a, b)

    def test_union_formula_same_closed_sets(self):
        for a in in_class_samples(14, 20):
            for b in subsets(a.universe):
                direct = closure(a, b) == b
                union = naive_closure_union_formula(a, b) == b
                assert direct == union


class TestDims:
    """The dimension of a subset, the least size of a subset with the same closure, is its rank."""

    def test_empty(self):
        a = NaryStructure.of(P31, range(3), [])
        assert rank(a, set()) == 0

    def test_relation_free(self):
        a = NaryStructure.of(P31, range(4), [])
        for b in subsets(a.universe):
            assert rank(a, b) == len(b)

    def test_single_clique(self):
        a = CliqueStructure.of(P21, [0, 1, 2], [[(0,), (1,), (2,)]])
        assert rank(a, {0, 1, 2}) == 1

    def test_matches_literal_definition(self):
        for a in in_class_samples(15, 25) + in_class_samples(16, 15, "clique"):
            for b in subsets(a.universe):
                assert rank(a, b) == naive_dims(a, b)


class TestPregeometryAxioms:
    def axioms(self, a):
        pg = pregeometry_of(a)
        elems = sorted(a.universe)
        table = {b: pg.rank(b) for b in subsets(elems)}
        # rank axioms
        for b, rb in table.items():
            assert 0 <= rb <= len(b)
            for e in elems:
                assert rb <= table[b | {e}] <= rb + 1
        for x in subsets(elems):
            for y in subsets(elems):
                assert table[x | y] + table[x & y] <= table[x] + table[y]
        # closure axioms
        for b in subsets(elems):
            cl = pg.closure(b)
            assert b <= cl
            assert pg.closure(cl) == cl
            for c in subsets(elems):
                if b <= c:
                    assert cl <= pg.closure(c)
        # exchange
        for b in subsets(elems):
            cl_b = pg.closure(b)
            for x in elems:
                for y in elems:
                    if x in pg.closure(b | {y}) and x not in cl_b:
                        assert y in pg.closure(b | {x})
        # the rank function agrees with the pregeometry's table
        for b in subsets(elems):
            assert rank(a, b) == table[b]

    def test_nary_axioms(self):
        for a in in_class_samples(17, 12):
            self.axioms(a)

    def test_clique_axioms(self):
        for a in in_class_samples(18, 10, "clique"):
            self.axioms(a)

    def test_pathological_double_tuple(self):
        # adding elements can drop predim: closure must still be monotone
        a = NaryStructure.of(P31, [0, 1, 2, 3], [(2, 0, 1), (2, 1, 0)])
        self.axioms(a)


class TestPregeometryOf:
    def test_empty(self):
        pg = pregeometry_of(NaryStructure.of(P31, [], []))
        assert pg.rank(()) == 0

    def test_free(self):
        pg = pregeometry_of(NaryStructure.of(P31, range(5), []))
        for b in subsets(range(5)):
            assert pg.rank(b) == len(b)

    @pytest.mark.parametrize("kind", ["nary", "clique"])
    def test_rank_matches_direct(self, kind):
        samples = in_class_samples(19, 20, kind)
        if kind == "clique":
            # several cliques at once exercise the sum over cliques in the table
            assert max(len(a.maxcliques) for a in samples) >= 2
        for a in samples:
            pg = pregeometry_of(a)
            for b in subsets(a.universe):
                assert pg.rank(b) == rank(a, b) == naive_min_over(a, b)

    def test_cap_enforced(self):
        # one limit for every full rank table: 18 elements answer, 19 raise
        big = NaryStructure.of(P31, range(19), [])
        for build in (pregeometry_of, rank_table_of, lambda a: same_pregeometry(a, a)):
            with pytest.raises(DomainError, match="19 elements, above the cap 18"):
                build(big)
        a = NaryStructure.of(P31, range(18), [])
        assert len(rank_table_of(a)) == 1 << 18
        assert pregeometry_of(a).rank(a.universe) == 18
        assert same_pregeometry(a, a)

    def test_table_ceiling_under_raised_cap(self, monkeypatch):
        # the limit is a constant: the environment cannot raise it
        monkeypatch.setenv("PREGEOM_MAX_GROUND", "30")
        with pytest.raises(DomainError, match="above the cap 18"):
            pregeometry_of(NaryStructure.of(P31, range(19), []))

    @pytest.mark.parametrize("size", [17, 18])
    def test_large_ground_matches_direct(self, size):
        stage = grow(GrowthSchedule("nary", P31, 22, 3, 0)).final
        a = induced(stage, stage.sorted_universe()[:size])
        pg = pregeometry_of(a)
        rng = random.Random(size)
        for _ in range(200):
            b = random_subset(rng, a.universe)
            assert pg.rank(b) == rank(a, b)


class TestPgIsomorphic:
    def test_identity(self):
        a = CliqueStructure.of(P21, [0, 1, 2], [[(0,), (1,), (2,)]])
        pg = pregeometry_of(a)
        assert pg_isomorphic(pg, pg) == {0: 0, 1: 1, 2: 2}

    def test_free_pregeometries(self):
        p = pregeometry_of(NaryStructure.of(P31, range(3), []))
        q = pregeometry_of(NaryStructure.of(P31, [4, 5, 6], []))
        assert pg_isomorphic(p, q) == {0: 4, 1: 5, 2: 6}

    def test_relabelled_copy(self):
        a = NaryStructure.of(P31, range(4), [(0, 1, 2), (0, 2, 1)])
        b = relabel(a, {0: 9, 1: 5, 2: 6, 3: 7})
        m = pg_isomorphic(pregeometry_of(a), pregeometry_of(b))
        assert m is not None
        pa, pb = pregeometry_of(a), pregeometry_of(b)
        for sub in subsets(a.universe):
            assert pa.rank(sub) == pb.rank([m[e] for e in sub])

    def test_distinguishes(self):
        p = pregeometry_of(NaryStructure.of(P31, range(3), []))
        q = pregeometry_of(NaryStructure.of(P31, range(3), [(0, 1, 2), (0, 2, 1)]))
        assert pg_isomorphic(p, q) is None

    def test_size_mismatch(self):
        p = pregeometry_of(NaryStructure.of(P31, range(3), []))
        q = pregeometry_of(NaryStructure.of(P31, range(4), []))
        assert pg_isomorphic(p, q) is None


class TestSamePregeometry:
    def test_accepts_equal(self):
        a = NaryStructure.of(P31, range(3), [])
        b = NaryStructure.of(P31, range(3), [])
        assert same_pregeometry(a, b)

    def test_rejects_different(self):
        a = NaryStructure.of(P31, range(3), [])
        b = NaryStructure.of(P31, range(3), [(0, 1, 2), (0, 2, 1)])
        assert not same_pregeometry(a, b)

    def test_mixed_kinds_same_table(self):
        a = CliqueStructure.of(P21, [0, 1, 2], [[(0,), (1,), (2,)]])
        b = NaryStructure.of(ClassParams(2, 1), [0, 1, 2], [(0, 1), (0, 2)])
        assert same_pregeometry(a, b)
