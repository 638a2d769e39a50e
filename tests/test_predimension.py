import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from pregeom import predimension
from pregeom import (CliqueStructure, ClassParams, DomainError, GrowthSchedule,
                     NaryStructure, check_strong, clique_weight, closure, grow,
                     in_class, induced, is_strong, min_predim_over, predim,
                     predim_rel, rank, strong_hull)
from pregeom.generic import enumerate_structures
from pregeom.gen import (random_clique, random_clique_in_class, random_nary,
                         random_nary_in_class, random_subset)
from pregeom.oracles import (naive_is_strong, naive_min_over, naive_predim,
                             naive_strong_hull, naive_strong_witness, subsets)
from pregeom.structures import validate

P31 = ClassParams(3, 1)
P21 = ClassParams(2, 1)
P42 = ClassParams(4, 2)
P32 = ClassParams(3, 2)


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

    def test_hull_is_least_minimiser(self):
        # over {0}, the triples {0,3,4} (three tuples) and {0,1,2} (two) both
        # keep the minimum 0; the hull is the least minimiser {0,3,4}, though
        # {0,1,2} is removable from {0..4} only as a block
        a = NaryStructure.of(P31, range(5), [(0, 3, 4), (0, 4, 3), (3, 4, 0),
                                             (0, 1, 2), (0, 2, 1)])
        hull = strong_hull(a, {0})
        assert hull == frozenset({0, 3, 4})
        assert is_strong(a, hull)
        assert naive_predim(a, hull) == rank(a, {0}) == 0
        for e in hull - {0}:
            assert naive_predim(a, hull - {e}) > naive_predim(a, hull)
        assert naive_predim(a, range(5)) == 0

    @pytest.mark.parametrize("a, base, hull", [
        # a single-element drop loop stops at {1,2,3,4,6,7}
        (NaryStructure.of(P31, range(8), [(0, 7, 1), (4, 3, 1), (7, 5, 0), (4, 2, 7),
                                          (7, 4, 6), (6, 2, 4), (3, 4, 1), (2, 6, 4)]),
         {4, 7}, {2, 4, 6, 7}),
        # ... and here at the whole universe
        (CliqueStructure.of(P32, range(8), [[(1, 0), (2, 5), (6, 0)],
                                            [(3, 1), (2, 6), (4, 7), (1, 5)],
                                            [(5, 2), (7, 4), (3, 2), (3, 0)]]),
         {3}, {0, 1, 2, 3, 5, 6}),
    ], ids=["nary-3-1", "clique-3-2"])
    def test_hull_below_single_element_drops(self, a, base, hull):
        assert in_class(a)
        assert strong_hull(a, base) == naive_strong_hull(a, base) == frozenset(hull)

    def test_hull_agrees_with_naive_intersection(self):
        rng = random.Random(81)
        families = [lambda: random_nary_in_class(rng, P31, 8, min_size=4),
                    lambda: random_nary_in_class(rng, P42, 8, min_size=4),
                    lambda: random_clique_in_class(rng, P21, 8, min_size=4),
                    lambda: random_clique_in_class(rng, P32, 8, min_size=4),
                    lambda: random_nary(rng, P31, 8, min_size=5, max_relations=12)]
        out_of_class = proper = 0
        for make in families:
            for _ in range(60):
                a = make()
                base = random_subset(rng, a.universe, max_take=3)
                hull = strong_hull(a, base)
                assert hull == naive_strong_hull(a, base)
                out_of_class += not in_class(a)
                proper += hull != base
        assert out_of_class >= 20 and proper >= 60

    def test_hull_on_grown_stage_is_forced(self):
        # above naive-enumeration size: the 28-element tuple stage of the
        # benchmark's queries workload
        a = grow(GrowthSchedule("nary", P31, 30, 3, 1)).final
        rng = random.Random(82)
        elems = sorted(a.universe)
        not_strong = 0
        for _ in range(10):
            base = frozenset(rng.sample(elems, rng.randint(1, 3)))
            hull = strong_hull(a, base)
            r = rank(a, base)
            assert base <= hull and is_strong(a, hull)
            assert predim(induced(a, hull)) == r
            for e in hull - base:
                assert min_predim_over(induced(a, a.universe - {e}), base) > r
            ok, witness = check_strong(a, base)
            assert ok == (hull == base)
            if not ok:
                not_strong += 1
                assert set(witness.violating) <= hull
        assert not_strong >= 3


def _load_bench_oracle():
    # the benchmark's own Hall-matching oracle, imported by path; it imports nothing from pregeom
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_ORACLE = _load_bench_oracle()


def bench_plain(a):
    rel = a.relation if isinstance(a, NaryStructure) else a.maxcliques
    return BENCH_ORACLE.make(a.kind, a.params.n, a.params.r, a.universe, rel)


def bench_in_class(a):
    return BENCH_ORACLE.in_class(bench_plain(a))


def search_in_class(a):
    ev = predimension._Evaluator(a)
    return predimension._min_over(ev, 0)[0] >= 0


def pushed_out_of_class(a, rng):
    """Copies of `a`, each with one more tuple or clique member, until one is out of class.

    Tuples go into one window of n + 1 elements, so that few are needed.
    """
    elems = a.sorted_universe()
    copies = []
    if len(elems) <= a.params.n or isinstance(a, CliqueStructure) and not a.maxcliques:
        return copies
    window = rng.sample(elems, a.params.n + 1)
    for _ in range(200):
        if isinstance(a, NaryStructure):
            b = NaryStructure(a.params, a.universe,
                              a.relation | {tuple(rng.sample(window, a.params.n))})
        else:
            k = rng.choice(sorted(a.maxcliques, key=sorted))
            member = tuple(rng.sample(elems, a.params.r))
            b = CliqueStructure(a.params, a.universe, (a.maxcliques - {k}) | {k | {member}})
        if b == a or validate(b):
            continue
        copies.append(b)
        a = b
        if not in_class(b):
            break
    return copies


class TestClassVerdict:
    """`in_class` decides membership by max-flow; the references search or enumerate subsets."""

    @pytest.mark.parametrize("kind, params, max_size", [
        ("nary", P31, 4), ("nary", P42, 3), ("nary", P32, 4),
        ("clique", P21, 4), ("clique", ClassParams(3, 1), 4), ("clique", P32, 3)],
        ids=["nary-3-1", "nary-4-2", "nary-3-2", "clique-2-1", "clique-3-1", "clique-3-2"])
    def test_every_small_structure(self, kind, params, max_size):
        # tuple enumerations cap |R| at |U|, so the search, not a count, refutes them
        for size in range(max_size + 1):
            for a in enumerate_structures(kind, params, size, in_class_only=False):
                assert in_class(a) == (naive_min_over(a, ()) >= 0)

    @pytest.mark.parametrize("kind, params, target", [
        ("nary", P31, 40), ("clique", P21, 40), ("clique", P32, 28)],
        ids=["nary-3-1-to40", "clique-2-1-to40", "clique-3-2-to28"])
    def test_grown_stages_and_pushed_copies(self, kind, params, target):
        chain = grow(GrowthSchedule(kind, params, target, 3, 1))
        rng = random.Random(target)
        checked = out = refuted = 0
        for stage in chain.stages:
            copies = (stage, *pushed_out_of_class(stage, rng))
            # the subset search takes about a second per tuple copy above 30 elements
            searched = copies if len(stage.universe) <= 28 else (copies[0], copies[-1])
            for b in copies:
                verdict = in_class(b)
                if b in searched:
                    assert verdict == search_in_class(b)
                if params.r == 1 or kind == "nary":
                    assert verdict == bench_in_class(b)
                checked += 1
                out += not verdict
                refuted += not verdict and predim(b) >= 0
        assert out >= len(chain.stages) // 2 and refuted > 0
        assert checked > 2 * len(chain.stages)


def counted_searches(monkeypatch):
    """The tie-break of every `_min_over` call from here on, in call order."""
    calls = []
    inner = predimension._min_over

    def counted(ev, base, tilt=0):
        calls.append(tilt)
        return inner(ev, base, tilt)

    monkeypatch.setattr(predimension, "_min_over", counted)
    return calls


def tuple_path(size):
    """The (3,1) tuples (i, i+1, i+2) on range(size)."""
    return [(i, i + 1, i + 2) for i in range(size - 2)]


# the (2,1) cliques {2i, 2i+1, 2i+2}: 749 links on 0..1498, and 1499 isolated
CLIQUE_CHAIN = [[(2 * i,), (2 * i + 1,), (2 * i + 2,)] for i in range(749)]
# the tuple path without its last tuple, and four tuples on {750, 751, 752}
CROWDED_PATH = tuple_path(1500)[:-1] + [(750, 752, 751), (751, 750, 752), (752, 751, 750)]
# the chain without three links, and the six pair cliques of {100, 200, 300, 400}
CROWDED_CHAIN = CLIQUE_CHAIN[:-3] + [[(x,), (y,)] for x, y in
                                     itertools.combinations((100, 200, 300, 400), 2)]


class TestClassVerdictAtScale:
    """1500-element inputs, where the subset search's contraction is quadratic per round."""

    def test_tuple_path(self, monkeypatch):
        calls = counted_searches(monkeypatch)
        assert in_class(NaryStructure.of(P31, range(1500), tuple_path(1500)))
        b = NaryStructure.of(P31, range(1500), CROWDED_PATH)
        assert len(b.relation) <= len(b.universe) and not in_class(b)
        assert calls == []

    def test_clique_chain(self, monkeypatch):
        calls = counted_searches(monkeypatch)
        assert in_class(CliqueStructure.of(P21, range(1500), CLIQUE_CHAIN))
        b = CliqueStructure.of(P21, range(1500), CROWDED_CHAIN)
        assert predim(b) >= 0 and not in_class(b)
        assert calls == []


class TestRankAndClosureAtScale:
    """rank and closure read one unit placement; the subset search was exponential in closure."""

    def test_tuple_path(self, monkeypatch):
        calls = counted_searches(monkeypatch)
        a = NaryStructure.of(P31, range(1500), tuple_path(1500))
        # a run of k consecutive elements holds max(0, k - 2) tuples, so every
        # non-empty set has predim at least 1, and predim(a) = 2
        assert rank(a, {0}) == 1 and rank(a, {0, 1}) == predim(a) == 2
        assert closure(a, {0}) == {0}
        assert closure(a, {0, 1}) == a.universe
        # out of class: each run through {750, 751, 752} that stops before the
        # now isolated 1499 has predim -1
        b = NaryStructure.of(P31, range(1500), CROWDED_PATH)
        assert min_predim_over(b, ()) == min_predim_over(b, {0}) == -1
        assert predimension.largest_minimiser(b, ()) == frozenset(range(1499))
        assert calls == []

    def test_clique_chain(self, monkeypatch):
        calls = counted_searches(monkeypatch)
        a = CliqueStructure.of(P21, range(1500), CLIQUE_CHAIN)
        plain = bench_plain(a)
        assert rank(a, {0}) == rank(a, {0, 1}) == 1 == BENCH_ORACLE.rank(plain, {0})
        assert rank(a, {0, 1499}) == 2 == BENCH_ORACLE.rank(plain, {0, 1499})
        # the chain 0..1498 has predim 1499 - 2·749 = 1
        assert closure(a, {0}) == closure(a, {0, 1}) == frozenset(range(1499))
        assert closure(a, {1499}) == {1499}
        # out of class: the chain's first 746 links and the six pairs give 1493 - 1492 - 6
        b = CliqueStructure.of(P21, range(1500), CROWDED_CHAIN)
        assert min_predim_over(b, ()) == -5 == BENCH_ORACLE.rank(bench_plain(b), ())
        assert predimension.largest_minimiser(b, ()) == frozenset(range(1493))
        assert calls == []

    def test_thirty_element_path(self, monkeypatch):
        # the branch-and-bound took 15-19 s for closure({0, 1}) here
        calls = counted_searches(monkeypatch)
        a = NaryStructure.of(P31, range(30), tuple_path(30))
        plain = bench_plain(a)
        assert closure(a, {0, 1}) == a.universe == BENCH_ORACLE.closure(plain, {0, 1})
        for base in itertools.combinations(range(30), 2):
            assert rank(a, base) == BENCH_ORACLE.rank(plain, base)
            assert closure(a, base) == BENCH_ORACLE.closure(plain, base)
        assert calls == []


def crowded_copy(a, rng):
    """`a` with tuples, or s-member cliques, added inside one window until it leaves the class.

    None when a hundred tries leave it in class.
    """
    p = a.params
    window = rng.sample(a.sorted_universe(), min(len(a.universe), p.n + 2))
    for _ in range(100):
        if isinstance(a, NaryStructure):
            b = NaryStructure(p, a.universe, a.relation | {tuple(rng.sample(window, p.n))})
        else:
            k = frozenset(tuple(rng.sample(window, p.r)) for _ in range(p.s))
            b = CliqueStructure(p, a.universe, a.maxcliques | {k})
            if len(k) < p.s or validate(b):
                continue
        a = b
        if not in_class(a):
            return a
    return None


class TestFlowAgreesWithEnumeration:
    """The flow's minimum and largest minimiser on every base, in class or not.

    `verify_partial_pg_iso` compares `min_predim_over` on out-of-class inputs too.
    """

    @pytest.mark.parametrize("kind", ["nary", "clique"])
    @pytest.mark.parametrize("n, r", [(3, 1), (4, 1), (3, 2), (4, 2), (2, 1)])
    def test_every_base(self, kind, n, r):
        rng = random.Random(100 * n + 10 * r + (kind == "clique"))
        params = ClassParams(n, r)
        checked = out_of_class = 0
        for _ in range(20):
            if kind == "nary":
                a = random_nary(rng, params, 9, min_size=n, max_relations=12)
            else:
                a = random_clique(rng, params, 9, min_size=n)
            for b in filter(None, (a, crowded_copy(a, rng))):
                values = {x: naive_predim(b, x) for x in subsets(b.universe)}
                for base in values:
                    supersets = [base | extra for extra in subsets(b.universe - base)]
                    least = min(values[x] for x in supersets)
                    minimisers = [x for x in supersets if values[x] == least]
                    assert min_predim_over(b, base) == least
                    assert predimension.largest_minimiser(b, base) == frozenset().union(*minimisers)
                checked += 1
                out_of_class += not in_class(b)
        assert out_of_class >= 10 and checked - out_of_class >= 5
