import random

import pytest

from pregeom import (CliqueStructure, ClassParams, DomainError, GrowthSchedule,
                     NaryStructure, PartialPgIso, back_and_forth,
                     clique_to_nary, grow, in_class, induced_nary, is_strong,
                     nary_to_clique, predim, predim_rel, pregeometry_of,
                     remove_pathologies, same_pregeometry, strong_hull,
                     verify_partial_pg_iso)
from pregeom.gen import random_nary_in_class, random_subset
from pregeom.geometry import anchor_choices, is_good_set
from pregeom.oracles import subsets

P42 = ClassParams(4, 2)   # arity-4 tuples read as two blocks of two
P32 = ClassParams(3, 2)   # clique side: 2-tuples, threshold 2
P21 = ClassParams(2, 1)


def one_tuple_rs4():
    return NaryStructure.of(P42, range(4), [(0, 1, 2, 3)])


class TestRemovePathologies:
    def test_trivial_when_no_new_tuples(self):
        a = one_tuple_rs4()
        c, d, report = remove_pathologies(a, a)
        assert c == a and d == a
        assert report.entries == ()

    def test_single_tuple_counts(self):
        a = NaryStructure.of(P42, [], [])
        b = one_tuple_rs4()
        c, d, report = remove_pathologies(a, b)
        assert len(c.universe) == len(b.universe) + 2
        assert len(c.relation) == len(b.relation) + 2
        assert len(d.relation) == len(a.relation) + 3
        assert is_strong(c, b.universe)
        assert is_strong(d, a.universe)

    def test_closed_set_families_match(self):
        rng = random.Random(41)
        checked = 0
        while checked < 12:
            b = random_nary_in_class(rng, P42, 5)
            if not (1 <= len(b.relation) <= 2):
                continue
            a = induced_nary(b, strong_hull(b, random_subset(rng, b.universe, 2)))
            c, d, _ = remove_pathologies(a, b)
            if len(c.universe) > 9:
                continue
            checked += 1
            pc, pd = pregeometry_of(c), pregeometry_of(d)
            for x in subsets(c.universe):
                assert pc.is_closed(x) == pd.is_closed(x)

    def test_permuted_source_tuples_get_distinct_gadgets(self):
        b = NaryStructure.of(P42, range(4), [(0, 1, 2, 3), (2, 3, 0, 1)])
        a = NaryStructure.of(P42, [], [])
        c, d, _ = remove_pathologies(a, b)
        # the two block-permuted source tuples turned into six gadget tuples
        assert len(d.relation) == 6
        assert same_pregeometry(c, d)

    def test_small_arity_rejected(self):
        a = NaryStructure.of(ClassParams(3, 1), range(3), [(0, 1, 2)])
        with pytest.raises(DomainError):
            remove_pathologies(a, a)


class TestNaryToClique:
    def test_trivial(self):
        a = one_tuple_rs4()
        a_c = CliqueStructure.of(P32, range(4), [[(0, 1), (2, 3)]])
        assert same_pregeometry(a, a_c)
        d, c_c, report = nary_to_clique(a, a_c, a)
        assert d == a and c_c == a_c

    def test_single_tuple_from_empty(self):
        a = NaryStructure.of(P42, [], [])
        a_c = CliqueStructure.of(P32, [], [])
        b = one_tuple_rs4()
        d, c_c, _ = nary_to_clique(a, a_c, b)
        # gadgeting replaces the tuple by three, each a clique of two blocks
        assert len(c_c.maxcliques) == 3
        for k in c_c.maxcliques:
            assert len(k) == 2
        assert same_pregeometry(d, c_c)

    def test_lambda_delta_correspondence_everywhere(self):
        rng = random.Random(42)
        done = 0
        while done < 10:
            b = random_nary_in_class(rng, P42, 5)
            if not 1 <= len(b.relation) <= 2:
                continue
            a = induced_nary(b, strong_hull(b, random_subset(rng, b.universe, 2)))
            a_c_members = reduct_like_companion(a)
            if a_c_members is None:
                continue
            d, c_c, _ = nary_to_clique(a, a_c_members, b)
            if len(d.universe) > 8:
                continue
            done += 1
            for x in subsets(d.universe):
                assert (predim_rel(c_c, x, x & a.universe)
                        == predim_rel(d, x, x & a.universe))

    def test_rank_table_mismatch_rejected(self):
        a = one_tuple_rs4()
        free = CliqueStructure.of(P32, range(4), [])
        with pytest.raises(DomainError):
            nary_to_clique(a, free, a)


def reduct_like_companion(a):
    """A clique structure on a's universe with the same rank table, or None.

    Mirrors each tuple of `a` by its block clique; works whenever that
    companion is valid and matches ranks (the common easy case in tests).
    """
    members = [frozenset((t[0:2], t[2:4])) for t in sorted(a.relation)]
    cand = CliqueStructure.of(P32, a.universe, members)
    from pregeom import validate
    if validate(cand) or not in_class(cand):
        return None
    if not same_pregeometry(a, cand):
        return None
    return cand


class TestCliqueToNary:
    def test_trivial(self):
        a_c = CliqueStructure.of(P21, [0, 1], [[(0,), (1,)]])
        a_rs = NaryStructure.of(P21, [0, 1], [(0, 1)])
        assert same_pregeometry(a_c, a_rs)
        b_rs, report = clique_to_nary(a_c, a_rs, a_c)
        assert b_rs == a_rs

    def test_single_clique_spec_example(self):
        # r=1, s=2: a three-member clique turns into two pair tuples
        # sharing the anchor point
        a_c = CliqueStructure.of(P21, [], [])
        a_rs = NaryStructure.of(P21, [], [])
        b_c = CliqueStructure.of(P21, [0, 1, 2], [[(0,), (1,), (2,)]])
        b_rs, report = clique_to_nary(a_c, a_rs, b_c)
        assert b_rs.relation == frozenset({(0, 1), (0, 2)})
        assert predim(b_rs) == 1 == predim(b_c)

    def test_anchor_inside_base_when_extending(self):
        a_c = CliqueStructure.of(P21, [0, 1], [[(0,), (1,)]])
        a_rs = NaryStructure.of(P21, [0, 1], [(0, 1)])
        b_c = CliqueStructure.of(P21, [0, 1, 2], [[(0,), (1,), (2,)]])
        b_rs, report = clique_to_nary(a_c, a_rs, b_c)
        # only the new member gets a tuple, anchored in the base
        assert b_rs.relation == frozenset({(0, 1), (0, 2)})

    def test_good_set_correspondence(self):
        rng = random.Random(43)
        for _ in range(10):
            k = rng.randint(2, 4)
            b_c = CliqueStructure.of(P21, range(k + 2),
                                     [[(i,) for i in range(k)]])
            a_c = CliqueStructure.of(P21, [], [])
            a_rs = NaryStructure.of(P21, [], [])
            b_rs, _ = clique_to_nary(a_c, a_rs, b_c)
            anchors = anchor_choices(a_c, b_c)
            for x in subsets(b_c.universe):
                if is_good_set(frozenset(x), b_c, anchors):
                    assert (predim_rel(b_c, x, frozenset())
                            == predim_rel(b_rs, x, frozenset()))

    def test_element_sharing_members_rejected(self):
        a_c = CliqueStructure.of(P32, [], [])
        a_rs = NaryStructure.of(P42, [], [])
        b_c = CliqueStructure.of(P32, [0, 1, 2], [[(0, 1), (0, 2)]])
        with pytest.raises(DomainError):
            clique_to_nary(a_c, a_rs, b_c)

    def test_blocks_at_rs4(self):
        a_c = CliqueStructure.of(P32, [], [])
        a_rs = NaryStructure.of(P42, [], [])
        b_c = CliqueStructure.of(P32, range(4), [[(0, 1), (2, 3)]])
        b_rs, _ = clique_to_nary(a_c, a_rs, b_c)
        assert b_rs.relation == frozenset({(0, 1, 2, 3)})
        assert same_pregeometry(b_rs, b_c)


@pytest.fixture(scope="module")
def stages():
    st1 = grow(GrowthSchedule("nary", P42, 20, 4, 0)).final
    st2 = grow(GrowthSchedule("clique", P32, 16, 3, 0)).final
    return st1, st2


class TestBackAndForth:

    def test_zero_rounds_returns_start(self, stages):
        st1, st2 = stages
        res = back_and_forth(st1, st2, None, rounds=0)
        assert res.iso.pairs == ()
        assert res.nary_stage.universe == frozenset()

    def test_one_round_single_point(self, stages):
        st1, st2 = stages
        res = back_and_forth(st1, st2, None, rounds=1, ext_bound=1)
        assert len(res.iso.domain) >= 1
        assert verify_partial_pg_iso(res.iso, res.nary_stage, res.clique_stage)

    def test_domain_grows_and_stays_rank_preserving(self, stages):
        st1, st2 = stages
        sizes = []
        for rounds in (1, 2, 3):
            res = back_and_forth(st1, st2, None, rounds=rounds, ext_bound=4)
            sizes.append(len(res.iso.domain))
            assert verify_partial_pg_iso(res.iso, res.nary_stage, res.clique_stage)
        assert sizes[0] < sizes[1] < sizes[2]

    def test_nonempty_start_extended(self, stages):
        st1, st2 = stages
        dom = sorted(strong_hull(st1, {sorted(st1.universe)[0]}))
        cod = sorted(strong_hull(st2, {sorted(st2.universe)[0]}))
        if len(dom) == 1 and len(cod) == 1:
            start = PartialPgIso.of({dom[0]: cod[0]})
            res = back_and_forth(st1, st2, start, rounds=2, ext_bound=2)
            assert dom[0] in res.iso.domain
            assert res.iso.mapping[dom[0]] == cod[0]
            assert verify_partial_pg_iso(res.iso, res.nary_stage, res.clique_stage)


class TestPartialPgIso:
    @pytest.mark.parametrize("build", [
        lambda: PartialPgIso(((0, 5), (1, 5))),   # two sources, one image
        lambda: PartialPgIso(((1, 5), (1, 6))),   # one source, two images
        lambda: PartialPgIso.of({0: 5, 1: 5}),
    ], ids=["direct-not-injective", "direct-two-images", "of-not-injective"])
    def test_every_route_checks_the_map(self, build):
        with pytest.raises(DomainError):
            build()

    def test_rank_two_pair_cannot_collapse_to_a_point(self):
        # {0,1} has rank 2 in a, and a single point has rank 1 in b
        a = NaryStructure.of(ClassParams(3, 1), range(3), [(0, 1, 2), (1, 0, 2)])
        b = NaryStructure.of(ClassParams(3, 1), [5], [])
        with pytest.raises(DomainError):
            verify_partial_pg_iso(PartialPgIso(((0, 5), (1, 5))), a, b)
        assert verify_partial_pg_iso(PartialPgIso(((0, 5),)), a, b)
