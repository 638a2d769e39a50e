import random

import pytest

from pregeom import (CliqueStructure, ClassParams, DomainError, NaryStructure,
                     free_amalgam, in_class, induced, is_strong, predim_rel,
                     relabel, standard_amalgam)
from pregeom.gen import random_clique_in_class, random_nary_in_class


P31 = ClassParams(3, 1)
P21 = ClassParams(2, 1)


def shifted_extension(rng, base_struct, kind, params, extra):
    """A structure agreeing with base_struct on its universe, plus `extra` renamed points."""
    offset = max(base_struct.universe, default=-1) + 1
    if kind == "nary":
        other = random_nary_in_class(rng, params, extra)
    else:
        other = random_clique_in_class(rng, params, extra)
    mapping = {e: e + offset for e in other.universe}
    shifted = relabel(other, mapping)
    if kind == "nary":
        return NaryStructure(params, base_struct.universe | shifted.universe,
                             base_struct.relation | shifted.relation)
    return CliqueStructure(params, base_struct.universe | shifted.universe,
                           base_struct.maxcliques | shifted.maxcliques)


class TestFreeAmalgam:
    def test_absorbing(self):
        a1 = NaryStructure.of(P31, [0, 1, 2], [(0, 1, 2)])
        b = induced(a1, {0, 1})
        assert free_amalgam(a1, b, {0, 1}) == a1

    def test_disjoint_union(self):
        a1 = NaryStructure.of(P31, [0, 1, 2], [(0, 1, 2)])
        a2 = NaryStructure.of(P31, [3, 4, 5], [(3, 4, 5)])
        d = free_amalgam(a1, a2, set())
        assert d.universe == frozenset(range(6))
        assert len(d.relation) == 2
        # each factor embeds by inclusion
        assert induced(d, a1.universe) == a1 and induced(d, a2.universe) == a2

    def test_relative_predim_identity(self):
        rng = random.Random(21)
        for _ in range(30):
            base = random_nary_in_class(rng, P31, 3)
            a1 = shifted_extension(rng, base, "nary", P31, 3)
            a2 = shifted_extension(rng, a1, "nary", P31, 3)
            a2 = NaryStructure(P31, base.universe | (a2.universe - a1.universe),
                               frozenset(t for t in a2.relation
                                         if set(t) <= base.universe | (a2.universe - a1.universe)))
            d = free_amalgam(a1, a2, base.universe)
            assert predim_rel(d, d.universe, a1.universe) == predim_rel(d, a2.universe, base.universe)

    def test_overlap_outside_base_rejected(self):
        a1 = NaryStructure.of(P31, [0, 1], [])
        a2 = NaryStructure.of(P31, [1, 2], [])
        with pytest.raises(DomainError):
            free_amalgam(a1, a2, set())

    def test_base_disagreement_rejected(self):
        a1 = NaryStructure.of(P31, [0, 1, 2], [(0, 1, 2)])
        a2 = NaryStructure.of(P31, [0, 1, 2, 3], [])
        with pytest.raises(DomainError):
            free_amalgam(a1, a2, {0, 1, 2})


class TestStandardAmalgam:
    def test_absorbing(self):
        a1 = CliqueStructure.of(P21, [0, 1, 2], [[(0,), (1,), (2,)]])
        b = induced(a1, {0, 1})
        assert standard_amalgam(a1, b, {0, 1}) == a1

    def test_merging_example(self):
        a1 = CliqueStructure.of(P21, [0, 1, 2], [[(0,), (1,), (2,)]])
        a2 = CliqueStructure.of(P21, [1, 2, 3], [[(1,), (2,), (3,)]])
        d = standard_amalgam(a1, a2, {1, 2})
        assert d.maxcliques == frozenset({frozenset({(0,), (1,), (2,), (3,)})})

    def test_small_traces_stay_separate(self):
        a1 = CliqueStructure.of(P21, [0, 1, 2], [[(0,), (1,)]])
        a2 = CliqueStructure.of(P21, [2, 3, 4], [[(3,), (4,)]])
        assert len(standard_amalgam(a1, a2, {2}).maxcliques) == 2

    def test_observation_predim_identity_exhaustive(self):
        # standard amalgam: relative predim of the amalgam over one factor
        # equals that of the other factor over the base
        rng = random.Random(22)
        count = 0
        for _ in range(120):
            base = random_clique_in_class(rng, P21, 2)
            a1 = shifted_extension(rng, base, "clique", P21, 3)
            if not in_class(a1) or induced(a1, base.universe) != base:
                continue
            a2 = shifted_extension(rng, a1, "clique", P21, 3)
            new_univ = base.universe | (a2.universe - a1.universe)
            a2 = CliqueStructure(P21, new_univ,
                                 frozenset(k for k in a2.maxcliques
                                           if all(set(t) <= new_univ for t in k)))
            if not in_class(a2) or induced(a2, base.universe) != base:
                continue
            try:
                d = standard_amalgam(a1, a2, base.universe)
            except DomainError:
                continue
            count += 1
            assert predim_rel(d, d.universe, a1.universe) == predim_rel(d, a2.universe, base.universe)
            assert induced(d, a1.universe) == a1
            assert induced(d, a2.universe) == a2
        assert count >= 40

    def test_strong_base_gives_strong_factor_image(self):
        # amalgamation property with self-sufficient maps, both kinds
        rng = random.Random(23)
        hits = 0
        for _ in range(120):
            base = random_clique_in_class(rng, P21, 2)
            a1 = shifted_extension(rng, base, "clique", P21, 3)
            if not in_class(a1) or induced(a1, base.universe) != base:
                continue
            a2 = shifted_extension(rng, a1, "clique", P21, 3)
            new_univ = base.universe | (a2.universe - a1.universe)
            a2 = CliqueStructure(P21, new_univ,
                                 frozenset(k for k in a2.maxcliques
                                           if all(set(t) <= new_univ for t in k)))
            if not in_class(a2) or induced(a2, base.universe) != base:
                continue
            if not is_strong(a2, base.universe):
                continue
            try:
                d = standard_amalgam(a1, a2, base.universe)
            except DomainError:
                continue
            hits += 1
            assert is_strong(d, a1.universe)
        assert hits >= 30

    def test_free_amalgam_strong_base(self):
        rng = random.Random(24)
        hits = 0
        for _ in range(60):
            base = random_nary_in_class(rng, P31, 2)
            a1 = shifted_extension(rng, base, "nary", P31, 4)
            a2 = shifted_extension(rng, base, "nary", P31, 4)
            a2 = relabel(a2, {e: e if e in base.universe else e + 100 for e in a2.universe})
            if not (in_class(a1) and in_class(a2)):
                continue
            if not is_strong(a2, base.universe):
                continue
            d = free_amalgam(a1, a2, base.universe)
            hits += 1
            assert is_strong(d, a1.universe)
            assert in_class(d)
        assert hits >= 30
