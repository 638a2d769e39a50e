import os

import pytest

from pregeom import (ClassParams, DomainError, FormatError, GrowthSchedule,
                     NaryStructure, canonical_key, genericity_check, grow,
                     in_class, induced, is_strong, load_chain, relabel,
                     save_chain, validate, verify_embedding)
from pregeom.generic import enumerate_extension_pairs, enumerate_structures
from pregeom.structures import structure_from_key

P31 = ClassParams(3, 1)
P21 = ClassParams(2, 1)


class TestEnumeration:
    def test_nary_size3_counts(self):
        # n=3 on three points: by relation count 0/1/2/3 there are 1/1/4/4
        # types (Burnside over relabellings, which act by left translation)
        structs = enumerate_structures("nary", P31, 3)
        by_rel = {}
        for s in structs:
            by_rel.setdefault(len(s.relation), []).append(s)
        assert {k: len(v) for k, v in by_rel.items()} == {0: 1, 1: 1, 2: 4, 3: 4}

    def test_all_in_class_and_canonical(self):
        for s in enumerate_structures("nary", P31, 3):
            assert in_class(s)
            assert structure_from_key(canonical_key(s)) == s

    def test_clique_size3_types(self):
        structs = enumerate_structures("clique", P21, 3)
        # no cliques; one pair-clique; one triple-clique; two pair-cliques; three pair-cliques
        assert len(structs) == 5

    def test_pair_types_ordered(self):
        pairs = enumerate_extension_pairs("nary", P31, 3)
        sizes = [(len(p.pattern.universe), len(p.base_ids)) for p in pairs]
        assert sizes == sorted(sizes, key=lambda t: (t[0], t[1]))
        # strongness of every base in its pattern
        for p in pairs:
            assert is_strong(p.pattern, p.base_ids)


class TestGrow:
    def test_zero_size(self):
        chain = grow(GrowthSchedule("nary", P31, 0, 3, 0))
        assert len(chain.final.universe) == 0
        assert chain.log == []

    def test_first_step_plants_single_point(self):
        chain = grow(GrowthSchedule("nary", P31, 1, 3, 0))
        assert len(chain.final.universe) == 1

    def test_single_tuple_extension(self):
        chain = grow(GrowthSchedule("nary", P31, 3, 3, 0))
        # with room for three points the first pass realises the point, the
        # pair, then stops at the bound
        assert len(chain.final.universe) == 3

    def test_stages_are_chains(self):
        chain = grow(GrowthSchedule("nary", P31, 12, 3, 0))
        for prev, cur in zip(chain.stages, chain.stages[1:]):
            assert prev.universe <= cur.universe
            assert induced(cur, prev.universe) == prev
            assert is_strong(cur, prev.universe)
            assert in_class(cur)

    def test_logged_extensions_verify(self):
        chain = grow(GrowthSchedule("clique", P21, 12, 3, 0))
        for rec, stage in zip(chain.log, chain.stages[1:]):
            assert validate(stage) == []
            mapping = dict(rec.mapping)
            image = relabel(rec.pattern, mapping)
            assert induced(stage, image.universe) == image
            assert is_strong(stage, image.universe)
            base_from_map = {mapping[e] for e in rec.pattern.universe
                             if mapping[e] in rec.base_ids}
            assert base_from_map == set(rec.base_ids)

    def test_determinism(self):
        a = grow(GrowthSchedule("nary", P31, 15, 3, 5))
        b = grow(GrowthSchedule("nary", P31, 15, 3, 5))
        assert a.final == b.final
        assert a.log == b.log

    def test_seed_changes_only_tie_order(self):
        a = grow(GrowthSchedule("nary", P31, 15, 3, 0))
        b = grow(GrowthSchedule("nary", P31, 15, 3, 9))
        # same multiset of realised pattern types either way
        key = lambda ch: sorted(canonical_key(r.pattern) for r in ch.log)
        assert key(a) == key(b)


@pytest.fixture(scope="module")
def stage():
    # planting every nonempty type of size <= 3 over the empty base
    # needs 1 + 2 + 3*10 = 33 elements
    return grow(GrowthSchedule("nary", P31, 36, 3, 0)).final


class TestGenericityCheck:

    def test_identity_case(self, stage):
        base = sorted(stage.universe)[:1]
        if is_strong(stage, base):
            b = induced(stage, base)
            emb = genericity_check(stage, base, b)
            assert emb is not None and emb.mapping == {base[0]: base[0]}

    def test_planted_types_found(self, stage):
        for b in enumerate_structures("nary", P31, 3):
            emb = genericity_check(stage, (), b)
            assert emb is not None
            assert verify_embedding(emb)
            assert is_strong(stage, emb.image)

    def test_oversized_extension_returns_none(self, stage):
        big = NaryStructure.of(P31, range(len(stage.universe) + 5), [])
        assert genericity_check(stage, (), big) is None

    def test_bad_preconditions(self, stage):
        b = NaryStructure.of(P31, range(2), [])
        with pytest.raises(DomainError):
            genericity_check(stage, {10 ** 6}, b)


class TestChainPersistence:
    def test_round_trip(self, tmp_path):
        chain = grow(GrowthSchedule("clique", P21, 10, 3, 0))
        save_chain(chain, tmp_path / "c")
        loaded = load_chain(tmp_path / "c")
        assert loaded.final == chain.final
        assert loaded.truncated == chain.truncated
        assert [r.mapping for r in loaded.log] == [r.mapping for r in chain.log]
        assert loaded.schedule == chain.schedule

    def test_tampered_chain_rejected(self, tmp_path):
        chain = grow(GrowthSchedule("nary", P31, 6, 3, 0))
        save_chain(chain, tmp_path / "c")
        path = tmp_path / "c" / "chain.txt"
        lines = path.read_text().splitlines()
        dropped = [ln for ln in lines if not ln.startswith("step ")] + \
                  [ln for ln in lines if ln.startswith("step ")][:-1]
        path.write_text("\n".join(dropped) + "\n")
        with pytest.raises(DomainError):
            load_chain(tmp_path / "c")

    def test_symlinked_extensions_directory_loads(self, tmp_path):
        # the B-file check is lexical, so a symlink inside the chain directory is fine
        chain = grow(GrowthSchedule("nary", P31, 6, 3, 0))
        save_chain(chain, tmp_path / "c")
        (tmp_path / "c" / "extensions").rename(tmp_path / "elsewhere")
        (tmp_path / "c" / "extensions").symlink_to(tmp_path / "elsewhere")
        assert load_chain(tmp_path / "c").final == chain.final

    @pytest.mark.parametrize("tamper", [
        lambda text, outside: b"\xff\xfe",
        lambda text, outside: text.replace(b"step 1 ", b"step x "),
        lambda text, outside: text.replace(b"step 2 A B-file extensions/ext_0002.txt map 0:1 1:2", b"step"),
        lambda text, outside: text.replace(b" 1:2", b" 12"),
        lambda text, outside: text.replace(b"seed=0 ", b""),
        lambda text, outside: text.replace(b"seed=0 ", b"seed=zero "),
        lambda text, outside: text.replace(b"seed=0 ", b"seed "),
        lambda text, outside: text.replace(b"kind=nary n=3 r=1", b"kind=nary n=1 r=1"),
        # a valid extension file outside the chain directory, named two ways
        lambda text, outside: text.replace(b"B-file extensions/ext_0001.txt",
                                           b"B-file " + outside),
        lambda text, outside: text.replace(b"B-file extensions/ext_0001.txt",
                                           b"B-file extensions/../../outside.txt"),
        # save_chain numbers the steps 1, 2, 3 and names each file after its step
        lambda text, outside: text.replace(b"step 2 ", b"step 1 "),
        lambda text, outside: text.replace(b"step 2 ", b"step # ").replace(
            b"step 3 ", b"step 2 ").replace(b"step # ", b"step 3 "),
    ], ids=["not-utf8", "step-not-a-number", "bare-step", "map-pair-without-colon",
            "no-seed", "seed-not-a-number", "field-without-value", "bad-params",
            "absolute-b-file", "b-file-with-dotdot", "duplicate-step", "steps-out-of-order"])
    def test_malformed_chain_file_is_a_format_error(self, tmp_path, tamper):
        chain = grow(GrowthSchedule("nary", P31, 6, 3, 0))
        save_chain(chain, tmp_path / "c")
        path = tmp_path / "c" / "chain.txt"
        outside = tmp_path / "outside.txt"
        outside.write_bytes((tmp_path / "c" / "extensions" / "ext_0001.txt").read_bytes())
        text = path.read_bytes()
        tampered = tamper(text, os.fsencode(outside))
        assert tampered != text
        path.write_bytes(tampered)
        with pytest.raises(FormatError):
            load_chain(tmp_path / "c")
