"""Brute-force cross-checks for the backtracking searches.

Both the embedding search and the rank-preserving-bijection search carry
pruning (incremental relation checks, signature filters, rank filters); these
tests re-derive their answers by raw enumeration over all injections.
"""

import ast
import itertools
import random
from pathlib import Path
from types import ModuleType

import pytest

import pregeom
from pregeom import oracles
from pregeom import (CliqueStructure, ClassParams, NaryStructure, in_class,
                     induced, iter_embeddings, pg_isomorphic, pregeometry_of,
                     relabel)
from pregeom.gen import random_clique, random_nary, random_nary_in_class

P31 = ClassParams(3, 1)
P21 = ClassParams(2, 1)
P32 = ClassParams(3, 2)


def brute_embeddings(pattern, target, fixed=None):
    """All induced embeddings extending `fixed`, by checking every injection.

    They come in the search's order: the free pattern elements (for tuple
    structures, those in the most tuples first) take target elements
    lexicographically, each in increasing order.
    """
    fixed = fixed or {}
    free = [e for e in pattern.sorted_universe() if e not in fixed]
    if isinstance(pattern, NaryStructure):
        free.sort(key=lambda e: (-sum(e in t for t in pattern.relation), e))
    spare = [w for w in target.sorted_universe() if w not in fixed.values()]
    out = []
    for image in itertools.permutations(spare, len(free)):
        mapping = {**fixed, **dict(zip(free, image))}
        if induced(target, mapping.values()) == relabel(pattern, mapping):
            out.append(tuple(sorted(mapping.items())))
    return out


def search(pattern, target, **kw):
    return [emb.pairs for emb in iter_embeddings(pattern, target, **kw)]


KINDS = pytest.mark.parametrize("kind,params", [("nary", P31), ("clique", P21), ("clique", P32)],
                                ids=["nary-3-1", "clique-2-1", "clique-3-2"])


def random_structure(rng, kind, params, size):
    if kind == "clique":
        return random_clique(rng, params, size, min_size=size)
    return random_nary(rng, params, size, min_size=size, max_relations=4)


def test_embedding_search_complete_nary():
    rng = random.Random(61)
    nonempty = 0
    for _ in range(40):
        target = random_nary(rng, P31, 6, max_relations=4)
        size = rng.randint(0, min(3, len(target.universe)))
        sub = rng.sample(target.sorted_universe(), size)
        pattern = relabel(induced(target, sub),
                          {e: i for i, e in enumerate(sorted(sub))})
        expect = brute_embeddings(pattern, target)
        assert search(pattern, target) == expect
        nonempty += bool(expect)
    assert nonempty >= 20


def test_embedding_search_complete_clique():
    rng = random.Random(62)
    for params in (P21, P32):
        nonempty = 0
        for _ in range(30):
            target = random_clique(rng, params, 6)
            size = rng.randint(0, min(3, len(target.universe)))
            sub = rng.sample(target.sorted_universe(), size)
            pattern = relabel(induced(target, sub),
                              {e: i for i, e in enumerate(sorted(sub))})
            expect = brute_embeddings(pattern, target)
            assert search(pattern, target) == expect
            nonempty += bool(expect)
        assert nonempty >= 15


def _extension(rng, target, base):
    """A pattern holding `base` pointwise: the target induced on base plus a few
    other elements, relabelled off the target's ids; or, at random, with one
    relation or clique taken away, so that it may no longer embed."""
    others = rng.sample(sorted(target.universe - base), rng.randint(1, 2))
    pattern = relabel(induced(target, base | set(others)),
                      {**{e: e for e in base}, **{e: 100 + i for i, e in enumerate(others)}})
    if rng.random() < 0.3:
        if isinstance(pattern, NaryStructure) and pattern.relation:
            return NaryStructure(pattern.params, pattern.universe,
                                 pattern.relation - {min(pattern.relation)})
        if isinstance(pattern, CliqueStructure) and pattern.maxcliques:
            drop = min(pattern.maxcliques, key=sorted)
            return CliqueStructure(pattern.params, pattern.universe, pattern.maxcliques - {drop})
    return pattern


@KINDS
def test_embedding_search_order_with_fixed_base(kind, params):
    # the call shape of genericity_check: an extension of a base, the base pinned
    rng = random.Random(64)
    nonempty = 0
    for _ in range(30):
        target = random_structure(rng, kind, params, 6)
        base = frozenset(rng.sample(target.sorted_universe(), rng.randint(0, 3)))
        pattern = _extension(rng, target, base)
        fixed = {e: e for e in base}
        expect = brute_embeddings(pattern, target, fixed)
        assert search(pattern, target, fixed=fixed) == expect
        nonempty += bool(expect)
    assert nonempty >= 10


@KINDS
def test_embedding_search_order_with_arbitrary_pins(kind, params):
    # pins that need not respect either structure
    rng = random.Random(65)
    for _ in range(30):
        target = random_structure(rng, kind, params, 6)
        pattern = random_structure(rng, kind, params, rng.randint(0, 4))
        k = rng.randint(0, len(pattern.universe))
        fixed = dict(zip(rng.sample(pattern.sorted_universe(), k),
                         rng.sample(target.sorted_universe(), k)))
        assert search(pattern, target, fixed=fixed) == brute_embeddings(pattern, target, fixed)


@KINDS
def test_bijective_search_order(kind, params):
    # the call shape of isomorphic_over: equal sizes, a common set pinned;
    # the signature filter is on
    rng = random.Random(66)
    found = 0
    for _ in range(30):
        a = random_structure(rng, kind, params, 6)
        common = frozenset(rng.sample(a.sorted_universe(), rng.randint(0, 2)))
        if rng.random() < 0.7:
            rest = sorted(a.universe - common)
            shuffled = rng.sample(rest, len(rest))
            b = relabel(a, {**{e: e for e in common}, **dict(zip(rest, shuffled))})
        else:
            b = random_structure(rng, kind, params, len(a.universe))
        fixed = {e: e for e in common}
        expect = brute_embeddings(a, b, fixed)
        assert len(a.universe) == len(b.universe)
        assert search(a, b, fixed=fixed) == expect
        found += bool(expect)
    assert found >= 15


def test_embedding_search_no_false_positives():
    # a pattern with a tuple never embeds into a relation-free target
    pattern = NaryStructure.of(P31, range(3), [(0, 1, 2)])
    target = NaryStructure.of(P31, range(5), [])
    assert search(pattern, target) == []


def brute_pg_isomorphisms(p, q):
    if len(p.ground) != len(q.ground):
        return []
    out = []
    subsets = [list(c) for k in range(len(p.ground) + 1)
               for c in itertools.combinations(p.ground, k)]
    for image in itertools.permutations(q.ground):
        mapping = dict(zip(p.ground, image))
        if all(p.rank(s) == q.rank([mapping[e] for e in s]) for s in subsets):
            out.append(mapping)
    return out


def test_pg_isomorphic_agrees_with_brute_force():
    rng = random.Random(63)
    found = 0
    for _ in range(25):
        a = random_nary_in_class(rng, P31, 5)
        if rng.random() < 0.6:
            # relabelled (and possibly perturbed) partner
            b = relabel(a, {e: 50 + e * 3 for e in a.universe})
        else:
            b = random_nary_in_class(rng, P31, 5)
            if not in_class(b):
                continue
        p, q = pregeometry_of(a), pregeometry_of(b)
        got = pg_isomorphic(p, q)
        expect = brute_pg_isomorphisms(p, q)
        assert (got is not None) == bool(expect)
        if got is not None:
            assert got in expect
            # lexicographically least in ground order
            key = lambda m: tuple(m[e] for e in p.ground)
            assert key(got) == min(key(m) for m in expect)
            found += 1
    assert found >= 8


def test_pg_isomorphic_mixed_kind_pair():
    # one clique structure against a graph with the same flat structure
    a = CliqueStructure.of(P21, [0, 1, 2, 3], [[(0,), (1,), (2,)]])
    b = NaryStructure.of(ClassParams(2, 1), [5, 6, 7, 8], [(7, 6), (7, 5)])
    got = pg_isomorphic(pregeometry_of(a), pregeometry_of(b))
    expect = brute_pg_isomorphisms(pregeometry_of(a), pregeometry_of(b))
    assert got is not None and got in expect


def test_oracle_module_imports_only_structures():
    # the naive oracles ship in the package but must not share its search code
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("pregeom")):
            used.add(node.module)
        elif isinstance(node, ast.Import):
            used.update(a.name for a in node.names if a.name.startswith("pregeom"))
    assert used == {"structures"}


def test_superset_minimum_search_stays_in_predimension():
    # the strongness questions reach the search, and the class verdict, rank
    # and closure reach the max-flow, only through predimension's public
    # functions, so each kernel has one owner
    private = {"_least_minimiser", "_contract", "_placement", "_augment"}
    named = {}
    for path in sorted(Path(oracles.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [])
            if private & set(names):
                named.setdefault(path.name, set()).update(private & set(names))
    assert named == {"predimension.py": private}


def test_every_module_uses_what_it_imports():
    # a deletion must take its imports with it; __init__.py imports to re-export
    stale = {}
    for path in sorted(Path(oracles.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
        if imported - used:
            stale[path.name] = sorted(imported - used)
    assert stale == {}


PUBLIC_NAMES = [
    "BackAndForthResult", "Chain", "ClassParams", "CliqueStructure", "DomainError",
    "Embedding", "FormatError", "GadgetEntry", "GadgetReport", "GrowthSchedule",
    "NaryStructure", "PartialPgIso", "Pregeometry", "ReductCertificate",
    "StrongWitness", "back_and_forth", "canonical_key", "check_strong",
    "clique_certificate", "clique_to_nary", "closure",
    "enumerate_extension_pairs", "enumerate_structures", "extend_clique",
    "free_amalgam", "genericity_check", "grow", "in_class", "induced",
    "induced_clique", "induced_nary", "is_strong", "isomorphic_over",
    "iter_embeddings", "lift", "load_chain", "min_predim_over", "nary_to_clique",
    "pg_isomorphic", "predim", "predim_rel", "pregeometry_of", "rank", "reduct_of",
    "reduct_within", "relabel", "remove_pathologies", "same_pregeometry",
    "save_chain", "standard_amalgam", "strong_hull", "undefinability_pair",
    "validate", "validate_clique", "validate_nary", "verify_embedding",
    "verify_partial_pg_iso", "witness_hull",
]


def test_public_names_are_pinned():
    # adding or removing a public name must change this list too; the
    # submodules are not public names, so `from pregeom import *` binds no module
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert pregeom.__all__ == PUBLIC_NAMES
    assert not [name for name in PUBLIC_NAMES if isinstance(getattr(pregeom, name), ModuleType)]
