"""Finite relational structures over integer elements.

Two families: tuple structures (a single n-ary relation, stored as a set of
ordered tuples with pairwise-distinct entries) and clique structures (a finite
antichain of maximal cliques, each clique a set of r-tuples).  Values are
immutable; every operation is a pure function returning fresh values.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .errors import DomainError

RTuple = tuple[int, ...]
Clique = frozenset[RTuple]


@dataclass(frozen=True)
class ClassParams:
    """Arity parameters (n, r) shared by both structure classes; s = n - r + 1."""

    n: int
    r: int

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"arity n must be >= 2, got n={self.n}")
        if not 0 < self.r < self.n:
            raise DomainError(f"tuple size r must satisfy 0 < r < n, got r={self.r}, n={self.n}")

    @property
    def s(self) -> int:
        return self.n - self.r + 1


@dataclass(frozen=True)
class NaryStructure:
    params: ClassParams
    universe: frozenset[int]
    relation: frozenset[RTuple]

    @classmethod
    def of(cls, params: ClassParams, universe: Iterable[int],
           relation: Iterable[Iterable[int]] = ()) -> "NaryStructure":
        return cls(params, frozenset(universe),
                   frozenset(tuple(t) for t in relation))

    @property
    def kind(self) -> str:
        return "nary"

    def sorted_universe(self) -> list[int]:
        return sorted(self.universe)


@dataclass(frozen=True)
class CliqueStructure:
    params: ClassParams
    universe: frozenset[int]
    maxcliques: frozenset[Clique]

    @classmethod
    def of(cls, params: ClassParams, universe: Iterable[int],
           maxcliques: Iterable[Iterable[Iterable[int]]] = ()) -> "CliqueStructure":
        return cls(params, frozenset(universe),
                   frozenset(frozenset(tuple(t) for t in k) for k in maxcliques))

    @property
    def kind(self) -> str:
        return "clique"

    def sorted_universe(self) -> list[int]:
        return sorted(self.universe)


Structure = Union[NaryStructure, CliqueStructure]


@dataclass(frozen=True)
class Embedding:
    """An injective structure map, stored as sorted (source, target) id pairs."""

    source: Structure
    target: Structure
    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, source: Structure, target: Structure, mapping: dict[int, int]) -> "Embedding":
        return cls(source, target, tuple(sorted(mapping.items())))

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)

    @property
    def image(self) -> frozenset[int]:
        return frozenset(b for _, b in self.pairs)


def _check_tuple(t: RTuple, length: int, universe: frozenset[int], label: str) -> list[str]:
    problems = []
    if len(t) != length:
        problems.append(f"{label} {t} has length {len(t)}, expected {length}")
    if len(set(t)) != len(t):
        problems.append(f"{label} {t} has a repeated entry")
    stray = [e for e in t if e not in universe]
    if stray:
        problems.append(f"{label} {t} uses elements outside the universe: {sorted(set(stray))}")
    return problems


def validate_nary(a: NaryStructure) -> list[str]:
    """Report every violated invariant; the structure is valid iff the report is empty."""
    report = []
    for e in a.universe:
        if not isinstance(e, int) or e < 0:
            report.append(f"element {e!r} is not a non-negative integer")
    for t in sorted(a.relation):
        report.extend(_check_tuple(t, a.params.n, a.universe, "tuple"))
    return report


def validate_clique(a: CliqueStructure) -> list[str]:
    """Report arity, size, antichain and pairwise-intersection violations."""
    report = []
    s = a.params.s
    for e in a.universe:
        if not isinstance(e, int) or e < 0:
            report.append(f"element {e!r} is not a non-negative integer")
    cliques = sorted(a.maxcliques, key=lambda k: sorted(k))
    for k in cliques:
        for t in sorted(k):
            report.extend(_check_tuple(t, a.params.r, a.universe, "clique member"))
        if len(k) < s:
            report.append(f"clique {sorted(k)} has {len(k)} members, below the threshold s={s}")
    for k1, k2 in itertools.combinations(cliques, 2):
        if k1 <= k2 or k2 <= k1:
            report.append(f"cliques {sorted(k1)} and {sorted(k2)} are comparable (not an antichain)")
        shared = len(k1 & k2)
        if shared >= s:
            report.append(f"cliques {sorted(k1)} and {sorted(k2)} share {shared} >= s={s} members")
    return report


def validate(a: Structure) -> list[str]:
    return validate_nary(a) if isinstance(a, NaryStructure) else validate_clique(a)


def induced_nary(a: NaryStructure, subset: Iterable[int]) -> NaryStructure:
    """Substructure on `subset`: keeps exactly the tuples with all entries inside."""
    s = frozenset(subset)
    if not s <= a.universe:
        raise DomainError(f"subset {sorted(s - a.universe)} is not contained in the universe")
    rel = frozenset(t for t in a.relation if all(e in s for e in t))
    return NaryStructure(a.params, s, rel)


def induced_clique(a: CliqueStructure, subset: Iterable[int]) -> CliqueStructure:
    """Substructure on `subset`: maximal traces K intersected with subset^r of size >= s."""
    s = frozenset(subset)
    if not s <= a.universe:
        raise DomainError(f"subset {sorted(s - a.universe)} is not contained in the universe")
    return CliqueStructure(a.params, s, _maximal_traces(a.maxcliques, s, a.params.s))


def _maximal_traces(cliques: Iterable[Clique], subset, s: int) -> frozenset[Clique]:
    """The maximal traces, of at least s members, of `cliques` on `subset`."""
    traces = {frozenset(t for t in k if all(e in subset for e in t)) for k in cliques}
    traces = [k for k in traces if len(k) >= s]
    return frozenset(k for k in traces if not any(k < other for other in traces))


def induced(a: Structure, subset: Iterable[int]) -> Structure:
    if isinstance(a, NaryStructure):
        return induced_nary(a, subset)
    return induced_clique(a, subset)


def extend_clique(a: CliqueStructure, subset: Iterable[int], clique: Iterable[RTuple]) -> Clique:
    """The unique maximal clique of `a` extending a maximal clique of the substructure.

    Requires the pairwise-intersection bound on `a`, which forces uniqueness.
    """
    k = frozenset(tuple(t) for t in clique)
    sub = induced_clique(a, subset)
    if k not in sub.maxcliques:
        raise DomainError(f"{sorted(k)} is not a maximal clique of the induced substructure")
    hits = [big for big in a.maxcliques if k <= big]
    if len(hits) != 1:
        raise DomainError(
            f"clique {sorted(k)} has {len(hits)} maximal extensions; input violates the intersection bound")
    return hits[0]


def relabel(a: Structure, mapping: dict[int, int]) -> Structure:
    """Apply an injective element relabelling."""
    if len(set(mapping.values())) != len(mapping):
        raise DomainError("relabelling is not injective")
    if not a.universe <= set(mapping):
        raise DomainError("relabelling does not cover the universe")
    univ = frozenset(mapping[e] for e in a.universe)
    if isinstance(a, NaryStructure):
        rel = frozenset(tuple(mapping[e] for e in t) for t in a.relation)
        return NaryStructure(a.params, univ, rel)
    cliques = frozenset(frozenset(tuple(mapping[e] for e in t) for t in k) for k in a.maxcliques)
    return CliqueStructure(a.params, univ, cliques)


def _encode_nary(a: NaryStructure, pos: dict[int, int]):
    return tuple(sorted(tuple(pos[e] for e in t) for t in a.relation))


def _encode_clique(a: CliqueStructure, pos: dict[int, int]):
    return tuple(sorted(tuple(sorted(tuple(pos[e] for e in t) for t in k)) for k in a.maxcliques))


def canonical_key(a: Structure, subset: Optional[frozenset[int]] = None):
    """Lexicographically least relational encoding over all universe orderings.

    With `subset`, canonicalises the pair (structure, marked subset), which
    must lie in the universe.  Only meant for small structures; the search is
    factorial in the universe.
    """
    if subset is not None and not a.universe.issuperset(subset):
        stray = sorted(set(subset) - a.universe)
        raise DomainError(f"subset {stray} is not contained in the universe")
    elems = a.sorted_universe()
    m = len(elems)
    encode = _encode_nary if isinstance(a, NaryStructure) else _encode_clique
    best = None
    for perm in itertools.permutations(range(m)):
        pos = {elems[i]: perm[i] for i in range(m)}
        enc = encode(a, pos)
        if subset is not None:
            enc = (enc, tuple(sorted(pos[e] for e in subset)))
        if best is None or enc < best:
            best = enc
    return (a.kind, a.params.n, a.params.r, m, best)


def structure_from_key(key) -> Structure:
    """Rebuild the canonical representative encoded by a subset-free canonical_key."""
    kind, n, r, m, enc = key
    params = ClassParams(n, r)
    universe = frozenset(range(m))
    if kind == "nary":
        return NaryStructure(params, universe, frozenset(enc))
    return CliqueStructure(params, universe, frozenset(frozenset(k) for k in enc))


def verify_embedding(emb: Embedding) -> bool:
    """True iff the map is injective, total on the source, and an induced isomorphism onto its image."""
    mapping = emb.mapping
    if set(mapping) != set(emb.source.universe):
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    if not set(mapping.values()) <= emb.target.universe:
        return False
    image = induced(emb.target, mapping.values())
    return relabel(emb.source, mapping) == image


def _touching(items, universe) -> dict[int, list]:
    """Element -> the items (tuples, or cliques as sets of tuples) whose entries include it."""
    index = {e: [] for e in universe}
    for item in items:
        entries = item if isinstance(item, tuple) else {x for t in item for x in t}
        for x in entries:
            index[x].append(item)
    return index


def _signatures(a: Structure) -> dict[int, tuple]:
    """Each element's isomorphism invariant: per-position tuple counts, or the
    sorted (clique size, members containing it) pairs of its cliques."""
    if isinstance(a, NaryStructure):
        counts = {e: [0] * a.params.n for e in a.universe}
        for t in a.relation:
            for i, x in enumerate(t):
                counts[x][i] += 1
        return {e: tuple(c) for e, c in counts.items()}
    pairs = {e: [] for e in a.universe}
    for k in a.maxcliques:
        for x, hit in Counter(x for t in k for x in t).items():
            pairs[x].append((len(k), hit))
    return {e: tuple(sorted(p)) for e, p in pairs.items()}


def iter_embeddings(pattern: Structure, target: Structure,
                    fixed: Optional[dict[int, int]] = None):
    """Yield induced embeddings of `pattern` into `target`, in deterministic order.

    `fixed` pins part of the map in advance.  The free pattern elements are
    mapped depth first, with an explicit stack, each to the target elements
    in increasing order.  When pattern and target have equally many
    elements, every embedding is an isomorphism, and an isomorphism keeps
    each element's signature (see `_signatures`); so only target elements of
    the pattern element's signature are tried.  That prunes dead branches
    only, and the yields and their order stay the same.  Element indexes are
    built once per call, and each new pair is checked only against the
    members that touch it.  For tuple structures those checks decide the
    embedding.  For clique structures they are necessary conditions (mapped
    members of one pattern clique lie in one common target maxclique), and
    each leaf compares the relabelled pattern with the traces of the target
    maxcliques that touch the image, which is exactly the induced structure.
    """
    fixed = dict(fixed or {})
    if pattern.kind != target.kind or pattern.params != target.params:
        raise DomainError("pattern and target have different kinds or parameters")
    for src, dst in fixed.items():
        if src not in pattern.universe or dst not in target.universe:
            raise DomainError("fixed pairs leave the universes")
    if len(pattern.universe) > len(target.universe):
        return
    mapping = dict(fixed)
    inverse = {d: s for s, d in fixed.items()}
    pat_at = _touching(pattern.relation if isinstance(pattern, NaryStructure)
                       else pattern.maxcliques, pattern.universe)
    src_elems = [e for e in pattern.sorted_universe() if e not in fixed]

    if isinstance(pattern, NaryStructure):
        tgt_at = _touching(target.relation, target.universe)
        # constraint-heavy elements first shrinks the search tree
        src_elems.sort(key=lambda e: (-len(pat_at[e]), e))
        # tuples buried inside the pre-mapped part are never touched below
        for t in pattern.relation:
            if all(x in mapping for x in t) and tuple(mapping[x] for x in t) not in target.relation:
                return
        for t in target.relation:
            if all(x in inverse for x in t) and tuple(inverse[x] for x in t) not in pattern.relation:
                return

        def consistent(e: int, w: int) -> bool:
            for t in pat_at[e]:
                if all(x in mapping for x in t) and tuple(mapping[x] for x in t) not in target.relation:
                    return False
            for t in tgt_at[w]:
                if all(x in inverse for x in t) and tuple(inverse[x] for x in t) not in pattern.relation:
                    return False
            return True

        def complete() -> bool:
            return True
    else:
        tgt_at = _touching(target.maxcliques, target.universe)
        homes: dict[RTuple, set[Clique]] = {}
        for k in target.maxcliques:
            for t in k:
                homes.setdefault(t, set()).add(k)
        s = target.params.s

        def consistent(e: int, w: int) -> bool:
            for k in pat_at[e]:
                common = None
                for t in k:
                    if all(x in mapping for x in t):
                        at = homes.get(tuple(mapping[x] for x in t), set())
                        common = at if common is None else common & at
                        if not common:
                            return False
            return True

        def complete() -> bool:
            touched = {k for w in inverse for k in tgt_at[w]}
            relabelled = frozenset(frozenset(tuple(mapping[x] for x in t) for t in k)
                                   for k in pattern.maxcliques)
            return _maximal_traces(touched, inverse.keys(), s) == relabelled

    onto = len(pattern.universe) == len(target.universe)
    if onto:
        src_sig, tgt_sig = _signatures(pattern), _signatures(target)
    candidates = target.sorted_universe()
    depth, nxt = 0, [0] * len(src_elems)
    while depth >= 0:
        if depth == len(src_elems):
            if complete():
                yield Embedding.of(pattern, target, mapping)
            depth -= 1
            continue
        e = src_elems[depth]
        if e in mapping:
            # back from the subtree below: undo this level's last choice
            del inverse[mapping.pop(e)]
        j = nxt[depth]
        while j < len(candidates):
            w = candidates[j]
            j += 1
            if w in inverse or (onto and tgt_sig[w] != src_sig[e]):
                continue
            mapping[e] = w
            inverse[w] = e
            if consistent(e, w):
                break
            del mapping[e], inverse[w]
        else:
            nxt[depth] = 0
            depth -= 1
            continue
        nxt[depth] = j
        depth += 1


def isomorphic_over(a: Structure, b: Structure, fixed: Iterable[int]) -> Optional[Embedding]:
    """An isomorphism a -> b fixing `fixed` pointwise, or None.

    Deterministic backtracking pruned by element signatures; the same inputs
    always yield the same map.
    """
    f = frozenset(fixed)
    if a.kind != b.kind or a.params != b.params:
        raise DomainError("structures have different kinds or parameters")
    if not (f <= a.universe and f <= b.universe):
        raise DomainError("the fixed set is not contained in both universes")
    if induced(a, f) != induced(b, f):
        raise DomainError("the induced structures on the fixed set disagree")
    if len(a.universe) != len(b.universe):
        return None
    return next(iter_embeddings(a, b, fixed={e: e for e in f}), None)
