"""Constructions relating the clique class to the tuple class of arity r*s.

Tuples of the arity-r*s class are read as s blocks of r elements.  The three
constructions here (pathology removal, tuple-to-clique, clique-to-tuple)
transfer strong extensions across the two classes while keeping the rank
table of the shared universe fixed; iterating them yields the back-and-forth
extension of a partial rank-preserving map between finite stages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .amalgam import free_amalgam, standard_amalgam
from .errors import DomainError
from .predimension import in_class, is_strong, min_predim_over, predim_rel
from .pregeometry import max_ground_cap, same_pregeometry
from .reports import GadgetEntry, GadgetReport, fmt_clique, fmt_tuple
from .structures import (CliqueStructure, ClassParams, NaryStructure, RTuple,
                         Structure, canonical_key, induced, induced_clique,
                         induced_nary, relabel, structure_from_key, validate)

_SWEEP_LIMIT = 12


@dataclass(frozen=True)
class PartialPgIso:
    """An injective partial map preserving the ambient rank of every domain subset."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len({a for a, _ in self.pairs}) != len(self.pairs):
            raise DomainError("partial map gives an element two images")
        if len({b for _, b in self.pairs}) != len(self.pairs):
            raise DomainError("partial map is not injective")

    @classmethod
    def of(cls, mapping: dict[int, int]) -> "PartialPgIso":
        return cls(tuple(sorted(mapping.items())))

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(a for a, _ in self.pairs)

    @property
    def codomain(self) -> frozenset[int]:
        return frozenset(b for _, b in self.pairs)


def verify_partial_pg_iso(iso: PartialPgIso, a: Structure, b: Structure) -> bool:
    """Check rank preservation of every domain subset, in the ambient structures."""
    mapping = iso.mapping
    if not iso.domain <= a.universe or not iso.codomain <= b.universe:
        return False
    dom = sorted(iso.domain)
    if len(dom) > 20:
        raise DomainError("domain too large for subset-by-subset verification")
    # min_predim_over, not rank: out-of-class inputs are compared, not refused
    for m in range(1 << len(dom)):
        sub = [dom[i] for i in range(len(dom)) if m >> i & 1]
        if min_predim_over(a, sub) != min_predim_over(b, [mapping[e] for e in sub]):
            return False
    return True


def _blocks(t: RTuple, r: int) -> tuple[RTuple, ...]:
    return tuple(t[i * r:(i + 1) * r] for i in range(len(t) // r))


def _check_block_arity(params: ClassParams) -> int:
    if params.n % params.r != 0:
        raise DomainError(f"arity {params.n} is not a multiple of the block size {params.r}")
    blocks = params.n // params.r
    if blocks < 2:
        raise DomainError("need at least two blocks per tuple")
    return blocks


def _require_strong_pair(a: Structure, b: Structure) -> None:
    if a.params != b.params or a.kind != b.kind:
        raise DomainError("the pair has mismatched kinds or parameters")
    if not a.universe <= b.universe or induced(b, a.universe) != a:
        raise DomainError("the smaller structure is not induced by the larger one")
    if not in_class(a) or not in_class(b):
        raise DomainError("both structures must be in their class")
    if not is_strong(b, a.universe):
        raise DomainError("the smaller structure is not self-sufficient in the larger one")


def remove_pathologies(a: NaryStructure, b: NaryStructure
                       ) -> tuple[NaryStructure, NaryStructure, GadgetReport]:
    """Trade the new tuples of b over a for permutation-free gadget tuples.

    Returns (c, d): c extends b, d extends a, both on the same enlarged
    universe, with identical rank tables; no new tuple of d has a distinct
    block-permuted companion in d.
    """
    if not isinstance(a, NaryStructure) or not isinstance(b, NaryStructure):
        raise DomainError("pathology removal takes two tuple structures")
    _require_strong_pair(a, b)
    m = a.params.n
    if m < 4:
        raise DomainError("pathology removal needs tuples of arity at least 4")
    _check_block_arity(a.params)
    new_tuples = sorted(b.relation - a.relation)
    fresh = itertools.count(max(b.universe, default=-1) + 1)
    fresh_ids = []
    c_rel = set(b.relation)
    d_rel = set(a.relation)
    entries = []
    for t in new_tuples:
        x, y = next(fresh), next(fresh)
        fresh_ids += [x, y]
        c_add = (t[:m - 2] + (x, y), t[2:] + (y, x))
        d_add = (t[:m - 1] + (x,),
                 t[1:] + (y,),
                 (t[0],) + t[2:m - 2] + (t[m - 1], x, y))
        c_rel.update(c_add)
        d_rel.update(d_add)
        entries.append(GadgetEntry(source=fmt_tuple(t), fresh=(x, y),
                                   added_tuples=c_add + d_add,
                                   choice=f"c-tuples={len(c_add)} d-tuples={len(d_add)}"))
    universe = b.universe | frozenset(fresh_ids)
    c = NaryStructure(a.params, universe, frozenset(c_rel))
    d = NaryStructure(a.params, universe, frozenset(d_rel))
    if not in_class(c) or not in_class(d):
        raise AssertionError("pathology removal left the class")
    if not is_strong(c, b.universe):
        raise AssertionError("b is not self-sufficient in c")
    if not is_strong(d, a.universe):
        raise AssertionError("a is not self-sufficient in d")
    blocks = _check_block_arity(a.params)
    for t in d.relation - a.relation:
        bl = _blocks(t, a.params.r)
        for perm in itertools.permutations(range(blocks)):
            if perm == tuple(range(blocks)):
                continue
            companion = tuple(e for i in perm for e in bl[i])
            if companion in d.relation and companion != t:
                raise AssertionError("a block-permuted companion survived pathology removal")
    if len(universe) <= max_ground_cap():
        if not same_pregeometry(c, d):
            raise AssertionError("pathology removal changed the rank table")
    return c, d, GadgetReport(tuple(entries))


def _check_cross_params(nary_params: ClassParams, clique_params: ClassParams) -> None:
    if nary_params.r != clique_params.r:
        raise DomainError("block size of the tuple class differs from the clique tuple size")
    if nary_params.n != clique_params.r * clique_params.s:
        raise DomainError(
            f"tuple arity {nary_params.n} is not r*s = {clique_params.r * clique_params.s}")


def _relative_predim_sweep(c: CliqueStructure, d: NaryStructure, a_univ: frozenset[int],
                           message: str, keep=None) -> None:
    """Assert predim_rel(c, x, x & a_univ) == predim_rel(d, x, x & a_univ) for every
    subset x of the shared universe that passes `keep` (all of them by default);
    a failure raises AssertionError(message) formatted with x, lhs and rhs."""
    elems = sorted(d.universe)
    for msk in range(1 << len(elems)):
        x = frozenset(elems[i] for i in range(len(elems)) if msk >> i & 1)
        if keep is not None and not keep(x):
            continue
        lhs = predim_rel(c, x, x & a_univ)
        rhs = predim_rel(d, x, x & a_univ)
        if lhs != rhs:
            raise AssertionError(message.format(x=sorted(x), lhs=lhs, rhs=rhs))


def nary_to_clique(a: NaryStructure, a_c: CliqueStructure, b: NaryStructure
                   ) -> tuple[NaryStructure, CliqueStructure, GadgetReport]:
    """Mirror a strong tuple extension as a strong clique extension with equal rank table.

    The new tuples of the pathology-free extension d become cliques of s
    disjoint r-blocks on top of a_c.
    """
    if not isinstance(a, NaryStructure) or not isinstance(b, NaryStructure) \
            or not isinstance(a_c, CliqueStructure):
        raise DomainError("expected tuple base and extension with a clique companion")
    _check_cross_params(a.params, a_c.params)
    if a.universe != a_c.universe:
        raise DomainError("the tuple structure and its clique companion live on different universes")
    if not in_class(a_c):
        raise DomainError("the clique companion is not in its class")
    if len(a.universe) > max_ground_cap():
        raise DomainError("universe above the pregeometry cap")
    if not same_pregeometry(a, a_c):
        raise DomainError("the tuple structure and its clique companion have different rank tables")
    c, d, report = remove_pathologies(a, b)
    r = a.params.r
    entries = list(report.entries)
    new_cliques = set()
    for t in sorted(d.relation - a.relation):
        members = frozenset(_blocks(t, r))
        new_cliques.add(members)
        entries.append(GadgetEntry(source=fmt_tuple(t), added_cliques=(tuple(sorted(members)),)))
    c_c = CliqueStructure(a_c.params, d.universe, a_c.maxcliques | frozenset(new_cliques))
    bad = validate(c_c)
    if bad:
        raise AssertionError("clique companion of the extension is ill-formed: " + "; ".join(bad))
    if not in_class(c_c):
        raise AssertionError("clique companion of the extension left the class")
    if not is_strong(c_c, a_c.universe):
        raise AssertionError("the clique companion is not self-sufficient in its extension")
    # the subset-by-subset correspondence is exponential; above the cap the
    # rank-table comparison below still pins the geometry exactly
    if len(d.universe) <= _SWEEP_LIMIT:
        _relative_predim_sweep(c_c, d, frozenset(a.universe),
                               "relative predimension mismatch on {x}: {lhs} != {rhs}")
    if not same_pregeometry(d, c_c):
        raise AssertionError("tuple and clique extensions have different rank tables")
    return d, c_c, GadgetReport(tuple(entries))


def anchor_choices(a_c: CliqueStructure, b_c: CliqueStructure
                   ) -> dict[frozenset[RTuple], tuple[RTuple, ...]]:
    """Deterministic anchor selection: per clique, the least admissible (s-1)-subset.

    Cliques tracing back to a maximal clique of a_c must anchor inside the
    base universe.
    """
    s = b_c.params.s
    a_univ = frozenset(a_c.universe)
    out = {}
    for k in sorted(b_c.maxcliques, key=lambda k: sorted(k)):
        trace = frozenset(t for t in k if set(t) <= a_univ)
        pool = sorted(trace) if trace in a_c.maxcliques else sorted(k)
        out[k] = tuple(pool[:s - 1])
    return out


def is_good_set(x: frozenset[int], b_c: CliqueStructure,
                anchors: dict[frozenset[RTuple], tuple[RTuple, ...]]) -> bool:
    s = b_c.params.s
    for k, anchor in anchors.items():
        anchored = all(set(t) <= x for t in anchor)
        big = sum(1 for t in k if set(t) <= x) >= s
        if anchored != big:
            return False
    return True


def clique_to_nary(a_c: CliqueStructure, a_rs: NaryStructure, b_c: CliqueStructure
                   ) -> tuple[NaryStructure, GadgetReport]:
    """Mirror a strong clique extension as a strong tuple extension.

    Every clique contributes tuples anchor+member; anchors are (s-1)-subsets
    of the clique itself.  Requires each clique's members to be pairwise
    element-disjoint, since generated tuples must have distinct entries.
    """
    if not isinstance(a_c, CliqueStructure) or not isinstance(b_c, CliqueStructure) \
            or not isinstance(a_rs, NaryStructure):
        raise DomainError("expected clique base and extension with a tuple companion")
    _check_cross_params(a_rs.params, a_c.params)
    if a_c.universe != a_rs.universe:
        raise DomainError("the clique structure and its tuple companion live on different universes")
    _require_strong_pair(a_c, b_c)
    if not in_class(a_rs):
        raise DomainError("the tuple companion is not in its class")
    if len(a_c.universe) > max_ground_cap():
        raise DomainError("universe above the pregeometry cap")
    if not same_pregeometry(a_c, a_rs):
        raise DomainError("the clique structure and its tuple companion have different rank tables")
    for k in b_c.maxcliques:
        for t1, t2 in itertools.combinations(sorted(k), 2):
            if set(t1) & set(t2):
                raise DomainError(
                    f"clique members {t1} and {t2} share elements; generated tuples would repeat entries")

    a_univ = frozenset(a_c.universe)
    anchors = anchor_choices(a_c, b_c)
    new_rel: set[RTuple] = set()
    entries = []
    for k in sorted(b_c.maxcliques, key=lambda k: sorted(k)):
        anchor = anchors[k]
        flat = tuple(e for t in anchor for e in t)
        trace = frozenset(t for t in k if set(t) <= a_univ)
        if trace in a_c.maxcliques:
            suffixes = sorted(t for t in k if not set(t) <= a_univ)
            kind = "extend"
        else:
            suffixes = sorted(t for t in k if t not in set(anchor))
            kind = "new"
        added = tuple(flat + t for t in suffixes)
        new_rel.update(added)
        entries.append(GadgetEntry(source=fmt_clique(k), added_tuples=added,
                                   choice=f"kind={kind} anchor=" + "".join(fmt_tuple(t) for t in anchor)))

    b_rs = NaryStructure(a_rs.params, b_c.universe, a_rs.relation | frozenset(new_rel))
    bad = validate(b_rs)
    if bad:
        raise AssertionError("generated tuple structure is ill-formed: " + "; ".join(bad))
    r = a_rs.params.r
    s = b_c.params.s
    for t in sorted(new_rel):
        bl = _blocks(t, r)
        prefix, suffix = bl[:s - 1], bl[-1]
        owners = [k for k, anchor in anchors.items() if anchor == prefix and suffix in k]
        if len(owners) != 1:
            raise AssertionError(f"generated tuple {t} has {len(owners)} owning cliques")
    if not in_class(b_rs):
        raise AssertionError("generated tuple structure left the class")
    if not is_strong(b_rs, a_univ):
        raise AssertionError("the base tuple structure is not self-sufficient in the extension")
    if len(b_rs.universe) <= _SWEEP_LIMIT:
        _relative_predim_sweep(b_c, b_rs, a_univ, "good-set correspondence fails on {x}",
                               keep=lambda x: is_good_set(x, b_c, anchors))
    if not same_pregeometry(b_rs, b_c):
        raise AssertionError("clique and tuple extensions have different rank tables")
    return b_rs, GadgetReport(tuple(entries))


@dataclass(frozen=True)
class RoundRecord:
    direction: str
    pattern: Structure
    report: GadgetReport


@dataclass(frozen=True)
class BackAndForthResult:
    iso: PartialPgIso
    nary_stage: NaryStructure
    clique_stage: CliqueStructure
    rounds: tuple[RoundRecord, ...]


def _stage_pool(stage: Structure, ext_bound: int) -> list[Structure]:
    """Small induced types occurring in a stage: singletons, pairs and relation supports."""
    subsets: set[frozenset[int]] = set()
    elems = stage.sorted_universe()
    for e in elems:
        subsets.add(frozenset([e]))
    for a, b in itertools.combinations(elems, 2):
        subsets.add(frozenset([a, b]))
    if isinstance(stage, NaryStructure):
        for t in stage.relation:
            subsets.add(frozenset(t))
    else:
        for k in stage.maxcliques:
            subsets.add(frozenset(e for t in k for e in t))
    seen = set()
    out = []
    for sub in sorted(subsets, key=sorted):
        if not 0 < len(sub) <= ext_bound:
            continue
        piece = induced(stage, sub)
        if isinstance(piece, CliqueStructure):
            if any(set(t1) & set(t2) for k in piece.maxcliques
                   for t1, t2 in itertools.combinations(sorted(k), 2)):
                continue
        key = canonical_key(piece)
        if key in seen:
            continue
        seen.add(key)
        out.append(structure_from_key(key))
    return out


def _baseline_pool(kind: str, params: ClassParams, ext_bound: int) -> list[Structure]:
    out: list[Structure] = []
    if kind == "nary":
        out.append(NaryStructure(params, frozenset({0}), frozenset()))
        if params.n <= ext_bound:
            out.append(NaryStructure(params, frozenset(range(params.n)),
                                     frozenset({tuple(range(params.n))})))
    else:
        out.append(CliqueStructure(params, frozenset({0}), frozenset()))
        span = params.r * params.s
        if span <= ext_bound:
            members = frozenset(tuple(range(i * params.r, (i + 1) * params.r))
                                for i in range(params.s))
            out.append(CliqueStructure(params, frozenset(range(span)), frozenset({members})))
    return out


def _forward_cost(p: NaryStructure) -> int:
    return len(p.universe) + 2 * len(p.relation)


def back_and_forth(stage1: NaryStructure, stage2: CliqueStructure,
                   start: Optional[PartialPgIso] = None, rounds: int = 4,
                   ext_bound: int = 3) -> BackAndForthResult:
    """Alternately transfer strong extensions between the two classes.

    Starting from the substructures matched by `start` (empty by default),
    each forward round plants a tuple-class extension and mirrors it as a
    clique extension; backward rounds go the other way.  Both working
    structures share a universe throughout and every round re-verifies rank
    table equality.  Extension types are drawn from the stages, topped up
    with a single-tuple and a disjoint-clique baseline.
    """
    cap = max_ground_cap()
    _check_cross_params(stage1.params, stage2.params)
    iso = start or PartialPgIso(())
    mapping = iso.mapping
    if not iso.domain <= stage1.universe or not iso.codomain <= stage2.universe:
        raise DomainError("the starting map leaves the stages")
    if not is_strong(stage1, iso.domain) or not is_strong(stage2, iso.codomain):
        raise DomainError("the starting map's domain and image must be self-sufficient")
    if not verify_partial_pg_iso(iso, stage1, stage2):
        raise DomainError("the starting map is not rank-preserving")

    n_work = induced_nary(stage1, iso.domain)
    back = {v: k for k, v in mapping.items()}
    q_work = relabel(induced_clique(stage2, iso.codomain), back)

    pool_n = _baseline_pool("nary", stage1.params, ext_bound) + _stage_pool(stage1, ext_bound)
    pool_c = _baseline_pool("clique", stage2.params, ext_bound) + _stage_pool(stage2, ext_bound)

    def pool_order(p: Structure):
        body = len(p.relation) if isinstance(p, NaryStructure) else len(p.maxcliques)
        return (-len(p.universe), -body, canonical_key(p))

    pool_n = sorted({canonical_key(p): p for p in pool_n}.values(), key=pool_order)
    pool_c = sorted({canonical_key(p): p for p in pool_c}.values(), key=pool_order)

    fresh_from = max(itertools.chain(stage1.universe, stage2.universe, [0])) + 1
    records = []
    for i in range(rounds):
        forward = i % 2 == 0
        pool = pool_n if forward else pool_c
        cost = _forward_cost if forward else (lambda p: len(p.universe))
        room = cap - len(n_work.universe)
        fitting = [p for p in pool if cost(p) <= room]
        if not fitting:
            raise DomainError(f"round {i + 1} has no extension fitting the universe cap")
        pattern = fitting[0]
        fresh_from = max(itertools.chain(n_work.universe, q_work.universe, [fresh_from - 1])) + 1
        renamed = relabel(pattern, {e: fresh_from + j
                                    for j, e in enumerate(pattern.sorted_universe())})
        if forward:
            b = free_amalgam(n_work, renamed, frozenset())
            n_work, q_work, report = nary_to_clique(n_work, q_work, b)
        else:
            b_c = standard_amalgam(q_work, renamed, frozenset())
            b_rs, report = clique_to_nary(q_work, n_work, b_c)
            n_work, q_work = b_rs, b_c
        if not same_pregeometry(n_work, q_work):
            raise AssertionError(f"round {i + 1} broke rank-table equality")
        records.append(RoundRecord("forward" if forward else "backward", pattern, report))

    restore = {e: mapping.get(e, e) for e in q_work.universe}
    clique_stage = relabel(q_work, restore)
    final_iso = PartialPgIso.of({e: mapping.get(e, e) for e in n_work.universe})
    return BackAndForthResult(final_iso, n_work, clique_stage, tuple(records))
