"""The clique reduct of a tuple structure and its constructive properties.

A family of k >= s distinct r-tuples is a related family when some
(s-1)-tuple of elements, disjoint from the members, prefixes exactly the
member tuples inside the family's element set, and that element set is
self-sufficient in every superset of at most s extra elements.  The reduct of
a tuple structure is the clique structure whose cliques are the maximal sets
of r-tuples all of whose subfamilies (of size >= s) are related.

The bounded self-sufficiency test does not try every set of at most s extra
elements.  Adding a set Y outside x lowers the predimension by the number of
tuples whose part outside x is non-empty and inside Y, less |Y|; a violating
Y can be shrunk to the union of those parts.  So it tries only unions of at
most s elements of the tuples' outside parts (see `_bounded_strong`).  The
search for related families reads the prefix map of the structure and its
member index, both built once per `reduct_of` call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DomainError
from .predimension import _evaluator, _require_strong_pair, in_class, is_strong
from .reports import GadgetEntry, GadgetReport, fmt_clique, fmt_tuple
from .structures import (CliqueStructure, NaryStructure, RTuple,
                         extend_clique, induced_clique, induced_nary,
                         isomorphic_over)


@dataclass(frozen=True)
class ReductCertificate:
    """Witness data for one related family: members, the unique witness tuple, and its element set."""

    members: tuple[RTuple, ...]
    witness: RTuple
    checked_set: frozenset[int]


def _require_nary(m, what: str) -> NaryStructure:
    if not isinstance(m, NaryStructure):
        raise DomainError(f"{what} must be a tuple structure, got {m.kind}")
    return m


def _require_cliques(m, what: str) -> CliqueStructure:
    if not isinstance(m, CliqueStructure):
        raise DomainError(f"{what} must be a clique structure, got {m.kind}")
    return m


def _prefix_map(m: NaryStructure) -> dict[RTuple, set[RTuple]]:
    s = m.params.s
    out: dict[RTuple, set[RTuple]] = {}
    for t in m.relation:
        out.setdefault(t[:s - 1], set()).add(t[s - 1:])
    return out


def _member_index(prefixes: dict[RTuple, set[RTuple]]) -> dict[RTuple, set[RTuple]]:
    """For each suffix, the set of prefixes it follows in the relation."""
    out: dict[RTuple, set[RTuple]] = {}
    for p, fam in prefixes.items():
        for t in fam:
            out.setdefault(t, set()).add(p)
    return out


def _shared_prefixes(index: dict[RTuple, set[RTuple]], members: Iterable[RTuple]) -> set[RTuple]:
    """The prefixes that every member follows."""
    return set.intersection(*(index.get(t, set()) for t in members))


def _bounded_strong(m: NaryStructure, x: frozenset[int]) -> bool:
    """Whether x is self-sufficient in every superset of at most s extra elements.

    Call t - x, the entries of a tuple t outside x, its outside part.  For Y
    disjoint from x,

        delta(x + Y) - delta(x) = |Y| - #{t in R : t - x is non-empty and inside Y}.

    Shrinking a violating Y to the union of the outside parts inside it keeps
    the count and does not raise |Y|.  So x fails exactly when some union of
    outside parts, with at most s elements, contains more tuples' parts than
    it has elements.  Only the parts of 1 to s elements can lie in such a
    union, and only their unions of at most s elements are tested.
    """
    ev = _evaluator(m)
    s = m.params.s
    xmask = ev.mask(x)
    parts: dict[int, int] = {}
    for tm in ev.groups[0]:
        part = tm & ~xmask
        if 0 < part.bit_count() <= s:
            parts[part] = parts.get(part, 0) + 1
    unions = list(parts)
    seen = set(unions)
    for u in unions:  # the list grows while it is read
        if sum(c for p, c in parts.items() if p & u == p) > u.bit_count():
            return False
        for p in parts:
            w = u | p
            if w not in seen and w.bit_count() <= s:
                seen.add(w)
                unions.append(w)
    return True


def _certificate_search(m: NaryStructure, members: Sequence[RTuple],
                        index: dict[RTuple, set[RTuple]]) -> Optional[ReductCertificate]:
    """The certificate of `members`, given the member index of m (see `_member_index`)."""
    member_set = set(members)
    if len(member_set) != len(members):
        return None
    member_elems = {e for t in members for e in t}
    ev = _evaluator(m)
    hits = []
    for witness in sorted(_shared_prefixes(index, members)):
        if len(set(witness)) != len(witness):
            continue
        if any(e in member_elems for e in witness):
            continue
        x = frozenset(member_elems | set(witness))
        # the witness tuples lie inside x, so x holds exactly them when it
        # holds no more tuples than there are members
        if ev.value(ev.mask(x)) != len(x) - len(members):
            continue
        if not _bounded_strong(m, x):
            continue
        hits.append(ReductCertificate(tuple(sorted(member_set)), witness, x))
    if len(hits) > 1:
        raise AssertionError(f"witness tuple is not unique for members {sorted(member_set)}")
    return hits[0] if hits else None


def clique_certificate(m: NaryStructure, members: Sequence[RTuple]) -> Optional[ReductCertificate]:
    """Evaluate the defining formula on a family of k >= s member tuples.

    Returns the certificate carrying the unique witness, or None when the
    family is not related in m.
    """
    _require_nary(m, "the ambient structure")
    members = [tuple(t) for t in members]
    if len(members) < m.params.s:
        raise DomainError(f"need at least s={m.params.s} member tuples, got {len(members)}")
    for t in members:
        if len(t) != m.params.r:
            raise DomainError(f"member {t} has length {len(t)}, expected r={m.params.r}")
        if len(set(t)) != len(t):
            raise DomainError(f"member {t} has a repeated entry")
        if not set(t) <= m.universe:
            raise DomainError(f"member {t} leaves the universe")
    _evaluator(m)  # validates m
    return _certificate_search(m, members, _member_index(_prefix_map(m)))


def _all_cliques(m: NaryStructure) -> dict[frozenset[RTuple], RTuple]:
    """Every related family closed under the subfamily condition, found
    bottom-up, mapped to the witness its certificate search found."""
    s = m.params.s
    prefixes = _prefix_map(m)
    index = _member_index(prefixes)
    found: dict[frozenset[RTuple], RTuple] = {}
    level: dict[frozenset[RTuple], RTuple] = {}
    for fam in prefixes.values():
        if len(fam) < s:
            continue
        for combo in itertools.combinations(sorted(fam), s):
            key = frozenset(combo)
            if key in level:
                continue
            cert = _certificate_search(m, combo, index)
            if cert is not None:
                level[key] = cert.witness
    found.update(level)
    while level:
        nxt: dict[frozenset[RTuple], RTuple] = {}
        for k in level:
            extensions = set()
            for p in _shared_prefixes(index, k):
                extensions |= prefixes[p] - k
            for t in sorted(extensions):
                k2 = k | {t}
                if k2 in nxt or k2 in found:
                    continue
                if any(k2 - {x} not in found for x in k2):
                    continue
                cert = _certificate_search(m, sorted(k2), index)
                if cert is not None:
                    nxt[k2] = cert.witness
        found.update(nxt)
        level = nxt
    return found


def _maximal_witnesses(m: NaryStructure) -> dict[frozenset[RTuple], RTuple]:
    """The maximal cliques of the reduct of m, each mapped to its witness."""
    cliques = _all_cliques(m)
    return {k: w for k, w in cliques.items() if not any(k < other for other in cliques)}


def reduct_of(m: NaryStructure) -> CliqueStructure:
    """The clique structure induced by the defining formulas, on the same universe."""
    _require_nary(m, "the input")
    _evaluator(m)  # validates m
    return CliqueStructure(m.params, m.universe, frozenset(_maximal_witnesses(m)))


def reduct_within(m: NaryStructure, subset: Iterable[int]) -> CliqueStructure:
    """The reduct substructure induced on a self-sufficient subset of m.

    Computes both the trace of the ambient reduct and the reduct of the
    induced structure, and insists they agree.
    """
    _require_nary(m, "the ambient structure")
    a = frozenset(subset)
    if not a <= m.universe:
        raise DomainError("subset leaves the universe")
    if not is_strong(m, a):
        raise DomainError("subset is not self-sufficient in the ambient structure")
    inner = induced_nary(m, a)
    if not in_class(inner):
        raise DomainError("the induced structure is not in its class")
    via_ambient = induced_clique(reduct_of(m), a)
    direct = reduct_of(inner)
    if via_ambient != direct:
        raise AssertionError("ambient and induced reduct computations disagree")
    return direct


def witness_hull(a: NaryStructure, subset: Iterable[int]) -> frozenset[int]:
    """`subset` together with every witness tuple of a maximal trace clique.

    A witness qualifies when its fibre over the subset is exactly one of the
    maximal cliques of the reduct trace on the subset.
    """
    _require_nary(a, "the ambient structure")
    b = frozenset(subset)
    if not b <= a.universe:
        raise DomainError("subset leaves the universe")
    b_c = induced_clique(reduct_of(a), b)
    if not b_c.maxcliques:
        return b
    out = set(b)
    for prefix, fam in _prefix_map(a).items():
        fibre = frozenset(t for t in fam if set(t) <= b)
        if fibre in b_c.maxcliques:
            out.update(prefix)
    return frozenset(out)


def lift(a: NaryStructure, b_c: CliqueStructure) -> tuple[NaryStructure, GadgetReport]:
    """Realise a strong clique extension of the reduct inside the tuple class.

    Existing cliques are stretched by reusing their witness tuples; cliques
    not tracing back to the reduct get a fresh witness block each.
    """
    _require_nary(a, "the base")
    _require_cliques(b_c, "the extension")
    if not in_class(a):
        raise DomainError("the tuple structure is not in its class")
    a_univ = frozenset(a.universe)
    witnesses = _maximal_witnesses(a)
    a_c = CliqueStructure(a.params, a.universe, frozenset(witnesses))
    _require_strong_pair(a_c, b_c)

    s = a.params.s
    entries = []
    r0: set[RTuple] = set()
    for k in sorted(a_c.maxcliques, key=lambda k: sorted(k)):
        witness = witnesses[k]
        big = extend_clique(b_c, a_univ, k)
        added = tuple(witness + t for t in sorted(big - k))
        r0.update(added)
        if added:
            entries.append(GadgetEntry(source=fmt_clique(k), added_tuples=added,
                                       choice="witness=" + fmt_tuple(witness)))

    def smallest_unused(taken: set[int]):
        i = 0
        while True:
            if i not in taken:
                yield i
            i += 1

    fresh = smallest_unused(set(b_c.universe))
    z_elements: set[int] = set()
    r1: set[RTuple] = set()
    for clique in sorted(b_c.maxcliques, key=lambda k: sorted(k)):
        trace = frozenset(t for t in clique if set(t) <= a_univ)
        if trace in a_c.maxcliques:
            continue
        block = tuple(next(fresh) for _ in range(s - 1))
        z_elements.update(block)
        added = tuple(block + t for t in sorted(clique))
        r1.update(added)
        entries.append(GadgetEntry(source=fmt_clique(clique), fresh=block, added_tuples=added,
                                   choice="witness=" + fmt_tuple(block)))

    lifted = NaryStructure(a.params, b_c.universe | frozenset(z_elements),
                           a.relation | r0 | r1)
    if not is_strong(lifted, a_univ):
        raise AssertionError("the base structure is not self-sufficient in the lift")
    lifted_reduct = reduct_of(lifted)
    if induced_clique(lifted_reduct, b_c.universe) != b_c:
        raise AssertionError("the lift's reduct does not induce the clique extension")
    if not is_strong(lifted_reduct, b_c.universe):
        raise AssertionError("the clique extension is not self-sufficient in the lift's reduct")
    return lifted, GadgetReport(tuple(entries))


def undefinability_pair(f: NaryStructure) -> tuple[NaryStructure, NaryStructure]:
    """Two strong extensions of f, not isomorphic over f, with equal reducts.

    Both add the same n fresh elements; one relates them by a single tuple,
    the other leaves them free.  A lone tuple spawns no clique, so the
    reducts agree exactly.
    """
    _require_nary(f, "the seed")
    if not in_class(f):
        raise DomainError("the seed structure is not in its class")
    start = max(f.universe, default=-1) + 1
    fresh = tuple(range(start, start + f.params.n))
    universe = f.universe | frozenset(fresh)
    plain = NaryStructure(f.params, universe, f.relation)
    related = NaryStructure(f.params, universe, f.relation | {fresh})
    for ext in (plain, related):
        if not in_class(ext):
            raise AssertionError("extension left the class")
        if not is_strong(ext, f.universe):
            raise AssertionError("seed is not self-sufficient in its extension")
    if isomorphic_over(plain, related, f.universe) is not None:
        raise AssertionError("the two extensions are isomorphic over the seed")
    if reduct_of(plain) != reduct_of(related):
        raise AssertionError("the two extensions have different reducts")
    return plain, related
