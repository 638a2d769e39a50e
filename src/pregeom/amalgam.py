"""Free amalgamation of tuple structures and the standard amalgam of clique structures.

Callers must pre-rename universes so the factors intersect exactly in the
shared base; the operations never rename silently.  Each factor then embeds
into the amalgam by inclusion, so the amalgam structure is the whole result:
it restricts to each factor on that factor's universe.  Joint embedding is
the special case of an empty base.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DomainError
from .structures import (CliqueStructure, NaryStructure, Structure, induced,
                         validate)


def _check_factors(a1: Structure, a2: Structure, base: frozenset[int]) -> None:
    if a1.kind != a2.kind or a1.params != a2.params:
        raise DomainError("factors have different kinds or parameters")
    bad = validate(a1) + validate(a2)
    if bad:
        raise DomainError("invalid factor: " + "; ".join(bad))
    overlap = a1.universe & a2.universe
    if overlap != base:
        raise DomainError(
            f"factor universes overlap in {sorted(overlap)}, expected exactly the base {sorted(base)}")
    if induced(a1, base) != induced(a2, base):
        raise DomainError("factors disagree on the shared base")


def free_amalgam(a1: NaryStructure, a2: NaryStructure, base: Iterable[int]) -> NaryStructure:
    """Union of universes and relations; no new tuples."""
    b = frozenset(base)
    _check_factors(a1, a2, b)
    d = NaryStructure(a1.params, a1.universe | a2.universe, a1.relation | a2.relation)
    for factor in (a1, a2):
        if induced(d, factor.universe) != factor:
            raise AssertionError("free amalgam does not restrict to its factor")
    return d


def standard_amalgam(a1: CliqueStructure, a2: CliqueStructure, base: Iterable[int]) -> CliqueStructure:
    """Merge factor cliques sharing at least s members; keep the rest separate.

    The result is validated; a violation of the intersection bound signals an
    ill-formed amalgamation instance and raises.
    """
    b = frozenset(base)
    _check_factors(a1, a2, b)
    s = a1.params.s

    def small_trace(k) -> bool:
        return sum(1 for t in k if all(e in b for e in t)) < s

    kept = {k for k in a1.maxcliques | a2.maxcliques if small_trace(k)}
    merged = set()
    for k1 in a1.maxcliques:
        for k2 in a2.maxcliques:
            if len(k1 & k2) >= s:
                merged.add(k1 | k2)
    d = CliqueStructure(a1.params, a1.universe | a2.universe, frozenset(kept | merged))
    bad = validate(d)
    if bad:
        raise DomainError("standard amalgam is ill-formed: " + "; ".join(bad))
    for factor in (a1, a2):
        if induced(d, factor.universe) != factor:
            raise AssertionError("standard amalgam does not restrict to its factor")
    return d


def amalgam(a1: Structure, a2: Structure, base: Iterable[int]) -> Structure:
    if isinstance(a1, NaryStructure):
        return free_amalgam(a1, a2, base)
    return standard_amalgam(a1, a2, base)
