"""Audit records for the constructive operations.

Every construction that invents elements or tuples returns a GadgetReport
naming, per source tuple or clique: the fresh elements, the added tuples or
cliques, and any choice data.  Serialisation is line-oriented with a stable
field order so the CLI output stays machine-readable.
"""

from __future__ import annotations

from dataclasses import dataclass

RTuple = tuple[int, ...]


def fmt_tuple(t: RTuple) -> str:
    return "(" + ",".join(str(e) for e in t) + ")"


def fmt_clique(members) -> str:
    return "{" + "".join(fmt_tuple(t) for t in sorted(members)) + "}"


@dataclass(frozen=True)
class GadgetEntry:
    source: str
    fresh: tuple[int, ...] = ()
    added_tuples: tuple[RTuple, ...] = ()
    added_cliques: tuple[tuple[RTuple, ...], ...] = ()
    choice: str = ""

    def line(self) -> str:
        parts = [f"gadget source={self.source}"]
        if self.fresh:
            parts.append("fresh=" + ",".join(str(e) for e in self.fresh))
        if self.added_tuples:
            parts.append("tuples=" + "".join(fmt_tuple(t) for t in self.added_tuples))
        if self.added_cliques:
            parts.append("cliques=" + "".join(fmt_clique(k) for k in self.added_cliques))
        if self.choice:
            parts.append("choice=" + self.choice)
        return " ".join(parts)


@dataclass(frozen=True)
class GadgetReport:
    entries: tuple[GadgetEntry, ...] = ()

    def lines(self) -> list[str]:
        return [e.line() for e in self.entries]

    @property
    def fresh_elements(self) -> frozenset[int]:
        return frozenset(e for entry in self.entries for e in entry.fresh)
