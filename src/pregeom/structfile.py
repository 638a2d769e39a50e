"""Line-oriented text format for structures (chains are saved by `generic.save_chain`).

Grammar (one structure per file):

    kind nary | kind clique
    params n=<int> r=<int>
    universe <id> <id> ...          ids ascending
    rel <id> ... <id>               tuple structures, exactly n ids per line
    clique (<id>,...)(<id>,...)     clique structures, r ids per group
    end

Lines starting with '#' are ignored.  The serializer always emits the
canonical form (tuples and cliques sorted lexicographically), so
parse(serialize(x)) == x and serialize(parse(text)) canonicalises.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Union

from .errors import FormatError
from .structures import CliqueStructure, ClassParams, NaryStructure, Structure

_PARAMS_RE = re.compile(r"^params n=(\d+) r=(\d+)$", re.ASCII)
_GROUP_RE = re.compile(r"\(([^()]*)\)")


def _clique_sort_key(k):
    return tuple(sorted(k))


def serialize(a: Structure) -> str:
    lines = [f"kind {a.kind}", f"params n={a.params.n} r={a.params.r}"]
    lines.append(" ".join(["universe"] + [str(e) for e in a.sorted_universe()]).rstrip())
    if isinstance(a, NaryStructure):
        for t in sorted(a.relation):
            lines.append("rel " + " ".join(str(e) for e in t))
    else:
        for k in sorted(a.maxcliques, key=_clique_sort_key):
            lines.append("clique " + "".join("(" + ",".join(str(e) for e in t) + ")"
                                             for t in sorted(k)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_ids(words: Iterable[str], what: str) -> list[int]:
    out = []
    for w in words:
        # str.isdigit also accepts digits int() rejects, such as '²'
        if not (w.isascii() and w.isdigit()):
            raise FormatError(f"bad {what} id {w!r}")
        try:
            out.append(int(w))
        except ValueError as exc:  # beyond int()'s digit limit
            raise FormatError(f"bad {what} id {w[:20]!r}...: {exc}") from exc
    return out


def parse_lines(lines: list[str]) -> tuple[Structure, int]:
    """Parse one structure from the given lines; returns it and the index after 'end'."""
    body = [(i, ln.strip()) for i, ln in enumerate(lines)]
    body = [(i, ln) for i, ln in body if ln and not ln.startswith("#")]
    if len(body) < 3:
        raise FormatError("structure needs at least kind, params and universe lines")
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(body):
            raise FormatError("unexpected end of input (missing 'end'?)")
        pos += 1
        return body[pos - 1]

    _, kind_line = take()
    if kind_line not in ("kind nary", "kind clique"):
        raise FormatError(f"expected 'kind nary' or 'kind clique', got {kind_line!r}")
    kind = kind_line.split()[1]

    _, params_line = take()
    m = _PARAMS_RE.match(params_line)
    if not m:
        raise FormatError(f"expected 'params n=<int> r=<int>', got {params_line!r}")
    try:
        params = ClassParams(int(m.group(1)), int(m.group(2)))
    except Exception as exc:
        raise FormatError(f"bad parameters: {exc}") from exc

    _, univ_line = take()
    if univ_line != "universe" and not univ_line.startswith("universe "):
        raise FormatError(f"expected a 'universe' line, got {univ_line!r}")
    ids = parse_ids(univ_line.split()[1:], "universe")
    if ids != sorted(set(ids)):
        raise FormatError("universe ids must be strictly ascending")
    universe = frozenset(ids)

    relation = set()
    cliques = set()
    while True:
        idx, line = take()
        if line == "end":
            break
        if line.startswith("rel ") or line == "rel":
            if kind != "nary":
                raise FormatError("'rel' line in a clique structure")
            t = parse_ids(line.split()[1:], "tuple")
            if len(t) != params.n:
                raise FormatError(f"rel line has {len(t)} ids, expected n={params.n}")
            relation.add(tuple(t))
        elif line.startswith("clique"):
            if kind != "clique":
                raise FormatError("'clique' line in a nary structure")
            payload = line[len("clique"):].strip()
            groups = _GROUP_RE.findall(payload)
            if not groups or "".join("(" + g + ")" for g in groups) != payload.replace(" ", ""):
                raise FormatError(f"bad clique line {line!r}")
            members = []
            for g in groups:
                t = parse_ids([w.strip() for w in g.split(",") if w.strip() != ""], "member")
                if len(t) != params.r:
                    raise FormatError(f"clique member ({g}) has {len(t)} ids, expected r={params.r}")
                members.append(tuple(t))
            cliques.add(frozenset(members))
        else:
            raise FormatError(f"unrecognised line {line!r}")

    if kind == "nary":
        struct: Structure = NaryStructure(params, universe, frozenset(relation))
    else:
        struct = CliqueStructure(params, universe, frozenset(cliques))
    end_index = body[pos - 1][0] + 1
    return struct, end_index


def parse(text: str) -> Structure:
    struct, after = parse_lines(text.splitlines())
    trailing = [ln for ln in text.splitlines()[after:] if ln.strip() and not ln.strip().startswith("#")]
    if trailing:
        raise FormatError(f"unexpected content after 'end': {trailing[0]!r}")
    return struct


def read_text(path: Union[str, Path]) -> str:
    """The file's text; FormatError if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def load(path: Union[str, Path]) -> Structure:
    return parse(read_text(path))


def save(a: Structure, path: Union[str, Path]) -> None:
    Path(path).write_text(serialize(a), encoding="utf-8")
