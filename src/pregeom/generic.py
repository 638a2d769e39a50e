"""Finite approximations of the generic structures by iterated strong amalgamation.

The growth loop enumerates isomorphism types of strong pairs (A <= B) up to a
size bound, then round-robins over them, amalgamating a fresh copy of B over
each newly appearing self-sufficient copy of A.  Types are served in
(|B|, |A|, canonical form) order, so every extension type gets planted over
the empty base before budget is spent on deeper bases; the seed only perturbs
the choice among equally pending copies.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from pathlib import Path, PurePath
from typing import Iterable, Optional, Union

from . import structfile
from .amalgam import amalgam
from .errors import DomainError, FormatError
from .predimension import in_class, is_strong
from .structures import (CliqueStructure, ClassParams, Embedding,
                         NaryStructure, Structure, induced, iter_embeddings,
                         relabel)

_ENUMERATION_GUARD = 2_000_000


def empty_structure(kind: str, params: ClassParams) -> Structure:
    if kind == "nary":
        return NaryStructure(params, frozenset(), frozenset())
    if kind == "clique":
        return CliqueStructure(params, frozenset(), frozenset())
    raise DomainError(f"unknown structure kind {kind!r}")


def _count_guard(total: int, what: str) -> None:
    if total > _ENUMERATION_GUARD:
        raise DomainError(f"enumeration of {what} would visit about {total} candidates; "
                          f"reduce the size bounds")


def _move_tuple(perm: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(perm[e] for e in t)


def _move_clique(perm: tuple[int, ...], k: frozenset) -> frozenset:
    return frozenset(tuple(perm[e] for e in t) for t in k)


def _orbit_types(size: int, pool: list, move, candidates: Iterable[tuple[int, ...]],
                 build, in_class_only: bool, up_to_iso: bool):
    """Classify candidate structures one isomorphism orbit at a time.

    `pool` is the sorted list of tuples or cliques a structure is made of, and
    a candidate is a sorted tuple of pool indices.  The candidates must be
    closed under permutations of range(size), and those of each length must
    come in increasing order, each once.  A permutation keeps the length, so
    the first member of an orbit to come is its least image; as the pool is
    sorted, comparing index tuples compares relational encodings, and that
    image is what `canonical_key` finds.  `in_class` runs once per orbit, on
    that member, and the orbit's other members are crossed off as they come.

    Returns (structure, automorphisms) pairs in the order of their orbits'
    least images, and in visiting order within an orbit.  Under `up_to_iso`
    each orbit gives one pair: its first member, with the permutations of
    range(size) that fix it.  Otherwise every kept candidate gives one, with
    no automorphisms.
    """
    index = {c: i for i, c in enumerate(pool)}
    maps = [(perm, [index[move(perm, c)] for c in pool])
            for perm in itertools.permutations(range(size))]
    out = []
    pending = {}  # unvisited member of a classified orbit -> (least image, kept)
    for cand in candidates:
        if cand in pending:
            least, keep = pending.pop(cand)
            if keep and not up_to_iso:
                out.append((least, build(cand), ()))
            continue
        a = build(cand)
        keep = not in_class_only or in_class(a)
        autos = []
        for perm, image in maps:
            moved = tuple(sorted(image[i] for i in cand))
            if moved == cand:
                autos.append(perm)
            else:
                pending[moved] = (cand, keep)
        if keep:
            out.append((cand, a, tuple(autos) if up_to_iso else ()))
    out.sort(key=lambda entry: entry[0])
    return tuple((a, autos) for _, a, autos in out)


@lru_cache(maxsize=64)
def _nary_types(params: ClassParams, size: int, in_class_only: bool, up_to_iso: bool):
    universe = frozenset(range(size))
    pool = sorted(itertools.permutations(range(size), params.n)) if size >= params.n else []
    # an in-class structure holds at most |universe| tuples
    budget = min(size, len(pool))
    total = sum(comb(len(pool), k) for k in range(budget + 1))
    _count_guard(total, "tuple structures")
    candidates = (rel for k in range(budget + 1)
                  for rel in itertools.combinations(range(len(pool)), k))

    def build(rel: tuple[int, ...]) -> NaryStructure:
        return NaryStructure(params, universe, frozenset(pool[i] for i in rel))

    return _orbit_types(size, pool, _move_tuple, candidates, build, in_class_only, up_to_iso)


def enumerate_nary_structures(params: ClassParams, size: int,
                              in_class_only: bool = True,
                              up_to_iso: bool = True) -> tuple[NaryStructure, ...]:
    """All tuple structures on universe {0..size-1} with at most `size` tuples,
    optionally in class and up to isomorphism.

    `size` tuples is the in-class bound on the full universe, and it keeps
    the enumeration finite-friendly without the class filter too.
    Representatives are canonical (`structure_from_key(canonical_key(a)) == a`)
    and come in `canonical_key` order.
    """
    return tuple(a for a, _ in _nary_types(params, size, in_class_only, up_to_iso))


def _compatible(k1: frozenset, k2: frozenset, s: int) -> bool:
    return len(k1 & k2) < s


@lru_cache(maxsize=64)
def _clique_types(params: ClassParams, size: int, in_class_only: bool, up_to_iso: bool):
    s = params.s
    universe = frozenset(range(size))
    members = sorted(itertools.permutations(range(size), params.r)) if size >= params.r else []
    # with the in-class filter, the total clique weight is capped by |universe|
    max_weight = size if in_class_only else None
    max_clique = len(members) if max_weight is None else min(len(members), size + s - 1)
    cliques = []
    for c in range(s, max_clique + 1):
        for k in itertools.combinations(members, c):
            cliques.append(frozenset(k))
    cliques.sort(key=lambda k: sorted(k))
    visited = 0

    def families(start: int, family: list[int], weight: int):
        # depth first, so every length comes in increasing order
        nonlocal visited
        visited += 1
        _count_guard(visited, "clique families")
        yield tuple(family)
        for i in range(start, len(cliques)):
            k = cliques[i]
            w = len(k) - (s - 1)
            if max_weight is not None and weight + w > max_weight:
                continue
            if all(_compatible(k, cliques[j], s) for j in family):
                family.append(i)
                yield from families(i + 1, family, weight + w)
                family.pop()

    def build(family: tuple[int, ...]) -> CliqueStructure:
        return CliqueStructure(params, universe, frozenset(cliques[i] for i in family))

    return _orbit_types(size, cliques, _move_clique, families(0, [], 0), build,
                        in_class_only, up_to_iso)


def enumerate_clique_structures(params: ClassParams, size: int,
                                in_class_only: bool = True,
                                up_to_iso: bool = True) -> tuple[CliqueStructure, ...]:
    """All clique structures (pairwise intersections < s) on universe {0..size-1}."""
    return tuple(a for a, _ in _clique_types(params, size, in_class_only, up_to_iso))


def _types(kind: str, params: ClassParams, size: int,
           in_class_only: bool = True, up_to_iso: bool = True):
    if kind == "nary":
        return _nary_types(params, size, in_class_only, up_to_iso)
    if kind == "clique":
        return _clique_types(params, size, in_class_only, up_to_iso)
    raise DomainError(f"unknown structure kind {kind!r}")


def enumerate_structures(kind: str, params: ClassParams, size: int,
                         in_class_only: bool = True,
                         up_to_iso: bool = True) -> tuple[Structure, ...]:
    return tuple(a for a, _ in _types(kind, params, size, in_class_only, up_to_iso))


@dataclass(frozen=True)
class PairType:
    """An isomorphism type of a strong pair: base = induced(pattern, base_ids) <= pattern."""

    pattern: Structure
    base_ids: frozenset[int]

    @property
    def base_structure(self) -> Structure:
        return induced(self.pattern, self.base_ids)

    @property
    def growth(self) -> int:
        return len(self.pattern.universe) - len(self.base_ids)


@lru_cache(maxsize=32)
def enumerate_extension_pairs(kind: str, params: ClassParams,
                              max_size: int) -> tuple[PairType, ...]:
    """Isomorphism types of strong pairs A <= B in class with 0 < |B| <= max_size.

    Types come in (|B|, |A|, `canonical_key(B, A)`) order.  Each B is
    canonical, so that key is B's own encoding followed by the least sorted
    image of A under B's automorphisms; `is_strong` runs once per such image.
    """
    found = []
    for size in range(1, max_size + 1):
        for rank, (b, autos) in enumerate(_types(kind, params, size)):
            known = set()
            for k in range(size):
                for sub in itertools.combinations(range(size), k):
                    least = min(tuple(sorted(perm[e] for e in sub)) for perm in autos)
                    if least in known:
                        continue
                    known.add(least)
                    # combinations come in increasing order, so sub is the least image
                    base = frozenset(sub)
                    if is_strong(b, base):
                        found.append(((size, k, rank, least), PairType(b, base)))
    found.sort(key=lambda entry: entry[0])
    return tuple(pt for _, pt in found)


@dataclass(frozen=True)
class GrowthSchedule:
    kind: str
    params: ClassParams
    max_stage_size: int
    extension_size_bound: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("nary", "clique"):
            raise DomainError(f"unknown structure kind {self.kind!r}")
        if self.max_stage_size < 0 or self.extension_size_bound < 1:
            raise DomainError("schedule bounds must be positive")


@dataclass(frozen=True)
class ExtensionRecord:
    step: int
    base_ids: tuple[int, ...]
    pattern: Structure
    mapping: tuple[tuple[int, int], ...]


@dataclass
class Chain:
    schedule: GrowthSchedule
    stages: list[Structure]
    log: list[ExtensionRecord]
    truncated: bool = False

    @property
    def final(self) -> Structure:
        return self.stages[-1]


def grow(schedule: GrowthSchedule) -> Chain:
    """Iterate strong amalgamation from the empty structure up to the size bound."""
    types = enumerate_extension_pairs(schedule.kind, schedule.params,
                                      schedule.extension_size_bound)
    rng = random.Random(schedule.seed)
    stage = empty_structure(schedule.kind, schedule.params)
    stages = [stage]
    log: list[ExtensionRecord] = []
    done: set[tuple[int, tuple]] = set()
    truncated = False
    step = 0

    def realize(idx: int) -> bool:
        nonlocal stage, truncated, step
        pt = types[idx]
        if len(stage.universe) + pt.growth > schedule.max_stage_size:
            truncated = True
            return False
        pending = [emb for emb in iter_embeddings(pt.base_structure, stage)
                   if (idx, emb.pairs) not in done]
        while pending:
            pick = pending.pop(rng.randrange(len(pending))) if len(pending) > 1 else pending.pop()
            done.add((idx, pick.pairs))
            if not is_strong(stage, pick.image):
                continue
            fresh = itertools.count(max(stage.universe, default=-1) + 1)
            mapping = dict(pick.mapping)
            for e in sorted(pt.pattern.universe - pt.base_ids):
                mapping[e] = next(fresh)
            extension = relabel(pt.pattern, mapping)
            previous = stage
            stage = amalgam(stage, extension, pick.image)
            step += 1
            if not in_class(stage):
                raise AssertionError("growth produced a stage outside its class")
            if not is_strong(stage, previous.universe):
                raise AssertionError("extension step broke strongness of the previous stage")
            if not is_strong(stage, set(mapping.values())):
                raise AssertionError("extension image is not strong in the new stage")
            log.append(ExtensionRecord(step, tuple(sorted(pick.image)), pt.pattern,
                                       tuple(sorted(mapping.items()))))
            stages.append(stage)
            return True
        return False

    while len(stage.universe) < schedule.max_stage_size and not truncated:
        progress = False
        for idx in range(len(types)):
            if len(stage.universe) >= schedule.max_stage_size or truncated:
                break
            if realize(idx):
                progress = True
        if not progress:
            break
    return Chain(schedule, stages, log, truncated)


def genericity_check(m: Structure, base: Iterable[int], b: Structure) -> Optional[Embedding]:
    """A strong embedding of b into m fixing `base` pointwise, or None.

    None refutes only this finite stage, not genericity of the limit.
    """
    a = frozenset(base)
    if not a <= m.universe:
        raise DomainError("base is not contained in the stage universe")
    if not is_strong(m, a):
        raise DomainError("base is not self-sufficient in the stage")
    if not a <= b.universe or induced(b, a) != induced(m, a):
        raise DomainError("b does not extend the induced structure on the base")
    if not in_class(b):
        raise DomainError("b is not in its class")
    if not is_strong(b, a):
        raise DomainError("the base is not self-sufficient in b")
    for emb in iter_embeddings(b, m, fixed={e: e for e in a}):
        if is_strong(m, emb.image):
            return emb
    return None


# chain persistence: the final stage in the structure format, then one log
# line per step:  step <k> A <ids> B-file <relative path> map <src>:<dst> ...

def save_chain(chain: Chain, directory: Union[str, Path]) -> None:
    root = Path(directory)
    (root / "extensions").mkdir(parents=True, exist_ok=True)
    lines = [
        f"# schedule kind={chain.schedule.kind} n={chain.schedule.params.n} "
        f"r={chain.schedule.params.r} max-size={chain.schedule.max_stage_size} "
        f"ext-bound={chain.schedule.extension_size_bound} seed={chain.schedule.seed} "
        f"truncated={int(chain.truncated)}",
        structfile.serialize(chain.final).rstrip("\n"),
    ]
    for rec in chain.log:
        rel_path = f"extensions/ext_{rec.step:04d}.txt"
        structfile.save(rec.pattern, root / rel_path)
        tokens = ["step", str(rec.step), "A"]
        tokens += [str(i) for i in rec.base_ids]
        tokens += ["B-file", rel_path, "map"]
        tokens += [f"{s}:{d}" for s, d in rec.mapping]
        lines.append(" ".join(tokens))
    (root / "chain.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    structfile.save(chain.final, root / "stage.txt")


def _parse_schedule_comment(line: str) -> tuple[GrowthSchedule, bool]:
    try:
        fields = dict(part.split("=", 1) for part in line.split()[2:])
        params = ClassParams(int(fields["n"]), int(fields["r"]))
        schedule = GrowthSchedule(fields["kind"], params, int(fields["max-size"]),
                                  int(fields["ext-bound"]), int(fields["seed"]))
        return schedule, bool(int(fields["truncated"]))
    except (KeyError, ValueError, DomainError) as exc:
        raise FormatError(f"bad chain schedule header {line!r}: {exc!r}") from exc


def _parse_log_line(ln: str) -> tuple[int, tuple[int, ...], str, dict[int, int]]:
    """Step number, base ids, extension file and map of one chain log line."""
    tokens = ln.split()
    if tokens[0] != "step" or "A" not in tokens or "B-file" not in tokens or "map" not in tokens:
        raise FormatError(f"bad chain log line {ln!r}")
    a_at = tokens.index("A")
    b_at = tokens.index("B-file")
    m_at = tokens.index("map")
    # step <k> A <ids> B-file <path> map <pairs>
    if not (a_at == 2 < b_at and m_at == b_at + 2):
        raise FormatError(f"bad chain log line {ln!r}")
    mapping = {}
    for pair in tokens[m_at + 1:]:
        src, sep, dst = pair.partition(":")
        if not sep:
            raise FormatError(f"bad chain map pair {pair!r}")
        s, d = structfile.parse_ids((src, dst), "map")
        mapping[s] = d
    step, = structfile.parse_ids(tokens[1:2], "step")
    base_ids = tuple(structfile.parse_ids(tokens[a_at + 1:b_at], "base"))
    b_file = tokens[b_at + 1]
    # save_chain writes extensions/ext_NNNN.txt; a lexical check keeps symlinks working
    if PurePath(b_file).anchor or ".." in PurePath(b_file).parts:
        raise FormatError(f"chain extension file {b_file!r} is outside the chain directory")
    return step, base_ids, b_file, mapping


def load_chain(directory: Union[str, Path]) -> Chain:
    """Reload a chain and re-validate it by replaying the log from the empty structure.

    A chain file that does not parse, or whose log lines are not steps
    1, 2, ..., k in order (the numbering save_chain writes), raises
    FormatError.
    """
    root = Path(directory)
    lines = structfile.read_text(root / "chain.txt").splitlines()
    header = [ln for ln in lines if ln.startswith("# schedule ")]
    if not header:
        raise FormatError("chain file is missing its schedule header")
    schedule, truncated = _parse_schedule_comment(header[0])
    final, after = structfile.parse_lines(lines)
    stage = empty_structure(schedule.kind, schedule.params)
    stages = [stage]
    log = []
    for ln in lines[after:]:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        step, base_ids, b_file, mapping = _parse_log_line(ln)
        if step != len(log) + 1:
            raise FormatError(f"chain log line {ln!r} is step {step}, expected step {len(log) + 1}")
        pattern = structfile.load(root / b_file)
        base = frozenset(base_ids)
        extension = relabel(pattern, mapping)
        stage = amalgam(stage, extension, base)
        if not in_class(stage):
            raise DomainError(f"replayed stage after step {step} is outside its class")
        stages.append(stage)
        log.append(ExtensionRecord(step, base_ids, pattern, tuple(sorted(mapping.items()))))
    if stage != final:
        raise DomainError("replayed chain does not match the stored final stage")
    return Chain(schedule, stages, log, truncated)
