"""Correctness checks of one pass's outputs, made with `oracle` alone.

Each check takes the plain output a worker pass printed and returns the
list of problems it found; an empty list means the outputs are correct.
"""

from __future__ import annotations

import numpy as np

import oracle as O


def check_grow(output: dict) -> list[str]:
    """Final stages in class, every stage strong in the final one, reload equal to growth."""
    problems = []
    for chain in output["chains"]:
        if chain["grown"] is None or chain["loaded"] is None:
            continue  # the operation failed and is counted as such
        stages = [O.from_plain(s) for s in chain["grown"]]
        final = stages[-1]
        label = f"{final.kind} chain (seed {output['seed']})"
        if O.validate(final) or not O.in_class(final):
            problems.append(f"{label}: final stage is not in its class")
        if len(final.universe) > chain["max_size"]:
            problems.append(f"{label}: final stage exceeds the size bound")
        for i, stage in enumerate(stages[:-1]):
            if O.induced(final, stage.universe) != stage:
                problems.append(f"{label}: stage {i} is not induced by the final stage")
            elif not O.is_strong(final, stage.universe):
                problems.append(f"{label}: stage {i} is not strong in the final stage")
        if chain["loaded"] != chain["grown"]:
            problems.append(f"{label}: the reloaded chain differs from the grown one")
    return problems


def check_queries(output: dict) -> list[str]:
    """Every answer against the matching rank of the stage it was asked on."""
    stages = {name: O.from_plain(s) for name, s in output["stages"].items()}
    problems = []
    for ans in output["answers"]:
        got = ans["result"]
        if got is None and ans["kind"] != "genericity_check":
            continue  # the operation failed and is counted as such
        if not _query_ok(stages[ans["stage"]], ans["kind"], frozenset(ans["base"]), got, ans["b"]):
            problems.append(f"{ans['stage']} {ans['kind']}{sorted(ans['base'])} returned {got}")
    return problems


def _query_ok(m: O.Struct, kind: str, base: frozenset, got, b) -> bool:
    if kind == "rank":
        return got == O.rank(m, base)
    if kind == "is_strong":
        return got == O.is_strong(m, base)
    if kind == "closure":
        return frozenset(got) == O.closure(m, base)
    if kind == "check_strong":
        verdict, witness, value = got
        if verdict != O.is_strong(m, base):
            return False
        if verdict:
            return witness is None
        w = frozenset(witness)
        return base <= w <= m.universe and value < 0 and \
            O.predim(m, w) - O.predim(m, base) == value
    if kind == "strong_hull":
        hull = frozenset(got)
        return base <= hull <= m.universe and O.is_strong(m, hull) and \
            O.predim(m, hull) == O.rank(m, base)
    if kind == "genericity_check":
        if got is None:
            return True  # a finite stage may lack the extension
        pattern = O.from_plain(b)
        mapping = dict(got)
        image = frozenset(mapping.values())
        return set(mapping) == set(pattern.universe) and len(image) == len(mapping) \
            and image <= m.universe and all(mapping[e] == e for e in base) \
            and O.relabel(pattern, mapping) == O.induced(m, image) and O.is_strong(m, image)
    raise ValueError(f"unknown query kind {kind!r}")


def check_back_and_forth(bnf: dict) -> list[str]:
    """A map of domain at least 6 whose two stages have equal rank tables along it."""
    mapping = dict(bnf["map"])
    nary, clique = O.from_plain(bnf["nary"]), O.from_plain(bnf["clique"])
    if len(mapping) < 6:
        return [f"back-and-forth map has domain {len(mapping)} < 6"]
    if len(set(mapping.values())) != len(mapping) or set(mapping) != set(nary.universe) \
            or set(mapping.values()) != set(clique.universe):
        return ["back-and-forth map is not a bijection between the stage universes"]
    if O.validate(nary) or O.validate(clique):
        return ["a back-and-forth stage is not a valid structure"]
    pulled = O.relabel(clique, {v: k for k, v in mapping.items()})
    table = O.rank_table(nary)
    if table[0] != 0 or not np.array_equal(table, O.rank_table(pulled)):
        return ["the back-and-forth stages have different rank tables along the map"]
    return []


def check_lift(a: O.Struct, b_c: O.Struct, lifted: O.Struct, reduct: O.Struct) -> list[str]:
    """The lift is in class and keeps its base strong; its reduct is a valid,
    in-class clique structure that induces the extension, each clique with a witness."""
    if O.validate(lifted) or not O.in_class(lifted):
        return ["lifted structure is not in its class"]
    if O.induced(lifted, a.universe) != a or not O.is_strong(lifted, a.universe):
        return ["lifted structure does not keep its base as a strong substructure"]
    if reduct.universe != lifted.universe or (reduct.n, reduct.r) != (lifted.n, lifted.r) \
            or O.validate(reduct) or not O.in_class(reduct):
        return ["reduct of the lift is not a valid in-class clique structure"]
    if O.induced(reduct, b_c.universe) != b_c:
        return ["reduct of the lift does not induce the clique extension"]
    s1 = lifted.s - 1
    for k in reduct.rel:
        elems = {e for t in k for e in t}
        prefixes = {t[:s1] for t in lifted.rel if t[s1:] in k}
        if not any(set(p).isdisjoint(elems) and
                   O.induced(lifted, elems | set(p)).rel == {p + t for t in k}
                   for p in prefixes):
            return [f"reduct clique {sorted(k)} has no witness in the lift"]
    return []


def check_transfer(output: dict, checked_bnf: dict) -> list[str]:
    """`checked_bnf` maps an already checked back-and-forth output to its problems."""
    problems = []
    bnf = output["bnf"]
    if bnf is not None:
        key = repr(bnf)
        if key not in checked_bnf:
            checked_bnf[key] = check_back_and_forth(bnf)
        problems += checked_bnf[key]
    inputs = [O.from_plain(a) for a in output["lift_inputs"]]
    for rec in output["lifts"]:
        problems += check_lift(inputs[rec["input"]], O.from_plain(rec["extension"]),
                               O.from_plain(rec["lifted"]), O.from_plain(rec["reduct"]))
    return problems
