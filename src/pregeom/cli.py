"""Command-line front end.

Exit codes: 0 success, 1 domain failure (not strong, not in class, not
isomorphic, invalid structure), 2 parse or usage error.  All output is exact
integers and ids; all randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import structfile
from .acceptance import run as run_acceptance
from .amalgam import free_amalgam, standard_amalgam
from .errors import DomainError, FormatError
from .generic import GrowthSchedule, grow, save_chain
from .geometry import (back_and_forth, clique_to_nary, nary_to_clique,
                       remove_pathologies)
from .predimension import check_strong, in_class, predim_rel
from .pregeometry import closure, pg_isomorphic, pregeometry_of, rank
from .reduct import lift, reduct_of, reduct_within, undefinability_pair
from .structures import ClassParams, validate


def _ids(text: str) -> frozenset[int]:
    """A comma-separated id list; each id follows the structure files' grammar."""
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(structfile.parse_ids((w.strip() for w in text.split(",")), "element"))


def _print_structure(a, header=None):
    if header:
        print(f"# {header}")
    sys.stdout.write(structfile.serialize(a))


def _require_kind(a, kind: str, what: str):
    if a.kind != kind:
        raise DomainError(f"{what} must be a {kind} structure, got {a.kind}")
    return a


def cmd_validate(args) -> int:
    a = structfile.load(args.file)
    report = validate(a)
    if report:
        for line in report:
            print("violation:", line)
        return 1
    print("ok")
    return 0


def cmd_predim(args) -> int:
    a = structfile.load(args.file)
    part = _ids(args.set) if args.set is not None else a.universe
    # predim_rel validates the structure; over the empty base it is predim(part)
    print(predim_rel(a, part, _ids(args.over) if args.over is not None else ()))
    return 0


def cmd_strong(args) -> int:
    a = structfile.load(args.file)
    ok, witness = check_strong(a, _ids(args.sub))
    if ok:
        print("strong")
        return 0
    ids = ",".join(str(e) for e in witness.violating)
    print(f"not strong: witness={ids} relative={witness.relative_value}")
    return 1


def cmd_class(args) -> int:
    a = structfile.load(args.file)
    if in_class(a):
        print("in class")
        return 0
    witness = check_strong(a, frozenset())[1]
    ids = ",".join(str(e) for e in witness.violating)
    print(f"not in class: witness={ids} predim={witness.relative_value}")
    return 1


def cmd_closure(args) -> int:
    a = structfile.load(args.file)
    print(" ".join(str(e) for e in sorted(closure(a, _ids(args.set)))))
    return 0


def cmd_rank(args) -> int:
    a = structfile.load(args.file)
    print(rank(a, _ids(args.set)))
    return 0


def cmd_pg(args) -> int:
    a = structfile.load(args.file)
    pg = pregeometry_of(a)
    for subset, value in sorted(pg.full_table().items(),
                                key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        ids = ",".join(str(e) for e in sorted(subset)) or "-"
        print(f"rank {ids} {value}")
    return 0


def cmd_amalgam(args) -> int:
    a1 = structfile.load(args.left)
    a2 = structfile.load(args.right)
    base = _ids(args.over)
    if args.kind == "free":
        d = free_amalgam(_require_kind(a1, "nary", "left factor"),
                         _require_kind(a2, "nary", "right factor"), base)
    else:
        d = standard_amalgam(_require_kind(a1, "clique", "left factor"),
                             _require_kind(a2, "clique", "right factor"), base)
    structfile.save(d, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_grow(args) -> int:
    schedule = GrowthSchedule(args.cls, ClassParams(args.n, args.r),
                              args.max_size, args.ext_bound, args.seed)
    chain = grow(schedule)
    save_chain(chain, args.out)
    print(f"stage size={len(chain.final.universe)} steps={len(chain.log)} "
          f"truncated={int(chain.truncated)} -> {args.out}")
    return 0


def cmd_reduct(args) -> int:
    a = _require_kind(structfile.load(args.file), "nary", "input")
    r = reduct_of(a)
    if args.out:
        structfile.save(r, args.out)
        print(f"wrote {args.out}")
    else:
        _print_structure(r)
    return 0


def cmd_reduct_within(args) -> int:
    a = _require_kind(structfile.load(args.ambient), "nary", "ambient")
    _print_structure(reduct_within(a, _ids(args.sub)))
    return 0


def cmd_lift(args) -> int:
    a = _require_kind(structfile.load(args.nary_file), "nary", "base")
    b_c = _require_kind(structfile.load(args.clique_file), "clique", "extension")
    lifted, report = lift(a, b_c)
    for line in report.lines():
        print(line)
    structfile.save(lifted, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_nondef(args) -> int:
    f = _require_kind(structfile.load(args.file), "nary", "seed")
    plain, related = undefinability_pair(f)
    _print_structure(plain, "extension without the new tuple")
    _print_structure(related, "extension with the new tuple")
    return 0


def _write_or_print(pairs, out_dir):
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        for name, a in pairs:
            structfile.save(a, Path(out_dir) / f"{name}.txt")
        print(f"wrote {', '.join(name + '.txt' for name, _ in pairs)} in {out_dir}")
    else:
        for name, a in pairs:
            _print_structure(a, name)


def cmd_gadget(args) -> int:
    if args.gadget == "remove-pathologies":
        a = _require_kind(structfile.load(args.a), "nary", "base")
        b = _require_kind(structfile.load(args.b), "nary", "extension")
        c, d, report = remove_pathologies(a, b)
        for line in report.lines():
            print(line)
        _write_or_print([("c", c), ("d", d)], args.out)
    elif args.gadget == "to-clique":
        a = _require_kind(structfile.load(args.a), "nary", "tuple base")
        a_c = _require_kind(structfile.load(args.companion), "clique", "clique companion")
        b = _require_kind(structfile.load(args.b), "nary", "tuple extension")
        d, c_c, report = nary_to_clique(a, a_c, b)
        for line in report.lines():
            print(line)
        _write_or_print([("d", d), ("c-clique", c_c)], args.out)
    else:
        a_c = _require_kind(structfile.load(args.a), "clique", "clique base")
        a_rs = _require_kind(structfile.load(args.companion), "nary", "tuple companion")
        b_c = _require_kind(structfile.load(args.b), "clique", "clique extension")
        b_rs, report = clique_to_nary(a_c, a_rs, b_c)
        for line in report.lines():
            print(line)
        _write_or_print([("b-nary", b_rs)], args.out)
    return 0


def cmd_compare_pg(args) -> int:
    p = pregeometry_of(structfile.load(args.left))
    q = pregeometry_of(structfile.load(args.right))
    mapping = pg_isomorphic(p, q)
    if mapping is None:
        print("not isomorphic")
        return 1
    print("isomorphic " + " ".join(f"{a}:{b}" for a, b in sorted(mapping.items())))
    return 0


def cmd_bnf(args) -> int:
    st1 = _require_kind(structfile.load(args.stage1), "nary", "stage1")
    st2 = _require_kind(structfile.load(args.stage2), "clique", "stage2")
    res = back_and_forth(st1, st2, None, rounds=args.rounds,
                         ext_bound=args.ext_bound)
    print(f"domain size {len(res.iso.domain)}")
    print("map " + " ".join(f"{a}:{b}" for a, b in res.iso.pairs))
    for rec in res.rounds:
        print(f"round {rec.direction} pattern-size {len(rec.pattern.universe)}")
    print("rank tables verified")
    return 0


def cmd_selftest(args) -> int:
    return 0 if run_acceptance(args.level) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pregeom",
        description="finite predimension combinatorics workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="report structure invariant violations")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("predim", help="predimension of a structure or subset")
    p.add_argument("file")
    p.add_argument("--set", help="comma-separated element ids")
    p.add_argument("--over", help="relative predimension over this base")
    p.set_defaults(fn=cmd_predim)

    p = sub.add_parser("strong", help="self-sufficiency of a subset")
    p.add_argument("file")
    p.add_argument("--sub", required=True)
    p.set_defaults(fn=cmd_strong)

    p = sub.add_parser("class", help="membership in the amalgamation class")
    p.add_argument("file")
    p.set_defaults(fn=cmd_class)

    p = sub.add_parser("closure", help="pregeometry closure of a subset")
    p.add_argument("file")
    p.add_argument("--set", required=True)
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("rank", help="pregeometry rank of a subset")
    p.add_argument("file")
    p.add_argument("--set", required=True)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("pg", help="full rank table")
    p.add_argument("file")
    p.set_defaults(fn=cmd_pg)

    p = sub.add_parser("amalgam", help="amalgamate two factors over a base")
    p.add_argument("--kind", choices=("free", "standard"), required=True)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--over", required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=cmd_amalgam)

    p = sub.add_parser("grow", help="grow a finite stage of the generic structure")
    p.add_argument("--class", dest="cls", choices=("nary", "clique"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--ext-bound", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True, help="chain directory")
    p.set_defaults(fn=cmd_grow)

    p = sub.add_parser("reduct", help="clique reduct of a tuple structure")
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_reduct)

    p = sub.add_parser("reduct-within", help="reduct trace on a self-sufficient subset")
    p.add_argument("ambient")
    p.add_argument("--sub", required=True)
    p.set_defaults(fn=cmd_reduct_within)

    p = sub.add_parser("lift", help="realise a clique extension inside the tuple class")
    p.add_argument("nary_file")
    p.add_argument("clique_file")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("nondef", help="strong extensions with equal reducts, not isomorphic")
    p.add_argument("file")
    p.set_defaults(fn=cmd_nondef)

    p = sub.add_parser("gadget", help="the geometry-transfer constructions")
    gsub = p.add_subparsers(dest="gadget", required=True)
    g = gsub.add_parser("remove-pathologies")
    g.add_argument("a")
    g.add_argument("b")
    g.add_argument("-o", "--out")
    g.set_defaults(fn=cmd_gadget)
    g = gsub.add_parser("to-clique")
    g.add_argument("a")
    g.add_argument("companion")
    g.add_argument("b")
    g.add_argument("-o", "--out")
    g.set_defaults(fn=cmd_gadget)
    g = gsub.add_parser("to-nary")
    g.add_argument("a")
    g.add_argument("companion")
    g.add_argument("b")
    g.add_argument("-o", "--out")
    g.set_defaults(fn=cmd_gadget)

    p = sub.add_parser("compare-pg", help="search a rank-preserving bijection")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_compare_pg)

    p = sub.add_parser("bnf", help="back-and-forth between two stages")
    p.add_argument("stage1")
    p.add_argument("stage2")
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--ext-bound", type=int, default=3)
    p.set_defaults(fn=cmd_bnf)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
