"""One workload step in a fresh process: build the inputs, or run one timed pass.

    python3 worker.py setup WORKLOAD --seed N --inputs FILE [--trace FILE]
    python3 worker.py pass  WORKLOAD --inputs FILE --index K [--trace FILE]

`setup` builds the workload's inputs from the seed and pickles them to FILE.
`pass` loads them, makes the pass's own operations from the seed and K,
times them, and prints one JSON object: the latency and outcome of each
operation, the pass's wall time and peak memory, and the outputs in plain
form for `checks.py`.  With `--trace`, every cross-module call inside pregeom
is recorded and the spans are written to that file.  pregeom must be
importable (PYTHONPATH=<checkout>/src).
"""

from __future__ import annotations

import argparse
import json
import pickle
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

import oracle as O
import pregeom
from tracer import Tracer

# Operations per pass of `queries`, per stage: kind -> count.  The tuple
# stage's subset searches take milliseconds and hold the median; its
# closures (a rank search per element) are the slowest 1.5 % and hold the p99.
QUERY_MIX = {
    "nary": {"rank": 150, "is_strong": 110, "check_strong": 110, "strong_hull": 110,
             "closure": 15, "genericity_check": 40},
    "clique": {"rank": 90, "is_strong": 90, "check_strong": 90, "strong_hull": 90,
               "closure": 60, "genericity_check": 45},
}
LIFT_INPUTS = 16         # reduct-rich tuple (3,1) structures built in setup
LIFT_INPUT_SIZE = 12     # elements of each, reached by iterated lift
LIFT_INPUT_TUPLES = 8
LIFT_INPUT_MAX_CLIQUE = 5  # members of a reduct clique; lift time grows steeply with it
LIFTS_PER_PASS = 250


def plain(x) -> dict:
    body = x.relation if x.kind == "nary" else x.maxcliques
    return O.to_plain(O.make(x.kind, x.params.n, x.params.r, x.universe, body))


def to_oracle(x) -> O.Struct:
    body = x.relation if x.kind == "nary" else x.maxcliques
    return O.make(x.kind, x.params.n, x.params.r, x.universe, body)


def to_pregeom(a: O.Struct):
    params = pregeom.ClassParams(a.n, a.r)
    if a.kind == "nary":
        return pregeom.NaryStructure(params, a.universe, a.rel)
    return pregeom.CliqueStructure(params, a.universe, a.rel)


class Ops:
    """Times each operation; an operation that raises counts as failed."""

    def __init__(self):
        self.records: list[list] = []
        self.first_start = self.last_end = None

    def run(self, kind: str, fn, *args):
        start = time.perf_counter()
        if self.first_start is None:
            self.first_start = start
        failed = False
        result = None
        try:
            result = fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed = True
        self.last_end = time.perf_counter()
        self.records.append([kind, self.last_end - start, failed])
        return result

    @property
    def wall_s(self) -> float:
        """From the start of the first operation to the end of the last."""
        return self.last_end - self.first_start


# ------------------------------------------------------------------ grow

def setup_grow(lib, seed: int):
    return {"seed": seed}


GROW_CHAINS = (("nary", (3, 1), 40), ("clique", (2, 1), 60))


def pass_grow(lib, inputs, rng, ops: Ops, scratch: Path):
    seed = rng.randrange(1 << 30)
    chains = []
    for kind, (n, r), size in GROW_CHAINS:
        schedule = pregeom.GrowthSchedule(kind, pregeom.ClassParams(n, r), size, 3, seed)
        chain = ops.run(f"grow.{kind}", lib.grow, schedule)
        directory = scratch / kind
        ops.run(f"save_chain.{kind}", lib.save_chain, chain, directory)
        chains.append((size, chain, ops.run(f"load_chain.{kind}", lib.load_chain, directory)))
    return {"seed": seed, "chains": [
        {"max_size": size,
         "grown": [plain(s) for s in chain.stages] if chain else None,
         "loaded": [plain(s) for s in loaded.stages] if loaded else None}
        for size, chain, loaded in chains]}


# ------------------------------------------------------------------ queries

def setup_queries(lib, seed: int):
    nary = lib.grow(pregeom.GrowthSchedule("nary", pregeom.ClassParams(3, 1), 30, 3, seed))
    clique = lib.grow(pregeom.GrowthSchedule("clique", pregeom.ClassParams(2, 1), 40, 3, seed))
    return {"nary": nary.final, "clique": clique.final}


def _random_pattern(rng, a: O.Struct, size: int) -> O.Struct:
    """A random structure on range(size) with the parameters of `a`."""
    universe = range(size)
    if a.kind == "nary":
        rel = [tuple(rng.sample(universe, a.n))] if size >= a.n and rng.random() < 0.5 else []
    else:
        rel = []
        if rng.random() < 0.5:
            rel = [[(e,) for e in rng.sample(universe, rng.randint(a.s, size))]]
    return O.make(a.kind, a.n, a.r, universe, rel)


def _genericity_input(rng, stage: O.Struct):
    """A pair base < b, in class with the base strong in b, and a strong copy of the base in stage."""
    elems = sorted(stage.universe)
    while True:
        b = _random_pattern(rng, stage, rng.randint(2, 3))
        if not O.in_class(b):
            continue
        base = frozenset(rng.sample(sorted(b.universe), rng.randint(1, len(b.universe) - 1)))
        if not O.is_strong(b, base):
            continue
        want = O.induced(b, base)
        for _ in range(200):
            image = rng.sample(elems, len(base))
            mapping = dict(zip(sorted(base), image))
            if O.relabel(want, mapping) == O.induced(stage, image) and O.is_strong(stage, image):
                break
        else:
            continue
        fresh = iter(range(max(elems) + 1, max(elems) + 10))
        for e in sorted(b.universe - base):
            mapping[e] = next(fresh)
        return frozenset(image), O.relabel(b, mapping)


def pass_queries(lib, inputs, rng, ops: Ops, scratch: Path):
    calls = {"rank": lib.rank, "is_strong": lib.is_strong, "check_strong": lib.check_strong,
             "strong_hull": lib.strong_hull, "closure": lib.closure,
             "genericity_check": lib.genericity_check}
    todo = []
    seen = set()
    for stage_name, mix in QUERY_MIX.items():
        stage = to_oracle(inputs[stage_name])
        elems = sorted(stage.universe)
        for kind, count in mix.items():
            for _ in range(count):
                if kind == "genericity_check":
                    base, b = _genericity_input(rng, stage)
                    todo.append((stage_name, kind, base, b))
                    continue
                while True:
                    sub = frozenset(rng.sample(elems, rng.randint(1, 2 if kind == "closure" else 3)))
                    if (stage_name, kind, sub) not in seen:
                        seen.add((stage_name, kind, sub))
                        break
                todo.append((stage_name, kind, sub, None))
    rng.shuffle(todo)

    args = [(inputs[stage_name], base) + ((to_pregeom(b),) if b else ())
            for stage_name, kind, base, b in todo]
    results = [ops.run(f"{stage_name}.{kind}", calls[kind], *a)
               for (stage_name, kind, _, _), a in zip(todo, args)]

    answers = []
    for (stage_name, kind, base, b), res in zip(todo, results):
        if kind == "closure" or kind == "strong_hull":
            res = sorted(res) if res is not None else None
        elif kind == "check_strong" and res is not None:
            res = [res[0], list(res[1].violating), res[1].relative_value] if res[1] else [res[0], None, None]
        elif kind == "genericity_check":
            res = [list(p) for p in res.pairs] if res is not None else None
        answers.append({"stage": stage_name, "kind": kind, "base": sorted(base),
                        "b": O.to_plain(b) if b else None, "result": res})
    return {"stages": {name: plain(inputs[name]) for name in QUERY_MIX}, "answers": answers}


# ------------------------------------------------------------------ transfer

def _clique_extension(rng, a_c: O.Struct, stretch: int, fresh: int, isolated: int) -> O.Struct:
    """A strong clique extension of a_c: one random clique gains `stretch` new
    members, a disjoint clique of `fresh` new members appears (none if 0), and
    `isolated` new elements stand alone."""
    new = iter(range(max(a_c.universe) + 1, max(a_c.universe) + 1 + stretch + fresh + isolated))
    cliques = set(a_c.rel)
    if stretch:
        k = rng.choice(sorted(a_c.rel, key=sorted))
        cliques.remove(k)
        cliques.add(k | {(next(new),) for _ in range(stretch)})
    if fresh:
        cliques.add(frozenset((next(new),) for _ in range(fresh)))
    b_c = a_c._replace(universe=a_c.universe | set(new) | {t[0] for k in cliques for t in k},
                       rel=frozenset(cliques))
    if not O.in_class(b_c) or not O.is_strong(b_c, a_c.universe) \
            or O.induced(b_c, a_c.universe) != a_c:
        raise AssertionError("generated clique extension is not a strong extension")
    return b_c


def setup_transfer(lib, seed: int):
    rng = random.Random(seed)
    stage1 = lib.grow(pregeom.GrowthSchedule("nary", pregeom.ClassParams(4, 2), 20, 4, seed)).final
    stage2 = lib.grow(pregeom.GrowthSchedule("clique", pregeom.ClassParams(3, 2), 16, 3, seed)).final
    lift_inputs = []
    params = pregeom.ClassParams(3, 1)
    # lift time grows steeply with the input's size, so every input has the same size
    while len(lift_inputs) < LIFT_INPUTS:
        # a witness pair (x, y) relating three or four members: one reduct clique
        size = rng.randint(5, 6)
        x, y, *members = rng.sample(range(size), size)
        a = pregeom.NaryStructure.of(params, range(size), [(x, y, m) for m in members])
        while len(a.universe) < LIFT_INPUT_SIZE:
            stretch = rng.randint(0, 2)
            fresh = rng.choice((0, 3, 4)) if stretch else rng.choice((3, 4))
            b_c = _clique_extension(rng, to_oracle(lib.reduct_of(a)), stretch, fresh,
                                    int(rng.random() < 0.3))
            a, _ = lib.lift(a, to_pregeom(b_c))
        a_c = lib.reduct_of(a)
        if len(a.universe) == LIFT_INPUT_SIZE and len(a.relation) == LIFT_INPUT_TUPLES \
                and max(len(k) for k in a_c.maxcliques) <= LIFT_INPUT_MAX_CLIQUE:
            lift_inputs.append((a, a_c))
    return {"stage1": stage1, "stage2": stage2, "lift_inputs": lift_inputs}


def pass_transfer(lib, inputs, rng, ops: Ops, scratch: Path):
    todo = []
    for i in range(LIFTS_PER_PASS):
        j = i % len(inputs["lift_inputs"])
        # one shape for every timed lift: a clique gains a member, a new clique appears
        b_c = _clique_extension(rng, to_oracle(inputs["lift_inputs"][j][1]), 1, 3, 0)
        todo.append((j, to_pregeom(b_c)))

    res = ops.run("back_and_forth", lib.back_and_forth, inputs["stage1"], inputs["stage2"],
                  None, 4, 4)
    lifted = [ops.run("lift", lib.lift, inputs["lift_inputs"][j][0], b_c) for j, b_c in todo]

    out = {"bnf": None, "lift_inputs": [plain(a) for a, _ in inputs["lift_inputs"]], "lifts": []}
    if res is not None:
        out["bnf"] = {"map": [list(p) for p in res.iso.pairs],
                      "nary": plain(res.nary_stage), "clique": plain(res.clique_stage)}
    for (j, b_c), got in zip(todo, lifted):
        if got is not None:
            # the reduct is the program's own, computed outside the timed operations
            out["lifts"].append({"input": j, "extension": plain(b_c), "lifted": plain(got[0]),
                                 "reduct": plain(pregeom.reduct_of(got[0]))})
    return out


WORKLOADS = {
    "grow": (setup_grow, pass_grow),
    "queries": (setup_queries, pass_queries),
    "transfer": (setup_transfer, pass_transfer),
}
LIBRARY_CALLS = ("grow", "save_chain", "load_chain", "rank", "is_strong", "check_strong",
                 "strong_hull", "closure", "genericity_check", "reduct_of", "lift",
                 "back_and_forth")


def library(tracer):
    """The library functions the workloads call, wrapped when tracing."""
    fns = {name: getattr(pregeom, name) for name in LIBRARY_CALLS}
    if tracer is not None:
        fns = {name: tracer.wrap(fn) for name, fn in fns.items()}
    return types.SimpleNamespace(**fns)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("step", choices=("setup", "pass"))
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--trace")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    lib = library(tracer)
    setup, run_pass = WORKLOADS[args.workload]
    report = {}
    if args.step == "setup":
        inputs = setup(lib, args.seed)
        with open(args.inputs, "wb") as fh:
            pickle.dump(inputs, fh)
    else:
        with open(args.inputs, "rb") as fh:
            inputs = pickle.load(fh)
        ops = Ops()
        # string seeds hash the same way in every process
        rng = random.Random(f"{args.workload}:{args.seed}:{args.index}")
        scratch = Path(tempfile.mkdtemp(prefix="pass-", dir=Path(args.inputs).parent))
        try:
            output = run_pass(lib, inputs, rng, ops, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        report.update(wall_s=ops.wall_s, ops=ops.records, output=output,
                      rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.write(args.trace)
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
