"""Each workload check passes the program's real outputs and rejects corrupted ones."""

import copy
import itertools

import pregeom
from pregeom import ClassParams, GrowthSchedule

import checks
import oracle as O
import worker


def grow_output(tmp_path):
    chain = pregeom.grow(GrowthSchedule("nary", ClassParams(3, 1), 18, 3, 0))
    pregeom.save_chain(chain, tmp_path)
    loaded = pregeom.load_chain(tmp_path)
    return {"seed": 0, "chains": [{"max_size": 18,
                                   "grown": [worker.plain(s) for s in chain.stages],
                                   "loaded": [worker.plain(s) for s in loaded.stages]}]}


def test_grow_check_rejects_a_tuple_that_breaks_the_class(tmp_path):
    out = grow_output(tmp_path)
    assert checks.check_grow(out) == []
    final = O.from_plain(out["chains"][0]["grown"][-1])
    breaking = next(t for t in itertools.permutations(sorted(final.universe), 3)
                    if not O.in_class(final._replace(rel=final.rel | {t})))
    for side in ("grown", "loaded"):
        out["chains"][0][side][-1]["rel"].append(list(breaking))
    assert any("not in its class" in p for p in checks.check_grow(out))


def test_grow_check_rejects_a_reload_that_differs(tmp_path):
    out = grow_output(tmp_path)
    out["chains"][0]["loaded"][3] = out["chains"][0]["loaded"][2]
    assert any("reloaded" in p for p in checks.check_grow(out))


def query_output():
    stage = pregeom.grow(GrowthSchedule("nary", ClassParams(3, 1), 20, 3, 1)).final
    answers = []
    for base in ([0], [1, 2], [3, 5, 7]):
        answers.append({"stage": "nary", "kind": "rank", "base": base, "b": None,
                        "result": pregeom.rank(stage, base)})
        ok, witness = pregeom.check_strong(stage, base)
        answers.append({"stage": "nary", "kind": "check_strong", "base": base, "b": None,
                        "result": [ok, list(witness.violating), witness.relative_value]
                        if witness else [ok, None, None]})
        answers.append({"stage": "nary", "kind": "strong_hull", "base": base, "b": None,
                        "result": sorted(pregeom.strong_hull(stage, base))})
    return {"stages": {"nary": worker.plain(stage)}, "answers": answers}


def test_query_check_rejects_a_rank_off_by_one():
    out = query_output()
    assert checks.check_queries(out) == []
    for delta in (1, -1):
        bad = copy.deepcopy(out)
        bad["answers"][0]["result"] += delta
        assert len(checks.check_queries(bad)) == 1


def test_query_check_rejects_a_wrong_strong_hull():
    out = query_output()
    # the whole universe is strong, but its predimension is not the base's rank
    out["answers"][2]["result"] = out["stages"]["nary"]["universe"]
    assert len(checks.check_queries(out)) == 1


def test_back_and_forth_check_rejects_two_swapped_images():
    nary = O.make("nary", 4, 2, range(6), [(0, 1, 2, 3)])
    clique = O.make("clique", 3, 2, range(6), [[(0, 1), (2, 3)]])
    bnf = {"map": [[e, e] for e in range(6)], "nary": O.to_plain(nary), "clique": O.to_plain(clique)}
    assert checks.check_back_and_forth(bnf) == []
    bnf["map"][0][1], bnf["map"][4][1] = 4, 0
    assert checks.check_back_and_forth(bnf) != []


def test_lift_check_rejects_a_reduct_missing_a_clique():
    params = ClassParams(3, 1)
    a = pregeom.NaryStructure.of(params, range(5), [(3, 4, 0), (3, 4, 1), (3, 4, 2)])
    a_c = O.make("clique", 3, 1, range(5), [[(0,), (1,), (2,)]])
    b_c = O.make("clique", 3, 1, range(9), [[(0,), (1,), (2,), (5,)], [(6,), (7,), (8,)]])
    lifted, _ = pregeom.lift(a, worker.to_pregeom(b_c))
    reduct = worker.to_oracle(pregeom.reduct_of(lifted))
    args = (worker.to_oracle(a), b_c, worker.to_oracle(lifted))
    assert O.to_plain(a_c) == worker.plain(pregeom.reduct_of(a))
    assert checks.check_lift(*args, reduct) == []
    for k in reduct.rel:
        assert checks.check_lift(*args, reduct._replace(rel=reduct.rel - {k})) != []
