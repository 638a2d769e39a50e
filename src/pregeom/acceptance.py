"""The acceptance suite: thirteen criteria with pinned parameters and seeds.

Each criterion returns (ok, detail).  `run` prints one line per criterion.
The quick level shrinks instance counts for a fast smoke run; the full level
is the one the test suite enforces.

Where a criterion says "exhaustive" over a family whose literal enumeration
is astronomically large (all arity-3 relation sets on five points is 2^60),
the family is exhausted under a stated relation-count cap and topped up with
seeded random instances; the caps are recorded in the detail strings.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Callable

from .amalgam import standard_amalgam
from .errors import DomainError
from .gen import (random_clique_in_class, random_nary,
                  random_nary_in_class, random_subset)
from .generic import (GrowthSchedule, enumerate_clique_structures,
                      enumerate_nary_structures, enumerate_structures,
                      genericity_check, grow)
from .geometry import (anchor_choices, back_and_forth, clique_to_nary,
                       is_good_set, nary_to_clique, remove_pathologies)
from .predimension import (_evaluator, check_strong, in_class, is_strong,
                           predim_rel, strong_hull)
from .oracles import (naive_closure, naive_is_strong, naive_min_over, naive_predim,
                      naive_strong_hull, subsets)
from .pregeometry import (_predim_table, closure, pregeometry_of,
                          rank_table_of, same_pregeometry)
from .reduct import lift, reduct_of, reduct_within, undefinability_pair
from .structures import (CliqueStructure, ClassParams, NaryStructure,
                         induced, induced_clique, induced_nary, relabel,
                         validate)

P31 = ClassParams(3, 1)
P21 = ClassParams(2, 1)
P42 = ClassParams(4, 2)
P32 = ClassParams(3, 2)


# ------------------------------------------------------------- criterion 1

def criterion_01_lambda_submodular(level: str):
    """Exhaustive clique-predimension submodularity at r=1, s=2, universes up to 5."""
    start = time.perf_counter()
    checked = structures = 0
    for size in range(6):
        for a in enumerate_clique_structures(P21, size, in_class_only=False,
                                             up_to_iso=False):
            table = _predim_table(_evaluator(a))
            structures += 1
            full = len(table)
            for x in range(full):
                for y in range(full):
                    if table[x | y] + table[x & y] > table[x] + table[y]:
                        return False, f"violation in structure {a}"
                    checked += 1
    took = time.perf_counter() - start
    return took < 60, (f"{structures} structures, {checked} subset pairs, "
                       f"{took:.1f}s (target <60s)")


# ------------------------------------------------------------- criterion 2

def _labeled_nary(size, max_rel):
    pool = sorted(itertools.permutations(range(size), 3)) if size >= 3 else []
    for k in range(min(max_rel, len(pool)) + 1):
        for rel in itertools.combinations(pool, k):
            yield NaryStructure(P31, frozenset(range(size)), frozenset(rel))


def _interval_min(table, lo, hi):
    best = None
    free = hi & ~lo
    sub = free
    while True:
        v = table[lo | sub]
        if best is None or v < best:
            best = v
        if sub == 0:
            break
        sub = (sub - 1) & free
    return best


def criterion_02_delta_submodular_transitive(level: str):
    """Tuple-predimension submodularity and transitivity of self-sufficiency at n=3."""
    rng = random.Random(2)
    randoms = 1000 if level == "full" else 60
    checked = 0
    # exhaustive over universes <= 4 with any relation set of size <= 4, and
    # size 5 capped at two tuples (the uncapped size-5 family has 2^60 members)
    families = [(_labeled_nary(size, 4), None) for size in range(5)]
    families.append((_labeled_nary(5, 2), None))
    random_pool = []
    for _ in range(randoms):
        random_pool.append(random_nary(rng, P31, 10, max_relations=12))
    families.append((iter(random_pool), 500))

    for structs, pair_cap in families:
        for a in structs:
            table = _predim_table(_evaluator(a))
            full = len(table)
            if pair_cap is None or full * full <= 4 * pair_cap:
                pairs = ((x, y) for x in range(full) for y in range(full))
            else:
                pairs = ((rng.randrange(full), rng.randrange(full))
                         for _ in range(pair_cap))
            for x, y in pairs:
                if table[x | y] + table[x & y] > table[x] + table[y]:
                    return False, f"submodularity violation in {a}"
                checked += 1
            # transitivity of self-sufficiency over nested subsets
            nbits = full.bit_length() - 1
            if nbits <= 4:
                triples = ((a_, b_, c_) for a_ in range(full) for b_ in range(full)
                           for c_ in range(full)
                           if a_ & b_ == a_ and b_ & c_ == b_)
            else:
                def sampled():
                    for _ in range(60):
                        c_ = rng.randrange(full)
                        b_ = rng.randrange(full) & c_
                        a_ = rng.randrange(full) & b_
                        yield a_, b_, c_
                triples = sampled()
            for a_, b_, c_ in triples:
                if (_interval_min(table, a_, b_) >= table[a_]
                        and _interval_min(table, b_, c_) >= table[b_]
                        and _interval_min(table, a_, c_) < table[a_]):
                    return False, f"transitivity violation in {a}"
                checked += 1
    return True, (f"{checked} checks; exhaustive to size 4 (size 5 capped at "
                  f"2 tuples), {randoms} random instances to size 10")


# ------------------------------------------------------------- criterion 3

def _axiom_check(a) -> str:
    table = rank_table_of(a)
    n = len(a.universe)
    full = 1 << n

    def cl(mask):
        r = table[mask]
        out = mask
        for i in range(n):
            if not mask >> i & 1 and table[mask | (1 << i)] == r:
                out |= 1 << i
        return out

    for m in range(full):
        rm = table[m]
        if not 0 <= rm <= bin(m).count("1"):
            return f"rank range violation at {m:b}"
        for i in range(n):
            if m >> i & 1:
                continue
            ri = table[m | (1 << i)]
            if not rm <= ri <= rm + 1:
                return f"unit increase violation at {m:b}+{i}"
            for j in range(i + 1, n):
                if m >> j & 1:
                    continue
                rj = table[m | (1 << j)]
                rij = table[m | (1 << i) | (1 << j)]
                if rij + rm > ri + rj:
                    return f"submodularity violation at {m:b}"
    closures = [cl(m) for m in range(full)]
    for m in range(full):
        cm = closures[m]
        if cm & m != m:
            return "closure not extensive"
        if closures[cm] != cm:
            return "closure not idempotent"
        for i in range(n):
            if not m >> i & 1:
                if closures[m | (1 << i)] & cm != cm:
                    return "closure not monotone"
        for x in range(n):
            if cm >> x & 1 or m >> x & 1:
                continue
            for y in range(n):
                if y == x or m >> y & 1:
                    continue
                if closures[m | (1 << y)] >> x & 1 and not cm >> x & 1:
                    if not closures[m | (1 << x)] >> y & 1:
                        return f"exchange violation at {m:b} with {x},{y}"
    return ""


def criterion_03_pregeometry_axioms(level: str):
    """Closure and matroid rank axioms on in-class structures of both kinds."""
    rng = random.Random(3)
    fill = (80, 50) if level == "full" else (10, 8)
    structures = []
    for size in range(5):
        structures += list(enumerate_nary_structures(P31, size))
    # adding elements can lower predim; keep one structure of that shape
    structures.append(NaryStructure.of(P31, range(4), [(2, 0, 1), (2, 1, 0)]))
    for _ in range(fill[0]):
        structures.append(random_nary_in_class(rng, P31, 6, min_size=5))
    for size in range(6):
        structures += list(enumerate_clique_structures(P21, size))
    for _ in range(fill[1]):
        structures.append(random_clique_in_class(rng, P21, 6, min_size=5))
    for a in structures:
        msg = _axiom_check(a)
        if msg:
            return False, f"{msg} in {a}"
    return True, (f"{len(structures)} structures (exhaustive to size 4 tuple side "
                  f"under the class relation cap, size 5 clique side; seeded fill to 6)")


# ------------------------------------------------------------- criterion 4

def criterion_04_reduct_in_class(level: str):
    """Reducts of tuple-class members are clique-class members."""
    rng = random.Random(4)
    randoms = 500 if level == "full" else 40
    count = 0
    for size in range(5):
        for a in enumerate_nary_structures(P31, size):
            if not in_class(reduct_of(a)):
                return False, f"reduct escaped the class for {a}"
            count += 1
    for _ in range(randoms):
        a = random_nary_in_class(rng, P31, 9, min_size=5)
        if not in_class(reduct_of(a)):
            return False, f"reduct escaped the class for {a}"
        count += 1
    return True, f"{count} structures (exhaustive to size 4, {randoms} random to size 9)"


# ------------------------------------------------------------- criterion 5

def criterion_05_reduct_restriction(level: str):
    """The ambient reduct traces to the reduct of the substructure."""
    want = 100 if level == "full" else 12
    rng = random.Random(5)
    stages = [grow(GrowthSchedule("nary", P31, 18, 3, s)).final for s in (0, 1)]
    done = 0
    while done < want:
        stage = stages[done % len(stages)]
        sub = strong_hull(stage, random_subset(rng, stage.universe, max_take=4))
        got = reduct_within(stage, sub)  # raises on disagreement
        if got != reduct_of(induced_nary(stage, sub)):
            return False, f"trace mismatch on {sorted(sub)}"
        done += 1
    # grown stages of this size have empty reducts; lifts realise clique extensions
    lifted = with_cliques = 0
    while lifted < want:
        a, b_c = _lift_input(rng)
        m, _ = lift(a, b_c)
        hull = strong_hull(m, random_subset(rng, m.universe, max_take=4))
        for sub in (m.universe, a.universe, hull):
            got = reduct_within(m, sub)  # raises on disagreement
            if got != reduct_of(induced_nary(m, sub)):
                return False, f"trace mismatch on {sorted(sub)} of a lifted structure"
            with_cliques += bool(got.maxcliques)
        lifted += 1
    if not with_cliques:
        return False, "no checked subset of a lifted structure has a reduct clique"
    return True, (f"{done} grown-stage and {3 * lifted} lifted-structure strong subsets "
                  f"({with_cliques} with reduct cliques), bit-exact equality")


# ------------------------------------------------------------- criterion 6

def _random_clique_extension(rng, a_c):
    """A strong clique extension of a_c: disjoint cliques, sometimes a stretched one."""
    base = max(a_c.universe, default=-1) + 1
    cliques = set(a_c.maxcliques)
    universe = set(a_c.universe)
    if a_c.maxcliques and rng.random() < 0.5:
        stretched = rng.choice(sorted(a_c.maxcliques, key=sorted))
        extra = [(base + i,) for i in range(rng.randint(1, 2))]
        cliques.remove(stretched)
        cliques.add(stretched | frozenset(extra))
        universe.update(e for t in extra for e in t)
        base += len(extra)
    if rng.random() < 0.8:
        size = rng.randint(a_c.params.s, a_c.params.s + 1)
        fresh = [(base + i,) for i in range(size)]
        cliques.add(frozenset(fresh))
        universe.update(e for t in fresh for e in t)
    if rng.random() < 0.4:
        universe.add(max(universe, default=-1) + 1)
    return CliqueStructure(a_c.params, frozenset(universe), frozenset(cliques))


def _lift_input(rng):
    """A random in-class tuple (3,1) structure and a strong clique extension of its reduct."""
    while True:
        a = random_nary_in_class(rng, P31, 5)
        a_c = reduct_of(a)
        b_c = _random_clique_extension(rng, a_c)
        if validate(b_c) or not in_class(b_c):
            continue
        if induced_clique(b_c, a.universe) != a_c or not is_strong(b_c, a.universe):
            continue
        return a, b_c


def criterion_06_lift(level: str):
    """Lifted extensions keep the base strong and induce the clique extension."""
    want = 100 if level == "full" else 12
    rng = random.Random(6)
    done = 0
    while done < want:
        a, b_c = _lift_input(rng)
        lifted, _ = lift(a, b_c)  # asserts its postconditions
        if not is_strong(lifted, a.universe):
            return False, "base not strong in lift"
        if induced_clique(reduct_of(lifted), b_c.universe) != b_c:
            return False, "lift reduct does not induce the extension"
        done += 1
    return True, f"{done} hypothesis pairs, all postconditions hold"


# ------------------------------------------------------------- criterion 7

def criterion_07_undefinability(level: str):
    """Strong non-isomorphic extensions with identical reducts exist over any seed."""
    want = 50 if level == "full" else 8
    rng = random.Random(7)
    for i in range(want):
        f = random_nary_in_class(rng, P31, 5)
        plain, related = undefinability_pair(f)  # asserts the full bundle
        if reduct_of(plain) != reduct_of(related):
            return False, f"reducts differ for seed {i}"
    return True, f"{want} seeds, full assertion bundle holds"


# ------------------------------------------------------------- criterion 8

def criterion_08_remove_pathologies(level: str):
    """Closed-set families of the two pathology-free companions coincide."""
    want = 50 if level == "full" else 8
    rng = random.Random(8)
    done = 0
    while done < want:
        b = random_nary_in_class(rng, P42, 5)
        if not 0 <= len(b.relation) <= 2:
            continue
        a = induced_nary(b, strong_hull(b, random_subset(rng, b.universe, 2)))
        c, d, _ = remove_pathologies(a, b)
        if len(c.universe) > 9:
            continue
        pc, pd = pregeometry_of(c), pregeometry_of(d)
        for x in subsets(c.universe):
            if pc.is_closed(x) != pd.is_closed(x):
                return False, f"closed-set mismatch at {sorted(x)}"
        done += 1
    return True, f"{done} pairs at arity 4, universes up to 9, families identical"


# ------------------------------------------------------------- criterion 9

def criterion_09_standard_amalgam_identity(level: str):
    """predim(amalgam / factor) equals predim(other factor / base), exhaustively."""
    factors = []
    for size in range(4):
        factors += [a for a in enumerate_clique_structures(P21, size,
                                                           in_class_only=True,
                                                           up_to_iso=False)]
    checked = 0
    for a1 in factors:
        for a2_raw in factors:
            for k in range(min(len(a1.universe), len(a2_raw.universe)) + 1):
                base = frozenset(range(k))
                if not base <= a1.universe:
                    continue
                mapping = {e: e if e in base else e + 100 for e in a2_raw.universe}
                a2 = relabel(a2_raw, mapping)
                if a1.universe & a2.universe != base:
                    continue
                if induced(a1, base) != induced(a2, base):
                    continue
                try:
                    d = standard_amalgam(a1, a2, base)
                except DomainError:
                    continue
                lhs = predim_rel(d, d.universe, a1.universe)
                rhs = predim_rel(d, a2.universe, base)
                if lhs != rhs:
                    return False, f"identity fails: {lhs} != {rhs}"
                checked += 1
    return True, f"{checked} amalgam triples (factors exhaustive to size 3), exact equality"


# ------------------------------------------------------------ criterion 10

def criterion_10_transfer_correspondence(level: str):
    """Relative-predimension correspondence in both transfer directions."""
    want = 50 if level == "full" else 8
    rng = random.Random(10)
    done = 0
    while done < want:  # tuple side to clique side, every subset
        b = random_nary_in_class(rng, P42, 5)
        if not 1 <= len(b.relation) <= 2:
            continue
        a = induced_nary(b, strong_hull(b, random_subset(rng, b.universe, 2)))
        members = [frozenset((t[0:2], t[2:4])) for t in sorted(a.relation)]
        a_c = CliqueStructure.of(P32, a.universe, members)
        if validate(a_c) or not in_class(a_c):
            continue
        try:
            d, c_c, _ = nary_to_clique(a, a_c, b)
        except DomainError:
            continue
        if len(d.universe) > 8:
            continue
        for x in subsets(d.universe):
            if predim_rel(c_c, x, x & a.universe) != predim_rel(d, x, x & a.universe):
                return False, f"forward correspondence fails at {sorted(x)}"
        done += 1

    empty_c = CliqueStructure.of(P21, [], [])
    empty_n = NaryStructure.of(P21, [], [])
    done_back = 0
    while done_back < want:  # clique side to tuple side, every good subset
        a_c = random_clique_in_class(rng, P21, 4)
        a_rs, _ = clique_to_nary(empty_c, empty_n, a_c)
        b_c = _random_clique_extension(rng, a_c)
        if len(b_c.universe) > 8 or validate(b_c) or not in_class(b_c):
            continue
        if induced_clique(b_c, a_c.universe) != a_c or not is_strong(b_c, a_c.universe):
            continue
        b_rs, _ = clique_to_nary(a_c, a_rs, b_c)
        anchors = anchor_choices(a_c, b_c)
        for x in subsets(b_c.universe):
            if not is_good_set(x, b_c, anchors):
                continue
            if predim_rel(b_c, x, x & a_c.universe) != predim_rel(b_rs, x, x & a_c.universe):
                return False, f"backward correspondence fails at {sorted(x)}"
        done_back += 1
    return True, f"{done} forward and {done_back} backward instances, exact equality"


# ------------------------------------------------------------ criterion 11

def criterion_11_genericity(level: str):
    """A grown stage realises every extension type of size up to 3 strongly."""
    nary_stage = grow(GrowthSchedule("nary", P31, 40, 3, 0)).final
    clique_stage = grow(GrowthSchedule("clique", P21, 40, 3, 0)).final
    missing = []
    for kind, params, stage in (("nary", P31, nary_stage),
                                ("clique", P21, clique_stage)):
        for size in (1, 2, 3):
            for b in enumerate_structures(kind, params, size):
                if genericity_check(stage, (), b) is None:
                    missing.append((kind, b))
    if missing:
        return False, f"{len(missing)} extension types unrealised: {missing[:3]}"
    return True, "all types of size <=3 strongly embedded in both 40-element stages"


# ------------------------------------------------------------ criterion 12

def criterion_12_back_and_forth(level: str):
    """Four alternating rounds produce a rank-preserving map of domain at least 6."""
    start = time.perf_counter()
    st1 = grow(GrowthSchedule("nary", P42, 20, 4, 0)).final
    st2 = grow(GrowthSchedule("clique", P32, 16, 3, 0)).final
    res = back_and_forth(st1, st2, None, rounds=4, ext_bound=4)
    if len(res.iso.domain) < 6:
        return False, f"domain size {len(res.iso.domain)} < 6"
    # independent verification: pull the clique stage back along the map and
    # compare full rank tables
    back = {v: k for k, v in res.iso.mapping.items()}
    pulled = relabel(res.clique_stage, back)
    if not same_pregeometry(res.nary_stage, pulled):
        return False, "rank tables differ after pulling back"
    took = time.perf_counter() - start
    return took < 300, f"domain {len(res.iso.domain)}, rank tables equal, {took:.1f}s (target <300s)"


# ------------------------------------------------------------ criterion 13

def criterion_13_oracle_equivalence(level: str):
    """Self-sufficiency, its witness and closure agree with plain enumeration.

    `check_strong` takes its verdict and its witness, the strong hull, from
    the branch-and-bound (`predimension._least_minimiser`); `closure` comes
    from the unit-placement flow (`predimension._placement`).
    """
    want = 1000 if level == "full" else 60
    rng = random.Random(13)
    for i in range(want):
        lo = 6 if i % 4 >= 2 else 0  # half the instances use large universes
        if i % 2 == 0:
            a = random_nary_in_class(rng, P31, 10, min_size=lo)
        else:
            a = random_clique_in_class(rng, P21, 10, min_size=lo)
        base = random_subset(rng, a.universe)
        got_strong, witness = check_strong(a, base)
        if got_strong != naive_is_strong(a, base):
            return False, f"strongness mismatch on instance {i}"
        if not got_strong and (
                witness.violating != tuple(sorted(naive_strong_hull(a, base)))
                or witness.relative_value != naive_min_over(a, base) - naive_predim(a, base)):
            return False, f"witness mismatch on instance {i}"
        if closure(a, base) != naive_closure(a, base):
            return False, f"closure mismatch on instance {i}"
    return True, f"{want} random instances to size 10, exact agreement"


CRITERIA: list[tuple[str, Callable[[str], tuple[bool, str]]]] = [
    ("01 clique-predimension submodularity", criterion_01_lambda_submodular),
    ("02 tuple-predimension submodularity and transitivity", criterion_02_delta_submodular_transitive),
    ("03 pregeometry axioms", criterion_03_pregeometry_axioms),
    ("04 reducts stay in class", criterion_04_reduct_in_class),
    ("05 reduct restriction equality", criterion_05_reduct_restriction),
    ("06 lift postconditions", criterion_06_lift),
    ("07 undefinability pairs", criterion_07_undefinability),
    ("08 pathology removal closed sets", criterion_08_remove_pathologies),
    ("09 standard amalgam identity", criterion_09_standard_amalgam_identity),
    ("10 transfer correspondences", criterion_10_transfer_correspondence),
    ("11 finite-scale genericity", criterion_11_genericity),
    ("12 back-and-forth rank preservation", criterion_12_back_and_forth),
    ("13 oracle equivalence", criterion_13_oracle_equivalence),
]


def run(level: str = "full", out=print) -> bool:
    all_ok = True
    for name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            ok, detail = fn(level)
        except Exception as exc:  # a crashed criterion is a failed criterion
            ok, detail = False, f"crashed: {exc!r}"
        all_ok &= ok
        out(f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{time.perf_counter() - t0:.1f}s]")
    return all_ok
