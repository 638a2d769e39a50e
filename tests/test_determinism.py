"""Determinism and reproducibility checks across process boundaries.

The CLI contract promises identical output for identical inputs and seeds;
frozenset iteration order and hash randomisation must never leak into
results.
"""

import hashlib
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from pregeom import (ClassParams, GrowthSchedule, NaryStructure, grow, lift,
                     reduct_of, save_chain, undefinability_pair)
from pregeom.structfile import serialize

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent("""
    from pregeom import ClassParams, GrowthSchedule, grow
    from pregeom.structfile import serialize
    chain = grow(GrowthSchedule("nary", ClassParams(3, 1), 15, 3, 2))
    print(serialize(chain.final))
    for rec in chain.log:
        print(rec.step, rec.base_ids, sorted(rec.mapping))
""")


def _child_env(**extra):
    """A minimal environment that imports pregeom from this checkout's src."""
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(ROOT / "src"), **extra}


def run_in_subprocess(script, hash_seed):
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True,
                         env=_child_env(PYTHONHASHSEED=str(hash_seed)), cwd=ROOT)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_grow_identical_across_hash_seeds():
    runs = {run_in_subprocess(SCRIPT, seed) for seed in (0, 1, 12345)}
    assert len(runs) == 1


def test_reduct_and_lift_stable_across_hash_seeds():
    script = textwrap.dedent("""
        from pregeom import ClassParams, NaryStructure, CliqueStructure, lift, reduct_of
        from pregeom.structfile import serialize
        p = ClassParams(3, 1)
        m = NaryStructure.of(p, range(5), [(3, 4, 0), (3, 4, 1), (3, 4, 2)])
        b = CliqueStructure.of(p, range(9), [[(0,), (1,), (2,), (5,)], [(6,), (7,), (8,)]])
        lifted, report = lift(m, b)
        print(serialize(reduct_of(m)))
        print(serialize(lifted))
        print(report.lines())
    """)
    runs = {run_in_subprocess(script, seed) for seed in (0, 7)}
    assert len(runs) == 1


def test_cli_selftest_wiring():
    out = subprocess.run([sys.executable, "-m", "pregeom.cli", "--help"],
                         capture_output=True, text=True,
                         env=_child_env(), cwd=ROOT)
    assert out.returncode == 0
    for cmd in ("validate", "predim", "strong", "class", "closure", "rank", "pg",
                "amalgam", "grow", "reduct", "reduct-within", "lift", "nondef",
                "gadget", "compare-pg", "bnf", "selftest"):
        assert cmd in out.stdout


def test_env_cap_ignored_end_to_end(tmp_path):
    # the rank-table limit is a constant: PREGEOM_MAX_GROUND neither raises nor lowers it
    def pg(size, cap):
        path = tmp_path / f"free{size}.txt"
        path.write_text(serialize(NaryStructure.of(ClassParams(3, 1), range(size), [])))
        return subprocess.run([sys.executable, "-m", "pregeom.cli", "pg", str(path)],
                              capture_output=True, text=True,
                              env=_child_env(PREGEOM_MAX_GROUND=cap), cwd=ROOT)

    out = pg(19, "30")
    assert out.returncode == 1
    assert "above the cap 18" in out.stderr
    # exit 1 must come from the CLI's DomainError handler, not a failed import
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr
    out = pg(7, "5")
    assert out.returncode == 0, out.stderr


def test_undefinability_pair_with_clique_seed():
    # a seed that already carries a related family: the fresh tuple must not
    # disturb it, and the reducts must stay equal
    seed = NaryStructure.of(ClassParams(3, 1), range(5),
                            [(3, 4, 0), (3, 4, 1), (3, 4, 2)])
    plain, related = undefinability_pair(seed)
    r = reduct_of(plain)
    assert r == reduct_of(related)
    assert frozenset({(0,), (1,), (2,)}) in r.maxcliques


def chain_digest(directory: Path) -> str:
    """sha256 over every file `save_chain` wrote, each as its relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# saved chains (extension bound 3), recorded before the embedding search pruned
# clique maps; grow picks embeddings by list position, so a search that changed
# their order or set would change these bytes
CHAIN_DIGESTS = {
    ("clique", 2, 1, 60, 1): "7da89f6aec78b206a1cac7eb9d0e8fc4dd624bc238cbd349492fd51b894b4ab2",
    ("clique", 2, 1, 60, 2): "0487a2a28854ce8222ceaa5137c852f92d8a48e869a1725b4d0ff168494a1ea5",
    ("clique", 2, 1, 60, 3): "64645e5c23daf540b43da7290179e8a1631e8d0b52cadc916181f96d796bd854",
    ("nary", 3, 1, 40, 1): "741b8c9fe48999b11896e4ac4df6018bf28c0fa445db31c5cddbdea598ff61bc",
    ("nary", 3, 1, 40, 2): "cfbbd8ead3559c3fde2ec3453b2f34d64fe62dfa2174bef8e60ccac4276a1f83",
    ("nary", 3, 1, 40, 3): "3cdf3c10301839518f8c46218ae055716b9491d0111032c6661b3327d02ab7ed",
}


@pytest.mark.parametrize("kind,n,r,size,seed", sorted(CHAIN_DIGESTS),
                         ids=lambda v: str(v))
def test_grown_chain_bytes_pinned(tmp_path, kind, n, r, size, seed):
    chain = grow(GrowthSchedule(kind, ClassParams(n, r), size, 3, seed))
    save_chain(chain, tmp_path)
    assert chain_digest(tmp_path) == CHAIN_DIGESTS[kind, n, r, size, seed]
