"""The pregeom benchmark: one workload per invocation, run from the root of a checkout.

    python3 perfbench/run.py --workload grow|queries|transfer --seed N --seconds T --trace 0|1

pregeom is imported from `<current directory>/src` by absolute path, so the
same benchmark files can measure any checkout: run them from its root.
Every setup and every pass runs in a fresh single-threaded Python process
(`worker.py`), so no memory or library cache carries over.  Outputs are
checked with `oracle.py`, which does not import pregeom.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and the
metrics named in BENCHMARK.json (end-to-end ones, or per-layer ones with
`--trace 1`).  Progress and the operation mix go to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def latencies(workload: str, passes: list[dict]) -> list[float]:
    """Sorted latencies in ms of the workload's latency operation: every query;
    one lift; on grow, one pass's tuple chain (grow, save and reload)."""
    if workload == "grow":
        return sorted(1e3 * sum(secs for kind, secs, _ in p["ops"] if kind.endswith(".nary"))
                      for p in passes)
    return sorted(1e3 * secs for p in passes for kind, secs, _ in p["ops"]
                  if workload == "queries" or kind == "lift")


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def tail(sorted_values: list) -> float:
    """The 99th percentile (nearest rank), but never with fewer than ten samples
    beyond it; with fewer than 40 samples there is no tail, so the median."""
    n = len(sorted_values)
    if n < 40:
        return statistics.median(sorted_values)
    return sorted_values[min(math.ceil(0.99 * n), n - 10) - 1]


class Runner:
    """Starts the worker processes of one run, in a scratch directory of its own."""

    def __init__(self, checkout: Path, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.checkout = checkout
        self.out = HERE / "out"
        self.scratch = self.out / f"run-{workload}-{seed}-{os.getpid()}"
        self.scratch.mkdir(parents=True)
        self.inputs = self.scratch / "inputs.pkl"
        self.env = {"PATH": os.environ.get("PATH", ""), "PYTHONHASHSEED": "0",
                    "PYTHONPATH": str(checkout / "src")}

    def worker(self, step: str, index: int = 0, trace: str | None = None):
        """Run one worker step; returns (wall seconds including interpreter start, report)."""
        cmd = [sys.executable, str(HERE / "worker.py"), step, self.workload,
               "--inputs", str(self.inputs), "--seed", str(self.seed), "--index", str(index)]
        if trace:
            cmd += ["--trace", trace]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.checkout, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {step} {self.workload} exited with {proc.returncode}")
        return wall, json.loads(proc.stdout)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def check(workload: str, passes: list[dict]) -> list[str]:
    problems = []
    checked_bnf: dict = {}
    for p in passes:
        if workload == "grow":
            problems += checks.check_grow(p["output"])
        elif workload == "queries":
            problems += checks.check_queries(p["output"])
        else:
            problems += checks.check_transfer(p["output"], checked_bnf)
    return problems


def describe_mix(passes: list[dict], p50: float, p99: float) -> None:
    """Log each operation kind's share and latency range, and where the percentiles fall."""
    by_kind = defaultdict(list)
    for p in passes:
        for kind, secs, _ in p["ops"]:
            by_kind[kind].append(secs * 1e3)
    total = sum(len(v) for v in by_kind.values())
    for kind, lat in sorted(by_kind.items()):
        lat.sort()
        log(f"  {kind:28s} {len(lat):5d} ops {100 * len(lat) / total:5.1f} %  "
            f"min {lat[0]:9.2f}  median {statistics.median(lat):9.2f}  max {lat[-1]:9.2f} ms  "
            f"below p50 {100 * sum(x < p50 for x in lat) / len(lat):5.1f} %  "
            f"below p99 {100 * sum(x < p99 for x in lat) / len(lat):5.1f} %")


def timed_run(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    setup_walls = []
    for _ in range(SETUP_REPEATS):
        wall, _ = runner.worker("setup")
        setup_walls.append(wall)
    log(f"setup: {', '.join(f'{w:.3f}' for w in setup_walls)} s")

    # whole passes, each in a fresh process, while the next one still fits
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while not passes or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        passes.append(runner.worker("pass", index=len(passes))[1])
        longest = max(longest, time.perf_counter() - t0)
        log(f"pass {len(passes) - 1}: {passes[-1]['wall_s']:.3f} s")

    lat = latencies(runner.workload, passes)
    p50, p99 = statistics.median(lat), tail(lat)
    log(f"{len(lat)} latency samples; operation mix:")
    describe_mix(passes, p50, p99)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "pass_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": p50,
        "op_p99_ms": p99,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return metrics, passes


def traced_run(runner: Runner) -> tuple[dict, list[dict]]:
    """Setup and the first pass under tracing, plus the same pass untraced for the overhead."""
    stem = runner.out / f"trace-{runner.workload}-{runner.seed}"
    _, setup = runner.worker("setup", trace=f"{stem}-setup.jsonl")
    _, plain_pass = runner.worker("pass", index=0)
    _, traced_pass = runner.worker("pass", index=0, trace=f"{stem}-pass.jsonl")
    merged: dict = defaultdict(lambda: defaultdict(float))
    for part in (setup["trace"], traced_pass["trace"]):
        for name, stats in part.items():
            for stat, value in stats.items():
                merged[name][stat] += value
    metrics = {}
    for name, stats in merged.items():
        calls = stats.get("calls", 0)
        metrics[f"{name}.calls"] = int(calls)
        metrics[f"{name}.yields"] = int(stats.get("yields", 0))
        metrics[f"{name}.self_s"] = stats.get("self_s", 0.0)
        metrics[f"{name}.strong_ratio"] = stats.get("true", 0) / calls if calls else 0.0
    metrics["trace.pass.untraced_s"] = plain_pass["wall_s"]
    metrics["trace.pass.traced_s"] = traced_pass["wall_s"]
    metrics["trace.pass.overhead_ratio"] = traced_pass["wall_s"] / plain_pass["wall_s"] - 1
    return metrics, [plain_pass, traced_pass]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("grow", "queries", "transfer"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    checkout = Path.cwd().resolve()
    if not (checkout / "src" / "pregeom" / "__init__.py").is_file():
        log(f"error: {checkout} has no src/pregeom; run from the root of a pregeom checkout")
        return 2
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = manifest["per_layer" if args.trace else "end_to_end"]

    runner = Runner(checkout, args.workload, args.seed)
    try:
        if args.trace:
            measured, passes = traced_run(runner)
        else:
            measured, passes = timed_run(runner, args.seconds)
    finally:
        runner.close()

    problems = check(args.workload, passes)
    for problem in problems[:20]:
        log("INCORRECT:", problem)
    ops = [op for p in passes for op in p["ops"]]
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op[2]),
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
