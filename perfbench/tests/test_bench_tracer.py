"""The tracer's span arithmetic, and call counts that repeat across processes."""

import json
import os
import subprocess
import sys
from pathlib import Path

from tracer import Tracer

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"


def test_self_time_excludes_child_spans_and_generators_count_yields():
    tracer = Tracer()

    def inner(x):
        return x > 0

    def numbers(k):
        for i in range(k):
            yield traced_inner(i)

    traced_inner = tracer.wrap(inner)
    traced_numbers = tracer.wrap(numbers)

    def outer():
        return [traced_inner(1), traced_inner(-1)] + list(traced_numbers(3))

    assert tracer.wrap(outer)() == [True, False, False, True, True]
    stats = tracer.summary()
    assert stats["test_bench_tracer.inner"]["calls"] == 5
    assert stats["test_bench_tracer.inner"]["true"] == 3
    assert stats["test_bench_tracer.numbers"]["calls"] == 1
    assert stats["test_bench_tracer.numbers"]["yields"] == 3
    outer_stats = stats["test_bench_tracer.outer"]
    children = sum(stats[f"test_bench_tracer.{name}"]["total_s"] for name in ("inner", "numbers"))
    # inner's spans inside numbers are counted once, as numbers' children
    assert abs(outer_stats["self_s"] - (outer_stats["total_s"] - children)) < 1e-3
    assert all(s["self_s"] <= s["total_s"] + 1e-9 for s in stats.values())


def test_traced_call_counts_repeat_across_processes(tmp_path):
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(SRC)}
    counts = []
    for i in range(2):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "setup", "queries", "--seed", "4",
             "--inputs", str(tmp_path / f"in{i}.pkl"), "--trace", str(tmp_path / f"spans{i}")],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        trace = json.loads(proc.stdout)["trace"]
        counts.append({name: (s.get("calls"), s.get("yields"), s.get("true"))
                       for name, s in trace.items()})
    assert counts[0] == counts[1]
    assert counts[0]["predimension.is_strong"][0] > 0
    assert counts[0]["structures.iter_embeddings"][1] > 0
