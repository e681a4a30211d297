"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Exact counts repeat between two runs with the same seed, every traced
request's spans nest and their self times add up, the printed metrics are
the ones BENCHMARK.json lists, and a directory without the dshp sources
makes the benchmark fail without a result line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checkout

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = (
    "model.cells",
    "exact.candidate_sets",
    "exact.pruned_assets",
    "two_value.visits",
    "reduction.mds_size",
)


def bench(workload: str, seed: int, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    checkout.use_checkout_dshp()
    import workloads

    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


def test_tail_leaves_ten_samples_beyond():
    checkout.use_checkout_dshp()
    import harness

    assert harness.tail([float(v) for v in range(1, 21)]) == (50, 10.0)
    assert harness.tail([float(v) for v in range(1, 111)]) == (90, 99.0)
    assert harness.tail([1.0, 2.0]) == (100, 2.0)
    assert harness.tail([float(v) for v in range(1, 41)], beyond=3) == (92, 37.0)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_and_spans_add_up(workload):
    first, second = (result(bench(workload, 11, trace=1)) for _ in range(2))
    for run in (first, second):
        # correct is false when any request's self times miss its root span.
        assert run["correct"] and run["failed"] == 0
        assert set(run["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert first["metrics"]["model.cells"]["value"] > 0
    assert {name: first["metrics"][name] for name in COUNTS} == {
        name: second["metrics"][name] for name in COUNTS
    }


def test_end_to_end_metrics():
    run = result(bench("exact", 3, trace=0))
    assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
    assert set(run["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = run["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


def test_fails_without_dshp_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("exact", 1, trace=0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
