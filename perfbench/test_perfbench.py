"""Self-test of the benchmark (not part of the repository's test suite).

Run from the root of a source checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

It checks that the benchmark's per-layer counts repeat exactly for a
seed, that every declared span fires on its workload, that the traced
run reports its unattributed residue, that every answer check rejects a
deliberately wrong answer, and that the benchmark refuses to run without
the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import EXPECTED_SPANS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Per-layer values that are counts of work, so must repeat exactly.
COUNTS = (
    "graphs.add_edge_per_query",
    "hypergraphs.edge_calls_per_classify",
    "classify.calls",
    "kernels.oracle_hit_ratio",
    "kernels.oracle_misses",
    "kernels.oracle_invalidated",
    "dynamic.block_classify_calls",
    "dynamic.rebind_incremental_ratio",
)


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT, seconds: float = 1):
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload with the same seed."""
    runs = {}
    for name in WORKLOADS:
        pair = []
        for _ in range(2):
            completed = _run(name, 3, trace=1)
            diagnostics = json.loads(completed.stdout.strip().splitlines()[-2])
            pair.append((_result(completed), json.loads(Path(diagnostics["trace_file"]).read_text())))
        runs[name] = pair
    return runs


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_counts(traced, name):
    (first, _), (second, _) = traced[name]
    for metric in COUNTS:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["correct"] and second["correct"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_span_fires(traced, name):
    (result, trace), _ = traced[name]
    fired = {span[1] for span in trace["spans"]}
    assert EXPECTED_SPANS[name] <= fired
    for span in EXPECTED_SPANS[name]:
        metric = "classify.ms" if span == "classify" else f"{span}_ms"
        assert result["metrics"][metric]["value"] > 0, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(traced, name):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    (result, _), _ = traced[name]
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_unattributed_residue_is_reported(traced, name):
    (result, _), _ = traced[name]
    metrics = result["metrics"]
    assert metrics["op.self_ms"]["value"] > 0
    assert 0 < metrics["op.unattributed_share"]["value"] < 1
    assert metrics["trace.overhead_ratio"]["value"] > 0
    if name == "rpc-read":
        assert metrics["rpc.unattributed_ms"]["value"] > 0
        assert 0 < metrics["rpc.unattributed_share"]["value"] < 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_answer_checks_reject_a_wrong_answer(name):
    workload = WORKLOADS[name](5)
    workload.setup()
    try:
        index = 0
        while len(workload.records) < 2:
            item = workload.next_input(index)
            assert workload.record(index, item, workload.run(item))
            index += 1
            assert index < 400, "no operation was chosen for checking"
    finally:
        workload.teardown()
    assert workload.check() == []
    wrong = min(workload.records)
    item, keys = workload.records[wrong]
    workload.records[wrong] = (item, ["wrong answer"] + keys[1:])
    assert workload.check() == [wrong]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    def inputs(seed):
        workload = WORKLOADS[name](seed)
        return repr([workload.next_input(index) for index in range(6)])

    assert inputs(11) == inputs(11)
    assert inputs(11) != inputs(12)


def test_untraced_run_reports_every_end_to_end_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _result(_run("churn-rw", 2, trace=0))
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rpc-read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
