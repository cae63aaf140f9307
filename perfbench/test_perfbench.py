"""Checks of the benchmark itself: reduced smoke runs and the correctness gate.

    python3 -m pytest perfbench/test_perfbench.py

Not part of the repository's test suite (pytest collects ``tests/`` only);
the smoke runs take about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload):
    result, stdout = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_QUERIES
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert f"error_rate 0.0 fraction (0 of {result['attempted']} queries)" in stdout


def test_traced_run_reports_every_per_layer_metric():
    result, _ = _bench("recognize", 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # The dispatch mix of the catalogue, per pass: it must repeat exactly.
    assert metrics["recognition.dispatch.gamma2"]["value"] == 19
    assert metrics["recognition.dispatch.bounded_k"]["value"] == 20
    assert metrics["recognition.dispatch.enumeration"]["value"] == 5


def _first_query(workload: str, kind: str):
    work = run.ROOT / ".perfbench-work" / "test"
    plan = run.prepare(workload, 5, run.load_domkit(), work)
    yield min((p for p in plan(0) if p.query.kind == kind), key=lambda p: p.query.flat_n)
    shutil.rmtree(work, ignore_errors=True)


@pytest.fixture
def mds_query():
    yield from _first_query("mds-enum", "enumerate-mds")


@pytest.fixture
def product_query():
    yield from _first_query("lex-product", "product-enum")


def _failed(prep, rc, out) -> int:
    ledger = run.Ledger()
    ledger.record(prep, 1, rc, out)
    return ledger.verify()


def test_correct_output_passes_the_gate(mds_query):
    rc, out = mds_query.call()
    assert _failed(mds_query, rc, out) == 0


@pytest.mark.parametrize("fix_count", [False, True])
def test_dropped_set_counts_as_failure(mds_query, fix_count):
    rc, out = mds_query.call()
    data = json.loads(out)
    data["sets"].pop(len(data["sets"]) // 2)
    if fix_count:
        data["count"] -= 1
    assert _failed(mds_query, rc, json.dumps(data, sort_keys=True)) == 1


def test_dropped_product_set_counts_as_failure(product_query):
    rc, out = product_query.call()
    assert _failed(product_query, rc, out) == 0
    assert _failed(product_query, rc, out[:-1]) == 1
