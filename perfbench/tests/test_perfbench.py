"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import inproc  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _harmonica():
    return {name: importlib.import_module(f"harmonica.{name}") for name in inproc.MODULES}


# --- parking-function oracle -------------------------------------------------


@pytest.mark.parametrize("n,total", sorted(oracle.TOTALS.items()))
def test_oracle_totals(n, total):
    assert sum(oracle.parking_series(n).values()) == total


def test_oracle_self_check_and_n5_blocks():
    oracle.self_check()
    series = oracle.parking_series(5)
    expected = {(4, 2): 54, (5, 2): 33, (3, 3): 58, (2, 2): 56, (3, 2): 66, (4, 3): 34}
    assert {k: series[k] for k in expected} == expected


def test_oracle_axis_slice_is_the_q_factorial():
    # The y-degree 0 slice of DR_4 is the x-coinvariant ring: [4]_q! coefficients.
    axis = {a: c for (a, d), c in oracle.parking_series(4).items() if d == 0}
    assert [axis.get(a, 0) for a in range(7)] == [1, 3, 5, 6, 5, 3, 1]


# --- self time from a span tree ---------------------------------------------


def test_self_time_of_a_synthetic_span_tree():
    names = ["cli.main", "spaces.even_block", "linalg.insert"]
    # (name, parent, start, end): main[0,100] > block[10,60] > insert[20,50];
    # main > insert[70,90]; the block nests a second block[55,58].
    spans = [(0, -1, 0, 100), (1, 0, 10, 60), (2, 1, 20, 50), (1, 1, 55, 58), (2, 0, 70, 90)]
    cols = list(zip(*spans))
    out = tracing.summarize(names, *cols)
    ns = 1e-9
    assert out["calls"] == {"cli.main": 1, "spaces.even_block": 2, "linalg.insert": 2}
    assert out["self_s"]["cli"] == pytest.approx(30 * ns)
    assert out["self_s"]["spaces"] == pytest.approx(20 * ns)
    assert out["self_s"]["linalg"] == pytest.approx(50 * ns)
    # The nested block is inside the outer one and is not counted twice.
    assert out["inclusive_s"]["spaces.even_block"] == pytest.approx(50 * ns)
    assert out["inclusive_s"]["linalg.insert"] == pytest.approx(50 * ns)


def test_layer_metrics_cover_every_reported_name():
    rec = tracing.Recorder()
    metrics = tracing.layer_metrics(rec)
    assert set(metrics) | {"trace.overhead"} == set(tracing.metric_units())
    assert all(v == 0 for v in metrics.values())


# --- wrappers ----------------------------------------------------------------


def _bindings(mods):
    """Every (namespace id, key) -> value binding a target function."""
    out = {}
    for namespace in tracing._namespaces():
        for key, value in namespace.items():
            if callable(value):
                out[(id(namespace), key)] = value
    out[("insert",)] = vars(mods["linalg"].RrefAccumulator)["insert"]
    return out


def test_wrappers_count_calls_and_restore_the_originals():
    mods = _harmonica()
    before = _bindings(mods)
    rec = tracing.Recorder()
    with tracing.wrapped(rec) as missing:
        assert missing == []
        assert mods["verify"]._SUITE_FNS["dims"] is not before[(id(vars(mods["verify"])), "suite_dims")]
        assert mods["spaces"].act is mods["operators"].act  # one wrapper everywhere
        acc = mods["linalg"].RrefAccumulator()
        acc.insert({0: 1, 2: 3})
        acc.insert({0: 2, 2: 6})
    assert _bindings(mods) == before
    metrics = tracing.layer_metrics(rec)
    assert metrics["linalg.insert.calls"] == 2
    assert metrics["linalg.insert.independent"] == 1
    assert metrics["linalg.insert.nnz_in"] == 4
    assert "cli.main" in tracing.uncalled(rec)


def test_wrappers_restore_after_an_exception():
    mods = _harmonica()
    before = _bindings(mods)
    with pytest.raises(RuntimeError):
        with tracing.wrapped(tracing.Recorder()):
            raise RuntimeError("boom")
    assert _bindings(mods) == before


# --- failures are counted, not raised ----------------------------------------


@pytest.fixture
def harness():
    return run.Harness("drn5-blocks", 0)


def test_reference_mismatch_is_a_failed_operation(harness):
    op = Op("block n=5 (4,2)", block=(5, 4, 2))
    harness.record(op, {"dim": 54, "digest": "0" * 64})
    harness.record(op, {"dim": 53, "digest": harness.checker.reference["blocks"]["4,2"]})
    harness.record(op, {"dim": 54, "digest": harness.checker.reference["blocks"]["4,2"]})
    assert (harness.attempted, harness.failed) == (3, 2)


def test_verify_report_must_keep_every_reference_check(harness):
    names = harness.checker.reference["verify"]["2"]
    op = Op("verify --n 2", ("verify", "--n", "2", "--suite", "all"))
    checks = [{"name": n, "status": "pass"} for n in names]
    extra = checks + [{"name": "a new check", "status": "pass"}]
    assert harness.checker.check(op, {"rc": 0, "stdout": json.dumps({"overall": "pass", "checks": extra})}) is None
    short = json.dumps({"overall": "pass", "checks": checks[1:]})
    assert "missing" in harness.checker.check(op, {"rc": 0, "stdout": short})
    assert harness.checker.check(op, {"rc": 0, "stdout": "not json"}).startswith("unreadable")
    assert harness.checker.check(op, {"rc": 3, "stdout": ""}) == "exit code 3"


def test_warm_output_must_equal_cold_output(harness):
    text = harness.checker.reference["compute"]["hook"]
    argv = ("compute", "--n", "4", "--space", "hook", "--cache-dir", "x")
    assert harness.checker.check(Op("cold", argv, phase="cold"), {"rc": 0, "stdout": text}) is None
    assert harness.checker.check(Op("warm", argv, phase="warm"), {"rc": 0, "stdout": text}) is None
    assert harness.checker.check(Op("warm", argv, phase="warm"), {"rc": 0, "stdout": text + " "})


def test_missing_block_builder_is_a_failed_operation(harness, monkeypatch):
    mods = _harmonica()
    monkeypatch.delattr(mods["spaces"], workloads.BLOCK_BUILDER)
    result = inproc.run_block(mods, (5, 4, 2))
    assert "missing entry point" in result["error"]
    harness.record(Op("block n=5 (4,2)", block=(5, 4, 2)), result)
    assert (harness.attempted, harness.failed) == (1, 1)


def test_a_child_without_a_result_fails_every_planned_operation(harness):
    child = run.Child(rc=1, stdout="", stderr="Traceback\nImportError: x\n", wall_s=0.1,
                      maxrss_mb=10.0, timed_out=False)
    assert harness.record_inproc(child) is None
    assert harness.attempted == harness.failed == len(workloads.DRN5_BLOCKS)


# --- the plan and BENCHMARK.json ----------------------------------------------


def test_plan_is_a_seeded_shuffle_of_the_same_operations():
    for workload in workloads.WORKLOADS:
        a, b = workloads.plan(workload, 1, "d"), workloads.plan(workload, 2, "d")
        assert a == workloads.plan(workload, 1, "d")
        assert sorted(a, key=repr) == sorted(b, key=repr)
    cache_ops = workloads.plan("cache-roundtrip", 3, "d")
    assert [op.phase for op in cache_ops[:2]] == ["cold", "cold"]


def test_benchmark_json_matches_the_metrics_printed():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
