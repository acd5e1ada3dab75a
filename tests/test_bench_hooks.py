"""The names the benchmark harness reaches into must exist in `harmonica`.

`perfbench/tracing.py` wraps functions by name and `perfbench/workloads.py`
names the per-bidegree block function; a rename would otherwise zero a
per-layer metric without failing anything.  Both files are imported here,
not changed.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import harmonica
from harmonica import spaces, verify
from harmonica.operators import OperatorSpec, matrix_of

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
tracing = importlib.import_module("tracing")
workloads = importlib.import_module("workloads")


def _resolve(modname: str, attr: str):
    obj = importlib.import_module(f"harmonica.{modname}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("span,modname,attr", tracing.TARGETS,
                         ids=[f"{m}.{a}" for _, m, a in tracing.TARGETS])
def test_trace_target_resolves(span, modname, attr):
    assert callable(_resolve(modname, attr))


def test_block_entry_point_and_clear_registry_resolve():
    assert callable(getattr(spaces, workloads.BLOCK_BUILDER))
    assert callable(spaces.clear_registry)


def test_traced_hook_build_reaches_the_hook_block_function_only():
    # The hook is built from n alone: through the wrapped hook and sign block
    # functions, never through the coinvariant block function.
    for mod in pkgutil.iter_modules(harmonica.__path__):
        importlib.import_module(f"harmonica.{mod.name}")
    spaces.clear_registry()
    rec = tracing.Recorder()
    try:
        with tracing.wrapped(rec) as missing:
            hook = spaces.hook_component(3)
            matrix_of(OperatorSpec.F(3, 1), hook, sorted(hook.blocks)[0])
    finally:
        spaces.clear_registry()
    metrics = tracing.layer_metrics(rec)
    assert missing == []
    assert metrics["spaces.even_block.calls"] == 0
    assert metrics["spaces.hook_block.calls"] > 0
    assert metrics["spaces.sign_block.calls"] > 0
    assert metrics["operators.check_preserves.calls"] == 1


def test_traced_coinvariant_build_reaches_the_even_block_function():
    for mod in pkgutil.iter_modules(harmonica.__path__):
        importlib.import_module(f"harmonica.{mod.name}")
    spaces.clear_registry()
    rec = tracing.Recorder()
    try:
        with tracing.wrapped(rec) as missing:
            spaces.coinvariants(3)
    finally:
        spaces.clear_registry()
    metrics = tracing.layer_metrics(rec)
    assert missing == []
    assert metrics["spaces.even_block.calls"] > 0
    assert metrics["spaces.even_block.calls"] == metrics["spaces.even_block.distinct"]


def test_traced_suites_reach_the_sl2_layer():
    # The sl2 functions take the hook space; a suite that stopped calling
    # them through the wrapped names would zero the `structure.*.s` metrics.
    for mod in pkgutil.iter_modules(harmonica.__path__):
        importlib.import_module(f"harmonica.{mod.name}")
    spaces.clear_registry()
    rec = tracing.Recorder()
    try:
        with tracing.wrapped(rec) as missing:
            for suite in ("cogeneration", "phi", "figure1"):
                verify.run_suite(3, suite)
    finally:
        spaces.clear_registry()
    assert missing == []
    sl2 = {"structure.model", "structure.cogeneration_search", "structure.export_homology"}
    assert sl2.isdisjoint(tracing.uncalled(rec))


def test_sign_builds_never_sum_over_the_group():
    for mod in pkgutil.iter_modules(harmonica.__path__):
        importlib.import_module(f"harmonica.{mod.name}")
    spaces.clear_registry()
    rec = tracing.Recorder()
    try:
        with tracing.wrapped(rec) as missing:
            spaces.hook_component(3)
            spaces.sign_component(spaces.coinvariants(3))
            spaces.sign_component(spaces.harmonics(3))
            spaces.antisymmetric_ideal(3, "J", max_total=3)
    finally:
        spaces.clear_registry()
    metrics = tracing.layer_metrics(rec)
    assert missing == []
    assert metrics["spaces.hook_block.calls"] > 0
    assert metrics["spaces.ideal_tower.calls"] > 0
    assert metrics["superpoly.alt.calls"] == 0
    assert metrics["superpoly.act.calls"] == 0


@pytest.mark.parametrize("build", ["_build_even_block", "_build_harmonic_piece"])
def test_block_builds_hand_the_kernel_int_rows(monkeypatch, build):
    # A Fraction row coming back would cost the time the int rows saved, and
    # a per-column reduce the time saved by reading the classes off the RREF.
    inserted = []
    insert = spaces.RrefAccumulator.insert

    def recording_insert(self, vec):
        inserted.append(vec)
        return insert(self, vec)

    def no_fraction_adds(*args):
        raise AssertionError("vec_add_scaled called during a block build")

    def no_reductions(*args):
        raise AssertionError("RrefAccumulator.reduce called during a block build")

    spaces.clear_registry()
    monkeypatch.setattr(spaces.RrefAccumulator, "insert", recording_insert)
    monkeypatch.setattr(spaces, "vec_add_scaled", no_fraction_adds)
    monkeypatch.setattr(spaces.RrefAccumulator, "reduce", no_reductions)
    try:
        getattr(spaces, build)(4, 3, 2)
    finally:
        spaces.clear_registry()
    assert inserted
    assert {type(v) for vec in inserted for v in vec.values()} == {int}
