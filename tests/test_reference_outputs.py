"""The benchmark's reference outputs, checked byte for byte in tier 1.

`perfbench/reference.json` holds the stdout of `compute --n 4` for the hook
and harmonic spaces, the sha256 of `export --n 4`, the digests of three
n = 5 coinvariant blocks, and the checks `verify --suite all` must pass at
n = 2, 3, 4; `perfbench/workloads.py` says how a block is digested.  Both
files are read here, not changed.  Each run starts from an empty registry,
as a fresh process would.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from harmonica import spaces
from harmonica.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
workloads = importlib.import_module("workloads")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def fresh_registry(monkeypatch):
    monkeypatch.delenv("HARMONICA_CACHE", raising=False)
    spaces.clear_registry()
    yield
    spaces.clear_registry()


def _stdout(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("space", workloads.COMPUTE_SPACES)
def test_compute_n4_matches_the_reference(space, capsys):
    out = _stdout(["compute", "--n", "4", "--space", space], capsys)
    assert out == REFERENCE["compute"][space]


def test_export_n4_matches_the_reference(capsys):
    out = _stdout(["export", "--n", "4"], capsys)
    assert workloads.sha256_text(out) == REFERENCE["export_sha256"]


@pytest.mark.parametrize("a,b", workloads.DRN5_BLOCKS)
def test_n5_block_matches_the_reference(a, b):
    blk = getattr(spaces, workloads.BLOCK_BUILDER)(5, a, b)
    assert workloads.block_digest(blk.reps, blk.nf) == REFERENCE["blocks"][f"{a},{b}"]


@pytest.mark.parametrize("n", sorted(REFERENCE["verify"]))
def test_verify_all_passes_every_reference_check(n, capsys):
    report = json.loads(_stdout(["verify", "--n", n, "--suite", "all"], capsys))
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert report["overall"] == "pass"
    assert {name: status.get(name, "missing") for name in REFERENCE["verify"][n]} == \
        dict.fromkeys(REFERENCE["verify"][n], "pass")
