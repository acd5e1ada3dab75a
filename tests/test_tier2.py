"""Opt-in n = 5 checks, deselected by default: run them with `pytest -m tier2`.

The parking-function enumerator is imported from `perfbench/oracle.py`
unchanged, as `tests/test_bench_hooks.py` imports the harness files.
"""

import importlib
import sys
from pathlib import Path

import pytest

from harmonica import spaces

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
oracle = importlib.import_module("oracle")

pytestmark = pytest.mark.tier2


def test_n5_coinvariants_match_the_parking_series():
    # Hilb(DR_5; q, t) is the (area, dinv) series of parking functions of
    # size 5 (Haglund-Loehr 2005); its total is (n+1)^(n-1) = 1296.
    spaces.clear_registry()
    try:
        dr = spaces.coinvariants(5, allow_large=True)
    finally:
        spaces.clear_registry()
    assert dr.total_dim() == 1296
    series = {(d.dx, d.dy): v for d, v in dr.hilbert().dims.items()}
    assert series == oracle.parking_series(5)
