"""n = 5 checks, and the ideal presentation at n = 4.  All but the first
take from seconds to a minute or more and are opt-in, deselected by default:
run them with `pytest -m tier2`.  The first holds the whole n = 5
coinvariant model to the parking functions in tier 1.

The parking-function enumerator is imported from `perfbench/oracle.py`
unchanged, as `tests/test_bench_hooks.py` imports the harness files.
"""

import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import build_oracle
import cache_oracle
import operator_oracle
from harmonica import spaces, verify
from harmonica.dyck import hook_per_a
from harmonica.superpoly import vandermonde

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
oracle = importlib.import_module("oracle")


def test_n5_coinvariants_match_the_parking_series():
    # Hilb(DR_5; q, t) is the (area, dinv) series of parking functions of
    # size 5 (Haglund-Loehr 2005); its total is (n+1)^(n-1) = 1296.  An
    # oracle with no linear algebra, for about 5 s of coinvariants(5).
    spaces.clear_registry()
    try:
        dr = spaces.coinvariants(5, allow_large=True)
    finally:
        spaces.clear_registry()
    assert dr.total_dim() == 1296
    series = {(d.dx, d.dy): v for d, v in dr.hilbert().dims.items()}
    assert series == oracle.parking_series(5)


@pytest.mark.tier2
def test_n5_phi_suite_passes():
    # Every check of the phi suite at n = 5, the dual scalars one included,
    # in a fresh process as a user runs it (about 5 s, 0.2 GB peak RSS).
    res = subprocess.run(
        [sys.executable, "-m", "harmonica.cli", "verify", "--n", "5", "--suite", "phi", "--allow-large"],
        capture_output=True, text=True,
    )
    checks = json.loads(res.stdout)["checks"]
    assert [c["witness"] for c in checks if c["status"] != "pass"] == []
    assert len(checks) == 4 and res.returncode == 0


@pytest.mark.tier2
def test_n5_duality_suite_passes():
    # The duality suite at n = 5, the power-sum kernel check included, in a
    # fresh process as a user runs it (about 25 s, 0.2 GB peak RSS).
    res = subprocess.run(
        [sys.executable, "-m", "harmonica.cli", "verify", "--n", "5", "--suite", "duality", "--allow-large"],
        capture_output=True, text=True,
    )
    checks = json.loads(res.stdout)["checks"]
    assert [c["witness"] for c in checks if c["status"] != "pass"] == []
    assert len(checks) == 4 and res.returncode == 0


@pytest.mark.tier2
def test_n5_operator_theorem_suite_passes():
    # The operator-theorem suite at n = 5, in a fresh process as a user runs
    # it (about 27 s, 0.25 GB peak RSS; its slowest check, the operator span
    # of the top antisymmetric element, takes most of it).
    res = subprocess.run(
        [sys.executable, "-m", "harmonica.cli", "verify", "--n", "5", "--suite", "operator-theorem", "--allow-large"],
        capture_output=True, text=True,
    )
    checks = json.loads(res.stdout)["checks"]
    assert [c["witness"] for c in checks if c["status"] != "pass"] == []
    assert len(checks) == 14 and res.returncode == 0


@pytest.mark.tier2
def test_n4_ideal_quotients_have_the_sign_and_the_hook_series():
    # J, the ideal generated by the antisymmetric elements: J/mJ has the
    # sign series of drn, and the omega_0-reduced quotient the hook series.
    # `suite_dims` checks both only for n <= 3; at n = 4 the tower takes
    # about 80 s of CPU and 0.5 GB peak RSS, with totals 14 and 45.
    spaces.clear_registry()
    try:
        j_mj = spaces.ideal_quotient_series(4, reduced=False)
        assert j_mj == spaces.sign_component(spaces.coinvariants(4)).hilbert() and j_mj.total() == 14
        reduced = spaces.ideal_quotient_series(4, reduced=True)
        assert reduced == spaces.hook_component(4).hilbert() and reduced.total() == 45
    finally:
        spaces.clear_registry()


# Runs argv and reports the child's peak RSS (kB) by os.wait4 as the last
# stderr line.  A forked child's ru_maxrss includes the RSS of the process it
# was forked from, so the measured command must be the child of this small
# launcher, not of the test process.
_RSS_LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
out = child.stdout.read()
_, status, usage = os.wait4(child.pid, 0)
sys.stdout.buffer.write(out)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
"""


@pytest.mark.tier2
def test_n4_j_compute_in_a_fresh_process():
    # `compute --n 4 --space j` reads J's ranks off the tower: about 45 s and
    # 0.43 GB peak RSS on a 2-core machine, against about 60 s and 1.29 GB
    # when it turned J's 98,530 RREF rows into Fractions to count them.
    res = subprocess.run(
        [sys.executable, "-c", _RSS_LAUNCHER,
         sys.executable, "-m", "harmonica.cli", "compute", "--n", "4", "--space", "j"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[2:] == ["total: 98530", "per-a: 1871,13868,34524,35397,12870"]
    peak_mb = int(res.stderr.splitlines()[-1]) / 1024
    assert peak_mb <= 700, f"{peak_mb:.0f} MB"

@pytest.mark.tier2
def test_n5_hook_blocks_match_the_character_first_build():
    # The orbit build from n alone (about 6 s) against the build over the
    # coinvariant blocks that builds only the blocks the S_n characters call
    # nonzero (about 5 s for coinvariants(5), about 30 s in all):
    # all 122 nonzero blocks, reps and normal forms.  The odd degrees total
    # the Schroder-path counts H_d, 197 in all.
    spaces.clear_registry()
    try:
        hook = spaces.hook_component(5, allow_large=True)
        ref = build_oracle.character_hook_blocks(5, allow_large=True)
    finally:
        spaces.clear_registry()
    assert len(hook.blocks) == 122 and hook.total_dim() == 197
    assert hook.hilbert().per_a() == hook_per_a(5)
    assert sorted(hook.blocks) == sorted(ref)
    for deg, blk in ref.items():
        assert (hook.blocks[deg].reps, hook.blocks[deg].nf) == (blk.reps, blk.nf), deg


@pytest.mark.tier2
def test_n5_hook_compute_in_a_fresh_process():
    # `compute --n 5 --space hook` builds no coinvariant block: about 6 s and
    # 0.2 GB peak RSS on a 2-core machine, against 82 s and 0.5 GB when it
    # built coinvariants(5) first.
    start = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "harmonica.cli", "compute", "--n", "5", "--space", "hook", "--allow-large"],
        capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    assert res.returncode == 0
    assert res.stdout.splitlines()[2:] == ["total: 197", "per-a: 42,84,56,14,1"]
    assert wall <= 25, f"{wall:.1f} s"


@pytest.mark.tier2
def test_n5_coinvariant_compute_in_a_fresh_process():
    # `compute --n 5 --space drn` reads every normal form off its block's
    # RREF: about 5 s and 0.07 GB peak RSS on a 2-core machine, against
    # 12 to 15 s when each column was reduced on its own.
    start = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "harmonica.cli", "compute", "--n", "5", "--space", "drn", "--allow-large"],
        capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    assert res.returncode == 0
    assert res.stdout.splitlines()[2:] == ["total: 1296"]
    assert wall <= 15, f"{wall:.1f} s"


@pytest.mark.tier2
def test_n5_hook_satisfies_lefschetz_and_the_bracket_identities():
    # One in-process hook build (about 6 s, 0.2 GB peak RSS) serves all
    # three suites, which then take a few seconds together.
    spaces.clear_registry()
    try:
        spaces.hook_component(5, allow_large=True)
        results = [r for suite in ("lefschetz", "hamiltonian", "differentials")
                   for r in verify.run_suite(5, suite, allow_large=True)]
    finally:
        spaces.clear_registry()
    assert [(r.name, r.witness) for r in results if not r.passed] == []
    assert len(results) == 2 + 351 + 29


@pytest.mark.tier2
@pytest.mark.parametrize("family", ["full", "sign"])
def test_n5_operator_span_in_janet_order_matches_the_depth_first_closure(family):
    # The full family takes about 5 s in Janet order and 14 to 19 s depth
    # first; the sign family about 1 s each.
    ops = operator_oracle.span_families(5)[family]
    seeds = [vandermonde("x", 5)]
    janet = verify._operator_span(seeds, ops)
    every = operator_oracle.operator_span(5, seeds, ops)
    assert sorted(janet) == sorted(every)
    assert all(janet[deg].row_vectors() == every[deg].row_vectors() for deg in every)


@pytest.mark.tier2
def test_n5_every_suite_passes_in_a_fresh_process():
    # Every check at n = 5, the suites in forked workers: about 30 s and
    # 0.4 GB in the largest process on a 2-core machine.
    res = subprocess.run(
        [sys.executable, "-m", "harmonica.cli", "verify", "--n", "5", "--suite", "all", "--allow-large"],
        capture_output=True, text=True,
    )
    checks = json.loads(res.stdout)["checks"]
    assert [c["witness"] for c in checks if c["status"] != "pass"] == []
    assert len(checks) == 448 and res.returncode == 0


@pytest.mark.tier2
@pytest.mark.parametrize("kind", ["hook", "drn", "dh"])
def test_n5_cold_and_warm_compute_agree_and_save_the_one_shot_bytes(tmp_path, kind):
    # A cold compute saves the space, a warm one loads it, each in a fresh
    # process; the file holds the bytes the one-shot serializer writes for
    # the space built here.
    argv = [sys.executable, "-m", "harmonica.cli", "compute", "--n", "5", "--space", kind,
            "--allow-large", "--cache-dir", str(tmp_path)]
    cold, warm = (subprocess.run(argv, capture_output=True, text=True, check=True) for _ in range(2))
    assert warm.stdout == cold.stdout and warm.stderr == cold.stderr == ""
    build = {"hook": spaces.hook_component, "drn": spaces.coinvariants, "dh": spaces.harmonics}[kind]
    spaces.clear_registry()
    try:
        expected = cache_oracle.dumps(build(5, allow_large=True))
    finally:
        spaces.clear_registry()
    assert (tmp_path / f"{kind}-n5.json").read_text(encoding="utf-8") == expected
