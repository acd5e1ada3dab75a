import json
import subprocess
import sys

import pytest

from harmonica.cli import main

BASE = [sys.executable, "-m", "harmonica.cli"]
# The closed-form failures `TestExitCodes` provokes at n = 3.
HOOK_FAULT = "odd degree 1: the blocks up to total degree 2 have dimension 5, the Schroder count is 6"
SCAN_FAULT = "the pieces up to total degree 3 have dimension 15, (n+1)^(n-1) is 16"


def run(*args, env=None, check=False):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, check=check, env=env
    )


class TestCompute:
    def test_sign_series_n3(self):
        res = run("compute", "--n", "3", "--space", "drn-sign", check=True)
        assert "hilbert: q^3 + q^2*t + q*t^2 + q*t + t^3" in res.stdout
        assert "total: 5" in res.stdout

    def test_total_n4(self):
        res = run("compute", "--n", "4", "--space", "drn", check=True)
        assert "total: 125" in res.stdout

    def test_hook_per_a_n2(self):
        res = run("compute", "--n", "2", "--space", "hook", check=True)
        assert "per-a: 2,1" in res.stdout

    def test_quotient_series(self):
        res = run("compute", "--n", "2", "--space", "j-quotient", check=True)
        assert "hilbert: q + t" in res.stdout

    def test_reduced_ideal_space(self):
        res = run("compute", "--n", "2", "--space", "jbar", check=True)
        assert "per-a:" in res.stdout

    def test_cache_population_and_hit(self, tmp_path):
        first = run("compute", "--n", "2", "--space", "drn", "--cache-dir", str(tmp_path), check=True)
        assert (tmp_path / "drn-n2.json").is_file()
        second = run("compute", "--n", "2", "--space", "drn", "--cache-dir", str(tmp_path), check=True)
        assert first.stdout == second.stdout

    def test_env_cache_dir(self, tmp_path):
        import os

        env = dict(os.environ, HARMONICA_CACHE=str(tmp_path))
        run("compute", "--n", "2", "--space", "dh", env=env, check=True)
        assert (tmp_path / "dh-n2.json").is_file()


# `compute --n 2` stdout for every kind, recorded before the kinds became one
# table; the two ideal-quotient kinds print no per-a line.
COMPUTE_N2 = {
    "drn": "hilbert: q + t + 1\ntotal: 3\n",
    "drn-sign": "hilbert: q + t\ntotal: 2\n",
    "hook": "hilbert: q + t + a\ntotal: 3\nper-a: 2,1\n",
    "dh": "hilbert: q + t + 1\ntotal: 3\n",
    "dh-sign": "hilbert: q + t\ntotal: 2\n",
    "j": "hilbert: 3*q^3 + 5*q^2*t + 2*q^2 + 5*q*t^2 + 3*q*t + q + 3*t^3 + 2*t^2 + t"
         " + 7*a*q^3 + 11*a*q^2*t + 5*a*q^2 + 11*a*q*t^2 + 7*a*q*t + 3*a*q + 7*a*t^3"
         " + 5*a*t^2 + 3*a*t + a + 4*a^2*q^3 + 6*a^2*q^2*t + 3*a^2*q^2 + 6*a^2*q*t^2"
         " + 4*a^2*q*t + 2*a^2*q + 4*a^2*t^3 + 3*a^2*t^2 + 2*a^2*t + a^2\n"
         "total: 120\nper-a: 25,60,35\n",
    "mj": "hilbert: 3*q^3 + 5*q^2*t + 2*q^2 + 5*q*t^2 + 3*q*t + 3*t^3 + 2*t^2"
          " + 7*a*q^3 + 11*a*q^2*t + 5*a*q^2 + 11*a*q*t^2 + 7*a*q*t + 2*a*q + 7*a*t^3"
          " + 5*a*t^2 + 2*a*t + 4*a^2*q^3 + 6*a^2*q^2*t + 3*a^2*q^2 + 6*a^2*q*t^2"
          " + 4*a^2*q*t + 2*a^2*q + 4*a^2*t^3 + 3*a^2*t^2 + 2*a^2*t\n"
          "total: 114\nper-a: 23,57,34\n",
    "jbar": "hilbert: 3*q^3 + 5*q^2*t + 2*q^2 + 5*q*t^2 + 3*q*t + q + 3*t^3 + 2*t^2 + t"
            " + 4*a*q^3 + 6*a*q^2*t + 3*a*q^2 + 6*a*q*t^2 + 4*a*q*t + 2*a*q + 4*a*t^3"
            " + 3*a*t^2 + 2*a*t + a\n"
            "total: 60\nper-a: 25,35\n",
    "mjbar": "hilbert: 3*q^3 + 5*q^2*t + 2*q^2 + 5*q*t^2 + 3*q*t + 3*t^3 + 2*t^2"
             " + 4*a*q^3 + 6*a*q^2*t + 3*a*q^2 + 6*a*q*t^2 + 4*a*q*t + 2*a*q + 4*a*t^3"
             " + 3*a*t^2 + 2*a*t\n"
             "total: 57\nper-a: 23,34\n",
    "j-quotient": "hilbert: q + t\ntotal: 2\n",
    "jbar-quotient": "hilbert: q + t + a\ntotal: 3\n",
}


@pytest.mark.parametrize("kind", COMPUTE_N2)
def test_compute_n2_stdout(kind, capsys):
    from harmonica.cli import SPACE_KINDS
    from harmonica.spaces import clear_registry

    assert tuple(COMPUTE_N2) == SPACE_KINDS
    clear_registry()
    try:
        assert main(["compute", "--n", "2", "--space", kind]) == 0
    finally:
        clear_registry()
    assert capsys.readouterr().out == f"space: {kind} (n=2)\n" + COMPUTE_N2[kind]


class TestExitCodes:
    def test_cap_refusal_is_exit_3(self):
        res = run("compute", "--n", "5", "--space", "drn")
        assert res.returncode == 3
        assert "allow-large" in res.stderr

    def test_verify_respects_the_cap(self):
        res = run("verify", "--n", "5", "--suite", "dims")
        assert res.returncode == 3

    def test_out_of_scope_refused_even_with_flag(self):
        res = run("compute", "--n", "6", "--space", "drn", "--allow-large")
        assert res.returncode == 3

    @pytest.mark.parametrize("n,space", [(6, "j"), (6, "j-quotient"), (5, "jbar-quotient")])
    def test_ideal_spaces_respect_the_cap(self, n, space, monkeypatch, capsys):
        from harmonica import spaces

        def refuse(*args, **kwargs):
            raise AssertionError("an ideal tower build started")

        monkeypatch.setattr(spaces._IdealTower, "_build", refuse)
        assert main(["compute", "--n", str(n), "--space", space]) == 3
        assert "resource refusal" in capsys.readouterr().err

    def test_unknown_suite_is_usage_error(self):
        from harmonica.verify import SUITES

        res = run("verify", "--n", "3", "--suite", "nonsense")
        assert res.returncode == 2
        assert res.stderr.splitlines()[-1] == (
            f"harmonica: error: unknown suite 'nonsense'; choose from {', '.join(SUITES)} or 'all'")

    @staticmethod
    def _break_build(fault, monkeypatch):
        from harmonica import spaces

        if fault == "hook":
            monkeypatch.setattr(spaces, "hook_per_a", lambda n: {0: 5, 1: 6, 2: 1})
        else:  # one rep of the drn block (1, 1) dropped
            even_block = spaces._even_block

            def losing(n, a, b):
                blk = even_block(n, a, b)
                return spaces.Block(n, blk.deg, blk.reps[1:], blk.nf) if (a, b) == (1, 1) else blk

            monkeypatch.setattr(spaces, "_even_block", losing)
        spaces.clear_registry()

    @pytest.mark.parametrize("fault,command,message", [
        ("hook", "compute", HOOK_FAULT),
        ("scan", "compute", SCAN_FAULT),
    ])
    def test_a_failed_build_check_is_one_line_and_exit_1(self, fault, command, message,
                                                         monkeypatch, capsys):
        from harmonica import spaces

        self._break_build(fault, monkeypatch)
        try:
            assert main([command, "--n", "3", "--space", "hook" if fault == "hook" else "drn"]) == 1
        finally:
            spaces.clear_registry()
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"harmonica: check failed: {message}\n"

    @pytest.mark.parametrize("fault,suite,failing,message", [
        ("hook", "all", ("dims", "cogeneration", "hamiltonian", "lefschetz", "phi", "vanishing",
                         "differentials", "figure1"), HOOK_FAULT),
        ("scan", "dims", ("dims",), SCAN_FAULT),
    ], ids=["hook", "scan"])
    def test_verify_reports_a_failed_build_check_as_a_failing_check(self, fault, suite, failing, message,
                                                                   monkeypatch, capsys):
        # Each suite whose build raises gets one failing check with the
        # exception as its witness; the other suites still run and pass.
        from harmonica import spaces
        from harmonica.verify import SUITES

        self._break_build(fault, monkeypatch)
        try:
            assert main(["verify", "--n", "3", "--suite", suite]) == 1
        finally:
            spaces.clear_registry()
        out = capsys.readouterr()
        assert out.err == ""
        checks = json.loads(out.out)["checks"]
        assert [(c["name"], c["witness"]) for c in checks if c["status"] == "fail"] == [
            (f"the {name} suite builds its spaces", f"ArithmeticError: {message}") for name in failing]
        if suite == "all":
            passed = {c["name"] for c in checks if c["status"] == "pass"}
            assert len(failing) < len(SUITES)
            assert {"path count matches the closed form", "oracle equals the sign-component series"} <= passed

    def test_unknown_space_is_usage_error(self):
        res = run("compute", "--n", "3", "--space", "nonsense")
        assert res.returncode == 2

    def test_figure1_requires_n3(self):
        res = run("verify", "--n", "2", "--suite", "figure1")
        assert res.returncode == 2
        assert res.stderr.splitlines()[-1] == "harmonica: error: the figure1 suite is defined for n = 3"

    def test_suite_domains_are_one_table(self, monkeypatch):
        from harmonica import verify

        names = {r.name for r in verify.run_suite(2, "all")}
        assert "F1 arrows match" not in names
        assert "F1 arrows match" in {r.name for r in verify.run_suite(3, "figure1")}
        monkeypatch.setattr(verify, "_SUITE_DOMAINS", {"oracle-catalan": (3, 4)})
        with pytest.raises(ValueError, match="the oracle-catalan suite is defined for n = 3, 4"):
            verify.run_suite(2, "oracle-catalan")
        assert "path count matches the closed form" not in {r.name for r in verify.run_suite(2, "all")}

    def test_parallelism_takes_no_flag(self):
        res = run("verify", "--n", "2", "--suite", "all", "--jobs", "2")
        assert res.returncode == 2
        assert "unrecognized arguments: --jobs 2" in res.stderr


# Runs `cli.main(argv)` in a fresh interpreter and prints, as its last line,
# the names of the modules it left loaded.
LOADED_MODULES = """
import json, sys
from harmonica.cli import main
main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
"""


# What `verify --suite all` imports to run its suites in worker processes.
POOL_MODULES = {"multiprocessing", "concurrent.futures"}


def loaded_modules(*argv) -> set:
    res = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                         capture_output=True, text=True, check=True)
    return set(json.loads(res.stdout.splitlines()[-1]))


class TestStartup:
    """Each command imports only the modules it runs."""

    @pytest.mark.parametrize("space", ["hook", "dh", "drn-sign"])
    def test_compute_loads_no_verify_structure_or_operators(self, tmp_path, space):
        argv = ("compute", "--n", "3", "--space", space, "--cache-dir", str(tmp_path))
        cold = loaded_modules(*argv)
        assert list(tmp_path.iterdir())
        warm = loaded_modules(*argv)
        unused = {"harmonica.verify", "harmonica.structure", "harmonica.operators", "dataclasses",
                  *POOL_MODULES}
        assert "harmonica.spaces" in cold and not (cold | warm) & unused

    def test_export_loads_no_verify(self, tmp_path):
        for _ in range(2):  # cold, then warm
            loaded = loaded_modules("export", "--n", "3", "--cache-dir", str(tmp_path))
            assert "harmonica.structure" in loaded and not loaded & {"harmonica.verify", *POOL_MODULES}

    def test_one_suite_loads_no_pool(self):
        loaded = loaded_modules("verify", "--n", "3", "--suite", "dims")
        assert "harmonica.verify" in loaded and not loaded & POOL_MODULES


class TestVerify:
    def test_oracle_suite_passes(self):
        res = run("verify", "--n", "3", "--suite", "oracle-catalan")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["overall"] == "pass"
        assert report["suite"] == "oracle-catalan"
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_vanishing_suite_names_the_operators(self):
        res = run("verify", "--n", "3", "--suite", "vanishing", check=True)
        report = json.loads(res.stdout)
        names = [c["name"] for c in report["checks"]]
        assert "F3 = 0 on the hook model" in names

    def test_reports_are_byte_identical(self):
        a = run("verify", "--n", "2", "--suite", "dims", check=True)
        b = run("verify", "--n", "2", "--suite", "dims", check=True)
        assert a.stdout == b.stdout

    def test_cache_hit_and_miss_reports_match(self, tmp_path):
        cold = run("verify", "--n", "2", "--suite", "dims", "--cache-dir", str(tmp_path), check=True)
        warm = run("verify", "--n", "2", "--suite", "dims", "--cache-dir", str(tmp_path), check=True)
        assert cold.stdout == warm.stdout

    def test_warm_verify_reads_the_cache(self, tmp_path, monkeypatch, capsys):
        from harmonica import spaces

        argv = ["verify", "--n", "3", "--suite", "all", "--cache-dir", str(tmp_path)]
        spaces.clear_registry()
        try:
            assert main(argv) == 0
            cold = capsys.readouterr().out
            assert sorted(p.name for p in tmp_path.iterdir()) == ["dh-n3.json", "drn-n3.json", "hook-n3.json"]

            def refuse(*args, **kwargs):
                raise AssertionError("a harmonic piece was built")

            spaces.clear_registry()
            monkeypatch.setattr(spaces, "_build_harmonic_piece", refuse)
            assert main(argv) == 0
            warm = capsys.readouterr().out
        finally:
            spaces.clear_registry()
        assert warm == cold

    def test_timings_flag_changes_bytes_only_in_wall_fields(self):
        plain = json.loads(run("verify", "--n", "2", "--suite", "dims", check=True).stdout)
        timed = json.loads(run("verify", "--n", "2", "--suite", "dims", "--timings", check=True).stdout)
        assert [c["name"] for c in plain["checks"]] == [c["name"] for c in timed["checks"]]
        assert all(c["wall_ms"] is None for c in plain["checks"])
        assert any(c["wall_ms"] is not None for c in timed["checks"])

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        run("verify", "--n", "2", "--suite", "lefschetz", "--out", str(out), check=True)
        report = json.loads(out.read_text())
        assert report["overall"] == "pass"


# Runs `verify --suite all` at n = 2 with the phi suite's worker dying, then
# prints how many worker processes are still alive.
DYING_WORKER = """
import multiprocessing, os
from harmonica import verify
from harmonica.cli import main
verify._SUITE_FNS["phi"] = lambda *args, **kwargs: os._exit(1)
try:
    main(["verify", "--n", "2", "--suite", "all"])
finally:
    print(len(multiprocessing.active_children()))
"""


class TestSuitePool:
    """`--suite all` runs its suites in forked workers."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_all_is_every_suite_in_order(self, n):
        from harmonica.verify import _SUITE_DOMAINS, SUITES, run_suite

        def checks(results):
            return [(r.name, r.passed, r.witness) for r in results]

        one_by_one = [c for s in SUITES if n in _SUITE_DOMAINS.get(s, (n,)) for c in checks(run_suite(n, s))]
        assert checks(run_suite(n, "all")) == one_by_one

    def test_a_dying_worker_fails_the_command(self):
        res = subprocess.run([sys.executable, "-c", DYING_WORKER], capture_output=True, text=True,
                             timeout=60)
        assert res.returncode != 0
        assert "BrokenProcessPool" in res.stderr
        assert res.stdout.splitlines()[-1] == "0"

    def test_no_worker_outlives_the_command(self, capsys):
        import multiprocessing

        assert main(["verify", "--n", "2", "--suite", "all"]) == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "pass"
        assert multiprocessing.active_children() == []


class TestExport:
    def test_json_has_eleven_records(self):
        res = run("export", "--n", "3", "--format", "json", check=True)
        table = json.loads(res.stdout)
        assert len(table["generators"]) == 11

    def test_csv_has_three_records_for_n2(self):
        res = run("export", "--n", "2", "--format", "csv", check=True)
        lines = [l for l in res.stdout.splitlines() if l.strip()]
        assert lines[0].startswith("Q,A,T")
        assert len(lines) == 1 + 3

    def test_custom_dictionary_remaps(self, tmp_path):
        dict_file = tmp_path / "dict.json"
        dict_file.write_text(json.dumps({
            "q1": "1", "q2": "0", "q0": "0",
            "t1": "-1", "t2": "1", "t0": "3",
            "a1": "1", "a0": "0",
        }))
        base = json.loads(run("export", "--n", "3", "--format", "json", check=True).stdout)
        remapped = json.loads(
            run("export", "--n", "3", "--format", "json", "--dict", str(dict_file), check=True).stdout
        )
        assert len(base["generators"]) == len(remapped["generators"])
        degs = sorted(tuple(g["degree"]) for g in base["generators"])
        assert degs == sorted(tuple(g["degree"]) for g in remapped["generators"])
        assert base["generators"] != remapped["generators"]

    def test_missing_dictionary_file(self):
        res = run("export", "--n", "2", "--dict", "/nonexistent/dict.json")
        assert res.returncode != 0


class TestAllowLargeReachesEveryLayer:
    """--allow-large must get past the n = 5 cap in every layer.

    The n = 5 hook and harmonic spaces are seeded as empty spaces and every
    block builder raises, so these tests start no n = 5 build: a path that
    drops the flag raises ResourceCapExceeded before it reads the workspace.
    """

    @pytest.fixture(autouse=True)
    def empty_n5(self, monkeypatch):
        from harmonica import spaces

        workspace = spaces._Workspace(5)
        workspace.spaces["hook"] = spaces.QuotientSpace(5, "hook", {})
        workspace.spaces["dh"] = spaces.GradedSubspace(5, "dh", {})
        monkeypatch.setitem(spaces._WORKSPACES, 5, workspace)

        def refuse(*args, **kwargs):
            raise AssertionError("an n = 5 block build started")

        for name in ("_build_even_block", "_build_hook_block", "_sign_quotient_block", "_build_harmonic_piece"):
            monkeypatch.setattr(spaces, name, refuse)

    def test_sl2_layer_runs_on_the_seeded_space(self):
        from harmonica import structure
        from harmonica.spaces import ResourceCapExceeded, hook_component

        with pytest.raises(ResourceCapExceeded):
            hook_component(5)
        hook = hook_component(5, allow_large=True)
        assert hook.total_dim() == 0
        assert structure.model(hook).space is hook
        assert structure.export_homology(hook)["generators"] == []
        assert structure.model(hook).lefschetz_check() == (True, None)
        with pytest.raises(ValueError, match="zero class"):
            structure.cogeneration_search(hook, {}, deg=(0, 0, 0))

    def test_cap_is_checked_before_the_workspace_is_read(self):
        from harmonica import spaces
        from harmonica.spaces import ResourceCapExceeded

        spaces._WORKSPACES[5].spaces["drn"] = spaces.QuotientSpace(5, "drn", {})
        assert spaces.hook_component(5, allow_large=True).total_dim() == 0
        assert spaces.coinvariants(5, allow_large=True).total_dim() == 0
        entries = [
            lambda: spaces.hook_component(5),
            lambda: spaces.harmonics(5),
            lambda: spaces.coinvariants(5),
        ]
        for entry in entries:
            with pytest.raises(ResourceCapExceeded):
                entry()

    def test_export_n5(self, capsys):
        assert main(["export", "--n", "5", "--allow-large"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["n"] == 5 and table["generators"] == []

    @pytest.mark.parametrize("suite", ["phi", "lefschetz", "cogeneration", "vanishing"])
    def test_verify_n5_suites(self, suite, capsys):
        rc = main(["verify", "--n", "5", "--suite", suite, "--allow-large"])
        report = json.loads(capsys.readouterr().out)
        assert rc in (0, 1)
        witnesses = [c["witness"] or "" for c in report["checks"]]
        assert not any("ResourceCapExceeded" in w for w in witnesses)
