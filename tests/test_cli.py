import json
import subprocess
import sys

import pytest

from harmonica.cli import main
from memo import memo

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

    def test_drn_sign_builds_no_coinvariant_block(self, tmp_path, monkeypatch, capsys):
        from harmonica import spaces

        def refuse(*args, **kwargs):
            raise AssertionError("a coinvariant block was built")

        spaces.clear_registry()
        monkeypatch.setattr(spaces, "_build_even_block", refuse)
        try:
            assert main(["compute", "--n", "3", "--space", "drn-sign", "--cache-dir", str(tmp_path)]) == 0
        finally:
            spaces.clear_registry()
        assert capsys.readouterr().out == (
            "space: drn-sign (n=3)\nhilbert: q^3 + q^2*t + q*t^2 + q*t + t^3\ntotal: 5\n")
        assert not list(tmp_path.iterdir())

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


# `compute --n 3` stdout of the six ideal kinds, recorded while `j`, `mj`,
# `jbar` and `mjbar` still counted the rows of built subspaces, before every
# ideal dimension became a difference of tower ranks.
COMPUTE_N3 = {
    "j": "hilbert: 6*q^5 + 19*q^4*t + 3*q^4 + 28*q^3*t^2 + 10*q^3*t + q^3 + 28*q^2*t^3"
         " + 13*q^2*t^2 + 4*q^2*t + 19*q*t^4 + 10*q*t^3 + 4*q*t^2 + q*t + 6*t^5"
         " + 3*t^4 + t^3 + 31*a*q^5 + 80*a*q^4*t + 19*a*q^4 + 113*a*q^3*t^2"
         " + 47*a*q^3*t + 10*a*q^3 + 113*a*q^2*t^3 + 59*a*q^2*t^2 + 23*a*q^2*t"
         " + 4*a*q^2 + 80*a*q*t^4 + 47*a*q*t^3 + 23*a*q*t^2 + 8*a*q*t + a*q + 31*a*t^5"
         " + 19*a*t^4 + 10*a*t^3 + 4*a*t^2 + a*t + 46*a^2*q^5 + 106*a^2*q^4*t"
         " + 31*a^2*q^4 + 145*a^2*q^3*t^2 + 67*a^2*q^3*t + 19*a^2*q^3"
         " + 145*a^2*q^2*t^3 + 82*a^2*q^2*t^2 + 37*a^2*q^2*t + 10*a^2*q^2"
         " + 106*a^2*q*t^4 + 67*a^2*q*t^3 + 37*a^2*q*t^2 + 16*a^2*q*t + 4*a^2*q"
         " + 46*a^2*t^5 + 31*a^2*t^4 + 19*a^2*t^3 + 10*a^2*t^2 + 4*a^2*t + a^2"
         " + 21*a^3*q^5 + 45*a^3*q^4*t + 15*a^3*q^4 + 60*a^3*q^3*t^2 + 30*a^3*q^3*t"
         " + 10*a^3*q^3 + 60*a^3*q^2*t^3 + 36*a^3*q^2*t^2 + 18*a^3*q^2*t + 6*a^3*q^2"
         " + 45*a^3*q*t^4 + 30*a^3*q*t^3 + 18*a^3*q*t^2 + 9*a^3*q*t + 3*a^3*q"
         " + 21*a^3*t^5 + 15*a^3*t^4 + 10*a^3*t^3 + 6*a^3*t^2 + 3*a^3*t"
         " + a^3\ntotal: 2370\nper-a: 156,723,1029,462\n",
    "mj": "hilbert: 6*q^5 + 19*q^4*t + 3*q^4 + 28*q^3*t^2 + 10*q^3*t + 28*q^2*t^3"
          " + 13*q^2*t^2 + 3*q^2*t + 19*q*t^4 + 10*q*t^3 + 3*q*t^2 + 6*t^5 + 3*t^4"
          " + 31*a*q^5 + 80*a*q^4*t + 19*a*q^4 + 113*a*q^3*t^2 + 47*a*q^3*t + 9*a*q^3"
          " + 113*a*q^2*t^3 + 59*a*q^2*t^2 + 22*a*q^2*t + 3*a*q^2 + 80*a*q*t^4"
          " + 47*a*q*t^3 + 22*a*q*t^2 + 6*a*q*t + 31*a*t^5 + 19*a*t^4 + 9*a*t^3"
          " + 3*a*t^2 + 46*a^2*q^5 + 106*a^2*q^4*t + 31*a^2*q^4 + 145*a^2*q^3*t^2"
          " + 67*a^2*q^3*t + 19*a^2*q^3 + 145*a^2*q^2*t^3 + 82*a^2*q^2*t^2"
          " + 37*a^2*q^2*t + 9*a^2*q^2 + 106*a^2*q*t^4 + 67*a^2*q*t^3 + 37*a^2*q*t^2"
          " + 15*a^2*q*t + 3*a^2*q + 46*a^2*t^5 + 31*a^2*t^4 + 19*a^2*t^3 + 9*a^2*t^2"
          " + 3*a^2*t + 21*a^3*q^5 + 45*a^3*q^4*t + 15*a^3*q^4 + 60*a^3*q^3*t^2"
          " + 30*a^3*q^3*t + 10*a^3*q^3 + 60*a^3*q^2*t^3 + 36*a^3*q^2*t^2"
          " + 18*a^3*q^2*t + 6*a^3*q^2 + 45*a^3*q*t^4 + 30*a^3*q*t^3 + 18*a^3*q*t^2"
          " + 9*a^3*q*t + 3*a^3*q + 21*a^3*t^5 + 15*a^3*t^4 + 10*a^3*t^3 + 6*a^3*t^2"
          " + 3*a^3*t\ntotal: 2348\nper-a: 151,713,1023,461\n",
    "jbar": "hilbert: 6*q^5 + 19*q^4*t + 3*q^4 + 28*q^3*t^2 + 10*q^3*t + q^3 + 28*q^2*t^3"
            " + 13*q^2*t^2 + 4*q^2*t + 19*q*t^4 + 10*q*t^3 + 4*q*t^2 + q*t + 6*t^5"
            " + 3*t^4 + t^3 + 25*a*q^5 + 61*a*q^4*t + 16*a*q^4 + 85*a*q^3*t^2"
            " + 37*a*q^3*t + 9*a*q^3 + 85*a*q^2*t^3 + 46*a*q^2*t^2 + 19*a*q^2*t + 4*a*q^2"
            " + 61*a*q*t^4 + 37*a*q*t^3 + 19*a*q*t^2 + 7*a*q*t + a*q + 25*a*t^5"
            " + 16*a*t^4 + 9*a*t^3 + 4*a*t^2 + a*t + 21*a^2*q^5 + 45*a^2*q^4*t"
            " + 15*a^2*q^4 + 60*a^2*q^3*t^2 + 30*a^2*q^3*t + 10*a^2*q^3 + 60*a^2*q^2*t^3"
            " + 36*a^2*q^2*t^2 + 18*a^2*q^2*t + 6*a^2*q^2 + 45*a^2*q*t^4 + 30*a^2*q*t^3"
            " + 18*a^2*q*t^2 + 9*a^2*q*t + 3*a^2*q + 21*a^2*t^5 + 15*a^2*t^4 + 10*a^2*t^3"
            " + 6*a^2*t^2 + 3*a^2*t + a^2\ntotal: 1185\nper-a: 156,567,462\n",
    "mjbar": "hilbert: 6*q^5 + 19*q^4*t + 3*q^4 + 28*q^3*t^2 + 10*q^3*t + 28*q^2*t^3"
             " + 13*q^2*t^2 + 3*q^2*t + 19*q*t^4 + 10*q*t^3 + 3*q*t^2 + 6*t^5 + 3*t^4"
             " + 25*a*q^5 + 61*a*q^4*t + 16*a*q^4 + 85*a*q^3*t^2 + 37*a*q^3*t + 9*a*q^3"
             " + 85*a*q^2*t^3 + 46*a*q^2*t^2 + 19*a*q^2*t + 3*a*q^2 + 61*a*q*t^4"
             " + 37*a*q*t^3 + 19*a*q*t^2 + 6*a*q*t + 25*a*t^5 + 16*a*t^4 + 9*a*t^3"
             " + 3*a*t^2 + 21*a^2*q^5 + 45*a^2*q^4*t + 15*a^2*q^4 + 60*a^2*q^3*t^2"
             " + 30*a^2*q^3*t + 10*a^2*q^3 + 60*a^2*q^2*t^3 + 36*a^2*q^2*t^2"
             " + 18*a^2*q^2*t + 6*a^2*q^2 + 45*a^2*q*t^4 + 30*a^2*q*t^3 + 18*a^2*q*t^2"
             " + 9*a^2*q*t + 3*a^2*q + 21*a^2*t^5 + 15*a^2*t^4 + 10*a^2*t^3 + 6*a^2*t^2"
             " + 3*a^2*t\ntotal: 1174\nper-a: 151,562,461\n",
    "j-quotient": "hilbert: q^3 + q^2*t + q*t^2 + q*t + t^3\ntotal: 5\n",
    "jbar-quotient": "hilbert: q^3 + q^2*t + q*t^2 + q*t + t^3 + a*q^2 + a*q*t + a*q + a*t^2 + a*t"
                     " + a^2\ntotal: 11\n",
}


@pytest.mark.parametrize("kind", COMPUTE_N3)
def test_compute_n3_ideal_stdout(kind, capsys):
    from harmonica.spaces import clear_registry

    clear_registry()
    try:
        assert main(["compute", "--n", "3", "--space", kind]) == 0
    finally:
        clear_registry()
    assert capsys.readouterr().out == f"space: {kind} (n=3)\n" + COMPUTE_N3[kind]


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

    @pytest.mark.parametrize("n,space", [(6, "j"), (6, "j-quotient"), (5, "jbar-quotient"),
                                         (4, "jbar"), (4, "mjbar")])
    def test_ideal_spaces_respect_the_cap(self, n, space, monkeypatch, capsys):
        from harmonica import spaces

        def refuse(*args, **kwargs):
            raise AssertionError("an ideal tower build started")

        monkeypatch.setattr(spaces._IdealTower, "_build", refuse)
        assert main(["compute", "--n", str(n), "--space", space]) == 3
        err = capsys.readouterr().err
        assert "resource refusal" in err
        if n == 4:  # jbar and mjbar need rank(omega_0 ^ J): their default cap is 3
            assert "n=4 exceeds the default cap 3; pass allow_large (--allow-large) to proceed" in err

    @pytest.mark.parametrize("suite", ["oracle-catalan", "all"])
    @pytest.mark.parametrize("n,flags", [(5, []), (6, ["--allow-large"]), (12, []), (13, [])])
    def test_verify_refuses_an_n_past_the_cap_before_any_suite_work(self, suite, n, flags,
                                                                    monkeypatch, capsys):
        # As `compute` does; the oracle suite used to enumerate paths first, and
        # at n = 13 its enumeration cap turned the refusal into a usage error.
        from harmonica import verify

        def refuse(*args, **kwargs):
            raise AssertionError("suite work started")

        monkeypatch.setattr(verify, "_run_all", refuse)
        monkeypatch.setattr(verify, "_SUITE_FNS", dict.fromkeys(verify._SUITE_FNS, refuse))
        assert main(["verify", "--n", str(n), "--suite", suite, *flags]) == 3
        assert "resource refusal" in capsys.readouterr().err

    def test_a_usage_error_comes_before_the_cap(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--n", "13", "--suite", "nonsense"])
        assert info.value.code == 2 and "unknown suite 'nonsense'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("compute", "--n", "2", "--space", "hook"), ("export", "--n", "2"),
        ("verify", "--n", "2", "--suite", "dims"), ("verify", "--n", "2", "--suite", "all"),
    ], ids=["compute", "export", "verify dims", "verify all"])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_a_cache_dir_that_is_a_file_is_one_line(self, tmp_path, argv, via):
        # The space is built, and its save cannot make the directory: exit 1
        # with one line naming the cache file, as an --out that cannot be written.
        blocker = tmp_path / "cache"
        blocker.write_text("not a directory")
        if via == "flag":
            res = run(*argv, "--cache-dir", str(blocker))
        else:
            import os

            res = run(*argv, env={**os.environ, "HARMONICA_CACHE": str(blocker)})
        assert res.returncode == 1 and res.stdout == ""
        assert "Traceback" not in res.stderr
        (line,) = res.stderr.splitlines()
        assert line.startswith(f"harmonica: cannot write cache {blocker}/") and "File exists" in line
        assert blocker.read_text() == "not a directory"

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
# the names of the modules it left loaded, also when argparse exits.
LOADED_MODULES = """
import json, sys
from harmonica.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
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
        # The sign part of drn is built from n alone, with no drn to cache.
        assert bool(list(tmp_path.iterdir())) == (space != "drn-sign")
        warm = loaded_modules(*argv)
        unused = {"harmonica.verify", "harmonica.structure", "harmonica.operators", "dataclasses",
                  *POOL_MODULES}
        assert "harmonica.spaces" in cold and not (cold | warm) & unused

    def test_export_loads_no_verify(self, tmp_path):
        for _ in range(2):  # cold, then warm
            loaded = loaded_modules("export", "--n", "3", "--cache-dir", str(tmp_path))
            assert "harmonica.structure" in loaded and not loaded & {"harmonica.verify", *POOL_MODULES}

    @pytest.mark.parametrize("argv", [("--version",), ("--help",), ("compute", "--help"),
                                      ("compute", "--n", "2", "--space", "nope"), ("verify", "--n", "2")],
                             ids=["version", "help", "compute help", "bad space", "missing suite"])
    def test_version_help_and_usage_errors_load_no_space_code(self, argv):
        loaded = loaded_modules(*argv)
        assert "harmonica.cli" in loaded and not {m for m in loaded if m.startswith("harmonica.")} - {
            "harmonica", "harmonica.cli"}

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

    def test_operator_theorem_builds_no_coinvariant_block(self, tmp_path, monkeypatch, capsys):
        # F_k is certified on DR_n by the quotient's kind alone, so with only
        # the harmonics cached the suite builds and saves no coinvariants.
        from harmonica import spaces

        argv = ["verify", "--n", "3", "--suite", "operator-theorem"]
        spaces.clear_registry()
        try:
            assert main(["compute", "--n", "3", "--space", "dh", "--cache-dir", str(tmp_path)]) == 0
            capsys.readouterr()
            spaces.clear_registry()
            assert main(argv) == 0
            cold = capsys.readouterr().out

            def refuse(*args, **kwargs):
                raise AssertionError("a coinvariant block was built")

            spaces.clear_registry()
            monkeypatch.setattr(spaces, "_build_even_block", refuse)
            assert main([*argv, "--cache-dir", str(tmp_path)]) == 0
            warm = capsys.readouterr().out
        finally:
            spaces.clear_registry()
        assert warm == cold
        assert [p.name for p in tmp_path.iterdir()] == ["dh-n3.json"]

    def test_the_space_table_is_the_only_builder_list(self, monkeypatch, capsys):
        # No suite calls a builder, nested functions included; each is handed
        # the spaces `_SUITE_SPACES` declares for it.
        import types

        from harmonica import spaces, verify

        def names(code):
            yield from code.co_names
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    yield from names(const)

        suites = {name: fn for name, fn in vars(verify).items() if name.startswith("suite_")}
        assert sorted(suites.values(), key=id) == sorted(verify._SUITE_FNS.values(), key=id)
        for name, fn in suites.items():
            assert not {"coinvariants", "harmonics", "hook_component"} & set(names(fn.__code__)), name
        assert set(verify._SUITE_SPACES) == set(verify._SUITE_FNS)
        # `--suite all` builds the union of the declared spaces once each, in
        # `_BUILDERS` order, before its workers fork.
        calls = []

        def recorded(kind, build):
            def wrapper(*args, **kwargs):
                calls.append(kind)
                return build(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(verify, "_BUILDERS", {k: recorded(k, b) for k, b in verify._BUILDERS.items()})
        spaces.clear_registry()
        try:
            assert main(["verify", "--n", "3", "--suite", "all"]) == 0
        finally:
            spaces.clear_registry()
        capsys.readouterr()
        assert calls == ["drn", "hook", "dh"]

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

    @pytest.mark.parametrize("value", [
        [1, 2], None, "q1", 3,
        {"q1": [1]}, {"q1": {"p": 1}}, {"q1": None}, {"q1": True}, {"q1": "one"}, {"q1": float("inf")},
    ], ids=["list", "null", "string", "number", "list value", "object value", "null value", "true value",
            "non-numeric string", "infinite value"])
    def test_a_dictionary_of_the_wrong_shape_is_one_line(self, tmp_path, value):
        # A well-formed JSON file whose shape is not an object of numbers or
        # numeric strings is refused like an unreadable one: exit 1, one line.
        from harmonica.structure import GradingDictionary

        if isinstance(value, dict):
            value = {**GradingDictionary.default_for(2).to_mapping(), **value}
        dict_file = tmp_path / "dict.json"
        dict_file.write_text(json.dumps(value))
        res = run("export", "--n", "2", "--dict", str(dict_file))
        assert res.returncode == 1 and res.stdout == ""
        assert "Traceback" not in res.stderr
        (line,) = res.stderr.splitlines()
        assert line.startswith(f"harmonica: cannot load dictionary {dict_file}: ")


class TestAllowLargeReachesEveryLayer:
    """--allow-large must get past the n = 5 cap in every layer.

    The n = 5 hook and harmonic spaces are seeded as empty spaces and every
    block builder raises, so these tests start no n = 5 build: a path that
    drops the flag raises ResourceCapExceeded before it reads the workspace.
    """

    @pytest.fixture(autouse=True)
    def empty_n5(self, monkeypatch):
        from harmonica import spaces

        monkeypatch.setitem(spaces._WORKSPACES, 5, spaces._Memoised())
        memo(5)[("space", "hook")] = spaces.QuotientSpace(5, "hook", {})
        memo(5)[("space", "dh")] = spaces.GradedSubspace(5, "dh", {})

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

        memo(5)[("space", "drn")] = spaces.QuotientSpace(5, "drn", {})
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
