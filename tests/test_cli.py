import json
import subprocess
import sys

import pytest

from harmonica.cli import main

BASE = [sys.executable, "-m", "harmonica.cli"]


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

    def test_unknown_suite_is_usage_error(self):
        res = run("verify", "--n", "3", "--suite", "nonsense")
        assert res.returncode == 2

    def test_unknown_space_is_usage_error(self):
        res = run("compute", "--n", "3", "--space", "nonsense")
        assert res.returncode == 2

    def test_figure1_requires_n3(self):
        res = run("verify", "--n", "2", "--suite", "figure1")
        assert res.returncode == 2

    def test_bad_jobs_value(self):
        res = run("compute", "--n", "2", "--space", "drn", "--jobs", "0")
        assert res.returncode == 2


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

        for name in ("_build_even_block", "_build_hook_block", "_build_harmonic_piece"):
            monkeypatch.setattr(spaces, name, refuse)

    def test_structure_functions_take_the_flag(self):
        from harmonica import structure
        from harmonica.spaces import ResourceCapExceeded

        with pytest.raises(ResourceCapExceeded):
            structure.model(5)
        assert structure.model(5, allow_large=True).space.total_dim() == 0
        assert structure.export_homology(5, allow_large=True)["generators"] == []
        assert structure.lefschetz_check(5, allow_large=True) == (True, None)
        with pytest.raises(ValueError, match="zero class"):
            structure.cogeneration_search(5, {}, deg=(0, 0, 0), allow_large=True)

    def test_cap_is_checked_before_the_workspace_is_read(self):
        from harmonica import spaces, structure
        from harmonica.spaces import ResourceCapExceeded

        spaces._WORKSPACES[5].spaces["drn"] = spaces.QuotientSpace(5, "drn", {})
        assert structure.model(5, allow_large=True).space.total_dim() == 0
        assert spaces.coinvariants(5, allow_large=True).total_dim() == 0
        entries = [
            lambda: structure.model(5),
            lambda: structure.lefschetz_check(5),
            lambda: structure.weight_decomposition(5),
            lambda: structure.phi_matrix(5),
            lambda: structure.e_operators(5),
            lambda: structure.export_homology(5),
            lambda: structure.cogeneration_search(5, {0: 1}, deg=(0, 0, 0)),
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
