import json
import tracemalloc
from fractions import Fraction

import pytest

import cache_oracle
from harmonica import cache, spaces
from harmonica.cli import main
from harmonica.spaces import (
    ambient_basis,
    clear_registry,
    coinvariants,
    harmonics,
    hook_component,
)
from harmonica.superpoly import count_tridegree


def fresh(n=2):
    clear_registry()
    return coinvariants(n)


class TestRoundTrip:
    def test_quotient_space(self, tmp_path):
        dr = coinvariants(3)
        cache.save_quotient(tmp_path, dr)
        loaded = cache.load_quotient(tmp_path, "drn", 3)
        assert loaded is not None
        assert loaded.hilbert() == dr.hilbert()
        for deg in dr.blocks:
            a, b = dr.blocks[deg], loaded.blocks[deg]
            assert a.reps == b.reps and a.nf == b.nf

    def test_graded_subspace(self, tmp_path):
        dh = harmonics(3)
        cache.save_subspace(tmp_path, dh)
        loaded = cache.load_subspace(tmp_path, "dh", 3)
        assert loaded is not None and loaded.hilbert() == dh.hilbert()
        for deg in dh.support():
            assert loaded.basis(deg) == dh.basis(deg)

    def test_hook_space_via_build_api(self, tmp_path):
        clear_registry()
        first = hook_component(2, cache_dir=tmp_path)
        assert cache.cache_path(tmp_path, "hook", 2).is_file()
        clear_registry()
        second = hook_component(2, cache_dir=tmp_path)
        assert second.hilbert() == first.hilbert()
        for deg in first.blocks:
            assert second.blocks[deg].nf == first.blocks[deg].nf

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_sign_part_of_drn_first_still_saves_the_hook(self, tmp_path, n):
        # `sign_component(drn)` builds the hook's odd degree 0 blocks in the
        # workspace; the hook built after it must still be saved, byte for
        # byte as when it is built alone.
        clear_registry()
        hook_component(n, cache_dir=tmp_path / "alone")
        clear_registry()
        sign = spaces.sign_component(coinvariants(n))
        hook = hook_component(n, cache_dir=tmp_path / "after")
        clear_registry()
        assert all(hook.blocks[deg] is blk for deg, blk in sign.blocks.items())
        alone, after = (cache.cache_path(tmp_path / d, "hook", n) for d in ("alone", "after"))
        assert after.read_bytes() == alone.read_bytes()

    def test_the_sign_part_of_a_cached_drn_reads_none_of_its_blocks(self, tmp_path, monkeypatch):
        clear_registry()
        built = spaces.sign_component(coinvariants(3, cache_dir=tmp_path)).blocks
        clear_registry()
        dr = coinvariants(3, cache_dir=tmp_path)
        monkeypatch.setattr(dr, "blocks", {})
        sign = spaces.sign_component(dr).blocks
        assert spaces._workspace(3).even_blocks == {}
        assert sorted(sign) == sorted(built)
        assert all((sign[d].reps, sign[d].nf) == (b.reps, b.nf) for d, b in built.items())
        clear_registry()

    def test_harmonics_build_their_blocks_past_a_cached_drn(self, tmp_path):
        # A cache-loaded drn is never read by `harmonics`: it builds the
        # coinvariant blocks it reads in the workspace.
        clear_registry()
        built = harmonics(3)
        coinvariants(3, cache_dir=tmp_path)
        clear_registry()
        coinvariants(3, cache_dir=tmp_path)
        assert spaces._workspace(3).even_blocks == {}
        assert harmonics(3, cache_dir=tmp_path).pieces == built.pieces
        assert spaces._workspace(3).even_blocks


BUILDS = {"drn": coinvariants, "hook": hook_component, "dh": harmonics}


def _save(tmp_path, space):
    save = cache.save_subspace if space.kind == "dh" else cache.save_quotient
    return save(tmp_path, space)


def _load(tmp_path, kind, n):
    load = cache.load_subspace if kind == "dh" else cache.load_quotient
    return load(tmp_path, kind, n)


def _same(a, b) -> bool:
    if a.kind == "dh":
        return a.pieces == b.pieces
    return a.blocks.keys() == b.blocks.keys() and all(
        (blk.reps, blk.nf) == (b.blocks[deg].reps, b.blocks[deg].nf) for deg, blk in a.blocks.items())


class TestStreaming:
    """Saves write, and loads read, one record at a time."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(BUILDS))
    def test_a_save_writes_the_bytes_of_the_one_shot_serializer(self, tmp_path, kind, n):
        clear_registry()
        space = BUILDS[kind](n)
        assert _save(tmp_path, space).read_text(encoding="utf-8") == cache_oracle.dumps(space)
        assert _same(_load(tmp_path, kind, n), space)

    def test_a_save_peaks_at_most_at_half_the_one_shot_serializer(self, tmp_path):
        clear_registry()
        hook = hook_component(4)
        # The largest block holds about 9% of the file's columns.
        columns = [count_tridegree(4, deg) for deg in hook.blocks]
        assert max(columns) < 0.1 * sum(columns)
        peaks = []
        tracemalloc.start()
        try:
            for save in (lambda: cache.save_quotient(tmp_path, hook),
                         lambda: (tmp_path / "one-shot.json").write_text(cache_oracle.dumps(hook))):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                save()
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        streamed, one_shot = peaks
        assert streamed <= one_shot / 2, peaks
        assert (tmp_path / "one-shot.json").read_bytes() == cache.cache_path(tmp_path, "hook", 4).read_bytes()

    @pytest.mark.parametrize("kind", sorted(BUILDS))
    def test_a_file_dumped_again_with_default_separators_loads(self, tmp_path, kind):
        clear_registry()
        built = BUILDS[kind](3)
        path = _save(tmp_path, built)
        path.write_text(json.dumps(json.loads(path.read_text())))
        assert b", " in path.read_bytes()
        assert _same(_load(tmp_path, kind, 3), built)

    @pytest.mark.parametrize("kind", sorted(BUILDS))
    def test_extra_keys_are_ignored_as_before(self, tmp_path, kind):
        # In the header and in a record; a record-shaped object under an
        # extra key is never read, even when it would not load.
        clear_registry()
        built = BUILDS[kind](3)
        path = _save(tmp_path, built)
        payload = json.loads(path.read_text())
        records = payload["pieces" if kind == "dh" else "blocks"]
        stray = json.loads(json.dumps(records[0]))
        stray["deg"] = "not a degree"
        records[-1]["extra"] = [1, {"x": 2}]
        payload["extra"] = {"record": stray}
        path.write_text(json.dumps(payload))
        assert _same(_load(tmp_path, kind, 3), built)

    @pytest.mark.parametrize("key", ["format", "kind", "n", "order"])
    @pytest.mark.parametrize("kind", sorted(BUILDS))
    def test_a_record_in_place_of_a_header_value_is_rejected(self, tmp_path, kind, key):
        clear_registry()
        path = _save(tmp_path, BUILDS[kind](3))
        payload = json.loads(path.read_text())
        payload[key] = payload["pieces" if kind == "dh" else "blocks"][0]
        path.write_text(json.dumps(payload))
        assert _load(tmp_path, kind, 3) is None


class TestAmbientBasis:
    """A block reads the lru-cached ambient basis only when it is asked for."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_built_and_loaded_blocks_read_the_ambient_basis(self, tmp_path, n):
        clear_registry()
        models = [coinvariants(n, cache_dir=tmp_path), hook_component(n, cache_dir=tmp_path)]
        clear_registry()
        models += [cache.load_quotient(tmp_path, kind, n) for kind in ("drn", "hook")]
        for space in models:
            for deg, block in space.blocks.items():
                monos = ambient_basis(n, deg)[0]
                assert block.ambient_dim == len(monos)
                assert block.monomials is monos
        clear_registry()

    def test_warm_compute_lists_no_monomials(self, tmp_path, monkeypatch, capsys):
        argv = ["compute", "--n", "4", "--space", "hook", "--cache-dir", str(tmp_path)]
        clear_registry()
        assert main(argv) == 0
        cold = capsys.readouterr().out

        def refuse(n, deg):
            raise AssertionError(f"the monomials of {deg} were listed")

        clear_registry()
        monkeypatch.setattr(spaces, "monomials_tridegree", refuse)
        try:
            assert main(argv) == 0
        finally:
            clear_registry()
        assert capsys.readouterr().out == cold


class TestStaleness:
    def test_version_mismatch_ignored(self, tmp_path):
        dr = coinvariants(2)
        path = cache.save_quotient(tmp_path, dr)
        payload = json.loads(path.read_text())
        payload["format"] = 999
        path.write_text(json.dumps(payload))
        assert cache.load_quotient(tmp_path, "drn", 2) is None

    def test_order_mismatch_ignored(self, tmp_path):
        dr = coinvariants(2)
        path = cache.save_quotient(tmp_path, dr)
        payload = json.loads(path.read_text())
        payload["order"] = "some-other-order"
        path.write_text(json.dumps(payload))
        assert cache.load_quotient(tmp_path, "drn", 2) is None

    def test_corrupt_file_ignored(self, tmp_path):
        dr = coinvariants(2)
        path = cache.save_quotient(tmp_path, dr)
        path.write_text("{not valid json")
        assert cache.load_quotient(tmp_path, "drn", 2) is None

    def test_file_that_is_not_utf8_ignored(self, tmp_path):
        path = cache.save_quotient(tmp_path, coinvariants(2))
        path.write_bytes(path.read_bytes().replace(b'"drn"', b'"\xff"'))
        assert cache.load_quotient(tmp_path, "drn", 2) is None

    def test_missing_file(self, tmp_path):
        assert cache.load_quotient(tmp_path, "drn", 4) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        cache.save_quotient(tmp_path, coinvariants(2))
        cache.save_subspace(tmp_path, harmonics(2))
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


def _nonempty_nf(block_rec):
    """Index of an nf record whose normal form is a nonzero vector."""
    return next(i for i, (_, vec) in enumerate(block_rec["nf"]) if vec)


def _empty_reps(b):
    b["nf"] = sorted(b["nf"] + [[r, []] for r in b["reps"]])
    b["reps"] = []


def _nf_on_pivot(b):
    i = _nonempty_nf(b)
    b["nf"][i][1][0][0] = b["nf"][i][0]


def _value_text(text):
    """Replace the first value of a nonzero normal form with `text`."""
    def corrupt(b):
        b["nf"][_nonempty_nf(b)][1][0][1] = text
    return corrupt


# Value texts that are not `str(Fraction)` of a nonzero rational, the text a
# save writes; "1/0" and Infinity used to raise out of the load.
BAD_VALUE_TEXTS = ["1/0", "0", "0.5", "2/4", "+1", " 1", float("inf")]


# One corruption per rule of the quotient check, each on one block record.
BLOCK_CORRUPTIONS = {
    "reps unsorted": lambda b: b["reps"].reverse(),
    "reps duplicated": lambda b: b["reps"].insert(0, b["reps"][0]),
    "reps overlap the nf keys": lambda b: b["reps"].__setitem__(
        slice(None), sorted(b["reps"] + [b["nf"][0][0]])),
    "reps and nf keys miss a column": lambda b: b["nf"].pop(),
    "nf key duplicated": lambda b: b["nf"].append(b["nf"][0]),
    "no reps": _empty_reps,
    "nf uses a non-rep column": _nf_on_pivot,
    "nf column listed twice": lambda b: b["nf"][_nonempty_nf(b)][1].append([b["nf"][_nonempty_nf(b)][1][0][0], "7"]),
    # Rejected by counting its columns, before any is listed.
    "degree far past any basis": lambda b: b["deg"].__setitem__(0, 10 ** 30),
    **{f"nf value {text!r}": _value_text(text) for text in BAD_VALUE_TEXTS},
}


SPACE_FNS = {kind: BUILDS[kind] for kind in ("drn", "hook")}  # the quotient kinds


class TestLoadChecks:
    """A file that parses but holds inconsistent data is ignored and rebuilt."""

    @staticmethod
    def _saved(tmp_path, kind):
        clear_registry()
        built = SPACE_FNS[kind](3, cache_dir=tmp_path)
        path = cache.cache_path(tmp_path, kind, 3)
        return built, path, json.loads(path.read_text())

    def _assert_rebuilt(self, tmp_path, kind, built):
        clear_registry()
        rebuilt = SPACE_FNS[kind](3, cache_dir=tmp_path)
        assert rebuilt is not built and rebuilt.blocks.keys() == built.blocks.keys()
        for deg, block in built.blocks.items():
            assert rebuilt.blocks[deg].reps == block.reps
            assert rebuilt.blocks[deg].nf == block.nf
        assert cache.load_quotient(tmp_path, kind, 3) is not None  # saved again

    @pytest.mark.parametrize("kind,rule", [("drn", rule) for rule in sorted(BLOCK_CORRUPTIONS)] + [
        ("hook", rule) for rule in sorted(BLOCK_CORRUPTIONS) if rule != "reps unsorted"])
    def test_inconsistent_block_is_rebuilt(self, tmp_path, kind, rule):
        built, path, payload = self._saved(tmp_path, kind)
        # The block with the most reps among those with a nonzero normal form.
        rec = max((b for b in payload["blocks"] if any(v for _, v in b["nf"])),
                  key=lambda b: len(b["reps"]))
        BLOCK_CORRUPTIONS[rule](rec)
        path.write_text(json.dumps(payload))
        assert cache.load_quotient(tmp_path, kind, 3) is None
        self._assert_rebuilt(tmp_path, kind, built)

    @pytest.mark.parametrize("kind", sorted(SPACE_FNS))
    @pytest.mark.parametrize("change", ["block dropped", "block added"])
    def test_file_with_other_dimensions_is_rebuilt(self, tmp_path, kind, change):
        # Every block is well formed, but the dimensions are not those of a
        # build: a block is dropped, or a copy of an odd-degree-0 block is
        # added at odd degree n, which has as many columns and is no build's.
        built, path, payload = self._saved(tmp_path, kind)
        if change == "block dropped":
            del payload["blocks"][0]
        else:
            rec = dict(next(b for b in payload["blocks"] if b["deg"][2] == 0))
            rec["deg"] = rec["deg"][:2] + [3]
            payload["blocks"].append(rec)
        path.write_text(json.dumps(payload))
        assert cache.load_quotient(tmp_path, kind, 3) is None
        self._assert_rebuilt(tmp_path, kind, built)

    def test_duplicated_degree_is_rebuilt(self, tmp_path):
        built, path, payload = self._saved(tmp_path, "hook")
        payload["blocks"].append(payload["blocks"][0])
        path.write_text(json.dumps(payload))
        assert cache.load_quotient(tmp_path, "hook", 3) is None
        self._assert_rebuilt(tmp_path, "hook", built)

    @pytest.mark.parametrize("vec", [[], [[0, "0"]], [[-1, "1"]], [[10 ** 6, "1"]], [[0, "1"], [1, "1"], [1, "2"]]]
                             + [[[0, text]] for text in BAD_VALUE_TEXTS if text != "0"],
                             ids=["empty", "zero", "negative column", "column past the basis", "column listed twice"]
                             + [f"value {text!r}" for text in BAD_VALUE_TEXTS if text != "0"])
    def test_bad_subspace_vector_is_rebuilt(self, tmp_path, vec):
        clear_registry()
        built = harmonics(3, cache_dir=tmp_path)
        path = cache.cache_path(tmp_path, "dh", 3)
        payload = json.loads(path.read_text())
        payload["pieces"][-1]["basis"][0] = vec
        path.write_text(json.dumps(payload))
        assert cache.load_subspace(tmp_path, "dh", 3) is None
        clear_registry()
        rebuilt = harmonics(3, cache_dir=tmp_path)
        assert rebuilt is not built and rebuilt.pieces == built.pieces
        assert cache.load_subspace(tmp_path, "dh", 3) is not None

    def test_dropped_subspace_piece_is_rebuilt(self, tmp_path):
        clear_registry()
        built = harmonics(3, cache_dir=tmp_path)
        path = cache.cache_path(tmp_path, "dh", 3)
        payload = json.loads(path.read_text())
        del payload["pieces"][0]
        path.write_text(json.dumps(payload))
        assert cache.load_subspace(tmp_path, "dh", 3) is None
        clear_registry()
        rebuilt = harmonics(3, cache_dir=tmp_path)
        assert rebuilt is not built and rebuilt.pieces == built.pieces
        assert cache.load_subspace(tmp_path, "dh", 3) is not None

    @pytest.mark.parametrize("corrupt", [
        lambda basis: basis.append(basis[0]),
        lambda basis: basis.__setitem__(0, [[j, str(2 * Fraction(s))] for j, s in basis[0]]),
        lambda basis: basis.reverse(),
    ], ids=["vector repeated", "vector scaled by 2", "two vectors swapped"])
    def test_subspace_basis_not_in_reduced_echelon_form_is_rebuilt(self, tmp_path, corrupt, capsys):
        # The vectors stay nonzero and in range; only the echelon form breaks.
        argv = ["compute", "--n", "3", "--space", "dh", "--cache-dir", str(tmp_path)]
        clear_registry()
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "total: 16\n" in cold
        path = cache.cache_path(tmp_path, "dh", 3)
        payload = json.loads(path.read_text())
        basis = next(rec["basis"] for rec in payload["pieces"] if len(rec["basis"]) == 2)
        corrupt(basis)
        path.write_text(json.dumps(payload))
        assert cache.load_subspace(tmp_path, "dh", 3) is None
        clear_registry()
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert cache.load_subspace(tmp_path, "dh", 3) is not None
