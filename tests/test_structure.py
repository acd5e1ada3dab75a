from fractions import Fraction

import pytest

from harmonica import cache, spaces, structure, verify
from harmonica.linalg import mul_vec, rref, vec_add_scaled
from harmonica.operators import OperatorMatrix, OperatorSpec, matrix_of
from harmonica.spaces import QuotientSpace, clear_registry, hook_component, poly_to_vec
from harmonica.structure import (
    GradingDictionary,
    LefschetzFailure,
    cogeneration_search,
    dual_scalars,
    export_homology,
    fit_dictionary,
    model,
)
from harmonica.superpoly import TriDegree, vandermonde
from memo import memo

FIGURE_POINTS = sorted(
    [
        (-6, 0, 0), (-2, 0, 2), (0, 0, 4), (2, 0, 4), (6, 0, 6),
        (-4, 2, 3), (-2, 2, 5), (0, 2, 5), (2, 2, 7), (4, 2, 7),
        (0, 4, 8),
    ]
)


class TestLefschetz:
    @pytest.mark.parametrize("n", [2, 3])
    def test_bijective_pairing(self, n):
        ok, witness = model(hook_component(n)).lefschetz_check()
        assert ok and witness is None

    def test_single_step_on_the_middle_blocks(self):
        m = model(hook_component(3))
        om = m.step(TriDegree(1, 2, 0))
        _, _, rank = rref(om.columns)
        assert rank == 1 == m.space.dim((1, 2, 0)) == m.space.dim((2, 1, 0))

    def test_triple_step_spans_the_extremes(self):
        m = model(hook_component(3))
        om = m.power(TriDegree(0, 3, 0), 3)
        assert om.target == TriDegree(3, 0, 0)
        assert not om.is_zero()

    def test_each_power_is_one_step_after_the_last(self, monkeypatch):
        from harmonica import spaces, structure

        spaces.clear_registry()
        m = model(hook_component(3))
        src = TriDegree(0, 3, 0)
        composed = []
        compose = structure.compose

        def counted(outer, inner):
            composed.append(inner.target)
            return compose(outer, inner)

        monkeypatch.setattr(structure, "compose", counted)
        third = m.power(src, 3)
        assert composed == [src, TriDegree(1, 2, 0), TriDegree(2, 1, 0)]
        assert m.power(src, 3) is third
        m.power(src, 4)
        assert len(composed) == 4
        steps = [m.step(d).columns for d in composed[:3]]
        assert third.columns == [mul_vec(steps[2], mul_vec(steps[1], col)) for col in steps[0]]
        spaces.clear_registry()

    def test_weight_zero_singlet_is_killed(self):
        m = model(hook_component(2))
        om = m.step(TriDegree(0, 0, 1))
        assert om.columns == [{}] and m.space.dim(om.target) == 0  # no (1, -1, 1) piece

    @staticmethod
    def _lefschetz_and_phi_witnesses(n):
        """Witness of every lefschetz and phi check; None where a check passes."""
        return {r.name: r.witness for suite in ("lefschetz", "phi") for r in verify.run_suite(n, suite)}

    @pytest.mark.parametrize("n, piece", [(3, (1, 2, 0)), (4, (2, 3, 0)), (4, (1, 2, 1))])
    def test_a_zero_step_makes_dependent_strings(self, n, piece, monkeypatch):
        # With F1 zero on one piece, the string through it dies there and
        # the kernel of the next power adds a second vector to that piece.
        step = structure.SL2Model.step

        def zeroed(self, deg):
            om = step(self, deg)
            if deg != piece:
                return om
            return OperatorMatrix(om.source, om.target, [{} for _ in om.columns])

        monkeypatch.setattr(structure.SL2Model, "step", zeroed)
        clear_registry()
        try:
            witnesses = self._lefschetz_and_phi_witnesses(n)
        finally:
            clear_registry()
        assert len(witnesses) == 6
        for name, witness in witnesses.items():
            assert witness is not None and f"dependent string vectors in block {TriDegree(*piece)}" in witness, name

    @pytest.mark.parametrize("n, piece", [(3, (1, 1, 0)), (4, (0, 0, 3))])
    def test_a_dropped_kernel_vector_leaves_a_piece_unspanned(self, n, piece, monkeypatch):
        # Both pieces have weight 0, where the kernel of F1 itself starts the strings.
        clear_registry()
        try:
            power = model(hook_component(n)).power(TriDegree(*piece), 1).columns
            kernel_basis = structure.kernel_basis
            monkeypatch.setattr(structure, "kernel_basis",
                                lambda mat: kernel_basis(mat)[:-1] if mat is power else kernel_basis(mat))
            ok, witness = model(hook_component(n)).lefschetz_check()
            witnesses = self._lefschetz_and_phi_witnesses(n)
        finally:
            clear_registry()
        assert not ok and witness == f"string vectors do not span block {TriDegree(*piece)}"
        assert all(w is not None and witness in w for w in witnesses.values())

    def test_a_string_reaching_an_empty_piece_is_caught_there(self):
        # Without the piece (1,0,0) the string from (0,1,0) ends in a zero
        # vector, and every piece with classes still has a basis of strings.
        hook = hook_component(2)
        blocks = {d: b for d, b in hook.blocks.items() if d != (1, 0, 0)}
        ok, witness = model(QuotientSpace(2, "hook", blocks)).lefschetz_check()
        assert not ok and witness == "dependent string vectors in block (1,0,0)"


def weight_decomposition(m):
    """The strings of an sl2 model, grouped by (odd degree, total degree) slice."""
    out = {}
    for st in m.strings():
        out.setdefault((st.da, st.total), []).append(st)
    return out


class TestWeightDecomposition:
    def test_n3_even_slices(self):
        wd = weight_decomposition(model(hook_component(3)))
        assert sorted(st.j for st in wd[(0, 3)]) == [3]
        assert sorted(st.j for st in wd[(0, 2)]) == [0]

    def test_n2_strings(self):
        wd = weight_decomposition(model(hook_component(2)))
        assert sorted(st.j for st in wd[(0, 1)]) == [1]
        assert sorted(st.j for st in wd[(1, 0)]) == [0]

    def test_strings_partition_dimensions(self):
        for n in (2, 3):
            hook = hook_component(n)
            wd = weight_decomposition(model(hook))
            assert sum(len(st.vectors) for sts in wd.values() for st in sts) == hook.total_dim()


class TestInvolution:
    @pytest.mark.parametrize("n", [2, 3])
    def test_squares_to_identity(self, n):
        m = model(hook_component(n))
        for deg in sorted(m.space.blocks):
            p1 = m.phi_block(deg)
            mirror = TriDegree(deg.dy, deg.dx, deg.da)
            prod = [mul_vec(m.phi_block(mirror), col) for col in p1]
            assert prod == [{i: Fraction(1)} for i in range(m.space.dim(deg))]

    def test_swaps_the_antisymmetric_generators(self):
        m = model(hook_component(3))
        src = TriDegree(0, 3, 0)
        coords = m.space.coords(src, poly_to_vec(vandermonde("y", 3), src))
        image = mul_vec(m.phi_block(src), coords)
        top = TriDegree(3, 0, 0)
        target = m.space.coords(top, poly_to_vec(vandermonde("x", 3), top))
        ((p1, v1),) = image.items()
        ((p2, v2),) = target.items()
        assert p1 == p2 and v1 / v2 != 0

    def test_fixes_singlets(self):
        m = model(hook_component(3))
        deg = TriDegree(1, 1, 0)
        assert m.phi_block(deg) == [{0: Fraction(1)}]


class TestLoweringOperator:
    def test_kills_the_bottom_class(self):
        m = model(hook_component(3))
        deg = TriDegree(0, 3, 0)
        assert m.e1_block(deg).is_zero()

    def test_sl2_commutation(self):
        m = model(hook_component(3))
        F1 = OperatorSpec.F(3, 1)
        for deg in sorted(m.space.blocks):
            w = deg.dx - deg.dy
            e1 = m.e1_block(deg)
            f1 = matrix_of(F1, m.space, deg)
            fe = [mul_vec(matrix_of(F1, m.space, e1.target).columns, col) for col in e1.columns]
            ef = [mul_vec(m.e1_block(f1.target).columns, col) for col in f1.columns]
            for col, other in zip(fe, ef, strict=True):
                vec_add_scaled(col, -1, other)  # fe becomes [F1, E1]
            assert fe == [{i: Fraction(w)} if w else {} for i in range(m.space.dim(deg))]

    def test_conjugated_top_operator_vanishes(self):
        m = model(hook_component(3))
        assert all(om.is_zero() for om in m.conjugated_family(3).values())
        for k in (1, 2):
            assert any(not om.is_zero() for om in m.conjugated_family(k).values())
        scalars = dual_scalars(m.space)
        assert {k for (k, _, _) in scalars} == {1, 2}
        assert all(lam != 0 for lam in scalars.values())


def _scaled_block(m, om, j, jt, factor):
    """om with its (j, j') block in string coordinates multiplied by factor."""
    strings = m.strings()
    src, tgt = m.frame(om.source), m.frame(om.target)
    columns = [dict(col) for col in om.columns]
    for p, col in enumerate(columns):
        part = {}
        for c, x in src.coords({p: Fraction(1)}).items():
            if strings[src.tags[c][0]].j == j:
                vec_add_scaled(part, x, src.vectors[c])
        for r, z in tgt.coords(mul_vec(om.columns, part)).items():
            if strings[tgt.tags[r][0]].j == jt:
                vec_add_scaled(col, (factor - 1) * z, tgt.vectors[r])
    return OperatorMatrix(om.source, om.target, columns)


class TestDualScalars:
    def test_one_string_frame_per_piece(self, monkeypatch):
        from harmonica import structure

        built = []
        init = structure.StringFrame.__init__

        def counted(self, deg, strings, dim):
            built.append(deg)
            init(self, deg, strings, dim)

        monkeypatch.setattr(structure.StringFrame, "__init__", counted)
        spaces.clear_registry()
        try:
            m = model(hook_component(3))
            for deg in m.space.support():
                m.phi_block(deg)
                m.e1_block(deg)
            dual_scalars(m.space)
        finally:
            spaces.clear_registry()
        assert len(built) == len(set(built))
        assert set(m.space.support()) <= set(built)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_nonzero_scalar_per_block(self, n):
        m = model(hook_component(n))
        scalars = dual_scalars(m.space)
        assert all(lam != 0 for lam in scalars.values())
        compared = 0
        for k in range(1, n + 1):
            for deg, om in m.conjugated_family(k).items():
                want = m.string_blocks(matrix_of(OperatorSpec.E(n, k), m.space, deg))
                got = m.string_blocks(om)
                assert set(got) == set(want)
                for (j, jt), block in got.items():
                    lam = scalars[(k, j, jt)]
                    assert block == {pos: lam * v for pos, v in want[(j, jt)].items()}
                    compared += 1
        assert compared >= len(scalars) > 0

    def test_n4_compares_pieces_with_several_blocks(self):
        # Where the string frames cut a piece's matrix into two or more
        # nonzero blocks, one scalar per block asks more than one per piece.
        m = model(hook_component(4))
        several = [(k, deg) for k in range(1, 5) for deg, om in m.conjugated_family(k).items()
                   if len(m.string_blocks(om)) >= 2]
        assert len(several) >= 2
        assert dual_scalars(m.space)

    def test_a_scaled_block_of_one_piece_is_named(self, monkeypatch):
        from harmonica import structure

        m = model(hook_component(4))
        # The first piece of k = 2 with several blocks, one of them met on
        # an earlier piece, so the scaled block disagrees at this piece.
        seen = set()
        for deg, om in m.conjugated_family(2).items():
            blocks = m.string_blocks(om)
            if len(blocks) >= 2 and seen & set(blocks):
                jj = min(seen & set(blocks))
                break
            seen |= set(blocks)
        else:
            raise AssertionError("no piece of k = 2 repeats a block of an earlier piece")
        e2 = OperatorSpec.E(4, 2)
        original = matrix_of(e2, m.space, deg)
        scaled = _scaled_block(m, original, *jj, 2)
        before, after = m.string_blocks(original), m.string_blocks(scaled)
        assert after == {b: {pos: (2 if b == jj else 1) * v for pos, v in block.items()}
                         for b, block in before.items()}

        def patched(spec, space, d):
            return scaled if (spec, TriDegree(*d)) == (e2, deg) else matrix_of(spec, space, d)

        monkeypatch.setattr(structure, "matrix_of", patched)
        with pytest.raises(LefschetzFailure) as failure:
            dual_scalars(m.space)
        assert "F2" in str(failure.value) and f"(j, j') = {jj} of piece {deg}" in str(failure.value)


class TestCogeneration:
    def test_identity_certificate_for_the_top_class(self):
        hook, top = hook_component(3), TriDegree(3, 0, 0)
        cert = cogeneration_search(hook, hook.coords(top, poly_to_vec(vandermonde("x", 3), top)), deg=top)
        assert cert.f_word == () and cert.d_word == () and cert.scalar == 1

    def test_f2_reaches_from_the_middle_singlet(self):
        hook = hook_component(3)
        deg = TriDegree(1, 1, 0)
        cert = cogeneration_search(hook, {0: Fraction(1)}, deg=deg)
        assert cert.f_word == (2,) and cert.d_word == () and cert.scalar != 0

    def test_top_odd_class_uses_two_contractions(self):
        deg = TriDegree(0, 0, 2)
        cert = cogeneration_search(hook_component(3), {0: Fraction(1)}, deg=deg)
        assert sorted(cert.d_word) == [1, 2] and cert.f_word == ()
        assert cert.scalar != 0

    def test_every_class_has_a_certificate(self):
        for n in (2, 3):
            hook = hook_component(n)
            for deg in sorted(hook.blocks):
                for pos in range(hook.blocks[deg].dim):
                    cert = cogeneration_search(hook, {pos: Fraction(1)}, deg=deg)
                    assert cert.scalar != 0

    def test_zero_class_rejected(self):
        with pytest.raises(ValueError):
            cogeneration_search(hook_component(3), {}, deg=(1, 1, 0))

    @pytest.mark.parametrize("n", [3, 4])
    def test_the_suite_builds_the_top_class_once_per_space(self, n, monkeypatch):
        # Every search reads the top antisymmetric class through the space's
        # memo: one vandermonde("x", n) per space, however many classes and runs.
        calls = []
        real = structure.vandermonde

        def counted(var, n):
            calls.append((var, n))
            return real(var, n)

        monkeypatch.setattr(structure, "vandermonde", counted)
        clear_registry()
        try:
            for _ in range(2):
                assert all(r.passed for r in verify.run_suite(n, "cogeneration"))
        finally:
            clear_registry()
        assert calls == [("x", n)]

    @pytest.mark.parametrize("vec, deg", [({7: 1}, (1, 1, 0)), ({0: 1}, (9, 9, 0))])
    def test_positions_outside_the_piece_rejected(self, vec, deg):
        # (1, 1, 0) is one-dimensional; (9, 9, 0) lies off the support.
        with pytest.raises(ValueError, match="outside the piece"):
            cogeneration_search(hook_component(3), vec, deg=deg)


class TestExport:
    def test_n3_generator_table(self):
        table = export_homology(hook_component(3))
        points = sorted((g["Q"], g["A"], g["T"]) for g in table["generators"])
        assert points == FIGURE_POINTS
        bottom = [g for g in table["generators"] if g["A"] == 0]
        assert [(g["Q"], g["T"]) for g in sorted(bottom, key=lambda g: g["Q"])] == [
            (-6, 0), (-2, 2), (0, 4), (2, 4), (6, 6),
        ]

    def test_n2_generator_table(self):
        table = export_homology(hook_component(2))
        points = sorted((g["Q"], g["A"], g["T"]) for g in table["generators"])
        assert points == [(-2, 0, 0), (0, 2, 3), (2, 0, 2)]

    def test_custom_dictionary_is_a_relabeling(self):
        custom = GradingDictionary(
            q1=Fraction(1), q2=Fraction(0), q0=Fraction(5),
            t1=Fraction(-1), t2=Fraction(2), t0=Fraction(0),
            a1=Fraction(1), a0=Fraction(7),
        )
        base = export_homology(hook_component(2))
        remapped = export_homology(hook_component(2), custom)
        assert len(base["generators"]) == len(remapped["generators"])
        degs = sorted(tuple(g["degree"]) for g in base["generators"])
        assert degs == sorted(tuple(g["degree"]) for g in remapped["generators"])

    def test_non_integral_dictionary_rejected(self):
        halves = GradingDictionary(
            q1=Fraction(1, 2), q2=Fraction(0), q0=Fraction(0),
            t1=Fraction(-2), t2=Fraction(1), t0=Fraction(6),
            a1=Fraction(2), a0=Fraction(0),
        )
        with pytest.raises(ValueError):
            export_homology(hook_component(3), halves)

    def test_fit_has_zero_residual_and_matches_default(self):
        table = export_homology(hook_component(3))
        by_point = {(g["Q"], g["A"], g["T"]): tuple(g["degree"]) for g in table["generators"]}
        pts = [(by_point[p], p) for p in FIGURE_POINTS]
        fitted = fit_dictionary(pts)
        assert all(fitted.map(deg) == point for deg, point in pts)
        assert fitted == GradingDictionary.default_for(3)

    def test_fit_rejects_inconsistent_data(self):
        pts = [((0, 0, 0), (0, 0, 0)), ((1, 0, 0), (2, 0, 0)),
               ((0, 1, 0), (-2, 0, 0)), ((2, 0, 0), (5, 0, 0))]
        with pytest.raises(ValueError, match="inconsistent grading data"):
            fit_dictionary(pts)

    def test_fit_rejects_underdetermined_data(self):
        # Every point has da = 0, so the A and the da-coefficients are free.
        pts = [((0, 0, 0), (0, 0, 0)), ((1, 0, 0), (2, 0, 0)), ((0, 1, 0), (-2, 0, 1))]
        with pytest.raises(ValueError, match="underdetermined grading data"):
            fit_dictionary(pts)

    def test_fit_reports_inconsistency_before_underdetermination(self):
        pts = [((0, 0, 0), (0, 0, 0)), ((0, 0, 0), (1, 0, 0))]
        with pytest.raises(ValueError, match="inconsistent grading data"):
            fit_dictionary(pts)


def test_sl2_layer_reads_only_the_space_it_is_given(tmp_path, monkeypatch):
    clear_registry()
    table = export_homology(hook_component(3, cache_dir=tmp_path))
    clear_registry()

    def refuse(*args, **kwargs):
        raise AssertionError("a hook block build started")

    monkeypatch.setattr(spaces, "_build_hook_block", refuse)
    try:
        space = cache.load_quotient(tmp_path, "hook", 3)
        assert export_homology(space) == table
        assert model(space).lefschetz_check() == (True, None)
        top = TriDegree(3, 0, 0)
        cert = cogeneration_search(space, space.coords(top, poly_to_vec(vandermonde("x", 3), top)), deg=top)
        assert cert.f_word == () and cert.d_word == () and cert.scalar == 1
        assert ("space", "hook") not in memo(3)
    finally:
        clear_registry()
