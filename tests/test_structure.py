from fractions import Fraction

import pytest

from harmonica.linalg import SparseMatrix, rref
from harmonica.operators import OperatorSpec, matrix_of
from harmonica.spaces import hook_component
from harmonica.structure import (
    GradingDictionary,
    cogeneration_search,
    e_operators,
    export_homology,
    fit_dictionary,
    lefschetz_check,
    model,
    weight_decomposition,
)
from harmonica.superpoly import TriDegree, vandermonde

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
        ok, witness = lefschetz_check(n)
        assert ok and witness is None

    def test_single_step_on_the_middle_blocks(self):
        m = model(3)
        om = m.step(TriDegree(1, 2, 0))
        _, _, rank = rref(om.matrix)
        assert rank == 1 == m.space.dim((1, 2, 0)) == m.space.dim((2, 1, 0))

    def test_triple_step_spans_the_extremes(self):
        m = model(3)
        om = m.power(TriDegree(0, 3, 0), 3)
        assert om.target == TriDegree(3, 0, 0)
        assert not om.is_zero()

    def test_each_power_is_one_step_after_the_last(self, monkeypatch):
        from harmonica import spaces, structure

        spaces.clear_registry()
        m = model(3)
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
        steps = [m.step(d).matrix for d in composed[:3]]
        assert third.matrix == steps[2].matmul(steps[1]).matmul(steps[0])
        spaces.clear_registry()

    def test_weight_zero_singlet_is_killed(self):
        m = model(2)
        om = m.step(TriDegree(0, 0, 1))
        assert om.matrix.rows == 0  # no (1, -1, 1) piece


class TestWeightDecomposition:
    def test_n3_even_slices(self):
        wd = weight_decomposition(3)
        assert sorted(st.j for st in wd[(0, 3)]) == [3]
        assert sorted(st.j for st in wd[(0, 2)]) == [0]

    def test_n2_strings(self):
        wd = weight_decomposition(2)
        assert sorted(st.j for st in wd[(0, 1)]) == [1]
        assert sorted(st.j for st in wd[(1, 0)]) == [0]

    def test_strings_partition_dimensions(self):
        for n in (2, 3):
            wd = weight_decomposition(n)
            hook = hook_component(n)
            assert sum(len(st.vectors) for sts in wd.values() for st in sts) == hook.total_dim()


class TestInvolution:
    @pytest.mark.parametrize("n", [2, 3])
    def test_squares_to_identity(self, n):
        m = model(n)
        for deg in sorted(m.space.blocks):
            p1 = m.phi_block(deg)
            mirror = TriDegree(deg.dy, deg.dx, deg.da)
            prod = m.phi_block(mirror).matmul(p1)
            dim = m.space.dim(deg)
            assert prod == SparseMatrix(dim, dim, {(i, i): Fraction(1) for i in range(dim)})

    def test_swaps_the_antisymmetric_generators(self):
        m = model(3)
        src = TriDegree(0, 3, 0)
        coords = m.space.block(src).class_coords(vandermonde("y", 3))
        image = m.phi_block(src).mul_vec(coords)
        target = m.space.block(TriDegree(3, 0, 0)).class_coords(vandermonde("x", 3))
        ((p1, v1),) = image.items()
        ((p2, v2),) = target.items()
        assert p1 == p2 and v1 / v2 != 0

    def test_fixes_singlets(self):
        m = model(3)
        deg = TriDegree(1, 1, 0)
        assert m.phi_block(deg) == SparseMatrix(1, 1, {(0, 0): Fraction(1)})


class TestLoweringOperator:
    def test_kills_the_bottom_class(self):
        m = model(3)
        deg = TriDegree(0, 3, 0)
        assert m.e1_block(deg).matrix.is_zero()

    def test_sl2_commutation(self):
        m = model(3)
        F1 = OperatorSpec.F(3, 1)
        for deg in sorted(m.space.blocks):
            w = deg.dx - deg.dy
            dim = m.space.dim(deg)
            e1 = m.e1_block(deg)
            f1 = matrix_of(F1, m.space, deg)
            fe = matrix_of(F1, m.space, e1.target).matrix.matmul(e1.matrix)
            ef = m.e1_block(f1.target).matrix.matmul(f1.matrix)
            h = fe.add(ef.scaled(-1))
            assert h == SparseMatrix(dim, dim, {(i, i): Fraction(w) for i in range(dim)} if w else {})

    def test_conjugated_top_operator_vanishes(self):
        _, duals, comparison = e_operators(3)
        assert all(om.matrix.is_zero() for om in duals[3].values())
        for k in (1, 2):
            assert any(not om.matrix.is_zero() for om in duals[k].values())
        for k, table in comparison.scalars.items():
            for lam in table.values():
                assert lam is None or lam != 0

    def test_n3_has_no_mixed_pieces(self):
        _, _, comparison = e_operators(3)
        assert comparison.mixed == ()


class TestCogeneration:
    def test_identity_certificate_for_the_top_class(self):
        cert = cogeneration_search(3, vandermonde("x", 3))
        assert cert.f_word == () and cert.d_word == () and cert.scalar == 1
        assert cert.render() == "1"

    def test_f2_reaches_from_the_middle_singlet(self):
        hook = hook_component(3)
        deg = TriDegree(1, 1, 0)
        cert = cogeneration_search(3, {0: Fraction(1)}, deg=deg)
        assert cert.f_word == (2,) and cert.d_word == () and cert.scalar != 0

    def test_top_odd_class_uses_two_contractions(self):
        deg = TriDegree(0, 0, 2)
        cert = cogeneration_search(3, {0: Fraction(1)}, deg=deg)
        assert sorted(cert.d_word) == [1, 2] and cert.f_word == ()
        assert cert.scalar != 0

    def test_every_class_has_a_certificate(self):
        for n in (2, 3):
            hook = hook_component(n)
            for deg in sorted(hook.blocks):
                for pos in range(hook.blocks[deg].dim):
                    cert = cogeneration_search(n, {pos: Fraction(1)}, deg=deg)
                    assert cert.scalar != 0

    def test_zero_class_rejected(self):
        with pytest.raises(ValueError):
            cogeneration_search(3, {}, deg=(1, 1, 0))


class TestExport:
    def test_n3_generator_table(self):
        table = export_homology(3)
        points = sorted((g["Q"], g["A"], g["T"]) for g in table["generators"])
        assert points == FIGURE_POINTS
        bottom = [g for g in table["generators"] if g["A"] == 0]
        assert [(g["Q"], g["T"]) for g in sorted(bottom, key=lambda g: g["Q"])] == [
            (-6, 0), (-2, 2), (0, 4), (2, 4), (6, 6),
        ]

    def test_n2_generator_table(self):
        table = export_homology(2)
        points = sorted((g["Q"], g["A"], g["T"]) for g in table["generators"])
        assert points == [(-2, 0, 0), (0, 2, 3), (2, 0, 2)]

    def test_custom_dictionary_is_a_relabeling(self):
        custom = GradingDictionary(
            q1=Fraction(1), q2=Fraction(0), q0=Fraction(5),
            t1=Fraction(-1), t2=Fraction(2), t0=Fraction(0),
            a1=Fraction(1), a0=Fraction(7),
        )
        base = export_homology(2)
        remapped = export_homology(2, custom)
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
            export_homology(3, halves)

    def test_fit_has_zero_residual_and_matches_default(self):
        table = export_homology(3)
        by_point = {(g["Q"], g["A"], g["T"]): tuple(g["degree"]) for g in table["generators"]}
        pts = [(by_point[p], p) for p in FIGURE_POINTS]
        fitted, residual = fit_dictionary(pts)
        assert residual == 0
        assert fitted == GradingDictionary.default_for(3)

    def test_fit_rejects_inconsistent_data(self):
        pts = [((0, 0, 0), (0, 0, 0)), ((1, 0, 0), (2, 0, 0)),
               ((0, 1, 0), (-2, 0, 0)), ((2, 0, 0), (5, 0, 0))]
        with pytest.raises(ValueError):
            fit_dictionary(pts)
