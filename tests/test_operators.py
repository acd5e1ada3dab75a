from fractions import Fraction
from itertools import product

import pytest

import operator_oracle
from memo import memo
from harmonica import operators, verify
from harmonica.operators import (
    OperatorMatrix,
    OperatorSpec,
    WellDefinednessError,
    _is_equivariant,
    bracket,
    bracket_mismatch,
    check_preserves,
    compose,
    is_zero_on,
    matrix_json,
    matrix_of,
)
from harmonica.spaces import (
    GradedSubspace,
    QuotientSpace,
    antisymmetric_ideal,
    clear_registry,
    coinvariants,
    harmonics,
    hook_component,
    poly_to_vec,
    sign_component,
)
from harmonica.superpoly import (
    DiffOperator,
    Monomial,
    OpTerm,
    Polynomial,
    TriDegree,
    apply_op,
    op_partial_x,
    render,
    tridegree_shift,
    vandermonde,
)


def brackets(u, v, space):
    """Matrices of the graded commutator [u, v] on each stored piece."""
    return {deg: operators._bracket_piece(u, v, space, deg) for deg in space.support()}


def scaled(columns, a):
    """a times the matrix with these columns."""
    return [{r: a * x for r, x in col.items()} for col in columns]


def added(columns, others):
    """The sum of two matrices of the same shape, entry by entry, zeros dropped."""
    out = []
    for col, other in zip(columns, others, strict=True):
        total = {r: col.get(r, 0) + other.get(r, 0) for r in {*col, *other}}
        out.append({r: x for r, x in total.items() if x})
    return out


class TestMatrixOf:
    def test_f1_into_the_top_line(self):
        s3 = sign_component(coinvariants(3))
        om = matrix_of(OperatorSpec.F(3, 1), s3, (2, 1, 0))
        assert om.target == TriDegree(3, 0, 0)
        assert (s3.dim(om.target), len(om.columns)) == (1, 1)
        assert not om.is_zero()

    def test_f2_into_the_top_line(self):
        s3 = sign_component(coinvariants(3))
        om = matrix_of(OperatorSpec.F(3, 2), s3, (1, 1, 0))
        assert (s3.dim(om.target), len(om.columns)) == (1, 1)
        assert not om.is_zero()

    def test_f3_vanishes_on_every_hook_piece(self):
        assert is_zero_on(OperatorSpec.F(3, 3), hook_component(3))

    def test_threshold_is_sharp(self):
        hook = hook_component(3)
        assert not is_zero_on(OperatorSpec.F(3, 1), hook)
        assert not is_zero_on(OperatorSpec.F(3, 2), hook)
        assert is_zero_on(OperatorSpec.F(3, 4), hook)

    def test_is_zero_on_stops_at_the_first_nonzero_piece(self, monkeypatch):
        computed = []
        real = operators._matrix

        def counting(spec, space, deg):
            computed.append(deg)
            return real(spec, space, deg)

        monkeypatch.setattr(operators, "_matrix", counting)
        hook = hook_component(3)
        fresh = QuotientSpace(3, "hook", hook.blocks)  # no matrices memoised yet
        assert not is_zero_on(OperatorSpec.F(3, 1), fresh)
        assert 0 < len(computed) < len(fresh.support())

    def test_target_without_classes_applies_nothing(self, monkeypatch):
        spec = OperatorSpec.F(3, 1)
        hook = hook_component(3)
        fresh = QuotientSpace(3, "hook", hook.blocks)  # no matrices memoised yet
        operators._certified(spec, fresh)  # the certificate applies the operator; the matrix must not
        deg = next(d for d in fresh.support() if spec.target_degree(d) not in fresh.blocks)
        tdeg, D = spec.target_degree(deg), spec.diff_operator()
        built = []
        real = operators.column_map
        monkeypatch.setattr(operators, "column_map", lambda op, d: built.append(d) or real(op, d))
        om = matrix_of(spec, fresh, deg)
        assert built == []
        # The matrix of the loop without the skip: every image has the empty class.
        block = fresh.blocks[deg]
        assert all(fresh.coords(tdeg, poly_to_vec(operator_oracle.apply_op(D, block.rep_poly(pos)), tdeg)) == {}
                   for pos in range(block.dim))
        assert om == OperatorMatrix(deg, tdeg, [{}] * fresh.dim(deg))
        assert fresh.dim(deg) > 0 and fresh.dim(tdeg) == 0

    def test_no_ambient_basis_is_read_where_nothing_is_applied(self):
        # An empty source piece, and a piece whose target has no classes:
        # no column map is built, so no ambient basis is built, though a
        # column map at either piece would build one: no build has read
        # their bases.
        spec = OperatorSpec.F(3, 1)
        clear_registry()
        fresh = QuotientSpace(3, "hook", hook_component(3).blocks)  # no matrices memoised yet
        operators._certified(spec, fresh)
        into_zero = next(d for d in fresh.support() if spec.target_degree(d) not in fresh.blocks)
        assert fresh.dim(into_zero) > 0 and TriDegree(4, 4, 0) not in fresh.blocks
        before = {key for key in memo(3) if key[0] == "basis"}
        assert not {("basis", TriDegree(4, 4, 0)), ("basis", spec.target_degree(into_zero))} & before
        for deg in (TriDegree(4, 4, 0), into_zero):
            assert matrix_of(spec, fresh, deg).is_zero()
        assert {key for key in memo(3) if key[0] == "basis"} == before

    def test_subspace_target_off_its_support_still_yields_the_witness(self):
        # E1 x1 = y1 lands where W has no piece; W answers that it is not zero there.
        deg = TriDegree(1, 0, 0)
        W = GradedSubspace(2, "w", {deg: [poly_to_vec(Polynomial.x(2, 0), deg)]})
        assert not W.is_zero_at(OperatorSpec.E(2, 1).target_degree(deg))
        with pytest.raises(WellDefinednessError) as info:
            matrix_of(OperatorSpec.E(2, 1), W, deg)
        assert info.value.witness == Polynomial.x(2, 0)

    def test_missing_source_piece_gives_empty_matrix(self):
        s2 = sign_component(coinvariants(2))
        om = matrix_of(OperatorSpec.F(2, 1), s2, (5, 5, 0))
        assert om.columns == [] and s2.dim(om.target) == 0


class TestCheckPreserves:
    def test_e2_preserves_j_n2(self):
        ok, witness = check_preserves(OperatorSpec.E(2, 2), antisymmetric_ideal(2, "J", max_total=3))
        assert ok and witness is None

    def test_f1_preserves_mj_n3(self):
        ok, _ = check_preserves(OperatorSpec.F(3, 1), antisymmetric_ideal(3, "mJ", max_total=3))
        assert ok

    def test_f1_well_defined_on_coinvariants(self):
        ok, _ = check_preserves(OperatorSpec.F(3, 1), coinvariants(3))
        assert ok

    def test_witness_for_non_preserving_operator(self):
        # the odd contraction with N = 0 does not descend to the hook model
        hook = hook_component(2)
        ok, witness = check_preserves(OperatorSpec.d(2, 0), hook)
        assert not ok and witness is not None

    @pytest.mark.parametrize("members", [
        [Polynomial.x(2, 0)],  # E1 x1 = y1 lands where W has no piece
        [Polynomial.x(2, 0), Polynomial.y(2, 1)],  # ... and outside span{y2}
    ])
    def test_subspace_witness_is_the_escaping_basis_vector(self, members):
        pieces = {}
        for p in members:
            deg = p.tridegree()
            pieces.setdefault(deg, []).append(poly_to_vec(p, deg))
        W = GradedSubspace(2, "w", pieces)
        assert check_preserves(OperatorSpec.E(2, 1), W) == (False, Polynomial.x(2, 0))

    def test_relabeling_dependent_operator_is_not_equivariant(self, monkeypatch):
        # d/dx3 at n = 3 is moved only by the last adjacent transposition.
        monkeypatch.setattr(OperatorSpec, "diff_operator", lambda self: op_partial_x(3, 2))
        assert not _is_equivariant(OperatorSpec.F(3, 1))

    def test_a_kind_without_structural_certificate_raises(self, monkeypatch):
        # F*, E* have no structural certificate on a quotient, and there is no other.
        stars = [OperatorSpec("Fstar", 3, (1,)), OperatorSpec("Estar", 3, (1,)), OperatorSpec("Fstar", 3, (2,))]
        for space in (coinvariants(3), hook_component(3)):
            for spec in stars:
                with pytest.raises(NotImplementedError):
                    check_preserves(spec, space)
            # In a suite that is a failing check with the exception as its witness.
            results = []
            verify._check(results, "F*2",
                          lambda: verify._rendered(check_preserves(stars[2], space)[1]))
            assert not results[0].passed and results[0].witness.startswith("NotImplementedError: ")
        # A kind `_KINDS` does not declare (the wedge with omega_N is no longer
        # one) raises before its operator is read, whatever that operator is.
        mult = Monomial((0, 0, 1), (0, 0, 0), ())
        op = DiffOperator(3, [OpTerm(Fraction(1), mult, (0, 0, 0), (0, 0, 0), ())])
        monkeypatch.setattr(OperatorSpec, "diff_operator", lambda self: op)
        with pytest.raises(NotImplementedError):
            check_preserves(OperatorSpec("wedge", 3, (1,)), hook_component(3))

    @pytest.mark.parametrize("build, witness_f2", [
        (coinvariants, "x1^2 - x2*x3"),
        (hook_component, "x2^2*th1 - x2*x3*th3"),
    ])
    def test_exhaustive_certificate_on_quotients(self, build, witness_f2):
        # The oracle checks the relation rows one by one, where no structural certificate applies.
        space = build(3)
        for spec in (OperatorSpec("Fstar", 3, (1,)), OperatorSpec("Estar", 3, (1,)), OperatorSpec("Fstar", 3, (2,))):
            with pytest.raises(NotImplementedError):
                operators.structural_certificate(spec, space.kind)
        assert operator_oracle.check_preserves(OperatorSpec("Fstar", 3, (1,)), space) == (True, None)
        assert operator_oracle.check_preserves(OperatorSpec("Estar", 3, (1,)), space) == (True, None)
        f2 = OperatorSpec("Fstar", 3, (2,))
        ok, witness = operator_oracle.check_preserves(f2, space)
        assert not ok and render(witness) == witness_f2
        deg = witness.tridegree()
        tdeg = f2.target_degree(deg)
        assert space.coords(deg, poly_to_vec(witness, deg)) == {}
        assert space.coords(tdeg, poly_to_vec(apply_op(f2.diff_operator(), witness), tdeg))

    def test_matrix_of_raises_on_ill_defined_operator(self):
        hook = hook_component(2)
        with pytest.raises(WellDefinednessError):
            matrix_of(OperatorSpec.d(2, 0), hook, (0, 0, 1))


class TestBrackets:
    def test_v20_v02_is_4_v11(self):
        v = OperatorSpec.hamiltonian
        assert bracket_mismatch(v(3, 2, 0), v(3, 0, 2), hook_component(3), 4, v(3, 1, 1)) is None

    def test_v10_v01_commute_on_free_pieces(self):
        # on the free superalgebra the two divergence fields commute
        from harmonica.superpoly import Polynomial, apply_op, op_hamiltonian

        import random

        rng = random.Random(3)
        v10 = op_hamiltonian(2, 1, 0)
        v01 = op_hamiltonian(2, 0, 1)
        for _ in range(20):
            terms = {}
            from harmonica.superpoly import Monomial

            for _ in range(4):
                xe = tuple(rng.randint(0, 2) for _ in range(2))
                ye = tuple(rng.randint(0, 2) for _ in range(2))
                terms[Monomial(xe, ye, ())] = Fraction(rng.randint(-2, 2))
            p = Polynomial(2, terms)
            lhs = apply_op(v10, apply_op(v01, p))
            rhs = apply_op(v01, apply_op(v10, p))
            assert lhs == rhs

    def test_fk_em_bracket_matches_vector_field(self):
        hook = hook_component(3)
        for k in (1, 2):
            for m in (1, 2):
                br = brackets(OperatorSpec.F(3, k), OperatorSpec.E(3, m), hook)
                for deg, om in br.items():
                    expected = matrix_of(OperatorSpec.hamiltonian(3, k, m), hook, deg)
                    assert om.columns == scaled(expected.columns, -1)

    def test_fk_pairwise_commute(self):
        hook = hook_component(3)
        br = brackets(OperatorSpec.F(3, 1), OperatorSpec.F(3, 2), hook)
        assert all(om.is_zero() for om in br.values())

    def test_pieces_bracketing_into_a_zero_piece_are_skipped(self, monkeypatch):
        hook = hook_component(3)
        v = OperatorSpec.hamiltonian
        u, w = v(3, 2, 1), v(3, 1, 2)
        computed = []
        real = operators._bracket_piece

        def recorded(u, v, space, deg):
            computed.append(deg)
            return real(u, v, space, deg)

        monkeypatch.setattr(operators, "_bracket_piece", recorded)
        assert bracket_mismatch(u, w, hook, -3, v(3, 2, 2)) is None
        live = [deg for deg in hook.support() if not hook.is_zero_at(u.target_degree(w.target_degree(deg)))]
        assert computed == live and len(live) < len(hook.support())

    def test_a_wrong_structure_constant_still_names_its_first_piece(self):
        # Negative control: [v(2,0), v(0,2)] = 4 v(1,1), asked as 5 v(1,1).
        hook = hook_component(3)
        v = OperatorSpec.hamiltonian
        u, w, target = v(3, 2, 0), v(3, 0, 2), v(3, 1, 1)
        first = next(deg for deg, om in brackets(u, w, hook).items()
                     if om.columns != scaled(matrix_of(target, hook, deg).columns, 5))
        assert bracket_mismatch(u, w, hook, 5, target) == first

    def test_d0_inside_a_bracket_still_fails_with_its_witness(self, monkeypatch):
        # Negative control: d_0 does not descend to the hook (d_0 omega_0 = 3).
        # Its certificate is read up front, even where every piece is skipped.
        hook = hook_component(3)
        for skip_all in (False, True):
            if skip_all:
                monkeypatch.setattr(hook, "is_zero_at", lambda deg: True)
            with pytest.raises(WellDefinednessError) as exc:
                bracket_mismatch(OperatorSpec.F(3, 1), OperatorSpec.d(3, 0), hook)
            assert exc.value.witness == Polynomial.one(3).scale(Fraction(3))


class TestGradedBracket:
    def test_odd_pair_is_the_anticommutator_and_even_odd_the_commutator(self):
        hook = hook_component(3)
        d1, d2, f1 = OperatorSpec.d(3, 1), OperatorSpec.d(3, 2), OperatorSpec.F(3, 1)

        def product(u, v, deg):
            return compose(matrix_of(u, hook, v.target_degree(deg)), matrix_of(v, hook, deg))

        for (u, v, sign) in ((d1, d2, 1), (f1, d1, -1)):
            br = brackets(u, v, hook)
            assert set(br) == set(hook.support())
            assert any(not product(u, v, deg).is_zero() for deg in br)  # so the sign matters
            for deg, om in br.items():
                assert om.columns == added(product(u, v, deg).columns, scaled(product(v, u, deg).columns, sign))

    def test_bracket_leaves_its_four_matrices_as_they_were(self):
        # The sum is taken in place on the columns of u v, which compose builds anew.
        hook = hook_component(3)
        f1, d1 = OperatorSpec.F(3, 1), OperatorSpec.d(3, 1)
        for deg in hook.support():
            four = (matrix_of(f1, hook, d1.target_degree(deg)), matrix_of(d1, hook, deg),
                    matrix_of(d1, hook, f1.target_degree(deg)), matrix_of(f1, hook, deg))
            before = [[dict(col) for col in om.columns] for om in four]
            bracket(*four, -1)
            assert [om.columns for om in four] == before

    def test_bracket_rejects_different_total_shifts(self):
        hook = hook_component(3)
        f1, f2 = OperatorSpec.F(3, 1), OperatorSpec.F(3, 2)
        deg = TriDegree(0, 3, 0)
        f1f2 = (matrix_of(f1, hook, f2.target_degree(deg)), matrix_of(f2, hook, deg))
        f1f1 = (matrix_of(f1, hook, f1.target_degree(deg)), matrix_of(f1, hook, deg))
        with pytest.raises(ValueError, match="different total shifts"):
            bracket(*f1f2, *f1f1, -1)


class TestDifferentials:
    def test_commutation_with_f(self):
        hook = hook_component(3)
        assert bracket_mismatch(OperatorSpec.F(3, 1), OperatorSpec.d(3, 1), hook) is None
        assert bracket_mismatch(OperatorSpec.F(3, 2), OperatorSpec.d(3, 2), hook) is None

    @pytest.mark.parametrize("n,totals", [(2, [1, 3]), (3, [1, 5, 11]), (4, [1, 9, 23, 45])])
    def test_homology_of_each_differential(self, n, totals):
        # dim H(d_N) for N = 1..n: H(d_1) is one class, at (0, C(n,2), 0), and
        # d_n = 0 leaves the whole hook.
        hook = hook_component(n)
        dims = [verify._homology_dims(OperatorSpec.d(n, N), hook) for N in range(1, n + 1)]
        assert [sum(h.values()) for h in dims] == totals and totals[-1] == hook.total_dim()
        assert dims[0] == {TriDegree(0, n * (n - 1) // 2, 0): 1}

    def test_a_differential_with_more_homology_fails_the_one_class_check(self):
        # Negative control: H(d_2) at n = 3 has five classes.
        hook = hook_component(3)
        bottom = TriDegree(0, 3, 0)
        assert verify._one_class_homology(OperatorSpec.d(3, 1), hook, bottom) is None
        witness = verify._one_class_homology(OperatorSpec.d(3, 2), hook, bottom)
        assert witness.startswith("H(d2): got ") and witness.endswith(f"expected {{{bottom!r}: 1}}")

    def test_a_nonzero_differential_fails_the_vanishing_check(self):
        # Negative control: d_{n-1} is nonzero on the hook, d_n and d_{n+1} vanish.
        hook = hook_component(3)
        d = OperatorSpec.d
        assert verify._first_nonzero((d(3, 3), d(3, 4)), hook) is None
        assert verify._first_nonzero((d(3, 2), d(3, 3)), hook) == "d2 != 0"

    def test_anticommutation(self):
        hook = hook_component(3)
        d1, d2 = OperatorSpec.d(3, 1), OperatorSpec.d(3, 2)
        for deg in sorted(hook.blocks):
            a = compose(matrix_of(d1, hook, d2.target_degree(deg)), matrix_of(d2, hook, deg))
            b = compose(matrix_of(d2, hook, d1.target_degree(deg)), matrix_of(d1, hook, deg))
            assert not any(added(a.columns, b.columns))


class TestPlumbing:
    def test_compose_rejects_mismatched_degrees(self):
        s2 = sign_component(coinvariants(2))
        m1 = matrix_of(OperatorSpec.F(2, 1), s2, (0, 1, 0))
        with pytest.raises(ValueError):
            compose(m1, m1)

    def test_matrix_json_rational_entries(self):
        s3 = sign_component(coinvariants(3))
        om = matrix_of(OperatorSpec.F(3, 1), s3, (2, 1, 0))
        payload = matrix_json(om, s3)
        assert payload["rows"] == 1 and payload["cols"] == 1
        assert payload["source"] == [2, 1, 0] and payload["target"] == [3, 0, 0]
        for (r, c, s) in payload["entries"]:
            assert Fraction(s) == om.columns[c][r]  # parses exactly

    def test_matrix_json_lists_entries_by_row_then_column(self):
        # Two columns, three entries: the entries are sorted by (row, column),
        # not read column by column, and the row count is the target's dimension.
        deg, tdeg = TriDegree(0, 0, 0), TriDegree(1, 0, 0)

        class Space:
            def dim(self, d):
                return {tdeg: 3}[d]

        om = OperatorMatrix(deg, tdeg, [{2: Fraction(1, 2), 0: Fraction(-1)}, {1: Fraction(3)}])
        assert matrix_json(om, Space()) == {
            "source": [0, 0, 0], "target": [1, 0, 0], "rows": 3, "cols": 2,
            "entries": [[0, 0, "-1"], [1, 1, "3"], [2, 0, "1/2"]],
        }

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_shift_and_label_match_the_oracle(self, n):
        """Every kind, parameters 0..3 where its constructor accepts them."""
        kinds = {"F": 1, "E": 1, "Fstar": 1, "Estar": 1, "d": 1, "ham": 2}
        assert set(kinds) == set(operators._KINDS)
        checked = refused = 0
        for kind, arity in kinds.items():
            for params in product(range(4), repeat=arity):
                spec = OperatorSpec(kind, n, params)
                try:
                    op = spec.diff_operator()
                except ValueError:
                    refused += 1
                    continue
                assert spec.diff_operator() is op
                assert spec.shift() == operator_oracle.shift(spec), spec
                assert tridegree_shift(op) == operator_oracle.shift(spec), spec
                assert spec.label() == operator_oracle.label(spec), spec
                checked += 1
        assert (checked, refused) == (31, 5)  # refused: k = 0 for F, E, F*, E*; v(0,0)

    def test_labels(self):
        assert OperatorSpec.F(3, 1).label() == "F1"
        assert OperatorSpec("Estar", 3, (2,)).label() == "E*2"
        assert OperatorSpec.hamiltonian(3, 2, 0).label() == "v(2,0)"


class TestMatricesAgainstTheOracle:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", ["dh", "hook"])
    def test_every_matrix_is_the_one_built_on_polynomials(self, n, kind):
        # Each F, E, F*, E*, d and v matrix, or the witness a subspace raises,
        # equals the one built through the oracle's apply_op on polynomials.
        # F* and E* have no certificate on a quotient, so only dh takes them.
        space = harmonics(n) if kind == "dh" else hook_component(n)
        kinds = ("F", "E", "d") + (("Fstar", "Estar") if kind == "dh" else ())
        specs = [OperatorSpec(k, n, (j,)) for k in kinds for j in range(1, n + 1)]
        specs += [OperatorSpec.hamiltonian(n, a, s - a) for s in range(2, n + 1) for a in range(s + 1)]
        raised = 0
        for spec in specs:
            for deg in space.support():
                try:
                    got = matrix_of(spec, space, deg).columns
                except WellDefinednessError as exc:
                    got = exc.witness
                try:
                    want = operator_oracle.matrix(spec, space, deg)
                except WellDefinednessError as exc:
                    want = exc.witness
                    raised += 1
                assert got == want, (spec, deg)
                if isinstance(got, list):
                    assert len(got) == space.dim(deg)
                    assert all(type(v) is Fraction and v for col in got for v in col.values())
                    assert all(0 <= r < space.dim(spec.target_degree(deg)) for col in got for r in col)
        assert (raised > 0) == (kind == "dh")  # F_k and E_k for k >= 2 leave the harmonics


class TestOperatorSpan:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("family", ["full", "sign"])
    def test_janet_order_gives_the_rref_of_every_product(self, n, family):
        # Janet order applies each product of the commuting operators once;
        # the depth-first closure applies every operator to every independent
        # element.  Both reach the same RREF at every tridegree.
        ops = operator_oracle.span_families(n)[family]
        seeds = [vandermonde("x", n)]
        janet = verify._operator_span(seeds, ops)
        every = operator_oracle.operator_span(n, seeds, ops)
        assert sorted(janet) == sorted(every)
        assert all(janet[deg].row_vectors() == every[deg].row_vectors() for deg in every)
