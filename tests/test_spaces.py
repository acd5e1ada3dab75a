import random
from fractions import Fraction
from itertools import permutations

import pytest

import build_oracle
from build_oracle import invariant_ideal_piece
from operator_oracle import op_partial_y, op_power_sum_deriv, vec_to_poly
from sign_oracle import sym
from harmonica import spaces, verify
from harmonica.linalg import RrefAccumulator, rref
from harmonica.spaces import (
    GradedSubspace,
    ResourceCapExceeded,
    _build_even_block,
    _signed_orbit_sums,
    _span,
    ambient_basis,
    antisymmetric_ideal,
    coinvariants,
    default_ideal_degree_cap,
    harmonics,
    hook_component,
    ideal_quotient_series,
    poly_to_vec,
    sign_component,
)
from harmonica.superpoly import (
    Monomial,
    Polynomial,
    TriDegree,
    act,
    alt,
    apply_op,
    compositions,
    monomial_pair_weight,
    op_E,
    pairing,
    render,
    vandermonde,
)


class TestInvariantIdealPiece:
    def test_n2_bidegree_10(self):
        m = invariant_ideal_piece(2, (1, 0))
        _, _, rank = rref(m)
        assert rank == 1  # the span of x1 + x2

    def test_n2_bidegree_11_full_rank(self):
        # With all polarized power sums (including the mixed one) the piece
        # fills the whole ambient space, so the quotient there is zero; this
        # is forced by the total dimension 3.
        m = invariant_ideal_piece(2, (1, 1))
        _, _, rank = rref(m)
        assert rank == 4
        assert coinvariants(2).dim((1, 1, 0)) == 0

    def test_n3_total_dimension(self):
        dr = coinvariants(3)
        total = 0
        for deg in dr.blocks:
            total += dr.blocks[deg].dim
        assert total == 16

    def test_spanning_rank_matches_quotient_presentation(self):
        # The staged construction must reproduce the rank of the naive span.
        for n in (2, 3):
            dr = coinvariants(n)
            for (a, b) in [(1, 1), (2, 1), (2, 2), (3, 0)]:
                m = invariant_ideal_piece(n, (a, b))
                _, _, rank = rref(m)
                blk = dr.block((a, b, 0))
                qdim = blk.dim if blk else 0
                assert m.rows - rank == qdim


class TestCoinvariants:
    @pytest.mark.parametrize("n,total", [(2, 3), (3, 16), (4, 125)])
    def test_total_dimension(self, n, total):
        assert coinvariants(n).total_dim() == total

    @pytest.mark.parametrize("a,b,dim", [(4, 2, 54), (3, 3, 58)])
    def test_n5_block_dimension(self, a, b, dim):
        # Parking functions of size 5 with (area, dinv) = (a, b); their
        # generating function is Hilb(DR_5; q, t) (Haglund-Loehr 2005).
        assert _build_even_block(5, a, b).dim == dim

    def test_cap_enforced(self):
        with pytest.raises(ResourceCapExceeded):
            coinvariants(5)
        with pytest.raises(ResourceCapExceeded):
            coinvariants(6, allow_large=True)

    def test_relations_are_sn_stable(self):
        dr = coinvariants(3)
        for deg in list(dr.blocks)[:6]:
            block = dr.blocks[deg]
            for _, row in block.relation_rows():
                poly = vec_to_poly(row, 3, deg)
                for sigma in permutations(range(3)):
                    moved = act(sigma, poly)
                    assert not dr.coords(deg, poly_to_vec(moved, deg))

    def test_normal_form_is_projector(self):
        dr = coinvariants(3)
        deg = TriDegree(2, 1, 0)
        block = dr.block(deg)
        monos, _ = ambient_basis(3, deg)
        for j in range(len(monos)):
            nf = block.normal_form({j: Fraction(1)})
            assert block.normal_form(nf) == nf

    def test_invariants_are_constants(self):
        for n in (2, 3):
            dr = coinvariants(n)
            for deg, block in dr.blocks.items():
                acc = RrefAccumulator()
                for pos in range(block.dim):
                    image = sym(block.rep_poly(pos))
                    acc.insert(block.class_of_vec(poly_to_vec(image, deg)))
                expected = 1 if deg == (0, 0, 0) else 0
                assert acc.rank == expected


class TestBlockBuild:
    """What the coinvariant and harmonic builds hand to the kernel, and where
    their scans stop."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("name,build", [("_build_even_block", coinvariants),
                                            ("_build_harmonic_piece", harmonics)])
    def test_scan_stops_at_the_top_degree(self, n, name, build, monkeypatch):
        built = []
        original = getattr(spaces, name)

        def counted(n, a, b):
            built.append(a + b)
            return original(n, a, b)

        spaces.clear_registry()
        monkeypatch.setattr(spaces, name, counted)
        try:
            space = build(n)
        finally:
            spaces.clear_registry()
        top = n * (n - 1) // 2
        assert max(d.dx + d.dy for d in space.support()) == top
        # Every bidegree up to the top total degree, and none past it.
        assert sorted(built) == [d for d in range(top + 1) for _ in range(d + 1)]

    @pytest.mark.parametrize("kind", ["drn", "dh"])
    def test_a_piece_that_loses_a_dimension_raises_naming_both_totals(self, kind, monkeypatch):
        # Negative control: one rep, or one harmonic, of bidegree (1, 1) dropped.
        spaces.clear_registry()
        if kind == "drn":
            even_block = spaces._even_block

            def losing(n, a, b):
                blk = even_block(n, a, b)
                return spaces.Block(n, blk.deg, blk.reps[1:], blk.nf) if (a, b) == (1, 1) else blk

            monkeypatch.setattr(spaces, "_even_block", losing)
        else:
            piece = spaces._build_harmonic_piece
            monkeypatch.setattr(spaces, "_build_harmonic_piece",
                                lambda n, a, b: piece(n, a, b)[(a, b) == (1, 1):])
        try:
            with pytest.raises(ArithmeticError, match=r"^the pieces up to total degree 3 have "
                                                      r"dimension 15, \(n\+1\)\^\(n-1\) is 16$"):
                (coinvariants if kind == "drn" else harmonics)(3)
        finally:
            spaces.clear_registry()

    def test_block_rows_are_rep_products_inserted_right_to_left(self, monkeypatch):
        n, a, b = 5, 4, 3
        spaces.clear_registry()
        fam = spaces._workspace(n).family
        bound = sum(len(fam.deg(a - c).reps) * len(fam.deg(b - d).reps)
                    for (c, d) in spaces._mixed_generators(n) if c <= a and d <= b)
        keys = []
        insert = spaces.RrefAccumulator.insert

        def recording_insert(self, vec):
            keys.append((-min(vec), len(vec)))
            return insert(self, vec)

        monkeypatch.setattr(spaces.RrefAccumulator, "insert", recording_insert)
        try:
            assert spaces._build_even_block(n, a, b).dim == 34
        finally:
            spaces.clear_registry()
        assert 0 < len(keys) <= bound
        # Leading column descending, then nnz.
        assert keys == sorted(keys)

    @pytest.mark.parametrize("kind", ["drn", "hook"])
    @pytest.mark.parametrize("order", ["sparsest-first", "random"])
    def test_blocks_do_not_depend_on_the_insertion_order(self, kind, order, monkeypatch):
        # The accumulator keeps the canonical RREF, so every block's reps and
        # normal forms are the same whatever order the candidate rows go in.
        build = coinvariants if kind == "drn" else hook_component
        rng = random.Random(2024)
        reorder = {
            "sparsest-first": lambda rows: sorted(rows, key=lambda row: (len(row), min(row))),
            "random": lambda rows: rng.sample(rows, len(rows)),
        }[order]

        def insert_reordered(rows):
            return _span(reorder([row for row in rows if row]))

        def presentation(n):
            spaces.clear_registry()
            try:
                return {deg: (blk.reps, blk.nf) for deg, blk in build(n).blocks.items()}
            finally:
                spaces.clear_registry()

        for n in (2, 3, 4):
            default = presentation(n)
            with monkeypatch.context() as patch:
                patch.setattr(spaces, "_insert_right_to_left", insert_reordered)
                assert presentation(n) == default


class TestSingleFamily:
    """Q[z_1..z_n] modulo its power sums, by division by the monic lex
    Groebner basis h_k(z_k, .., z_n): the RREF's reps and normal forms,
    integral, with no elimination."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_degree_is_integral(self, n):
        # Against the row-reduced family the build used before division.
        fam, ref = spaces._SingleFamily(n), build_oracle._SingleFamily(n)
        for d in range(n * (n - 1) // 2 + 2):
            assert fam.deg(d).monos == ref.deg(d).monos
            assert fam.deg(d).reps == ref.deg(d).reps
            for m in fam.deg(d).monos:
                assert fam.nf(m) == ref.nf(m)
                assert all(type(v) is int for v in fam.nf(m).values())

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_reps_count_permutations_and_the_generators_reduce_to_zero(self, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a single-family build inserted a row")

        monkeypatch.setattr(RrefAccumulator, "insert", refuse)
        fam = spaces._SingleFamily(n)
        top = n * (n - 1) // 2
        assert [len(fam.deg(d).reps) for d in range(top + 2)] == verify._q_factorial_coeffs(n) + [0]

        def reduces_to_zero(monomials):
            total: dict = {}
            for m in monomials:
                for j, c in fam.nf(m).items():
                    total[j] = total.get(j, 0) + c
            return not any(total.values())

        for k in range(1, n + 1):
            unit = [tuple(k if i == j else 0 for i in range(n)) for j in range(n)]
            assert reduces_to_zero(unit)  # p_k
            assert reduces_to_zero((0,) * (k - 1) + beta for beta in compositions(k, n - k + 1))  # h_k(z_k..z_n)


class TestHarmonics:
    def test_n2_linear_piece(self):
        dh = harmonics(2)
        deg = TriDegree(1, 0, 0)
        polys = [vec_to_poly(vec, 2, deg) for vec in dh.basis(deg)]
        assert len(polys) == 1
        assert render(polys[0]) == "x1 - x2"

    def test_duality_of_series(self):
        for n in (2, 3):
            assert harmonics(n).hilbert() == coinvariants(n).hilbert()

    def test_harmonics_are_killed_by_invariant_derivatives(self):
        for n in (2, 3):
            dh = harmonics(n)
            for deg in dh.support():
                for vec in dh.basis(deg):
                    p = vec_to_poly(vec, n, deg)
                    for a in range(n + 1):
                        for b in range(n + 1):
                            if 1 <= a + b <= n:
                                assert not apply_op(op_power_sum_deriv(n, a, b), p).terms

    def test_sign_piece_contains_vandermonde(self):
        dh3 = sign_component(harmonics(3))
        deg = TriDegree(3, 0, 0)
        assert dh3.dim(deg) == 1
        assert dh3.coords(deg, poly_to_vec(vandermonde("x", 3), deg)) is not None

    @pytest.mark.parametrize("fault", ["added monomial", "dropped relation"])
    def test_duality_names_a_piece_a_power_sum_does_not_kill(self, fault, monkeypatch):
        n, deg = 4, TriDegree(1, 3, 0)
        name = "every harmonic is killed by every p_{c,d}(d/dx, d/dy), 1 <= c+d <= n"
        spaces.clear_registry()
        try:
            assert all(r.passed for r in verify.suite_duality(n))
            dh = harmonics(n)
            pieces = dict(dh.pieces)
            if fault == "added monomial":
                vec = dict(pieces[deg][0])
                vec[min(j for j in range(len(ambient_basis(n, deg)[0])) if j not in vec)] = Fraction(1)
                pieces[deg] = [vec] + pieces[deg][1:]
            else:
                block = spaces._even_block(n, deg.dx, deg.dy)
                dropped = min(block.nf)
                nf = {c: v for c, v in block.nf.items() if c != dropped}
                faulty = spaces.Block(n, deg, sorted(block.reps + [dropped]), nf)
                monkeypatch.setattr(spaces, "_even_block", lambda n, a, b: faulty)
                pieces[deg] = spaces._build_harmonic_piece(n, deg.dx, deg.dy)
                assert len(pieces[deg]) == block.dim + 1
            spaces._workspace(n).spaces["dh"] = GradedSubspace(n, "dh", pieces)
            results = {r.name: r for r in verify.suite_duality(n)}
        finally:
            spaces.clear_registry()
        assert not results[name].passed
        assert results[name].witness.endswith(f"at {deg}")

    @pytest.mark.parametrize("fault", ["ambient monomial", "weights divided out"])
    def test_duality_names_a_piece_the_relations_do_not_pair_to_zero(self, fault):
        n, deg = 3, TriDegree(2, 0, 0)
        name = "relations pair to zero against harmonics"
        monos, _ = ambient_basis(n, deg)
        spaces.clear_registry()
        try:
            assert all(r.passed for r in verify.suite_duality(n))
            dh = harmonics(n)
            pieces = dict(dh.pieces)
            if fault == "ambient monomial":
                pieces[deg] = [{0: Fraction(2, 3)}]
            else:
                # Orthogonal to the relations without the pair weights.
                pieces[deg] = [{j: v / monomial_pair_weight(monos[j]) for j, v in vec.items()}
                               for vec in pieces[deg]]
            spaces._workspace(n).spaces["dh"] = GradedSubspace(n, "dh", pieces)
            results = {r.name: r for r in verify.suite_duality(n)}
        finally:
            spaces.clear_registry()
        assert not results[name].passed
        assert results[name].witness == f"relation not orthogonal to a harmonic at {deg}"

    def test_orthogonal_to_relations(self):
        n = 3
        dr = coinvariants(n)
        dh = harmonics(n)
        for deg in list(dr.blocks)[:8]:
            block = dr.blocks[deg]
            for vec in dh.basis(deg):
                hp = vec_to_poly(vec, n, deg)
                for _, row in block.relation_rows():
                    assert pairing(vec_to_poly(row, n, deg), hp) == 0


class TestSignAndHook:
    def test_sign_dimensions(self):
        assert sign_component(coinvariants(2)).total_dim() == 2
        s3 = sign_component(coinvariants(3))
        assert s3.total_dim() == 5
        assert s3.hilbert().render() == "q^3 + q^2*t + q*t^2 + q*t + t^3"
        assert sign_component(coinvariants(4)).total_dim() == 14

    def test_hook_dimensions(self):
        assert hook_component(2).hilbert().per_a() == {0: 2, 1: 1}
        h3 = hook_component(3)
        assert h3.hilbert().per_a() == {0: 5, 1: 5, 2: 1}
        assert h3.total_dim() == 11

    def test_hook_a0_slice_is_sign_component(self):
        for n in (2, 3):
            hook = hook_component(n)
            sgn = sign_component(coinvariants(n))
            assert hook.hilbert().slice_a(0) == sgn.hilbert()

    def test_hook_top_slice_is_invariants(self):
        # the top odd slice is one class in bidegree (0, 0)
        for n in (2, 3):
            hook = hook_component(n)
            top = hook.hilbert().slice_a(n - 1)
            assert top.dims == {TriDegree(0, 0, n - 1): 1}

    def test_hook_classes_are_sign_isotypic(self):
        hook = hook_component(3)
        for deg in hook.support():
            block = hook.blocks[deg]
            for pos in range(block.dim):
                p = block.rep_poly(pos)
                for sigma in permutations(range(3)):
                    from harmonica.superpoly import perm_sign

                    moved = act(sigma, p).scale(perm_sign(sigma))
                    # class of sigma(p) times sign equals class of p
                    assert hook.coords(deg, poly_to_vec(moved, deg)) == hook.coords(deg, poly_to_vec(p, deg))


class TestAntisymmetricIdeals:
    def test_lowest_antisymmetric_piece(self):
        J = antisymmetric_ideal(2, "J", max_total=1)
        polys = [vec_to_poly(vec, 2, TriDegree(1, 0, 0)) for vec in J.basis((1, 0, 0))]
        assert len(polys) == 1 and render(polys[0]) == "x1 - x2"

    def test_j_quotient_matches_sign_series(self):
        for n in (2, 3):
            sgn = sign_component(coinvariants(n))
            assert ideal_quotient_series(n, reduced=False) == sgn.hilbert()

    def test_reduced_quotient_matches_hook_series(self):
        for n in (2, 3):
            assert ideal_quotient_series(n, reduced=True) == hook_component(n).hilbert()

    @pytest.mark.parametrize("n", [2, 3])
    def test_omega_wedge_j_lies_in_j(self, n):
        # `ideal_series` reads jbar as rank J - rank(omega_0 ^ J), which holds
        # only if omega_0 ^ J lies in J at every degree the tower builds.
        cap = default_ideal_degree_cap(n)
        antisymmetric_ideal(n, "J", max_total=cap)
        tower = spaces._workspace(n).tower
        for deg in tower.degrees(cap):
            J = tower.J[deg]
            assert _span(tower.omega_rows(deg), J.copy()).rank == J.rank, deg

    @pytest.mark.parametrize("flavor", ["Jbar", "mJbar"])
    def test_only_j_and_mj_have_bases(self, flavor):
        with pytest.raises(ValueError):
            antisymmetric_ideal(2, flavor, max_total=3)

    def test_the_degree_cap_is_required(self):
        with pytest.raises(TypeError):
            antisymmetric_ideal(2, "J")

    def test_mj_inside_j(self):
        J = antisymmetric_ideal(2, "J", max_total=3)
        mJ = antisymmetric_ideal(2, "mJ", max_total=3)
        for deg in mJ.support():
            for vec in mJ.basis(deg):
                assert J.coords(deg, vec) is not None

    @pytest.mark.parametrize("n", [2, 3])
    def test_orbit_seeds_span_the_sign_projections(self, n):
        # Every tridegree the default tower builds: the signed orbit sums span
        # what the sign projections of all monomials span, and each monomial's
        # projection is its sign times its orbit's sum over the orbit size.
        cap = default_ideal_degree_cap(n)
        for total in range(cap + 1):
            for dx in range(total + 1):
                for da in range(n + 1):
                    deg = TriDegree(dx, total - dx, da)
                    monos, _ = ambient_basis(n, deg)
                    projections = [alt(Polynomial.monomial(m)) for m in monos]
                    seeds = _signed_orbit_sums(n, deg)
                    expected = _span(poly_to_vec(p, deg) for p in projections)
                    assert _span(seeds).row_vectors() == expected.row_vectors()
                    for seed in seeds:
                        orbit_sum = vec_to_poly(seed, n, deg).scale(Fraction(1, len(seed)))
                        for j, sign in seed.items():
                            assert projections[j] == orbit_sum.scale(sign)
                    met = {j for seed in seeds for j in seed}
                    assert all(not projections[j].terms for j in range(len(monos)) if j not in met)

    @pytest.mark.parametrize("m,nonzero", [
        (Monomial((0, 0), (0, 0), (0, 1)), True),  # th1 th2
        (Monomial((1, 1), (0, 0), (0, 1)), True),  # x1 x2 th1 th2
        (Monomial((1, 1, 0), (0, 0, 0), ()), False),  # x1 x2 at n = 3
    ])
    def test_repeated_columns_vanish_only_without_theta(self, m, nonzero):
        # Two equal (x, y) columns kill the projection unless both carry th.
        deg = m.tridegree()
        _, index = ambient_basis(m.n, deg)
        assert bool(alt(Polynomial.monomial(m)).terms) == nonzero
        seeds = [s for s in _signed_orbit_sums(m.n, deg) if index[m] in s]
        assert len(seeds) == int(nonzero)

    def test_naive_span_agrees(self):
        # J piece = span of m1 * alt(m2) over all splittings of the bidegree.
        n = 2
        J = antisymmetric_ideal(n, "J", max_total=2)
        deg = TriDegree(1, 1, 0)
        acc = RrefAccumulator()
        for dx1 in range(2):
            for dy1 in range(2):
                lows, _ = ambient_basis(n, TriDegree(dx1, dy1, 0))
                his, _ = ambient_basis(n, TriDegree(1 - dx1, 1 - dy1, 0))
                from harmonica.superpoly import alt

                for m1 in lows:
                    for m2 in his:
                        p = Polynomial.monomial(m1) * alt(Polynomial.monomial(m2))
                        if p.terms:
                            acc.insert(poly_to_vec(p, deg))
        assert acc.rank == J.dim(deg)

    def test_free_module_over_the_two_diagonal_parameters(self):
        # J decomposes as (joint kernel of the two divergence fields) times
        # the polynomial algebra on the two diagonal power sums, degreewise.
        from harmonica.superpoly import op_partial_x

        n = 2
        cap = 4
        J = antisymmetric_ideal(n, "J", max_total=cap)

        def divergence_kernel_dim(deg):
            vecs = J.basis(deg)
            if not vecs:
                return 0
            images = []
            for vec in vecs:
                p = vec_to_poly(vec, n, deg)
                dx_img = Polynomial.zero(n)
                dy_img = Polynomial.zero(n)
                for i in range(n):
                    dx_img = dx_img + apply_op(op_partial_x(n, i), p)
                    dy_img = dy_img + apply_op(op_partial_y(n, i), p)
                images.append((dx_img, dy_img))
            cols = []
            for (dx_img, dy_img) in images:
                col = {}
                if dx_img.terms:
                    for j, c in poly_to_vec(dx_img, TriDegree(deg.dx - 1, deg.dy, deg.da)).items():
                        col[("x", j)] = c
                if dy_img.terms:
                    for j, c in poly_to_vec(dy_img, TriDegree(deg.dx, deg.dy - 1, deg.da)).items():
                        col[("y", j)] = c
                cols.append(col)
            keys = sorted({k for col in cols for k in col})
            key_index = {k: i for i, k in enumerate(keys)}
            from harmonica.linalg import SparseMatrix, kernel_basis

            mat = SparseMatrix.from_columns(
                [{key_index[k]: v for k, v in col.items()} for col in cols], len(keys)
            )
            return len(kernel_basis(mat))

        kernel_dims = {}
        for deg in J.support():
            if deg.da == 0 and deg.dx + deg.dy <= cap:
                kernel_dims[(deg.dx, deg.dy)] = divergence_kernel_dim(deg)
        for a in range(cap + 1):
            for b in range(cap + 1 - a):
                expect = sum(
                    kernel_dims.get((a - i, b - j), 0)
                    for i in range(a + 1)
                    for j in range(b + 1)
                )
                assert J.dim((a, b, 0)) == expect


class TestSolomonInvariants:
    @staticmethod
    def _series_coeff(n, dx, da, reduced):
        # free module on the odd generators over the symmetric polynomials
        gens = range(1, n) if reduced else range(0, n)
        coeffs = {(0, 0): 1}
        for N in gens:
            new = dict(coeffs)
            for (d, a), c in coeffs.items():
                key = (d + N, a + 1)
                new[key] = new.get(key, 0) + c
            coeffs = new
        total = 0
        for (d, a), c in coeffs.items():
            if a == da and d <= dx:
                rest = dx - d
                total += c * _partitions_with_parts(rest, n)
        return total

    def test_invariant_forms_are_free(self):
        for n in (2, 3):
            for dx in range(5):
                for da in range(n + 1):
                    got = _invariant_form_dim(n, dx, da, reduced=False)
                    want = self._series_coeff(n, dx, da, reduced=False)
                    assert got == want, (n, dx, da, got, want)

    def test_reduced_invariant_forms_are_free(self):
        for n in (2, 3):
            for dx in range(5):
                for da in range(n):
                    got = _invariant_form_dim(n, dx, da, reduced=True)
                    want = self._series_coeff(n, dx, da, reduced=True)
                    assert got == want, (n, dx, da, got, want)


def _partitions_with_parts(total, n):
    """Monomial count of degree `total` in the elementary symmetric algebra."""
    if total == 0:
        return 1
    counts = [0] * (total + 1)
    counts[0] = 1
    for part in range(1, n + 1):
        for v in range(part, total + 1):
            counts[v] += counts[v - part]
    return counts[total]


def _invariant_form_dim(n, dx, da, reduced):
    """dim of the S_n-invariants of (odd exterior algebra) x (polynomials in x),
    optionally modulo the wedge by th_1 + .. + th_n."""
    deg = TriDegree(dx, 0, da)
    monos, index = ambient_basis(n, deg)
    if not monos:
        return 0
    acc = RrefAccumulator()
    if reduced and da >= 1:
        lower, _ = ambient_basis(n, TriDegree(dx, 0, da - 1))
        for m in lower:
            inset = set(m.odd)
            row = {}
            for i in range(n):
                if i in inset:
                    continue
                sign = (-1) ** sum(1 for s in m.odd if s < i)
                target = Monomial(m.xe, m.ye, tuple(sorted(m.odd + (i,))))
                row[index[target]] = row.get(index[target], 0) + Fraction(sign)
            acc.insert({k: v for k, v in row.items() if v})
    sym_acc = RrefAccumulator()
    for m in monos:
        image = sym(Polynomial.monomial(m))
        if not image.terms:
            continue
        vec = poly_to_vec(image, deg)
        residual = acc.reduce(vec)
        if residual:
            sym_acc.insert(residual)
    return sym_acc.rank


class TestHilbertSeries:
    def test_dr2_series(self):
        assert coinvariants(2).hilbert().render() == "q + t + 1"

    def test_total_is_specialization(self):
        s = coinvariants(3).hilbert()
        assert s.total() == 16

    def test_symmetry(self):
        for n in (2, 3, 4):
            assert coinvariants(n).hilbert().is_qt_symmetric()

    def test_x_axis_slice_matches_graded_permutation_count(self):
        # [n]!_q coefficients
        expected = {2: [1, 1], 3: [1, 2, 2, 1], 4: [1, 3, 5, 6, 5, 3, 1]}
        for n, coeffs in expected.items():
            dr = coinvariants(n)
            got = [dr.dim((d, 0, 0)) for d in range(len(coeffs))]
            assert got == coeffs


class TestCoords:
    def test_subspace_coords_are_none_outside_the_piece(self):
        x1, y2 = Polynomial.x(2, 0), Polynomial.y(2, 1)
        W = GradedSubspace(2, "w", {p.tridegree(): [poly_to_vec(p, p.tridegree())] for p in (x1, y2)})
        deg = TriDegree(0, 1, 0)
        image = apply_op(op_E(2, 1), x1)  # y1
        assert W.coords(deg, poly_to_vec(image, deg)) is None
        assert W.coords(deg, poly_to_vec(y2.scale(3), deg)) == {0: Fraction(3)}
        assert W.coords(deg, {}) == {}

    def test_quotient_coords_are_empty_off_the_support(self):
        dr = coinvariants(2)
        assert dr.block((2, 0, 0)) is None and dr.basis((2, 0, 0)) == []
        assert dr.coords((2, 0, 0), poly_to_vec(Polynomial.x(2, 0, 2), TriDegree(2, 0, 0))) == {}
        x1 = poly_to_vec(Polynomial.x(2, 0), TriDegree(1, 0, 0))
        block = dr.block((1, 0, 0))
        assert dr.coords((1, 0, 0), x1) == block.class_of_vec(x1) != {}
        assert dr.basis((1, 0, 0)) == [{block.reps[0]: 1}]
        assert vec_to_poly(dr.basis((1, 0, 0))[0], 2, block.deg) == block.rep_poly(0)
