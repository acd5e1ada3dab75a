import random
import re
from fractions import Fraction
from itertools import permutations

import pytest

import operator_oracle as old
from sign_oracle import sym
from harmonica import superpoly
from harmonica.superpoly import (
    Monomial,
    Polynomial,
    TriDegree,
    act,
    alt,
    apply_op,
    count_tridegree,
    monomials_tridegree,
    op_E,
    op_F,
    op_F_star,
    op_d,
    op_hamiltonian,
    pairing,
    render,
    transpose_adjacent,
    vandermonde,
)

P = Polynomial


def rand_poly(rng, n, max_deg=2, terms=5, odd=False):
    data = {}
    for _ in range(terms):
        xe = tuple(rng.randint(0, max_deg) for _ in range(n))
        ye = tuple(rng.randint(0, max_deg) for _ in range(n))
        th = tuple(sorted(rng.sample(range(n), rng.randint(0, n)))) if odd else ()
        c = rng.randint(-3, 3)
        if c:
            data[Monomial(xe, ye, th)] = Fraction(c)
    return Polynomial(n, data)


class TestProduct:
    def test_odd_generators_anticommute(self):
        th1, th2 = P.odd_var(2, 0), P.odd_var(2, 1)
        assert render(th1 * th2) == "th1*th2"
        assert th2 * th1 == -(th1 * th2)

    def test_odd_generator_squares_to_zero(self):
        th1 = P.odd_var(2, 0)
        assert (th1 * th1).is_zero()

    def test_difference_of_squares(self):
        x1, x2 = P.x(2, 0), P.x(2, 1)
        assert render((x1 - x2) * (x1 + x2)) == "x1^2 - x2^2"

    def test_mixed_variable_counts_rejected(self):
        with pytest.raises(ValueError):
            P.x(2, 0) * P.x(3, 0)

    def test_associative_on_random_inputs(self):
        rng = random.Random(3)
        for _ in range(30):
            p, q, r = (rand_poly(rng, 2, odd=True) for _ in range(3))
            assert (p * q) * r == p * (q * r)


class TestAction:
    def test_transposition_on_x(self):
        assert act((1, 0), P.x(2, 0)) == P.x(2, 1)

    def test_transposition_sign_on_two_wedge(self):
        th12 = P.odd_var(2, 0) * P.odd_var(2, 1)
        assert act((1, 0), th12) == -th12

    def test_three_cycle(self):
        p = P.x(3, 0) * P.y(3, 1)
        assert act((1, 2, 0), p) == P.x(3, 1) * P.y(3, 2)

    def test_action_is_multiplicative(self):
        rng = random.Random(17)
        perms = list(permutations(range(3)))
        for _ in range(25):
            p = rand_poly(rng, 3, odd=True)
            sigma = rng.choice(perms)
            tau = rng.choice(perms)
            comp = tuple(sigma[tau[i]] for i in range(3))
            assert act(comp, p) == act(sigma, act(tau, p))

    def test_adjacent_transposition_matches_act(self):
        for n in (2, 3, 4):
            for da in range(n + 1):
                for m in monomials_tridegree(n, TriDegree(2, 1, da)):
                    for i in range(n - 1):
                        sigma = tuple(i + 1 if t == i else i if t == i + 1 else t for t in range(n))
                        image, sign = transpose_adjacent(m, i)
                        assert act(sigma, P.monomial(m)) == P.monomial(image, sign)


class TestProjectors:
    def test_alt_of_x1(self):
        assert alt(P.x(2, 0)) == (P.x(2, 0) - P.x(2, 1)).scale(Fraction(1, 2))

    def test_alt_kills_symmetric_input(self):
        assert alt(P.x(2, 0) * P.x(2, 1)).is_zero()

    def test_sym_of_x1(self):
        assert sym(P.x(2, 0)) == (P.x(2, 0) + P.x(2, 1)).scale(Fraction(1, 2))

    def test_projectors_idempotent_and_orthogonal(self):
        rng = random.Random(23)
        for n in (2, 3):
            for _ in range(10):
                p = rand_poly(rng, n, odd=True)
                assert alt(alt(p)) == alt(p)
                assert sym(sym(p)) == sym(p)
                assert alt(sym(p)).is_zero()

    def test_alt_twists_by_sign(self):
        rng = random.Random(29)
        for n in (2, 3, 4):
            perms = list(permutations(range(n)))
            for _ in range(6):
                p = rand_poly(rng, n, odd=True, terms=3)
                sigma = rng.choice(perms)
                from harmonica.superpoly import perm_sign

                assert alt(act(sigma, p)) == alt(p).scale(perm_sign(sigma))


class TestApply:
    def test_f1_on_y1(self):
        assert apply_op(op_F(2, 1), P.y(2, 0)) == P.x(2, 0)

    def test_d1_on_th1(self):
        assert apply_op(op_d(2, 1), P.odd_var(2, 0)) == P.x(2, 0)

    def test_hamiltonian_11_on_x1(self):
        assert apply_op(op_hamiltonian(2, 1, 1), P.x(2, 0)) == -P.x(2, 0)

    def test_leibniz_for_first_order_operators(self):
        rng = random.Random(41)
        count = 0
        while count < 100:
            n = rng.choice((2, 3))
            p = rand_poly(rng, n)
            q = rand_poly(rng, n)
            k = rng.randint(1, n)
            E = op_E(n, k)
            lhs = apply_op(E, p * q)
            rhs = apply_op(E, p) * q + p * apply_op(E, q)
            assert lhs == rhs
            count += 1

    def test_commutator_with_coordinate_multiplication(self):
        # [F_k, x_i] = 0 and [F_k, y_i] = x_i^k at the level of apply.
        rng = random.Random(43)
        for _ in range(25):
            n = rng.choice((2, 3))
            k = rng.randint(1, n)
            i = rng.randrange(n)
            F = op_F(n, k)
            p = rand_poly(rng, n)
            assert apply_op(F, P.x(n, i) * p) == P.x(n, i) * apply_op(F, p)
            lhs = apply_op(F, P.y(n, i) * p) - P.y(n, i) * apply_op(F, p)
            assert lhs == P.x(n, i, k) * p

    def test_wedge_operator_is_left_multiplication(self):
        w1 = old.apply_op(old.op_wedge_omega(2, 1), P.one(2))
        assert w1 == P.x(2, 0) * P.odd_var(2, 0) + P.x(2, 1) * P.odd_var(2, 1)

    def test_an_odd_multiplier_is_refused(self):
        # Every operator of the paper multiplies by even variables only.
        for ops in (old.op_wedge_omega(2, 1).ops, old.op_d_star(3, 0).ops,
                    [superpoly.OpTerm(Fraction(1), Monomial((1, 0), (0, 0), (1,)), (0, 0), (0, 0), (0,))]):
            with pytest.raises(ValueError, match="multiplier must be even"):
                superpoly.DiffOperator(len(ops[0].dx), ops)

    def test_family_members_are_scaled_vector_fields(self):
        # F_k = v(k+1, 0) / (k+1) and E_k = -v(0, k+1) / (k+1)
        rng = random.Random(67)
        for _ in range(20):
            n = rng.choice((2, 3))
            k = rng.randint(1, n)
            p = rand_poly(rng, n)
            vF = apply_op(op_hamiltonian(n, k + 1, 0), p).scale(Fraction(1, k + 1))
            assert apply_op(op_F(n, k), p) == vF
            vE = apply_op(op_hamiltonian(n, 0, k + 1), p).scale(Fraction(-1, k + 1))
            assert apply_op(op_E(n, k), p) == vE


_CONSTRUCTORS = ("op_F", "op_E", "op_F_star", "op_E_star", "op_d", "op_hamiltonian", "op_partial_x")


def _constructor_args(name, n):
    if name == "op_hamiltonian":
        return [(a, b) for a in range(4) for b in range(4)]
    if name == "op_partial_x":
        return [(i,) for i in range(n)]
    return [(k,) for k in range(4)]


class TestConstructors:
    @pytest.mark.parametrize("name", _CONSTRUCTORS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_same_terms_in_the_same_order_as_the_oracle(self, name, n):
        new, ref = getattr(superpoly, name), getattr(old, name)
        for args in _constructor_args(name, n):
            try:
                expected = ref(n, *args).ops
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    new(n, *args)
                continue
            assert new(n, *args).ops == expected, args

    def test_every_public_constructor_is_compared(self):
        public = {name for name in vars(superpoly) if name.startswith("op_")}
        assert public == set(_CONSTRUCTORS)


class TestPairing:
    def test_single_variable(self):
        assert pairing(P.x(2, 0), P.x(2, 0)) == 1

    def test_square(self):
        p = P.x(2, 0) * P.x(2, 0)
        assert pairing(p, p) == 2

    def test_vandermonde_with_itself(self):
        d = vandermonde("x", 2)
        assert pairing(d, d) == 2

    def test_rejects_odd_input_without_flag(self):
        th = P.odd_var(2, 0)
        with pytest.raises(ValueError):
            pairing(th, th)

    def test_symmetric_and_bigraded(self):
        rng = random.Random(47)
        for _ in range(30):
            f = rand_poly(rng, 2)
            g = rand_poly(rng, 2)
            assert pairing(f, g) == pairing(g, f)
        # distinct bidegrees pair to zero
        assert pairing(P.x(2, 0), P.y(2, 0)) == 0

    def test_sn_invariance(self):
        rng = random.Random(53)
        for _ in range(20):
            f = rand_poly(rng, 3)
            g = rand_poly(rng, 3)
            sigma = (1, 2, 0)
            assert pairing(act(sigma, f), act(sigma, g)) == pairing(f, g)

    def test_adjunction_is_exact_on_random_polynomials(self):
        rng = random.Random(59)
        count = 0
        while count < 100:
            n = rng.choice((2, 3))
            k = rng.randint(1, n)
            f = rand_poly(rng, n)
            g = rand_poly(rng, n)
            assert pairing(apply_op(op_F(n, k), f), g) == pairing(f, apply_op(op_F_star(n, k), g))
            count += 1

    def test_adjunction_proportionality_of_bilinear_forms(self):
        # The two Gram forms on a whole bidegree block differ by one scalar.
        n, k = 3, 2
        src = monomials_tridegree(n, TriDegree(1, 2, 0))
        tgt = monomials_tridegree(n, TriDegree(3, 1, 0))
        lhs = [[pairing(apply_op(op_F(n, k), P.monomial(a)), P.monomial(b)) for b in tgt] for a in src]
        rhs = [[pairing(P.monomial(a), apply_op(op_F_star(n, k), P.monomial(b))) for b in tgt] for a in src]
        scalars = {
            lhs[i][j] / rhs[i][j]
            for i in range(len(src))
            for j in range(len(tgt))
            if rhs[i][j] != 0
        }
        zeros_match = all(
            (lhs[i][j] == 0) == (rhs[i][j] == 0) for i in range(len(src)) for j in range(len(tgt))
        )
        assert zeros_match and len(scalars) == 1 and 0 not in scalars

    def test_odd_contraction_adjoint_to_odd_multiplication(self):
        rng = random.Random(61)
        for _ in range(40):
            f = rand_poly(rng, 2, odd=True)
            g = rand_poly(rng, 2, odd=True)
            N = rng.randint(0, 2)
            lhs = old.extended_pairing(apply_op(op_d(2, N), f), g)
            rhs = old.extended_pairing(f, old.apply_op(old.op_d_star(2, N), g))
            assert lhs == rhs


class TestVandermonde:
    def test_empty_product(self):
        assert vandermonde("x", 1) == P.one(1)

    def test_two_variables(self):
        assert render(vandermonde("x", 2)) == "x1 - x2"

    def test_three_variables_expansion(self):
        d = vandermonde("x", 3)
        assert len(d.terms) == 6
        assert alt(d) == d
        assert d.tridegree() == TriDegree(3, 0, 0)

    def test_y_flavor_bidegree(self):
        assert vandermonde("y", 3).tridegree() == TriDegree(0, 3, 0)


class TestEnumerationAndRendering:
    def test_bidegree_count(self):
        # 3 x-monomials times 2 y-monomials... dims are binomials
        assert len(monomials_tridegree(2, TriDegree(2, 1, 0))) == 3 * 2

    def test_tridegree_enumeration_matches_block_layout(self):
        # the odd-major layout used by the space builders
        n = 3
        deg = TriDegree(1, 1, 1)
        monos = monomials_tridegree(n, deg)
        assert len(monos) == 3 * 3 * 3
        rebuilt = [
            Monomial(xe, ye, odd)
            for odd in [(0,), (1,), (2,)]
            for xe in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
            for ye in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        ]
        assert monos == rebuilt

    @pytest.mark.parametrize("n,top", [(2, 2), (3, 6), (4, 6)])
    def test_tridegree_enumeration_is_already_in_sort_key_order(self, n, top):
        # top is n(n-1), the coinvariants' highest total degree, for n = 2, 3.
        for dx in range(top + 1):
            for dy in range(top + 1 - dx):
                for da in range(n + 1):
                    monos = monomials_tridegree(n, TriDegree(dx, dy, da))
                    assert monos == sorted(monos, key=Monomial.sort_key), (dx, dy, da)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tridegree_count_without_listing(self, n):
        for deg in [TriDegree(dx, dy, da) for dx in range(4) for dy in range(4) for da in range(n + 1)]:
            assert count_tridegree(n, deg) == len(monomials_tridegree(n, deg))
        assert count_tridegree(n, TriDegree(-1, 2, 0)) == 0

    def test_rendering_signs_and_coefficients(self):
        p = P.x(2, 0).scale(Fraction(3, 2)) - P.y(2, 1) - P.one(2)
        assert render(p) == "3/2*x1 - y2 - 1"
        assert render(Polynomial.zero(2)) == "0"
