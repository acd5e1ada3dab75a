"""Acceptance criteria, one test per criterion, one printed line each.

Every identity here is exact (rational arithmetic, no tolerances); the only
numeric thresholds are the wall-clock targets in criterion 1.  Criteria that
delegate to the verification suites assert that every contained check holds.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from harmonica import verify
from harmonica.dyck import catalan_number, catalan_qt
from harmonica.linalg import rref
from harmonica.operators import OperatorSpec, check_preserves
from harmonica.spaces import (
    antisymmetric_ideal,
    clear_registry,
    coinvariants,
    hook_component,
    ideal_quotient_series,
    sign_component,
)
from harmonica.structure import cogeneration_search
from harmonica.superpoly import Monomial, Polynomial, apply_op, op_E, op_F, op_F_star, pairing


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {num:>2} PASS: {description}")


def suite_all_pass(results):
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(f"{r.name}: {r.witness}" for r in failed)


def test_criterion_01_coinvariant_dimensions_and_runtime():
    with criterion(1, "dim of the coinvariant quotient is (n+1)^(n-1) within time budget"):
        clear_registry()
        t3 = time.perf_counter()
        dr3 = coinvariants(3)
        t3 = time.perf_counter() - t3
        assert dr3.total_dim() == 16
        assert t3 < 5.0, f"n=3 build took {t3:.2f}s (target 5s)"
        t4 = time.perf_counter()
        dr4 = coinvariants(4)
        t4 = time.perf_counter() - t4
        assert dr4.total_dim() == 125
        assert t4 < 600.0, f"n=4 build took {t4:.2f}s (target 600s)"
        assert coinvariants(2).total_dim() == 3
        print(f"  [build times: n=3 {t3:.2f}s, n=4 {t4:.2f}s]")


def test_criterion_02_sign_component_dimensions():
    with criterion(2, "sign components have Catalan dimensions 2, 5, 14"):
        for n, c in ((2, 2), (3, 5), (4, 14)):
            assert sign_component(coinvariants(n)).total_dim() == c == catalan_number(n)


def test_criterion_03_sign_series_equals_path_oracle():
    with criterion(3, "sign-component series equals the path-statistic series for n = 2, 3, 4"):
        for n in (2, 3, 4):
            sgn = sign_component(coinvariants(n)).hilbert()
            oracle = catalan_qt(n)
            assert {(d.dx, d.dy): v for d, v in sgn.dims.items()} == oracle
        assert sign_component(coinvariants(3)).hilbert().render() == "q^3 + q^2*t + q*t^2 + q*t + t^3"


def test_criterion_04_hook_model_dimensions():
    with criterion(4, "hook model dimensions are (2,1) for n=2 and (5,5,1) for n=3"):
        h2 = hook_component(2)
        assert h2.hilbert().per_a() == {0: 2, 1: 1} and h2.total_dim() == 3
        h3 = hook_component(3)
        assert h3.hilbert().per_a() == {0: 5, 1: 5, 2: 1} and h3.total_dim() == 11


def test_criterion_05_figure_reproduction():
    with criterion(5, "n=3 export reproduces all 11 graded points and arrow patterns exactly"):
        suite_all_pass(verify.run_suite(3, "figure1"))


def test_criterion_06_operator_generation_theorem():
    with criterion(6, "the top antisymmetric element generates the harmonics (full and sign), n <= 4"):
        for n in (2, 3, 4):
            suite_all_pass(verify.run_suite(n, "operator-theorem"))


def test_criterion_07_vanishing_threshold():
    with criterion(7, "operator families vanish on the hook model exactly from k = n on, n <= 4"):
        for n in (2, 3, 4):
            suite_all_pass(verify.run_suite(n, "vanishing"))


def test_criterion_08_cogeneration_certificates():
    with criterion(8, "every hook class reaches the top antisymmetric line, n <= 3"):
        for n in (2, 3):
            hook = hook_component(n)
            for deg in sorted(hook.blocks):
                for pos in range(hook.blocks[deg].dim):
                    cert = cogeneration_search(hook, {pos: Fraction(1)}, deg=deg)
                    assert cert.scalar != 0
        suite_all_pass(verify.run_suite(2, "cogeneration"))
        suite_all_pass(verify.run_suite(3, "cogeneration"))


def test_criterion_09_lie_algebra_suite():
    with criterion(9, "vector-field bracket identities, commuting family, differential commutation"):
        suite_all_pass(verify.run_suite(3, "hamiltonian"))
        suite_all_pass(verify.run_suite(3, "differentials"))


def test_criterion_10_structure_suite():
    with criterion(10, "bijective weight pairing, involution squares to one, generators swap, n <= 4"):
        for n in (2, 3, 4):
            suite_all_pass(verify.run_suite(n, "lefschetz"))
            suite_all_pass(verify.run_suite(n, "phi"))


def test_criterion_11_ideal_suite():
    with criterion(11, "ideal quotients match sign and hook series; operators preserve the ideals"):
        for n in (2, 3):
            sgn = sign_component(coinvariants(n)).hilbert()
            assert ideal_quotient_series(n, reduced=False) == sgn
            assert ideal_quotient_series(n, reduced=True) == hook_component(n).hilbert()
            cap = 3
            J = antisymmetric_ideal(n, "J", max_total=cap)
            mJ = antisymmetric_ideal(n, "mJ", max_total=cap)
            for k in range(1, n):
                for ideal in (J, mJ):
                    for spec in (OperatorSpec.E(n, k), OperatorSpec.F(n, k)):
                        ok, witness = check_preserves(spec, ideal)
                        assert ok, f"{spec.label()} fails on {ideal.kind}: {witness}"


def test_criterion_12_property_substrate():
    with criterion(12, "rank oracle on 200 random matrices; Leibniz and adjunction on 100 random polynomials"):
        from test_linalg import random_matrix, rank_by_minors, rows_of

        rng = random.Random(424242)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            _, _, rank = rref(rows_of(m))
            assert rank == rank_by_minors(m)

        def rand_poly(n):
            data = {}
            for _ in range(4):
                xe = tuple(rng.randint(0, 2) for _ in range(n))
                ye = tuple(rng.randint(0, 2) for _ in range(n))
                c = rng.randint(-3, 3)
                if c:
                    data[Monomial(xe, ye, ())] = Fraction(c)
            return Polynomial(n, data)

        for _ in range(100):
            n = rng.choice((2, 3))
            k = rng.randint(1, n)
            p, q = rand_poly(n), rand_poly(n)
            E = op_E(n, k)
            assert apply_op(E, p * q) == apply_op(E, p) * q + p * apply_op(E, q)
        for _ in range(100):
            n = rng.choice((2, 3))
            k = rng.randint(1, n)
            f, g = rand_poly(n), rand_poly(n)
            assert pairing(apply_op(op_F(n, k), f), g) == pairing(f, apply_op(op_F_star(n, k), g))
