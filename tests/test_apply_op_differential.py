"""Differential tests: operator application in ints against the Fraction one.

`operator_oracle.apply_op` applies an operator one `Fraction` operation at a
time, as `harmonica.superpoly.apply_op` did before it ran in ints over the
operator's compiled terms.  On random polynomials with rational
coefficients and odd parts, for every operator family, rescaled and summed,
both must return the same terms, with the same values, in the same order.
Every multiplier is even, as `DiffOperator` requires.

`spaces.column_map`, the path every operator matrix takes, is held to the
same oracle on random int column vectors at random tridegrees, for every
family, rescaled: it must return the oracle's image times the operator's
`den`, in ints.  The families drawn are those of `FAMILIES` and the
power-sum derivatives p_{a,b}(d/dx, d/dy) of the oracle.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import operator_oracle as old  # noqa: E402
from harmonica import superpoly  # noqa: E402
from harmonica.operators import _KINDS  # noqa: E402
from harmonica.spaces import column_map, poly_to_vec  # noqa: E402
from harmonica.superpoly import (  # noqa: E402
    DiffOperator,
    Monomial,
    OpTerm,
    Polynomial,
    TriDegree,
    apply_op,
    count_tridegree,
    tridegree_shift,
)

# Each `superpoly` constructor with a strategy for its parameters, given n.
FAMILIES = {
    "op_F": lambda n: st.tuples(st.integers(1, 3)),
    "op_E": lambda n: st.tuples(st.integers(1, 3)),
    "op_F_star": lambda n: st.tuples(st.integers(1, 3)),
    "op_E_star": lambda n: st.tuples(st.integers(1, 3)),
    "op_d": lambda n: st.tuples(st.integers(0, 3)),
    "op_hamiltonian": lambda n: st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda ab: sum(ab)),
    "op_partial_x": lambda n: st.tuples(st.integers(0, n - 1)),
}
# Oracle constructors drawn with the families: p_{a,b}(d/dx, d/dy).
EXTRA = {
    old.op_power_sum_deriv: lambda n: st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda ab: sum(ab)),
}

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=7).filter(bool)
scales = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda a: a.denominator > 1)


def exponents(n):
    return st.tuples(*[st.integers(0, 3)] * n)


def odd_sets(n):
    return st.sets(st.integers(0, n - 1)).map(lambda s: tuple(sorted(s)))


def monomials(n):
    return st.builds(Monomial, exponents(n), exponents(n), odd_sets(n))


def even_monomials(n):
    return st.builds(Monomial, exponents(n), exponents(n), st.just(()))


def polynomials(n):
    return st.dictionaries(monomials(n), coefficients, max_size=6).map(lambda t: Polynomial(n, t))


@st.composite
def families(draw, n):
    ctors = [(getattr(superpoly, name), FAMILIES[name]) for name in sorted(FAMILIES)] + list(EXTRA.items())
    ctor, params = draw(st.sampled_from(ctors))
    return ctor(n, *draw(params(n)))


def scaled(op, a):
    """The operator with every coefficient multiplied by a."""
    return DiffOperator(op.n, [t._replace(coeff=a * t.coeff) for t in op.ops])


@st.composite
def free_terms(draw, n):
    """A term outside the families: several odd annihilators and any even multiplier."""
    small = st.tuples(*[st.integers(0, 2)] * n)
    return OpTerm(draw(coefficients), draw(even_monomials(n)), draw(small), draw(small), draw(odd_sets(n)))


@st.composite
def operators(draw, n):
    """A family member or free terms, maybe rescaled, maybe plus another."""
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            op = draw(families(n))
        else:
            op = DiffOperator(n, draw(st.lists(free_terms(n), max_size=3)))
        if draw(st.booleans()):
            op = scaled(op, draw(scales))
        parts.append(op)
    return DiffOperator(n, [t for op in parts for t in op.ops])


@st.composite
def cases(draw):
    n = draw(st.integers(1, 5))
    return draw(operators(n)), draw(polynomials(n))


@settings(max_examples=200, deadline=None)
@given(cases())
def test_apply_op_agrees_term_for_term(case):
    op, p = case
    got, expected = apply_op(op, p), old.apply_op(op, p)
    assert list(got.terms.items()) == list(expected.terms.items())
    assert all(type(v) is Fraction for v in got.terms.values())


def test_every_operator_kind_is_drawn():
    assert {ctor.__name__ for _, ctor in _KINDS.values()} <= set(FAMILIES)
    public = {name for name in vars(superpoly) if name.startswith("op_")}
    assert set(FAMILIES) == public


@st.composite
def column_cases(draw):
    """A family member, maybe rescaled, a tridegree whose image tridegree has
    no negative entry, and an int vector there."""
    n = draw(st.integers(2, 4))
    op = draw(families(n))
    if draw(st.booleans()):
        op = scaled(op, draw(scales))
    deg = TriDegree(draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, n)))
    assume(min(a + b for a, b in zip(deg, tridegree_shift(op))) >= 0)
    columns = st.integers(0, count_tridegree(n, deg) - 1)
    return op, deg, draw(st.dictionaries(columns, st.integers(-9, 9).filter(bool), max_size=6))


@settings(max_examples=200, deadline=None)
@given(column_cases())
def test_column_map_is_the_oracle_image_times_den(case):
    op, deg, vec = case
    tdeg = TriDegree(*(a + b for a, b in zip(deg, tridegree_shift(op))))
    got = column_map(op, deg)(vec)
    image = old.apply_op(op, old.vec_to_poly(vec, op.n, deg)).scale(op.den)
    assert got == poly_to_vec(image, tdeg)
    assert all(type(v) is int and v for v in got.values())
