"""Differential tests: operator application in ints against the Fraction one.

`operator_oracle.apply_op` applies an operator one `Fraction` operation at a
time, as `harmonica.superpoly.apply_op` did before it ran in ints over the
operator's compiled terms.  On random polynomials with rational
coefficients and odd parts, for every operator family, rescaled and summed,
both must return the same terms, with the same values, in the same order.
Every multiplier is even, as `DiffOperator` requires.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import operator_oracle as old  # noqa: E402
from harmonica import superpoly  # noqa: E402
from harmonica.operators import _KINDS  # noqa: E402
from harmonica.superpoly import DiffOperator, Monomial, OpTerm, Polynomial, apply_op  # noqa: E402

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
    name = draw(st.sampled_from(sorted(FAMILIES)))
    return getattr(superpoly, name)(n, *draw(FAMILIES[name](n)))


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
