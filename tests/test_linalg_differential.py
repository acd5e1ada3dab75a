"""Differential tests: the integer elimination engine against the Fraction one.

`fraction_oracle` holds the Fraction-per-entry engine that `harmonica.linalg`
used before, on its own (row, col) matrix container.  On random int and
Fraction matrices, with empty, zero and duplicate rows, both engines must
agree on every result they report, and the column-list products of
`harmonica` must equal the oracle's dense ones.
"""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import fraction_oracle as old  # noqa: E402
from harmonica import linalg as new  # noqa: E402
from harmonica.operators import OperatorMatrix, compose  # noqa: E402
from harmonica.superpoly import TriDegree  # noqa: E402

MAX_COLS = 6

entries = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def vectors(draw, cols):
    """A sparse vector over `cols` columns, as stored: no zero entries."""
    picks = draw(st.dictionaries(st.integers(0, max(cols - 1, 0)), entries, max_size=cols))
    return {j: v for j, v in picks.items() if v != 0 and j < cols}


@st.composite
def matrices(draw):
    """(rows, cols): rows drawn with repeats from a few distinct vectors."""
    cols = draw(st.integers(0, MAX_COLS))
    distinct = draw(st.lists(vectors(cols), min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(distinct), max_size=8))
    # A zero entry written out explicitly is still a zero row entry.
    if cols and draw(st.booleans()):
        rows.append({draw(st.integers(0, cols - 1)): 0})
    return rows, cols


def as_matrix(rows, cols):
    """The oracle's matrix with these rows."""
    return old.Matrix.from_rows(rows, cols)


def assert_fraction_vec(vec):
    assert all(isinstance(v, Fraction) and v != 0 for v in vec.values()), vec


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_accumulator_agrees(mat, data):
    rows, cols = mat
    a, b = old.RrefAccumulator(), new.RrefAccumulator()
    for row in rows:
        assert b.insert(row) == a.insert(row)
    assert b.rank == a.rank
    assert b.pivots() == a.pivots()
    got = b.row_vectors()
    assert got == a.row_vectors()
    for row in got:
        assert_fraction_vec(row)
    for _ in range(3):
        probe = data.draw(vectors(cols))
        residual = b.reduce(probe)
        assert residual == a.reduce(probe)
        assert_fraction_vec(residual)
        res_new, combo_new = b.reduce_with_coeffs(probe)
        res_old, combo_old = a.reduce_with_coeffs(probe)
        assert res_new == res_old
        assert combo_new == combo_old
        assert_fraction_vec(combo_new)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_and_kernel_agree(mat):
    rows, _ = mat
    m = as_matrix(*mat)
    red, pivots, rank = old.rref(m)
    assert new.rref(rows) == (red.row_list(), pivots, rank)
    columns = m.column_list()
    got = new.kernel_basis(columns)
    assert got == old.kernel_basis(m)
    for vec in got:
        assert_fraction_vec(vec)
        assert new.mul_vec(columns, vec) == {}


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_membership_agrees(mat, data):
    columns, rows = mat  # the drawn vectors become the span's columns
    span = old.Matrix.from_columns(columns, rows)
    weights = data.draw(st.lists(entries, min_size=len(columns), max_size=len(columns)))
    inside: dict = {}
    for z, col in zip(weights, columns):
        new.vec_add_scaled(inside, Fraction(z), col)
    for v in (inside, data.draw(vectors(rows))):
        got = new.membership(v, columns, rows)
        assert got == old.membership(v, span)
        if got is not None:
            assert_fraction_vec(got)
            assert new.mul_vec(columns, got) == {i: x for i, x in v.items() if x}
    _, solve = new.span_solver(columns, rows)
    for p in range(rows):
        assert solve({p: Fraction(1)}) == old.membership({p: Fraction(1)}, span)


@st.composite
def int_vectors(draw, cols):
    """An int vector over `cols` columns, as the space builders hand in:
    zero entries may be left in."""
    picks = draw(st.dictionaries(st.integers(0, max(cols - 1, 0)), st.integers(-4, 4), max_size=cols))
    return {j: v for j, v in picks.items() if j < cols}


@st.composite
def int_matrices(draw):
    cols = draw(st.integers(0, MAX_COLS))
    distinct = draw(st.lists(int_vectors(cols), min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(distinct), max_size=8)), cols


def as_fractions(vec):
    return {j: Fraction(v) for j, v in vec.items()}


@settings(max_examples=100, deadline=None)
@given(int_matrices(), st.data())
def test_int_rows_give_what_fraction_rows_give(mat, data):
    rows, cols = mat
    a, b = new.RrefAccumulator(), new.RrefAccumulator()
    for row in rows:
        assert a.insert(row) == b.insert(as_fractions(row))
    assert a.row_vectors() == b.row_vectors()
    for _ in range(3):
        probe = data.draw(int_vectors(cols))
        residual = a.reduce(probe)
        assert residual == b.reduce(as_fractions(probe))
        assert_fraction_vec(residual)
    columns = as_matrix(rows, cols).column_list()
    assert new.kernel_basis(columns) == new.kernel_basis(as_matrix(list(map(as_fractions, rows)), cols).column_list())


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_int_rows_and_int_kernel_are_the_rref_views_scaled(mat):
    rows, cols = mat
    acc = new.RrefAccumulator()
    for row in rows:
        acc.insert(row)
    got = acc.int_rows()
    assert [p for p, _ in got] == acc.pivots()
    assert [{j: Fraction(x, r[p]) for j, x in r.items()} for p, r in got] == acc.row_vectors()
    for p, r in got:
        assert all(type(x) is int for x in r.values())
        assert r[p] > 0 and gcd(*r.values()) == 1
    kernel = acc.int_kernel(cols)
    expected = new.kernel_basis(as_matrix(rows, cols).column_list())
    assert [{j: Fraction(x, v[f]) for j, x in v.items()} for f, v in kernel.items()] == expected
    for f, v in kernel.items():
        assert all(type(x) is int for x in v.values()) and v[f] > 0


@st.composite
def column_lists(draw, rows, cols):
    """A rows x cols Fraction matrix as harmonica holds it: cols sparse
    columns over 0..rows-1."""
    return [as_fractions(draw(vectors(rows))) for _ in range(cols)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_column_products_agree_with_the_dense_oracle(r, k, c, data):
    outer, inner = data.draw(column_lists(r, k)), data.draw(column_lists(k, c))
    dense_outer, dense_inner = old.Matrix.from_columns(outer, r), old.Matrix.from_columns(inner, k)
    vec = as_fractions(data.draw(vectors(k)))
    got = new.mul_vec(outer, vec)
    assert got == dense_outer.mul_vec(vec)
    assert_fraction_vec(got)
    # Degrees only label the pieces; compose checks that they chain.
    a, b, t = TriDegree(0, 0, 0), TriDegree(1, 0, 0), TriDegree(2, 0, 0)
    product = compose(OperatorMatrix(b, t, outer), OperatorMatrix(a, b, inner))
    assert product.source == a and product.target == t
    assert product.columns == dense_outer.matmul(dense_inner).column_list()
    for col in product.columns:
        assert_fraction_vec(col)
