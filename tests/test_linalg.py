import inspect
import random
from fractions import Fraction
from itertools import combinations

import pytest

import fraction_oracle
from harmonica.linalg import RrefAccumulator, kernel_basis, membership, mul_vec, rref, span_solver


def rows_of(entries):
    """The rows of a dense matrix, as sparse vectors."""
    return [{c: Fraction(v) for c, v in enumerate(row) if v} for row in entries]


def columns_of(entries):
    """The columns of a dense matrix, as sparse vectors: the matrix as harmonica holds it."""
    return rows_of(zip(*entries))


def det_minor(entries):
    """Determinant by Laplace expansion; the independent rank oracle."""
    k = len(entries)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return entries[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(k):
        if entries[0][j]:
            sub = [[row[c] for c in range(k) if c != j] for row in entries[1:]]
            total += sign * entries[0][j] * det_minor(sub)
        sign = -sign
    return total


def rank_by_minors(entries) -> int:
    """The rank of a dense matrix, by its largest nonzero minor."""
    nrows, ncols = len(entries), len(entries[0]) if entries else 0
    best = 0
    for k in range(1, min(nrows, ncols) + 1):
        found = False
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                sub = [[entries[r][c] for c in cols] for r in rows]
                if det_minor(sub) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def test_rref_proportional_rows():
    red, pivots, rank = rref(rows_of([[1, 2], [2, 4]]))
    assert rank == 1
    assert pivots == [0]
    assert red == [{0: Fraction(1), 1: Fraction(2)}]


def test_rref_identity_fixed_point():
    ident = rows_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    red, pivots, rank = rref(ident)
    assert rank == 3 and pivots == [0, 1, 2]
    assert red == ident


def test_rref_already_echelon_up_to_reduction():
    red, pivots, rank = rref(rows_of([[1, 1, 0], [0, 1, 1]]))
    assert rank == 2 and pivots == [0, 1]
    assert red == rows_of([[1, 0, -1], [0, 1, 1]])


def test_rref_empty_matrix():
    assert rref([]) == ([], [], 0)


def test_kernel_single_row():
    (vec,) = kernel_basis(columns_of([[1, 1]]))
    assert vec[0] * 1 + vec[1] * 1 == 0 and vec[1] != 0


def test_kernel_identity_empty():
    assert kernel_basis(columns_of([[1, 0], [0, 1]])) == []


def test_kernel_rank_one():
    m = columns_of([[1, 2], [2, 4]])
    (vec,) = kernel_basis(m)
    assert mul_vec(m, vec) == {}
    # proportional to (2, -1)
    assert vec[0] * (-1) == vec[1] * 2


def test_membership_basics():
    span = columns_of([[1, 0], [0, 1]])
    assert membership({0: Fraction(1), 1: Fraction(1)}, span, 2) == {0: Fraction(1), 1: Fraction(1)}
    assert membership({}, span, 2) == {}
    assert membership({0: Fraction(1)}, columns_of([[0], [1]]), 2) is None


def test_membership_incompatible_dimensions():
    with pytest.raises(ValueError):
        membership({5: Fraction(1)}, columns_of([[1], [1]]), 2)


def random_matrix(rng, rows, cols, density=0.6, mag=3):
    """A dense rows x cols matrix of small integer Fractions, as a list of rows."""
    entries = [[Fraction(0)] * cols for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rng.randint(-mag, mag)
                if v:
                    entries[r][c] = Fraction(v)
    return entries


def test_rank_matches_minor_expansion_oracle():
    rng = random.Random(20240915)
    for _ in range(200):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        _, _, rank = rref(rows_of(m))
        assert rank == rank_by_minors(m)
        # Handed the columns, rref reads the same rank.
        assert rref(columns_of(m))[2] == rank


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(11)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        red, _, _ = rref(rows_of(m))
        again, _, _ = rref(red)
        assert again == red


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        _, _, rank = rref(rows_of(m))
        columns = columns_of(m)
        vecs = kernel_basis(columns)
        assert len(vecs) == len(columns) - rank
        for v in vecs:
            assert mul_vec(columns, v) == {}


def test_accumulator_matches_rref():
    rng = random.Random(99)
    for _ in range(100):
        rows = [
            {j: Fraction(rng.randint(-3, 3)) for j in range(6) if rng.random() < 0.5}
            for _ in range(rng.randint(1, 7))
        ]
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        red, pivots, rank = rref(rows)
        acc = RrefAccumulator()
        for r in rows:
            acc.insert(r)
        assert acc.rank == rank
        assert acc.pivots() == pivots
        assert acc.row_vectors() == red
        assert red == fraction_oracle.rref(fraction_oracle.Matrix.from_rows(rows, 6))[0].row_list()


def test_membership_reconstructs_exactly():
    # Regression: the coefficients must rebuild the vector verbatim.
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randint(2, 6)
        cols = rng.randint(1, 5)
        col_vecs = [
            {i: Fraction(rng.randint(-3, 3)) for i in range(rows) if rng.random() < 0.7}
            for _ in range(cols)
        ]
        col_vecs = [{i: v for i, v in c.items() if v} for c in col_vecs]
        weights = {j: Fraction(rng.randint(-2, 2)) for j in range(cols)}
        target = {}
        for j, z in weights.items():
            for i, w in col_vecs[j].items():
                target[i] = target.get(i, 0) + z * w
        target = {i: w for i, w in target.items() if w}
        coeffs = membership(target, col_vecs, rows)
        assert coeffs is not None
        rebuilt = {}
        for j, z in coeffs.items():
            for i, w in col_vecs[j].items():
                rebuilt[i] = rebuilt.get(i, 0) + z * w
        assert {i: w for i, w in rebuilt.items() if w} == target


def test_span_solver_leaves_dependent_columns_without_a_coefficient():
    # Column j is tagged past the rows in reverse order, so a column that
    # depends on earlier ones pivots at its own tag and gets no coefficient.
    c0, c2 = {0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1), 2: Fraction(-1)}
    c1 = {j: 2 * x for j, x in c0.items()}
    span = [c0, c1, c2, {}]  # the last column is zero
    rank, solve = span_solver(span, 3)
    assert rank == 2
    cases = {
        "c1": (c1, {0: Fraction(2)}),
        "c0 + c2": ({0: Fraction(1), 1: Fraction(3), 2: Fraction(-1)}, {0: 1, 2: 1}),
        "outside": ({2: Fraction(1)}, None),
        "zero": ({}, {}),
    }
    for name, (vec, expected) in cases.items():
        assert solve(vec) == expected, name
        assert solve(vec) == fraction_oracle.membership(vec, fraction_oracle.Matrix.from_columns(span, 3)), name
        assert membership(vec, span, 3) == expected, name


def test_accumulator_has_one_mode():
    with pytest.raises(TypeError):
        RrefAccumulator(track=True)
    assert not hasattr(RrefAccumulator(), "solve")
    assert list(inspect.signature(RrefAccumulator.insert).parameters) == ["self", "vec"]


def test_products_of_column_lists():
    # Column j of a product is the left factor applied to column j of the right one.
    a = columns_of([[1, 2], [0, 1]])
    b = columns_of([[1, 0], [3, 1]])
    assert a == [{0: 1}, {0: 2, 1: 1}]
    assert [mul_vec(a, col) for col in b] == columns_of([[7, 2], [3, 1]])
    assert mul_vec(a, {}) == {} and mul_vec(a, {1: Fraction(-1, 2)}) == {0: -1, 1: Fraction(-1, 2)}
    # Entries that cancel leave no zero behind.
    assert mul_vec(columns_of([[1, 1], [1, -1]]), {0: 1, 1: 1}) == {0: 2}


def _state(acc):
    return acc.rank, acc.pivots(), acc.int_rows(), acc.row_vectors()


def test_copy_inserts_independently_of_its_original():
    rng = random.Random(7)
    vecs = [{j: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for j in rng.sample(range(8), 3)}
            for _ in range(6)]
    orig = RrefAccumulator()
    for v in vecs[:3]:
        orig.insert(v)
    orig.row_vectors()  # the cached view is shared by the copy
    before = _state(orig)
    copy = orig.copy()
    assert _state(copy) == before
    for v in vecs[3:]:
        copy.insert(v)
    assert _state(orig) == before
    assert copy.rank > orig.rank
    # The copy holds what one accumulator fed every vector holds.
    whole = RrefAccumulator()
    for v in vecs:
        whole.insert(v)
    assert copy.int_rows() == whole.int_rows()
    # And the reverse: inserting into the original leaves the copy alone.
    after = _state(copy)
    for v in vecs[3:]:
        orig.insert({j: -x for j, x in v.items()})
    orig.insert({8: Fraction(1)})
    assert _state(copy) == after
