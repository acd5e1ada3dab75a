"""Exact sparse linear algebra over the rationals.

Matrices are stored as dicts mapping (row, col) to nonzero Fractions.  All
elimination runs through one fraction-free engine, `RrefAccumulator`, in
the spirit of Bareiss (1968): rows are dicts of Python ints, each divided by
its content and with a positive entry at its pivot, and the rows are kept
mutually reduced.  The stored rows are therefore the unique reduced row
echelon form of the span, up to one positive integer scale per row.

A vector is integerised once, over one common denominator, and reduced in a
single pass.  Its pivot columns are known before the pass starts, because
eliminating one pivot never creates an entry at another.  With D the lcm of
the pivot entries met, the residual is D*vec - sum (vec[p]*D/row[p][p]) *
row[p].  Fractions appear only at the edges: a returned residual, returned
coefficients, and the RREF view (`row_vectors`, `to_matrix`), which is built
on demand and cached until the next independent insert.

Builders may hand in `int` dicts wherever a vector is expected: an `int`
has denominator 1, so it is integerised for free.  `int_rows()` reads the
stored rows themselves (pivot, int row with content 1 and a positive pivot
entry), and `int_kernel()` gives the null space of the rows as int vectors,
one per free column f: L*e_f - sum_p (row_p[f]*L/row_p[p]) * e_p with L
the lcm of the pivot entries met.  Divided by L it is the RREF kernel
vector; `kernel_basis` is that division.

Pivoting is deterministic: an independent vector pivots on the smallest
column of its residual.  That column is the leading column of the new row,
and back-reduction only adds later columns to earlier rows, so pivots stay
leading.  `rref`, `kernel_basis`, `span_solver` and `membership` are thin
wrappers; coordinates in a span are read off one augmented RREF.

A SparseMatrix is immutable after construction and every module-level
function is pure, so concurrent use on distinct inputs is safe.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional


Vec = dict  # column index -> nonzero Fraction


def vec_add_scaled(target: Vec, scale: Fraction, source: Vec) -> None:
    """In-place target += scale * source, dropping zeros."""
    if scale == 0:
        return
    for j, v in source.items():
        w = target.get(j, 0) + scale * v
        if w == 0:
            target.pop(j, None)
        else:
            target[j] = w


class SparseMatrix:
    """Immutable sparse matrix of exact rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[dict] = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        clean = {}
        for (r, c), v in (data or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"index ({r},{c}) out of bounds for {rows}x{cols}")
            f = Fraction(v)
            if f != 0:
                clean[(r, c)] = f
        self.data = clean

    @classmethod
    def from_rows(cls, row_vecs: Iterable[dict], cols: int) -> "SparseMatrix":
        row_vecs = list(row_vecs)
        data = {}
        for i, row in enumerate(row_vecs):
            for j, v in row.items():
                data[(i, j)] = v
        return cls(len(row_vecs), cols, data)

    @classmethod
    def from_columns(cls, col_vecs: Iterable[dict], rows: int) -> "SparseMatrix":
        col_vecs = list(col_vecs)
        data = {}
        for j, col in enumerate(col_vecs):
            for i, v in col.items():
                data[(i, j)] = v
        return cls(rows, len(col_vecs), data)

    def entry(self, r: int, c: int) -> Fraction:
        return self.data.get((r, c), Fraction(0))

    def row_list(self) -> list:
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.data.items():
            rows[r][c] = v
        return rows

    def column_list(self) -> list:
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.data.items():
            cols[c][r] = v
        return cols

    def mul_vec(self, vec: Vec) -> Vec:
        """Matrix times sparse column vector."""
        out: Vec = {}
        for (r, c), v in self.data.items():
            x = vec.get(c)
            if x:
                w = out.get(r, 0) + v * x
                if w == 0:
                    out.pop(r, None)
                else:
                    out[r] = w
        return out

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        rows_of_other = other.row_list()
        data: dict = {}
        for (r, k), v in self.data.items():
            for c, w in rows_of_other[k].items():
                key = (r, c)
                s = data.get(key, 0) + v * w
                if s == 0:
                    data.pop(key, None)
                else:
                    data[key] = s
        return SparseMatrix(self.rows, other.cols, data)

    def scaled(self, a) -> "SparseMatrix":
        a = Fraction(a)
        return SparseMatrix(self.rows, self.cols, {k: a * v for k, v in self.data.items()})

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in add")
        data = dict(self.data)
        for k, v in other.data.items():
            s = data.get(k, 0) + v
            if s == 0:
                data.pop(k, None)
            else:
                data[k] = s
        return SparseMatrix(self.rows, self.cols, data)

    def is_zero(self) -> bool:
        return not self.data

    def nnz(self) -> int:
        return len(self.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.data.items()))))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.data)})"


def _scaled_ints(vec: Vec):
    """(ints, den) with vec == ints / den; zero entries are dropped."""
    den = lcm(*(v.denominator for v in vec.values()))
    if den == 1:
        return {j: v.numerator for j, v in vec.items() if v}, 1
    return {j: v.numerator * (den // v.denominator) for j, v in vec.items() if v}, den


def _times(vec: dict, k: int) -> dict:
    return {j: x * k for j, x in vec.items()} if k != 1 else dict(vec)


def _sub_multiple(target: dict, c: int, source: dict) -> None:
    """In-place target -= c * source on int dicts, dropping zeros."""
    get = target.get
    for j, x in source.items():
        w = get(j, 0) - c * x
        if w:
            target[j] = w
        else:
            del target[j]


def _divide_content(vec: dict, sign: int) -> None:
    """Divide vec by its content times sign."""
    g = gcd(*vec.values()) * sign
    if g != 1:
        for j in vec:
            vec[j] //= g


def _fractions(vec: dict, den: int) -> Vec:
    return {j: Fraction(x, den) for j, x in vec.items()}


class RrefAccumulator:
    """Incrementally maintained reduced row echelon basis of a row space.

    Each row, keyed by its pivot column, is a dict of ints with content 1
    and a positive pivot entry, zero at every other pivot column.  Dividing
    each row by its pivot entry gives the unique RREF of the span of the
    inserted vectors.

    A stored row or view is replaced when it changes, never mutated in
    place, so `copy` shares them.
    """

    def __init__(self):
        self._rows: dict = {}  # pivot col -> int row
        self._view: Optional[dict] = None  # pivot col -> Fraction RREF row

    def copy(self) -> "RrefAccumulator":
        """An accumulator of the same span that inserts independently of this one."""
        out = RrefAccumulator()
        out._rows = dict(self._rows)
        out._view = self._view
        return out

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list:
        return sorted(self._rows)

    def _eliminate(self, vec: dict):
        """Reduce an int vector against the rows.

        Returns (residual, hit pivots, D) where residual == D*vec - sum over
        hit pivots p of (vec[p]*D/row_p[p]) * row_p.  vec is returned as it
        is when it meets no pivot, else left unchanged.
        """
        rows = self._rows
        hits = [j for j in vec if j in rows]
        if not hits:
            return vec, hits, 1
        scale = lcm(*(rows[p][p] for p in hits))
        out = _times(vec, scale)
        for p in hits:
            row = rows[p]
            _sub_multiple(out, vec[p] * scale // row[p], row)
        return out, hits, scale

    def reduce(self, vec: Vec) -> Vec:
        """Residual of vec modulo the current row space (vec not consumed)."""
        ints, den = _scaled_ints(vec)
        out, _, scale = self._eliminate(ints)
        return _fractions(out, den * scale)

    def reduce_with_coeffs(self, vec: Vec):
        """Like reduce, also returning {pivot: coefficient} of the RREF rows used.

        In reduced echelon form that coefficient is vec's entry at the pivot.
        """
        ints, den = _scaled_ints(vec)
        out, hits, scale = self._eliminate(ints)
        return _fractions(out, den * scale), {p: Fraction(ints[p], den) for p in hits}

    def insert(self, vec: Vec):
        """Insert a vector; returns its pivot column or None if dependent."""
        out, _, _ = self._eliminate(_scaled_ints(vec)[0])
        if not out:
            return None
        piv = min(out)
        _divide_content(out, 1 if out[piv] > 0 else -1)
        # Back-reduce the other rows against the new pivot.
        lead = out[piv]
        rows = self._rows
        for p, row in rows.items():
            e = row.get(piv)
            if e is None:
                continue
            h = gcd(lead, e)
            new = _times(row, lead // h)
            _sub_multiple(new, e // h, out)
            _divide_content(new, 1)
            rows[p] = new
        rows[piv] = out
        self._view = None
        return piv

    def int_rows(self) -> list:
        """(pivot, int row) in pivot order: each row has content 1 and a
        positive entry at its pivot; divided by that entry it is the RREF row."""
        return [(p, dict(sorted(self._rows[p].items()))) for p in sorted(self._rows)]

    def int_kernel(self, cols: int) -> dict:
        """{free column f: int vector} spanning the right null space of the
        rows over columns 0..cols-1; the vector of f is L at f and
        -row_p[f]*L/row_p[p] at each pivot p whose row meets f, with L the
        lcm of those pivot entries."""
        rows = self._rows
        meets = {f: [] for f in range(cols) if f not in rows}
        for p in sorted(rows):
            for j, x in rows[p].items():
                if j != p:
                    meets[j].append((p, x))
        out = {}
        for f, hits in meets.items():
            scale = lcm(*(rows[p][p] for p, _ in hits))
            vec = {f: scale}
            for p, x in hits:
                vec[p] = -x * (scale // rows[p][p])
            out[f] = vec
        return out

    def _rref(self) -> dict:
        if self._view is None:
            self._view = {p: _fractions(row, row[p]) for p, row in self.int_rows()}
        return self._view

    def row_vectors(self) -> list:
        """RREF rows (pivot coefficient 1), in pivot order."""
        return [dict(row) for row in self._rref().values()]

    def to_matrix(self, cols: int) -> SparseMatrix:
        return SparseMatrix.from_rows(self._rref().values(), cols)


def _span(vecs, acc: Optional[RrefAccumulator] = None) -> RrefAccumulator:
    """`acc`, a new accumulator by default, with `vecs` inserted in order."""
    acc = RrefAccumulator() if acc is None else acc
    for v in vecs:
        acc.insert(v)
    return acc


def rref(m: SparseMatrix):
    """Reduced row echelon form.

    Returns (reduced matrix, pivot column list, rank).  The output is the
    unique RREF of the row space; pivot columns are strictly increasing.
    """
    acc = _span(m.row_list())
    return acc.to_matrix(m.cols), acc.pivots(), acc.rank


def kernel_basis(m: SparseMatrix) -> list:
    """Basis of the right null space, as sparse column vectors.

    One vector per non-pivot column; m.mul_vec(v) == {} for each.
    """
    kernel = _span(m.row_list()).int_kernel(m.cols)
    return [_fractions(vec, vec[f]) for f, vec in kernel.items()]


def span_solver(span: SparseMatrix):
    """(rank of the column span, solve) with solve(v) == membership(v, span).

    Column j of the r x k span goes in as the row col_j + e_(r+k-1-j): the
    tags sit past the rows in reverse order, so a column that depends on
    earlier ones pivots at its own tag and gets no coefficient.  v is in the
    span exactly when its residual is zero below r, and its coordinates are
    minus the residual at the tags.
    """
    r, k = span.rows, span.cols
    acc = RrefAccumulator()
    for j, col in enumerate(span.column_list()):
        acc.insert({**col, r + k - 1 - j: 1})

    def solve(v: Vec) -> Optional[Vec]:
        out = acc.reduce(v)
        if out and min(out) < r:
            return None
        return {r + k - 1 - t: -x for t, x in out.items()}

    return sum(1 for p in acc._rows if p < r), solve


def membership(v: Vec, span: SparseMatrix):
    """Express v in the column span of `span`.

    Returns a coefficient vector c (dict col index -> Fraction) with
    span @ c == v exactly, or None if v is not in the span.  Not-in-span is
    a normal outcome, not an error.
    """
    for i in v:
        if not 0 <= i < span.rows:
            raise ValueError(f"vector index {i} incompatible with {span.rows} rows")
    return span_solver(span)[1](v)
