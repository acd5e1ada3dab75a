"""The Fraction-per-entry elimination engine, kept only as a test oracle.

This is the elimination code `harmonica.linalg` used before it moved to
fraction-free integer rows: a Bareiss-style `rref` with rational
back-substitution, and an `RrefAccumulator` that stores every entry as a
`Fraction`.  The bodies are unchanged; the differential tests in
`test_linalg_differential.py` hold the integer engine to the same results.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from harmonica.linalg import SparseMatrix

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


def _integerize(row: Vec) -> dict:
    """Scale a rational row to coprime integers (sign preserved)."""
    if not row:
        return {}
    den = 1
    for v in row.values():
        den = den * v.denominator // gcd(den, v.denominator)
    ints = {j: int(v * den) for j, v in row.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, abs(v))
    if g > 1:
        ints = {j: v // g for j, v in ints.items()}
    return ints


def rref(m: SparseMatrix):
    """Reduced row echelon form.

    Returns (reduced matrix, pivot column list, rank).  The output is the
    unique RREF of the row space; pivot columns are strictly increasing.
    """
    # Fraction-free forward pass on integer-scaled rows.
    work = [_integerize(r) for r in m.row_list()]
    work = [r for r in work if r]
    order = list(range(len(work)))  # indices into work, in elimination order
    pivots = []
    piv_rows = []  # positions in `order` of pivot rows, in pivot order
    prev = 1
    next_slot = 0
    for col in range(m.cols):
        cand = None
        cand_key = None
        for slot in range(next_slot, len(order)):
            row = work[order[slot]]
            if col in row:
                key = (len(row), order[slot])
                if cand is None or key < cand_key:
                    cand, cand_key = slot, key
        if cand is None:
            continue
        order[next_slot], order[cand] = order[cand], order[next_slot]
        prow = work[order[next_slot]]
        p = prow[col]
        for slot in range(next_slot + 1, len(order)):
            row = work[order[slot]]
            f = row.pop(col, 0)
            new = {}
            for j, v in row.items():
                w = p * v - f * prow.get(j, 0)
                if w:
                    new[j] = w // prev
            for j, v in prow.items():
                if j not in row and j != col:
                    w = -f * v
                    if w:
                        new[j] = w // prev
            work[order[slot]] = new
        prev = p
        pivots.append(col)
        piv_rows.append(next_slot)
        next_slot += 1

    # Rational back-substitution to reach the reduced form.
    reduced: list = []
    for k in range(len(pivots) - 1, -1, -1):
        row = {j: Fraction(v) for j, v in work[order[piv_rows[k]]].items()}
        p = row[pivots[k]]
        row = {j: v / p for j, v in row.items()}
        for idx, later in enumerate(reduced):
            c = row.pop(pivots[len(pivots) - 1 - idx], 0)
            if c:
                vec_add_scaled(row, -c, later)
                row.pop(pivots[len(pivots) - 1 - idx], None)
        reduced.append(row)
    reduced.reverse()
    out = SparseMatrix.from_rows(reduced, m.cols)
    return out, pivots, len(pivots)


def kernel_basis(m: SparseMatrix) -> list:
    """Basis of the right null space, as sparse column vectors.

    One vector per non-pivot column; m.mul_vec(v) == {} for each.
    """
    red, pivots, rank = rref(m)
    pivot_set = set(pivots)
    rows = red.row_list()
    basis = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        vec: Vec = {j: Fraction(1)}
        for i, piv in enumerate(pivots):
            c = rows[i].get(j)
            if c:
                vec[piv] = -c
        basis.append(vec)
    return basis


def membership(v: Vec, span: SparseMatrix):
    """Express v in the column span of `span`.

    Returns a coefficient vector c (dict col index -> Fraction) with
    span @ c == v exactly, or None if v is not in the span.  Not-in-span is
    a normal outcome, not an error.
    """
    for i in v:
        if not 0 <= i < span.rows:
            raise ValueError(f"vector index {i} incompatible with {span.rows} rows")
    acc = RrefAccumulator(track=True)
    for j, col in enumerate(span.column_list()):
        acc.insert(col, tag=j)
    residual, combo = acc.reduce_with_coeffs(dict(v))
    if residual:
        return None
    coeffs: Vec = {}
    for piv, c in combo.items():
        vec_add_scaled(coeffs, c, acc.expr[piv])
    return coeffs


class RrefAccumulator:
    """Incrementally maintained reduced row echelon basis of a row space.

    Rows are kept mutually reduced with pivot coefficient 1, keyed by pivot
    column, so the stored basis is at all times the unique RREF of the span
    of the inserted vectors.  With track=True every stored row also carries
    its expression as a combination of the inserted vectors (by tag).
    """

    def __init__(self, track: bool = False):
        self.rows: dict = {}  # pivot col -> row vec (row[pivot] == 1)
        self.track = track
        self.expr: dict = {}  # pivot col -> combination of inserted tags

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self) -> list:
        return sorted(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """Residual of vec modulo the current row space (vec not consumed)."""
        vec = dict(vec)
        rows = self.rows
        while True:
            hit = None
            for j in vec:
                if j in rows:
                    hit = j
                    break
            if hit is None:
                return vec
            c = vec.pop(hit)
            vec_add_scaled(vec, -c, rows[hit])
            vec.pop(hit, None)

    def reduce_with_coeffs(self, vec: Vec):
        """Like reduce, also returning {pivot: coefficient} used."""
        vec = dict(vec)
        combo: Vec = {}
        rows = self.rows
        while True:
            hit = None
            for j in vec:
                if j in rows:
                    hit = j
                    break
            if hit is None:
                return vec, combo
            c = vec.pop(hit)
            combo[hit] = combo.get(hit, 0) + c
            vec_add_scaled(vec, -c, rows[hit])
            vec.pop(hit, None)

    def insert(self, vec: Vec, tag=None):
        """Insert a vector; returns its pivot column or None if dependent."""
        vec = {j: Fraction(v) for j, v in vec.items() if v != 0}
        combo: Vec = {}
        rows = self.rows
        while True:
            hit = None
            for j in vec:
                if j in rows:
                    hit = j
                    break
            if hit is None:
                break
            c = vec.pop(hit)
            if self.track:
                combo[hit] = combo.get(hit, 0) + c
            vec_add_scaled(vec, -c, rows[hit])
            vec.pop(hit, None)
        if not vec:
            return None
        piv = min(vec)
        p = vec.pop(piv)
        row = {j: v / p for j, v in vec.items()}
        row[piv] = Fraction(1)
        if self.track:
            # row = (inserted vector - sum combo[t] * row_t) / p
            expr: Vec = {tag: Fraction(1)} if tag is not None else {}
            for t, c in combo.items():
                vec_add_scaled(expr, -c, self.expr[t])
            self.expr[piv] = {j: v / p for j, v in expr.items()}
        # Back-reduce existing rows against the new pivot.
        for other_piv, other in self.rows.items():
            c = other.pop(piv, 0)
            if c:
                vec_add_scaled(other, -c, row)
                other.pop(piv, None)
                if self.track:
                    vec_add_scaled(self.expr[other_piv], -c, self.expr[piv])
        self.rows[piv] = row
        return piv

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def row_vectors(self) -> list:
        """RREF rows (pivot coefficient reinstated), in pivot order."""
        out = []
        for piv in sorted(self.rows):
            row = dict(self.rows[piv])
            row[piv] = Fraction(1)
            out.append(row)
        return out

    def to_matrix(self, cols: int) -> SparseMatrix:
        return SparseMatrix.from_rows(self.row_vectors(), cols)
