"""Exact matrices of the operator families on graded pieces of the spaces.

Every matrix on a quotient is certified before it is returned: the operator
must carry the relation subspace into the relation subspace.  For the
built-in first-order equivariant families the certificate is structural:
by Leibniz, each generator's image (the polarized power sums p_{c,d}, and
for odd operators on the hook the odd Euler element) must lie in the
invariant ideal.  The p_{c,d} generate the diagonal invariants (Weyl), so
that is read off the image alone, with no quotient block: each homogeneous
component must be even, of positive degree and fixed by every s_i.  For
anything else the relation rows are checked one by one.  A failed
certificate surfaces the offending element as a witness.

An `OperatorSpec` kind is declared once, in `_KINDS`, with its label prefix
and its `superpoly` constructor; a spec's tridegree shift is read off its
operator, which is built once per spec; the certificate generators are
built once per n.  Matrices read classes and coordinates only through the
space (`basis_polys`, `coords`, `is_zero_at`), so one loop serves quotients
and graded subspaces alike; no image is computed where the space knows
every class is zero.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from .linalg import SparseMatrix
from .spaces import (
    GradedSubspace,
    QuotientSpace,
    _power_sum_generators,
    vec_to_poly,
)
from .superpoly import (
    DiffOperator,
    Monomial,
    Polynomial,
    TriDegree,
    _diagonal,
    _diagonal_sum,
    apply_op,
    op_E,
    op_E_star,
    op_F,
    op_F_star,
    op_d,
    op_d_star,
    op_hamiltonian,
    op_wedge_omega,
    render,
    transpose_adjacent,
)


class WellDefinednessError(Exception):
    """An operator does not descend to the requested quotient."""

    def __init__(self, message: str, witness: Optional[Polynomial] = None):
        super().__init__(message)
        self.witness = witness


class OperatorSpec(NamedTuple):
    """Which operator: family kind plus its parameter(s) and variable count.

    A NamedTuple, so the memo keys holding it hash and compare at C speed.
    """

    kind: str  # a key of _KINDS
    n: int
    params: Tuple[int, ...]

    @classmethod
    def F(cls, n, k):
        return cls("F", n, (k,))

    @classmethod
    def E(cls, n, k):
        return cls("E", n, (k,))

    @classmethod
    def d(cls, n, N):
        return cls("d", n, (N,))

    @classmethod
    def hamiltonian(cls, n, a, b):
        return cls("ham", n, (a, b))

    def label(self) -> str:
        prefix = _KINDS[self.kind][0]
        if len(self.params) == 1:
            return f"{prefix}{self.params[0]}"
        return f"{prefix}({','.join(map(str, self.params))})"

    def shift(self) -> Tuple[int, int, int]:
        return _operator(self)[1]

    def target_degree(self, deg: TriDegree) -> TriDegree:
        s = self.shift()
        return TriDegree(deg.dx + s[0], deg.dy + s[1], deg.da + s[2])

    def diff_operator(self) -> DiffOperator:
        return _operator(self)[0]


# kind -> (label prefix, constructor taking (n, *params))
_KINDS = {
    "F": ("F", op_F),
    "E": ("E", op_E),
    "Fstar": ("F*", op_F_star),
    "Estar": ("E*", op_E_star),
    "d": ("d", op_d),
    "dstar": ("d*", op_d_star),
    "wedge": ("w", op_wedge_omega),
    "ham": ("v", op_hamiltonian),
}


@lru_cache(maxsize=None)
def _operator(spec: OperatorSpec) -> Tuple[DiffOperator, Tuple[int, int, int]]:
    """The spec's operator, built once per spec, and its tridegree shift.

    The shift is read off the first term, as the multiplier's tridegree
    minus the derivative orders; every term of a family has the same shift.
    """
    op = _KINDS[spec.kind][1](spec.n, *spec.params)
    term = op.ops[0]
    mult = term.mult.tridegree()
    return op, (mult.dx - sum(term.dx), mult.dy - sum(term.dy), mult.da - len(term.odd_ann))


class OperatorMatrix(NamedTuple):
    source: TriDegree
    target: TriDegree
    matrix: SparseMatrix

    def is_zero(self) -> bool:
        return self.matrix.is_zero()


def compose(outer: OperatorMatrix, inner: OperatorMatrix) -> OperatorMatrix:
    if inner.target != outer.source:
        raise ValueError(f"cannot compose: {inner.target} != {outer.source}")
    return OperatorMatrix(inner.source, outer.target, outer.matrix.matmul(inner.matrix))


# ---------------------------------------------------------------------------
# Well-definedness certificates
# ---------------------------------------------------------------------------

_FIRST_ORDER_KINDS = {"F", "E", "ham", "d"}


def _is_invariant(p: Polynomial) -> bool:
    """Whether every adjacent transposition s_i fixes p; they generate S_n."""
    for i in range(p.n - 1):
        for m, c in p.terms.items():
            image, sign = transpose_adjacent(m, i)
            if p.terms.get(image) != sign * c:
                return False
    return True


def _outside_invariant_ideal(p: Polynomial) -> Optional[Polynomial]:
    """The first homogeneous component of p that is odd, constant or not
    S_n-invariant, or None, and then p lies in the invariant ideal.  For an
    invariant p, as a generator's image under an equivariant operator is, a
    component is returned exactly when it lies outside."""
    for deg, comp in p.homogeneous_components().items():
        if deg.da or not (deg.dx or deg.dy) or not _is_invariant(comp):
            return comp
    return None


def _transpose_term(term, i: int):
    """The term relabelled by s_i = (i i+1)."""
    coeff, mult, dx, dy, odd_ann = term
    mult, _ = transpose_adjacent(mult, i)
    deriv, _ = transpose_adjacent(Monomial(dx, dy, odd_ann), i)
    # Koszul signs are dropped: equivariance checks are restricted to terms
    # with at most one odd factor in total.
    return (coeff, mult, deriv.xe, deriv.ye, deriv.odd)


def _is_equivariant(spec: OperatorSpec) -> bool:
    """Syntactic check: the term list is stable under index relabeling (by
    the adjacent transpositions, which generate S_n)."""
    ops = spec.diff_operator().ops
    for term in ops:
        if len(term.mult.odd) + len(term.odd_ann) > 1:
            return False
    base = sorted(ops)
    for i in range(spec.n - 1):
        if sorted(_transpose_term(t, i) for t in ops) != base:
            return False
    return True


@lru_cache(maxsize=None)
def _diagonal_poly(n: int, **exps) -> Polynomial:
    """sum_i x_i^x y_i^y th_i^th: p_{x,y}, or the odd Euler element for th=1;
    built once per (n, exponents), as every certificate at n reads them."""
    return apply_op(_diagonal_sum(n, _diagonal(**exps)), Polynomial.one(n))


def _structural_certificate(spec: OperatorSpec, space: QuotientSpace) -> Optional[Polynomial]:
    """None on success, witness polynomial on failure, raises on inapplicable."""
    n = spec.n
    D = spec.diff_operator()
    if spec.kind == "wedge":
        # A multiplier fixed by S_n commutes with the sign projector and
        # keeps the ideal part and the odd Euler relations.
        mult = apply_op(D, Polynomial.one(n))
        return None if _is_invariant(mult) else mult
    if spec.kind not in _FIRST_ORDER_KINDS:
        raise NotImplementedError("no structural certificate for this operator kind")
    if not _is_equivariant(spec):
        raise NotImplementedError("operator is not syntactically equivariant")
    # Leibniz: preservation of the invariant ideal reduces to the generators.
    generators = [_diagonal_poly(n, x=a, y=b) for (a, b) in _power_sum_generators(n)]
    # Odd operators must respect the wedge relations of the odd Euler element.
    if "hook" in space.kind and spec.kind == "d":
        generators.append(_diagonal_poly(n, th=1))
    for g in generators:
        bad = _outside_invariant_ideal(apply_op(D, g))
        if bad is not None:
            return bad
    return None


def _exhaustive_certificate(spec: OperatorSpec, space: QuotientSpace) -> Optional[Polynomial]:
    """Row-by-row check of the relation subspace; None on success."""
    D = spec.diff_operator()
    for deg in sorted(space.blocks):
        tdeg = spec.target_degree(deg)
        for _, row in space.blocks[deg].relation_rows():
            poly = vec_to_poly(row, spec.n, deg)
            if space.coords(tdeg, apply_op(D, poly)):
                return poly
    return None


def check_preserves(spec: OperatorSpec, space):
    """Certify that the operator preserves the relations (quotient input) or
    the subspace itself (graded-subspace input).

    Returns (True, None) on pass, or (False, witness polynomial).
    """
    if isinstance(space, QuotientSpace):
        try:
            witness = _structural_certificate(spec, space)
        except NotImplementedError:
            witness = _exhaustive_certificate(spec, space)
        return (witness is None), witness
    if isinstance(space, GradedSubspace):
        cap = space.degree_cap
        for deg in space.support():
            tdeg = spec.target_degree(deg)
            if cap is not None and tdeg.dx + tdeg.dy > cap:
                continue  # the space was only built up to the cap
            try:
                matrix_of(spec, space, deg)
            except WellDefinednessError as exc:
                return False, exc.witness
        return True, None
    raise TypeError(f"unsupported space type {type(space)!r}")


def _certified(spec: OperatorSpec, space: QuotientSpace):
    """Raise WellDefinednessError unless the certificate, run once per space, passed."""
    witness = space.memoised(("certificate", spec), lambda: check_preserves(spec, space)[1])
    if witness is not None:
        raise WellDefinednessError(
            f"{spec.label()} does not preserve the relations of {space.kind} (n={space.n}); "
            f"witness: {render(witness)}",
            witness,
        )


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def matrix_of(spec: OperatorSpec, space, deg) -> OperatorMatrix:
    """Exact matrix of the operator from one tridegree piece to its image.

    On quotients the relation subspace is always certified first; the matrix
    acts on representative classes.  On graded subspaces the image of each
    basis vector is resolved in the target basis (a failure to resolve means
    the operator does not preserve the subspace and raises).  Each matrix is
    computed once per space; the returned matrix is shared, not copied.
    """
    deg = TriDegree(*deg)
    if isinstance(space, QuotientSpace):
        _certified(spec, space)
    return space.memoised(("matrix", spec, deg), lambda: _matrix(spec, space, deg))


def _matrix(spec: OperatorSpec, space, deg: TriDegree) -> OperatorMatrix:
    tdeg = spec.target_degree(deg)
    D = spec.diff_operator()
    basis = space.basis_polys(deg)
    data = {}
    for j, poly in enumerate(() if space.is_zero_at(tdeg) else basis):
        coords = space.coords(tdeg, apply_op(D, poly))
        if coords is None:
            raise WellDefinednessError(
                f"{spec.label()} image of a {space.kind} basis vector at {deg} "
                f"is not in the piece at {tdeg}",
                poly,
            )
        for row, val in coords.items():
            data[(row, j)] = val
    return OperatorMatrix(deg, tdeg, SparseMatrix(space.dim(tdeg), len(basis), data))


def is_zero_on(spec: OperatorSpec, space) -> bool:
    """Whether the operator vanishes on every piece; stops at the first nonzero one."""
    return all(matrix_of(spec, space, deg).is_zero() for deg in space.support())


def _bracket_piece(u: OperatorSpec, v: OperatorSpec, space, deg: TriDegree) -> OperatorMatrix:
    """The matrix of u v - (-1)^(|u||v|) v u on one piece, where |u| is the
    parity of u's odd-degree shift."""
    sign = 1 if u.shift()[2] % 2 and v.shift()[2] % 2 else -1
    uv = compose(matrix_of(u, space, v.target_degree(deg)), matrix_of(v, space, deg))
    vu = compose(matrix_of(v, space, u.target_degree(deg)), matrix_of(u, space, deg))
    if uv.target != vu.target:
        raise ValueError("bracket of operators with different total shifts")
    return OperatorMatrix(deg, uv.target, uv.matrix.add(vu.matrix.scaled(sign)))


def bracket_mismatch(u: OperatorSpec, v: OperatorSpec, space, coeff=0,
                     w: Optional[OperatorSpec] = None) -> Optional[TriDegree]:
    """The first stored piece where [u, v] != coeff w, or None; with coeff 0
    the identity asked is [u, v] = 0 and w is not read.

    A piece whose bracket lands in a piece the space knows is zero is
    skipped: both sides vanish there.  On a quotient the operators are
    certified first, so a skipped piece skips no certificate.
    """
    if isinstance(space, QuotientSpace):
        for spec in (u, v, w) if coeff else (u, v):
            _certified(spec, space)
    for deg in space.support():
        if space.is_zero_at(u.target_degree(v.target_degree(deg))):
            continue
        om = _bracket_piece(u, v, space, deg)
        if (om.matrix != matrix_of(w, space, deg).matrix.scaled(coeff)) if coeff else not om.is_zero():
            return deg
    return None


def matrix_json(om: OperatorMatrix) -> dict:
    """JSON-ready form with exact entries rendered as 'p/q' strings."""
    return {
        "source": list(om.source),
        "target": list(om.target),
        "rows": om.matrix.rows,
        "cols": om.matrix.cols,
        "entries": [
            [r, c, str(v)] for (r, c), v in sorted(om.matrix.data.items())
        ],
    }
