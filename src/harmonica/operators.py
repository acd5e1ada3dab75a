"""Exact matrices of the operator families on graded pieces of the spaces.

Every matrix on a quotient is certified before it is returned: the operator
must carry the relation subspace into the relation subspace.  For the
built-in first-order equivariant families the certificate is structural:
by Leibniz, each generator's image (the polarized power sums p_{c,d}, and
for odd operators on the hook the odd Euler element) must lie in the
invariant ideal.  The p_{c,d} generate the diagonal invariants (Weyl), so
that is read off the image alone, with no quotient block: each homogeneous
component must be even, of positive degree and fixed by every s_i;
anything else raises `NotImplementedError`.  A failed certificate surfaces
the offending element as a witness.

An `OperatorSpec` kind is declared once, in `_KINDS`, with its label prefix
and its `superpoly` constructor; a spec's tridegree shift is read off its
operator by `tridegree_shift`, and the operator is built once per spec; the
certificate generators are built once per n.  Matrices act on int column
vectors (`spaces.column_map`) and read the space only through `basis`,
`coords` of an image vector and `is_zero_at`, so one loop serves quotients
and graded subspaces alike; no column map is built where the source piece
has no basis or the space knows the target piece is zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from .linalg import SparseMatrix, _scaled_ints
from .spaces import (
    GradedSubspace,
    QuotientSpace,
    _power_sum_generators,
    ambient_basis,
    column_map,
)
from .superpoly import (
    DiffOperator,
    Monomial,
    Polynomial,
    TriDegree,
    _unit_exp,
    apply_op,
    op_E,
    op_E_star,
    op_F,
    op_F_star,
    op_d,
    op_hamiltonian,
    render,
    transpose_adjacent,
    tridegree_shift,
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
    "ham": ("v", op_hamiltonian),
}


@lru_cache(maxsize=None)
def _operator(spec: OperatorSpec) -> Tuple[DiffOperator, Tuple[int, int, int]]:
    """The spec's operator, built once per spec, and its tridegree shift."""
    op = _KINDS[spec.kind][1](spec.n, *spec.params)
    return op, tridegree_shift(op)


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
    # with at most one odd annihilator, and multipliers are even.
    return (coeff, mult, deriv.xe, deriv.ye, deriv.odd)


def _is_equivariant(spec: OperatorSpec) -> bool:
    """Syntactic check: the term list is stable under index relabeling (by
    the adjacent transpositions, which generate S_n)."""
    ops = spec.diff_operator().ops
    if any(len(term.odd_ann) > 1 for term in ops):
        return False
    base = sorted(ops)
    for i in range(spec.n - 1):
        if sorted(_transpose_term(t, i) for t in ops) != base:
            return False
    return True


@lru_cache(maxsize=None)
def _diagonal_poly(n: int, x: int = 0, y: int = 0, th: int = 0) -> Polynomial:
    """sum_i x_i^x y_i^y th_i^th, not constant: p_{x,y}, or the odd Euler
    element for th=1; built once per (n, exponents) for every certificate."""
    return Polynomial(n, {Monomial(_unit_exp(n, i, x), _unit_exp(n, i, y), (i,) * th): 1 for i in range(n)})


def _structural_certificate(spec: OperatorSpec, space: QuotientSpace) -> Optional[Polynomial]:
    """None on success, witness polynomial on failure, raises on inapplicable."""
    if spec.kind not in _FIRST_ORDER_KINDS:
        raise NotImplementedError(f"no structural certificate for operator kind {spec.kind!r}")
    if not _is_equivariant(spec):
        raise NotImplementedError("operator is not syntactically equivariant")
    n = spec.n
    D = spec.diff_operator()
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


def check_preserves(spec: OperatorSpec, space):
    """Certify that the operator preserves the relations (quotient input) or
    the subspace itself (graded-subspace input).

    Returns (True, None) on pass, or (False, witness polynomial).  On a
    quotient the certificate is the structural one, so an operator kind it
    does not cover (F*_k, E*_k) or an operator that is not syntactically
    equivariant raises `NotImplementedError`.
    """
    if isinstance(space, QuotientSpace):
        witness = _structural_certificate(spec, space)
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
    basis = space.basis(deg)
    data = {}
    if basis and not space.is_zero_at(tdeg):
        D = spec.diff_operator()
        image = column_map(D, deg)
        for j, vec in enumerate(basis):
            ints, scale = _scaled_ints(vec)
            coords = space.coords(tdeg, image(ints))
            if coords is None:
                monos = ambient_basis(space.n, deg)[0]
                raise WellDefinednessError(
                    f"{spec.label()} image of a {space.kind} basis vector at {deg} "
                    f"is not in the piece at {tdeg}",
                    Polynomial(space.n, {monos[c]: v for c, v in vec.items()}),
                )
            for row, val in coords.items():
                data[(row, j)] = Fraction(val, D.den * scale)
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
