"""Exact matrices of the operator families on graded pieces of the spaces.

Every matrix on a quotient is certified before it is returned: the operator
must carry the relation subspace into the relation subspace.  For the
built-in first-order equivariant families the certificate is structural:
by Leibniz, each generator's image (the polarized power sums p_{c,d}, and
for odd operators on the hook the odd Euler element) must lie in the
invariant ideal.  The p_{c,d} generate the diagonal invariants (Weyl), so
that is read off the image alone: each homogeneous component must be even,
of positive degree and fixed by every s_i; anything else raises
`NotImplementedError`.  So `structural_certificate` reads only the quotient's
kind, and certifies an operator on DR_n without building it.  A failed
certificate surfaces the offending element as a witness.

An `OperatorSpec` kind is declared once, in `_KINDS`, with its label prefix
and its `superpoly` constructor; a spec's tridegree shift is read off its
operator by `tridegree_shift`.  The operator with its shift, and each
certificate generator, are built once per workspace of n (`spaces._per_n`).
Matrices act on int column
vectors (`spaces.column_map`) and read the space only through `basis`,
`coords` of an image vector and `is_zero_at`, so one loop serves quotients
and graded subspaces alike; no column map is built where the source piece
has no basis or the space knows the target piece is zero.  A matrix is the
list of its columns, the images of the source basis (`linalg`); `compose`
and the graded `bracket` work column by column.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .linalg import _scaled_ints, mul_vec, vec_add_scaled
from .spaces import (
    GradedSubspace,
    QuotientSpace,
    _per_n,
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


def _operator(spec: OperatorSpec) -> Tuple[DiffOperator, Tuple[int, int, int]]:
    """The spec's operator, built once per workspace, and its tridegree shift."""

    def build():
        op = _KINDS[spec.kind][1](spec.n, *spec.params)
        return op, tridegree_shift(op)

    return _per_n(spec.n, ("operator", spec), build)


class OperatorMatrix(NamedTuple):
    """A matrix from the piece at source to the piece at target, as its
    columns: column j is the image of basis vector j, in target coordinates.
    `matrix_of` hands out shared matrices, so no caller mutates a column."""

    source: TriDegree
    target: TriDegree
    columns: list

    def is_zero(self) -> bool:
        return not any(self.columns)


def compose(outer: OperatorMatrix, inner: OperatorMatrix) -> OperatorMatrix:
    if inner.target != outer.source:
        raise ValueError(f"cannot compose: {inner.target} != {outer.source}")
    return OperatorMatrix(inner.source, outer.target, [mul_vec(outer.columns, col) for col in inner.columns])


def bracket(u_after: OperatorMatrix, v: OperatorMatrix, v_after: OperatorMatrix, u: OperatorMatrix,
            sign: int) -> OperatorMatrix:
    """u v + sign v u on one piece, column by column, from the matrices of v
    and u on the piece and of u after v and v after u."""
    uv, vu = compose(u_after, v), compose(v_after, u)
    if uv.target != vu.target:
        raise ValueError("bracket of operators with different total shifts")
    for col, other in zip(uv.columns, vu.columns):
        vec_add_scaled(col, sign, other)
    return uv


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


def _diagonal_poly(n: int, x: int = 0, y: int = 0, th: int = 0) -> Polynomial:
    """sum_i x_i^x y_i^y th_i^th, not constant: p_{x,y}, or the odd Euler
    element for th=1; built once per workspace for every certificate."""
    return _per_n(n, ("generator", x, y, th), lambda: Polynomial(
        n, {Monomial(_unit_exp(n, i, x), _unit_exp(n, i, y), (i,) * th): 1 for i in range(n)}))


def structural_certificate(spec: OperatorSpec, kind: str) -> Optional[Polynomial]:
    """On the quotient of that kind: None on success, witness on failure, raises on inapplicable."""
    if spec.kind not in _FIRST_ORDER_KINDS:
        raise NotImplementedError(f"no structural certificate for operator kind {spec.kind!r}")
    if not _is_equivariant(spec):
        raise NotImplementedError("operator is not syntactically equivariant")
    n = spec.n
    D = spec.diff_operator()
    # Leibniz: preservation of the invariant ideal reduces to the generators.
    generators = [_diagonal_poly(n, x=a, y=b) for (a, b) in _power_sum_generators(n)]
    # Odd operators must respect the wedge relations of the odd Euler element.
    if "hook" in kind and spec.kind == "d":
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
        witness = structural_certificate(spec, space.kind)
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
    if not basis or space.is_zero_at(tdeg):
        return OperatorMatrix(deg, tdeg, [{} for _ in basis])
    D = spec.diff_operator()
    image = column_map(D, deg)
    columns = []
    for vec in basis:
        ints, scale = _scaled_ints(vec)
        coords = space.coords(tdeg, image(ints))
        if coords is None:
            monos = ambient_basis(space.n, deg)[0]
            raise WellDefinednessError(
                f"{spec.label()} image of a {space.kind} basis vector at {deg} "
                f"is not in the piece at {tdeg}",
                Polynomial(space.n, {monos[c]: v for c, v in vec.items()}),
            )
        den = D.den * scale
        columns.append({row: Fraction(val, den) for row, val in coords.items()})
    return OperatorMatrix(deg, tdeg, columns)


def is_zero_on(spec: OperatorSpec, space) -> bool:
    """Whether the operator vanishes on every piece; stops at the first nonzero one."""
    return all(matrix_of(spec, space, deg).is_zero() for deg in space.support())


def _bracket_piece(u: OperatorSpec, v: OperatorSpec, space, deg: TriDegree) -> OperatorMatrix:
    """The matrix of u v - (-1)^(|u||v|) v u on one piece, where |u| is the
    parity of u's odd-degree shift."""
    sign = 1 if u.shift()[2] % 2 and v.shift()[2] % 2 else -1
    return bracket(matrix_of(u, space, v.target_degree(deg)), matrix_of(v, space, deg),
                   matrix_of(v, space, u.target_degree(deg)), matrix_of(u, space, deg), sign)


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
        got = _bracket_piece(u, v, space, deg).columns
        if coeff:
            want = [{r: coeff * x for r, x in col.items()} for col in matrix_of(w, space, deg).columns]
            if got != want:
                return deg
        elif any(got):
            return deg
    return None


def matrix_json(om: OperatorMatrix, space) -> dict:
    """JSON-ready form with exact entries rendered as 'p/q' strings; the
    row count is the dimension of the space's target piece."""
    return {
        "source": list(om.source),
        "target": list(om.target),
        "rows": space.dim(om.target),
        "cols": len(om.columns),
        "entries": sorted([r, c, str(v)] for c, col in enumerate(om.columns) for r, v in col.items()),
    }
