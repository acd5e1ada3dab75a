"""Exact matrices of the operator families on graded pieces of the spaces.

Every matrix on a quotient is certified before it is returned: the operator
must carry the relation subspace into the relation subspace.  For the
built-in first-order equivariant families the certificate is structural
(Leibniz reduces preservation to the finitely many generators: the polarized
power sums, and for odd operators the invariant odd Euler element); for
anything else the full relation row basis is checked vector by vector.  A
failed certificate surfaces the offending element as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Tuple

from .linalg import SparseMatrix
from .spaces import (
    GradedSubspace,
    QuotientSpace,
    _even_block,
    poly_to_vec,
    vec_to_poly,
)
from .superpoly import (
    DiffOperator,
    Monomial,
    Polynomial,
    TriDegree,
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


@dataclass(frozen=True)
class OperatorSpec:
    """Which operator: family kind plus its parameter(s) and variable count."""

    kind: str  # F, E, Fstar, Estar, d, dstar, wedge, ham
    n: int
    params: Tuple[int, ...]

    @classmethod
    def F(cls, n, k):
        return cls("F", n, (k,))

    @classmethod
    def E(cls, n, k):
        return cls("E", n, (k,))

    @classmethod
    def F_star(cls, n, k):
        return cls("Fstar", n, (k,))

    @classmethod
    def E_star(cls, n, k):
        return cls("Estar", n, (k,))

    @classmethod
    def d(cls, n, N):
        return cls("d", n, (N,))

    @classmethod
    def wedge(cls, n, N):
        return cls("wedge", n, (N,))

    @classmethod
    def hamiltonian(cls, n, a, b):
        return cls("ham", n, (a, b))

    def label(self) -> str:
        if self.kind == "ham":
            return f"v({self.params[0]},{self.params[1]})"
        names = {"F": "F", "E": "E", "Fstar": "F*", "Estar": "E*", "d": "d", "dstar": "d*", "wedge": "w"}
        return f"{names[self.kind]}{self.params[0]}"

    def shift(self) -> Tuple[int, int, int]:
        k = self.params[0]
        if self.kind == "F":
            return (k, -1, 0)
        if self.kind == "E":
            return (-1, k, 0)
        if self.kind == "Fstar":
            return (-k, 1, 0)
        if self.kind == "Estar":
            return (1, -k, 0)
        if self.kind == "d":
            return (k, 0, -1)
        if self.kind == "dstar":
            return (-k, 0, 1)
        if self.kind == "wedge":
            return (k, 0, 1)
        a, b = self.params
        return (a - 1, b - 1, 0)

    def target_degree(self, deg: TriDegree) -> TriDegree:
        s = self.shift()
        return TriDegree(deg.dx + s[0], deg.dy + s[1], deg.da + s[2])

    def diff_operator(self) -> DiffOperator:
        n = self.n
        if self.kind == "F":
            return op_F(n, self.params[0])
        if self.kind == "E":
            return op_E(n, self.params[0])
        if self.kind == "Fstar":
            return op_F_star(n, self.params[0])
        if self.kind == "Estar":
            return op_E_star(n, self.params[0])
        if self.kind == "d":
            return op_d(n, self.params[0])
        if self.kind == "dstar":
            return op_d_star(n, self.params[0])
        if self.kind == "wedge":
            return op_wedge_omega(n, self.params[0])
        return op_hamiltonian(n, *self.params)


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

def _invariant_ideal_class_zero(n: int, p: Polynomial) -> Optional[Polynomial]:
    """None if every homogeneous part of p lies in the invariant ideal,
    otherwise the first offending component."""
    for deg, comp in p.homogeneous_components().items():
        if deg.da:
            return comp
        block = _even_block(n, deg.dx, deg.dy)
        if block.class_coords(comp):
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


def _power_sum(n: int, a: int, b: int) -> Polynomial:
    terms = {}
    for i in range(n):
        xe = tuple(a if j == i else 0 for j in range(n))
        ye = tuple(b if j == i else 0 for j in range(n))
        terms[Monomial(xe, ye, ())] = Fraction(1)
    return Polynomial(n, terms)


def _omega0(n: int) -> Polynomial:
    terms = {Monomial((0,) * n, (0,) * n, (i,)): Fraction(1) for i in range(n)}
    return Polynomial(n, terms)


def _structural_certificate(spec: OperatorSpec, space: QuotientSpace) -> Optional[Polynomial]:
    """None on success, witness polynomial on failure, raises on inapplicable."""
    n = spec.n
    kind_parts = space.kind
    D = spec.diff_operator()
    if spec.kind == "wedge":
        # Multiplication operators preserve everything iff the multiplier is
        # S_n-invariant (it then commutes with the sign projector and keeps
        # both the ideal part and the odd Euler relations); the adjacent
        # transpositions generate S_n, so they are the ones checked.
        mult = apply_op(D, Polynomial.one(n))
        for i in range(n - 1):
            for m, c in mult.terms.items():
                image, sign = transpose_adjacent(m, i)
                if mult.terms.get(image) != sign * c:
                    return mult
        return None
    if spec.kind not in _FIRST_ORDER_KINDS:
        raise NotImplementedError("no structural certificate for this operator kind")
    if not _is_equivariant(spec):
        raise NotImplementedError("operator is not syntactically equivariant")
    # Leibniz: preservation of the invariant ideal reduces to the generators.
    for a in range(n + 1):
        for b in range(n + 1):
            if not (1 <= a + b <= n):
                continue
            image = apply_op(D, _power_sum(n, a, b))
            bad = _invariant_ideal_class_zero(n, image)
            if bad is not None:
                return bad
    # Odd operators must respect the wedge relations of the odd Euler element.
    if "hook" in kind_parts and spec.kind == "d":
        g = apply_op(D, _omega0(n))
        if not g.is_zero():
            bad = _invariant_ideal_class_zero(n, g)
            if bad is not None:
                return bad
    return None


def _exhaustive_certificate(spec: OperatorSpec, space: QuotientSpace) -> Optional[Polynomial]:
    """Row-by-row check of the relation subspace; None on success."""
    D = spec.diff_operator()
    for deg in sorted(space.blocks):
        block = space.blocks[deg]
        tdeg = spec.target_degree(deg)
        tblock = space.block(tdeg) if min(tdeg) >= 0 else None
        for _, row in block.relation_rows():
            poly = vec_to_poly(row, spec.n, deg)
            image = apply_op(D, poly)
            if image.is_zero():
                continue
            if tblock is None:
                # Zero-dimensional target piece: everything is a relation.
                continue
            if tblock.class_coords(image):
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
    if isinstance(space, QuotientSpace):
        sblock = space.block(deg)
        sdim = sblock.dim if sblock else 0
        tblock = space.block(tdeg) if min(tdeg) >= 0 else None
        tdim = tblock.dim if tblock else 0
        data = {}
        if sblock and tblock:
            for pos in range(sdim):
                image = apply_op(D, sblock.rep_poly(pos))
                if image.is_zero():
                    continue
                for row, val in tblock.class_coords(image).items():
                    data[(row, pos)] = val
        return OperatorMatrix(deg, tdeg, SparseMatrix(tdim, sdim, data))
    basis = space.basis(deg)
    tbasis = space.basis(tdeg) if min(tdeg) >= 0 else []
    acc = space._acc(TriDegree(*tdeg)) if tbasis else None
    pivot_pos = {piv: i for i, piv in enumerate(acc.pivots())} if acc else {}
    data = {}
    for j, vec in enumerate(basis):
        poly = vec_to_poly(vec, space.n, deg)
        image = apply_op(D, poly)
        if image.is_zero():
            continue
        if acc is None:
            raise WellDefinednessError(
                f"{spec.label()} maps {space.kind} piece {deg} outside the space",
                poly,
            )
        residual, combo = acc.reduce_with_coeffs(poly_to_vec(image, tdeg))
        if residual:
            raise WellDefinednessError(
                f"{spec.label()} image of a {space.kind} basis vector at {deg} "
                f"is not in the piece at {tdeg}",
                poly,
            )
        for piv, c in combo.items():
            data[(pivot_pos[piv], j)] = c
    return OperatorMatrix(deg, tdeg, SparseMatrix(len(tbasis), len(basis), data))


def operator_matrices(spec: OperatorSpec, space) -> Dict[TriDegree, OperatorMatrix]:
    """Matrices on every stored piece of the space."""
    return {deg: matrix_of(spec, space, deg) for deg in space.support()}


def is_zero_on(spec: OperatorSpec, space) -> bool:
    """Whether the operator vanishes on every piece; stops at the first nonzero one."""
    return all(matrix_of(spec, space, deg).is_zero() for deg in space.support())


def bracket(u: OperatorSpec, v: OperatorSpec, space) -> Dict[TriDegree, OperatorMatrix]:
    """Matrices of the commutator u v - v u on each stored piece."""
    out: Dict[TriDegree, OperatorMatrix] = {}
    for deg in space.support():
        uv = compose(matrix_of(u, space, v.target_degree(deg)), matrix_of(v, space, deg))
        vu = compose(matrix_of(v, space, u.target_degree(deg)), matrix_of(u, space, deg))
        if uv.target != vu.target:
            raise ValueError("bracket of operators with different total shifts")
        out[deg] = OperatorMatrix(deg, uv.target, uv.matrix.add(vu.matrix.scaled(-1)))
    return out


def commutes_with_differentials(spec_F: OperatorSpec, spec_d: OperatorSpec, space):
    """(True, None) if [spec_F, spec_d] = 0 on every piece, else witness."""
    for deg, om in bracket(spec_F, spec_d, space).items():
        if not om.is_zero():
            return False, (deg, om)
    return True, None


def hamiltonian_bracket_matches(n: int, ab: Tuple[int, int], ab2: Tuple[int, int], space):
    """Check [v_ab, v_a'b'] = (ab' - a'b) v_(a+a'-1, b+b'-1) as matrices.

    Returns (True, None) or (False, witness degree).
    """
    a, b = ab
    a2, b2 = ab2
    coeff = a * b2 - a2 * b
    lhs = bracket(OperatorSpec.hamiltonian(n, a, b), OperatorSpec.hamiltonian(n, a2, b2), space)
    ta, tb = a + a2 - 1, b + b2 - 1
    for deg, om in lhs.items():
        if coeff == 0 or ta + tb < 1:
            expected = SparseMatrix(om.matrix.rows, om.matrix.cols, {})
        else:
            expected = matrix_of(
                OperatorSpec.hamiltonian(n, ta, tb), space, deg
            ).matrix.scaled(coeff)
        if om.matrix != expected:
            return False, deg
    return True, None


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
