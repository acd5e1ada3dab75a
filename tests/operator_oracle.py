"""The operator constructors as they were before `_diagonal_sum`, the
`OperatorSpec` shift table and label names as they were before both were
read off one table of kinds, and operator application as it was before it
ran in integers, kept only as a test oracle.

Each family was written out as its own list of `OpTerm`s, one per variable
index (two for the Hamiltonian vector fields).  The bodies are unchanged;
`test_superpoly.py` holds the constructors built through `_diagonal_sum` to
the same term tuples, in the same order, and `test_operators.py` holds
`OperatorSpec.shift`, `superpoly.tridegree_shift` and `OperatorSpec.label`
to `shift` and `label` below, for every kind of `operators._KINDS`.

`apply_op` below does about five `Fraction` operations per (term, monomial)
pair; `test_superpoly.py` holds `superpoly.apply_op`, which works in ints
over the operator's compiled terms, to the same terms, the same values and
the same insertion order.

`_invariant_ideal_class_zero`, `_power_sum`, `_omega0` and
`_structural_certificate` are the structural well-definedness certificate as
it was when it decided ideal membership by reducing each image in the
coinvariant block of its bidegree.  `_exhaustive_certificate` is the
row-by-row check of the relation subspace that `operators.check_preserves`
fell back on where no structural certificate applies (F*_k, E*_k); no
command reached it, and `operators` now raises there.  `check_preserves`
below runs the two as `operators.check_preserves` did on a quotient.
`test_certificate.py` holds the certificate, which now reads membership off
the image alone, to the same verdicts and the same witnesses, and
`test_operators.py` holds the row-by-row check to its F*/E* witnesses.

`op_d_star` and `op_wedge_omega` are the only copies of d_N^* and of the
wedge with omega_N, which no command builds.  Their multipliers are odd,
which a library `DiffOperator` refuses, so they return an `OddOperator`,
which only `apply_op` below reads; `test_superpoly.py` still applies them.
`extended_pairing` is
`superpoly.pairing` as it was with `extended=True`, on odd input too; no
command pairs odd polynomials, and `test_superpoly.py` holds d_N and d_N^*
adjoint under it.

`operator_span` is the operator-theorem suite's span as it was before it was
closed in Janet order; `test_operators.py` (n = 2..4) and `test_tier2.py`
(n = 5) hold `verify._operator_span` to the same RREF at every tridegree,
for both `span_families`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from harmonica import superpoly
from harmonica.linalg import RrefAccumulator
from harmonica.operators import _FIRST_ORDER_KINDS, OperatorSpec, _is_equivariant
from harmonica.spaces import QuotientSpace, _even_block, _power_sum_generators, poly_to_vec, vec_to_poly
from harmonica.superpoly import (
    DiffOperator,
    Monomial,
    OpTerm,
    Polynomial,
    monomial_mul,
    unit_monomial,
)


def _unit_exp(n: int, i: int, k: int = 1) -> tuple:
    return tuple(k if j == i else 0 for j in range(n))


def _zero_exp(n: int) -> tuple:
    return (0,) * n


def op_F(n: int, k: int) -> DiffOperator:
    """F_k = sum_i x_i^k d/dy_i; shifts tridegree by (+k, -1, 0)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return DiffOperator(
        n,
        [
            OpTerm(Fraction(1), Monomial(_unit_exp(n, i, k), _zero_exp(n), ()), _zero_exp(n), _unit_exp(n, i), ())
            for i in range(n)
        ],
    )


def op_E(n: int, k: int) -> DiffOperator:
    """E_k = sum_i y_i^k d/dx_i; shifts tridegree by (-1, +k, 0)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return DiffOperator(
        n,
        [
            OpTerm(Fraction(1), Monomial(_zero_exp(n), _unit_exp(n, i, k), ()), _unit_exp(n, i), _zero_exp(n), ())
            for i in range(n)
        ],
    )


def op_F_star(n: int, k: int) -> DiffOperator:
    """F_k^* = sum_i y_i (d/dx_i)^k; shifts tridegree by (-k, +1, 0)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return DiffOperator(
        n,
        [
            OpTerm(Fraction(1), Monomial(_zero_exp(n), _unit_exp(n, i), ()), _unit_exp(n, i, k), _zero_exp(n), ())
            for i in range(n)
        ],
    )


def op_E_star(n: int, k: int) -> DiffOperator:
    """E_k^* = sum_i x_i (d/dy_i)^k; shifts tridegree by (+1, -k, 0)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return DiffOperator(
        n,
        [
            OpTerm(Fraction(1), Monomial(_unit_exp(n, i), _zero_exp(n), ()), _zero_exp(n), _unit_exp(n, i, k), ())
            for i in range(n)
        ],
    )


def op_d(n: int, N: int) -> DiffOperator:
    """d_N = sum_i th_i^* x_i^N; odd, shifts tridegree by (+N, 0, -1)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return DiffOperator(
        n,
        [
            OpTerm(Fraction(1), Monomial(_unit_exp(n, i, N), _zero_exp(n), ()), _zero_exp(n), _zero_exp(n), (i,))
            for i in range(n)
        ],
    )


class OddOperator(NamedTuple):
    """An operator with odd multipliers, as `apply_op` below reads it."""

    n: int
    ops: list


def op_d_star(n: int, N: int) -> OddOperator:
    """d_N^* = sum_i th_i (d/dx_i)^N; odd, shifts tridegree by (-N, 0, +1)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return OddOperator(
        n,
        [
            OpTerm(Fraction(1), Monomial(_zero_exp(n), _zero_exp(n), (i,)), _unit_exp(n, i, N), _zero_exp(n), ())
            for i in range(n)
        ],
    )


def extended_pairing(f: Polynomial, g: Polynomial) -> Fraction:
    """`superpoly.pairing` with the odd generators declared orthonormal
    (th_i paired with its annihilator)."""
    f._check(g)
    total = Fraction(0)
    for m, c in f.terms.items():
        d = g.terms.get(m)
        if d:
            total += c * d * superpoly.monomial_pair_weight(m)
    return total


def op_wedge_omega(n: int, N: int) -> OddOperator:
    """Left wedge with sum_i x_i^N th_i; shifts tridegree by (+N, 0, +1)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return OddOperator(
        n,
        [
            OpTerm(Fraction(1), Monomial(_unit_exp(n, i, N), _zero_exp(n), (i,)), _zero_exp(n), _zero_exp(n), ())
            for i in range(n)
        ],
    )


def op_hamiltonian(n: int, a: int, b: int) -> DiffOperator:
    """Vector field of x^a y^b: sum_i (a x^(a-1) y^b d/dy - b x^a y^(b-1) d/dx).

    Shifts tridegree by (a-1, b-1, 0); requires a + b >= 1.
    """
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError("need a, b >= 0 with a + b >= 1")
    ops = []
    for i in range(n):
        if a:
            xe = _unit_exp(n, i, a - 1) if a > 1 else _zero_exp(n)
            ops.append(
                OpTerm(Fraction(a), Monomial(xe, _unit_exp(n, i, b), ()), _zero_exp(n), _unit_exp(n, i), ())
            )
        if b:
            ye = _unit_exp(n, i, b - 1) if b > 1 else _zero_exp(n)
            ops.append(
                OpTerm(Fraction(-b), Monomial(_unit_exp(n, i, a), ye, ()), _unit_exp(n, i), _zero_exp(n), ())
            )
    return DiffOperator(n, ops)


def op_partial_x(n: int, i: int) -> DiffOperator:
    return DiffOperator(n, [OpTerm(Fraction(1), unit_monomial(n), _unit_exp(n, i), _zero_exp(n), ())])


def op_partial_y(n: int, i: int) -> DiffOperator:
    return DiffOperator(n, [OpTerm(Fraction(1), unit_monomial(n), _zero_exp(n), _unit_exp(n, i), ())])


def op_power_sum_deriv(n: int, a: int, b: int) -> DiffOperator:
    """p_{a,b} with every variable replaced by its derivative."""
    if a + b < 1:
        raise ValueError("need a + b >= 1")
    return DiffOperator(
        n,
        [
            OpTerm(Fraction(1), unit_monomial(n), _unit_exp(n, i, a), _unit_exp(n, i, b), ())
            for i in range(n)
        ],
    )


def _falling(e: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= e - j
    return out


def _apply_term(term: OpTerm, m: Monomial, c: Fraction, acc: dict) -> None:
    coeff = term.coeff * c
    # Even derivatives.
    xe = list(m.xe)
    ye = list(m.ye)
    for i, k in enumerate(term.dx):
        if k:
            if xe[i] < k:
                return
            coeff *= _falling(xe[i], k)
            xe[i] -= k
    for i, k in enumerate(term.dy):
        if k:
            if ye[i] < k:
                return
            coeff *= _falling(ye[i], k)
            ye[i] -= k
    # Odd annihilators; the last listed acts first.
    odd = list(m.odd)
    sign = 1
    for t in reversed(term.odd_ann):
        if t not in odd:
            return
        pos = odd.index(t)
        if pos % 2:
            sign = -sign
        odd.pop(pos)
    derived = Monomial(tuple(xe), tuple(ye), tuple(odd))
    out, msign = monomial_mul(term.mult, derived)
    if out is None:
        return
    total = coeff * sign * msign
    s = acc.get(out, 0) + total
    if s == 0:
        acc.pop(out, None)
    else:
        acc[out] = s


def apply_op(op: DiffOperator, p: Polynomial) -> Polynomial:
    """Apply a differential operator; Q-linear in p."""
    if op.n != p.n:
        raise ValueError("mixed variable counts")
    acc: dict = {}
    for term in op.ops:
        for m, c in p.terms.items():
            _apply_term(term, m, c, acc)
    return Polynomial(p.n, acc)


def label(spec) -> str:
    """`OperatorSpec.label`, with its own table of names."""
    if spec.kind == "ham":
        return f"v({spec.params[0]},{spec.params[1]})"
    names = {"F": "F", "E": "E", "Fstar": "F*", "Estar": "E*", "d": "d"}
    return f"{names[spec.kind]}{spec.params[0]}"


def shift(spec):
    """`OperatorSpec.shift`, as a table over the kinds."""
    k = spec.params[0]
    if spec.kind == "F":
        return (k, -1, 0)
    if spec.kind == "E":
        return (-1, k, 0)
    if spec.kind == "Fstar":
        return (-k, 1, 0)
    if spec.kind == "Estar":
        return (1, -k, 0)
    if spec.kind == "d":
        return (k, 0, -1)
    a, b = spec.params
    return (a - 1, b - 1, 0)


def _invariant_ideal_class_zero(n: int, p: Polynomial) -> Optional[Polynomial]:
    """None if every homogeneous part of p lies in the invariant ideal,
    otherwise the first offending component."""
    for deg, comp in p.homogeneous_components().items():
        if deg.da:
            return comp
        block = _even_block(n, deg.dx, deg.dy)
        if block.class_of_vec(poly_to_vec(comp, deg)):
            return comp
    return None


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
    if spec.kind not in _FIRST_ORDER_KINDS:
        raise NotImplementedError("no structural certificate for this operator kind")
    if not _is_equivariant(spec):
        raise NotImplementedError("operator is not syntactically equivariant")
    # Leibniz: preservation of the invariant ideal reduces to the generators.
    for (a, b) in _power_sum_generators(n):
        bad = _invariant_ideal_class_zero(n, apply_op(D, _power_sum(n, a, b)))
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
        tdeg = spec.target_degree(deg)
        for _, row in space.blocks[deg].relation_rows():
            poly = vec_to_poly(row, spec.n, deg)
            if space.coords(tdeg, apply_op(D, poly)):
                return poly
    return None


def check_preserves(spec: OperatorSpec, space: QuotientSpace):
    """(passed, witness) of the certificate above, or of the row-by-row
    check where it does not apply."""
    try:
        witness = _structural_certificate(spec, space)
    except NotImplementedError:
        witness = _exhaustive_certificate(spec, space)
    return (witness is None), witness


def operator_span(n: int, seeds, ops):
    """`verify._operator_span` as it was before Janet order: depth first
    from the seeds, every operator applied to every independent element."""
    spans = {}
    queue = list(seeds)
    while queue:
        p = queue.pop()
        deg = p.tridegree()
        acc = spans.setdefault(deg, RrefAccumulator())
        if acc.insert(poly_to_vec(p, deg)) is None:
            continue
        for D in ops:
            image = superpoly.apply_op(D, p)
            if not image.is_zero():
                queue.append(image)
    return spans


def span_families(n: int) -> dict:
    """The operators the operator-theorem suite closes the top antisymmetric
    element under: F*_k and d/dx_i ("full"), and F*_k alone ("sign")."""
    stars = [superpoly.op_F_star(n, k) for k in range(1, n)]
    return {"full": stars + [superpoly.op_partial_x(n, i) for i in range(n)], "sign": stars}
