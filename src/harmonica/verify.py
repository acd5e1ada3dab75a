"""Named verification suites over the built spaces, producing Reports.

Each suite runs a fixed, deterministically ordered list of checks and
returns structured results; the report is machine-readable JSON with an
overall status that is `pass` exactly when every check passes.  Wall times
are measured but emitted only on request so that reports stay byte-identical
across runs.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction
from functools import partial
from math import comb, perm
from typing import Callable, Dict, List, NamedTuple, Optional

from . import __version__
from .dyck import catalan_number, catalan_qt, enumerate_paths, hook_per_a, render_qt
from .linalg import RrefAccumulator, SparseMatrix, _scaled_ints, rref
from .operators import (
    OperatorSpec,
    WellDefinednessError,
    bracket_mismatch,
    check_preserves,
    compose,
    is_zero_on,
    matrix_of,
)
from .spaces import (
    GradedSubspace,
    _check_cap,
    _power_sum_generators,
    ambient_basis,
    antisymmetric_ideal,
    coinvariants,
    drn_sign,
    harmonics,
    hook_component,
    ideal_quotient_series,
    poly_to_vec,
    sign_component,
    vec_to_poly,
)
from .structure import (
    GradingDictionary,
    LefschetzFailure,
    cogeneration_search,
    dual_scalars,
    export_homology,
    fit_dictionary,
    model,
)
from .superpoly import (
    Monomial,
    Polynomial,
    TriDegree,
    apply_op,
    monomial_pair_weight,
    op_F_star,
    op_partial_x,
    render,
    tridegree_shift,
    vandermonde,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    witness: Optional[str] = None
    wall_ms: Optional[float] = None


# Expected (Q, A, T) points and arrow patterns of the n=3 model table.
FIGURE1_POINTS = sorted(
    [
        (-6, 0, 0), (-2, 0, 2), (0, 0, 4), (2, 0, 4), (6, 0, 6),
        (-4, 2, 3), (-2, 2, 5), (0, 2, 5), (2, 2, 7), (4, 2, 7),
        (0, 4, 8),
    ]
)
FIGURE1_F1_ARROWS = sorted(
    [((-6, 0), (-2, 0)), ((-2, 0), (2, 0)), ((2, 0), (6, 0)),
     ((-4, 2), (0, 2)), ((-2, 2), (2, 2)), ((0, 2), (4, 2))]
)
FIGURE1_F2_ARROWS = sorted([((0, 0), (6, 0)), ((-2, 2), (4, 2))])
FIGURE1_D1_ARROWS = sorted(
    [((-4, 2), (-2, 0)), ((-2, 2), (0, 0)), ((0, 2), (2, 0)),
     ((4, 2), (6, 0)), ((0, 4), (2, 2))]
)
FIGURE1_D2_ARROWS = sorted([((0, 4), (4, 2)), ((2, 2), (6, 0)), ((-2, 2), (2, 0))])


def _check(results: List[CheckResult], name: str, fn: Callable[[], Optional[str]]):
    """Run one check; fn returns None on pass or a witness string on failure."""
    start = time.perf_counter()
    try:
        witness = fn()
    except Exception as exc:  # surfaced as a failing check, not a crash
        witness = f"{type(exc).__name__}: {exc}"
    results.append(
        CheckResult(
            name=name,
            passed=witness is None,
            witness=witness,
            wall_ms=(time.perf_counter() - start) * 1000.0,
        )
    )


def _eq(label: str, got, expected) -> Optional[str]:
    if got == expected:
        return None
    return f"{label}: got {got!r}, expected {expected!r}"


def _q_factorial_coeffs(n: int) -> List[int]:
    coeffs = [1]
    for m in range(2, n + 1):
        new = [0] * (len(coeffs) + m - 1)
        for i, c in enumerate(coeffs):
            for j in range(m):
                new[i + j] += c
        coeffs = new
    return coeffs


def suite_dims(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    dr = coinvariants(n, allow_large=allow_large, cache_dir=cache_dir)
    sgn = sign_component(dr)
    hook = hook_component(n, allow_large=allow_large, cache_dir=cache_dir)
    _check(out, f"dim DR_{n} = (n+1)^(n-1)", lambda: _eq("total", dr.total_dim(), (n + 1) ** (n - 1)))
    _check(out, f"dim DR_{n}^sgn = catalan", lambda: _eq("total", sgn.total_dim(), catalan_number(n)))
    _check(out, "x-axis slice is the graded permutation count",
           lambda: _eq("slice", [dr.dim((d, 0, 0)) for d in range(n * (n - 1) // 2 + 1)], _q_factorial_coeffs(n)))
    _check(out, "series is symmetric in q and t", lambda: None if dr.hilbert().is_qt_symmetric() else "asymmetric")
    _check(out, "hook series is symmetric in q and t",
           lambda: None if hook.hilbert().is_qt_symmetric() else "asymmetric")
    _check(out, "hook per-a dimensions", lambda: _eq("per-a", hook.hilbert().per_a(), hook_per_a(n)))
    _check(out, "hook a=0 slice equals the sign component",
           lambda: _eq("series", hook.hilbert().slice_a(0), sgn.hilbert()))
    _check(out, "hook top odd slice is one-dimensional",
           lambda: _eq("dims", hook.hilbert().per_a().get(n - 1), 1))
    if n <= 3:
        _check(out, "J/mJ series equals the sign series",
               lambda: _eq("series", ideal_quotient_series(n, reduced=False).render(),
                           sgn.hilbert().render()))
        _check(out, "reduced ideal quotient equals the hook series",
               lambda: _eq("series", ideal_quotient_series(n, reduced=True).render(),
                           hook.hilbert().render()))
    return out


def _power_sum_images(m: Monomial, c: int, d: int, target: Dict[Monomial, int]) -> list:
    """(target column, falling-factorial weight) of each term of
    p_{c,d}(d/dx, d/dy) = sum_i d/dx_i^c d/dy_i^d that does not kill m."""
    xe, ye = m.xe, m.ye
    return [(target[Monomial(xe[:i] + (xe[i] - c,) + xe[i + 1:], ye[:i] + (ye[i] - d,) + ye[i + 1:], m.odd)],
             perm(xe[i], c) * perm(ye[i], d))
            for i in range(len(xe)) if xe[i] >= c and ye[i] >= d]


def suite_duality(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    dr = coinvariants(n, allow_large=allow_large, cache_dir=cache_dir)
    dh = harmonics(n, allow_large=allow_large, cache_dir=cache_dir)
    _check(out, "harmonics and coinvariants have identical series",
           lambda: _eq("series", dh.hilbert(), dr.hilbert()))
    dh_sgn = sign_component(dh)
    dr_sgn = sign_component(dr)
    _check(out, "sign parts have identical series",
           lambda: _eq("series", dh_sgn.hilbert(), dr_sgn.hilbert()))

    def orthogonality() -> Optional[str]:
        budget = 400  # pairings per degree; exhaustive for small n
        for deg in sorted(dr.blocks):
            block = dr.blocks[deg]
            # `pairing` on column vectors scaled to ints (a positive scale keeps
            # zero zero), each harmonic carrying the pair weight of its columns.
            weight = [monomial_pair_weight(m) for m in ambient_basis(n, deg)[0]]
            weighted = [{j: v * weight[j] for j, v in _scaled_ints(vec)[0].items()}
                        for vec in dh.basis(deg)]
            count = 0
            for _, row in block.relation_rows():
                rel = _scaled_ints(row)[0]
                for h in weighted:
                    if sum(v * h[j] for j, v in rel.items() if j in h):
                        return f"relation not orthogonal to a harmonic at {deg}"
                    count += 1
                    if count >= budget:
                        break
                if count >= budget:
                    break
        return None

    _check(out, "relations pair to zero against harmonics", orthogonality)

    def killed_by_power_sums() -> Optional[str]:
        for deg in dh.support():
            monos, _ = ambient_basis(n, deg)
            vecs = [_scaled_ints(vec)[0] for vec in dh.basis(deg)]
            support = sorted({j for vec in vecs for j in vec})
            for (c, d) in _power_sum_generators(n):
                if c > deg.dx or d > deg.dy:
                    continue
                _, target = ambient_basis(n, TriDegree(deg.dx - c, deg.dy - d, 0))
                images = {j: _power_sum_images(monos[j], c, d, target) for j in support}
                for vec in vecs:
                    image: Dict[int, int] = {}
                    for j, v in vec.items():
                        for t, w in images[j]:
                            image[t] = image.get(t, 0) + w * v
                    if any(image.values()):
                        return f"p_{{{c},{d}}}(d/dx, d/dy) is nonzero on a harmonic at {deg}"
        return None

    _check(out, "every harmonic is killed by every p_{c,d}(d/dx, d/dy), 1 <= c+d <= n", killed_by_power_sums)
    return out


def _operator_span(n: int, seeds: List[Polynomial], operators) -> Dict[TriDegree, RrefAccumulator]:
    """The span of the seeds under the operators, as an RREF per tridegree.

    The operators must be homogeneous, commute and each lower dx, as
    F*_k = sum y_i d/dx_i^k and d/dx_i do.  The span is closed in Janet
    order: tridegrees are taken by descending dx, so each receives all of
    its candidates first; within a tridegree candidates go in by class, the
    index of the operator that made them (seeds have class 0), and an
    independent element of class c is shifted only by operators c, c+1, ...
    By induction on dx, operator j maps the span of the class <= k elements
    of a tridegree into the span of the class <= max(j, k) elements of its
    target, so each product of operators is applied once, in one order, and
    each RREF is that of the closure under every operator.  A candidate is
    held as (class, source tridegree, source element) and made only when its
    tridegree is reached; an independent element is held as its column
    vector in ints, a scale of itself, until its last candidate is made.
    """
    shifts = [tridegree_shift(D) for D in operators]
    pending: Dict[TriDegree, list] = {}  # tridegree -> [(class, source tridegree or None, vector)]
    for p in seeds:
        deg = p.tridegree()
        pending.setdefault(deg, []).append((0, None, poly_to_vec(p, deg)))
    spans: Dict[TriDegree, RrefAccumulator] = {}
    while pending:
        deg = max(pending)
        acc = RrefAccumulator()
        for k, src, vec in sorted(pending.pop(deg), key=lambda cand: cand[0]):
            if src is not None:  # operator k applied to an element of src
                vec = poly_to_vec(apply_op(operators[k], vec_to_poly(vec, n, src)), deg)
            if not vec or acc.insert(vec) is None:
                continue
            ints = _scaled_ints(vec)[0]
            for j in range(k, len(operators)):
                target = TriDegree(*(a + b for a, b in zip(deg, shifts[j])))
                if min(target) >= 0:
                    pending.setdefault(target, []).append((j, deg, ints))
        if acc.rank:
            spans[deg] = acc
    return spans


def _preserved(spec: OperatorSpec, space) -> Optional[str]:
    """None when `check_preserves` passes, else its witness."""
    ok, witness = check_preserves(spec, space)
    return None if ok else f"witness {render(witness)}"


def suite_operator_theorem(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    dh = harmonics(n, allow_large=allow_large, cache_dir=cache_dir)
    delta = vandermonde("x", n)
    full_ops = [op_F_star(n, k) for k in range(1, n)] + [op_partial_x(n, i) for i in range(n)]
    sign_ops = [op_F_star(n, k) for k in range(1, n)]

    def span_equals(space: GradedSubspace, operators, label: str) -> Optional[str]:
        spans = _operator_span(n, [delta], operators)
        dims = {deg: acc.rank for deg, acc in spans.items() if acc.rank}
        expect = {deg: space.dim(deg) for deg in space.support()}
        if dims != expect:
            return f"{label}: span dims {sorted(dims.items())} != {sorted(expect.items())}"
        for deg, acc in spans.items():
            for row in acc.row_vectors():
                if not space.contains_vec(deg, row):
                    return f"{label}: span vector escapes the space at {deg}"
        return None

    _check(out, "top antisymmetric element generates the harmonics",
           lambda: span_equals(dh, full_ops, "full"))
    dh_sgn = sign_component(dh)
    _check(out, "sign harmonics generated without partial derivatives",
           lambda: span_equals(dh_sgn, sign_ops, "sign"))

    cap = 3 if n <= 3 else 2  # J tower degree cap for the preservation checks
    J = antisymmetric_ideal(n, "J", max_total=cap)
    mJ = antisymmetric_ideal(n, "mJ", max_total=cap)
    for k in range(1, min(n, 3)):
        for spec in (OperatorSpec.E(n, k), OperatorSpec.F(n, k)):
            for name, ideal in (("J", J), ("mJ", mJ)):
                _check(out, f"{spec.label()} preserves {name}", partial(_preserved, spec, ideal))
    dr = coinvariants(n, allow_large=allow_large, cache_dir=cache_dir)
    for k in range(1, n):
        _check(out, f"F{k} well defined on the coinvariant quotient",
               partial(_preserved, OperatorSpec.F(n, k), dr))
    return out


def suite_cogeneration(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    hook = hook_component(n, allow_large=allow_large, cache_dir=cache_dir)

    def all_classes() -> Optional[str]:
        for deg in sorted(hook.blocks):
            block = hook.blocks[deg]
            for pos in range(block.dim):
                cert = cogeneration_search(hook, {pos: Fraction(1)}, deg=deg)
                if cert.scalar == 0:
                    return f"zero scalar at {deg}"
        return None

    _check(out, "every class reaches the top antisymmetric line", all_classes)

    def delta_killed() -> Optional[str]:
        dy = vandermonde("y", n)
        deg = TriDegree(0, n * (n - 1) // 2, 0)
        for k in range(1, n + 1):
            om = matrix_of(OperatorSpec.E(n, k), hook, deg)
            if om.matrix.mul_vec(hook.coords(deg, dy)):
                return f"E{k} does not kill the lowest-weight class"
        return None

    _check(out, "all dual operators kill the lowest-weight class", delta_killed)
    return out


def _bracket_check(label: str, u: OperatorSpec, v: OperatorSpec, space, coeff=0, w=None) -> Optional[str]:
    """None if [u, v] = coeff w on every piece, else the label and the first piece where not."""
    deg = bracket_mismatch(u, v, space, coeff, w)
    return None if deg is None else f"{label} at {deg}"


def suite_hamiltonian(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    hook = hook_component(n, allow_large=allow_large, cache_dir=cache_dir)
    F, E, v = partial(OperatorSpec.F, n), partial(OperatorSpec.E, n), partial(OperatorSpec.hamiltonian, n)
    fields = [(a, b) for a in range(5) for b in range(5) if 2 <= a + b <= 4]
    for (a, b) in fields:
        for (a2, b2) in fields:
            _check(out, f"[v({a},{b}), v({a2},{b2})] matches the structure constant",
                   lambda a=a, b=b, a2=a2, b2=b2: _bracket_check(
                       "mismatch", v(a, b), v(a2, b2), hook, a * b2 - a2 * b, v(a + a2 - 1, b + b2 - 1)))
    for k in range(1, n):
        for m in range(k, n):
            _check(out, f"[F{k}, F{m}] = 0",
                   lambda k=k, m=m: _bracket_check(f"[F{k}, F{m}] != 0", F(k), F(m), hook))
    for k in range(1, n):
        for m in range(1, n):
            _check(out, f"[F{k}, E{m}] agrees with the vector-field bracket",
                   lambda k=k, m=m: _bracket_check(f"[F{k}, E{m}] != -v({k},{m})", F(k), E(m), hook, -1, v(k, m)))
    return out


def suite_lefschetz(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    hook = hook_component(n, allow_large=allow_large, cache_dir=cache_dir)
    m = model(hook)
    _check(out, "power pairing of opposite weights is bijective", lambda: m.lefschetz_check()[1])

    def strings_partition() -> Optional[str]:
        total = sum(len(st.vectors) for st in m.strings())
        if total != hook.total_dim():
            return f"strings cover {total} of {hook.total_dim()}"
        return None

    _check(out, "strings partition every slice", strings_partition)
    return out


def suite_phi(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    m = model(hook_component(n, allow_large=allow_large, cache_dir=cache_dir))

    def involution() -> Optional[str]:
        for deg in sorted(m.space.blocks):
            p1 = m.phi_block(deg)
            mirror = TriDegree(deg.dy, deg.dx, deg.da)
            prod = m.phi_block(mirror).matmul(p1)
            dim = m.space.dim(deg)
            if prod.nnz() != dim or any(prod.entry(i, i) != 1 for i in range(dim)):
                return f"square differs from the identity at {deg}"
        return None

    _check(out, "the weight involution squares to the identity", involution)

    def delta_swap() -> Optional[str]:
        src = TriDegree(0, n * (n - 1) // 2, 0)
        tgt = TriDegree(n * (n - 1) // 2, 0, 0)
        image = m.phi_block(src).mul_vec(m.space.coords(src, vandermonde("y", n)))
        target = m.space.coords(tgt, vandermonde("x", n))
        if not image:
            return "image vanishes"
        ((p1, v1),) = image.items()
        ((p2, v2),) = target.items()
        if p1 != p2:
            return "image misses the top antisymmetric line"
        return None

    _check(out, "involution swaps the two antisymmetric generators", delta_swap)

    def sl2_relations() -> Optional[str]:
        f1 = OperatorSpec.F(n, 1)
        for deg in sorted(m.space.blocks):
            w = deg.dx - deg.dy
            dim = m.space.dim(deg)
            e1 = m.e1_block(deg)
            f1m = matrix_of(f1, m.space, deg)
            h = compose(matrix_of(f1, m.space, e1.target), e1).matrix.add(
                compose(m.e1_block(f1m.target), f1m).matrix.scaled(-1)
            )
            expect = SparseMatrix(dim, dim, {(i, i): Fraction(w) for i in range(dim)} if w else {})
            if h != expect:
                return f"[F1, E1] differs from the weight at {deg}"
        return None

    _check(out, "[F1, E1] acts by the weight", sl2_relations)

    def duals_match() -> Optional[str]:
        try:
            dual_scalars(m.space)
        except LefschetzFailure as exc:
            return str(exc)
        return None

    _check(out, "conjugated family matches the explicit duals piecewise", duals_match)
    return out


def suite_vanishing(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    hook = hook_component(n, allow_large=allow_large, cache_dir=cache_dir)
    dh = harmonics(n, allow_large=allow_large, cache_dir=cache_dir)
    m = model(hook)
    for k in range(1, n + 2):
        expect_zero = k >= n
        _check(out, f"F{k} {'=' if expect_zero else '!='} 0 on the hook model",
               lambda k=k, ez=expect_zero: None if is_zero_on(OperatorSpec.F(n, k), hook) == ez
               else f"F{k} vanishing pattern wrong")
        _check(out, f"E{k} {'=' if expect_zero else '!='} 0 on the hook model",
               lambda k=k, ez=expect_zero: None if is_zero_on(OperatorSpec.E(n, k), hook) == ez
               else f"E{k} vanishing pattern wrong")

    def conjugated_zero(k: int, expect_zero: bool) -> Optional[str]:
        duals = m.conjugated_family(k)
        got_zero = all(om.matrix.is_zero() for om in duals.values())
        return None if got_zero == expect_zero else f"conjugated F{k} vanishing pattern wrong"

    for k in range(1, n + 2):
        _check(out, f"conjugated F{k} {'=' if k >= n else '!='} 0 on the hook model",
               lambda k=k: conjugated_zero(k, k >= n))
    for k in range(1, n + 2):
        expect_zero = k >= n
        for name in ("Fstar", "Estar"):
            spec = OperatorSpec(name, n, (k,))
            _check(out, f"{spec.label()} {'=' if expect_zero else '!='} 0 on the harmonics",
                   lambda spec=spec, ez=expect_zero: None if is_zero_on(spec, dh) == ez
                   else f"{spec.label()} vanishing pattern wrong")
    return out


def _homology_dims(spec: OperatorSpec, space) -> Dict[TriDegree, int]:
    """dim ker / im of a square-zero operator at each piece of the space, where nonzero."""
    rank = {deg: rref(matrix_of(spec, space, deg).matrix)[2] for deg in space.support()}
    shift = spec.shift()
    dims = {}
    for deg in space.support():
        src = TriDegree(deg.dx - shift[0], deg.dy - shift[1], deg.da - shift[2])
        h = space.dim(deg) - rank[deg] - rank.get(src, 0)
        if h:
            dims[deg] = h
    return dims


def _one_class_homology(spec: OperatorSpec, space, deg: TriDegree) -> Optional[str]:
    """None when the homology of the operator on the space is one class, at deg."""
    return _eq(f"H({spec.label()})", _homology_dims(spec, space), {deg: 1})


def _first_nonzero(specs, space) -> Optional[str]:
    """None when every operator vanishes on the space, else the first that does not."""
    return next((f"{spec.label()} != 0" for spec in specs if not is_zero_on(spec, space)), None)


def suite_differentials(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    hook = hook_component(n, allow_large=allow_large, cache_dir=cache_dir)
    F, d = partial(OperatorSpec.F, n), partial(OperatorSpec.d, n)
    for k in range(1, n):
        for N in range(1, n):
            _check(out, f"[F{k}, d{N}] = 0",
                   lambda k=k, N=N: _bracket_check(f"[F{k}, d{N}] != 0", F(k), d(N), hook))
    for N in range(1, n):
        for M in range(N, n):
            _check(out, f"d{N} and d{M} anticommute",
                   lambda N=N, M=M: _bracket_check(f"d{N} d{M} + d{M} d{N} != 0", d(N), d(M), hook))

    def d0_rejected() -> Optional[str]:
        try:
            src = sorted(d for d in hook.blocks if d.da >= 1)[0]
            matrix_of(OperatorSpec.d(n, 0), hook, src)
        except WellDefinednessError:
            return None
        return "the odd-degree-zero contraction unexpectedly descends"

    _check(out, "the N=0 contraction is rejected with a witness", d0_rejected)
    # Reduced sl(1) homology of T(n, n+1) is one class (Rasmussen 2006).
    bottom = TriDegree(0, comb(n, 2), 0)
    _check(out, f"H(d1) is one-dimensional, at {bottom}", partial(_one_class_homology, d(1), hook, bottom))
    _check(out, f"d_N = 0 on the hook for N = {n}, {n + 1}", partial(_first_nonzero, (d(n), d(n + 1)), hook))
    return out


def suite_oracle_catalan(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    _check(out, "path count matches the closed form",
           lambda: _eq("count", len(enumerate_paths(n)), catalan_number(n)))
    series = catalan_qt(n)
    _check(out, "oracle series is symmetric in q and t",
           lambda: _eq("series", {(b, a): v for (a, b), v in series.items()}, series))
    _check(out, "oracle specializes to the path count",
           lambda: _eq("total", sum(series.values()), catalan_number(n)))
    sgn = drn_sign(n)
    _check(out, "oracle equals the sign-component series",
           lambda: _eq("series", render_qt(series), sgn.hilbert().render()))
    return out


def suite_figure1(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    table = export_homology(hook_component(3, cache_dir=cache_dir))
    points = sorted((g["Q"], g["A"], g["T"]) for g in table["generators"])
    _check(out, "the eleven generators carry the expected gradings",
           lambda: _eq("points", points, FIGURE1_POINTS))

    dic = GradingDictionary.default_for(3)

    def arrows(name: str):
        got = []
        for mrec in table["operators"][name]:
            s = TriDegree(*mrec["source"])
            t = TriDegree(*mrec["target"])
            got.append(((dic.map(s)[0], dic.map(s)[1]), (dic.map(t)[0], dic.map(t)[1])))
        return sorted(got)

    _check(out, "F1 arrows match", lambda: _eq("arrows", arrows("F1"), FIGURE1_F1_ARROWS))
    _check(out, "F2 arrows match", lambda: _eq("arrows", arrows("F2"), FIGURE1_F2_ARROWS))
    _check(out, "d1 arrows match", lambda: _eq("arrows", arrows("d1"), FIGURE1_D1_ARROWS))
    _check(out, "d2 arrows match", lambda: _eq("arrows", arrows("d2"), FIGURE1_D2_ARROWS))

    def exact_fit() -> Optional[str]:
        by_point = {}
        for g in table["generators"]:
            by_point[(g["Q"], g["A"], g["T"])] = tuple(g["degree"])
        pts = [(by_point[p], p) for p in FIGURE1_POINTS]
        if fit_dictionary(pts) != dic:
            return "fitted dictionary differs from the default"
        return None

    _check(out, "affine dictionary fit has zero residual", exact_fit)
    return out


_SUITE_FNS = {
    "dims": suite_dims,
    "duality": suite_duality,
    "operator-theorem": suite_operator_theorem,
    "cogeneration": suite_cogeneration,
    "hamiltonian": suite_hamiltonian,
    "lefschetz": suite_lefschetz,
    "phi": suite_phi,
    "vanishing": suite_vanishing,
    "differentials": suite_differentials,
    "oracle-catalan": suite_oracle_catalan,
    "figure1": suite_figure1,
}
SUITES = tuple(_SUITE_FNS)
# The n at which a suite is defined, for the suites not defined at every n.
_SUITE_DOMAINS = {"figure1": (3,)}


def _run_all(n: int, allow_large: bool, cache_dir) -> List[CheckResult]:
    """Every suite defined at n, run in forked workers over spaces built here.

    The suites share nothing but the `drn`, `hook` and `dh` spaces, so
    those are built (or loaded) once, before the fork, and every worker
    inherits them; the memos a suite adds die with its worker.  A build that fails its
    closed-form check is left to the suites, which build it again and report
    it.  Results come back in `SUITES` order, so the report does not depend
    on which worker ran what; a worker that dies raises `BrokenProcessPool`.
    """
    names = [name for name in SUITES if n in _SUITE_DOMAINS.get(name, (n,))]
    for build in (coinvariants, hook_component, harmonics):
        try:
            build(n, allow_large=allow_large, cache_dir=cache_dir)
        except ArithmeticError:
            pass
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(names), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(run_suite, n, name, allow_large, cache_dir) for name in names]
        return [r for future in futures for r in future.result()]


def run_suite(n: int, suite: str, allow_large: bool = False, cache_dir=None) -> List[CheckResult]:
    """Run one suite in this process, or "all" in forked workers, one per
    usable CPU (`_run_all`); the report is the same either way.  The `drn`,
    `dh` and `hook` spaces the suites use are loaded from and saved to
    `cache_dir` when it is given.  A build whose closed-form check fails
    (`ArithmeticError`) ends its suite with one failing check, the exception
    its witness; the other suites still run.  An n past the cap raises
    `ResourceCapExceeded` before any suite work."""
    if suite != "all" and suite not in _SUITE_FNS:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)} or 'all'")
    domain = _SUITE_DOMAINS.get(suite, (n,))
    if n not in domain:
        raise ValueError(f"the {suite} suite is defined for n = {', '.join(map(str, domain))}")
    _check_cap(n, allow_large)
    if suite == "all":
        return _run_all(n, allow_large, cache_dir)
    try:
        return _SUITE_FNS[suite](n, allow_large=allow_large, cache_dir=cache_dir)
    except ArithmeticError as exc:
        return [CheckResult(f"the {suite} suite builds its spaces", False, f"{type(exc).__name__}: {exc}")]


def report(n: int, suite: str, results: List[CheckResult], timings: bool = False) -> dict:
    return {
        "tool": "harmonica",
        "version": __version__,
        "n": n,
        "suite": suite,
        "checks": [
            {
                "name": r.name,
                "status": "pass" if r.passed else "fail",
                "witness": r.witness,
                "wall_ms": round(r.wall_ms, 3) if timings and r.wall_ms is not None else None,
            }
            for r in results
        ],
        "overall": "pass" if all(r.passed for r in results) else "fail",
    }
