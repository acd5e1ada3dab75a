"""Named verification suites over the built spaces, producing Reports.

Each suite runs a fixed, deterministically ordered list of checks and
returns structured results; the report is machine-readable JSON with an
overall status that is `pass` exactly when every check passes.  Wall times
are measured but emitted only on request so that reports stay byte-identical
across runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from . import __version__
from .dyck import catalan_number, catalan_qt, enumerate_paths, render_qt
from .linalg import RrefAccumulator
from .operators import (
    OperatorSpec,
    WellDefinednessError,
    bracket,
    check_preserves,
    commutes_with_differentials,
    compose,
    hamiltonian_bracket_matches,
    is_zero_on,
    matrix_of,
)
from .spaces import (
    GradedSubspace,
    antisymmetric_ideal,
    coinvariants,
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
    e_operators,
    export_homology,
    fit_dictionary,
    lefschetz_check,
    model,
    weight_decomposition,
)
from .superpoly import (
    Polynomial,
    TriDegree,
    apply_op,
    op_F_star,
    op_partial_x,
    pairing,
    render,
    vandermonde,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: Optional[str] = None
    wall_ms: Optional[float] = None


SUITES = (
    "dims",
    "duality",
    "operator-theorem",
    "cogeneration",
    "hamiltonian",
    "lefschetz",
    "phi",
    "vanishing",
    "differentials",
    "oracle-catalan",
    "figure1",
)

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

HOOK_PER_A = {2: {0: 2, 1: 1}, 3: {0: 5, 1: 5, 2: 1}}


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
    if n in HOOK_PER_A:
        _check(out, "hook per-a dimensions", lambda: _eq("per-a", hook.hilbert().per_a(), HOOK_PER_A[n]))
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
            hbasis = dh.basis_polys(deg)
            if not hbasis:
                continue
            count = 0
            for _, row in block.relation_rows():
                rel = vec_to_poly(row, n, deg)
                for hp in hbasis:
                    if pairing(rel, hp) != 0:
                        return f"relation not orthogonal to a harmonic at {deg}"
                    count += 1
                    if count >= budget:
                        break
                if count >= budget:
                    break
        return None

    _check(out, "relations pair to zero against harmonics", orthogonality)
    return out


def _operator_span(n: int, seeds: List[Polynomial], operators) -> Dict[TriDegree, RrefAccumulator]:
    spans: Dict[TriDegree, RrefAccumulator] = {}
    queue = list(seeds)
    while queue:
        p = queue.pop()
        deg = p.tridegree()
        acc = spans.setdefault(deg, RrefAccumulator())
        if acc.insert(poly_to_vec(p, deg)) is None:
            continue
        for D in operators:
            image = apply_op(D, p)
            if not image.is_zero():
                queue.append(image)
    return spans


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
                _check(out, f"{spec.label()} preserves {name}",
                       lambda spec=spec, ideal=ideal: (lambda ok_w: None if ok_w[0] else f"witness {render(ok_w[1])}")(check_preserves(spec, ideal)))
    dr = coinvariants(n, allow_large=allow_large, cache_dir=cache_dir)
    for k in range(1, n):
        _check(out, f"F{k} well defined on the coinvariant quotient",
               lambda k=k: (lambda ok_w: None if ok_w[0] else f"witness {render(ok_w[1])}")(check_preserves(OperatorSpec.F(n, k), dr)))
    return out


def suite_cogeneration(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    hook = hook_component(n, allow_large=allow_large, cache_dir=cache_dir)

    def all_classes() -> Optional[str]:
        for deg in sorted(hook.blocks):
            block = hook.blocks[deg]
            for pos in range(block.dim):
                cert = cogeneration_search(n, {pos: Fraction(1)}, deg=deg, allow_large=allow_large)
                if cert.scalar == 0:
                    return f"zero scalar at {deg}"
        return None

    _check(out, "every class reaches the top antisymmetric line", all_classes)

    def delta_killed() -> Optional[str]:
        dy = vandermonde("y", n)
        deg = TriDegree(0, n * (n - 1) // 2, 0)
        for k in range(1, n + 1):
            om = matrix_of(OperatorSpec.E(n, k), hook, deg)
            block = hook.block(deg)
            coords = block.class_coords(dy)
            if om.matrix.mul_vec(coords):
                return f"E{k} does not kill the lowest-weight class"
        return None

    _check(out, "all dual operators kill the lowest-weight class", delta_killed)
    return out


def suite_hamiltonian(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    hook = hook_component(n, allow_large=allow_large, cache_dir=cache_dir)
    fields = [(a, b) for a in range(5) for b in range(5) if 2 <= a + b <= 4]
    for (a, b) in fields:
        for (a2, b2) in fields:
            _check(out, f"[v({a},{b}), v({a2},{b2})] matches the structure constant",
                   lambda a=a, b=b, a2=a2, b2=b2: (lambda okw: None if okw[0] else f"mismatch at {okw[1]}")(
                       hamiltonian_bracket_matches(n, (a, b), (a2, b2), hook)))
    for k in range(1, n):
        for m in range(k, n):
            _check(out, f"[F{k}, F{m}] = 0",
                   lambda k=k, m=m: (lambda br: None if all(om.is_zero() for om in br.values()) else "nonzero")(
                       bracket(OperatorSpec.F(n, k), OperatorSpec.F(n, m), hook)))

    def fe_bracket(k: int, m: int) -> Optional[str]:
        br = bracket(OperatorSpec.F(n, k), OperatorSpec.E(n, m), hook)
        for deg, om in br.items():
            expected = matrix_of(OperatorSpec.hamiltonian(n, k, m), hook, deg).matrix.scaled(-1)
            if om.matrix != expected:
                return f"[F{k}, E{m}] != -v({k},{m}) at {deg}"
        return None

    for k in range(1, n):
        for m in range(1, n):
            _check(out, f"[F{k}, E{m}] agrees with the vector-field bracket",
                   lambda k=k, m=m: fe_bracket(k, m))
    return out


def suite_lefschetz(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    # The sl2 layer reads the hook space from the workspace, where this puts it.
    hook = hook_component(n, allow_large=allow_large, cache_dir=cache_dir)
    _check(out, "power pairing of opposite weights is bijective",
           lambda: (lambda okw: None if okw[0] else f"slice {okw[1]}")(lefschetz_check(n, allow_large)))

    def strings_partition() -> Optional[str]:
        wd = weight_decomposition(n, allow_large)
        total = sum(len(st.vectors) for sts in wd.values() for st in sts)
        if total != hook.total_dim():
            return f"strings cover {total} of {hook.total_dim()}"
        return None

    _check(out, "strings partition every slice", strings_partition)
    return out


def suite_phi(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    hook_component(n, allow_large=allow_large, cache_dir=cache_dir)  # model() reads it from the workspace
    m = model(n, allow_large)

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
        coords = m.space.block(src).class_coords(vandermonde("y", n))
        image = m.phi_block(src).mul_vec(coords)
        target = m.space.block(tgt).class_coords(vandermonde("x", n))
        if not image:
            return "image vanishes"
        ((p1, v1),) = image.items()
        ((p2, v2),) = target.items()
        if p1 != p2:
            return "image misses the top antisymmetric line"
        return None

    _check(out, "involution swaps the two antisymmetric generators", delta_swap)

    def sl2_relations() -> Optional[str]:
        from .linalg import SparseMatrix

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

    def dual_scalars() -> Optional[str]:
        try:
            _, duals, comparison = e_operators(n, allow_large)
        except LefschetzFailure as exc:
            return str(exc)
        for k, table in comparison.scalars.items():
            for deg, lam in table.items():
                if lam is not None and lam == 0:
                    return f"zero proportionality scalar for k={k} at {deg}"
        for (k, deg) in comparison.mixed:
            # Mixed pieces occur only where strings of different lengths meet.
            strings = [st for st in m.strings()
                       if st.da == deg.da and st.total == deg.dx + deg.dy]
            if len({st.j for st in strings}) < 2:
                return f"non-proportional piece {deg} (k={k}) is isotypically pure"
        return None

    _check(out, "conjugated family matches the explicit duals piecewise", dual_scalars)
    return out


def suite_vanishing(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    hook = hook_component(n, allow_large=allow_large, cache_dir=cache_dir)
    dh = harmonics(n, allow_large=allow_large, cache_dir=cache_dir)
    m = model(n, allow_large)
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


def suite_differentials(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    out: List[CheckResult] = []
    hook = hook_component(n, allow_large=allow_large, cache_dir=cache_dir)
    for k in range(1, n):
        for N in range(1, n):
            _check(out, f"[F{k}, d{N}] = 0",
                   lambda k=k, N=N: (lambda okw: None if okw[0] else f"witness at {okw[1][0]}")(
                       commutes_with_differentials(OperatorSpec.F(n, k), OperatorSpec.d(n, N), hook)))

    def anticommute(N: int, M: int) -> Optional[str]:
        dN, dM = OperatorSpec.d(n, N), OperatorSpec.d(n, M)
        for deg in sorted(hook.blocks):
            lhs = compose(matrix_of(dN, hook, dM.target_degree(deg)), matrix_of(dM, hook, deg)).matrix
            rhs = compose(matrix_of(dM, hook, dN.target_degree(deg)), matrix_of(dN, hook, deg)).matrix
            if not lhs.add(rhs).is_zero():
                return f"d{N} d{M} + d{M} d{N} != 0 at {deg}"
        return None

    for N in range(1, n):
        for M in range(N, n):
            _check(out, f"d{N} and d{M} anticommute", lambda N=N, M=M: anticommute(N, M))

    def d0_rejected() -> Optional[str]:
        try:
            src = sorted(d for d in hook.blocks if d.da >= 1)[0]
            matrix_of(OperatorSpec.d(n, 0), hook, src)
        except WellDefinednessError:
            return None
        return "the odd-degree-zero contraction unexpectedly descends"

    _check(out, "the N=0 contraction is rejected with a witness", d0_rejected)
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
    sgn = sign_component(coinvariants(n, allow_large=allow_large, cache_dir=cache_dir))
    _check(out, "oracle equals the sign-component series",
           lambda: _eq("series", render_qt(series), sgn.hilbert().render()))
    return out


def suite_figure1(n: int, allow_large=False, cache_dir=None) -> List[CheckResult]:
    if n != 3:
        raise ValueError("the figure1 suite is defined for n = 3")
    out: List[CheckResult] = []
    hook_component(3, cache_dir=cache_dir)  # export_homology reads it from the workspace
    table = export_homology(3)
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
        fitted, residual = fit_dictionary(pts)
        if residual != 0:
            return f"residual {residual}"
        if fitted != GradingDictionary.default_for(3):
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


def run_suite(n: int, suite: str, allow_large: bool = False, cache_dir=None) -> List[CheckResult]:
    """Run one suite or "all"; the `drn`, `dh` and `hook` spaces the suites
    use are loaded from and saved to `cache_dir` when it is given."""
    if suite == "all":
        out: List[CheckResult] = []
        for name in SUITES:
            if name == "figure1" and n != 3:
                continue
            out.extend(run_suite(n, name, allow_large=allow_large, cache_dir=cache_dir))
        return out
    if suite not in _SUITE_FNS:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)} or 'all'")
    return _SUITE_FNS[suite](n, allow_large=allow_large, cache_dir=cache_dir)


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
