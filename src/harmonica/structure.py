"""sl2 structure of the hook model: strings, the weight involution, dual
operators, cogeneration certificates, and the graded export table.

The first operator of the commuting family acts on every (odd degree, total
degree) slice of the hook component; its powers pair opposite weight spaces
bijectively.  That decomposes each slice into strings, defines the
involution and the lowering operator by explicit coefficients on string
vectors, and produces conjugated duals of the whole family.  The export maps
the internal (dx, dy, da) grading to (Q, A, T) coordinates through an affine
dictionary fitted exactly to the target grading conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Dict, List, NamedTuple, Optional, Tuple

from .linalg import RrefAccumulator, SparseMatrix, Vec, span_solver, vec_add_scaled
from .operators import OperatorMatrix, OperatorSpec, compose, matrix_of
from .spaces import QuotientSpace, hook_component
from .superpoly import Polynomial, TriDegree, vandermonde


class CogenerationFailure(Exception):
    """No certificate exists within the forced degree bounds (model falsified)."""


class LefschetzFailure(Exception):
    """A power of the first operator fails to pair opposite weights bijectively."""


class SL2String(NamedTuple):
    da: int
    total: int
    j: int  # the string spans weights -j, -j+2, .., +j
    vectors: Tuple[Vec, ...]  # s -> coordinates of F1^s v in the weight (-j+2s) block


def _slice_degree(da: int, total: int, w: int) -> Optional[TriDegree]:
    if (total + w) % 2 or abs(w) > total:
        return None
    return TriDegree((total + w) // 2, (total - w) // 2, da)


class SL2Model:
    """sl2 data (strings, involution, lowering operator), memoised on its hook space."""

    def __init__(self, space: QuotientSpace):
        self.n = space.n
        self.space = space
        self._f1 = OperatorSpec.F(space.n, 1)

    # -- raising steps ------------------------------------------------------

    def step(self, deg: TriDegree) -> OperatorMatrix:
        return matrix_of(self._f1, self.space, deg)

    def power(self, deg: TriDegree, j: int) -> OperatorMatrix:
        """Matrix of the j-th power of the first operator from `deg`: one step
        after the (j-1)-th power, each power built once per space."""
        deg = TriDegree(*deg)
        return self.space.memoised(("power", deg, j), lambda: self._power(deg, j))

    def _power(self, deg: TriDegree, j: int) -> OperatorMatrix:
        if j == 0:
            dim = self.space.dim(deg)
            return OperatorMatrix(deg, deg, SparseMatrix(dim, dim, {(i, i): Fraction(1) for i in range(dim)}))
        prev = self.power(deg, j - 1)
        return compose(self.step(prev.target), prev)

    def slices(self) -> List[Tuple[int, int]]:
        out = sorted({(d.da, d.dx + d.dy) for d in self.space.blocks})
        return out

    # -- hard Lefschetz -----------------------------------------------------

    def lefschetz_check(self):
        """(True, None) or (False, witness (da, total, j))."""
        for (da, total) in self.slices():
            for j in range(1, total + 1):
                src = _slice_degree(da, total, -j)
                if src is None:
                    continue
                sdim = self.space.dim(src)
                tdim = self.space.dim(_slice_degree(da, total, j))
                if sdim == 0 and tdim == 0:
                    continue
                mat = self.power(src, j)
                from .linalg import rref

                _, _, rank = rref(mat.matrix)
                if not (sdim == tdim and rank == sdim):
                    return False, (da, total, j)
        return True, None

    # -- strings ------------------------------------------------------------

    def strings(self) -> List[SL2String]:
        return self.space.memoised(("strings",), self._strings)

    def _strings(self) -> List[SL2String]:
        ok, witness = self.lefschetz_check()
        if not ok:
            raise LefschetzFailure(f"bijectivity fails on slice {witness}")
        from .linalg import kernel_basis

        out: List[SL2String] = []
        coverage: Dict[TriDegree, RrefAccumulator] = {}
        for (da, total) in self.slices():
            for j in range(total, -1, -1):
                src = _slice_degree(da, total, -j)
                if src is None or self.space.dim(src) == 0:
                    continue
                killer = self.power(src, j + 1)
                for hw in kernel_basis(killer.matrix):
                    vecs = [hw]
                    deg = src
                    v = hw
                    for s in range(j):
                        step = self.step(deg)
                        v = step.matrix.mul_vec(v)
                        deg = step.target
                        vecs.append(v)
                    if not vecs[-1] and j > 0:
                        raise LefschetzFailure(
                            f"string from {src} dies before reaching weight {j}"
                        )
                    out.append(SL2String(da, total, j, tuple(vecs)))
            # Independence and completeness of the string basis per slice.
            dim_total = 0
            for st in out:
                if (st.da, st.total) != (da, total):
                    continue
                deg = _slice_degree(da, total, -st.j)
                for s, v in enumerate(st.vectors):
                    d = _slice_degree(da, total, -st.j + 2 * s)
                    acc = coverage.setdefault(d, RrefAccumulator())
                    if acc.insert(v) is None:
                        raise LefschetzFailure(f"dependent string vector in block {d}")
                    dim_total += 1
            expect = sum(
                self.space.dim(_slice_degree(da, total, w))
                for w in range(-total, total + 1, 2)
                if _slice_degree(da, total, w) is not None
            )
            if dim_total != expect:
                raise LefschetzFailure(
                    f"strings span {dim_total} of {expect} dimensions in slice {(da, total)}"
                )
        return out

    def weight_decomposition(self) -> Dict[Tuple[int, int], List[SL2String]]:
        out: Dict[Tuple[int, int], List[SL2String]] = {}
        for st in self.strings():
            out.setdefault((st.da, st.total), []).append(st)
        return out

    # -- involution and lowering operator -----------------------------------

    def _string_basis(self, deg: TriDegree) -> Tuple[SparseMatrix, List[Tuple[int, int]]]:
        """Columns: string vectors lying in this block, tagged (string index, s)."""
        deg = TriDegree(*deg)
        cols: List[Vec] = []
        tags: List[Tuple[int, int]] = []
        for idx, st in enumerate(self.strings()):
            if st.da != deg.da or st.total != deg.dx + deg.dy:
                continue
            w = deg.dx - deg.dy
            s2 = w + st.j
            if s2 % 2 or not (0 <= s2 // 2 <= st.j):
                continue
            s = s2 // 2
            cols.append(st.vectors[s])
            tags.append((idx, s))
        return SparseMatrix.from_columns(cols, self.space.dim(deg)), tags

    @staticmethod
    def phi_coefficient(j: int, s: int) -> Fraction:
        if j - 2 * s > 0:
            prod = 1
            for t in range(s + 1, j - s + 1):
                prod *= t
            return Fraction(1, prod)
        if j == 2 * s:
            return Fraction(1)
        prod = 1
        for t in range(j - s + 1, s + 1):
            prod *= t
        return Fraction(prod)

    def phi_block(self, deg) -> SparseMatrix:
        """Matrix of the involution from the piece at deg to its mirror."""
        deg = TriDegree(*deg)
        return self.space.memoised(("phi", deg), lambda: self._phi_block(deg))

    def _phi_block(self, deg: TriDegree) -> SparseMatrix:
        mirror = TriDegree(deg.dy, deg.dx, deg.da)
        basis_src, tags_src = self._string_basis(deg)
        basis_tgt, tags_tgt = self._string_basis(mirror)
        partners = dict(zip(tags_tgt, basis_tgt.column_list()))
        solver = span_solver(basis_src)
        dim = self.space.dim(deg)
        data = {}
        for p in range(dim):
            coeffs = solver.solve({p: Fraction(1)})
            if coeffs is None:
                raise LefschetzFailure(f"string vectors do not span block {deg}")
            out: Vec = {}
            for c, z in coeffs.items():
                idx, s = tags_src[c]
                st = self.strings()[idx]
                coeff = self.phi_coefficient(st.j, s)
                vec_add_scaled(out, z * coeff, partners[(idx, st.j - s)])
            for r, v in out.items():
                data[(r, p)] = v
        return SparseMatrix(self.space.dim(mirror), dim, data)

    def e1_block(self, deg) -> OperatorMatrix:
        """Matrix of the lowering operator on one piece (shift (-1, +1, 0))."""
        deg = TriDegree(*deg)
        return self.space.memoised(("e1", deg), lambda: self._e1_block(deg))

    def _e1_block(self, deg: TriDegree) -> OperatorMatrix:
        target = TriDegree(deg.dx - 1, deg.dy + 1, deg.da)
        basis_src, tags_src = self._string_basis(deg)
        tdim = self.space.dim(target) if min(target) >= 0 else 0
        if tdim:
            basis_tgt, tags_tgt = self._string_basis(target)
            partners = dict(zip(tags_tgt, basis_tgt.column_list()))
        solver = span_solver(basis_src)
        dim = self.space.dim(deg)
        data = {}
        for p in range(dim):
            coeffs = solver.solve({p: Fraction(1)})
            if coeffs is None:
                raise LefschetzFailure(f"string vectors do not span block {deg}")
            out: Vec = {}
            for c, z in coeffs.items():
                idx, s = tags_src[c]
                st = self.strings()[idx]
                if s == 0:
                    continue
                coeff = Fraction(s * (st.j - s + 1))
                vec_add_scaled(out, z * coeff, partners[(idx, s - 1)])
            for r, v in out.items():
                data[(r, p)] = v
        return OperatorMatrix(deg, target, SparseMatrix(tdim, dim, data))

    def conjugated_family(self, k: int) -> Dict[TriDegree, OperatorMatrix]:
        """Matrices of (involution) (F_k) (involution) on every piece."""
        fk = OperatorSpec.F(self.n, k)
        out: Dict[TriDegree, OperatorMatrix] = {}
        for deg in sorted(self.space.blocks):
            mirror = TriDegree(deg.dy, deg.dx, deg.da)
            first = self.phi_block(deg)
            middle = matrix_of(fk, self.space, mirror)
            last_src = middle.target
            if min(last_src) >= 0 and self.space.dim(last_src):
                last = self.phi_block(last_src)
                mat = last.matmul(middle.matrix).matmul(first)
                target = TriDegree(last_src.dy, last_src.dx, last_src.da)
            else:
                target = TriDegree(deg.dx - 1, deg.dy + k, deg.da)
                mat = SparseMatrix(0, self.space.dim(deg), {})
            out[deg] = OperatorMatrix(deg, target, mat)
        return out


def model(n: int, allow_large: bool = False) -> SL2Model:
    """The sl2 model of the hook space, built once per space."""
    space = hook_component(n, allow_large=allow_large)
    return space.memoised(("sl2",), lambda: SL2Model(space))


def lefschetz_check(n: int, allow_large: bool = False):
    return model(n, allow_large).lefschetz_check()


def weight_decomposition(n: int, allow_large: bool = False):
    return model(n, allow_large).weight_decomposition()


def phi_matrix(n: int, allow_large: bool = False) -> Dict[TriDegree, SparseMatrix]:
    m = model(n, allow_large)
    return {deg: m.phi_block(deg) for deg in sorted(m.space.blocks)}


class DualComparison(NamedTuple):
    """Per-piece comparison of the conjugated family against the explicit duals.

    The conjugation intertwiner is only sl2-equivariant, so on pieces met by
    strings of different lengths the two operators need not be proportional;
    there they must still agree in rank and in vanishing.  scalars[k][deg] is
    the proportionality factor where it exists, None where both sides vanish;
    mixed lists the non-proportional pieces.
    """

    scalars: Dict[int, Dict[TriDegree, Optional[Fraction]]]
    mixed: Tuple[Tuple[int, TriDegree], ...]


def e_operators(n: int, allow_large: bool = False):
    """Lowering-operator matrices and the conjugated duals of the family.

    Returns (e1, duals, comparison): e1 maps each piece via the string
    formula; duals[k] are the conjugated matrices of F_k; the comparison
    records proportionality scalars against the explicit polynomial-model
    operators and flags mixed pieces.  Rank or vanishing disagreement
    falsifies the model and raises.
    """
    from .linalg import rref

    m = model(n, allow_large)
    e1 = {deg: m.e1_block(deg) for deg in sorted(m.space.blocks)}
    duals: Dict[int, Dict[TriDegree, OperatorMatrix]] = {}
    scalars: Dict[int, Dict[TriDegree, Optional[Fraction]]] = {}
    mixed: List[Tuple[int, TriDegree]] = []
    for k in range(1, n + 1):
        duals[k] = m.conjugated_family(k)
        ek = OperatorSpec.E(n, k)
        per_deg: Dict[TriDegree, Optional[Fraction]] = {}
        for deg, om in duals[k].items():
            expected = matrix_of(ek, m.space, deg)
            if expected.matrix.is_zero() and om.matrix.is_zero():
                per_deg[deg] = None
                continue
            if expected.matrix.is_zero() or om.matrix.is_zero():
                raise LefschetzFailure(
                    f"conjugated F{k} and the explicit dual differ in vanishing at {deg}"
                )
            (rc, vv) = next(iter(sorted(om.matrix.data.items())))
            lam = vv / expected.matrix.entry(*rc) if expected.matrix.entry(*rc) else None
            if lam is not None and expected.matrix.scaled(lam) == om.matrix:
                per_deg[deg] = lam
                continue
            # Not proportional: admissible only when the piece mixes string
            # lengths; rank must still agree.
            _, _, rank_got = rref(om.matrix)
            _, _, rank_exp = rref(expected.matrix)
            if rank_got != rank_exp:
                raise LefschetzFailure(
                    f"conjugated F{k} has rank {rank_got} != {rank_exp} at {deg}"
                )
            mixed.append((k, deg))
        scalars[k] = per_deg
    return e1, duals, DualComparison(scalars, tuple(mixed))


# ---------------------------------------------------------------------------
# Cogeneration
# ---------------------------------------------------------------------------


class Certificate(NamedTuple):
    f_word: Tuple[int, ...]  # multiset of F indices applied
    d_word: Tuple[int, ...]  # decreasing tuple of d indices applied
    scalar: Fraction

    def render(self) -> str:
        parts = [f"d{N}" for N in self.d_word]
        ks = sorted(set(self.f_word), reverse=True)
        for k in ks:
            e = self.f_word.count(k)
            parts.append(f"F{k}" + (f"^{e}" if e > 1 else ""))
        return "*".join(parts) if parts else "1"


def cogeneration_search(n: int, f, deg=None, allow_large: bool = False) -> Certificate:
    """Find a word in F_1..F_{n-1} and d_1..d_{n-1} carrying f onto the top
    antisymmetric class, with nonzero scalar.

    `f` is a Polynomial (its class is taken in the hook component) or a
    coordinate vector over the representative basis when `deg` is given.
    The degree shift forces the number of F factors, the number of d factors
    and their total weight, so the search space is finite and exhaustively
    enumerated; exhaustion without a hit raises CogenerationFailure.
    """
    space = hook_component(n, allow_large=allow_large)
    if isinstance(f, Polynomial):
        fdeg = f.tridegree()
        if fdeg is None:
            raise ValueError("class representative must be homogeneous")
        block = space.block(fdeg)
        coords = block.class_coords(f) if block else {}
        vec = dict(coords)
    else:
        if deg is None:
            raise ValueError("pass deg together with a coordinate vector")
        fdeg = TriDegree(*deg)
        vec = {i: Fraction(v) for i, v in dict(f).items() if v}
    if not vec:
        raise ValueError("zero class has no cogeneration certificate")

    top = TriDegree(n * (n - 1) // 2, 0, 0)
    delta_class = space.block(top).class_coords(vandermonde("x", n))
    ((target_pos, target_val),) = delta_class.items()

    need_dx = top.dx - fdeg.dx
    f_count = fdeg.dy
    d_count = fdeg.da
    for d_word in combinations(range(1, n), d_count):
        rest = need_dx - sum(d_word)
        if rest < 0:
            continue
        for f_word in combinations_with_replacement(range(1, n), f_count):
            if sum(f_word) != rest:
                continue
            cur = dict(vec)
            cdeg = fdeg
            dead = False
            for k in f_word:
                om = matrix_of(OperatorSpec.F(n, k), space, cdeg)
                cur = om.matrix.mul_vec(cur)
                cdeg = om.target
                if not cur:
                    dead = True
                    break
            if not dead:
                for N in sorted(d_word, reverse=True):
                    om = matrix_of(OperatorSpec.d(n, N), space, cdeg)
                    cur = om.matrix.mul_vec(cur)
                    cdeg = om.target
                    if not cur:
                        dead = True
                        break
            if dead or cdeg != top:
                continue
            c = cur.get(target_pos, Fraction(0)) / target_val
            if c:
                return Certificate(tuple(f_word), tuple(sorted(d_word, reverse=True)), c)
    raise CogenerationFailure(
        f"no certificate for the class at {fdeg} (n={n}); this falsifies the model"
    )


# ---------------------------------------------------------------------------
# Grading dictionary and export
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradingDictionary:
    """Affine identification (dx, dy, da) -> (Q, A, T)."""

    q1: Fraction
    q2: Fraction
    q0: Fraction
    t1: Fraction
    t2: Fraction
    t0: Fraction
    a1: Fraction
    a0: Fraction

    @classmethod
    def default_for(cls, n: int) -> "GradingDictionary":
        return cls(
            q1=Fraction(2), q2=Fraction(0), q0=Fraction(0),
            t1=Fraction(-2), t2=Fraction(1), t0=Fraction(n * (n - 1)),
            a1=Fraction(2), a0=Fraction(0),
        )

    @classmethod
    def from_mapping(cls, data: dict) -> "GradingDictionary":
        return cls(**{k: Fraction(data[k]) for k in ("q1", "q2", "q0", "t1", "t2", "t0", "a1", "a0")})

    def to_mapping(self) -> dict:
        return {k: str(getattr(self, k)) for k in ("q1", "q2", "q0", "t1", "t2", "t0", "a1", "a0")}

    def map(self, deg) -> Tuple[int, int, int]:
        deg = TriDegree(*deg)
        q = self.q1 * (deg.dx - deg.dy) + self.q2 * deg.da + self.q0
        t = self.t1 * deg.dy + self.t2 * deg.da + self.t0
        a = self.a1 * deg.da + self.a0
        for v in (q, a, t):
            if v.denominator != 1:
                raise ValueError(f"dictionary is not integral at {deg}")
        return int(q), int(a), int(t)


def fit_dictionary(points: List[Tuple[Tuple[int, int, int], Tuple[int, int, int]]]) -> Tuple[GradingDictionary, Fraction]:
    """Exact affine fit of a dictionary to (degree, (Q, A, T)) pairs.

    Returns the dictionary and the fit residual (always exactly 0 on
    success); inconsistent data raises ValueError.
    """

    def solve(rows: List[Tuple[Fraction, ...]], rhs: List[Fraction], cols: int) -> List[Fraction]:
        mat = SparseMatrix.from_rows(
            [
                {**{j: Fraction(r[j]) for j in range(cols) if r[j]}, cols: Fraction(v)}
                for r, v in zip(rows, rhs)
            ],
            cols + 1,
        )
        from .linalg import rref

        red, pivots, rank = rref(mat)
        if cols in pivots:
            raise ValueError("inconsistent grading data: no exact affine fit")
        if rank < cols:
            raise ValueError("underdetermined grading data")
        sol = [Fraction(0)] * cols
        rrows = red.row_list()
        for i, piv in enumerate(pivots):
            sol[piv] = rrows[i].get(cols, Fraction(0))
        return sol

    qrows, qrhs, trows, trhs, arows, arhs = [], [], [], [], [], []
    for (dx, dy, da), (Q, A, T) in points:
        qrows.append((Fraction(dx - dy), Fraction(da), Fraction(1)))
        qrhs.append(Fraction(Q))
        trows.append((Fraction(dy), Fraction(da), Fraction(1)))
        trhs.append(Fraction(T))
        arows.append((Fraction(da), Fraction(1)))
        arhs.append(Fraction(A))
    q1, q2, q0 = solve(qrows, qrhs, 3)
    t1, t2, t0 = solve(trows, trhs, 3)
    a1, a0 = solve(arows, arhs, 2)
    fitted = GradingDictionary(q1, q2, q0, t1, t2, t0, a1, a0)
    residual = Fraction(0)
    for (deg, (Q, A, T)) in points:
        mq, ma, mt = fitted.map(deg)
        residual += abs(mq - Q) + abs(ma - A) + abs(mt - T)
    if residual:
        raise ValueError("nonzero fit residual")
    return fitted, residual


def export_homology(
    n: int, dictionary: Optional[GradingDictionary] = None, allow_large: bool = False
) -> dict:
    """The model as a table: generators with (Q, A, T) plus operator matrices.

    The dictionary must be integral and injective on the support.
    """
    from .operators import matrix_json

    from .superpoly import render

    space = hook_component(n, allow_large=allow_large)
    dictionary = dictionary or GradingDictionary.default_for(n)
    generators = []
    mapped: Dict[Tuple[int, int, int], TriDegree] = {}
    for deg in sorted(space.blocks):
        block = space.blocks[deg]
        qat = dictionary.map(deg)
        if qat in mapped:
            raise ValueError(f"dictionary is not injective on the support at {qat}")
        mapped[qat] = deg
        Q, A, T = qat
        for pos in range(block.dim):
            generators.append(
                {
                    "Q": Q,
                    "A": A,
                    "T": T,
                    "degree": list(deg),
                    "basis": render(block.rep_poly(pos)),
                }
            )
    generators.sort(key=lambda g: (g["A"], g["Q"], g["T"], g["degree"], g["basis"]))
    ops_out: Dict[str, list] = {}
    specs = [(f"F{k}", OperatorSpec.F(n, k)) for k in range(1, n)]
    specs += [(f"d{N}", OperatorSpec.d(n, N)) for N in range(1, n)]
    for name, spec in specs:
        mats = []
        for deg in sorted(space.blocks):
            om = matrix_of(spec, space, deg)
            if not om.is_zero():
                mats.append(matrix_json(om))
        ops_out[name] = mats
    return {
        "n": n,
        "dictionary": dictionary.to_mapping(),
        "generators": generators,
        "operators": ops_out,
    }
