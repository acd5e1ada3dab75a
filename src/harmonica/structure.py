"""sl2 structure of the hook model: strings, the weight involution, dual
operators, cogeneration certificates, and the graded export table.

The first operator F_1 of the commuting family acts on every (odd degree,
total degree) slice of the hook component.  Each slice is cut into strings:
one per kernel vector of F_1^(j+1) at weight -j, walked up by F_1.  Each
piece has one string frame: the string vectors lying in it, in which any
vector of the piece is written.  Hard Lefschetz is decided there and only
there: the frames are built with the strings, and each must be a basis of
its piece, which holds exactly when every power F_1^j pairs the weights -j
and j bijectively.  The strings define the involution and the lowering
operator by explicit coefficients on string vectors, and produce
conjugated duals of the whole family.  `dual_scalars` compares the
conjugated F_k with the explicit E_k in the string frames, cut into blocks
by (source string length j, target string length j'): on every block where
either is nonzero, the conjugated F_k is one nonzero scalar times E_k, the
same scalar on every piece and odd degree for each (k, j, j').  The export
maps the internal (dx, dy, da) grading to (Q, A, T) coordinates through an
affine dictionary fitted exactly to the target grading conventions.

Every function here works on the hook space it is handed and builds no
space itself: the size cap and the on-disk cache apply where that space is
built, by `hook_component`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Dict, List, NamedTuple, Optional, Tuple

from .linalg import SparseMatrix, Vec, kernel_basis, span_solver, vec_add_scaled
from .operators import OperatorMatrix, OperatorSpec, compose, matrix_json, matrix_of
from .spaces import QuotientSpace
from .superpoly import TriDegree, render, vandermonde


class CogenerationFailure(Exception):
    """No certificate exists within the forced degree bounds (model falsified)."""


class LefschetzFailure(Exception):
    """The string vectors fail to form a basis of a piece, so a power of the
    first operator fails to pair opposite weights bijectively."""


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
        return sorted({(d.da, d.dx + d.dy) for d in self.space.blocks})

    # -- hard Lefschetz and strings ----------------------------------------

    def lefschetz_check(self):
        """(True, None), or (False, witness) naming the piece where it fails.

        The strings are the orbits under F_1 of the kernel vectors of
        F_1^(j+1) at weight -j, and `strings()` raises unless their vectors
        form a basis of every piece.  That decides whether the power pairing
        of opposite weights is bijective: F_1^j maps the string vectors of
        V_{-j} one-to-one onto those of V_j, so they form bases of both
        exactly when each F_1^j: V_{-j} -> V_j is bijective.
        """
        try:
            self.strings()
        except LefschetzFailure as exc:
            return False, str(exc)
        return True, None

    def strings(self) -> List[SL2String]:
        return self.space.memoised(("strings",), self._strings)

    def _strings(self) -> List[SL2String]:
        """One string per kernel vector of F_1^(j+1) at weight -j, walked up by
        F_1; the frame of every piece of every slice is built and validated
        before the strings are returned.  A piece counts even where it has no
        classes: a string vector landing there is zero, so dependent."""
        out: List[SL2String] = []
        pieces: List[TriDegree] = []
        for (da, total) in self.slices():
            pieces += [_slice_degree(da, total, w) for w in range(-total, total + 1, 2)]
            for j in range(total, -1, -1):
                src = _slice_degree(da, total, -j)
                if src is None or self.space.dim(src) == 0:
                    continue
                for hw in kernel_basis(self.power(src, j + 1).matrix):
                    vecs, deg = [hw], src
                    for _ in range(j):
                        step = self.step(deg)
                        vecs.append(step.matrix.mul_vec(vecs[-1]))
                        deg = step.target
                    out.append(SL2String(da, total, j, tuple(vecs)))
        for deg in sorted(pieces):
            self.space.memoised(("frame", deg), lambda: StringFrame(deg, out, self.space.dim(deg)))
        return out

    # -- involution and lowering operator -----------------------------------

    def frame(self, deg) -> "StringFrame":
        """The string frame of the piece at deg, built once per space."""
        deg = TriDegree(*deg)
        strings = self.strings()  # builds the frame of every piece of every slice
        return self.space.memoised(("frame", deg), lambda: StringFrame(deg, strings, self.space.dim(deg)))

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
        mirror = TriDegree(deg.dy, deg.dx, deg.da)
        return self.space.memoised(("phi", deg), lambda: self._string_map(
            deg, mirror, lambda j, s: (j - s, self.phi_coefficient(j, s))))

    def e1_block(self, deg) -> OperatorMatrix:
        """Matrix of the lowering operator on one piece (shift (-1, +1, 0))."""
        deg = TriDegree(*deg)
        target = TriDegree(deg.dx - 1, deg.dy + 1, deg.da)
        return self.space.memoised(("e1", deg), lambda: OperatorMatrix(deg, target, self._string_map(
            deg, target, lambda j, s: (s - 1, Fraction(s * (j - s + 1))))))

    def _string_map(self, deg: TriDegree, target: TriDegree, partner) -> SparseMatrix:
        """Matrix from the piece at deg to the piece at target sending the
        string vector (string, s) of a length-j string to coeff times its
        vector s', where partner(j, s) = (s', coeff); coeff 0 sends it to 0."""
        src, tgt = self.frame(deg), self.frame(target)
        partners = dict(zip(tgt.tags, tgt.vectors))
        strings = self.strings()
        dim = self.space.dim(deg)
        data = {}
        for p in range(dim):
            out: Vec = {}
            for c, z in src.coords({p: Fraction(1)}).items():
                idx, s = src.tags[c]
                s2, coeff = partner(strings[idx].j, s)
                if coeff:
                    vec_add_scaled(out, z * coeff, partners[(idx, s2)])
            for r, v in out.items():
                data[(r, p)] = v
        return SparseMatrix(self.space.dim(target), dim, data)

    def string_blocks(self, om: OperatorMatrix) -> Dict[Tuple[int, int], Dict[Tuple[int, int], Fraction]]:
        """The matrix of om from the string frame of its source to that of its
        target, cut into blocks by (source string length j, target string
        length j'): {(j, j'): {(target column, source column): entry}}, the
        nonzero blocks only."""
        strings = self.strings()
        src, tgt = self.frame(om.source), self.frame(om.target)
        blocks: Dict[Tuple[int, int], Dict[Tuple[int, int], Fraction]] = {}
        for c, v in enumerate(src.vectors):
            j = strings[src.tags[c][0]].j
            for r, z in tgt.coords(om.matrix.mul_vec(v)).items():
                blocks.setdefault((j, strings[tgt.tags[r][0]].j), {})[(r, c)] = z
        return blocks

    def conjugated_family(self, k: int) -> Dict[TriDegree, OperatorMatrix]:
        """Matrices of (involution) (F_k) (involution) on every piece, each
        from (dx, dy, da) to (dx - 1, dy + k, da)."""
        fk = OperatorSpec.F(self.n, k)
        out: Dict[TriDegree, OperatorMatrix] = {}
        for deg in sorted(self.space.blocks):
            target = TriDegree(deg.dx - 1, deg.dy + k, deg.da)
            middle = matrix_of(fk, self.space, TriDegree(deg.dy, deg.dx, deg.da))
            if self.space.dim(target):
                mat = self.phi_block(middle.target).matmul(middle.matrix).matmul(self.phi_block(deg))
            else:
                mat = SparseMatrix(0, self.space.dim(deg), {})
            out[deg] = OperatorMatrix(deg, target, mat)
        return out


class StringFrame:
    """The string vectors lying in one piece, tagged (string index, s), and
    the coordinates of any vector of the piece in them.  Raises
    LefschetzFailure unless those vectors form a basis of the piece."""

    def __init__(self, deg: TriDegree, strings: List[SL2String], dim: int):
        self.deg = deg
        self.vectors: List[Vec] = []
        self.tags: List[Tuple[int, int]] = []
        for idx, st in enumerate(strings):
            s2 = deg.dx - deg.dy + st.j
            if (st.da, st.total) == (deg.da, deg.dx + deg.dy) and s2 % 2 == 0 and 0 <= s2 // 2 <= st.j:
                self.vectors.append(st.vectors[s2 // 2])
                self.tags.append((idx, s2 // 2))
        # coords(vec): {column: c} with vec == sum c * (string vector of that column).
        rank, self.coords = span_solver(SparseMatrix.from_columns(self.vectors, dim))
        if rank < len(self.vectors):
            raise LefschetzFailure(f"dependent string vectors in block {deg}")
        if rank < dim:
            raise LefschetzFailure(f"string vectors do not span block {deg}")


def model(space: QuotientSpace) -> SL2Model:
    """The sl2 model of a hook space, built once per space."""
    return space.memoised(("sl2",), lambda: SL2Model(space))


def dual_scalars(space: QuotientSpace) -> Dict[Tuple[int, int, int], Fraction]:
    """{(k, j, j'): lambda} with conjugated F_k == lambda E_k on every block.

    For k = 1..n and every piece, both matrices are written in the string
    frames of their source and target pieces (`SL2Model.string_blocks`) and
    cut by (source string length j, target string length j').  On every
    block where either side is nonzero the conjugated F_k must be one
    nonzero scalar times E_k, and that scalar may depend only on (k, j, j').
    A block or a piece that breaks this falsifies the model and raises.
    """
    m = model(space)
    scalars: Dict[Tuple[int, int, int], Fraction] = {}
    for k in range(1, space.n + 1):
        ek = OperatorSpec.E(space.n, k)
        for deg, om in m.conjugated_family(k).items():
            got = m.string_blocks(om)
            want = m.string_blocks(matrix_of(ek, space, deg))
            for jj in sorted(set(got) | set(want)):
                a, b = got.get(jj, {}), want.get(jj, {})
                first = min(a, default=None)
                lam = a[first] / b[first] if first in b else None
                if lam is None or a != {pos: lam * v for pos, v in b.items()}:
                    raise LefschetzFailure(
                        f"conjugated F{k} is no nonzero multiple of E{k} on the "
                        f"string-length block (j, j') = {jj} of piece {deg}"
                    )
                if scalars.setdefault((k, *jj), lam) != lam:
                    raise LefschetzFailure(
                        f"conjugated F{k} is {lam} times E{k} on the string-length block "
                        f"(j, j') = {jj} of piece {deg}, {scalars[(k, *jj)]} times on an earlier piece"
                    )
    return scalars


# ---------------------------------------------------------------------------
# Cogeneration
# ---------------------------------------------------------------------------


class Certificate(NamedTuple):
    f_word: Tuple[int, ...]  # multiset of F indices applied
    d_word: Tuple[int, ...]  # decreasing tuple of d indices applied
    scalar: Fraction


def cogeneration_search(space: QuotientSpace, f, deg) -> Certificate:
    """Find a word in F_1..F_{n-1} and d_1..d_{n-1} carrying the class f, a
    coordinate vector over the representative basis of the piece at deg,
    onto the top antisymmetric class, with nonzero scalar.

    The degree shift forces the number of F factors, the number of d factors
    and their total weight, so the search space is finite and exhaustively
    enumerated; exhaustion without a hit raises CogenerationFailure.
    """
    n = space.n
    fdeg = TriDegree(*deg)
    vec = {i: Fraction(v) for i, v in dict(f).items() if v}
    outside = sorted(i for i in vec if not 0 <= i < space.dim(fdeg))
    if outside:
        raise ValueError(f"positions {outside} lie outside the piece at {fdeg} of dimension {space.dim(fdeg)}")
    if not vec:
        raise ValueError("zero class has no cogeneration certificate")

    top = TriDegree(n * (n - 1) // 2, 0, 0)
    delta_class = space.memoised(("top class",), lambda: space.coords(top, vandermonde("x", n)))
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
            word = [OperatorSpec.F(n, k) for k in f_word]
            word += [OperatorSpec.d(n, N) for N in sorted(d_word, reverse=True)]
            cur, cdeg = vec, fdeg
            for spec in word:
                om = matrix_of(spec, space, cdeg)
                cur = om.matrix.mul_vec(cur)
                cdeg = om.target
                if not cur:
                    break
            if not cur or cdeg != top:
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


class GradingDictionary(NamedTuple):
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
        return cls(*(Fraction(data[name]) for name in cls._fields))

    def to_mapping(self) -> dict:
        return {name: str(v) for name, v in zip(self._fields, self)}

    def map(self, deg) -> Tuple[int, int, int]:
        deg = TriDegree(*deg)
        q = self.q1 * (deg.dx - deg.dy) + self.q2 * deg.da + self.q0
        t = self.t1 * deg.dy + self.t2 * deg.da + self.t0
        a = self.a1 * deg.da + self.a0
        for v in (q, a, t):
            if v.denominator != 1:
                raise ValueError(f"dictionary is not integral at {deg}")
        return int(q), int(a), int(t)


def fit_dictionary(points: List[Tuple[Tuple[int, int, int], Tuple[int, int, int]]]) -> GradingDictionary:
    """Exact affine fit of a dictionary to (degree, (Q, A, T)) pairs.

    Each coordinate is solved exactly, so the dictionary maps every point to
    its (Q, A, T); inconsistent or underdetermined data raises ValueError.
    """

    def solve(rows: List[Tuple[Fraction, ...]], rhs: List[Fraction], cols: int) -> List[Fraction]:
        rank, coords = span_solver(SparseMatrix.from_rows([dict(enumerate(r)) for r in rows], cols))
        sol = coords({i: Fraction(v) for i, v in enumerate(rhs)})
        if sol is None:
            raise ValueError("inconsistent grading data: no exact affine fit")
        if rank < cols:
            raise ValueError("underdetermined grading data")
        return [sol.get(j, Fraction(0)) for j in range(cols)]

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
    return GradingDictionary(q1, q2, q0, t1, t2, t0, a1, a0)


def export_homology(space: QuotientSpace, dictionary: Optional[GradingDictionary] = None) -> dict:
    """The hook space as a table: generators with (Q, A, T) plus operator matrices.

    The dictionary must be integral and injective on the support.
    """
    n = space.n
    dictionary = dictionary or GradingDictionary.default_for(n)
    generators = []
    mapped: Dict[Tuple[int, int, int], TriDegree] = {}
    for deg in sorted(space.blocks):
        qat = dictionary.map(deg)
        if qat in mapped:
            raise ValueError(f"dictionary is not injective on the support at {qat}")
        mapped[qat] = deg
        Q, A, T = qat
        for p in space.basis_polys(deg):
            generators.append(
                {
                    "Q": Q,
                    "A": A,
                    "T": T,
                    "degree": list(deg),
                    "basis": render(p),
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
