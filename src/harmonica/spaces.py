"""Graded spaces: coinvariant quotients, harmonic subspaces, isotypic parts.

Every space is presented piece by piece in the canonical monomial basis of
each tridegree.  Quotients store, per tridegree, the unique reduced
row-echelon form of their relation subspace together with the complementary
(non-pivot) representative monomials; subspaces store canonical echelon
bases.  Construction is staged so that elimination always happens in small
coordinates:

* the invariant ideal is row-reduced one variable family at a time (the
  pure-x and pure-y generators give a tensor-product presentation), and only
  the genuinely mixed generators are reduced in the small product quotient;
* the odd (hook) quotients reuse the even presentation per odd index set,
  then add the wedge relations of th_1+..+th_n and the im(1 + s_i) rows,
  which over Q span the kernel of the sign projector (s_i = (i i+1));
* harmonic pieces start from the tensor product of single-family harmonic
  kernels and intersect with the kernels of the mixed derivative operators.

In the single-family reductions, the coinvariant blocks and the harmonic
pieces, rows reach the kernel as integers: normal forms, tensor products,
candidate rows and kernel combinations are int dicts, and `Fraction`s
appear only in what the accumulator hands back.

A coinvariant block's candidate rows are the mixed generators p_{c,d}
times rep (x) rep monomials only (single-family reps of degrees a-c and
b-d), since the image of the mixed ideal in the product quotient is a
module over it.  They are all built first and then inserted sparsest
first, by (nnz, leading column), stopping at full rank; the order leaves
the RREF unchanged and keeps the fill-in of back-reduction small.

The composite still yields the canonical reduced echelon form over the full
monomial basis: every stage pivots on the leading surviving column, so the
assembled rows are exactly the RREF rows of the total relation space.

Total degrees are scanned upward and enumeration stops at the first total
degree that contributes nothing (hard cap dx+dy <= n(n-1)): the quotient
is generated in degree 1 and the harmonics are closed under derivatives,
so nothing lies above an empty degree.  Completeness is certified
downstream by the closed-form total dimensions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Dict, List, Optional, Tuple

from .linalg import RrefAccumulator, SparseMatrix, Vec, vec_add_scaled
from .superpoly import (
    Monomial,
    Polynomial,
    TriDegree,
    compositions,
    monomials_tridegree,
    subsets_of_size,
    transpose_adjacent,
)

DEFAULT_CAP = 4
HARD_CAP = 5


class ResourceCapExceeded(Exception):
    """Raised when a space build beyond the configured cap is requested."""


def _check_cap(n: int, allow_large: bool):
    if n < 2:
        raise ValueError("spaces are defined for n >= 2")
    if n > HARD_CAP:
        raise ResourceCapExceeded(f"n={n} is out of scope (hard limit n <= {HARD_CAP})")
    if n > DEFAULT_CAP and not allow_large:
        raise ResourceCapExceeded(
            f"n={n} exceeds the default cap {DEFAULT_CAP}; pass allow_large (--allow-large) to proceed"
        )


@lru_cache(maxsize=None)
def ambient_basis(n: int, deg: TriDegree):
    """Canonically ordered monomial basis of one tridegree piece."""
    monos = monomials_tridegree(n, deg)
    return monos, {m: i for i, m in enumerate(monos)}


def poly_to_vec(p: Polynomial, deg: TriDegree) -> Vec:
    _, index = ambient_basis(p.n, deg)
    vec: Vec = {}
    for m, c in p.terms.items():
        j = index.get(m)
        if j is None:
            raise ValueError(f"monomial {m} is not homogeneous of degree {deg}")
        vec[j] = c
    return vec


def _span(vecs) -> RrefAccumulator:
    """An accumulator holding `vecs`, inserted in order."""
    acc = RrefAccumulator()
    for v in vecs:
        acc.insert(v)
    return acc


def vec_to_poly(vec: Vec, n: int, deg: TriDegree) -> Polynomial:
    monos, _ = ambient_basis(n, deg)
    return Polynomial(n, {monos[j]: c for j, c in vec.items()})


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------


class HilbertSeries:
    """Finitely supported map from TriDegree to dimension."""

    def __init__(self, dims: Dict[TriDegree, int]):
        self.dims = {TriDegree(*d): v for d, v in dims.items() if v}

    def __getitem__(self, deg) -> int:
        return self.dims.get(TriDegree(*deg), 0)

    def __eq__(self, other):
        return isinstance(other, HilbertSeries) and self.dims == other.dims

    def __hash__(self):
        return hash(tuple(sorted(self.dims.items())))

    def total(self) -> int:
        """Specialization at q = t = a = 1."""
        return sum(self.dims.values())

    def per_a(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for deg, v in self.dims.items():
            out[deg.da] = out.get(deg.da, 0) + v
        return dict(sorted(out.items()))

    def slice_a(self, da: int) -> "HilbertSeries":
        return HilbertSeries({d: v for d, v in self.dims.items() if d.da == da})

    def qt_swapped(self) -> "HilbertSeries":
        return HilbertSeries({TriDegree(d.dy, d.dx, d.da): v for d, v in self.dims.items()})

    def is_qt_symmetric(self) -> bool:
        return self == self.qt_swapped()

    def render(self) -> str:
        """Canonical text form, e.g. 'q^3 + q^2*t + q*t^2 + q*t + t^3'."""
        if not self.dims:
            return "0"
        parts = []
        keys = sorted(self.dims, key=lambda d: (d.da, -d.dx, -d.dy))
        for deg in keys:
            coeff = self.dims[deg]
            factors = []
            if deg.da:
                factors.append("a" if deg.da == 1 else f"a^{deg.da}")
            if deg.dx:
                factors.append("q" if deg.dx == 1 else f"q^{deg.dx}")
            if deg.dy:
                factors.append("t" if deg.dy == 1 else f"t^{deg.dy}")
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            else:
                parts.append(f"{coeff}*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"HilbertSeries({self.render()})"


# ---------------------------------------------------------------------------
# Quotient presentations
# ---------------------------------------------------------------------------


class Block:
    """One tridegree piece of a quotient: ambient basis, relations, reps.

    `nf` maps each pivot column to the normal form of its monomial as a
    vector over representative columns; together the rows (pivot - nf) are
    the unique RREF of the relation subspace.
    """

    __slots__ = ("deg", "n", "monomials", "index", "reps", "nf", "_rep_pos")

    def __init__(self, n: int, deg: TriDegree, reps: List[int], nf: Dict[int, Vec]):
        self.n = n
        self.deg = deg
        self.monomials, self.index = ambient_basis(n, deg)
        self.reps = list(reps)
        self.nf = nf
        self._rep_pos = {c: k for k, c in enumerate(self.reps)}

    @property
    def dim(self) -> int:
        return len(self.reps)

    @property
    def ambient_dim(self) -> int:
        return len(self.monomials)

    def normal_form(self, vec: Vec) -> Vec:
        """Reduce an ambient coordinate vector to representative columns."""
        out: Vec = {}
        for j, c in vec.items():
            if j in self._rep_pos:
                out[j] = out.get(j, 0) + c
            else:
                vec_add_scaled(out, c, self.nf[j])
        return {j: v for j, v in out.items() if v != 0}

    def class_coords(self, p: Polynomial) -> Vec:
        """Class of a polynomial, as {rep position: coefficient}."""
        reduced = self.normal_form(poly_to_vec(p, self.deg))
        return {self._rep_pos[j]: v for j, v in reduced.items()}

    def class_of_vec(self, vec: Vec) -> Vec:
        reduced = self.normal_form(vec)
        return {self._rep_pos[j]: v for j, v in reduced.items()}

    def rep_poly(self, position: int) -> Polynomial:
        return Polynomial.monomial(self.monomials[self.reps[position]])

    def relation_rows(self):
        """RREF rows of the relation subspace (pivot coefficient 1)."""
        for piv in sorted(self.nf):
            row = {c: -v for c, v in self.nf[piv].items()}
            row[piv] = Fraction(1)
            yield piv, row


class _Memoised:
    """One memo dict for what is derived from a space: sign component, echelon
    accumulators, operator certificates and matrices, the hook's sl2 model."""

    def __init__(self):
        self._memo: Dict[tuple, object] = {}

    def memoised(self, key: tuple, compute: Callable[[], object]):
        """`compute()` run once per key; a call that raises stores nothing."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


class QuotientSpace(_Memoised):
    """Per-tridegree quotient presentation of an ambient superalgebra slice."""

    def __init__(self, n: int, kind: str, blocks: Dict[TriDegree, Block]):
        super().__init__()
        self.n = n
        self.kind = kind
        self.blocks = dict(blocks)

    def block(self, deg) -> Optional[Block]:
        return self.blocks.get(TriDegree(*deg))

    def dim(self, deg) -> int:
        b = self.blocks.get(TriDegree(*deg))
        return b.dim if b else 0

    def support(self) -> List[TriDegree]:
        return sorted(d for d, b in self.blocks.items() if b.dim)

    def hilbert(self) -> HilbertSeries:
        return HilbertSeries({d: b.dim for d, b in self.blocks.items()})

    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks.values())

    def __repr__(self):
        return f"QuotientSpace({self.kind}, n={self.n}, dim={self.total_dim()})"


class GradedSubspace(_Memoised):
    """Per-tridegree canonical echelon bases of a subspace of the superalgebra.

    degree_cap, when set, records the top total (dx+dy) degree up to which
    the space was built; pieces beyond it exist mathematically but were not
    materialized (relevant for ideals, which live in all degrees).
    """

    def __init__(self, n: int, kind: str, pieces: Dict[TriDegree, List[Vec]], degree_cap: Optional[int] = None):
        super().__init__()
        self.n = n
        self.kind = kind
        self.pieces = {d: v for d, v in pieces.items() if v}
        self.degree_cap = degree_cap

    def basis(self, deg) -> List[Vec]:
        return self.pieces.get(TriDegree(*deg), [])

    def basis_polys(self, deg) -> List[Polynomial]:
        deg = TriDegree(*deg)
        return [vec_to_poly(v, self.n, deg) for v in self.basis(deg)]

    def dim(self, deg) -> int:
        return len(self.basis(deg))

    def hilbert(self) -> HilbertSeries:
        return HilbertSeries({d: len(v) for d, v in self.pieces.items()})

    def total_dim(self) -> int:
        return sum(len(v) for v in self.pieces.values())

    def support(self) -> List[TriDegree]:
        return sorted(self.pieces)

    def _acc(self, deg: TriDegree) -> RrefAccumulator:
        return self.memoised(("acc", deg), lambda: _span(self.pieces.get(deg, [])))

    def contains_vec(self, deg, vec: Vec) -> bool:
        return not self._acc(TriDegree(*deg)).reduce(vec)

    def contains(self, p: Polynomial) -> bool:
        if p.is_zero():
            return True
        ok = True
        for deg, comp in p.homogeneous_components().items():
            try:
                vec = poly_to_vec(comp, deg)
            except ValueError:
                return False
            ok = ok and self.contains_vec(deg, vec)
        return ok

    def __repr__(self):
        return f"GradedSubspace({self.kind}, n={self.n}, dim={self.total_dim()})"


# ---------------------------------------------------------------------------
# Single variable family reductions
# ---------------------------------------------------------------------------


class _SingleDegree:
    __slots__ = ("monos", "index", "reps", "nf", "rows")

    def __init__(self, monos, index, reps, nf, rows):
        self.monos = monos  # exponent tuples, canonical (descending-lex) order
        self.index = index
        self.reps = reps  # non-pivot columns
        self.nf = nf  # pivot column -> (int vec over rep columns, den): vec/den
        self.rows = rows  # pivot column -> int relation row, pivot entry den


class _SingleFamily:
    """Degreewise reduction of Q[z_1..z_n] modulo its power sum ideal."""

    def __init__(self, n: int):
        self.n = n
        self.degrees: Dict[int, _SingleDegree] = {}
        self._build(0)

    def _monos(self, d: int):
        return list(compositions(d, self.n))

    def ensure(self, d: int):
        for k in range(len(self.degrees), d + 1):
            self._build(k)

    def deg(self, d: int) -> _SingleDegree:
        self.ensure(d)
        return self.degrees[d]

    def nf(self, exps: tuple):
        """Normal form of a monomial as (int vec over the rep columns of its
        degree, den): the normal form is vec/den."""
        d = sum(exps)
        sd = self.deg(d)
        j = sd.index[exps]
        if j in sd.nf:
            return sd.nf[j]
        return {j: 1}, 1

    def _build(self, d: int):
        monos = self._monos(d)
        index = {m: i for i, m in enumerate(monos)}
        acc = RrefAccumulator()
        if d >= 1:
            prev = self.degrees[d - 1]
            # Shifts of the lower-degree relation rows by each variable.
            for piv in sorted(prev.rows):
                row = prev.rows[piv]
                for i in range(self.n):
                    shifted: Vec = {}
                    for c, v in row.items():
                        exps = list(prev.monos[c])
                        exps[i] += 1
                        shifted[index[tuple(exps)]] = v
                    acc.insert(shifted)
            # The power sum of this degree, if it is a generator.
            if 1 <= d <= self.n:
                vec = {}
                for i in range(self.n):
                    exps = [0] * self.n
                    exps[i] = d
                    vec[index[tuple(exps)]] = 1
                acc.insert(vec)
        rows = dict(acc.int_rows())
        reps = [j for j in range(len(monos)) if j not in rows]
        nf = {piv: ({c: -x for c, x in row.items() if c != piv}, row[piv])
              for piv, row in rows.items()}
        self.degrees[d] = _SingleDegree(monos, index, reps, nf, rows)


# ---------------------------------------------------------------------------
# Per-n workspace
# ---------------------------------------------------------------------------


class _Workspace:
    """Everything this process has built for one n."""

    def __init__(self, n: int):
        self.spaces: Dict[str, object] = {}  # "drn", "dh", "hook": built or cache-loaded
        self.family = _SingleFamily(n)
        # Every coinvariant block built, zero-dimensional ones included: read
        # by both `coinvariants` and the operator certificates.
        self.even_blocks: Dict[Tuple[int, int], Block] = {}
        self.single_harmonics: Dict[int, List[dict]] = {}  # int harmonic kernels by degree
        self.tower = _IdealTower(n)  # extended upward on demand


_WORKSPACES: Dict[int, _Workspace] = {}


def _workspace(n: int) -> _Workspace:
    if n not in _WORKSPACES:
        _WORKSPACES[n] = _Workspace(n)
    return _WORKSPACES[n]


def _memoised_space(n: int, kind: str, allow_large: bool, cache_dir, build):
    """The workspace's `kind` space: checks the cap, then serves it from the
    workspace, else from the cache, else from `build()` (saving it)."""
    _check_cap(n, allow_large)
    spaces = _workspace(n).spaces
    if kind not in spaces:
        from . import cache

        load, save = ((cache.load_subspace, cache.save_subspace) if kind == "dh"
                      else (cache.load_quotient, cache.save_quotient))
        space = load(cache_dir, kind, n) if cache_dir is not None else None
        if space is None:
            space = build()
            if cache_dir is not None:
                save(cache_dir, space)
        spaces[kind] = space
    return spaces[kind]


def _mixed_generators(n: int):
    return [
        (c, d)
        for c in range(1, n)
        for d in range(1, n)
        if 2 <= c + d <= n
    ]


# ---------------------------------------------------------------------------
# Diagonal coinvariants
# ---------------------------------------------------------------------------


def _build_even_block(n: int, a: int, b: int) -> Block:
    """Quotient presentation of one bidegree piece of the coinvariant ring.

    The rows are reduced in the small product quotient R_x (x) R_y: its
    columns ("mini" columns) are the pairs of single-family rep columns,
    pair (ia, ib) at (position of ia) * len(B.reps) + (position of ib).
    The image of the mixed ideal there is an R_x (x) R_y-module, so it is
    spanned by p_{c,d} * x^alpha y^beta with x^alpha and y^beta single-family
    reps of degrees a-c and b-d.  Every row is built in ints from the
    single-family normal forms (vec, den), each product scaled by
    lcm(den)/den; den is 1 in practice.  The candidate rows are inserted
    sparsest first, by (nnz, leading column), until the rank is full: the
    RREF does not depend on the order, but back-reduction fills in less.
    """
    fam = _workspace(n).family
    A = fam.deg(a)
    B = fam.deg(b)
    nb = len(B.monos)
    nrb = len(B.reps)
    xpos = {ia: k * nrb for k, ia in enumerate(A.reps)}
    ypos = {ib: k for k, ib in enumerate(B.reps)}
    mini_cols = [ia * nb + ib for ia in A.reps for ib in B.reps]  # mini -> full column
    acc = RrefAccumulator()

    def on_reps(exps: tuple, pos: dict):
        vec, den = fam.nf(exps)
        return {pos[j]: c for j, c in vec.items()}, den

    def add_tensor(out: dict, scale: int, xvec: dict, yvec: dict) -> None:
        """out += scale * (xvec tensor yvec), dropping zeros."""
        get = out.get
        for ka, ca in xvec.items():
            ca *= scale
            for kb, cb in yvec.items():
                k = ka + kb
                s = get(k, 0) + ca * cb
                if s:
                    out[k] = s
                else:
                    del out[k]

    def shifted_nfs(fd: int, k: int, pos: dict) -> list:
        """Per degree-fd rep z^gamma, the normal forms of z_i^k z^gamma, i = 1..n."""
        sd = fam.deg(fd)
        out = []
        for j in sd.reps:
            per_i = []
            for i in range(n):
                e = list(sd.monos[j])
                e[i] += k
                per_i.append(on_reps(tuple(e), pos))
            out.append(per_i)
        return out

    candidates = []
    for (c, d) in _mixed_generators(n):
        if a - c < 0 or b - d < 0:
            continue
        ynfs = shifted_nfs(b - d, d, ypos)
        for xs in shifted_nfs(a - c, c, xpos):
            for ys in ynfs:
                dens = [xd * yd for (_, xd), (_, yd) in zip(xs, ys)]
                top = lcm(*dens)
                row: dict = {}
                for (xvec, _), (yvec, _), den in zip(xs, ys, dens):
                    add_tensor(row, top // den, xvec, yvec)
                if row:
                    candidates.append(row)
    candidates.sort(key=lambda row: (len(row), min(row)))
    full = len(mini_cols)
    for row in candidates:
        if acc.rank == full:
            break
        acc.insert(row)

    pivots = set(acc.pivots())
    rep_cols = [col for k, col in enumerate(mini_cols) if k not in pivots]

    deg = TriDegree(a, b, 0)
    nf: Dict[int, Vec] = {}
    rep_set = set(rep_cols)
    trivial = not rep_cols  # zero-dimensional piece: everything reduces to 0
    ynfs = [on_reps(beta, ypos) for beta in B.monos]
    for ia, alpha in enumerate(A.monos):
        xvec, xd = on_reps(alpha, xpos)
        for ib, (yvec, yd) in enumerate(ynfs):
            colf = ia * nb + ib
            if colf in rep_set:
                continue
            if trivial:
                nf[colf] = {}
                continue
            mini: dict = {}
            add_tensor(mini, 1, xvec, yvec)
            reduced = acc.reduce(mini)
            if xd * yd != 1:
                reduced = {k: v / (xd * yd) for k, v in reduced.items()}
            nf[colf] = {mini_cols[k]: v for k, v in reduced.items()}
    return Block(n, deg, rep_cols, nf)


def _scan_bidegrees(n: int, build, dim=len) -> dict:
    """Run `build(a, b)` over total degrees upward, stopping after the first
    empty total degree; the pieces of nonzero `dim`, by degree.

    One empty degree suffices for both gradings scanned here.  The
    coinvariant quotient is generated in degree 1, so degree d+1 is spanned
    by the products of the x_i, y_i with degree d and vanishes with it.  The
    harmonics are closed under every partial derivative, and a nonzero
    harmonic of degree d+1 has a nonzero first derivative, a harmonic of
    degree d.  Degree 0 holds the constants, so the first empty degree is the
    top degree plus one.
    """
    pieces = {}
    for d in range(n * (n - 1) + 1):
        total = 0
        for a in range(d, -1, -1):
            piece = build(a, d - a)
            if dim(piece):
                pieces[TriDegree(a, d - a, 0)] = piece
                total += dim(piece)
        if not total:
            break
    return pieces


def _even_block(n: int, a: int, b: int) -> Block:
    """The coinvariant block of bidegree (a, b), built once per workspace."""
    blocks = _workspace(n).even_blocks
    if (a, b) not in blocks:
        blocks[(a, b)] = _build_even_block(n, a, b)
    return blocks[(a, b)]


def coinvariants(n: int, allow_large: bool = False, cache_dir=None) -> QuotientSpace:
    """The diagonal coinvariant quotient, as per-bidegree presentations.

    Total dimension is (n+1)^(n-1); the relation subspace per bidegree is
    spanned by products of polarized power sums with monomials.
    """

    def build() -> QuotientSpace:
        blocks = _scan_bidegrees(n, lambda a, b: _even_block(n, a, b), lambda blk: blk.dim)
        return QuotientSpace(n, "drn", blocks)

    return _memoised_space(n, "drn", allow_large, cache_dir, build)


def invariant_ideal_piece(n: int, bidegree: Tuple[int, int]) -> SparseMatrix:
    """Spanning columns of one bidegree piece of the invariant ideal.

    Columns are the products p_{a,b} * monomial over polarized power sums
    with 1 <= a+b <= n; no reduction is performed.
    """
    a, b = bidegree
    deg = TriDegree(a, b, 0)
    monos, index = ambient_basis(n, deg)
    cols: List[Vec] = []
    gens = [(c, d) for c in range(n + 1) for d in range(n + 1) if 1 <= c + d <= n]
    for (c, d) in gens:
        if a - c < 0 or b - d < 0:
            continue
        for alpha in compositions(a - c, n):
            for beta in compositions(b - d, n):
                col: Vec = {}
                for i in range(n):
                    xe = list(alpha)
                    xe[i] += c
                    ye = list(beta)
                    ye[i] += d
                    j = index[Monomial(tuple(xe), tuple(ye), ())]
                    col[j] = col.get(j, 0) + Fraction(1)
                cols.append(col)
    return SparseMatrix.from_columns(cols, len(monos))


# ---------------------------------------------------------------------------
# Harmonics
# ---------------------------------------------------------------------------


def _single_harmonics(n: int, d: int) -> List[dict]:
    """Joint kernel of p_c(d/dz), c = 1..n, on degree-d monomials (one family),
    as int vectors."""
    kernels = _workspace(n).single_harmonics
    if d in kernels:
        return kernels[d]
    monos = list(compositions(d, n))
    acc = RrefAccumulator()
    for c in range(1, n + 1):
        if d - c < 0:
            continue
        targets = {m: i for i, m in enumerate(compositions(d - c, n))}
        # One constraint row per target monomial.
        block: Dict[int, dict] = {}
        for j, m in enumerate(monos):
            for i in range(n):
                if m[i] >= c:
                    coeff = 1
                    for t in range(c):
                        coeff *= m[i] - t
                    e = list(m)
                    e[i] -= c
                    r = targets[tuple(e)]
                    row = block.setdefault(r, {})
                    row[j] = row.get(j, 0) + coeff
        for r in sorted(block):
            acc.insert(block[r])
    kernels[d] = list(acc.int_kernel(len(monos)).values())
    return kernels[d]


def _build_harmonic_piece(n: int, a: int, b: int) -> List[Vec]:
    """Exact basis of the harmonic piece of one bidegree.

    The tensor basis and the derivative images are int vectors, and each
    kernel step takes int vectors from the accumulator; their scale is
    arbitrary, and the closing echelon form makes the basis canonical.
    """
    fam = _workspace(n).family
    A = fam.deg(a)
    B = fam.deg(b)
    nb = len(B.monos)
    kx = _single_harmonics(n, a)
    ky = _single_harmonics(n, b)
    basis: List[dict] = []
    for vx in kx:
        for vy in ky:
            vec: dict = {}
            for ia, ca in vx.items():
                for ib, cb in vy.items():
                    vec[ia * nb + ib] = ca * cb
            basis.append(vec)
    if not basis:
        return []
    amonos = A.monos
    bmonos = B.monos
    for (c, d) in _mixed_generators(n):
        if a - c < 0 or b - d < 0 or not basis:
            continue
        tb = list(compositions(b - d, n))
        ta = list(compositions(a - c, n))
        ta_index = {m: i for i, m in enumerate(ta)}
        tb_index = {m: i for i, m in enumerate(tb)}
        images: Dict[int, dict] = {}
        for j, v in enumerate(basis):
            for col, coeff in v.items():
                alpha = amonos[col // nb]
                beta = bmonos[col % nb]
                for i in range(n):
                    if alpha[i] >= c and beta[i] >= d:
                        w = 1
                        for t in range(c):
                            w *= alpha[i] - t
                        for t in range(d):
                            w *= beta[i] - t
                        ea = list(alpha)
                        ea[i] -= c
                        eb = list(beta)
                        eb[i] -= d
                        r = ta_index[tuple(ea)] * len(tb) + tb_index[tuple(eb)]
                        row = images.setdefault(r, {})
                        s = row.get(j, 0) + coeff * w
                        if s == 0:
                            row.pop(j, None)
                        else:
                            row[j] = s
        combos = _span(images[r] for r in sorted(images)).int_kernel(len(basis)).values()
        new_basis: List[dict] = []
        for combo in combos:
            vec = {}
            for j, cc in combo.items():
                for col, x in basis[j].items():
                    vec[col] = vec.get(col, 0) + cc * x
            new_basis.append({col: x for col, x in vec.items() if x})
        basis = new_basis
    return _span(basis).row_vectors()


def harmonics(n: int, allow_large: bool = False, cache_dir=None) -> GradedSubspace:
    """Joint kernel of all positive-degree invariant derivative operators.

    Computed independently of the quotient presentation (kernel
    intersections only), so graded duality with the coinvariants is a real
    check downstream, not a construction artifact.
    """

    def build() -> GradedSubspace:
        pieces = _scan_bidegrees(n, lambda a, b: _build_harmonic_piece(n, a, b))
        return GradedSubspace(n, "dh", pieces)

    return _memoised_space(n, "dh", allow_large, cache_dir, build)


# ---------------------------------------------------------------------------
# Sign and hook components
# ---------------------------------------------------------------------------


def _signed_orbit_sums(n: int, deg: TriDegree) -> List[Vec]:
    """Per S_n-orbit of monomials of one degree with a nonzero sign projection,
    {column: sign}: a member's projection is its sign times this over its size.

    Orbits are walked through the adjacent transpositions s_i.  The projection
    is anti-invariant, so s_i u = e v forces sign(v) = -e sign(u); conflicting
    signs mean it is zero, exactly when two equal (x, y) columns both lack th
    (two equal columns that both carry th also swap two odd factors).
    """
    monos, index = ambient_basis(n, deg)
    seen = set()
    out = []
    for m in monos:
        if m in seen:
            continue
        sign, alive, todo = {m: 1}, True, [m]
        while todo:
            u = todo.pop()
            for i in range(n - 1):
                v, e = transpose_adjacent(u, i)
                if v not in sign:
                    sign[v] = -e * sign[u]
                    todo.append(v)
                elif sign[v] != -e * sign[u]:
                    alive = False
        seen.update(sign)
        if alive:
            out.append({index[u]: Fraction(c) for u, c in sign.items()})
    return out


def _sign_quotient_block(base: Block) -> Block:
    """Add the kernel of the sign projector to a block's relation subspace."""
    return _sign_block(base, 0)


def sign_component(space):
    """Sign-isotypic part: quotient presentation or alt-image subspace.

    For a QuotientSpace the result is the quotient by the enlarged relation
    subspace (relations plus the kernel of the sign projector, spanned by the
    images of 1 + s_i); for a GradedSubspace it is the span of the sign
    projections of the basis vectors, computed orbit by orbit.
    """
    return space.memoised(("sign",), lambda: _build_sign_component(space))


def _build_sign_component(space):
    if isinstance(space, QuotientSpace):
        blocks = {}
        for deg, base in space.blocks.items():
            blk = _sign_quotient_block(base)
            if blk.dim:
                blocks[deg] = blk
        return QuotientSpace(space.n, space.kind + "-sign", blocks)
    pieces: Dict[TriDegree, List[Vec]] = {}
    for deg in space.support():
        orbits = _signed_orbit_sums(space.n, deg)
        member = {j: (o, s) for o, orbit in enumerate(orbits) for j, s in orbit.items()}
        acc = RrefAccumulator()
        for vec in space.basis(deg):
            weights: Dict[int, Fraction] = {}  # orbit -> coefficient of its signed sum
            for j, c in vec.items():
                if j in member:
                    o, s = member[j]
                    weights[o] = weights.get(o, 0) + s * c
            image: Vec = {}
            for o, w in weights.items():
                if w:
                    w /= len(orbits[o])
                    image.update((j, w * s) for j, s in orbits[o].items())
            acc.insert(image)
        if acc.rank:
            pieces[deg] = acc.row_vectors()
    return GradedSubspace(space.n, space.kind + "-sign", pieces)


def _build_hook_block(n: int, dr_block: Block, da: int) -> Block:
    """One tridegree piece of the hook component."""
    return _sign_block(dr_block, da)


def _sign_block(dr_block: Block, da: int) -> Block:
    """The sign part of (odd degree da) tensor one quotient block.

    Stages: the block's relations per odd index set, then wedge relations of
    th_1+..+th_n (on representative classes only; the rest already lies in
    the ideal relations), then the im(1 + s_i) rows, which span the kernel
    of the sign projector.  The block is even unless da = 0.
    """
    n = dr_block.n
    a, b, da0 = dr_block.deg
    deg = TriDegree(a, b, da0 + da)
    thetasets = subsets_of_size(n, da)
    set_pos = {S: i for i, S in enumerate(thetasets)}
    k = dr_block.dim
    minicols = [(si, pos) for si in range(len(thetasets)) for pos in range(k)]
    mini_index = {pair: i for i, pair in enumerate(minicols)}
    acc = RrefAccumulator()
    # Wedge relations: omega_0 ^ (rep * theta_set) for each smaller set.
    if da >= 1:
        for Sp in subsets_of_size(n, da - 1):
            spset = set(Sp)
            for pos in range(k):
                row: Vec = {}
                for i in range(n):
                    if i in spset:
                        continue
                    sign = (-1) ** sum(1 for s in Sp if s < i)
                    S = tuple(sorted(Sp + (i,)))
                    key = mini_index[(set_pos[S], pos)]
                    row[key] = row.get(key, 0) + Fraction(sign)
                acc.insert({c: v for c, v in row.items() if v != 0})

    # The im(1 + s_i) rows on the surviving classes.  The class of s_i on the
    # even part is shared by every odd index set.
    for pos in range(k):
        mono = dr_block.monomials[dr_block.reps[pos]]
        for i in range(n - 1):
            image, sign = transpose_adjacent(mono, i)
            cls = dr_block.class_of_vec({dr_block.index[image]: Fraction(sign)})
            for si, S in enumerate(thetasets):
                image, sign = transpose_adjacent(Monomial(mono.xe, mono.ye, S), i)
                spos = set_pos[image.odd]
                row = {mini_index[(spos, p2)]: sign * v for p2, v in cls.items()}
                vec_add_scaled(row, Fraction(1), {mini_index[(si, pos)]: Fraction(1)})
                acc.insert(row)

    pivots = set(acc.pivots())
    d_ab = dr_block.ambient_dim

    def full_col(si: int, xy_col: int) -> int:
        return si * d_ab + xy_col

    rep_cols = [
        full_col(si, dr_block.reps[pos])
        for (si, pos) in minicols
        if mini_index[(si, pos)] not in pivots
    ]
    rep_cols.sort()
    rep_set = set(rep_cols)
    nf: Dict[int, Vec] = {}
    for si in range(len(thetasets)):
        for xy_col in range(d_ab):
            colf = full_col(si, xy_col)
            if colf in rep_set:
                continue
            if not rep_cols:  # zero-dimensional piece: everything reduces to 0
                nf[colf] = {}
                continue
            if xy_col in dr_block._rep_pos:
                mini = {mini_index[(si, dr_block._rep_pos[xy_col])]: Fraction(1)}
            else:
                mini = {
                    mini_index[(si, dr_block._rep_pos[j])]: v
                    for j, v in dr_block.nf[xy_col].items()
                }
            reduced = acc.reduce(mini)
            out: Vec = {}
            for kk, v in reduced.items():
                si2, pos2 = minicols[kk]
                out[full_col(si2, dr_block.reps[pos2])] = v
            nf[colf] = out
    return Block(n, deg, rep_cols, nf)


def hook_component(n: int, allow_large: bool = False, cache_dir=None) -> QuotientSpace:
    """Sign part of (reduced odd exterior algebra) tensor the coinvariants.

    The odd degree is the third grading; the degree-zero odd slice coincides
    with the sign component of the coinvariant quotient.
    """

    def build() -> QuotientSpace:
        dr = coinvariants(n, allow_large=allow_large, cache_dir=cache_dir)
        blocks: Dict[TriDegree, Block] = {}
        for deg in sorted(dr.blocks):
            base = dr.blocks[deg]
            for da in range(n):
                blk = _build_hook_block(n, base, da)
                if blk.dim:
                    blocks[blk.deg] = blk
        return QuotientSpace(n, "hook", blocks)

    return _memoised_space(n, "hook", allow_large, cache_dir, build)


# ---------------------------------------------------------------------------
# Ideals generated by antisymmetric elements
# ---------------------------------------------------------------------------

_IDEAL_FLAVORS = ("J", "mJ", "Jbar", "mJbar")


def _wedge_omega0_vec(n: int, deg: TriDegree, vec: Vec) -> Vec:
    """Coordinates of (th_1 + .. + th_n) ^ v one odd degree up."""
    monos, _ = ambient_basis(n, deg)
    _, tindex = ambient_basis(n, TriDegree(deg.dx, deg.dy, deg.da + 1))
    out: Vec = {}
    for j, c in vec.items():
        m = monos[j]
        inset = set(m.odd)
        for i in range(n):
            if i in inset:
                continue
            sign = (-1) ** sum(1 for s in m.odd if s < i)
            target = Monomial(m.xe, m.ye, tuple(sorted(m.odd + (i,))))
            kk = tindex[target]
            s = out.get(kk, 0) + sign * c
            if s == 0:
                out.pop(kk, None)
            else:
                out[kk] = s
    return out


class _IdealTower:
    """Degreewise echelon bases of the antisymmetric ideal and its multiples."""

    def __init__(self, n: int):
        self.n = n
        self.max_total = -1  # top total degree built so far
        self.J: Dict[TriDegree, RrefAccumulator] = {}
        self.mJ: Dict[TriDegree, RrefAccumulator] = {}

    def _shift_candidates(self, deg: TriDegree) -> List[Vec]:
        n = self.n
        out: List[Vec] = []
        _, index = ambient_basis(n, deg)
        for (src, var) in (
            (TriDegree(deg.dx - 1, deg.dy, deg.da), "x"),
            (TriDegree(deg.dx, deg.dy - 1, deg.da), "y"),
        ):
            if src.dx < 0 or src.dy < 0:
                continue
            acc = self.J.get(src)
            if not acc or not acc.rank:
                continue
            smonos, _ = ambient_basis(n, src)
            for row in acc.row_vectors():
                for i in range(n):
                    shifted: Vec = {}
                    for c, v in row.items():
                        m = smonos[c]
                        if var == "x":
                            xe = list(m.xe)
                            xe[i] += 1
                            t = Monomial(tuple(xe), m.ye, m.odd)
                        else:
                            ye = list(m.ye)
                            ye[i] += 1
                            t = Monomial(m.xe, tuple(ye), m.odd)
                        shifted[index[t]] = v
                    out.append(shifted)
        return out

    def degrees(self, max_total: int) -> List[TriDegree]:
        """Built degrees of total degree <= max_total, in build order."""
        return [d for d in self.J if d.dx + d.dy <= max_total]

    def _build(self, max_total: int):
        """Extend the tower from its top total degree up to max_total."""
        n = self.n
        for total in range(self.max_total + 1, max_total + 1):
            for dx in range(total, -1, -1):
                dy = total - dx
                for da in range(n + 1):
                    deg = TriDegree(dx, dy, da)
                    accm = _span(self._shift_candidates(deg))
                    self.mJ[deg] = accm
                    self.J[deg] = _span(accm.row_vectors() + _signed_orbit_sums(n, deg))
            self.max_total = total


def _ideal_tower(n: int, max_total: int) -> _IdealTower:
    """The workspace's tower, built at least up to total degree max_total;
    callers read only its degrees(max_total)."""
    tower = _workspace(n).tower
    if max_total > tower.max_total:
        tower._build(max_total)
    return tower


def default_ideal_degree_cap(n: int) -> int:
    """Top total degree of the coinvariant quotient plus a two-degree margin."""
    return n * (n - 1) // 2 + 2


def antisymmetric_ideal(n: int, flavor: str, max_total: Optional[int] = None) -> GradedSubspace:
    """Per-degree bases for the ideal generated by antisymmetric elements.

    Flavors: "J" (the ideal), "mJ" (its product with the maximal ideal),
    "Jbar" (a complement of omega_0 ^ J inside J, realizing the reduced
    ideal degreewise), "mJbar" (the image of mJ in that reduction, realized
    as a complement of omega_0 ^ J inside mJ + omega_0 ^ J).
    """
    if flavor not in _IDEAL_FLAVORS:
        raise ValueError(f"flavor must be one of {_IDEAL_FLAVORS}")
    if n < 2:
        raise ValueError("n >= 2 required")
    if max_total is None:
        max_total = default_ideal_degree_cap(n)
    tower = _ideal_tower(n, max_total)
    pieces: Dict[TriDegree, List[Vec]] = {}
    if flavor in ("J", "mJ"):
        accs = tower.J if flavor == "J" else tower.mJ
        for deg in tower.degrees(max_total):
            if accs[deg].rank:
                pieces[deg] = accs[deg].row_vectors()
        return GradedSubspace(n, flavor, pieces, degree_cap=max_total)
    for deg in tower.degrees(max_total):
        accj = tower.J[deg]
        if deg.da == 0:
            omega_rows: List[Vec] = []
        else:
            lower = TriDegree(deg.dx, deg.dy, deg.da - 1)
            src = tower.J.get(lower)
            omega_rows = (
                [_wedge_omega0_vec(n, lower, row) for row in src.row_vectors()] if src else []
            )
        acc = _span(omega_rows)
        vecs: List[Vec] = []
        source = accj if flavor == "Jbar" else tower.mJ[deg]
        for row in source.row_vectors():
            residual = acc.reduce(row)
            if residual:
                acc.insert(row)
                vecs.append(residual)
        if vecs:
            pieces[deg] = _span(vecs).row_vectors()
    return GradedSubspace(n, flavor, pieces, degree_cap=max_total)


def ideal_quotient_series(n: int, reduced: bool, max_total: Optional[int] = None) -> HilbertSeries:
    """Graded dimensions of J/mJ (reduced=False) or of the omega_0-reduced
    quotient Jbar/mJbar (reduced=True)."""
    if max_total is None:
        max_total = default_ideal_degree_cap(n)
    tower = _ideal_tower(n, max_total)
    dims: Dict[TriDegree, int] = {}
    for deg in tower.degrees(max_total):
        accj = tower.J[deg]
        if not reduced:
            if deg.da == 0:
                d = accj.rank - tower.mJ[deg].rank
                if d:
                    dims[deg] = d
            continue
        acc = RrefAccumulator()
        if deg.da:
            lower = TriDegree(deg.dx, deg.dy, deg.da - 1)
            src = tower.J.get(lower)
            if src:
                for row in src.row_vectors():
                    acc.insert(_wedge_omega0_vec(n, lower, row))
        for row in tower.mJ[deg].row_vectors():
            acc.insert(row)
        d = accj.rank - acc.rank
        if d:
            dims[deg] = d
    return HilbertSeries(dims)


def hilbert(space) -> HilbertSeries:
    """Exact per-tridegree dimensions of any space built by this module."""
    return space.hilbert()


def clear_registry():
    """Drop every in-process memo: all workspaces, and the `ambient_basis` cache."""
    _WORKSPACES.clear()
    ambient_basis.cache_clear()
