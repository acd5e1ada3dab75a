"""Graded spaces: coinvariant quotients, harmonic subspaces, isotypic parts.

Every space is presented piece by piece in the canonical monomial basis of
each tridegree.  Quotients store, per tridegree, the unique reduced
row-echelon form of their relation subspace together with the complementary
(non-pivot) representative monomials; subspaces store canonical echelon
bases.  Construction is staged so that elimination always happens in small
coordinates:

* the pure-x and pure-y generators give a tensor-product presentation, each
  variable family reduced by division by its Groebner basis, and only the
  genuinely mixed generators are row-reduced in the small product quotient;
* the hook and sign blocks are built from n alone, over one coordinate
  per S_n-orbit of monomials with a nonzero alternant: the sign part of the
  superalgebra modulo the invariant ideal and th_1+..+th_n (`_orbit_block`);
* each harmonic piece is the orthogonal complement of its coinvariant
  block's relations under the differentiation pairing.

A coinvariant block's relations are row-reduced in the coordinates of a
small "mini" quotient, the product of the single-family quotients, whose
non-pivot columns become the block's representatives.  No other column is
reduced on its own: its lift into mini coordinates is the tensor product of
its single-family normal forms, and reduction is linear, so its normal form
is the same combination of the classes of the mini columns, read once off
the RREF as ints over one common denominator (`_classes`).

The single-family normal forms are integral.  Under the column order the
power sum ideal of one family has the monic, integral lex Groebner basis
{h_k(z_k, .., z_n)} (complete homogeneous symmetric polynomials; Cox,
Little and O'Shea, *Ideals, Varieties, and Algorithms*), with leading terms
z_k^k.  `_SingleFamily` divides by it: the reps are the standard monomials,
the exponent of each z_k below k, and the leading terms are the pivots of
the RREF, so division gives the RREF's normal forms, as int vecs, with no
elimination.  In the coinvariant blocks and the harmonic pieces, rows reach
the kernel as integers: normal forms, tensor products, candidate rows,
classes and the scaled harmonic rows are int dicts, and `Fraction`s appear
only in what is handed out: a block's normal forms, divided by the common
denominator at the end, and the accumulator's echelon rows.

A coinvariant block's candidate rows are the mixed generators p_{c,d}
times rep (x) rep monomials only (single-family reps of degrees a-c and
b-d), since the image of the mixed ideal in the product quotient is a
module over it.  They are all built first and then inserted right to
left, by (leading column descending, nnz) (`_insert_right_to_left`, as for
the hook blocks).  The order leaves the RREF unchanged.  A row whose
leading column lies left of every stored pivot back-reduces nothing, so
the stored rows mostly skip the transient fill-in of long entries that a
sparsest-first order builds up.

The composite still yields the canonical reduced echelon form over the full
monomial basis: every stage pivots on the leading surviving column, so the
assembled rows are exactly the RREF rows of the total relation space.

Every scan stops at a closed-form top degree and checks a closed-form
total, raising ArithmeticError with both totals when they differ: a class
above the top would make the total fall short.  The coinvariant and
harmonic scans run to C(n,2) and total (n+1)^(n-1) (Haiman 2002,
`_scan_bidegrees`); each odd degree of the hook runs to its own top degree
and totals its Schroder-path count (`_hook_slice`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Callable, Dict, List, Optional, Tuple

from .dyck import hook_per_a
from .linalg import RrefAccumulator, Vec, _span, _sub_multiple, vec_add_scaled
from .superpoly import (
    DiffOperator,
    Monomial,
    Polynomial,
    TriDegree,
    compositions,
    count_tridegree,
    monomial_image,
    monomial_pair_weight,
    monomials_tridegree,
    tridegree_shift,
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


def _insert_right_to_left(rows) -> RrefAccumulator:
    """An accumulator of the nonzero candidate rows, inserted by (leading
    column descending, nnz): the RREF does not depend on the order, and a
    row whose leading column lies left of every stored pivot back-reduces
    nothing, since no stored row has an entry there."""
    return _span(sorted(filter(None, rows), key=lambda row: (-min(row), len(row))))


def _classes(acc: RrefAccumulator, size: int) -> Tuple[int, List[dict]]:
    """(L, per column k < size its class modulo the rows, times L), read off
    the RREF: L is the lcm of the pivot entries, a non-pivot column's class
    is itself and a pivot column p's is -row_p off the pivot over row_p[p].
    Each class is an int dict over the non-pivot columns, in column order."""
    rows = dict(acc.int_rows())
    L = lcm(*(row[p] for p, row in rows.items()))
    classes = []
    for k in range(size):
        row = rows.get(k)
        if row is None:
            classes.append({k: L})
        else:
            s = L // row[k]
            classes.append({f: -x * s for f, x in row.items() if f != k})
    return L, classes


def _fractions_over(den: int):
    """v -> Fraction(v, den), one shared Fraction per distinct v."""
    memo: Dict[int, Fraction] = {}

    def frac(v: int) -> Fraction:
        f = memo.get(v)
        if f is None:
            f = memo[v] = Fraction(v, den)
        return f

    return frac


def column_map(op: DiffOperator, deg: TriDegree) -> Callable[[dict], dict]:
    """v -> op.den * op(v) on int column vectors, from the piece at deg to
    the one op maps it to.  A column's image, its `monomial_image` summed
    per target column, is built when a vector first meets the column, in a
    table that lives as long as the map: one map per matrix or per span."""
    monos, _ = ambient_basis(op.n, deg)
    _, index = ambient_basis(op.n, TriDegree(*(a + b for a, b in zip(deg, tridegree_shift(op)))))
    table: Dict[int, dict] = {}

    def apply(vec: dict) -> dict:
        out: dict = {}
        get = out.get
        for j, v in vec.items():
            col = table.get(j)
            if col is None:
                col = table[j] = {}
                for _, m, c in monomial_image(op, monos[j]):
                    t = index[m]
                    col[t] = col.get(t, 0) + c
            for t, c in col.items():
                out[t] = get(t, 0) + c * v
        return {t: s for t, s in out.items() if s}

    return apply


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
    """One tridegree piece of a quotient: relations, reps, ambient basis on demand.

    `nf` maps each pivot column to the normal form of its monomial as a
    vector over representative columns; together the rows (pivot - nf) are
    the unique RREF of the relation subspace.
    """

    __slots__ = ("deg", "n", "reps", "nf", "_rep_pos")

    def __init__(self, n: int, deg: TriDegree, reps: List[int], nf: Dict[int, Vec]):
        self.n = n
        self.deg = deg
        self.reps = list(reps)
        self.nf = nf
        self._rep_pos = {c: k for k, c in enumerate(self.reps)}

    @property
    def dim(self) -> int:
        return len(self.reps)

    @property
    def ambient_dim(self) -> int:
        return count_tridegree(self.n, self.deg)

    monomials = property(lambda self: ambient_basis(self.n, self.deg)[0])

    def normal_form(self, vec: Vec) -> Vec:
        """Reduce an ambient coordinate vector to representative columns."""
        out: Vec = {}
        for j, c in vec.items():
            if j in self._rep_pos:
                out[j] = out.get(j, 0) + c
            else:
                vec_add_scaled(out, c, self.nf[j])
        return {j: v for j, v in out.items() if v != 0}

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

    def basis(self, deg) -> List[Vec]:
        """The representative monomials of the piece at deg, as ambient int vectors."""
        block = self.block(deg)
        return [{col: 1} for col in block.reps] if block else []

    def coords(self, deg, vec: Vec) -> Vec:
        """Class of an ambient vector over the rep positions of the piece at
        deg; {} off the support."""
        block = self.block(deg)
        return block.class_of_vec(vec) if block else {}

    def is_zero_at(self, deg) -> bool:
        """Whether every class at deg is zero: no block, or an empty one."""
        return not self.dim(deg)

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

    def dim(self, deg) -> int:
        return len(self.basis(deg))

    def hilbert(self) -> HilbertSeries:
        return HilbertSeries({d: len(v) for d, v in self.pieces.items()})

    def total_dim(self) -> int:
        return sum(len(v) for v in self.pieces.values())

    def support(self) -> List[TriDegree]:
        return sorted(self.pieces)

    def _echelon(self, deg: TriDegree) -> Tuple[RrefAccumulator, Dict[int, int]]:
        """The piece's accumulator, and the basis position of each pivot."""

        def build():
            acc = _span(self.pieces.get(deg, []))
            return acc, {piv: i for i, piv in enumerate(acc.pivots())}

        return self.memoised(("echelon", deg), build)

    def coords(self, deg, vec: Vec) -> Optional[Vec]:
        """Coordinates of an ambient vector over the echelon basis of the
        piece at deg, or None when it lies outside the piece."""
        if not vec:
            return {}
        acc, position = self._echelon(TriDegree(*deg))
        residual, combo = acc.reduce_with_coeffs(vec)
        if residual:
            return None
        return {position[piv]: c for piv, c in combo.items()}

    def is_zero_at(self, deg) -> bool:
        """Only below degree 0, where the ambient piece is zero: elsewhere an
        image outside the subspace is nonzero, and it is the witness that
        the operator does not preserve the subspace."""
        return min(deg) < 0

    def __repr__(self):
        return f"GradedSubspace({self.kind}, n={self.n}, dim={self.total_dim()})"


# ---------------------------------------------------------------------------
# Single variable family reductions
# ---------------------------------------------------------------------------


class _SingleDegree:
    __slots__ = ("monos", "index", "reps")

    def __init__(self, monos):
        self.monos = monos  # exponent tuples, canonical (descending-lex) order
        self.index = {m: i for i, m in enumerate(monos)}
        # The standard (Artin) monomials, exps[k] <= k for every k.
        self.reps = [i for i, m in enumerate(monos) if all(e <= k for k, e in enumerate(m))]


class _SingleFamily:
    """Q[z_1..z_n] modulo its power sum ideal, by division by the Groebner
    basis {h_k(z_k, .., z_n)} of the module docstring."""

    def __init__(self, n: int):
        self.n = n
        # tails[k] (0-based k): the terms of h_(k+1)(z_k, .., z_(n-1)) other
        # than z_k^(k+1), as exponents over z_k..z_(n-1).
        self.tails = [list(compositions(k + 1, n - k))[1:] for k in range(n)]
        self.degrees: Dict[int, _SingleDegree] = {}
        self._nf: Dict[tuple, Vec] = {}

    def deg(self, d: int) -> _SingleDegree:
        if d not in self.degrees:
            self.degrees[d] = _SingleDegree(list(compositions(d, self.n)))
        return self.degrees[d]

    def nf(self, exps: tuple) -> Vec:
        """Normal form of a monomial, as an int vec over the rep columns of its
        degree.  With k the first index where exps[k] > k, z^exps is
        z^(exps - (k+1)e_k) z_k^(k+1), and z_k^(k+1) is minus its tail."""
        if exps not in self._nf:
            k = next((k for k, e in enumerate(exps) if e > k), None)
            out: Vec = {}
            if k is None:
                out[self.deg(sum(exps)).index[exps]] = 1
            else:
                lead = exps[:k] + (exps[k] - k - 1,) + exps[k + 1:]  # z^exps / z_k^(k+1)
                for beta in self.tails[k]:
                    for j, c in self.nf(lead[:k] + tuple(map(sum, zip(lead[k:], beta)))).items():
                        out[j] = out.get(j, 0) - c
            self._nf[exps] = {j: c for j, c in sorted(out.items()) if c}
        return self._nf[exps]


# ---------------------------------------------------------------------------
# Per-n workspace
# ---------------------------------------------------------------------------


class _Workspace:
    """Everything this process has built for one n."""

    def __init__(self, n: int):
        self.spaces: Dict[str, object] = {}  # "drn", "dh", "hook": built or cache-loaded
        self.family = _SingleFamily(n)
        # Every coinvariant block built, zero-dimensional ones included: read
        # by `coinvariants` and `harmonics`.
        self.even_blocks: Dict[Tuple[int, int], Block] = {}
        # The nonzero hook blocks of each odd degree: read by `hook_component`
        # and, for odd degree 0, by `drn_sign`.
        self.hook_slices: Dict[int, Dict[TriDegree, Block]] = {}
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


def _power_sum_generators(n: int) -> List[Tuple[int, int]]:
    """(c, d) of the polarized power sums p_{c,d} generating the invariant
    ideal, 1 <= c+d <= n; c outer, d inner."""
    return [(c, d) for c in range(n + 1) for d in range(n + 1 - c) if c + d]


def _mixed_generators(n: int) -> List[Tuple[int, int]]:
    """The generators involving both variable families: c, d >= 1."""
    return [(c, d) for (c, d) in _power_sum_generators(n) if c and d]


# ---------------------------------------------------------------------------
# Diagonal coinvariants
# ---------------------------------------------------------------------------


def _build_even_block(n: int, a: int, b: int) -> Block:
    """Quotient presentation of one bidegree piece of the coinvariant ring.

    The rows are reduced in the small product quotient R_x (x) R_y: its
    columns ("mini" columns) are the pairs of single-family rep columns,
    pair (ia, ib) at (position of ia) * len(B.reps) + (position of ib), and
    mini column k stands for ambient column mini_cols[k] (increasing).
    The image of the mixed ideal there is an R_x (x) R_y-module, so it is
    spanned by p_{c,d} * x^alpha y^beta with x^alpha and y^beta single-family
    reps of degrees a-c and b-d.  Every row is a sum of tensor products of
    single-family normal forms, int vecs from division by a monic Groebner
    basis, so the rows are ints with no denominator to clear.  They are
    inserted right to left (`_insert_right_to_left`).  The non-pivot mini
    columns are the representatives.  Ambient column (alpha, beta) lifts to
    x_alpha (x) y_beta, the tensor product of its single-family normal
    forms, so by linearity its normal form is the sum over (ka, kb) of
    x_alpha[ka] y_beta[kb] class[ka + kb], with the classes of the mini
    columns read off the RREF as ints times L, the lcm of its pivot entries
    (`_classes`).  The sum is factored per x-monomial, T_alpha[kb] = sum_ka
    x_alpha[ka] class[ka + kb], then per column, sum_kb y_beta[kb]
    T_alpha[kb]; only the result is divided by L, one shared `Fraction` per
    distinct value.
    """
    fam = _workspace(n).family
    A = fam.deg(a)
    B = fam.deg(b)
    nb = len(B.monos)
    nrb = len(B.reps)
    xpos = {ia: k * nrb for k, ia in enumerate(A.reps)}
    ypos = {ib: k for k, ib in enumerate(B.reps)}
    mini_cols = [ia * nb + ib for ia in A.reps for ib in B.reps]  # mini -> full column

    def on_reps(exps: tuple, pos: dict) -> dict:
        return {pos[j]: c for j, c in fam.nf(exps).items()}

    def add_tensor(out: dict, xvec: dict, yvec: dict) -> None:
        """out += xvec tensor yvec, dropping zeros."""
        get = out.get
        for ka, ca in xvec.items():
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

    rows = []
    for (c, d) in _mixed_generators(n):
        if a - c < 0 or b - d < 0:
            continue
        ynfs = shifted_nfs(b - d, d, ypos)
        for xs in shifted_nfs(a - c, c, xpos):
            for ys in ynfs:
                row: dict = {}
                for xvec, yvec in zip(xs, ys):
                    add_tensor(row, xvec, yvec)
                rows.append(row)
    acc = _insert_right_to_left(rows)

    L, classes = _classes(acc, len(mini_cols))
    pivots = set(acc.pivots())
    reps = [col for k, col in enumerate(mini_cols) if k not in pivots]
    rep_set = set(reps)
    frac = _fractions_over(L)
    ynfs = [on_reps(beta, ypos) for beta in B.monos]
    nf: Dict[int, Vec] = {}
    for ia, alpha in enumerate(A.monos):
        xvec = on_reps(alpha, xpos)
        per_kb = []  # per y position kb: sum over ka of x_alpha[ka] * class[ka + kb]
        for kb in range(nrb):
            t: dict = {}
            for ka, ca in xvec.items():
                _sub_multiple(t, -ca, classes[ka + kb])
            per_kb.append(t)
        for ib, yvec in enumerate(ynfs):
            col = ia * nb + ib
            if col in rep_set:
                continue
            out: dict = {}
            for kb, cb in yvec.items():
                _sub_multiple(out, -cb, per_kb[kb])
            nf[col] = {mini_cols[k]: frac(out[k]) for k in sorted(out)}
    return Block(n, TriDegree(a, b, 0), reps, nf)


def _scan_bidegrees(n: int, build, dim=len) -> dict:
    """Run `build(a, b)` over total degrees 0..C(n,2), the top degree of the
    coinvariants; the pieces of nonzero `dim`, by degree.  A piece above the
    top would make the total fall short of (n+1)^(n-1) (Haiman 2002), as
    would a wrong one: a total that differs raises ArithmeticError naming
    both totals.  A harmonic piece has its coinvariant block's dimension."""
    top, want = comb(n, 2), (n + 1) ** (n - 1)
    pieces = {}
    for d in range(top + 1):
        for a in range(d, -1, -1):
            piece = build(a, d - a)
            if dim(piece):
                pieces[TriDegree(a, d - a, 0)] = piece
    got = sum(map(dim, pieces.values()))
    if got != want:
        raise ArithmeticError(f"the pieces up to total degree {top} have dimension {got}, "
                              f"(n+1)^(n-1) is {want}")
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


# ---------------------------------------------------------------------------
# Harmonics
# ---------------------------------------------------------------------------


def _build_harmonic_piece(n: int, a: int, b: int) -> List[Vec]:
    """Exact basis of the harmonic piece of one bidegree: the orthogonal
    complement of the coinvariant block's relations under <m, m> = w_m, the
    `monomial_pair_weight` (Macaulay's inverse systems).  Rep r gives h_r:
    1 at r, 0 at the other reps, nf(c)[r] * w_r / w_c at each pivot column c,
    so h_r pairs to zero with each relation e_c - nf(c).  Scaling a row
    leaves its span alone, so h_r goes to the kernel times D W / w_r, with W
    the lcm of the weights and D that of the normal forms' denominators: an
    int row, D W / w_r at r and nf(c)[r] D W / w_c at c.  The closing
    echelon form makes the basis canonical.
    """
    block = _even_block(n, a, b)
    weights = [monomial_pair_weight(m) for m in block.monomials]
    W = lcm(*weights)
    D = lcm(*(v.denominator for nf in block.nf.values() for v in nf.values()))
    duals = {r: {r: D * (W // weights[r])} for r in block.reps}
    for c, nf in block.nf.items():
        wc = W // weights[c]
        for r, v in nf.items():
            duals[r][c] = v.numerator * (D // v.denominator) * wc
    return _span(duals.values()).row_vectors()


def harmonics(n: int, allow_large: bool = False, cache_dir=None) -> GradedSubspace:
    """Joint kernel of all positive-degree invariant derivative operators,
    read off the workspace-built coinvariant blocks, never cache-loaded ones.

    `verify.suite_duality` checks that it is that kernel, and at n <= 4
    `tests/test_build_oracle.py` compares it with a derivative-kernel build.
    """

    def build() -> GradedSubspace:
        pieces = _scan_bidegrees(n, lambda a, b: _build_harmonic_piece(n, a, b))
        return GradedSubspace(n, "dh", pieces)

    return _memoised_space(n, "dh", allow_large, cache_dir, build)


# ---------------------------------------------------------------------------
# Sign and hook components
# ---------------------------------------------------------------------------


def _orbit(m: Monomial) -> Optional[Tuple[tuple, int]]:
    """(key, sign) of the S_n-orbit of m, or None when m's alternant is zero,
    as it is when two even (x, y) columns are equal.

    The key is m's even columns sorted, then its odd ones sorted: with the
    th's on the last indices, the orbit's largest column, its representative.
    alt(m) = sign * alt(representative), the sign being the parity of the
    sorting permutation times that of reordering the th's; two odd columns
    trading places contribute -1 to both, so only the inversions among the
    even columns and the (odd, even) index pairs out of order count.
    """
    xe, ye, odd = m
    even: list = []
    flips = 0
    for i, col in enumerate(zip(xe, ye)):
        if i in odd:
            continue
        for c in even:
            if c >= col:
                if c == col:
                    return None
                flips += 1
        even.append(col)
        flips += i - len(even) + 1  # odd indices before i
    even.sort()
    return tuple(even) + tuple(sorted((xe[i], ye[i]) for i in odd)), -1 if flips & 1 else 1


def _orbit_reps(n: int, deg: TriDegree) -> List[Monomial]:
    """The representatives of the live S_n-orbits of one tridegree, in
    column order: increasing even columns, then non-decreasing odd ones."""
    e = n - deg.da

    def keys(j: int, a: int, b: int, low: tuple):
        # Columns j.. from low on, summing to (a, b); within the even and
        # within the odd columns x never decreases, so k*x <= a.
        if j == n:
            if not a and not b:
                yield ()
            return
        low = (0, 0) if j == e else low
        for x in range(low[0], a // ((e if j < e else n) - j) + 1):
            for y in range(low[1] if x == low[0] else 0, b + 1):
                for rest in keys(j + 1, a - x, b - y, (x, y + (j < e))):
                    yield ((x, y),) + rest

    odd = tuple(range(e, n))
    reps = [Monomial(tuple(c[0] for c in key), tuple(c[1] for c in key), odd)
            for key in keys(0, deg.dx, deg.dy, (0, 0))]
    return sorted(reps, key=Monomial.sort_key)


def _signed_orbit_sums(n: int, deg: TriDegree) -> List[Vec]:
    """Per S_n-orbit of monomials of one degree with a nonzero sign projection,
    {column: sign}: a member's projection is its sign times this over its size."""
    monos, _ = ambient_basis(n, deg)
    orbits: Dict[tuple, Vec] = {}
    for j, m in enumerate(monos):
        cls = _orbit(m)
        if cls is not None:
            orbits.setdefault(cls[0], {})[j] = Fraction(cls[1])
    return list(orbits.values())


def _wedge_omega0(n: int, S: tuple) -> List[Tuple[int, tuple]]:
    """(th_1 + .. + th_n) ^ th_S as (sign, odd index set) pairs: the sum over
    i not in S of (-1)^#{s in S : s < i} th_{S u i}, i increasing."""
    return [((-1) ** sum(1 for s in S if s < i), tuple(sorted(S + (i,))))
            for i in range(n) if i not in S]


def _orbit_block(n: int, deg: TriDegree) -> Optional[Block]:
    """The hook block at deg, from n alone, in S_n-orbit coordinates; None
    where the piece is zero, before anything is built per column.

    With A the anti-invariants of Q[x, y, th], the block is
    A_(a,b,da) / (sum_{1<=c+e<=n} p_{c,e} A_(a-c,b-e,da) + omega_0 ^ A_(a,b,da-1)),
    as the invariant p_{c,e} and omega_0 commute with the sign projector.
    Coordinate k is the class of the k-th live orbit's representative, and
    a monomial's class is its `_orbit` sign times its orbit's coordinate.
    So p_{c,e} times a lower representative w is the sum over i of the
    classes of x_i^c y_i^e w, and omega_0 ^ w the signed sum of those of
    th_i w: int rows of about n entries, inserted right to left.  An
    orbit's members precede its representative, so the leftmost-pivot
    echelon form picks the ambient RREF's representatives: those of the
    non-pivot orbits.  A column's normal form is its sign times its orbit's
    class read off the RREF (`_classes`), shared by the columns of that
    sign; a dead column's is {}.
    """
    reps = _orbit_reps(n, deg)
    ids = {_orbit(w)[0]: k for k, w in enumerate(reps)}

    def row(terms) -> dict:
        out: dict = {}
        for sign, u in terms:
            cls = _orbit(u)
            if cls is not None:
                k = ids[cls[0]]
                out[k] = out.get(k, 0) + sign * cls[1]
        return {k: v for k, v in out.items() if v}

    def bump(t: tuple, i: int, k: int) -> tuple:
        return t[:i] + (t[i] + k,) + t[i + 1:]

    rows = [row((1, Monomial(bump(w.xe, i, c), bump(w.ye, i, e), w.odd)) for i in range(n))
            for (c, e) in _power_sum_generators(n) if c <= deg.dx and e <= deg.dy
            for w in _orbit_reps(n, TriDegree(deg.dx - c, deg.dy - e, deg.da))]
    if deg.da:
        rows += [row((sign, Monomial(w.xe, w.ye, S)) for sign, S in _wedge_omega0(n, w.odd))
                 for w in _orbit_reps(n, TriDegree(deg.dx, deg.dy, deg.da - 1))]
    acc = _insert_right_to_left(rows)
    if acc.rank == len(reps):
        return None

    monos, index = ambient_basis(n, deg)
    cols = [index[w] for w in reps]
    L, classes = _classes(acc, len(reps))
    frac = _fractions_over(L)
    classes = [tuple({cols[f]: frac(sign * x) for f, x in v.items()} for sign in (1, -1))
               for v in classes]  # per orbit, per sign
    pivots = set(acc.pivots())
    dead: Vec = {}
    nf: Dict[int, Vec] = {}
    for col, m in enumerate(monos):
        cls = _orbit(m)
        if cls is None:
            nf[col] = dead
            continue
        k = ids[cls[0]]
        if col != cols[k] or k in pivots:
            nf[col] = classes[k][cls[1] < 0]
    return Block(n, deg, [cols[k] for k in range(len(reps)) if k not in pivots], nf)


def _build_hook_block(n: int, deg: TriDegree) -> Optional[Block]:
    """One hook block, of odd degree at least 1, or None (`_orbit_block`)."""
    return _orbit_block(n, deg)


def _sign_quotient_block(n: int, a: int, b: int) -> Optional[Block]:
    """One block of the sign part of drn, or None: the hook block of odd degree 0."""
    return _orbit_block(n, TriDegree(a, b, 0))


def _hook_top_degree(n: int, da: int) -> int:
    """C(n,2) - C(da+1,2): the top total degree of the hook at odd degree da."""
    return comb(n, 2) - comb(da + 1, 2)


def _hook_slice(n: int, da: int) -> Dict[TriDegree, Block]:
    """The nonzero hook blocks of odd degree da, built once per workspace,
    up to total degree `_hook_top_degree`.  A class above it would make the
    total fall short of H_da, the Schroder-path count (Haglund 2004, with
    Haiman's nabla e_n theorem): a total that differs raises ArithmeticError
    naming da and both totals."""
    store = _workspace(n).hook_slices
    if da not in store:
        top = _hook_top_degree(n, da)
        blocks: Dict[TriDegree, Block] = {}
        for total in range(top + 1):
            for a in range(total + 1):
                blk = (_build_hook_block(n, TriDegree(a, total - a, da)) if da
                       else _sign_quotient_block(n, a, total - a))
                if blk is not None:
                    blocks[blk.deg] = blk
        got, want = sum(b.dim for b in blocks.values()), hook_per_a(n)[da]
        if got != want:
            raise ArithmeticError(f"odd degree {da}: the blocks up to total degree {top} "
                                  f"have dimension {got}, the Schroder count is {want}")
        store[da] = dict(sorted(blocks.items()))
    return store[da]


def drn_sign(n: int) -> QuotientSpace:
    """The sign part of `drn`, the hook's odd degree 0, built with no coinvariant block."""
    return QuotientSpace(n, "drn-sign", _hook_slice(n, 0))


def sign_component(space):
    """Sign-isotypic part: quotient presentation or alt-image subspace.

    Of the quotients only `drn` is accepted: its sign part is `drn_sign`,
    so the blocks of `space` are never read.  For a GradedSubspace it is the
    span of the sign projections of the basis vectors, computed orbit by
    orbit.
    """
    return space.memoised(("sign",), lambda: _build_sign_component(space))


def _build_sign_component(space):
    if isinstance(space, QuotientSpace):
        if space.kind != "drn":
            raise ValueError(f"no sign component is built for a {space.kind} quotient")
        return drn_sign(space.n)
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


def hook_component(n: int, allow_large: bool = False, cache_dir=None) -> QuotientSpace:
    """Sign part of (reduced odd exterior algebra) tensor the coinvariants,
    the odd degree the third grading, built from n alone (`_hook_slice`),
    so `verify`'s "hook per-a dimensions" holds by construction.  Its odd
    degree 0 blocks are the very `Block`s of `drn_sign`, built once for
    both."""

    def build() -> QuotientSpace:
        blocks: Dict[TriDegree, Block] = {}
        for da in range(n):
            blocks.update(_hook_slice(n, da))
        return QuotientSpace(n, "hook", dict(sorted(blocks.items())))

    return _memoised_space(n, "hook", allow_large, cache_dir, build)


# ---------------------------------------------------------------------------
# Ideals generated by antisymmetric elements
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _shift_columns(n: int, deg: TriDegree, var: str) -> List[List[int]]:
    """Per i, for each column m of deg, the column of x_i m (var "xe") or
    y_i m (var "ye") one degree up."""
    monos, _ = ambient_basis(n, deg)
    up = TriDegree(deg.dx + 1, deg.dy, deg.da) if var == "xe" else TriDegree(deg.dx, deg.dy + 1, deg.da)
    _, index = ambient_basis(n, up)

    def bumped(m: Monomial, i: int) -> Monomial:
        e = getattr(m, var)
        return m._replace(**{var: e[:i] + (e[i] + 1,) + e[i + 1:]})

    return [[index[bumped(m, i)] for m in monos] for i in range(n)]


@lru_cache(maxsize=None)
def _wedge_omega0_columns(n: int, deg: TriDegree) -> List[List[Tuple[int, int]]]:
    """Per column of deg, the (target column, sign) pairs of
    (th_1 + .. + th_n) ^ it, one odd degree up."""
    monos, _ = ambient_basis(n, deg)
    _, tindex = ambient_basis(n, TriDegree(deg.dx, deg.dy, deg.da + 1))
    return [[(tindex[Monomial(m.xe, m.ye, S)], sign) for sign, S in _wedge_omega0(n, m.odd)]
            for m in monos]


def _wedge_omega0_vec(n: int, deg: TriDegree, vec: Vec) -> Vec:
    """Coordinates of (th_1 + .. + th_n) ^ v one odd degree up."""
    columns = _wedge_omega0_columns(n, deg)
    out: Vec = {}
    for j, c in vec.items():
        for kk, sign in columns[j]:
            s = out.get(kk, 0) + sign * c
            if s == 0:
                out.pop(kk, None)
            else:
                out[kk] = s
    return out


class _IdealTower:
    """Degreewise echelon bases of the antisymmetric ideal and its multiples.

    Copy, then extend: mJ at a degree is the span of the x_i- and y_i-shifts
    of the J rows one degree down, and J there is a copy of mJ extended by
    the signed orbit sums, so no row already in echelon form is inserted
    again.  `ideal_series` extends a copy of mJ by the omega_0 rows in the
    same way.  Shifts and omega_0 rows are built from `int_rows()`: a
    row's scale does not change the span.  Each is read column by column off
    a map built once per degree (`_shift_columns`, `_wedge_omega0_columns`),
    with no monomial built per row.
    """

    def __init__(self, n: int):
        self.n = n
        self.max_total = -1  # top total degree built so far
        self.J: Dict[TriDegree, RrefAccumulator] = {}
        self.mJ: Dict[TriDegree, RrefAccumulator] = {}

    def _shift_candidates(self, deg: TriDegree) -> List[Vec]:
        """The x_i- and y_i-shifts of the J rows one degree down."""
        n = self.n
        out: List[Vec] = []
        for src, var in ((TriDegree(deg.dx - 1, deg.dy, deg.da), "xe"),
                         (TriDegree(deg.dx, deg.dy - 1, deg.da), "ye")):
            acc = self.J.get(src)
            if not acc or not acc.rank:
                continue
            columns = _shift_columns(n, src, var)
            for _, row in acc.int_rows():
                out += [{col[c]: v for c, v in row.items()} for col in columns]
        return out

    def omega_rows(self, deg: TriDegree) -> List[Vec]:
        """(th_1 + .. + th_n) ^ J in degree deg: the wedge of each J row of
        the odd degree below."""
        if deg.da == 0:
            return []
        lower = TriDegree(deg.dx, deg.dy, deg.da - 1)
        src = self.J.get(lower)
        return [_wedge_omega0_vec(self.n, lower, row) for _, row in src.int_rows()] if src else []

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
                    self.mJ[deg] = _span(self._shift_candidates(deg))
                    self.J[deg] = _span(_signed_orbit_sums(n, deg), self.mJ[deg].copy())
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


def antisymmetric_ideal(n: int, flavor: str, max_total: int) -> GradedSubspace:
    """Per-degree echelon bases of "J", the ideal generated by antisymmetric
    elements, or of "mJ", its product with the maximal ideal, up to total
    degree max_total, which has no default: the vectors the operator-theorem
    suite's preservation checks read, at its cap.  Ranks: `ideal_series`.
    """
    if flavor not in ("J", "mJ"):
        raise ValueError('flavor must be "J" or "mJ"')
    if n < 2:
        raise ValueError("n >= 2 required")
    tower = _ideal_tower(n, max_total)
    accs = tower.J if flavor == "J" else tower.mJ
    pieces = {deg: accs[deg].row_vectors() for deg in tower.degrees(max_total)}
    return GradedSubspace(n, flavor, pieces, degree_cap=max_total)


_IDEAL_KINDS = ("j", "mj", "jbar", "mjbar", "j-quotient", "jbar-quotient")


def ideal_series(n: int, kind: str) -> HilbertSeries:
    """Graded dimensions of one ideal `compute` kind up to the default
    degree cap, each a difference of ranks in the tower.  With
    W = rank(omega_0 ^ J) and V = rank(mJ + omega_0 ^ J) at a degree:
    "j" is J, "mj" is mJ, "jbar" (J reduced by omega_0) is J - W, since
    omega_0 is invariant and commutes with the x, y shifts, so
    omega_0 ^ J lies in J; "mjbar" (the image of mJ there) is V - W,
    "j-quotient" (J/mJ) is J - mJ at odd degree 0, and "jbar-quotient"
    (Jbar/mJbar) is J - V.
    """
    if kind not in _IDEAL_KINDS:
        raise ValueError(f"kind must be one of {_IDEAL_KINDS}")
    max_total = default_ideal_degree_cap(n)
    tower = _ideal_tower(n, max_total)
    dims: Dict[TriDegree, int] = {}
    for deg in tower.degrees(max_total):
        J, mJ = tower.J[deg].rank, tower.mJ[deg].rank
        if kind in ("j", "mj", "j-quotient"):
            dims[deg] = {"j": J, "mj": mJ, "j-quotient": J - mJ if deg.da == 0 else 0}[kind]
            continue
        rows = tower.omega_rows(deg)
        W = _span(rows).rank if kind != "jbar-quotient" else 0
        V = _span(rows, tower.mJ[deg].copy()).rank if kind != "jbar" else 0
        dims[deg] = {"jbar": J - W, "mjbar": V - W, "jbar-quotient": J - V}[kind]
    return HilbertSeries(dims)


def ideal_quotient_series(n: int, reduced: bool) -> HilbertSeries:
    """Graded dimensions of J/mJ (reduced=False) or of the omega_0-reduced
    quotient Jbar/mJbar (reduced=True): `ideal_series` of "j-quotient" or
    "jbar-quotient"."""
    return ideal_series(n, "jbar-quotient" if reduced else "j-quotient")


def clear_registry():
    """Drop all workspaces, with every memo kept on their spaces, and the
    `ambient_basis` cache with the tower's column maps built from it.  The
    operator built per `OperatorSpec` in `operators`, and the certificate
    generators built per n there, are kept: they depend on their arguments
    alone."""
    _WORKSPACES.clear()
    ambient_basis.cache_clear()
    _shift_columns.cache_clear()
    _wedge_omega0_columns.cache_clear()
