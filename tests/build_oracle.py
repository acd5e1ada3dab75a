"""The Fraction-row builds of the coinvariant blocks and harmonic pieces,
and the hook and sign builds over the coinvariant blocks, kept only as test
oracles.

This is the code `harmonica.spaces` used to build the single-family
reductions, the even (coinvariant) blocks and the harmonic pieces before
their rows went to the kernel as ints: every normal form, tensor product,
candidate row and kernel combination as a dict of `Fraction`s.  The bodies
are unchanged; each builder reads its family and harmonic kernels from an
oracle workspace of its own, so nothing is shared with the builds under
test.  `test_build_oracle.py` holds the integer-row builds to the same
presentations.  `_SingleFamily` row-reduces the shifts of each degree's
rows, the build that division by the Groebner basis replaced;
`test_spaces.py` holds division to its reps and normal forms.

`invariant_ideal_piece` is the naive spanning set of one bidegree piece of
the invariant ideal, p_{c,d} times every monomial, unreduced.

The hook and sign blocks are the ones `harmonica.spaces` built before it
built them from n alone, in S_n-orbit coordinates: `_sign_block` is the
sign part of (odd degree da) tensor one coinvariant block, a mini quotient
over the block's representative classes.  `hook_blocks` builds every hook
block of the coinvariant quotient and keeps the nonzero ones; its odd
degree 0 blocks are the sign blocks.  `hook_multiplicities` is the S_n
character formula for each block's dimension, and `character_hook_blocks`
builds only the blocks it calls nonzero, checking each dimension against
it, as the build did before the orbit coordinates.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Dict, List, Tuple

from harmonica.linalg import RrefAccumulator, Vec, kernel_basis, vec_add_scaled
from harmonica.spaces import (
    Block,
    _mixed_generators,
    _power_sum_generators,
    _span,
    _wedge_omega0,
    ambient_basis,
    coinvariants,
)
from harmonica.superpoly import Monomial, TriDegree, compositions, subsets_of_size, transpose_adjacent


class _Workspace:
    """The oracle's own per-n state: its single family and harmonic kernels."""

    def __init__(self, n: int):
        self.family = _SingleFamily(n)
        self.single_harmonics: Dict[int, List[Vec]] = {}


_WORKSPACES: Dict[int, _Workspace] = {}


def _workspace(n: int) -> _Workspace:
    if n not in _WORKSPACES:
        _WORKSPACES[n] = _Workspace(n)
    return _WORKSPACES[n]


class _SingleDegree:
    __slots__ = ("monos", "index", "reps", "nf", "rows")

    def __init__(self, monos, index, reps, nf, rows):
        self.monos = monos  # exponent tuples, canonical (descending-lex) order
        self.index = index
        self.reps = reps  # non-pivot columns
        self.nf = nf  # pivot column -> vec over rep columns
        self.rows = rows  # pivot column -> RREF row (over all columns)


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

    def nf(self, exps: tuple) -> Vec:
        """Normal form of a monomial, as vec over rep columns of its degree."""
        d = sum(exps)
        sd = self.deg(d)
        j = sd.index[exps]
        if j in sd.nf:
            return sd.nf[j]
        return {j: Fraction(1)}

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
                    vec[index[tuple(exps)]] = Fraction(1)
                acc.insert(vec)
        rows = dict(zip(acc.pivots(), acc.row_vectors()))
        reps = [j for j in range(len(monos)) if j not in rows]
        nf = {piv: {c: -v for c, v in row.items() if c != piv} for piv, row in rows.items()}
        self.degrees[d] = _SingleDegree(monos, index, reps, nf, rows)


def _build_even_block(n: int, a: int, b: int) -> Block:
    """Quotient presentation of one bidegree piece of the coinvariant ring."""
    fam = _workspace(n).family
    A = fam.deg(a)
    B = fam.deg(b)
    nb = len(B.monos)
    minicols = [(ia, ib) for ia in A.reps for ib in B.reps]
    mini_index = {pair: k for k, pair in enumerate(minicols)}
    acc = RrefAccumulator()

    def tensor_mini(xvec: Vec, yvec: Vec) -> Vec:
        out: Vec = {}
        for ia, ca in xvec.items():
            for ib, cb in yvec.items():
                k = mini_index[(ia, ib)]
                s = out.get(k, 0) + ca * cb
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
        return out

    full = len(minicols)
    for (c, d) in _mixed_generators(n):
        if acc.rank == full:
            break
        if a - c < 0 or b - d < 0:
            continue
        xnfs = []
        ynfs = []
        for alpha in compositions(a - c, n):
            per_i = []
            for i in range(n):
                e = list(alpha)
                e[i] += c
                per_i.append(fam.nf(tuple(e)))
            xnfs.append(per_i)
        for beta in compositions(b - d, n):
            per_i = []
            for i in range(n):
                e = list(beta)
                e[i] += d
                per_i.append(fam.nf(tuple(e)))
            ynfs.append(per_i)
        for xs in xnfs:
            if acc.rank == full:
                break
            for ys in ynfs:
                row: Vec = {}
                for i in range(n):
                    vec_add_scaled(row, Fraction(1), tensor_mini(xs[i], ys[i]))
                acc.insert(row)
                if acc.rank == full:
                    break

    pivots = set(acc.pivots())
    rep_pairs = [pair for pair in minicols if mini_index[pair] not in pivots]
    rep_cols = [ia * nb + ib for (ia, ib) in rep_pairs]
    col_of_pair = {mini_index[pair]: pair[0] * nb + pair[1] for pair in minicols}

    def mini_to_full(vec: Vec) -> Vec:
        return {col_of_pair[k]: v for k, v in vec.items()}

    deg = TriDegree(a, b, 0)
    nf: Dict[int, Vec] = {}
    rep_set = set(rep_cols)
    trivial = not rep_cols  # zero-dimensional piece: everything reduces to 0
    for ia, alpha in enumerate(A.monos):
        xvec = A.nf[ia] if ia in A.nf else {ia: Fraction(1)}
        for ib, beta in enumerate(B.monos):
            colf = ia * nb + ib
            if colf in rep_set:
                continue
            if trivial:
                nf[colf] = {}
                continue
            yvec = B.nf[ib] if ib in B.nf else {ib: Fraction(1)}
            mini: Vec = {}
            for ja, ca in xvec.items():
                for jb, cb in yvec.items():
                    k = mini_index[(ja, jb)]
                    s = mini.get(k, 0) + ca * cb
                    if s == 0:
                        mini.pop(k, None)
                    else:
                        mini[k] = s
            reduced = acc.reduce(mini)
            nf[colf] = mini_to_full(reduced)
    return Block(n, deg, rep_cols, nf)


def _kernel(rows: List[Vec], cols: int) -> List[Vec]:
    """`kernel_basis` of the matrix with these rows over columns 0..cols-1."""
    columns: List[Vec] = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            columns[j][i] = v
    return kernel_basis(columns)


def _single_harmonics(n: int, d: int) -> List[Vec]:
    """Joint kernel of p_c(d/dz), c = 1..n, on degree-d monomials (one family)."""
    kernels = _workspace(n).single_harmonics
    if d in kernels:
        return kernels[d]
    monos = list(compositions(d, n))
    index = {m: i for i, m in enumerate(monos)}
    rows: List[Vec] = []
    for c in range(1, n + 1):
        if d - c < 0:
            continue
        targets = {m: i for i, m in enumerate(compositions(d - c, n))}
        # One constraint row per target monomial.
        block: Dict[int, Vec] = {}
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
                    row[j] = row.get(j, 0) + Fraction(coeff)
        rows.extend(block[r] for r in sorted(block))
    basis = _kernel(rows, len(monos))
    kernels[d] = [dict(sorted(v.items())) for v in basis]
    return kernels[d]


def _build_harmonic_piece(n: int, a: int, b: int) -> List[Vec]:
    """Exact basis of the harmonic piece of one bidegree."""
    fam = _workspace(n).family
    A = fam.deg(a)
    B = fam.deg(b)
    nb = len(B.monos)
    kx = _single_harmonics(n, a)
    ky = _single_harmonics(n, b)
    basis: List[Vec] = []
    for vx in kx:
        for vy in ky:
            vec: Vec = {}
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
        rows: List[Vec] = []
        images: Dict[int, Vec] = {}
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
        combos = _kernel([images[r] for r in sorted(images)], len(basis))
        new_basis: List[Vec] = []
        for combo in combos:
            vec: Vec = {}
            for j, cc in combo.items():
                vec_add_scaled(vec, cc, basis[j])
            new_basis.append(vec)
        basis = new_basis
    return _span(basis).row_vectors()



def invariant_ideal_piece(n: int, bidegree: Tuple[int, int]) -> List[Vec]:
    """Spanning columns of one bidegree piece of the invariant ideal, as
    vectors over its ambient basis.

    Columns are the products p_{a,b} * monomial over polarized power sums
    with 1 <= a+b <= n; no reduction is performed.
    """
    a, b = bidegree
    deg = TriDegree(a, b, 0)
    _, index = ambient_basis(n, deg)
    cols: List[Vec] = []
    for (c, d) in _power_sum_generators(n):
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
    return cols


def _partitions(n: int, largest: int) -> List[Tuple[int, ...]]:
    """Partitions of n into parts of at most `largest`, parts decreasing."""
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, largest), 0, -1) for rest in _partitions(n - k, k)]


@lru_cache(maxsize=None)
def _conjugacy_classes(n: int) -> List[Tuple[Tuple[int, ...], int, List[int]]]:
    """Per cycle type mu of S_n: (word, sgn(mu)*|C_mu|, [e_d(mu) for d < n]).

    The s_i of the word, applied in order, give one permutation of type mu,
    its cycles running over consecutive indices.  e_d is the character of
    Lambda^d V on the reflection representation V, read off
    sum_d e_d t^d = det(1 + t sigma)/(1 + t).
    """
    out = []
    for mu in _partitions(n, n):
        word, start = [], 0
        det = [1]  # coefficients of det(1 + t sigma) = prod over cycles of (1 - (-t)^k)
        for k in mu:
            word += range(start, start + k - 1)
            start += k
            det = [c + (det[j - k] * (-1) ** (k + 1) if j >= k else 0)
                   for j, c in enumerate(det + [0] * k)]
        ext = []
        for c in det[:n]:  # divide by 1 + t
            ext.append(c - (ext[-1] if ext else 0))
        z = prod(k ** m * factorial(m) for k, m in Counter(mu).items())
        out.append((tuple(word), (-1) ** (n - len(mu)) * factorial(n) // z, ext))
    return out


def hook_multiplicities(block: Block) -> List[int]:
    """dim of the sign part of block (x) Lambda^da V, for da = 0..n-1.

    That is (1/n!) sum over cycle types mu of sgn(mu) |C_mu| chi(mu) e_da(mu),
    with chi the trace of sigma on the block: the sum over reps of the
    coefficient at the rep of the class of sigma * rep.  sigma is applied as
    its word in the s_i through `transpose_adjacent`, Koszul signs included.
    """
    n = block.n
    index = ambient_basis(n, block.deg)[1]
    per_da = [0] * n
    for word, weight, ext in _conjugacy_classes(n):
        chi = 0
        for r in block.reps:
            mono, sign = block.monomials[r], 1
            for i in word:
                mono, e = transpose_adjacent(mono, i)
                sign *= e
            col = index[mono]
            chi += sign * (1 if col == r else block.nf.get(col, {}).get(r, 0))
        for da in range(n):
            per_da[da] += weight * chi * ext[da]
    dims = [Fraction(x, factorial(n)) for x in per_da]
    if any(d.denominator != 1 for d in dims):
        raise ArithmeticError(f"block at tridegree {tuple(block.deg)}: characters give {dims}")
    return [int(d) for d in dims]


def _sign_block(dr_block: Block, da: int) -> Block:
    """The sign part of (odd degree da) tensor one quotient block.

    Stages: the block's relations per odd index set, then wedge relations of
    th_1+..+th_n (on representative classes only; the rest already lies in
    the ideal relations), then the im(1 + s_i) rows, which span the kernel
    of the sign projector.  The block is even unless da = 0.
    """
    n = dr_block.n
    a, b, da0 = dr_block.deg
    thetasets = subsets_of_size(n, da)
    set_pos = {S: i for i, S in enumerate(thetasets)}
    # Mini column si * k + pos: the rep of position pos at odd set si.
    k = dr_block.dim
    acc = RrefAccumulator()
    # Wedge relations: omega_0 ^ (rep * theta_set) for each smaller set.
    if da >= 1:
        for Sp in subsets_of_size(n, da - 1):
            wedge = _wedge_omega0(n, Sp)
            for pos in range(k):
                acc.insert({set_pos[S] * k + pos: Fraction(sign) for sign, S in wedge})

    # The im(1 + s_i) rows on the surviving classes.  The class of s_i on the
    # even part is shared by every odd index set.
    index = ambient_basis(n, dr_block.deg)[1]
    for pos in range(k):
        mono = dr_block.monomials[dr_block.reps[pos]]
        for i in range(n - 1):
            image, sign = transpose_adjacent(mono, i)
            cls = dr_block.class_of_vec({index[image]: Fraction(sign)})
            for si, S in enumerate(thetasets):
                image, sign = transpose_adjacent(Monomial(mono.xe, mono.ye, S), i)
                spos = set_pos[image.odd]
                row = {spos * k + p2: sign * v for p2, v in cls.items()}
                vec_add_scaled(row, Fraction(1), {si * k + pos: Fraction(1)})
                acc.insert(row)

    # The class of each column of the block over rep positions, read off
    # `nf` once per block and placed at every odd set.
    d_ab = dr_block.ambient_dim
    classes = [
        {dr_block._rep_pos[col]: Fraction(1)} if col in dr_block._rep_pos
        else {dr_block._rep_pos[j]: v for j, v in dr_block.nf[col].items()}
        for col in range(d_ab)
    ]

    def lift(col: int) -> Vec:
        si, base_col = divmod(col, d_ab)
        return {si * k + p: v for p, v in classes[base_col].items()}

    # The non-pivot mini columns are the reps; every other column is lifted, reduced and mapped back.
    mini_cols = [si * d_ab + col for si in range(len(thetasets)) for col in dr_block.reps]
    pivots = set(acc.pivots())
    reps = [col for k, col in enumerate(mini_cols) if k not in pivots]
    rep_set = set(reps)
    nf = {col: {mini_cols[k]: v for k, v in acc.reduce(lift(col)).items()} if reps else {}
          for col in range(len(thetasets) * d_ab) if col not in rep_set}
    return Block(n, TriDegree(a, b, da0 + da), reps, nf)


def hook_blocks(n: int) -> Dict[TriDegree, Block]:
    """Every nonzero hook block, found by building all of them."""
    blocks: Dict[TriDegree, Block] = {}
    for base in coinvariants(n).blocks.values():
        for da in range(n):
            blk = _sign_block(base, da)
            if blk.dim:
                blocks[blk.deg] = blk
    return blocks


def character_hook_blocks(n: int, allow_large: bool = False) -> Dict[TriDegree, Block]:
    """The hook blocks the characters call nonzero, each checked against its
    multiplicity; raises ArithmeticError naming a block that differs."""
    blocks: Dict[TriDegree, Block] = {}
    dr = coinvariants(n, allow_large=allow_large)
    for deg in sorted(dr.blocks):
        for da, dim in enumerate(hook_multiplicities(dr.blocks[deg])):
            if dim:
                blk = _sign_block(dr.blocks[deg], da)
                if blk.dim != dim:
                    raise ArithmeticError(f"block at tridegree {tuple(blk.deg)} has dimension {blk.dim}, "
                                          f"its S_n character gives {dim}")
                blocks[blk.deg] = blk
    return blocks
