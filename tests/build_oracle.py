"""The Fraction-row builds of the coinvariant blocks and harmonic pieces,
and the all-blocks hook and sign loops, kept only as test oracles.

This is the code `harmonica.spaces` used to build the single-family
reductions, the even (coinvariant) blocks and the harmonic pieces before
their rows went to the kernel as ints: every normal form, tensor product,
candidate row and kernel combination as a dict of `Fraction`s.  The bodies
are unchanged; each builder reads its family and harmonic kernels from an
oracle workspace of its own, so nothing is shared with the builds under
test.  `test_build_oracle.py` holds the integer-row builds to the same
presentations.

`hook_blocks` builds every hook block of the coinvariant quotient and
keeps the nonzero ones, as `harmonica.spaces` did before the S_n characters
decided which blocks to build; its odd degree 0 blocks are the sign blocks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List

from harmonica.linalg import RrefAccumulator, SparseMatrix, Vec, kernel_basis, vec_add_scaled
from harmonica.spaces import Block, _mixed_generators, _sign_block, _span, coinvariants
from harmonica.superpoly import TriDegree, compositions


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
    basis = kernel_basis(SparseMatrix.from_rows(rows, len(monos)))
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
        matrix = SparseMatrix.from_rows([images[r] for r in sorted(images)], len(basis))
        combos = kernel_basis(matrix)
        new_basis: List[Vec] = []
        for combo in combos:
            vec: Vec = {}
            for j, cc in combo.items():
                vec_add_scaled(vec, cc, basis[j])
            new_basis.append(vec)
        basis = new_basis
    return _span(basis).row_vectors()



def hook_blocks(n: int) -> Dict[TriDegree, Block]:
    """Every nonzero hook block, found by building all of them."""
    blocks: Dict[TriDegree, Block] = {}
    for base in coinvariants(n).blocks.values():
        for da in range(n):
            blk = _sign_block(base, da)
            if blk.dim:
                blocks[blk.deg] = blk
    return blocks
