"""The n!-sum sign projection, kept only as a test oracle.

This is the code `harmonica.spaces` used to build sign components and hook
blocks before it moved to the adjacent transpositions: the sign projector
applied as an average over all n! permutations, with one normal form per
permutation, and the sign component of a graded subspace as the span of
`alt` of each basis vector.  The bodies are unchanged; `test_sign_oracle.py`
holds the transposition-based builds to the same presentations.

`sym` is the symmetrizing projector, the same n!-sum with every sign +1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Dict, List

from harmonica.linalg import RrefAccumulator, Vec, vec_add_scaled
from harmonica.spaces import (
    Block,
    GradedSubspace,
    QuotientSpace,
    ambient_basis,
    poly_to_vec,
)
from harmonica.superpoly import (
    Monomial,
    Polynomial,
    TriDegree,
    act,
    alt,
    perm_sign,
    subsets_of_size,
)

from operator_oracle import vec_to_poly


def sym(p: Polynomial) -> Polynomial:
    """Symmetrization (1/n!) sum s(p); an idempotent projector."""
    n = p.n
    out = Polynomial.zero(n)
    for sigma in permutations(range(n)):
        out = out + act(sigma, p)
    return out.scale(Fraction(1, factorial(n)))


def _alt_class_vec(block: Block, mono: Monomial) -> Vec:
    """Class (over rep positions) of the sign-projection of a monomial."""
    n = block.n
    index = ambient_basis(n, block.deg)[1]
    out: Vec = {}
    for sigma in permutations(range(n)):
        image = act(sigma, Polynomial.monomial(mono))
        ((m, c),) = image.terms.items()
        sgn = perm_sign(sigma)
        vec = block.class_of_vec({index[m]: c})
        vec_add_scaled(out, Fraction(sgn, factorial(n)), vec)
    return {k: v for k, v in out.items() if v != 0}


def _sign_quotient_block(base: Block) -> Block:
    """Add the rows of (1 - alt) to a block's relation subspace."""
    acc = RrefAccumulator()
    k = base.dim
    for pos in range(k):
        mono = base.monomials[base.reps[pos]]
        altvec = _alt_class_vec(base, mono)
        row = {pos: Fraction(1)}
        vec_add_scaled(row, Fraction(-1), altvec)
        acc.insert(row)
    pivots = set(acc.pivots())
    reps = [base.reps[pos] for pos in range(k) if pos not in pivots]
    rep_set = set(reps)
    nf: Dict[int, Vec] = {}

    def to_full(vec: Vec) -> Vec:
        return {base.reps[pos]: v for pos, v in vec.items()}

    for col in range(base.ambient_dim):
        if col in rep_set:
            continue
        if col in base._rep_pos:
            mini = {base._rep_pos[col]: Fraction(1)}
        else:
            mini = {base._rep_pos[j]: v for j, v in base.nf[col].items()}
        nf[col] = to_full(acc.reduce(mini))
    return Block(base.n, base.deg, reps, nf)


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
        acc = RrefAccumulator()
        for vec in space.basis(deg):
            poly = vec_to_poly(vec, space.n, deg)
            acc.insert(poly_to_vec(alt(poly), deg))
        if acc.rank:
            pieces[deg] = acc.row_vectors()
    return GradedSubspace(space.n, space.kind + "-sign", pieces)


def _build_hook_block(n: int, dr_block: Block, da: int) -> Block:
    """One tridegree piece of the hook component.

    Stages: coinvariant relations per odd index set, then wedge relations of
    th_1+..+th_n (on representative classes only; the rest already lies in
    the ideal relations), then the sign projector rows.
    """
    a, b, _ = dr_block.deg
    deg = TriDegree(a, b, da)
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

    # Sign projector rows on the surviving classes.
    fact = factorial(n)
    index = ambient_basis(n, dr_block.deg)[1]
    for si, S in enumerate(thetasets):
        for pos in range(k):
            mono = dr_block.monomials[dr_block.reps[pos]]
            full_mono = Monomial(mono.xe, mono.ye, S)
            altvec: Vec = {}
            for sigma in permutations(range(n)):
                image = act(sigma, Polynomial.monomial(full_mono))
                ((m, c),) = image.terms.items()
                even = Monomial(m.xe, m.ye, ())
                vec = dr_block.class_of_vec({index[even]: c})
                spos = set_pos[m.odd]
                for p2, v in vec.items():
                    kk = mini_index[(spos, p2)]
                    s = altvec.get(kk, 0) + Fraction(perm_sign(sigma), fact) * v
                    if s == 0:
                        altvec.pop(kk, None)
                    else:
                        altvec[kk] = s
            row = {mini_index[(si, pos)]: Fraction(1)}
            vec_add_scaled(row, Fraction(-1), altvec)
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


def hook_blocks(n: int, dr: QuotientSpace, max_total=None) -> Dict[TriDegree, Block]:
    """The nonzero hook blocks over `dr`, optionally only up to total degree max_total."""
    blocks: Dict[TriDegree, Block] = {}
    for deg in sorted(dr.blocks):
        if max_total is not None and deg.dx + deg.dy > max_total:
            continue
        for da in range(n):
            blk = _build_hook_block(n, dr.blocks[deg], da)
            if blk.dim:
                blocks[blk.deg] = blk
    return blocks
