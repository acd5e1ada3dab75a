"""Differential tests: the sign projection through the adjacent transpositions
against the n!-sum one.

`sign_oracle` holds the code `harmonica.spaces` used before: every sign
component and hook block summed over all n! permutations.  The relation
subspaces are the same, so the canonical presentations must agree exactly.
"""

import pytest

import sign_oracle as old
from harmonica.spaces import (
    GradedSubspace,
    _build_hook_block,
    _span,
    coinvariants,
    harmonics,
    hook_component,
    poly_to_vec,
    sign_component,
)
from harmonica.superpoly import Monomial, Polynomial, TriDegree, alt


def _assert_same_blocks(new_blocks, old_blocks):
    assert sorted(new_blocks) == sorted(old_blocks)
    for deg, blk in old_blocks.items():
        assert new_blocks[deg].reps == blk.reps, deg
        assert new_blocks[deg].nf == blk.nf, deg


@pytest.mark.parametrize("n", [2, 3, 4])
def test_drn_sign_matches_the_oracle(n):
    dr = coinvariants(n)
    _assert_same_blocks(sign_component(dr).blocks, old._build_sign_component(dr).blocks)


def test_no_sign_part_is_built_for_another_quotient():
    # Only drn has a sign part; the hook is sign-isotypic already.
    for space in (sign_component(coinvariants(2)), hook_component(2)):
        with pytest.raises(ValueError, match=f"no sign component is built for a {space.kind} quotient"):
            sign_component(space)


@pytest.mark.parametrize("n", [2, 3])
def test_hook_matches_the_oracle(n):
    dr = coinvariants(n)
    _assert_same_blocks(hook_component(n).blocks, old.hook_blocks(n, dr))
    # Every tridegree over a coinvariant block: `_build_hook_block` returns
    # None exactly where the oracle's block is zero-dimensional.
    zero = 0
    for (a, b, _), base in dr.blocks.items():
        for da in range(n):
            blk, ref = _build_hook_block(n, TriDegree(a, b, da)), old._build_hook_block(n, base, da)
            if blk is None:
                assert not ref.dim, (a, b, da)
                zero += 1
            else:
                assert (blk.deg, blk.reps, blk.nf) == (ref.deg, ref.reps, ref.nf), (a, b, da)
    assert zero


def test_low_hook_blocks_match_the_oracle_at_n4():
    low = {d: b for d, b in hook_component(4).blocks.items() if d.dx + d.dy <= 2}
    _assert_same_blocks(low, old.hook_blocks(4, coinvariants(4), max_total=2))


@pytest.mark.parametrize("n", [2, 3])
def test_dh_sign_matches_the_oracle(n):
    dh = harmonics(n)
    assert sign_component(dh).pieces == old._build_sign_component(dh).pieces


@pytest.mark.parametrize("terms", [
    # span{x1} meets no sign vector, yet its sign projection is span{x1 - x2}:
    # the projection of W, not the sign vectors inside W.
    {Monomial((1, 0), (0, 0), ()): 1},
    # x1^2 th1 th2 + x1 x2 th1 th2 meets two orbits, of sizes 2 and 1.
    {Monomial((2, 0), (0, 0), (0, 1)): 1, Monomial((1, 1), (0, 0), (0, 1)): 1},
])
def test_sign_of_a_subspace_that_is_not_sn_stable(terms):
    p = Polynomial(2, terms)
    deg = p.tridegree()
    sub = GradedSubspace(2, "w", {deg: [poly_to_vec(p, deg)]})
    expected = _span([poly_to_vec(alt(p), deg)]).row_vectors()
    assert sign_component(sub).pieces == {deg: expected}
