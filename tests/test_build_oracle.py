"""Differential tests: the integer-row block and harmonic builds against the
Fraction-row ones.

`build_oracle` holds the code `harmonica.spaces` used before: single-family
normal forms, candidate rows and kernel combinations as `Fraction` dicts.
The relation and harmonic subspaces are the same, so the canonical
presentations must agree exactly, and every value handed out must still be
a `Fraction` (the cache writer and the benchmark digests print them).
"""

from fractions import Fraction

import pytest

import build_oracle as old
from harmonica import spaces


def _assert_fractions(vecs):
    for vec in vecs:
        assert all(type(v) is Fraction and v != 0 for v in vec.values()), vec


def _assert_same_block(new, ref):
    assert new.reps == ref.reps
    assert new.nf == ref.nf
    _assert_fractions(new.nf.values())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_even_blocks_match_the_oracle(n):
    spaces.coinvariants(n)
    blocks = spaces._workspace(n).even_blocks
    assert blocks
    for (a, b), blk in blocks.items():
        _assert_same_block(blk, old._build_even_block(n, a, b))


def test_an_n5_block_matches_the_oracle():
    _assert_same_block(spaces._build_even_block(5, 4, 2), old._build_even_block(5, 4, 2))


@pytest.mark.parametrize("a,b", [(5, 2), (3, 3)])
def test_more_n5_blocks_match_the_oracle(a, b):
    # With (4, 2) above, the three blocks of the `drn5-blocks` benchmark workload.
    _assert_same_block(spaces._build_even_block(5, a, b), old._build_even_block(5, a, b))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_harmonic_pieces_match_the_oracle(n):
    # Harmonics stop at total degree n(n-1)/2; one more degree checks the empty end.
    for d in range(n * (n - 1) // 2 + 2):
        for a in range(d + 1):
            got = spaces._build_harmonic_piece(n, a, d - a)
            assert got == old._build_harmonic_piece(n, a, d - a), (a, d - a)
            _assert_fractions(got)


@pytest.fixture
def fresh_registry():
    spaces.clear_registry()
    yield
    spaces.clear_registry()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_characters_skip_no_hook_or_sign_block(n, fresh_registry):
    # The hook and sign builds skip the blocks their S_n characters call zero;
    # building every block must find no other nonzero one.
    ref = old.hook_blocks(n)
    hook = spaces.hook_component(n)
    sign = spaces.sign_component(spaces.coinvariants(n))
    assert sorted(hook.blocks) == sorted(ref)
    assert sorted(sign.blocks) == sorted(d for d in ref if d.da == 0)
    for blk in list(hook.blocks.values()) + list(sign.blocks.values()):
        _assert_same_block(blk, ref[blk.deg])


@pytest.mark.parametrize("ab,da,built,predicted", [((1, 1), 1, 1, 2), ((0, 0), 0, 0, 1)])
def test_a_wrong_multiplicity_raises_naming_its_tridegree(ab, da, built, predicted, fresh_registry, monkeypatch):
    # Negative control: one multiplicity off by one at n = 3.  A nonzero block
    # is built and found too small; a zero block is built and found empty.
    true = spaces._hook_multiplicities

    def off_by_one(block):
        dims = true(block)
        if tuple(block.deg) == (*ab, 0):
            dims[da] += 1
        return dims

    monkeypatch.setattr(spaces, "_hook_multiplicities", off_by_one)
    message = rf"tridegree \({ab[0]}, {ab[1]}, {da}\) has dimension {built}, its S_n character gives {predicted}"
    with pytest.raises(ArithmeticError, match=message):
        spaces.hook_component(3)
    if da == 0:
        with pytest.raises(ArithmeticError, match=message):
            spaces.sign_component(spaces.coinvariants(3))
