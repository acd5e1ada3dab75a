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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_harmonic_pieces_match_the_oracle(n):
    # Harmonics stop at total degree n(n-1)/2; one more degree checks the empty end.
    for d in range(n * (n - 1) // 2 + 2):
        for a in range(d + 1):
            got = spaces._build_harmonic_piece(n, a, d - a)
            assert got == old._build_harmonic_piece(n, a, d - a), (a, d - a)
            _assert_fractions(got)
