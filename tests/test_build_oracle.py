"""Differential tests: the integer-row block and harmonic builds against the
Fraction-row ones, and the orbit-coordinate hook and sign blocks against
the builds over the coinvariant blocks.

`build_oracle` holds the code `harmonica.spaces` used before: single-family
normal forms, candidate rows and kernel combinations as `Fraction` dicts,
and the sign part of each coinvariant block tensor an odd degree.
The relation and harmonic subspaces are the same, so the canonical
presentations must agree exactly, and every value handed out must still be
a `Fraction` (the cache writer and the benchmark digests print them).
"""

from fractions import Fraction

import pytest

import build_oracle as old
from harmonica import spaces
from memo import memo


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
    blocks = {key[1:]: blk for key, blk in memo(n).items() if key[0] == "even"}
    assert blocks
    for (a, b), blk in blocks.items():
        _assert_same_block(blk, old._build_even_block(n, a, b))


def test_an_n5_block_matches_the_oracle():
    _assert_same_block(spaces._build_even_block(5, 4, 2), old._build_even_block(5, 4, 2))


@pytest.mark.parametrize("a,b", [(5, 2), (3, 3), (4, 3)])
def test_more_n5_blocks_match_the_oracle(a, b):
    # With (4, 2) above, the three blocks of the `drn5-blocks` benchmark
    # workload; the oracle's per-column reduction takes about 3 s for (4, 3).
    _assert_same_block(spaces._build_even_block(5, a, b), old._build_even_block(5, a, b))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_harmonic_pieces_match_the_oracle(n):
    # Harmonics stop at total degree n(n-1)/2; one more degree checks the empty end.
    for d in range(n * (n - 1) // 2 + 2):
        for a in range(d + 1):
            got = spaces._build_harmonic_piece(n, a, d - a)
            assert got == old._build_harmonic_piece(n, a, d - a), (a, d - a)
            _assert_fractions(got)


def test_an_n5_harmonic_piece_matches_the_oracle():
    # (3, 2), of dimension 66: its oracle, a derivative-kernel build, takes
    # about 2 s; those of (4, 2) and (3, 3) take 7 to 12 s.
    got = spaces._build_harmonic_piece(5, 3, 2)
    assert got == old._build_harmonic_piece(5, 3, 2)
    _assert_fractions(got)


@pytest.fixture
def fresh_registry():
    spaces.clear_registry()
    yield
    spaces.clear_registry()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_characters_skip_no_hook_or_sign_block(n, fresh_registry):
    # The orbit build, from n alone, against building every hook block over
    # the coinvariant blocks: the same nonzero blocks, reps and normal forms.
    # The S_n character of each coinvariant block gives each dimension, so
    # it calls no built block zero and finds no block the scan missed.
    ref = old.hook_blocks(n)
    hook = spaces.hook_component(n)
    sign = spaces.sign_component(spaces.coinvariants(n))
    assert sorted(hook.blocks) == sorted(ref)
    assert sorted(sign.blocks) == sorted(d for d in ref if d.da == 0)
    for blk in list(hook.blocks.values()) + list(sign.blocks.values()):
        _assert_same_block(blk, ref[blk.deg])
    for (a, b, _), base in spaces.coinvariants(n).blocks.items():
        assert old.hook_multiplicities(base) == [hook.dim((a, b, da)) for da in range(n)]


@pytest.mark.parametrize("da,top,built,count", [(0, 2, 1, 5), (1, 1, 2, 5), (2, -1, 0, 1)])
def test_a_bound_one_too_low_raises_naming_its_odd_degree(da, top, built, count, fresh_registry, monkeypatch):
    # Negative control at n = 3: the scan of one odd degree stops a total
    # degree short, and the blocks it finds fall short of the Schroder count.
    true = spaces._hook_top_degree
    monkeypatch.setattr(spaces, "_hook_top_degree", lambda n, d: true(n, d) - (d == da))
    message = (rf"odd degree {da}: the blocks up to total degree {top} have dimension {built}, "
               rf"the Schroder count is {count}")
    with pytest.raises(ArithmeticError, match=message):
        spaces.hook_component(3)
    if da == 0:
        with pytest.raises(ArithmeticError, match=message):
            spaces.sign_component(spaces.coinvariants(3))
