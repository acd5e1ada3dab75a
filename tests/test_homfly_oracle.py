"""The hook model's Euler characteristic against the HOMFLY-PT polynomial.

Under `GradingDictionary.default_for(n)`, the sum over the hook model of
(-1)^T q^Q a^A equals a^(n-1) P(q, a^-1), with P the reduced HOMFLY-PT
polynomial of the torus knot T(n, n+1).  P comes from the Rosso-Jones
formula (Rosso-Jones 1993; Jones 1987): the sum over the hooks
lambda_j = (n-j, 1^j) of (-1)^j q^((n+1)(n-2j-1)) dim_q(lambda_j), divided by
dim_q of one box, where dim_q(lambda) is the product over the boxes of
(a q^c - a^-1 q^-c) / (q^h - q^-h), c the content and h the hook length.

No linear algebra and no library code computes the right-hand side: Laurent
polynomials in q and a are dicts from (q exponent, a exponent) to ints, and
every quotient is an exact division that fails loudly when it is not one.
n = 2..4 run in tier 1, n = 5 in tier 2.
"""

import pytest

from harmonica.spaces import clear_registry, hook_component
from harmonica.structure import GradingDictionary

ONE = {(0, 0): 1}


def _add(f, g):
    out = dict(f)
    for k, c in g.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _mul(f, g):
    out = {}
    for (q1, a1), c1 in f.items():
        for (q2, a2), c2 in g.items():
            k = (q1 + q2, a1 + a2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _div(f, g):
    """The exact quotient f / g, by leading terms in lex order of the
    exponents; ValueError when g does not divide f.

    Each exponent of a quotient lies in the box between the differences of
    the two operands' lowest and highest exponents of q and of a, so a
    quotient term outside that box proves there is no quotient."""
    lo = [min(e[i] for e in f) - min(e[i] for e in g) for i in (0, 1)]
    hi = [max(e[i] for e in f) - max(e[i] for e in g) for i in (0, 1)]
    lead = max(g)
    rest, out = dict(f), {}
    while rest:
        top = max(rest)
        k = (top[0] - lead[0], top[1] - lead[1])
        c, r = divmod(rest[top], g[lead])
        if r or not all(lo[i] <= k[i] <= hi[i] for i in (0, 1)):
            raise ValueError("not divisible")
        out[k] = c
        rest = _add(rest, _mul({k: -c}, g))
    return out


def _dim_q(shape):
    """(numerator, denominator) of dim_q of a partition, box by box."""
    num, den = ONE, ONE
    for r, row in enumerate(shape):
        for c in range(row):
            hook = row - c + sum(1 for below in shape[r + 1:] if below > c)
            num = _mul(num, {(c - r, 1): 1, (r - c, -1): -1})
            den = _mul(den, {(hook, 0): 1, (-hook, 0): -1})
    return num, den


def reduced_homfly(n):
    """P(q, a) of T(n, n+1) by Rosso-Jones, one exact division at the end.

    The common denominator is that of the row (n), [n][n-1]...[1] with
    [k] = q^k - q^-k; every hook's denominator divides it."""
    box_num, box_den = _dim_q((1,))
    common = _dim_q((n,))[1]
    total = {}
    for j in range(n):
        num, den = _dim_q((n - j,) + (1,) * j)
        twist = {((n + 1) * (n - 2 * j - 1), 0): (-1) ** j}
        total = _add(total, _mul(_mul(twist, num), _div(common, den)))
    return _div(_mul(total, box_den), _mul(common, box_num))


def hook_euler_characteristic(n, allow_large=False):
    """Sum over the hook model of (-1)^T q^Q a^A, under the default dictionary."""
    dictionary = GradingDictionary.default_for(n)
    out = {}
    for deg, dim in hook_component(n, allow_large=allow_large).hilbert().dims.items():
        Q, A, T = dictionary.map(deg)
        out = _add(out, {(Q, A): (-1) ** T * dim})
    return out


class TestLaurentArithmetic:
    def test_division_inverts_multiplication(self):
        f = {(3, 1): 2, (0, -1): -1, (-2, 0): 5}
        g = {(1, 0): 1, (-1, 0): -1}
        assert _div(_mul(f, g), g) == f

    def test_a_non_divisor_raises(self):
        with pytest.raises(ValueError):
            _div({(2, 0): 1, (0, 0): 1}, {(1, 0): 1, (-1, 0): -1})  # q^2 + 1 over q - q^-1
        with pytest.raises(ValueError):
            _div({(0, 0): 1}, {(0, 0): 2})

    def test_quantum_dimension_of_a_box(self):
        assert _dim_q((1,)) == ({(0, 1): 1, (0, -1): -1}, {(1, 0): 1, (-1, 0): -1})


def test_trefoil_at_n_2():
    # P(T(2,3)) = a (q^2 + q^-2) - a^-1, and both sides are q^2 + q^-2 - a^2.
    assert reduced_homfly(2) == {(2, 1): 1, (-2, 1): 1, (0, -1): -1}
    assert hook_euler_characteristic(2) == {(2, 0): 1, (-2, 0): 1, (0, 2): -1}


@pytest.mark.parametrize("n", [2, 3, 4, pytest.param(5, marks=pytest.mark.tier2)])
def test_hook_euler_characteristic_is_the_homfly_polynomial(n):
    rhs = {(q, n - 1 - a): c for (q, a), c in reduced_homfly(n).items()}
    if n < 5:
        assert hook_euler_characteristic(n) == rhs
        return
    clear_registry()
    try:
        assert hook_euler_characteristic(n, allow_large=True) == rhs
    finally:
        clear_registry()
