"""The structural well-definedness certificate reads ideal membership off
each generator image alone: a component is outside the invariant ideal when
it is odd, constant or moved by some s_i.  `operator_oracle` keeps the rule
it replaced, which reduced each component in its coinvariant block."""

from collections import Counter
from fractions import Fraction

import pytest

import operator_oracle
from harmonica import operators, spaces
from harmonica.cli import main
from harmonica.operators import OperatorSpec, check_preserves
from harmonica.spaces import clear_registry, coinvariants, hook_component, sign_component
from harmonica.superpoly import DiffOperator, Monomial, OpTerm, Polynomial, TriDegree
from harmonica.verify import run_suite


@pytest.fixture
def fresh():
    clear_registry()
    yield
    clear_registry()


def _specs(n):
    """F_k and E_k for k <= n+1, d_N for N <= n and v(a,b) for 1 <= a+b <= 6."""
    out = [OperatorSpec.F(n, k) for k in range(1, n + 2)]
    out += [OperatorSpec.E(n, k) for k in range(1, n + 2)]
    out += [OperatorSpec.d(n, N) for N in range(n + 1)]
    out += [OperatorSpec.hamiltonian(n, a, s - a) for s in range(1, 7) for a in range(s + 1)]
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verdicts_and_witnesses_match_the_block_reading_oracle(n, fresh):
    verdicts = Counter()
    for space in (coinvariants(n), hook_component(n)):
        for spec in _specs(n):
            got = check_preserves(spec, space)
            assert got == operator_oracle.check_preserves(spec, space), (spec.label(), space.kind)
            verdicts[got[0]] += 1
    assert verdicts[True] and verdicts[False]  # both verdicts are compared


@pytest.mark.parametrize("spec,build", [(OperatorSpec.hamiltonian(3, 1, 0), coinvariants),
                                        (OperatorSpec.d(3, 0), hook_component)],
                         ids=["v(1,0) on drn", "d0 on hook"])
def test_a_constant_image_is_the_witness(spec, build, fresh):
    # v(1,0) p_{0,1} = sum_i d/dy_i y_i = n, and d_0 omega_0 = n.
    assert check_preserves(spec, build(3)) == (False, Polynomial.one(3).scale(Fraction(3)))


def _x1_dy(n, mult_xs):
    """sum over i in mult_xs of x_i d/dy_1: a first-order operator that is
    not S_n-equivariant."""
    zero = (0,) * n
    return DiffOperator(n, [
        OpTerm(Fraction(1), Monomial(tuple(int(j == i) for j in range(n)), zero, ()), zero,
               tuple(int(j == 0) for j in range(n)), ())
        for i in mult_xs])


@pytest.mark.parametrize("mult_xs", [(0,), (0, 1, 2)], ids=["x1 d/dy1", "p_{1,0} d/dy1"])
def test_a_non_invariant_image_fails_even_when_called_equivariant(mult_xs, fresh, monkeypatch):
    # `_is_equivariant` is made to pass an operator it should refuse; the
    # certificate still refuses it, with an image component no s_i-check passes.
    op = _x1_dy(3, mult_xs)
    monkeypatch.setattr(OperatorSpec, "diff_operator", lambda self: op)
    for module in (operators, operator_oracle):
        monkeypatch.setattr(module, "_is_equivariant", lambda spec: True)
    spec = OperatorSpec.F(3, 1)
    for space in (coinvariants(3), hook_component(3)):
        ok, witness = check_preserves(spec, space)
        assert not ok and not operators._is_invariant(witness)
        assert witness.tridegree().da == 0 and witness.tridegree() != TriDegree(0, 0, 0)
    if len(mult_xs) == 3:
        # Each image p_{1,0} x1^c y1^(d-1) lies in the ideal, so the block
        # reading, resting on `_is_equivariant` alone, passes the operator.
        assert operator_oracle.check_preserves(spec, hook_component(3)) == (True, None)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_certificate_generators_are_the_multiplication_operators_applied_to_one(n):
    # The generators were built as the multiplication by sum_i x_i^a y_i^b th_i^th
    # applied to 1; the odd Euler element (th = 1) needs an odd multiplier,
    # which only the oracle's operators still carry.
    def unit(i, k):
        return tuple(k if j == i else 0 for j in range(n))

    exps = [dict(x=a, y=b) for a, b in spaces._power_sum_generators(n)] + [dict(th=1)]
    for e in exps:
        x, y, th = e.get("x", 0), e.get("y", 0), e.get("th", 0)
        mult = operator_oracle.OddOperator(n, [
            OpTerm(Fraction(1), Monomial(unit(i, x), unit(i, y), (i,) * th), unit(i, 0), unit(i, 0), ())
            for i in range(n)])
        want = operator_oracle.apply_op(mult, Polynomial.one(n))
        assert list(operators._diagonal_poly(n, **e).terms.items()) == list(want.terms.items())


def test_cache_loaded_spaces_are_certified_without_a_coinvariant_block(tmp_path, fresh, monkeypatch, capsys):
    assert main(["export", "--n", "3", "--cache-dir", str(tmp_path)]) == 0
    cold = capsys.readouterr().out
    coinvariants(3, cache_dir=tmp_path)
    clear_registry()

    def refuse(*args):
        raise AssertionError("a coinvariant block was built")

    monkeypatch.setattr(spaces, "_build_even_block", refuse)
    dr, hook = coinvariants(3, cache_dir=tmp_path), hook_component(3, cache_dir=tmp_path)
    specs = [OperatorSpec.F(3, 1), OperatorSpec.E(3, 2), OperatorSpec.d(3, 1),
             OperatorSpec.hamiltonian(3, 2, 1)]
    for space in (dr, hook):
        for spec in specs:
            assert check_preserves(spec, space) == (True, None)
    assert spaces._workspace(3).even_blocks == {}
    assert main(["export", "--n", "3", "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == cold


def test_each_sign_block_is_built_once(fresh, monkeypatch):
    # The dims suite reads the sign part of drn and the hook; the blocks of
    # odd degree 0 are built once, for both.
    built = Counter()
    real = spaces._orbit_block

    def counted(n, deg):
        built[deg] += 1
        return real(n, deg)

    monkeypatch.setattr(spaces, "_orbit_block", counted)
    assert all(r.passed for r in run_suite(4, "dims"))
    assert built and max(built.values()) == 1
    assert any(deg.da == 0 for deg in built)
    dr, hook = coinvariants(4), hook_component(4)
    sign = sign_component(dr)
    assert sign.blocks
    for deg, blk in sign.blocks.items():
        assert hook.blocks[deg] is blk
