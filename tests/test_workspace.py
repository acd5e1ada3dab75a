"""Ownership of memoised state: one workspace per n, one memo per space."""

from collections import Counter

import pytest

from harmonica import operators, spaces, structure
from harmonica.operators import OperatorSpec, WellDefinednessError, check_preserves, matrix_of
from harmonica.spaces import (
    antisymmetric_ideal,
    clear_registry,
    coinvariants,
    harmonics,
    hook_component,
    ideal_series,
)


@pytest.fixture
def fresh():
    clear_registry()
    yield
    clear_registry()


@pytest.mark.parametrize("n", [2, 3])
def test_each_even_block_is_built_once(n, fresh, monkeypatch):
    built = Counter()
    original = spaces._build_even_block

    def counted(n, a, b):
        built[(n, a, b)] += 1
        return original(n, a, b)

    monkeypatch.setattr(spaces, "_build_even_block", counted)
    dr = coinvariants(n)
    hook = hook_component(n)
    f1 = OperatorSpec.F(n, 1)
    matrix_of(f1, hook, sorted(hook.blocks)[0])
    assert check_preserves(f1, dr) == (True, None)
    assert built and set(built.values()) == {1}


def test_repeated_matrix_is_served_from_the_space(fresh, monkeypatch):
    applied = Counter()
    original = operators.column_map

    def counted(D, deg):
        applied["calls"] += 1
        return original(D, deg)

    monkeypatch.setattr(operators, "column_map", counted)
    hook, dh = hook_component(3), harmonics(3)
    for spec, space, deg in [(OperatorSpec.F(3, 1), hook, (0, 3, 0)),
                             (OperatorSpec.d(3, 1), hook, (0, 2, 1)),
                             (OperatorSpec("Fstar", 3, (1,)), dh, (1, 1, 0))]:
        first = matrix_of(spec, space, deg)
        before = applied["calls"]
        assert matrix_of(spec, space, deg) == first
        assert applied["calls"] == before
        assert not first.is_zero()


def test_failed_certificate_raises_on_every_call(fresh):
    hook = hook_component(3)
    deg = sorted(d for d in hook.blocks if d.da >= 1)[0]
    for _ in range(2):
        with pytest.raises(WellDefinednessError) as info:
            matrix_of(OperatorSpec.d(3, 0), hook, deg)
        assert info.value.witness is not None
        assert "witness:" in str(info.value)


def test_lower_cap_is_served_from_the_built_tower(fresh, monkeypatch):
    low = {f: antisymmetric_ideal(3, f, max_total=3) for f in ("J", "mJ")}
    series = {kind: ideal_series(3, kind) for kind in spaces._IDEAL_KINDS}
    clear_registry()
    assert antisymmetric_ideal(3, "J", max_total=5).degree_cap == 5
    tower = spaces._WORKSPACES[3].tower
    degrees = list(tower.J)

    def refuse(self, max_total):
        raise AssertionError("the tower was extended")

    monkeypatch.setattr(spaces._IdealTower, "_build", refuse)
    for f in ("J", "mJ"):
        served = antisymmetric_ideal(3, f, max_total=3)
        assert served.pieces == low[f].pieces and served.degree_cap == 3
    for kind in spaces._IDEAL_KINDS:
        assert ideal_series(3, kind) == series[kind]
    assert list(tower.J) == degrees


def test_clear_registry_leaves_nothing_behind(fresh):
    hook = hook_component(2)
    dr = coinvariants(2)
    sl2 = structure.model(hook)
    antisymmetric_ideal(2, "J", max_total=3)
    matrix_of(OperatorSpec.F(2, 1), hook, (0, 1, 0))
    clear_registry()
    assert spaces._WORKSPACES == {}
    assert spaces.ambient_basis.cache_info().currsize == 0
    assert hook_component(2) is not hook
    assert coinvariants(2) is not dr
    assert structure.model(hook_component(2)) is not sl2
