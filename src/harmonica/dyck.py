"""Lattice-path oracle for Catalan numbers and the q,t-Catalan series.

Paths are north/east walks from (0,0) to (n,n) staying weakly above the
diagonal.  The bivariate series sums q^area * t^bounce over all paths; it is
computed here purely combinatorially, independent of any linear algebra, and
serves as the cross-check oracle for the sign-component Hilbert series.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Tuple

MAX_N = 12


class DyckPath:
    """A balanced up/down step sequence whose prefix sums stay nonnegative."""

    __slots__ = ("steps",)

    def __init__(self, steps: Tuple[int, ...]):
        total = 0
        for s in steps:
            if s not in (0, 1):
                raise ValueError("steps must be 1 (north) or 0 (east)")
            total += 1 if s else -1
            if total < 0:
                raise ValueError("path dips below the diagonal")
        if total != 0:
            raise ValueError("path is not balanced")
        self.steps = tuple(steps)

    @property
    def n(self) -> int:
        return len(self.steps) // 2

    def column_tops(self) -> List[int]:
        """For each east step (column c), the height reached before it."""
        tops = []
        h = 0
        for s in self.steps:
            if s:
                h += 1
            else:
                tops.append(h)
        return tops

    def area(self) -> int:
        """Number of full cells between the path and the diagonal."""
        return sum(top - 1 - c for c, top in enumerate(self.column_tops()))

    def bounce(self) -> int:
        """Bounce statistic: the ball drops north-east along the path.

        From each diagonal touch (j,j) the ball moves north to the height at
        which the path turns east over column j, then east back to the
        diagonal; the statistic sums n - j over the intermediate touches.
        """
        tops = self.column_tops()
        n = self.n
        j = 0
        total = 0
        while j < n:
            j = tops[j]
            if j < n:
                total += n - j
        return total

    def __eq__(self, other):
        return isinstance(other, DyckPath) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return "DyckPath(" + "".join("N" if s else "E" for s in self.steps) + ")"


def catalan_number(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def hook_per_a(n: int) -> Dict[int, int]:
    """{d: H_d}, the total dimension of each odd degree d of the hook model.

    S_d = C(2n-d, d) Cat(n-d) counts the Schroder paths of size n with d
    diagonal steps, which give <nabla e_n, e_(n-d) h_d> (Haglund 2004); by
    Pieri, H_d = S_d - H_(d-1), so H_d = sum_(k<=d) (-1)^(d-k) S_k.
    """
    out: Dict[int, int] = {}
    for d in range(n):
        out[d] = comb(2 * n - d, d) * catalan_number(n - d) - out.get(d - 1, 0)
    return out


def enumerate_paths(n: int) -> List[DyckPath]:
    """All paths for the given size, in lexicographic step order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds the enumeration cap {MAX_N}")
    out: List[DyckPath] = []

    def walk(prefix: List[int], ups: int, downs: int):
        if ups == n and downs == n:
            out.append(DyckPath(tuple(prefix)))
            return
        if downs < ups:
            prefix.append(0)
            walk(prefix, ups, downs + 1)
            prefix.pop()
        if ups < n:
            prefix.append(1)
            walk(prefix, ups + 1, downs)
            prefix.pop()

    walk([], 0, 0)
    return out


def catalan_qt(n: int) -> Dict[Tuple[int, int], int]:
    """The q,t-Catalan series as {(q exponent, t exponent): multiplicity}."""
    series: Dict[Tuple[int, int], int] = {}
    for path in enumerate_paths(n):
        key = (path.area(), path.bounce())
        series[key] = series.get(key, 0) + 1
    return series


def render_qt(series: Dict[Tuple[int, int], int]) -> str:
    """Rendering identical to the Hilbert series text form."""
    from .spaces import HilbertSeries
    from .superpoly import TriDegree

    return HilbertSeries({TriDegree(a, b, 0): v for (a, b), v in series.items()}).render()
