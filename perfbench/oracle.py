"""Parking-function oracle for the bigraded Hilbert series of DR_n.

By the shuffle theorem (Carlsson-Mellit), Hilb(DR_n; q, t) is the sum of
q^area t^dinv over the parking functions of size n (Haglund-Loehr 2005).
The series is symmetric in q and t, so the dimension of the bidegree (a, b)
piece is the number of parking functions with area a and dinv b, whichever
variable is read as x-degree.  Nothing here uses harmonica's linear algebra.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from typing import Dict, Iterator, Tuple

# (n + 1) ** (n - 1), the number of parking functions of size n.
TOTALS = {2: 3, 3: 16, 4: 125, 5: 1296}


def area_sequences(n: int) -> Iterator[Tuple[int, ...]]:
    """Dyck paths of size n as area sequences: a_1 = 0, a_{i+1} <= a_i + 1."""

    def extend(seq):
        if len(seq) == n:
            yield tuple(seq)
            return
        for a in range(seq[-1] + 2):
            yield from extend(seq + [a])

    yield from extend([0])


def dinv(area: Tuple[int, ...], cars: Tuple[int, ...]) -> int:
    """Haglund-Loehr dinv of a labelled Dyck path, rows counted bottom up."""
    count = 0
    for i in range(len(area)):
        for j in range(i + 1, len(area)):
            if area[i] == area[j] and cars[i] < cars[j]:
                count += 1
            elif area[i] == area[j] + 1 and cars[i] > cars[j]:
                count += 1
    return count


def parking_series(n: int) -> Dict[Tuple[int, int], int]:
    """{(area, dinv): number of parking functions of size n}."""
    series: Counter = Counter()
    for area in area_sequences(n):
        # Cars in one column (consecutive rows going up by one) increase.
        rises = [i for i in range(n - 1) if area[i + 1] == area[i] + 1]
        for cars in permutations(range(1, n + 1)):
            if all(cars[i] < cars[i + 1] for i in rises):
                series[(sum(area), dinv(area, cars))] += 1
    return dict(series)


def self_check() -> None:
    """Raise if the oracle disagrees with the known parking-function totals."""
    for n, total in TOTALS.items():
        series = parking_series(n)
        got = sum(series.values())
        if got != total:
            raise AssertionError(f"parking functions of size {n}: {got}, expected {total}")
        if any(series.get((b, a), 0) != c for (a, b), c in series.items()):
            raise AssertionError(f"parking series of size {n} is not q,t-symmetric")
