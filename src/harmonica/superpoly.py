"""The polynomial superalgebra Q[x_1..x_n, y_1..y_n] (x) Wedge(th_1..th_n).

Monomials carry two exponent vectors and a strictly increasing tuple of odd
(exterior) indices; the product of odd generators anticommutes, so every
product picks up the usual Koszul sign.  S_n acts by permuting the x, y and
odd variables simultaneously.  First-order super differential operators are
kept as formal sums of (coefficient, even multiplication word, derivation
word) terms with derivations to the right of multiplications.  Every operator
family (F_k, E_k and their adjoints, d_N and the Hamiltonian vector fields)
is a sum over i of one diagonal term c x_i^a y_i^b (d/dx_i)^p (d/dy_i)^q
(d/dth_i)^f, two for the vector fields, and is built by `_diagonal_sum`.

An operator compiles its terms once, when it is built: each coefficient
becomes an integer over the lcm of the term denominators, and only the
nonzero derivative orders and multiplier exponents are kept.
`monomial_image`, the one place an operator acts, gives a monomial's image
term by term in ints; `spaces.column_map` applies it to int column vectors
and `apply_op` to a `Polynomial`, in ints over one common denominator,
equal term for term and in insertion order to the one-`Fraction`-at-a-time
sum.

The fixed monomial order is: odd index tuples compared lexicographically,
then exponent vectors (x_1,..,x_n,y_1,..,y_n) compared lexicographically
with larger exponents first.  Every deterministic choice downstream (basis
enumeration, quotient representatives, rendering) derives from this order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, factorial, lcm, perm
from typing import Iterable, NamedTuple, Optional

MONOMIAL_ORDER_ID = "oddlex-then-xylex-desc-v1"


class TriDegree(NamedTuple):
    dx: int
    dy: int
    da: int

    def __str__(self):
        return f"({self.dx},{self.dy},{self.da})"


class Monomial(NamedTuple):
    xe: tuple  # x exponents, length n
    ye: tuple  # y exponents, length n
    odd: tuple  # strictly increasing 0-based odd indices

    @property
    def n(self) -> int:
        return len(self.xe)

    def tridegree(self) -> TriDegree:
        return TriDegree(sum(self.xe), sum(self.ye), len(self.odd))

    def sort_key(self):
        return (
            self.odd,
            tuple(-e for e in self.xe),
            tuple(-e for e in self.ye),
        )


def perm_sign(sigma) -> int:
    """Sign of a permutation given as a tuple of images."""
    sign = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                sign = -sign
    return sign


def _sort_sign(seq) -> tuple:
    """Sort a sequence of distinct ints, returning (sorted tuple, sign)."""
    items = list(seq)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return tuple(items), sign


def monomial_mul(a: Monomial, b: Monomial):
    """Product of monomials: (result, Koszul sign) or (None, 0) if it dies."""
    if set(a.odd) & set(b.odd):
        return None, 0
    # Sign of interleaving b's odd factors past a's.
    sign = 1
    for s in a.odd:
        for t in b.odd:
            if s > t:
                sign = -sign
    odd = tuple(sorted(a.odd + b.odd))
    xe = tuple(p + q for p, q in zip(a.xe, b.xe))
    ye = tuple(p + q for p, q in zip(a.ye, b.ye))
    return Monomial(xe, ye, odd), sign


class Polynomial:
    """Sparse element of the superalgebra: map from Monomial to Fraction."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[dict] = None):
        self.n = n
        clean = {}
        for m, c in (terms or {}).items():
            f = Fraction(c)
            if f != 0:
                clean[m] = f
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_clean(cls, n: int, terms: dict) -> "Polynomial":
        """A polynomial owning `terms`, already nonzero `Fraction`s, as they are."""
        p = object.__new__(cls)
        p.n = n
        p.terms = terms
        return p

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Polynomial":
        return cls(n, {unit_monomial(n): Fraction(1)})

    @classmethod
    def x(cls, n: int, i: int, power: int = 1) -> "Polynomial":
        xe = tuple(power if j == i else 0 for j in range(n))
        return cls(n, {Monomial(xe, (0,) * n, ()): Fraction(1)})

    @classmethod
    def y(cls, n: int, i: int, power: int = 1) -> "Polynomial":
        ye = tuple(power if j == i else 0 for j in range(n))
        return cls(n, {Monomial((0,) * n, ye, ()): Fraction(1)})

    @classmethod
    def odd_var(cls, n: int, i: int) -> "Polynomial":
        return cls(n, {Monomial((0,) * n, (0,) * n, (i,)): Fraction(1)})

    @classmethod
    def monomial(cls, m: Monomial, coeff=1) -> "Polynomial":
        return cls(m.n, {m: Fraction(coeff)})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s == 0:
                terms.pop(m, None)
            else:
                terms[m] = s
        return Polynomial(self.n, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {m: -c for m, c in self.terms.items()})

    def scale(self, a) -> "Polynomial":
        a = Fraction(a)
        if a == 0:
            return Polynomial(self.n)
        return Polynomial(self.n, {m: a * c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        return multiply(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items(), key=lambda t: t[0].sort_key()))))

    def _check(self, other: "Polynomial"):
        if self.n != other.n:
            raise ValueError(f"mixed variable counts {self.n} and {other.n}")

    # -- grading -----------------------------------------------------------

    def tridegree(self) -> Optional[TriDegree]:
        """TriDegree if homogeneous, else None (zero counts as homogeneous)."""
        degs = {m.tridegree() for m in self.terms}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else TriDegree(0, 0, 0)

    def homogeneous_components(self) -> dict:
        out: dict = {}
        for m, c in self.terms.items():
            out.setdefault(m.tridegree(), {})[m] = c
        return {d: Polynomial(self.n, t) for d, t in sorted(out.items())}

    def __repr__(self):
        return f"Polynomial({render(self)})"


def unit_monomial(n: int) -> Monomial:
    return Monomial((0,) * n, (0,) * n, ())


def multiply(p: Polynomial, q: Polynomial) -> Polynomial:
    """Superalgebra product; odd generators anticommute and square to zero."""
    p._check(q)
    terms: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m, sign = monomial_mul(m1, m2)
            if m is None:
                continue
            s = terms.get(m, 0) + sign * c1 * c2
            if s == 0:
                terms.pop(m, None)
            else:
                terms[m] = s
    return Polynomial(p.n, terms)


def act(sigma, p: Polynomial) -> Polynomial:
    """Action of a permutation (tuple of images) on x, y and odd variables."""
    n = p.n
    if sorted(sigma) != list(range(n)):
        raise ValueError("not a permutation of range(n)")
    terms: dict = {}
    for m, c in p.terms.items():
        xe = [0] * n
        ye = [0] * n
        for i in range(n):
            xe[sigma[i]] = m.xe[i]
            ye[sigma[i]] = m.ye[i]
        odd, sign = _sort_sign(sigma[t] for t in m.odd)
        new = Monomial(tuple(xe), tuple(ye), odd)
        s = terms.get(new, 0) + sign * c
        if s == 0:
            terms.pop(new, None)
        else:
            terms[new] = s
    return Polynomial(n, terms)


def transpose_adjacent(m: Monomial, i: int):
    """s_i = (i i+1) on a monomial: (image, Koszul sign).  The sign is -1
    exactly when both th_i and th_{i+1} occur."""
    xe = m.xe[:i] + (m.xe[i + 1], m.xe[i]) + m.xe[i + 2:]
    ye = m.ye[:i] + (m.ye[i + 1], m.ye[i]) + m.ye[i + 2:]
    odd = tuple(sorted(i + 1 if t == i else i if t == i + 1 else t for t in m.odd))
    sign = -1 if i in m.odd and i + 1 in m.odd else 1
    return Monomial(xe, ye, odd), sign


def alt(p: Polynomial) -> Polynomial:
    """Antisymmetrization (1/n!) sum sgn(s) s(p); an idempotent projector."""
    n = p.n
    out = Polynomial.zero(n)
    for sigma in permutations(range(n)):
        out = out + act(sigma, p).scale(perm_sign(sigma))
    return out.scale(Fraction(1, factorial(n)))


# -- differential operators -------------------------------------------------


class OpTerm(NamedTuple):
    coeff: Fraction
    mult: Monomial  # multiplied in from the left; even
    dx: tuple  # orders of d/dx_i
    dy: tuple  # orders of d/dy_i
    odd_ann: tuple  # odd annihilators, increasing; the last one acts first


class _CompiledTerm(NamedTuple):
    """An `OpTerm` as `monomial_image` reads it: sparse, with an integer coefficient.

    Even exponents are indexed as in xe + ye: x_i at i, y_i at n + i."""

    coeff: int  # the term's coefficient times its operator's `den`
    deriv: tuple  # (i, k) for each nonzero derivative order k, d/dx then d/dy
    odd_ann: tuple  # odd annihilators in the order they act
    mult: tuple  # (i, e) for each nonzero exponent of the multiplier


def _nonzero(exps: tuple) -> tuple:
    return tuple((i, e) for i, e in enumerate(exps) if e)


class DiffOperator:
    """Formal sum of first-order-style super differential operator terms.

    Each term is canonical with all derivations to the right of the
    multiplication word, i.e. a term acts as f -> coeff * mult * (deriv f),
    with mult even (an odd index raises ValueError).  The terms are compiled
    once, here, into `compiled`: every coefficient becomes an integer over
    `den`, the lcm of the term denominators.
    """

    __slots__ = ("n", "ops", "den", "compiled")

    def __init__(self, n: int, ops: Iterable[OpTerm]):
        self.n = n
        self.ops = tuple(op for op in ops if op.coeff != 0)
        if any(t.mult.odd for t in self.ops):
            raise ValueError("an operator term's multiplier must be even")
        coeffs = [Fraction(t.coeff) for t in self.ops]
        self.den = lcm(*(c.denominator for c in coeffs))
        self.compiled = tuple(
            _CompiledTerm(c.numerator * (self.den // c.denominator), _nonzero(t.dx + t.dy),
                          t.odd_ann[::-1], _nonzero(t.mult.xe + t.mult.ye))
            for c, t in zip(coeffs, self.ops)
        )

    def __repr__(self):
        return f"DiffOperator(n={self.n}, {len(self.ops)} terms)"


def monomial_image(op: DiffOperator, m: Monomial) -> list:
    """(t, monomial, c) for each compiled term t of op that does not kill m,
    in term order: the term's image of m is c / op.den times the monomial,
    c an int.  Multipliers are even, so only the odd annihilators give
    Koszul signs."""
    n = op.n
    exps = m.xe + m.ye
    out = []
    for t, (c, deriv, odd_ann, mult) in enumerate(op.compiled):
        for i, k in deriv:
            if exps[i] < k:
                break  # the derivative kills m
        else:
            even = list(exps)
            for i, k in deriv:
                c *= perm(even[i], k)
                even[i] -= k
            for i, e in mult:
                even[i] += e
            odd = m.odd
            if odd_ann:
                odd = list(odd)
                for s in odd_ann:
                    if s not in odd:
                        c = 0
                        break
                    pos = odd.index(s)
                    if pos & 1:
                        c = -c
                    del odd[pos]
                odd = tuple(odd)
            if c:
                out.append((t, Monomial(tuple(even[:n]), tuple(even[n:]), odd), c))
    return out


def apply_op(op: DiffOperator, p: Polynomial) -> Polynomial:
    """Apply a differential operator; Q-linear in p: `monomial_image` on a
    `Polynomial`.

    p is written once over the lcm of its denominators, and the images are
    summed in ints, term by term of the operator and monomial by monomial
    of p, a monomial whose sum cancels being dropped.  One `Fraction` is
    built per surviving monomial.
    """
    n = p.n
    if op.n != n:
        raise ValueError("mixed variable counts")
    den = lcm(*(c.denominator for c in p.terms.values()))
    images = []
    for m, v in p.terms.items():
        u = v.numerator * (den // v.denominator)
        images += [(t, out, c * u) for t, out, c in monomial_image(op, m)]
    images.sort(key=lambda image: image[0])  # stable: within a term, p's monomials keep their order
    acc: dict = {}
    get = acc.get
    for _, out, c in images:
        total = get(out, 0) + c
        if total:
            acc[out] = total
        else:
            del acc[out]
    den *= op.den
    return Polynomial._from_clean(n, {m: Fraction(v, den) for m, v in acc.items()})


def _unit_exp(n: int, i: int, k: int = 1) -> tuple:
    return tuple(k if j == i else 0 for j in range(n))


def _diagonal(c=1, x=0, y=0, dx=0, dy=0, dth=0) -> tuple:
    """The term c x_i^x y_i^y (d/dx_i)^dx (d/dy_i)^dy (d/dth_i)^dth, i left
    open, as `_diagonal_sum` takes it."""
    return (c, x, y, dx, dy, dth)


def _diagonal_sum(n: int, *terms: tuple) -> DiffOperator:
    """sum_i of the given `_diagonal` terms at index i; per i, in the order given."""
    return DiffOperator(
        n,
        [
            OpTerm(Fraction(c), Monomial(_unit_exp(n, i, x), _unit_exp(n, i, y), ()),
                   _unit_exp(n, i, dx), _unit_exp(n, i, dy), (i,) * dth)
            for i in range(n)
            for (c, x, y, dx, dy, dth) in terms
        ],
    )


def op_F(n: int, k: int) -> DiffOperator:
    """F_k = sum_i x_i^k d/dy_i; shifts tridegree by (+k, -1, 0)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _diagonal_sum(n, _diagonal(x=k, dy=1))


def op_E(n: int, k: int) -> DiffOperator:
    """E_k = sum_i y_i^k d/dx_i; shifts tridegree by (-1, +k, 0)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _diagonal_sum(n, _diagonal(y=k, dx=1))


def op_F_star(n: int, k: int) -> DiffOperator:
    """F_k^* = sum_i y_i (d/dx_i)^k; shifts tridegree by (-k, +1, 0)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _diagonal_sum(n, _diagonal(y=1, dx=k))


def op_E_star(n: int, k: int) -> DiffOperator:
    """E_k^* = sum_i x_i (d/dy_i)^k; shifts tridegree by (+1, -k, 0)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _diagonal_sum(n, _diagonal(x=1, dy=k))


def op_d(n: int, N: int) -> DiffOperator:
    """d_N = sum_i th_i^* x_i^N; odd, shifts tridegree by (+N, 0, -1)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return _diagonal_sum(n, _diagonal(x=N, dth=1))


def op_hamiltonian(n: int, a: int, b: int) -> DiffOperator:
    """Vector field of x^a y^b: sum_i (a x^(a-1) y^b d/dy - b x^a y^(b-1) d/dx).

    Shifts tridegree by (a-1, b-1, 0); requires a + b >= 1.
    """
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError("need a, b >= 0 with a + b >= 1")
    terms = []
    if a:
        terms.append(_diagonal(c=a, x=a - 1, y=b, dy=1))
    if b:
        terms.append(_diagonal(c=-b, x=a, y=b - 1, dx=1))
    return _diagonal_sum(n, *terms)


def op_partial_x(n: int, i: int) -> DiffOperator:
    return DiffOperator(n, [OpTerm(Fraction(1), unit_monomial(n), _unit_exp(n, i), (0,) * n, ())])


def tridegree_shift(op: DiffOperator) -> tuple:
    """The (dx, dy, da) an operator adds to a tridegree: its first term's
    multiplier degree minus derivative orders, the same for every term."""
    t = op.ops[0]
    return (sum(t.mult.xe) - sum(t.dx), sum(t.mult.ye) - sum(t.dy), -len(t.odd_ann))


# -- pairing ----------------------------------------------------------------


def monomial_pair_weight(m: Monomial) -> int:
    w = 1
    for e in m.xe:
        w *= factorial(e)
    for e in m.ye:
        w *= factorial(e)
    return w


def pairing(f: Polynomial, g: Polynomial) -> Fraction:
    """<f, g> = f with variables replaced by derivatives, applied to g, at 0.

    Defined on the even part, where the monomial basis is orthogonal with
    weight prod(e!) over all exponents; odd input raises ValueError.
    """
    f._check(g)
    for m in list(f.terms) + list(g.terms):
        if m.odd:
            raise ValueError("pairing defined on odd-degree-zero input")
    total = Fraction(0)
    for m, c in f.terms.items():
        d = g.terms.get(m)
        if d:
            total += c * d * monomial_pair_weight(m)
    return total


def vandermonde(var: str, n: int) -> Polynomial:
    """Product of all pairwise differences of the chosen variable family."""
    if var not in ("x", "y"):
        raise ValueError("var must be 'x' or 'y'")
    make = Polynomial.x if var == "x" else Polynomial.y
    out = Polynomial.one(n)
    for i in range(n):
        for j in range(i + 1, n):
            out = out * (make(n, i) - make(n, j))
    return out


# -- enumeration and rendering ----------------------------------------------


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to total, lex descending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def subsets_of_size(n: int, k: int) -> list:
    from itertools import combinations

    return [tuple(c) for c in combinations(range(n), k)]


def monomials_tridegree(n: int, deg: TriDegree) -> list:
    """Monomials of a tridegree, in the canonical column order.

    That order is `Monomial.sort_key`, and the enumeration already yields it:
    odd sets ascending, then x and y compositions lex descending.
    """
    xes, yes = list(compositions(deg.dx, n)), list(compositions(deg.dy, n))
    return [Monomial(xe, ye, odd) for odd in subsets_of_size(n, deg.da) for xe in xes for ye in yes]


def count_tridegree(n: int, deg: TriDegree) -> int:
    """len(monomials_tridegree(n, deg)), without listing them."""
    return comb(deg.dx + n - 1, n - 1) * comb(deg.dy + n - 1, n - 1) * comb(n, deg.da)


def _render_monomial(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m.xe):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    for i, e in enumerate(m.ye):
        if e == 1:
            parts.append(f"y{i + 1}")
        elif e > 1:
            parts.append(f"y{i + 1}^{e}")
    for t in m.odd:
        parts.append(f"th{t + 1}")
    return "*".join(parts)


def render(p: Polynomial) -> str:
    """Canonical text form: monomials in the fixed order, explicit signs."""
    if not p.terms:
        return "0"
    chunks = []
    for m in sorted(p.terms, key=Monomial.sort_key):
        c = p.terms[m]
        body = _render_monomial(m)
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not chunks:
            chunks.append(text if c > 0 else f"-{text}")
        else:
            chunks.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(chunks)
