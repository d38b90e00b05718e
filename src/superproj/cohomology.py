"""Closed-form cohomology of twisted structure sheaves on projective superspace.

Everything here rests on the split decomposition

    O(ell)  =  sum over k of  O_Pn(ell - k) ^ C(m,k),   parity k mod 2,

so dimensions reduce to classical Bott numbers on P^n: O(t) has C(t+n, n)
sections for t >= 0 and h^n = C(-t-1, n) for t <= -n-1.  ``cohomology_dims``
sums these counts on ``int``s, parity by parity, and these binomial sums are
the authoritative values.  The derivative closed forms are an independent
cross-check layer: chi for h^0 in its two regimes, and zeta for h^n, one
formula whose tail runs over k <= min(ell, m) (C(m, k) = 0 past m) and is
empty for ell < 0.  Each is (1/k!) d^k/dx^k at x = 0 of (x+1)^a * (x+2)^b,
i.e. its x^k Taylor coefficient: a generating-function coefficient, not a
Bott sum.  It is the integer convolution

    sum over i of  C(a, i) * C(b, k - i) * 2^(b - k + i),

with C(a, i) = (-1)^i C(i - a - 1, i) for a < 0.  Every caller has b >= 0, so
k - i <= b in each term and the power of 2 is a whole number: the
coefficient is computed in int arithmetic, without fractions.
"""

from __future__ import annotations

from math import comb, factorial

from .errors import DomainError, InvariantError, check_pnm
from .records import FrozenRecord, set_field


class DimPair(FrozenRecord):
    """Even and odd dimensions of a Z2-graded vector space."""

    __slots__ = ("even", "odd")

    def __init__(self, even: int, odd: int):
        if even < 0 or odd < 0:
            raise ValueError("dimensions must be nonnegative")
        set_field(self, "even", even)
        set_field(self, "odd", odd)

    @property
    def total(self) -> int:
        return self.even + self.odd

    def swap(self) -> "DimPair":
        return DimPair(self.odd, self.even)

    def __add__(self, other: "DimPair") -> "DimPair":
        return DimPair(self.even + other.even, self.odd + other.odd)

    def __sub__(self, other: "DimPair") -> "DimPair":
        return DimPair(self.even - other.even, self.odd - other.odd)

    def __mul__(self, k: int) -> "DimPair":
        return DimPair(self.even * k, self.odd * k)

    __rmul__ = __mul__

    def __str__(self):
        return f"{self.even}|{self.odd}"

    def to_json(self):
        return [self.even, self.odd]


ZERO_PAIR = DimPair(0, 0)


def decompose(n: int, m: int, ell: int) -> tuple:
    """Split O(ell) on the n|m projective superspace over the reduced P^n:
    its parity-shifted line bundles as (twist, parity, multiplicity)."""
    check_pnm(n, m)
    return tuple((ell - k, k & 1, comb(m, k)) for k in range(m + 1))


def cohomology_dims(n: int, m: int, ell: int) -> dict:
    """Map degree -> DimPair for O(ell); nonzero only in degrees 0 and n.

    Each summand O(t)^mult of ``decompose`` adds mult times its Bott number
    to its parity: C(t+n, n) in degree 0 for t >= 0, C(-t-1, n) in degree n
    for t <= -n-1.
    """
    low, top = [0, 0], [0, 0]
    for twist, parity, mult in decompose(n, m, ell):
        if twist >= 0:
            low[parity] += mult * comb(twist + n, n)
        elif twist <= -n - 1:
            top[parity] += mult * comb(-twist - 1, n)
    dims = dict.fromkeys(range(n + 1), ZERO_PAIR)
    dims[0] = DimPair(*low)
    dims[n] = DimPair(*top)
    return dims


# -- derivative closed forms (cross-check layer) ---------------------------


def _gbinom(a: int, i: int) -> int:
    """The binomial C(a, i) for any integer a and i >= 0."""
    return comb(a, i) if a >= 0 else (-1) ** i * comb(i - a - 1, i)


def _coefficient(k: int, a: int, b: int) -> int:
    """The x^k Taylor coefficient at 0 of (x+1)^a * (x+2)^b, for b >= 0."""
    if b < 0:
        raise DomainError("the (x+2)^b factor needs b >= 0")
    return sum(_gbinom(a, i) * comb(b, k - i) * 2 ** (b - k + i)
               for i in range(max(0, k - b), k + 1))


def chi_closed(n: int, m: int, ell: int):
    """h^0 total via the applicable chi regime, or None if neither applies."""
    check_pnm(n, m)
    if m < ell:
        return _coefficient(n, ell + n - m, m)
    if not 0 <= ell <= m <= ell + n:
        return None
    # m!/(n! ell!) * d^order/dx^order (x+1)^n (x+2)^ell at 0
    order = ell + n - m
    value = factorial(m) * factorial(order) * _coefficient(order, n, ell)
    denominator = factorial(n) * factorial(ell)
    quotient, remainder = divmod(value, denominator)
    if remainder:
        raise InvariantError(f"closed form evaluated to non-integer {value}/{denominator}")
    return quotient


def zeta_closed(n: int, m: int, ell: int) -> int:
    """h^n total, always defined: one formula for every ell."""
    check_pnm(n, m)
    # tail removes the k <= ell part of (x+2)^m = sum C(m,k)(x+1)^k, whose
    # x^n coefficient is C(m,k) C(k-ell-1, n); C(m,k) = 0 past m, and the
    # tail is empty for ell < 0
    tail = sum(comb(m, k) * _gbinom(k - ell - 1, n) for k in range(min(ell, m) + 1))
    return _coefficient(n, -ell - 1, m) - tail
