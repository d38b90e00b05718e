"""Closed-form cohomology of twisted structure sheaves on projective superspace.

Everything here rests on the split decomposition

    O(ell)  =  sum over k of  O_Pn(ell - k) ^ C(m,k),   parity k mod 2,

so dimensions reduce to classical Bott numbers on P^n.  The binomial sums are
the authoritative values; the derivative closed forms (chi/zeta) are an
independent cross-check layer.  Each is (1/k!) d^k/dx^k at x = 0 of
(x+1)^a * (x+2)^b, i.e. its x^k Taylor coefficient, read off exactly from two
truncated binomial series: a generating-function coefficient, not a Bott sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import DomainError


@dataclass(frozen=True)
class DimPair:
    """Even and odd dimensions of a Z2-graded vector space."""

    even: int
    odd: int

    def __post_init__(self):
        if self.even < 0 or self.odd < 0:
            raise ValueError("dimensions must be nonnegative")

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


@dataclass(frozen=True)
class SplitSheaf:
    """A direct sum of parity-shifted line bundles on P^n."""

    n: int
    m: int
    ell: int
    summands: tuple  # of (twist, parity, multiplicity)


def decompose(n: int, m: int, ell: int) -> SplitSheaf:
    """Split O(ell) on the n|m projective superspace over the reduced P^n."""
    if n < 1 or m < 0:
        raise DomainError("need n >= 1 and m >= 0")
    summands = tuple((ell - k, k & 1, comb(m, k)) for k in range(m + 1))
    return SplitSheaf(n, m, ell, summands)


def bott_dim(n: int, k: int) -> dict:
    """Per-degree cohomology dimensions of O(k) on P^n (nonzero entries only)."""
    if n < 1:
        raise DomainError("need n >= 1")
    out = {}
    if k >= 0:
        out[0] = comb(k + n, n)
    if k <= -n - 1:
        out[n] = comb(-k - 1, -k - n - 1)
    return out


def cohomology_dims(n: int, m: int, ell: int) -> dict:
    """Map degree -> DimPair for O(ell); nonzero only in degrees 0 and n."""
    dims = {i: ZERO_PAIR for i in range(n + 1)}
    for twist, parity, mult in decompose(n, m, ell).summands:
        for degree, d in bott_dim(n, twist).items():
            pair = DimPair(d * mult, 0) if parity == 0 else DimPair(0, d * mult)
            dims[degree] = dims[degree] + pair
    return dims


# -- derivative closed forms (cross-check layer) ---------------------------


def _series(c: int, a: int, k: int) -> list:
    """Coefficients of (x + c)^a up to x^k; a may be negative (c != 0)."""
    out, binom = [], Fraction(1)  # binom = C(a, j), the generalized binomial
    for j in range(k + 1):
        out.append(binom * Fraction(c) ** (a - j))
        binom = binom * (a - j) / (j + 1)
    return out


def _coefficient(k: int, a: int, b: int) -> Fraction:
    """The x^k Taylor coefficient at 0 of (x+1)^a * (x+2)^b."""
    p, q = _series(1, a, k), _series(2, b, k)
    return sum(p[i] * q[k - i] for i in range(k + 1))


def _integer(value: Fraction) -> int:
    if value.denominator != 1:
        raise DomainError(f"closed form evaluated to non-integer {value}")
    return value.numerator


def chi_zeta(n: int, m: int, ell: int, which: str) -> int:
    """Evaluate one of the four derivative closed forms for h^0 / h^n totals.

    which selects the regime: 'chi_m_lt_l' (m < ell), 'chi_m_ge_l'
    (0 <= ell <= m <= ell + n), 'zeta_le' (ell + n + 1 <= 0), 'zeta_gt'
    (ell + n + 1 > 0).  A selector outside its regime raises DomainError.
    """
    if n < 1 or m < 0:
        raise DomainError("need n >= 1 and m >= 0")
    if which == "chi_m_lt_l":
        if not m < ell:
            raise DomainError("chi_m_lt_l requires m < ell")
        return _integer(_coefficient(n, ell + n - m, m))
    if which == "chi_m_ge_l":
        if not (0 <= ell <= m):
            raise DomainError("chi_m_ge_l requires 0 <= ell <= m")
        order = ell + n - m
        if order < 0:
            raise DomainError("chi_m_ge_l derivative order is negative for m > ell + n")
        # m!/(n! ell!) * d^order/dx^order (x+1)^n (x+2)^ell at 0
        scale = Fraction(factorial(m) * factorial(order), factorial(n) * factorial(ell))
        return _integer(scale * _coefficient(order, n, ell))
    if which == "zeta_le":
        if not ell + n + 1 <= 0:
            raise DomainError("zeta_le requires ell + n + 1 <= 0")
        return _integer(_coefficient(n, -ell - 1, m))
    if which == "zeta_gt":
        if not ell + n + 1 > 0:
            raise DomainError("zeta_gt requires ell + n + 1 > 0")
        # tail removes the k <= ell part of (x+2)^m = sum C(m,k)(x+1)^k;
        # empty for ell < 0
        tail = sum(comb(m, k) * _coefficient(n, k - ell - 1, 0) for k in range(ell + 1))
        return _integer(_coefficient(n, -ell - 1, m) - tail)
    raise DomainError(f"unknown regime selector {which!r}")


def chi_closed(n: int, m: int, ell: int):
    """h^0 total via the applicable chi regime, or None if neither applies."""
    if m < ell:
        return chi_zeta(n, m, ell, "chi_m_lt_l")
    if 0 <= ell <= m <= ell + n:
        return chi_zeta(n, m, ell, "chi_m_ge_l")
    return None


def zeta_closed(n: int, m: int, ell: int) -> int:
    """h^n total via the applicable zeta regime (always defined)."""
    which = "zeta_le" if ell + n + 1 <= 0 else "zeta_gt"
    return chi_zeta(n, m, ell, which)
