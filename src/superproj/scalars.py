"""Exact arithmetic over Q(zeta_8), the coefficient field of the engine.

A scalar is c0 + c1*z + c2*z^2 + c3*z^3 with z = zeta_8 = e^(i*pi/4), reduced
modulo z^4 + 1.  The field contains i = z^2 and sqrt(2) = z - z^3, which is
all the supersymmetry generators ever need.

A scalar is stored as four ``int`` numerators n = (n0, n1, n2, n3) over one
``int`` denominator d > 0, c_k = n_k / d, always reduced so that
gcd(n0, n1, n2, n3, d) = 1.  Equal values therefore have equal (n, d), so
``==`` and ``hash`` compare ints, and the arithmetic builds no ``Fraction``.
The four rational coordinates are the read-only view ``c``; the constructor
and the mixed operations take ``int`` and ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InvariantError

_ZEROS = (0, 0, 0, 0)
_UNIT = (1, 0, 0, 0)


class Scalar:
    """An element of Q(zeta_8).  Immutable and hashable."""

    __slots__ = ("n", "d")

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        cs = (c0, c1, c2, c3)
        if type(c0) is int and type(c1) is int and type(c2) is int and type(c3) is int:
            n, d = cs, 1
        else:
            for c in cs:
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")
            # each Fraction is in lowest terms, so over the lcm of their
            # denominators the content gcd is already 1
            d = lcm(*(c.denominator for c in cs))
            n = tuple(c.numerator * (d // c.denominator) for c in cs)
        _set_n(self, n)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def c(self) -> tuple:
        """The coordinates c0..c3 as four ``Fraction``s (a view, not for hot paths)."""
        d = self.d
        return tuple(Fraction(x, d) for x in self.n)

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "Scalar":
        if x.__class__ is Scalar:
            return x
        if type(x) is int:
            return _make((x, 0, 0, 0), 1)
        if type(x) is Fraction:
            # a Fraction is in lowest terms with a positive denominator
            return _make((x.numerator, 0, 0, 0), x.denominator)
        return Scalar(x)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.n == _ZEROS

    def is_one(self) -> bool:
        return self.d == 1 and self.n == _UNIT

    def is_rational(self) -> bool:
        _, n1, n2, n3 = self.n
        return not (n1 or n2 or n3)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return _sum(self.n, self.d, other.n, other.d)

    __radd__ = __add__

    def __neg__(self):
        n0, n1, n2, n3 = self.n
        return _make((-n0, -n1, -n2, -n3), self.d)

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        b0, b1, b2, b3 = other.n
        return _sum(self.n, self.d, (-b0, -b1, -b2, -b3), other.d)

    def __rsub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        n0, n1, n2, n3 = self.n
        return _sum(other.n, other.d, (-n0, -n1, -n2, -n3), self.d)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            if type(other) is int:
                # k*n / d: n is coprime to d, so only gcd(k, d) cancels
                g = gcd(other, self.d)
                k = other // g
                n0, n1, n2, n3 = self.n
                return _make((n0 * k, n1 * k, n2 * k, n3 * k), self.d // g)
            other = _operand(other)
            if other is None:
                return NotImplemented
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        if not (a1 or a2 or a3):
            n = (a0 * b0, a0 * b1, a0 * b2, a0 * b3)
        elif not (b1 or b2 or b3):
            n = (a0 * b0, a1 * b0, a2 * b0, a3 * b0)
        else:  # convolution with z^4 = -1
            n = (
                a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
                a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
                a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
                a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
            )
        return _reduced(n, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Field inverse through the norm to Q(i).

        With s = sigma_5(n) (z -> -z), u = n * s is fixed by sigma_5, so
        u = u0 + u2*i, and (n/d)^-1 = d * s * (u0 - u2*i) / (u0^2 + u2^2).
        """
        n0, n1, n2, n3 = self.n
        d = self.d
        if not (n1 or n2 or n3):
            if not n0:
                raise ZeroDivisionError("inversion of zero in Q(zeta_8)")
            # n0 and d are coprime: swapping them is reduced
            return _make((d, 0, 0, 0), n0) if n0 > 0 else _make((-d, 0, 0, 0), -n0)
        u0 = n0 * n0 - n2 * n2 + 2 * n1 * n3
        u2 = 2 * n0 * n2 - n1 * n1 + n3 * n3
        out = _reduced(
            (
                (n0 * u0 + n2 * u2) * d,
                (-n1 * u0 - n3 * u2) * d,
                (n2 * u0 - n0 * u2) * d,
                (n1 * u2 - n3 * u0) * d,
            ),
            u0 * u0 + u2 * u2,
        )
        if not (out * self).is_one():
            raise InvariantError(f"inverse of {self} failed the check a * a^-1 = 1")
        return out

    def __truediv__(self, other):
        if type(other) is int and other:
            # n / (d*k): a prime of d cannot divide n, so only gcd(n, k) cancels
            n0, n1, n2, n3 = self.n
            g = gcd(n0, n1, n2, n3, other)
            if other < 0:
                g = -g
            return _make((n0 // g, n1 // g, n2 // g, n3 // g), self.d * (other // g))
        if other.__class__ is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        return power(self, k, ONE)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return self.d == other.d and self.n == other.n

    def __hash__(self):
        return hash((self.n, self.d))

    # -- rendering ------------------------------------------------------

    def __str__(self):
        n0, n1, n2, n3 = self.n
        d = self.d
        if not (n1 or n2 or n3):
            return _qstr(n0, d)
        parts = []
        names = ("", "i", "sqrt2", "i*sqrt2")
        coords = ((n0, d), (n2, d), (n1 - n3, 2 * d), (n1 + n3, 2 * d))
        for (p, q), name in zip(coords, names):
            if p == 0:
                continue
            text = _qstr(p, q)
            if not name:
                parts.append(text)
            elif text == "1":
                parts.append(name)
            elif text == "-1":
                parts.append(f"-{name}")
            else:
                parts.append(f"{text}*{name}")
        return signed_join(parts)

    def __repr__(self):
        return f"Scalar({self})"


_new = object.__new__
_set_n = Scalar.n.__set__
_set_d = Scalar.d.__set__


def _make(n: tuple, d: int) -> Scalar:
    """A Scalar from numerators and a denominator d > 0 already reduced."""
    s = _new(Scalar)
    _set_n(s, n)
    _set_d(s, d)
    return s


def _reduced(n: tuple, d: int) -> Scalar:
    """A Scalar from numerators over d > 0, divided by their content gcd."""
    if d != 1:
        n0, n1, n2, n3 = n
        g = gcd(n0, n1, n2, n3, d)
        if g != 1:
            return _make((n0 // g, n1 // g, n2 // g, n3 // g), d // g)
    return _make(n, d)


def _sum(a: tuple, da: int, b: tuple, db: int) -> Scalar:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    if da == db:
        return _reduced((a0 + b0, a1 + b1, a2 + b2, a3 + b3), da)
    # over lcm(da, db) only the primes of g = gcd(da, db) can divide the sum
    g = gcd(da, db)
    sa, sb = db // g, da // g
    n0, n1, n2, n3 = a0 * sa + b0 * sb, a1 * sa + b1 * sb, a2 * sa + b2 * sb, a3 * sa + b3 * sb
    d = da * sa
    if g != 1:
        g = gcd(n0, n1, n2, n3, g)
        if g != 1:
            return _make((n0 // g, n1 // g, n2 // g, n3 // g), d // g)
    return _make((n0, n1, n2, n3), d)


def power(x, k: int, one):
    """x ** k by repeated squaring from ``one``; k < 0 raises x^-1 to -k."""
    if k < 0:
        x, k = x.inverse(), -k
    out = one
    while k:
        if k & 1:
            out = out * x
        x = x * x
        k >>= 1
    return out


def _operand(x):
    """x as a Scalar if it is an ``int`` or ``Fraction``, else None."""
    if type(x) is int:
        return _make((x, 0, 0, 0), 1)
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    return None


def signed_join(parts: list) -> str:
    """The parts joined by " + ", a part's leading "-" read as " - "."""
    text = parts[0]
    for p in parts[1:]:
        text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return text


def _qstr(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, without building the Fraction."""
    g = gcd(p, q)
    if g != 1:
        p //= g
        q //= g
    return str(p) if q == 1 else f"{p}/{q}"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 0, 1, 0)
SQRT2 = Scalar(0, 1, 0, -1)
HALF = Scalar(Fraction(1, 2))
INV_SQRT2 = SQRT2 * HALF  # 1/sqrt2 == sqrt2/2
