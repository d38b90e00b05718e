"""Exact arithmetic over Q(zeta_8), the coefficient field of the engine.

A scalar is c0 + c1*z + c2*z^2 + c3*z^3 with z = zeta_8 = e^(i*pi/4), reduced
modulo z^4 + 1.  The field contains i = z^2 and sqrt(2) = z - z^3, which is
all the supersymmetry generators ever need.  Rationals are plain
``fractions.Fraction`` throughout.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantError


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Scalar:
    """An element of Q(zeta_8).  Immutable and hashable."""

    __slots__ = ("c",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        object.__setattr__(
            self, "c",
            (_as_fraction(c0), _as_fraction(c1), _as_fraction(c2), _as_fraction(c3)),
        )

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(_as_fraction(x))

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return all(q == 0 for q in self.c)

    def is_one(self) -> bool:
        return self.c == (1, 0, 0, 0)

    def is_rational(self) -> bool:
        return self.c[1] == 0 and self.c[2] == 0 and self.c[3] == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.c[0]

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, Scalar)):
            return NotImplemented
        other = Scalar.coerce(other)
        a, b = self.c, other.c
        return Scalar(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.c[0], -self.c[1], -self.c[2], -self.c[3])

    def __sub__(self, other):
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other):
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, Scalar)):
            return NotImplemented
        other = Scalar.coerce(other)
        a, b = self.c, other.c
        # convolution with z^4 = -1
        out = [Fraction(0)] * 4
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj == 0:
                    continue
                k = i + j
                if k >= 4:
                    out[k - 4] -= ai * bj
                else:
                    out[k] += ai * bj
        return Scalar(*out)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Field inverse through the norm to Q(i).

        With s = sigma_5(self) (z -> -z), u = self * s is fixed by sigma_5, so
        u = u0 + u2*i, and self^-1 = s * (u0 - u2*i) / (u0^2 + u2^2).
        """
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero in Q(zeta_8)")
        if self.is_rational():
            return Scalar(1 / self.c[0])
        c0, c1, c2, c3 = self.c
        s = Scalar(c0, -c1, c2, -c3)
        u0, _, u2, _ = (self * s).c
        norm = u0 * u0 + u2 * u2
        out = s * Scalar(u0 / norm, 0, -u2 / norm, 0)
        if not (out * self).is_one():
            raise InvariantError(f"inverse of {self} failed the check a * a^-1 = 1")
        return out

    def __truediv__(self, other):
        return self * Scalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return Scalar.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    # -- rendering ------------------------------------------------------

    def basis_1_i_s_is(self):
        """Coefficients (r, s, t, u) with value r + s*i + t*sqrt2 + u*i*sqrt2."""
        c0, c1, c2, c3 = self.c
        return (c0, c2, (c1 - c3) / 2, (c1 + c3) / 2)

    def __str__(self):
        c0, c1, c2, c3 = self.c
        if c1 == 0 and c2 == 0 and c3 == 0:
            return str(c0)  # str(Fraction(0)) is "0"
        parts = []
        names = ("", "i", "sqrt2", "i*sqrt2")
        for q, name in zip(self.basis_1_i_s_is(), names):
            if q == 0:
                continue
            if not name:
                parts.append(str(q))
            elif q == 1:
                parts.append(name)
            elif q == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{q}*{name}")
        if not parts:
            return "0"
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    def __repr__(self):
        return f"Scalar({self})"

    def to_json(self):
        """JSON form: the 4-tuple of rational strings c0..c3."""
        return [str(q) for q in self.c]


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 0, 1, 0)
SQRT2 = Scalar(0, 1, 0, -1)
HALF = Scalar(Fraction(1, 2))
INV_SQRT2 = SQRT2 * HALF  # 1/sqrt2 == sqrt2/2
