"""The Fraction series the closed forms were computed with, as a reference.

``_series`` and ``_coefficient`` are the bodies ``superproj.cohomology`` used
before its Taylor coefficients moved to integer arithmetic: each coefficient
of (x+1)^a * (x+2)^b is read off two truncated binomial series built from
``Fraction`` powers and divisions.  They are kept as an independent reference
for the integer convolution in ``tests/test_cohomology.py``.
"""

from fractions import Fraction


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
