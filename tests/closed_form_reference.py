"""References for the closed forms of ``superproj.cohomology``.

``_series`` and ``_coefficient`` are the bodies ``superproj.cohomology`` used
before its Taylor coefficients moved to integer arithmetic: each coefficient
of (x+1)^a * (x+2)^b is read off two truncated binomial series built from
``Fraction`` powers and divisions.  They are kept as an independent reference
for the integer convolution in ``tests/test_cohomology.py``.

``bott_dim`` gives the Bott numbers of one line bundle on P^n as a
per-degree dict; ``cohomology_dims`` once summed them as ``DimPair``s, and now
counts on ``int``s with the numbers inline, so the tests compare the two.
"""

from fractions import Fraction
from math import comb

from superproj.errors import DomainError


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
