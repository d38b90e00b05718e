"""The composed derivation action, as a reference for the engine's.

``composed_apply`` and ``composed_bracket`` are ``SuperDerivation.apply``
and ``SuperDerivation.bracket`` as they were before the engine accumulated
them into term dicts: sums of ``f * dp/dv`` and differences of applied
coefficients, each step a whole ``SuperPolynomial``.  The product and the
partial derivative they compose are written out here, with the Koszul sign
counted as inversions of explicit odd-index lists, so a fault in the
engine's shared product loop or derivative helper cannot cancel out in a
comparison.  ``tests/test_superpoly.py`` compares the engine with them, and
``tests/substitution_reference.py`` pushes fields forward through
``composed_apply``.
"""

from fractions import Fraction

from superproj.errors import ContextError
from superproj.superpoly import SuperDerivation, SuperPolynomial


def _odd_indices(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _times(a, b):
    """a * b, each pair of terms signed by the parity of the inversions of
    the odd indices of a followed by those of b."""
    out = {}
    for (ea, ma), ca in a.terms.items():
        for (eb, mb), cb in b.terms.items():
            if ma & mb:
                continue
            merged = _odd_indices(ma) + _odd_indices(mb)
            inversions = sum(
                1 for i, x in enumerate(merged) for y in merged[i + 1:] if x > y
            )
            c = ca * cb
            if inversions % 2:
                c = -c
            key = (tuple(x + y for x, y in zip(ea, eb)), ma | mb)
            out[key] = out[key] + c if key in out else c
    return SuperPolynomial(a.ctx, out)


def _partial(p, name):
    """dp/dv; an odd derivative moves its variable to the front first."""
    kind, pos = p.ctx.lookup(name)
    out = p.ctx.zero()
    for (exps, mask), c in p.terms.items():
        if kind == "even":
            if not exps[pos]:
                continue
            new = list(exps)
            new[pos] -= 1
            term = p.ctx.monomial(c * Fraction(exps[pos]), new, mask)
        else:
            idx = _odd_indices(mask)
            if pos not in idx:
                continue
            sign = -1 if idx.index(pos) % 2 else 1
            term = p.ctx.monomial(c * sign, exps, mask & ~(1 << pos))
        out = out + term
    return out


def composed_apply(field, p):
    out = field.ctx.zero()
    for name, f in field.coeffs.items():
        out = out + _times(f, _partial(p, name))
    return out


def composed_bracket(x, y):
    """Supercommutator [X, Y] = XY - (-1)^(|X||Y|) YX as a derivation."""
    if x.ctx != y.ctx:
        raise ContextError("derivation context mismatch")
    sign = -1 if x.parity and y.parity else 1
    coeffs = {}
    for name in set(x.coeffs) | set(y.coeffs):
        a = composed_apply(x, y.coefficient(name))
        b = composed_apply(y, x.coefficient(name))
        coeffs[name] = a - b if sign > 0 else a + b
    return SuperDerivation(x.ctx, (x.parity + y.parity) & 1, coeffs)
