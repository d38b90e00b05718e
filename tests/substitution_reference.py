"""The general substitution the engine's chart maps used, as a reference.

``substitute`` is the algebra homomorphism that was
``SuperPolynomial.substitute`` before ``ChartTransition`` became a monomial
relabelling: it takes powers and products of the rule polynomials.  It is
kept, with the rule dicts of the standard charts (``chart_rules``), as an
independent reference for the chart map in ``tests/test_superpoly.py``, for
the Cech reference window in ``tests/test_cech.py`` and for the pushforward
reference in ``tests/test_tangent.py``.  ``pushforward`` applies the field
by ``derivation_reference.composed_apply``, so no engine derivation code
runs in it.
"""

from functools import lru_cache

from derivation_reference import composed_apply
from superproj.errors import ContextError
from superproj.superpoly import SuperDerivation


def substitute(p, rules: dict, target):
    """Algebra homomorphism sending each variable to its image polynomial.

    Every variable of the source context needs a rule.  Negative even
    exponents require the image to be a unit (single-term body).
    """
    for name in p.ctx.even + p.ctx.odd:
        if name not in rules:
            raise ContextError(f"no substitution rule for {name!r}")
    out = target.zero()
    cache = {}

    def image_power(name, e):
        key = (name, e)
        if key not in cache:
            cache[key] = rules[name] ** e
        return cache[key]

    for (exps, mask), c in p.terms.items():
        term = target.scalar(c)
        for pos, e in enumerate(exps):
            if e:
                term = term * image_power(p.ctx.even[pos], e)
        for pos in range(len(p.ctx.odd)):
            if mask & (1 << pos):
                term = term * rules[p.ctx.odd[pos]]
        out = out + term
    return out


@lru_cache(maxsize=None)
def chart_rules(ctx_a, ctx_b):
    """(a_in_b, b_in_a): z1 = 1/w1, zj = wj/w1, ti = pi/w1 as rule dicts, each
    chart's variables written in the other chart.  Shared: never mutate."""
    (z1, *zs), (w1, *ws) = ctx_a.even, ctx_b.even
    w1_inv = ctx_b.var(w1).inverse()
    z1_inv = ctx_a.var(z1).inverse()
    a_in_b = {z1: w1_inv}
    b_in_a = {w1: z1_inv}
    for a, b in zip(zs + list(ctx_a.odd), ws + list(ctx_b.odd)):
        a_in_b[a] = ctx_b.var(b) * w1_inv
        b_in_a[b] = ctx_a.var(a) * z1_inv
    return a_in_b, b_in_a


def pushforward(field, ctx_b):
    """A chart-A derivation in chart-B coordinates: the coefficient of d/dv
    is the field applied to v written in chart A, substituted into chart B."""
    a_in_b, b_in_a = chart_rules(field.ctx, ctx_b)
    return SuperDerivation(ctx_b, field.parity, {
        name: substitute(composed_apply(field, b_in_a[name]), a_in_b, ctx_b)
        for name in ctx_b.even + ctx_b.odd
    })
