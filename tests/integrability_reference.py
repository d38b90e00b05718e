"""The N=2 integrability conditions by squaring a formal odd field, as a
reference for the engine's.

``superlie.integrability_conditions`` reads the conditions off the Xi-Xi
brackets expressed in the V basis.  ``bucketed_conditions`` squares the
general odd field D = sum a_i Xi_i the way the engine did before: in the
chart (z, a1..a8; t1, t2), with the parameters adjoined as even variables,
the coefficients of D^2 = [D, D]/2 are bucketed by geometric monomial
(coordinate field, z power, odd mask).  Each bucket is a polynomial in
a1..a8; scaled to lead coefficient 1 it is a condition, and a repeat is
dropped.  ``tests/test_superlie.py`` compares the two routes.
"""

from superproj.scalars import HALF, Scalar
from superproj.superlie import ALPHA_NAMES, ansatz_context, standard_fields
from superproj.superpoly import Context, SuperDerivation, SuperPolynomial


def general_odd_section() -> SuperDerivation:
    """D = sum over i of a_i * Xi_i in the chart (z, a1..a8; t1, t2)."""
    ctx = Context(("z",) + ALPHA_NAMES, ("t1", "t2"))
    f = standard_fields()
    total = SuperDerivation(ctx, 1, {})
    for i in range(1, 9):
        a_i = tuple(int(k == i) for k in range(1, 9))  # the exponents of a_i
        total = total + SuperDerivation(ctx, 1, {
            v: SuperPolynomial(
                ctx, {(exps + a_i, mask): c for (exps, mask), c in p.terms.items()}
            )
            for v, p in f[f"Xi{i}"].coeffs.items()
        })
    return total


def bucketed_conditions() -> list:
    """The distinct conditions, polynomials in ``ansatz_context()``, in the
    order their buckets first appear in D^2."""
    d = general_odd_section()
    square = d.bracket(d) * HALF
    buckets = {}
    for var, poly in square.coeffs.items():
        for (exps, mask), c in poly.terms.items():
            bucket = buckets.setdefault((var, exps[:1], mask), {})
            key = (exps[1:], 0)
            bucket[key] = bucket.get(key, Scalar(0)) + c
    ctx = ansatz_context()
    out = []
    for bucket in buckets.values():
        terms = {k: v for k, v in bucket.items() if not v.is_zero()}
        if not terms:
            continue
        scale = terms[min(terms)].inverse()
        condition = SuperPolynomial(ctx, {k: v * scale for k, v in terms.items()})
        if condition not in out:
            out.append(condition)
    return out
