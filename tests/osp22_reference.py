"""The osp(2|2) check by direct brackets, as a reference for the engine's.

``superlie.verify_osp22`` reads every equation off the structure tensor of
the eight U/Sigma fields.  ``direct_osp22`` checks the same 58 equations the
way the engine did before: each left side is bracketed directly on the
standard fields, the conformal ones included (over Q(zeta_8)), and compared
with its right side as a ``vectorize`` dict; the four computed-only [K, .]
values are expressed against the conformal fields' own vectors.
``tests/test_superlie.py`` compares the two routes entry by entry.
"""

from superproj.linalg import span_eliminator
from superproj.scalars import Scalar
from superproj.superlie import (
    CONFORMAL_CHANGE,
    U_SIGMA_TABLE,
    conformal_basis,
    conformal_equations,
    standard_fields,
)


def combo_matches(fields, combo, actual) -> bool:
    """Whether ``actual`` is sum c * fields[name] over ``combo``, compared as
    ``vectorize`` dicts: a derivation's coefficients hold no zero term, and
    nonzero ones fix its parity, so equal vectors are equal derivations."""
    expected = {}
    for name, c in combo.items():
        c = Scalar.coerce(c)
        for key, v in fields[name].vectorize().items():
            prev = expected.get(key)
            expected[key] = v * c if prev is None else prev + v * c
    return {k: v for k, v in expected.items() if not v.is_zero()} == actual.vectorize()


def direct_osp22():
    """(entries, computed_only) as ``verify_osp22`` reports them, every
    bracket taken directly (62 of them)."""
    f = {**standard_fields(), **conformal_basis().elements}
    table = [(f"[{a},{b}]", (a, b), combo) for (a, b), combo in U_SIGMA_TABLE.items()]
    entries = [
        (label, combo_matches(f, combo, f[a].bracket(f[b])))
        for label, (a, b), combo in table + conformal_equations()
    ]
    names = list(CONFORMAL_CHANGE)
    elim = span_eliminator([f[n].vectorize() for n in names])
    computed_only = []
    for i in (1, 2):
        for target in (f"Q{i}", f"S{i}"):
            combo = elim.express(f["K"].bracket(f[target]).vectorize())
            rendered = " + ".join(
                f"({c})*{names[k]}" for k, c in sorted(combo.items())
            ) if combo else "0"
            computed_only.append((f"[K,{target}]", rendered))
    return entries, computed_only
