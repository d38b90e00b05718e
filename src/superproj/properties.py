"""Randomized algebraic law suites, seed-reproducible.

Each suite is a one-case law: one loop draws its cases from a
``random.Random`` seeded by the caller, counts the failed ones and returns a
report dict.  Suites are independent and runnable standalone.  The default
volume is 1000 cases per suite.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .cech import CechWindow, TransitionSheaf, cech_cohomology
from .scalars import I, SQRT2, Scalar
from .superpoly import (
    Context,
    SuperDerivation,
    SuperPolynomial,
    mask_parity,
    pnm_transition,
    super_exp,
    super_log,
)

DEFAULT_CASES = 1000


def _random_scalar(rng: random.Random) -> Scalar:
    kind = rng.randrange(6)
    q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if kind == 0:
        return I * q
    if kind == 1:
        return SQRT2 * q
    base = q if q != 0 else Fraction(1)
    return Scalar.coerce(base)


def random_poly(rng: random.Random, ctx: Context, parity=None,
                max_exp: int = 2, max_terms: int = 3):
    """A random superpolynomial, homogeneous when parity is given."""
    m = len(ctx.odd)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mask = rng.randrange(1 << m)
        if parity is not None and mask_parity(mask) != parity:
            continue
        exps = tuple(rng.randint(0, max_exp) for _ in ctx.even)
        c = _random_scalar(rng)
        if c.is_zero():
            continue
        terms[(exps, mask)] = terms.get((exps, mask), Scalar(0)) + c
    terms = {k: v for k, v in terms.items() if not v.is_zero()}
    return SuperPolynomial(ctx, terms)


def random_derivation(rng: random.Random, ctx: Context, parity: int,
                      max_exp: int = 2) -> SuperDerivation:
    coeffs = {}
    for name in ctx.even:
        if rng.random() < 0.7:
            coeffs[name] = random_poly(rng, ctx, parity, max_exp, 2)
    for name in ctx.odd:
        if rng.random() < 0.7:
            coeffs[name] = random_poly(rng, ctx, parity ^ 1, max_exp, 2)
    return SuperDerivation(ctx, parity, coeffs)


def _sign(p: int, q: int) -> int:
    return -1 if p & q & 1 else 1


_CONTEXTS = (
    Context(("z",), ("t1", "t2")),
    Context(("z",), ("t1", "t2", "t3")),
    Context(("x", "y"), ("t1", "t2")),
)


def _count_failures(name: str, law, seed: int, cases: int) -> dict:
    """The report of ``cases`` cases of a one-case law.

    The law draws one case from ``random.Random(seed)``, shared by all the
    cases, and returns whether it holds.
    """
    rng = random.Random(seed)
    failures = sum(not law(rng) for _ in range(cases))
    return {"suite": name, "cases": cases, "failures": failures}


def _law_suite(law):
    """The suite ``(seed, cases) -> report`` of a one-case law."""
    name = law.__name__.removeprefix("suite_")

    def suite(seed: int, cases: int = DEFAULT_CASES) -> dict:
        return _count_failures(name, law, seed, cases)
    suite.__name__ = suite.__qualname__ = law.__name__
    suite.__doc__ = law.__doc__
    return suite


@_law_suite
def suite_sign_laws(rng: random.Random) -> bool:
    """Supercommutativity and associativity of the graded product."""
    ctx = rng.choice(_CONTEXTS)
    pa, pb = rng.randrange(2), rng.randrange(2)
    a = random_poly(rng, ctx, pa)
    b = random_poly(rng, ctx, pb)
    c = random_poly(rng, ctx, rng.randrange(2), max_terms=2)
    return a * b == (b * a) * Scalar(_sign(pa, pb)) and (a * b) * c == a * (b * c)


@_law_suite
def suite_jacobi(rng: random.Random) -> bool:
    """Graded Jacobi identity for derivation brackets."""
    ctx = rng.choice(_CONTEXTS)
    px, py, pz = (rng.randrange(2) for _ in range(3))
    x = random_derivation(rng, ctx, px, max_exp=1)
    y = random_derivation(rng, ctx, py, max_exp=1)
    z = random_derivation(rng, ctx, pz, max_exp=1)
    lhs = x.bracket(y.bracket(z))
    rhs = x.bracket(y).bracket(z) + y.bracket(x.bracket(z)) * Scalar(
        _sign(px, py)
    )
    return lhs == rhs


@_law_suite
def suite_leibniz(rng: random.Random) -> bool:
    """Graded Leibniz rule for derivations on products."""
    ctx = rng.choice(_CONTEXTS)
    pd, pa = rng.randrange(2), rng.randrange(2)
    d = random_derivation(rng, ctx, pd)
    a = random_poly(rng, ctx, pa)
    b = random_poly(rng, ctx)
    lhs = d.apply(a * b)
    rhs = d.apply(a) * b + a * d.apply(b) * Scalar(_sign(pd, pa))
    return lhs == rhs


def _random_unit(rng: random.Random, ctx, depth: int,
                 body_range=(-1, 1), nil_range=None):
    """A random even unit c*x^k*(1 + nilpotent) in the given chart.

    The default ranges give Laurent units (transition functions on the
    overlap); chart-regular frame changes need body_range=(0, 0) and
    nil_range=(0, depth).
    """
    m = len(ctx.odd)
    k = rng.randint(*body_range)
    c = rng.choice([1, -1, 2, Fraction(1, 2)])
    w = ctx.monomial(c, (k,), 0)
    nil = ctx.zero()
    lo, hi = nil_range if nil_range is not None else (-depth, depth)
    for _ in range(rng.randint(0, 2)):
        mask = rng.randrange(1, 1 << m)
        if mask_parity(mask) != 0:
            continue
        e = rng.randint(lo, hi)
        nil = nil + ctx.monomial(_random_scalar(rng), (e,), mask)
    return w * (ctx.one() + nil)


@_law_suite
def suite_stabilization(rng: random.Random) -> bool:
    """Cech dims agree between the stabilized window and a larger one."""
    m = rng.choice([2, 2, 3])
    ctx = pnm_transition(1, m).ctx_b
    sheaf = TransitionSheaf(m, _random_unit(rng, ctx, 2))
    res = cech_cohomology(sheaf, want_generators=False)
    bigger = cech_cohomology(
        sheaf, CechWindow(res.window_used.D + 2), want_generators=False
    )
    return (res.h0, res.h1) == (bigger.h0, bigger.h1)


@_law_suite
def suite_iso_invariance(rng: random.Random) -> bool:
    """Cech dims are invariant under coboundary twists of the transition."""
    m = rng.choice([2, 2, 3])
    tr = pnm_transition(1, m)
    sheaf = TransitionSheaf(m, _random_unit(rng, tr.ctx_b, 1))
    p_unit = _random_unit(rng, tr.ctx_a, 2, body_range=(0, 0), nil_range=(0, 2))
    q_unit = _random_unit(rng, tr.ctx_b, 2, body_range=(0, 0), nil_range=(0, 2))
    twisted = TransitionSheaf(
        m, q_unit * sheaf.W * tr.to_b(p_unit).inverse()
    )
    a = cech_cohomology(sheaf, want_generators=False)
    b = cech_cohomology(twisted, want_generators=False)
    return (a.h0, a.h1) == (b.h0, b.h1)


def random_even_nilpotent(rng: random.Random, ctx: Context, depth: int):
    """A random even nilpotent Laurent element (every term has odd content)."""
    m = len(ctx.odd)
    out = ctx.zero()
    for _ in range(rng.randint(1, 4)):
        mask = rng.randrange(1, 1 << m)
        if mask_parity(mask) != 0:
            continue
        exps = tuple(rng.randint(-depth, depth) for _ in ctx.even)
        out = out + ctx.monomial(_random_scalar(rng), exps, mask)
    return out


def exp_log_round_trips(seed: int, cases: int = 500, m_max: int = 6,
                        depth_max: int = 3) -> dict:
    """exp then log and log then exp, both exact, on random nilpotents."""

    def law(rng: random.Random) -> bool:
        m = rng.randint(2, m_max)
        ctx = Context(("w",), tuple(f"p{i}" for i in range(1, m + 1)))
        n = random_even_nilpotent(rng, ctx, rng.randint(0, depth_max))
        c, back = super_log(super_exp(n))
        if c != Scalar(1) or back != n:
            return False
        scale = Scalar.coerce(rng.choice([1, -1, 2, Fraction(3, 2)]))
        unit = (ctx.one() + n) * scale
        c2, logged = super_log(unit)
        return super_exp(logged) * c2 == unit

    return _count_failures("exp_log", law, seed, cases)


ALL_SUITES = (
    suite_sign_laws,
    suite_jacobi,
    suite_leibniz,
    suite_stabilization,
    suite_iso_invariance,
)


def run_all(seed: int = 0, cases: int = DEFAULT_CASES) -> list:
    """Reports of every suite at one seed and volume.

    The suites are deterministic in (seed, cases), so each pair is computed
    once per process; every call returns fresh report dicts.
    """
    return [dict(report) for report in _run_all(seed, cases)]


@lru_cache(maxsize=None)
def _run_all(seed: int, cases: int) -> tuple:
    return tuple(suite(seed, cases) for suite in ALL_SUITES)
