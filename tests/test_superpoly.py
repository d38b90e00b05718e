import random
from fractions import Fraction

import pytest

from derivation_reference import composed_apply, composed_bracket
from substitution_reference import chart_rules, pushforward, substitute
from superproj.cech import standard_transition
from superproj.errors import ContextError, DomainError, ParityError
from superproj.scalars import I, ONE, Scalar
from superproj.superpoly import (
    ChartTransition,
    Context,
    SuperDerivation,
    SuperPolynomial,
    koszul_sign,
    mask_parity,
    pnm_transition,
    super_exp,
    super_log,
)


@pytest.fixture
def ctx():
    return Context(("z",), ("t1", "t2", "t3"))


def test_koszul_sign_and_parity(ctx):
    assert (ctx.var("t1") + ctx.one()).parity() is None
    assert mask_parity(0b101) == 0
    assert mask_parity(0b1) == 1
    assert koszul_sign(0b1, 0b10) == 1
    assert koszul_sign(0b10, 0b1) == -1
    assert koszul_sign(0b11, 0b11) == 0  # overlapping masks never multiply


def test_odd_squares_vanish(ctx):
    t1 = ctx.var("t1")
    assert (t1 * t1).is_zero()


def test_anticommutation(ctx):
    t1, t2 = ctx.var("t1"), ctx.var("t2")
    assert t1 * t2 == -(t2 * t1)


def test_var_unknown(ctx):
    with pytest.raises(ContextError):
        ctx.var("nope")


def test_laurent_product(ctx):
    z = ctx.var("z")
    zi = ctx.monomial(1, (-1,), 0)
    assert z * zi == ctx.one()


def test_partial_even(ctx):
    z = ctx.var("z")
    p = z * z * ctx.var("t1")
    assert p.partial("z") == z * ctx.var("t1") * 2


def test_partial_odd_left_action(ctx):
    t1, t2 = ctx.var("t1"), ctx.var("t2")
    p = t1 * t2
    assert p.partial("t1") == t2
    assert p.partial("t2") == -t1


def test_inverse_unit(ctx):
    u = ctx.one() + ctx.var("t1") * ctx.var("t2")
    assert u * u.inverse() == ctx.one()
    with pytest.raises(DomainError):
        (ctx.one() + ctx.var("z")).inverse()
    with pytest.raises(DomainError):
        ctx.var("t1").inverse()  # no body at all
    with pytest.raises(ParityError):
        (ctx.var("z") + ctx.var("t1")).inverse()  # inhomogeneous


def test_exp_log_round_trip(ctx):
    n = ctx.var("t1") * ctx.var("t2") + ctx.monomial(I, (-2,), 0b101)
    g = super_exp(n)
    c, back = super_log(g)
    assert c == ONE and back == n
    with pytest.raises(DomainError):
        super_exp(ctx.var("z"))
    with pytest.raises(DomainError):
        super_log(ctx.var("z"))  # non-constant body


def test_substitute_roundtrip():
    tr = pnm_transition(1, 2)
    z = tr.ctx_a.var("z")
    there = tr.to_b(z)
    back = tr.to_a(there)
    assert back == z


def test_p1m_chart_map_rules():
    tr = pnm_transition(1, 2)
    w = tr.ctx_b
    assert tr.to_b(tr.ctx_a.var("z")) == w.monomial(1, (-1,), 0)
    # theta_i = psi_i / w
    assert tr.to_b(tr.ctx_a.var("t1")) == w.monomial(1, (-1,), 0b1)


def test_pnm_transition_roundtrip():
    tr = pnm_transition(2, 2)
    for name in tr.ctx_a.even + tr.ctx_a.odd:
        v = tr.ctx_a.var(name)
        assert tr.to_a(tr.to_b(v)) == v


def test_one_shared_chart_pair_per_n_m():
    for m in range(4):
        tr = pnm_transition(1, m)
        assert pnm_transition(1, m) is tr
        assert standard_transition(m) is tr
        assert tr.ctx_a.even == ("z",) and tr.ctx_b.even == ("w",)
    assert pnm_transition(2, 1).ctx_a.even == ("z1", "z2")


def test_chart_builder_rejects_bad_dimensions():
    with pytest.raises(DomainError):
        pnm_transition(0, 2)
    with pytest.raises(DomainError):
        pnm_transition(1, -1)


def test_transition_validation():
    # the chart map needs the same, nonzero number of even variables and the
    # same number of odd variables on both charts
    for even_b, odd_b in ((("w",), ()), (("w1", "w2"), ("p1",)), ((), ("p1",))):
        with pytest.raises(DomainError):
            ChartTransition(Context(("z",), ("t1",)), Context(even_b, odd_b))
    with pytest.raises(DomainError):
        ChartTransition(Context((), ("t1",)), Context((), ("p1",)))


def _random_laurent(rng, ctx):
    """A few terms, each even variable with a negative exponent in one."""
    n, m = len(ctx.even), len(ctx.odd)
    p = ctx.zero()
    for k in range(n + rng.randint(1, 4)):
        exps = [rng.randint(-3, 3) for _ in range(n)]
        if k < n:
            exps[k] = rng.randint(-4, -1)
        coeff = Scalar.coerce(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)))
        if rng.random() < 0.3:
            coeff = coeff * I
        p = p + ctx.monomial(coeff, exps, rng.randrange(1 << m))
    return p


def test_chart_map_matches_substitution():
    rng = random.Random(15)
    for n in range(1, 4):
        for m in range(5):
            tr = pnm_transition(n, m)
            a_in_b, b_in_a = chart_rules(tr.ctx_a, tr.ctx_b)
            for _ in range(10):
                p = _random_laurent(rng, tr.ctx_a)
                assert tr.to_b(p) == substitute(p, a_in_b, tr.ctx_b), (n, m, p)
                q = _random_laurent(rng, tr.ctx_b)
                assert tr.to_a(q) == substitute(q, b_in_a, tr.ctx_a), (n, m, q)


def test_chart_map_multiplies_nothing(monkeypatch):
    tr = pnm_transition(2, 3)
    p = _random_laurent(random.Random(3), tr.ctx_a)
    calls = []
    for name in ("__mul__", "inverse"):
        real = getattr(SuperPolynomial, name)

        def counted(self, *args, _name=name, _real=real):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(SuperPolynomial, name, counted)
    fresh = pnm_transition.__wrapped__(2, 3)
    assert fresh.to_a(fresh.to_b(p)) == p
    assert calls == []


def test_chart_map_rejects_the_wrong_chart():
    tr = pnm_transition(1, 2)
    for wrong in (tr.ctx_b.var("w"), pnm_transition(1, 3).ctx_a.var("z")):
        with pytest.raises(ContextError):
            tr.to_b(wrong)
    for wrong in (tr.ctx_a.var("t1"), pnm_transition(2, 2).ctx_b.var("w1")):
        with pytest.raises(ContextError):
            tr.to_a(wrong)


def test_pushforward_matches_substitution():
    rng = random.Random(7)
    for n, m in ((1, 2), (2, 2), (3, 1)):
        tr = pnm_transition(n, m)
        ctx = tr.ctx_a
        for _ in range(5):
            mask = rng.randrange(1 << m)
            name = rng.choice(ctx.even + ctx.odd)
            parity = mask_parity(mask) ^ (name in ctx.odd)
            exps = [rng.randint(-2, 2) for _ in ctx.even]
            field = SuperDerivation(ctx, parity, {name: ctx.monomial(1, exps, mask)})
            assert field.pushforward(tr) == pushforward(field, tr.ctx_b), (n, m, field)


def _random_scalar(rng):
    if rng.random() < 0.5:
        return Scalar(Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.randint(1, 3)))
    return Scalar(*(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(4)))


def _random_poly(rng, ctx, parity=None, terms=3):
    """A few Laurent terms, of one parity unless ``parity`` is None."""
    masks = [
        mask for mask in range(1 << len(ctx.odd))
        if parity is None or mask_parity(mask) == parity
    ]
    out = ctx.zero()
    for _ in range(rng.randint(1, terms) if masks else 0):
        exps = [rng.randint(-2, 2) for _ in ctx.even]
        out = out + ctx.monomial(_random_scalar(rng), exps, rng.choice(masks))
    return out


def _random_field(rng, ctx, parity):
    names = ctx.even + ctx.odd
    return SuperDerivation(ctx, parity, {
        name: _random_poly(rng, ctx, parity ^ (name in ctx.odd), terms=2)
        for name in rng.sample(names, rng.randint(1, min(3, len(names))))
    })


def test_derivation_calculus_matches_composed_reference():
    # apply, bracket and pushforward against the composed reference, on
    # charts with 1-3 even and 0-4 odd variables, Laurent exponents, Q(zeta8)
    # coefficients and all four parity pairs, plus a 9|2 context with no
    # chart: z and eight formal even parameters a1..a8
    rng = random.Random(20)
    cases = [(pnm_transition(n, m), pnm_transition(n, m).ctx_a)
             for n in (1, 2, 3) for m in range(5)]
    params = tuple(f"a{i}" for i in range(1, 9))
    cases.append((None, Context(("z",) + params, ("t1", "t2"))))
    for tr, ctx in cases:
        for px in (0, 1):
            for py in (0, 1):
                x, y = _random_field(rng, ctx, px), _random_field(rng, ctx, py)
                p = _random_poly(rng, ctx)
                assert x.apply(p) == composed_apply(x, p), (ctx, x, p)
                assert x.bracket(y) == composed_bracket(x, y), (ctx, x, y)
                if tr is not None:
                    assert x.pushforward(tr) == pushforward(x, tr.ctx_b), (ctx, x)


def test_apply_checks_the_context():
    # apply, __init__, __add__ and bracket each name both contexts
    ctx_a, ctx_b = pnm_transition(1, 2).ctx_a, pnm_transition(1, 2).ctx_b
    on_b = SuperDerivation(ctx_b, 0, {"w": ctx_b.var("w")})
    for field in (
        SuperDerivation(ctx_a, 0, {}),
        SuperDerivation(ctx_a, 0, {"z": ctx_a.var("z")}),
    ):
        for act in (
            lambda: field.apply(ctx_b.var("w")),
            lambda: field + on_b,
            lambda: field.bracket(on_b),
        ):
            with pytest.raises(ContextError) as err:
                act()
            assert repr(ctx_a) in str(err.value) and repr(ctx_b) in str(err.value)
    with pytest.raises(ContextError) as err:
        SuperDerivation(ctx_a, 0, {"z": ctx_b.var("w")})
    assert repr(ctx_a) in str(err.value) and repr(ctx_b) in str(err.value)


def test_derivation_parity_validation(ctx):
    with pytest.raises(ParityError):
        SuperDerivation(ctx, 1, {"z": ctx.one()})  # odd D needs odd d/dz coeff
    with pytest.raises(ParityError):
        SuperDerivation(ctx, 1, {"t1": ctx.var("t2")})  # odd D needs even d/dt coeff


def test_derivation_apply_leibniz(ctx):
    d = SuperDerivation(ctx, 1, {"z": ctx.var("t1"), "t2": ctx.one()})
    a = ctx.var("z") * ctx.var("t2")
    b = ctx.var("t1")
    lhs = d.apply(a * b)
    rhs = d.apply(a) * b + a * d.apply(b) * Scalar(-1 if a.parity() else 1)
    assert lhs == rhs


def test_bracket_antisymmetry(ctx):
    x = SuperDerivation(ctx, 1, {"z": ctx.var("t1")})
    y = SuperDerivation(ctx, 1, {"t1": ctx.one()})
    assert x.bracket(y) == y.bracket(x)  # odd-odd anticommutator is symmetric
    e = SuperDerivation(ctx, 0, {"z": ctx.var("z")})
    assert e.bracket(x) == -(x.bracket(e))


def test_odd_odd_bracket_value(ctx):
    d1 = SuperDerivation(ctx, 1, {"t1": ctx.one(), "z": ctx.var("t2")})
    d2 = SuperDerivation(ctx, 1, {"t2": ctx.one(), "z": ctx.var("t1")})
    anti = d1.bracket(d2)
    assert anti == SuperDerivation(ctx, 0, {"z": ctx.one() * 2})


def test_zero_derivations_of_either_parity_hash_alike(ctx):
    # the zero of either parity is one derivation: equal, so one hash
    a, b = SuperDerivation(ctx, 0, {}), SuperDerivation(ctx, 1, {})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_pushforward_global_field():
    tr = pnm_transition(1, 1)
    ctx = tr.ctx_a
    d = SuperDerivation(ctx, 0, {"z": ctx.one()})  # d/dz
    pushed = d.pushforward(tr)
    w = tr.ctx_b
    assert pushed.coefficient("w") == -(w.var("w") ** 2)


def test_vectorize_and_str(ctx):
    d = SuperDerivation(ctx, 0, {"z": ctx.var("z")})
    vec = d.vectorize()
    assert vec == {("z", (1,), 0): ONE}
    assert "d/dz" in str(d)
