from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_reference import rational_value
from superproj.scalars import HALF, I, INV_SQRT2, ONE, SQRT2, ZERO, Scalar

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
scalars = st.builds(Scalar, rationals, rationals, rationals, rationals)


def test_constants():
    assert I * I == Scalar(-1)
    assert SQRT2 * SQRT2 == Scalar(2)
    assert INV_SQRT2 * SQRT2 == ONE
    assert HALF + HALF == ONE
    assert ZERO.is_zero()


def test_rational_predicates():
    assert Scalar(Fraction(3, 4)).is_rational()
    assert not I.is_rational()
    assert rational_value(Scalar(Fraction(3, 4))) == Fraction(3, 4)
    assert ONE.is_one() and (HALF + HALF).is_one()
    assert not (ZERO.is_one() or I.is_one() or Scalar(1, 1).is_one())
    with pytest.raises(ValueError):
        rational_value(I)


def test_inverse_examples():
    for x in (I, SQRT2, ONE + I, Scalar(2, 3, -1, 5), INV_SQRT2 + I):
        assert x * x.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division_and_pow():
    assert (ONE + I) / (ONE + I) == ONE
    assert I ** 4 == ONE
    assert SQRT2 ** -2 == HALF
    assert (ONE + I) ** 0 == ONE


def test_mixed_arithmetic_with_rationals():
    assert 1 + I - 1 == I
    assert Fraction(1, 2) * SQRT2 == INV_SQRT2
    assert 2 / SQRT2 == SQRT2


@pytest.mark.parametrize("q", [Fraction(-3, 4), Fraction(0), Fraction(5), Fraction(-6, 3),
                               Fraction(7, 9)])
def test_coerce_of_a_fraction_is_canonical(q):
    a, b = Scalar.coerce(q), Scalar(q)
    assert (a.n, a.d) == (b.n, b.d)


def test_str_and_json():
    assert str(ONE + I) == "1 + i"
    assert str(-SQRT2) == "-sqrt2"
    assert str(ZERO) == "0"


def test_immutable_and_hashable():
    s = Scalar(1, 2, 3, 4)
    with pytest.raises(AttributeError):
        s.c = None
    assert hash(Scalar(1)) == hash(ONE)


@given(scalars, scalars, scalars)
@settings(max_examples=150, deadline=None)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + ZERO == a and a * ONE == a


@given(scalars)
@settings(max_examples=150, deadline=None)
def test_inverse_law(a):
    if not a.is_zero():
        assert a * a.inverse() == ONE


def _canonical(x):
    n, d = x.n, x.d
    return (
        type(x) is Scalar and len(n) == 4 and type(d) is int and d > 0
        and all(type(v) is int for v in n) and gcd(*n, d) == 1
    )


operands = st.one_of(scalars, rationals, st.integers(-30, 30))


@given(rationals, rationals, rationals, st.integers(-30, 30))
@settings(max_examples=100, deadline=None)
def test_constructor_is_canonical(c0, c1, c2, k):
    for x in (Scalar(c0, c1, c2, k), Scalar(k), Scalar(c0), Scalar.coerce(c1),
              Scalar.coerce(k), Scalar()):
        assert _canonical(x)


@given(scalars, operands, st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_every_result_is_canonical(a, b, k):
    results = [a + b, b + a, a - b, b - a, a * b, b * a, -a]
    if not Scalar.coerce(b).is_zero():
        results += [a / b]
    if not a.is_zero():
        results += [b / a, a.inverse(), a ** k]
    results += [a ** abs(k)]
    for x in results:
        assert _canonical(x)


def test_equal_values_have_equal_hashes():
    halves = [Scalar(Fraction(2, 4)), ONE / 2, HALF, ONE - HALF, Scalar(3) / 6,
              SQRT2 * SQRT2 / 4, INV_SQRT2 * INV_SQRT2, (2 * ONE).inverse()]
    assert all(h == HALF for h in halves)
    assert {hash(h) for h in halves} == {hash(HALF)}
    assert {(h.n, h.d) for h in halves} == {((1, 0, 0, 0), 2)}
    units = [I * I * -1, ONE + I - I, (I / I), Scalar(Fraction(3, 3))]
    assert {hash(u) for u in units} == {hash(ONE)}
    assert ZERO == HALF - HALF and hash(ZERO) == hash(HALF - HALF)


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_c_is_the_value_as_four_fractions(c0, c1, c2, c3):
    c = Scalar(c0, c1, c2, c3).c
    assert c == (c0, c1, c2, c3)
    assert all(type(q) is Fraction for q in c)


def test_fields_cannot_be_assigned():
    s = Scalar(1, Fraction(1, 2))
    for name in ("n", "d", "c"):
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))
    assert (s.n, s.d) == ((2, 1, 0, 0), 2)


def test_zeta8_arithmetic_builds_no_fraction(monkeypatch):
    a = Scalar(Fraction(1, 3), 2, Fraction(-5, 7), 4)
    b = INV_SQRT2 + I * Fraction(3, 2)
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert Fraction(1, 2) and made == [(1, 2)]  # the counter is live
    made.clear()
    prod, inv = a * b, a.inverse()
    quot, total = a / b, a + b - 3
    text = str(prod)
    monkeypatch.undo()
    assert made == []
    assert prod * inv == b and quot * b == a and total == a + b - ONE * 3
    assert text == str(prod)


def test_difference_and_quotient_with_a_polynomial():
    # Scalar - SuperPolynomial falls through to the polynomial's reflected
    # operator, as + and * do; the polynomial has no reflected division
    from superproj.superpoly import pnm_transition

    w = pnm_transition(1, 1).ctx_b.var("w")
    assert I - w == -(w - I)
    assert HALF - w == -(w - HALF)
    with pytest.raises(TypeError, match="unsupported operand"):
        I / w
