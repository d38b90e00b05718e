from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert Scalar(Fraction(3, 4)).rational_value() == Fraction(3, 4)
    assert ONE.is_one() and (HALF + HALF).is_one()
    assert not (ZERO.is_one() or I.is_one() or Scalar(1, 1).is_one())
    with pytest.raises(ValueError):
        I.rational_value()


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


def test_str_and_json():
    assert str(ONE + I) == "1 + i"
    assert str(-SQRT2) == "-sqrt2"
    assert str(ZERO) == "0"
    assert Scalar(Fraction(1, 2)).to_json() == ["1/2", "0", "0", "0"]


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
