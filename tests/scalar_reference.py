"""Reading a ``Scalar`` as a ``Fraction``, for tests that compare with int
or ``Fraction`` arithmetic.  No engine path needs it."""

from fractions import Fraction


def rational_value(x) -> Fraction:
    if not x.is_rational():
        raise ValueError(f"{x} is not rational")
    return Fraction(x.n[0], x.d)
