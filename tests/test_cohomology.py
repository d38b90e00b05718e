import os
import subprocess
import sys
from math import comb

import pytest
from closed_form_reference import _coefficient as reference_coefficient
from closed_form_reference import bott_dim

import superproj
from superproj import cohomology
from superproj.cohomology import (
    DimPair,
    _coefficient,
    chi_closed,
    cohomology_dims,
    decompose,
    zeta_closed,
)
from superproj.errors import DomainError, InvariantError


def hn_variant_value(n: int, m: int) -> int:
    """A published variant expression for h^n(O) known to be inconsistent.

    Evaluates (1/n!) d^n/dx^n [(1 + (x+2)^m)/(x+1)] at 0.  At (n,m) = (1,2)
    this gives -1 while the correct value of h^1(O) is +1 (the sign of the
    subtracted constant differs); it is kept only so tests can flag the
    discrepancy.
    """
    return _coefficient(n, -1, 0) + _coefficient(n, -1, m)


def test_dimpair_ops():
    a = DimPair(2, 3)
    b = DimPair(1, 1)
    assert a + b == DimPair(3, 4)
    assert a - b == DimPair(1, 2)
    assert a * 2 == DimPair(4, 6)
    assert a.swap() == DimPair(3, 2)
    assert a.total == 5
    assert str(a) == "2|3"
    assert a.to_json() == [2, 3]
    with pytest.raises(ValueError):
        DimPair(-1, 0)


def test_decompose():
    assert decompose(1, 2, 0) == ((0, 0, 1), (-1, 1, 2), (-2, 0, 1))
    with pytest.raises(DomainError):
        decompose(0, 1, 0)


def test_bott_dim():
    assert bott_dim(1, 0) == {0: 1}
    assert bott_dim(1, -1) == {}
    assert bott_dim(1, -2) == {1: 1}
    assert bott_dim(3, 2) == {0: comb(5, 3)}
    assert bott_dim(2, -4) == {2: comb(3, 1)}


def test_cohomology_dims_are_the_bott_sums():
    # the int counts against the per-summand Bott numbers, added as DimPairs
    # degree by degree and parity by parity
    for n in range(1, 6):
        for m in range(9):
            for ell in range(-12, 13):
                want = {i: DimPair(0, 0) for i in range(n + 1)}
                for twist, parity, mult in decompose(n, m, ell):
                    for degree, d in bott_dim(n, twist).items():
                        pair = DimPair(d * mult, 0) if parity == 0 else DimPair(0, d * mult)
                        want[degree] += pair
                assert cohomology_dims(n, m, ell) == want, (n, m, ell)


def test_zeta_tail_stops_at_m():
    # the tail summed over every k <= ell: the terms past m vanish
    for n in range(1, 5):
        for m in range(7):
            for ell in range(-3, 12):
                tail = sum(comb(m, k) * _coefficient(n, k - ell - 1, 0) for k in range(ell + 1))
                assert zeta_closed(n, m, ell) == _coefficient(n, -ell - 1, m) - tail


def test_cohomology_dims_classical():
    dims = cohomology_dims(1, 0, 3)
    assert dims[0] == DimPair(4, 0) and dims[1] == DimPair(0, 0)
    dims = cohomology_dims(1, 0, -3)
    assert dims[0] == DimPair(0, 0) and dims[1] == DimPair(2, 0)


def test_cohomology_dims_super():
    dims = cohomology_dims(1, 2, 0)
    assert dims[0] == DimPair(1, 0)
    assert dims[1] == DimPair(1, 0)  # from the twist -2 summand
    dims = cohomology_dims(1, 3, -1)
    assert dims[1].total == comb(3, 1) * 4


def test_special_value_minus_one():
    for n in range(1, 5):
        for m in range(n, 7):
            assert cohomology_dims(n, m, -1)[n].total == comb(m, n) * 2 ** (m - n)


def test_chi_zeta_regimes():
    # h^0 totals: m < ell, then 0 <= ell <= m <= ell + n
    assert chi_closed(1, 0, 3) == 4
    assert chi_closed(2, 2, 1) == cohomology_dims(2, 2, 1)[0].total
    # h^n totals: ell + n + 1 <= 0, then ell + n + 1 > 0
    assert zeta_closed(1, 0, -3) == 2
    assert zeta_closed(1, 2, 0) == 1


def test_closed_forms_check_dimensions_first():
    # checked before any regime is chosen: (0, 5, 1) is in no chi regime
    for n, m in ((0, 5), (0, 1), (1, -1), (3, -2)):
        for ell in (-4, 1, 7):
            with pytest.raises(DomainError, match=r"^need n >= 1 and m >= 0$"):
                chi_closed(n, m, ell)
            with pytest.raises(DomainError, match=r"^need n >= 1 and m >= 0$"):
                zeta_closed(n, m, ell)


def test_non_integer_chi_is_an_invariant(monkeypatch):
    # a fraction from the m >= ell regime is an engine fault, not bad input
    monkeypatch.setattr(cohomology, "_coefficient", lambda k, a, b: 1)
    with pytest.raises(InvariantError, match="non-integer 6/4"):
        chi_closed(2, 3, 2)


def test_coefficient_matches_fraction_series():
    for k in range(12):
        for a in range(-15, 15):
            for b in range(10):
                value = _coefficient(k, a, b)
                assert type(value) is int, (k, a, b)
                assert value == reference_coefficient(k, a, b), (k, a, b)


def test_coefficient_rejects_negative_b():
    with pytest.raises(DomainError):
        _coefficient(2, 3, -1)
    with pytest.raises(DomainError):
        _coefficient(0, 0, -1)


def test_chi_zeta_returns_int_in_every_regime():
    for closed, n, m, ell in ((chi_closed, 2, 1, 3), (chi_closed, 2, 3, 2),
                              (zeta_closed, 2, 3, -4), (zeta_closed, 2, 3, 1)):
        assert type(closed(n, m, ell)) is int, (closed.__name__, n, m, ell)


def test_closed_forms_match_sums_grid():
    for n in range(1, 6):
        for m in range(9):
            for ell in range(-12, 13):
                dims = cohomology_dims(n, m, ell)
                chi = chi_closed(n, m, ell)
                if chi is not None:
                    assert chi == dims[0].total, (n, m, ell)
                assert zeta_closed(n, m, ell) == dims[n].total, (n, m, ell)


def test_hn_variant_is_inconsistent_at_1_2():
    assert hn_variant_value(1, 2) == -1
    assert cohomology_dims(1, 2, 0)[1].total == 1


# -- sympy as an independent reference for the closed forms -----------------


@pytest.fixture(scope="module")
def sympy_forms():
    """The derivative closed forms as symbolic expressions, differentiated by
    sympy: (n, m, ell) -> {regime: value} over the regimes that apply, one of
    "chi_m_lt_l" and "chi_m_ge_l" (or neither) and one of "zeta_le" and
    "zeta_gt"."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def derivative_at_zero(expr, order):
        val = sympy.nsimplify(sympy.together(sympy.diff(expr, x, order).subs(x, 0)))
        return sympy.Rational(val)

    def forms(n, m, ell):
        fact_n = sympy.factorial(n)
        out = {}
        if m < ell:
            expr = (x + 1) ** (ell + n - m) * (x + 2) ** m / fact_n
            out["chi_m_lt_l"] = derivative_at_zero(expr, n)
        if 0 <= ell <= m <= ell + n:
            expr = (sympy.factorial(m) / (fact_n * sympy.factorial(ell))
                    * (x + 1) ** n * (x + 2) ** ell)
            out["chi_m_ge_l"] = derivative_at_zero(expr, ell + n - m)
        if ell + n + 1 <= 0:
            expr = (x + 1) ** (-ell - 1) * (x + 2) ** m / fact_n
            out["zeta_le"] = derivative_at_zero(expr, n)
        else:
            tail = sum(sympy.binomial(m, k) * (x + 1) ** k for k in range(ell + 1))
            expr = (x + 1) ** (-ell - 1) * ((x + 2) ** m - tail) / fact_n
            out["zeta_gt"] = derivative_at_zero(expr, n)
        return out

    def hn_variant(n, m):
        expr = (1 + (x + 2) ** m) / (x + 1) / sympy.factorial(n)
        return derivative_at_zero(expr, n)

    return forms, hn_variant


def test_closed_forms_match_sympy(sympy_forms):
    forms, _ = sympy_forms
    for n in range(1, 5):
        for m in range(6):
            for ell in range(-6, 7):
                expected = forms(n, m, ell)
                chi = [v for k, v in expected.items() if k.startswith("chi")]
                zeta = [v for k, v in expected.items() if k.startswith("zeta")]
                assert len(chi) <= 1 and len(zeta) == 1, (n, m, ell)
                assert chi_closed(n, m, ell) == (chi[0] if chi else None), (n, m, ell)
                assert zeta_closed(n, m, ell) == zeta[0], (n, m, ell)


def test_hn_variant_matches_sympy(sympy_forms):
    _, hn_variant = sympy_forms
    for n in range(1, 5):
        for m in range(7):
            assert hn_variant_value(n, m) == hn_variant(n, m), (n, m)


def test_import_loads_no_sympy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(superproj.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, superproj; print(sorted(k for k in sys.modules"
            " if k.split('.')[0] in ('sympy', 'mpmath')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    assert out.stdout.strip() == "[]"
