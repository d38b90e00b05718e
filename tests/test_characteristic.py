import pytest

from superproj.characteristic import (
    berezinian_twist,
    characteristic_report,
    characteristic_report_json,
    de_rham_dim,
    is_calabi_yau,
    super_c1,
    topological_twist,
    topological_twists_isomorphic,
)
from superproj.errors import DomainError


def test_twist_routes_agree():
    for n in range(1, 5):
        for m in range(7):
            assert berezinian_twist(n, m) == m - n - 1 == -super_c1(n, m)


def test_super_c1():
    assert super_c1(3, 0) == 4  # classical anticanonical degree of P^3
    assert super_c1(1, 2) == 0
    assert super_c1(2, 5) == -2


def test_calabi_yau_iff_m_is_n_plus_1():
    assert is_calabi_yau(1, 2)
    assert is_calabi_yau(3, 4)
    assert not is_calabi_yau(1, 1)
    assert not is_calabi_yau(2, 2)


def test_de_rham_table():
    assert de_rham_dim(2, 3, 2, 1) == 3
    assert de_rham_dim(2, 3, 1, 1) == 0  # odd i
    assert de_rham_dim(2, 3, 6, 0) == 0  # beyond 2n
    assert de_rham_dim(1, 2, 0, 2) == 1


def test_report_row_sums():
    for n in (1, 2, 3):
        for m in (0, 2, 4):
            rep = characteristic_report(n, m)
            for i in range(0, 2 * n + 1, 2):
                assert rep.de_rham_row_sum(i) == 2 ** m


def test_report_examples():
    rep = characteristic_report(3, 4)
    assert rep.berezinian_twist == 0 and rep.calabi_yau
    rep = characteristic_report(1, 2)
    assert rep.calabi_yau and rep.super_c1 == 0
    rep = characteristic_report(3, 0)
    assert rep.berezinian_twist == -4 and rep.super_c1 == 4
    with pytest.raises(DomainError):
        characteristic_report(0, 1)


def test_topological_twists():
    assert topological_twist("+") == (0, -2)
    assert topological_twist("-") == (-2, 0)
    assert topological_twists_isomorphic()
    with pytest.raises(DomainError):
        topological_twist("x")


def test_json_shape():
    rep = characteristic_report_json(1, 2)
    assert rep["schema"] == 1
    assert rep["topological_twists"]["isomorphic"] is True
    assert {tuple(e.values()) for e in rep["de_rham"]} == {
        (0, 0, 1), (0, 1, 2), (0, 2, 1), (2, 0, 1), (2, 1, 2), (2, 2, 1),
    }
