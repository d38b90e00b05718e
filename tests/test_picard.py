import json
from math import comb

import pytest

from superproj import picard
from superproj.cech import TransitionSheaf, cech_cohomology, standard_transition
from superproj.cli import main
from superproj.errors import DomainError
from superproj.picard import (
    continuous_dim_formula,
    continuous_generators,
    even_picard,
    normal_form,
    normal_form_product,
    pi_picard,
    picard_report,
    verify_picard_dim_cech,
)
from superproj.scalars import ONE, Scalar
from superproj.superpoly import super_exp


def odd_sector_sum(m: int) -> int:
    """The odd-sector h^1 count sum_k C(m, 2k+1) * 2k: each odd mask S adds
    the |S| - 1 pole orders of O(-|S|) on P^1."""
    return sum(comb(m, 2 * k + 1) * 2 * k for k in range(m // 2 + 1))


def odd_sector_h1_cech(m: int) -> int:
    """Odd-sector h^1 of the structure sheaf via the Cech engine: W = 1
    couples no two masks, so it is the odd part of H^1(O)."""
    sheaf = TransitionSheaf(m, standard_transition(m).ctx_b.one())
    return cech_cohomology(sheaf, want_generators=False).h1.odd


def test_continuous_dim_values():
    assert [continuous_dim_formula(1, m) for m in (2, 3, 4, 5)] == [1, 3, 9, 25]
    assert continuous_dim_formula(1, 0) == 0
    assert continuous_dim_formula(1, 1) == 0
    assert continuous_dim_formula(2, 4) == 0


def test_generator_count_matches_dim():
    for m in range(2, 6):
        assert len(continuous_generators(m)) == continuous_dim_formula(1, m)


def test_even_picard_structure():
    data = even_picard(1, 3)
    assert data.discrete_rank == 1
    assert data.continuous_dim == 3
    assert len(data.generators) == 4  # w plus three continuous generators
    higher = even_picard(2, 3)
    assert higher.continuous_dim == 0
    assert len(higher.generators) == 1


def test_cech_route():
    for m in range(2, 6):
        assert verify_picard_dim_cech(m)
    with pytest.raises(DomainError):
        verify_picard_dim_cech(1)


def test_even_picard_rejects_bad_dimensions():
    # the chart builder performs the check; even_picard relies on it
    with pytest.raises(DomainError, match=r"^need n >= 1 and m >= 0$"):
        even_picard(0, 1)


def test_normal_form_reduction():
    ctx = standard_transition(2).ctx_b
    # W = 3 * w^2 * exp(c * psi1 psi2 / w) has label (2, 3, c psi1psi2/w)
    n = ctx.monomial(5, (-1,), 0b11)
    W = ctx.monomial(3, (2,), 0) * super_exp(n)
    k, c, reduced = normal_form(TransitionSheaf(2, W))
    assert k == 2
    assert c == Scalar(3)
    assert reduced == n


def test_normal_form_kills_coboundary_tails():
    ctx = standard_transition(2).ctx_b
    # psi1 psi2 * w^b with b >= 0 and w^(-2) are both coboundary directions
    W = super_exp(ctx.monomial(1, (1,), 0b11) + ctx.monomial(1, (-2,), 0b11))
    k, c, reduced = normal_form(TransitionSheaf(2, W))
    assert (k, c) == (0, ONE)
    assert reduced.is_zero()


def test_normal_form_group_law():
    ctx = standard_transition(3).ctx_b
    n1 = ctx.monomial(2, (-1,), 0b011)
    n2 = ctx.monomial(1, (-1,), 0b110)
    a = normal_form(TransitionSheaf(3, ctx.monomial(1, (1,), 0) * super_exp(n1)))
    b = normal_form(TransitionSheaf(3, ctx.monomial(2, (0,), 0) * super_exp(n2)))
    prod_label = normal_form_product(a, b)
    direct = normal_form(
        TransitionSheaf(
            3,
            ctx.monomial(1, (1,), 0) * super_exp(n1)
            * ctx.monomial(2, (0,), 0) * super_exp(n2),
        )
    )
    assert prod_label == direct


def test_pi_picard_split_criterion():
    assert pi_picard(1, 1).split_only
    assert pi_picard(1, 2).split_only
    assert not pi_picard(1, 3).split_only
    assert pi_picard(2, 4).split_only
    assert pi_picard(1, 3).nonsplit_parameter_dim == 2
    assert pi_picard(1, 4).nonsplit_parameter_dim == 8


def test_odd_sector_cross_check():
    for m in range(4):
        assert odd_sector_h1_cech(m) == odd_sector_sum(m)


def test_odd_sector_sum_is_the_nonsplit_count():
    # sum over odd j of C(m, j)(j - 1) = m 2^(m-2) - 2^(m-1) = 2^(m-2)(m-2)
    for m in range(2, 200):
        assert odd_sector_sum(m) == 2 ** (m - 2) * (m - 2), m
        assert pi_picard(1, m).nonsplit_parameter_dim == odd_sector_sum(m), m


def test_verify_reads_the_odd_sector(monkeypatch, capsys):
    # the Cech run's odd h1 is checked against pi_picard's non-split count,
    # so a wrong count there makes --verify fail
    real = picard.pi_picard

    def shifted(n, m):
        data = real(n, m)
        data.nonsplit_parameter_dim += 1
        return data

    monkeypatch.setattr(picard, "pi_picard", shifted)
    assert not verify_picard_dim_cech(2)
    assert main(["picard", "--n", "1", "--m", "2", "--verify", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["verify"] == "fail"


def test_picard_report_json():
    rep = picard_report(1, 3)
    assert rep["schema"] == 1
    assert rep["continuous_dim"] == 3
    assert rep["pi"]["nonsplit_parameter_dim"] == 2
