import random
from dataclasses import replace

import pytest

from superproj import cech
from superproj.cech import (
    CechWindow,
    TransitionSheaf,
    cech_cohomology,
    default_window,
    oracle_check_line,
    standard_transition,
    twist_sheaf,
)
from superproj.cli import main
from superproj.cohomology import DimPair, cohomology_dims
from superproj.errors import ContextError, DomainError, InvariantError, ParityError
from superproj.linalg import SparseElim, echelon_basis
from superproj.parser import parse_superpoly
from superproj.properties import _random_unit
from superproj.scalars import ONE, ZERO
from superproj.superpoly import mask_parity

P13_TRANSITION = "1 + (p1*p2 + p1*p3 + p2*p3)*w^-1"
P13_COCYCLES = [
    "w^-1*p1*p2",
    "w^-1*p1*p3",
    "w^-1*p2*p3",
    "w^-1*p1*p2*p3",
    "w^-2*p1*p2*p3",
]


@pytest.fixture(scope="module")
def p13():
    W, _ = parse_superpoly(P13_TRANSITION)
    return cech_cohomology(TransitionSheaf(3, W))


def test_transition_sheaf_validation():
    ctx = standard_transition(2).ctx_b
    with pytest.raises(ParityError):
        TransitionSheaf(2, ctx.var("p1"))
    with pytest.raises(DomainError):
        TransitionSheaf(2, ctx.one() + ctx.var("w"))  # two-term body
    with pytest.raises(DomainError):
        TransitionSheaf(2, ctx.zero())


def test_twist_calibration_classical():
    # W = w^ell carries the sheaf with h^0 = ell + 1 for ell >= 0 at m = 0
    for ell in range(0, 4):
        res = cech_cohomology(twist_sheaf(0, ell), want_generators=False)
        assert res.h0 == DimPair(ell + 1, 0)
        assert res.h1 == DimPair(0, 0)
    res = cech_cohomology(twist_sheaf(0, -3), want_generators=False)
    assert res.h0 == DimPair(0, 0)
    assert res.h1 == DimPair(2, 0)


def test_oracle_lines_sample():
    for m, ell in [(0, 0), (1, -2), (2, 0), (3, -1), (4, 2), (5, -4), (7, -3)]:
        assert oracle_check_line(m, ell)


def test_oracle_grid_bounds():
    with pytest.raises(DomainError):
        oracle_check_line(9, 0)
    with pytest.raises(DomainError):
        oracle_check_line(8, 9)


def test_window_check():
    sheaf = twist_sheaf(2, -3)
    with pytest.raises(DomainError):
        cech_cohomology(sheaf, CechWindow(2))
    assert default_window(sheaf).D == 2 * 3 + 2 + 2


def test_h0_generators_of_positive_twist():
    res = cech_cohomology(twist_sheaf(1, 1))
    # sections of O(1) on the 1|1 superline: 1, w, psi1 (V-chart components)
    assert res.h0 == DimPair(2, 1)
    assert res.stabilized


def test_p13_h0(p13):
    assert p13.h0 == DimPair(0, 0)


def test_p13_h1_true_value(p13):
    # the three even pair cocycles sum to a coboundary, so the even part is 2
    assert p13.h1 == DimPair(2, 2)


def test_p13_published_cocycles_span_h1(p13):
    cocycles = [parse_superpoly(t, m=3)[0] for t in P13_COCYCLES]
    assert p13.h1_span_equals(cocycles)


def test_p13_even_sum_is_coboundary(p13):
    ctx = standard_transition(3).ctx_b
    total = ctx.zero()
    for text in P13_COCYCLES[:3]:
        total = total + parse_superpoly(text, m=3)[0]
    assert p13.h1_class(total) == {}
    # but each single pair cocycle is a nonzero class
    single = parse_superpoly(P13_COCYCLES[0], m=3)[0]
    assert p13.h1_class(single) != {}


def test_p13_explicit_coboundary(p13):
    # delta of the constant pair (1, 1): 1 - W = -(sum of pair cocycles)
    W, _ = parse_superpoly(P13_TRANSITION)
    ctx = W.ctx
    assert p13.h1_class(ctx.one() - W) == {}


def test_h1_class_rejects_u_chart_cocycle(p13):
    cocycle, chart = parse_superpoly("z^-1*t1*t2", m=3)
    assert chart == "U"
    with pytest.raises(ContextError):
        p13.h1_class(cocycle)
    with pytest.raises(ContextError):
        p13.h1_span_equals([cocycle])


def test_h1_class_rejects_wrong_m_cocycle(p13):
    cocycle, _ = parse_superpoly(P13_COCYCLES[0], m=2)
    with pytest.raises(ContextError):
        p13.h1_class(cocycle)
    with pytest.raises(ContextError):
        p13.h1_span_equals([cocycle])


def test_p13_euler_characteristic(p13):
    # chi from the split filtration of this sheaf: even 1 - 3 = -2, odd -2
    chi_even = (p13.h0.even - p13.h1.even)
    chi_odd = (p13.h0.odd - p13.h1.odd)
    assert (chi_even, chi_odd) == (-2, -2)


def test_structure_sheaf_h1_zero():
    for m in range(4):
        res = cech_cohomology(twist_sheaf(m, 0), want_generators=False)
        assert res.h0.even >= 1
        assert res.h0 == cohomology_dims(1, m, 0)[0]
        assert res.h1 == cohomology_dims(1, m, 0)[1]


def test_coboundary_twist_invariance():
    tr = standard_transition(2)
    ctx_b = tr.ctx_b
    W = ctx_b.var("w") + ctx_b.monomial(2, (-1,), 0b11)
    sheaf = TransitionSheaf(2, W)
    q = ctx_b.one() + ctx_b.monomial(1, (1,), 0b11)
    twisted = TransitionSheaf(2, q * W)
    a = cech_cohomology(sheaf, want_generators=False)
    b = cech_cohomology(twisted, want_generators=False)
    assert (a.h0, a.h1) == (b.h0, b.h1)


# -- the general path as a reference for the monomial-shift engine ----------

def _reference_window(sheaf, window, mask_pred, want_generators):
    """One window by the general path: columns through ChartTransition.to_b
    and SuperPolynomial products, the in-window image from a tracked kernel
    and the quotient from a dense echelon_basis.  Returns (h0, h1,
    generators_h0, generators_h1, image_rref); image_rref holds (pivot, row)
    pairs of the fully reduced image rows, each pivot the row's smallest key."""
    D, depth, m = window.D, sheaf.depth, sheaf.m
    tr = sheaf.transition
    ctx_a, ctx_b = tr.ctx_a, tr.ctx_b
    band = range(-(D - depth), D - depth + 1)
    components = cech._mask_components(
        m, {mask for (_, mask) in sheaf.W.terms}, mask_pred
    )
    h0, h1 = {0: 0, 1: 0}, {0: 0, 1: 0}
    gens_h0, gens_h1, image_rref = [], [], []
    for comp in components:
        parity = mask_parity(comp[0])
        comp_set = set(comp)
        p_images = []
        for s in comp:
            for a in range(D + 1):
                img = sheaf.W * tr.to_b(ctx_a.monomial(1, (a,), s))
                img = img.mask_filter(lambda mk: mk in comp_set)
                p_images.append({(e[0], mk): c for (e, mk), c in img.terms.items()})

        elim = SparseElim(track=True)
        for j, vec in enumerate(p_images):
            elim.add({k: v for k, v in vec.items() if k[0] < 0}, tag_key=j)
        h0[parity] += len(elim.kernel)
        if want_generators:
            for combo in elim.kernel:
                q = ctx_b.zero()
                for j, c in combo.items():
                    for k, v in p_images[j].items():
                        q = q + ctx_b.monomial(c * v, (k[0],), k[1])
                gens_h0.append(q)

        columns = [{(b, s): ONE} for s in comp for b in range(D + 1)] + p_images
        out_elim = SparseElim(track=True)
        for j, col in enumerate(columns):
            out_elim.add({k: v for k, v in col.items() if k[0] not in band}, tag_key=j)
        in_image = []
        for combo in out_elim.kernel:
            vec = ctx_b.zero()
            for j, c in combo.items():
                for k, v in columns[j].items():
                    vec = vec + ctx_b.monomial(c * v, (k[0],), k[1])
            if not vec.is_zero():
                in_image.append({(e[0], mk): v for (e, mk), v in vec.terms.items()})
        rows = echelon_basis(in_image)
        pivots = {min(row) for row in rows}
        image_rref.extend((min(row), row) for row in rows)
        h1[parity] += len(comp) * len(band) - len(rows)
        if want_generators:
            gens_h1.extend(
                ctx_b.monomial(1, (j,), s)
                for s in comp for j in band if (j, s) not in pivots
            )
    return DimPair(h0[0], h0[1]), DimPair(h1[0], h1[1]), gens_h0, gens_h1, image_rref


def _reference_cases():
    cases = []
    for seed in range(30):
        m = 2 + seed % 2
        W = _random_unit(random.Random(seed), standard_transition(m).ctx_b, 2)
        cases.append((f"unit-m{m}-seed{seed}", TransitionSheaf(m, W)))
    W, _ = parse_superpoly(P13_TRANSITION)
    cases.append(("cech-p13", TransitionSheaf(3, W)))
    for m in range(5):
        for ell in range(-3, 4):
            cases.append((f"twist-m{m}-ell{ell}", twist_sheaf(m, ell)))
    return cases


REFERENCE_CASES = _reference_cases()
PICARD_PREDICATES = (
    lambda s: s != 0 and mask_parity(s) == 0,
    lambda s: mask_parity(s) == 1,
)


@pytest.mark.parametrize(
    "sheaf", [c[1] for c in REFERENCE_CASES], ids=[c[0] for c in REFERENCE_CASES]
)
def test_run_window_matches_general_path(sheaf):
    window = default_window(sheaf)
    preds = (None,) + (PICARD_PREDICATES if sheaf.m in (2, 3) else ())
    for mask_pred in preds:
        for want in (True, False):
            h0, h1, gens_h0, gens_h1, rref = _reference_window(
                sheaf, window, mask_pred, want
            )
            res = cech._run_window(sheaf, window, mask_pred, want)
            assert (res.h0, res.h1) == (h0, h1)
            assert [g.terms for g in res.generators_h0] == [g.terms for g in gens_h0]
            assert [g.terms for g in res.generators_h1] == [g.terms for g in gens_h1]
            assert {p for p, _ in res._image} == {p for p, _ in rref}
            # the class map on the band monomials fixes the rref row by row;
            # one step past the band on each side checks pass-through
            B = window.D - sheaf.depth
            ctx_b = sheaf.transition.ctx_b
            for s in range(1 << sheaf.m):
                if mask_pred is not None and not mask_pred(s):
                    continue
                for j in range(-B - 1, B + 2):
                    cocycle = ctx_b.monomial(1, (j,), s)
                    assert res.h1_class(cocycle) == _rref_class(rref, cocycle)


def _rref_class(rref, cocycle):
    """A cocycle reduced against the reference's fully reduced rows."""
    vec = {(e[0], mk): c for (e, mk), c in cocycle.terms.items()}
    for pivot, row in rref:
        c = vec.get(pivot)
        if c is not None:
            for k, v in row.items():
                new = vec.get(k, ZERO) - c * v
                if new.is_zero():
                    vec.pop(k, None)
                else:
                    vec[k] = new
    return vec


@pytest.fixture
def wrong_h1(monkeypatch):
    """Make every window report one extra even h1 dimension."""
    real = cech._run_window

    def run_window(*args):
        res = real(*args)
        return replace(res, h1=res.h1 + DimPair(1, 0))

    monkeypatch.setattr(cech, "_run_window", run_window)


def test_euler_characteristic_invariant(wrong_h1):
    with pytest.raises(InvariantError, match="Euler characteristic"):
        cech_cohomology(twist_sheaf(2, -1), want_generators=False)
    # restricted mask sets have no closed form, so they are not checked
    res = cech_cohomology(
        twist_sheaf(2, -1), mask_pred=lambda s: mask_parity(s) == 1,
        want_generators=False,
    )
    assert res.stabilized


def test_invariant_violation_exits_1(wrong_h1, capsys):
    assert main(["cech", "--m", "2", "--transition", "w^-1"]) == 1
    assert "invariant violated" in capsys.readouterr().err
