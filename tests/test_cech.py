import random
from copy import copy
from fractions import Fraction

import pytest

from dense_reference import echelon_basis
from substitution_reference import chart_rules, substitute
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
from superproj.linalg import SparseElim
from superproj.parser import parse_superpoly
from superproj.properties import _random_unit, random_even_nilpotent
from superproj.scalars import I, ONE, ZERO, Scalar
from superproj.superpoly import mask_parity

P13_TRANSITION = "1 + (p1*p2 + p1*p3 + p2*p3)*w^-1"
C0_TRUNCATION = "w^2 + w^-1*p1*p2"  # needs the columns z^(D+1) t1 t2
# at m = 4 the masks holding one of p1, p2 are lone, the others pair up
LONE_AND_COUPLED = "w*(1+i*p1*p2*w^-1)"
P13_COCYCLES = [
    "w^-1*p1*p2",
    "w^-1*p1*p3",
    "w^-1*p2*p3",
    "w^-1*p1*p2*p3",
    "w^-2*p1*p2*p3",
]


def _band(res):
    """The in-window C1 exponents -B..B of a result, B = D - depth."""
    B = res.window_used.D - res._sheaf.depth
    return range(-B, B + 1)


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
    # D_cov = depth + m + max(0, -k - 1) = 3 + 2 + 2 for W = w^-3 on P^(1|2)
    assert default_window(sheaf).D == 3 + 2 + 2


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


def test_h1_class_classifies_out_of_band_cocycle(p13):
    # on cech-p13 (D = D_cov = 1 + 3 + 0 = 4, band -3..3) w^-7 p1 p2 =
    # W * w^-7 p1 p2 is the coboundary of z^5 t1 t2, and w^7 is regular on
    # the V chart: neither may come back as a nonzero class
    assert p13.window_used == CechWindow(4) and _band(p13) == range(-3, 4)
    for text in ("w^-7*p1*p2", "w^7"):
        assert p13.h1_class(parse_superpoly(text, m=3)[0]) == {}
    cocycles = [parse_superpoly(t, m=3)[0] for t in P13_COCYCLES + ["w^-7*p1*p2"]]
    assert p13.h1_span_equals(cocycles)
    # a term below the band is classified as on a window whose band holds it
    cocycle = parse_superpoly("w^-5*p1*p2*p3 + 2*w^-1*p1*p2", m=3)[0]
    wide = cech._run_window(p13._sheaf, CechWindow(7), True)
    assert p13.h1_class(cocycle) == wide.h1_class(cocycle) != {}


def test_equality_ignores_the_class_map_cache():
    # the class map is built on the first h1_class call; two results of one
    # sheaf stay equal whichever of them has built it
    sheaf = TransitionSheaf(3, parse_superpoly(P13_TRANSITION)[0])
    a, b = cech_cohomology(sheaf), cech_cohomology(sheaf)
    assert a == b
    cocycle = parse_superpoly(P13_COCYCLES[0], m=3)[0]
    a.h1_class(cocycle)
    assert a._coboundaries is not None
    assert a == b
    b.h1_class(cocycle)
    assert a == b


def test_results_of_equal_sheaves_are_equal():
    # the sheaf compares by its data (m, W), not by identity
    assert cech_cohomology(twist_sheaf(2, 0)) == cech_cohomology(twist_sheaf(2, 0))
    sheaf = TransitionSheaf(3, parse_superpoly(P13_TRANSITION)[0])
    again = TransitionSheaf(3, parse_superpoly(P13_TRANSITION)[0])
    assert cech_cohomology(sheaf) == cech_cohomology(again)
    assert cech_cohomology(twist_sheaf(2, 0)) != cech_cohomology(twist_sheaf(2, 1))


def test_repr_ignores_the_class_map_cache():
    W = parse_superpoly("1 + 2*w^-1*p1*p2", m=2)[0]
    result = cech_cohomology(TransitionSheaf(2, W))
    before = repr(result)
    result.h1_class(W.ctx.monomial(1, (-1,), 0b11))
    assert result._coboundaries is not None
    assert repr(result) == before
    assert " at 0x" not in before


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
    # the mask p1 p2 p3 is O(-3) on P^1: w^-1 p1 p2 p3 is a nonzero class
    assert res.h1_class(parse_superpoly("w^-1*p1*p2*p3", m=3)[0]) != {}


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

def _reference_window(sheaf, window, want_generators):
    """One window by the general path: columns through the general
    substitution of ``tests/substitution_reference.py`` and SuperPolynomial
    products, the in-window image from a tracked kernel and the quotient
    from a dense echelon_basis.  Returns (h0, h1, generators_h0,
    generators_h1, image_rref, sections); image_rref holds (pivot, row)
    pairs of the fully reduced image rows, each pivot the row's smallest
    key, and sections the set of columns (s, a) of each kernel combination.

    Mask s takes the columns z^a t^s for a <= D + reach[s], the base columns
    a <= D of every mask first.  This is the full column set to which the
    window proofs relax the engine's column bound, kept on purpose: the
    engine's cut must give what the full set gives."""
    D, depth, m = window.D, sheaf.depth, sheaf.m
    tr = standard_transition(m)
    ctx_a, ctx_b = tr.ctx_a, tr.ctx_b
    a_in_b, _ = chart_rules(ctx_a, ctx_b)
    band = range(-(D - depth), D - depth + 1)
    components, _ = cech._mask_pass(sheaf)
    reach = _reference_reach(sheaf, components)
    h0, h1 = {0: 0, 1: 0}, {0: 0, 1: 0}
    gens_h0, gens_h1, image_rref, sections = [], [], [], []
    for comp in components:
        parity = mask_parity(comp[0])
        comp_set = set(comp)
        p_images = []
        order = [(s, a) for s in comp for a in range(D + 1)]
        order += [(s, a) for s in comp for a in range(D + 1, D + 1 + reach[s])]
        for s, a in order:
            img = sheaf.W * substitute(ctx_a.monomial(1, (a,), s), a_in_b, ctx_b)
            p_images.append({(e[0], mk): c for (e, mk), c in img.terms.items()
                             if mk in comp_set})

        elim = SparseElim(track=True)
        for j, vec in enumerate(p_images):
            elim.add({k: v for k, v in vec.items() if k[0] < 0}, tag_key=j)
        h0[parity] += len(elim.kernel)
        sections += [{order[j] for j in combo} for combo in elim.kernel]
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
    return (DimPair(h0[0], h0[1]), DimPair(h1[0], h1[1]), gens_h0, gens_h1,
            image_rref, sections)


def _reference_cases():
    cases = []
    for seed in range(30):
        m = 2 + seed % 2
        W = _random_unit(random.Random(seed), standard_transition(m).ctx_b, 2)
        cases.append((f"unit-m{m}-seed{seed}", TransitionSheaf(m, W)))
    W, _ = parse_superpoly(P13_TRANSITION)
    cases.append(("cech-p13", TransitionSheaf(3, W)))
    W, _ = parse_superpoly(C0_TRUNCATION, m=2)
    cases.append(("c0-truncation", TransitionSheaf(2, W)))
    for m in range(5):
        for ell in range(-3, 4):
            cases.append((f"twist-m{m}-ell{ell}", twist_sheaf(m, ell)))
    # lone masks beside coupled ones, with Q(zeta8) coefficients on the body
    # or on a nilpotent term, and the cech_wide benchmark's twist shapes
    for name, text, m in [
        ("zeta-mixed-m4", LONE_AND_COUPLED, 4),
        ("zeta-body-m2", "i*w^2", 2),
        ("zeta-both-m3", "(1+i)*w^-2*(1 + p1*p2*w)", 3),
    ]:
        cases.append((name, TransitionSheaf(m, parse_superpoly(text, m=m)[0])))
    for ell in (-1, 2):
        cases.append((f"twist-m5-ell{ell}", twist_sheaf(5, ell)))
    # the cech_wide benchmark's chains c w^k (1 + sum c_i p_i p_(i+1) w^e),
    # with e = k and e = k - 1: the column bound leaves out 33-55% of the
    # full column set
    for name, text, m in [
        ("chain-m4-k1-e1", "(2/3)*w*(1 + p1*p2*w + (-1/2)*p2*p3*w + 3*p3*p4*w)", 4),
        ("chain-m4-k1-e0", "(-2)*w*(1 + p1*p2 + (1/3)*p2*p3 - p3*p4)", 4),
        ("chain-m5-k0-e0", "3*(1 + (1/2)*p1*p2 - p2*p3 + 2*p3*p4 + (-1/3)*p4*p5)", 5),
        ("zeta-chain-m5-k-1-e-2",
         "i*w^-1*(1 + p1*p2*w^-2 + (1+i)*p2*p3*w^-2 - p3*p4*w^-2 + 2*p4*p5*w^-2)", 5),
    ]:
        cases.append((name, TransitionSheaf(m, parse_superpoly(text, m=m)[0])))
    return cases


REFERENCE_CASES = _reference_cases()


@pytest.mark.parametrize(
    "sheaf", [c[1] for c in REFERENCE_CASES], ids=[c[0] for c in REFERENCE_CASES]
)
def test_run_window_matches_general_path(sheaf):
    window = default_window(sheaf)
    wider = _reference_window(sheaf, CechWindow(window.D + 1), False)[4]
    for want in (True, False):
        h0, h1, gens_h0, gens_h1, rref, _ = _reference_window(sheaf, window, want)
        res = cech._run_window(sheaf, window, want)
        assert (res.h0, res.h1) == (h0, h1)
        assert [g.terms for g in res.generators_h0] == [g.terms for g in gens_h0]
        assert [g.terms for g in res.generators_h1] == [g.terms for g in gens_h1]
        # the polar band monomials moved by the class map are the rref's
        # polar pivots: the q unit columns are a key projection
        B = window.D - sheaf.depth
        ctx_b = sheaf.W.ctx
        moved = {
            (j, s)
            for s in range(1 << sheaf.m)
            for j in range(-B, 0)
            if res.h1_class(ctx_b.monomial(1, (j,), s)) != {(j, s): ONE}
        }
        assert moved == {p for p, _ in rref if p[0] < 0}
        # the class map on the band monomials fixes the rref row by row;
        # one step past the band, a regular term has class 0 and a polar one
        # is classified as on the window one step wider
        for s in range(1 << sheaf.m):
            for j in range(-B, B + 1):
                cocycle = ctx_b.monomial(1, (j,), s)
                assert res.h1_class(cocycle) == _rref_class(rref, cocycle)
            assert res.h1_class(ctx_b.monomial(1, (B + 1,), s)) == {}
            cocycle = ctx_b.monomial(1, (-B - 1,), s)
            assert res.h1_class(cocycle) == _rref_class(wider, cocycle)


def _reference_reach(sheaf, components):
    """Extra C0 columns per mask: the body of z^(a + k - e - |t|) t^(s|t)
    cancels the term w^e p^t of W on the column z^a t^s."""
    k = sheaf.body_exponent
    reach = {}
    for comp in components:
        for s in sorted(comp):
            reach.setdefault(s, 0)
            for (exps, t) in sheaf.W.terms:
                if t and not s & t and (s | t) in comp:
                    step = reach[s] + k - exps[0] - bin(t).count("1")
                    reach[s | t] = max(reach.get(s | t, 0), step)
    return reach


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


# -- rational windows compute on int ---------------------------------------

def _rational_sheaves():
    W, _ = parse_superpoly(P13_TRANSITION)
    return [twist_sheaf(2, 3), twist_sheaf(2, -3), TransitionSheaf(3, W)]


def test_rational_window_outputs_are_scalars():
    # Scalar == Fraction holds, so the reference comparison alone would not
    # see a Fraction leaking out of a rational window
    seen = 0
    for sheaf in _rational_sheaves():
        res = cech_cohomology(sheaf)
        values = [c for g in res.generators_h0 + res.generators_h1
                  for c in g.terms.values()]
        ctx_b = sheaf.W.ctx
        for s in range(1 << sheaf.m):
            for j in _band(res):
                values.extend(res.h1_class(ctx_b.monomial(1, (j,), s)).values())
        seen += len(values)
        assert all(type(c) is Scalar for c in values), sheaf
    assert seen


def _dense_rational_transition(m=5):
    """c w (1 + sum q_s w^e p^s) over ten even masks, denominators 7 and 4."""
    ctx = standard_transition(m).ctx_b
    masks = [s for s in range(1, 1 << m) if mask_parity(s) == 0][:10]
    nil = ctx.zero()
    for i, s in enumerate(masks):
        q = Fraction((-1) ** i * (i % 5 + 1), (7, 4)[i % 2])
        nil = nil + ctx.monomial(q, (-(i % 2),), s)
    return ctx.monomial(Fraction(3, 7), (1,), 0) * (ctx.one() + nil)


def test_rational_window_matches_its_scalar_multiple():
    # I*W is isomorphic to W, and its window runs on Scalar: the int window
    # scaled by lcm(7, 4) must give the same cohomology, I times the sections
    # and the same class map
    W = _dense_rational_transition()
    a = cech_cohomology(TransitionSheaf(5, W))
    b = cech_cohomology(TransitionSheaf(5, W * I))
    assert a.h0.total and a.h1.total
    assert (a.h0, a.h1, a.window_used) == (b.h0, b.h1, b.window_used)
    assert [g.terms for g in b.generators_h1] == [g.terms for g in a.generators_h1]
    assert [g.terms for g in b.generators_h0] == [
        (g * I).terms for g in a.generators_h0
    ]
    ctx_b = standard_transition(5).ctx_b
    probes = [g * Scalar(Fraction(2, 3), 1) for g in a.generators_h1]
    probes += [ctx_b.monomial(Fraction(-5, 7), (j,), s)
               for s in range(1 << 5)[::4] for j in (-1, -3)]
    probes.append(sum(probes[1:], probes[0]))
    classes = [a.h1_class(p) for p in probes]
    assert any(len(c) > 1 for c in classes)
    assert classes == [b.h1_class(p) for p in probes]


def test_rational_cocycle_class_matches_the_scalar_path():
    # a rational cocycle and I times it both reduce on their own field
    # against the int rows, and the class map is linear
    a = cech_cohomology(TransitionSheaf(5, _dense_rational_transition()))
    ctx_b = standard_transition(5).ctx_b
    probes = [ctx_b.monomial(Fraction(-5, 7), (j,), s)
              for s in range(1 << 5)[::3] for j in (-1, -2, -5, _band(a)[0])]
    probes += [g * Fraction(2, 3) + g * Fraction(1, 4) for g in a.generators_h1[::7]]
    probes.append(sum(probes[1:], probes[0]))
    classes = [a.h1_class(p) for p in probes]
    assert any(len(c) > 1 for c in classes)
    assert any(v.d > 1 for c in classes for v in c.values())
    assert all(v.is_rational() for c in classes for v in c.values())
    assert [{k: v * I for k, v in c.items()} for c in classes] == [
        a.h1_class(p * I) for p in probes
    ]


def test_rational_window_stores_int_rows():
    # the class map is built on the first h1_class call, from the coupled
    # components' rows only: a window of lone masks has none
    sheaves = _rational_sheaves() + [TransitionSheaf(5, _dense_rational_transition())]
    rows = []
    for sheaf in sheaves:
        res = cech._run_window(sheaf, default_window(sheaf), True)
        res.h1_class(sheaf.W.ctx.zero())
        if len(sheaf.W.terms) == 1:
            assert res._coboundaries is None, sheaf
        else:
            rows += [vec for vec, _ in res._coboundaries.pivots.values()]
    assert rows and all(type(v) is int for row in rows for v in row.values())



# -- the class map holds the coupled rows, built on first use ---------------

# the masks on the chain p1 p2 - p2 p3 - p3 p4 couple; those holding neither
# p2 nor p3 and one or none of p1, p4, with any p5, stay lone
CHAINED = "(2/3)*w*(1 + p1*p2*w^-1 + (-1/2)*p2*p3*w^-1 + p3*p4*w^-1)"


def _class_map_cases():
    lone = [twist_sheaf(m, ell) for m in range(7) for ell in range(-4, 5)]
    mixed = [
        TransitionSheaf(m, parse_superpoly(text, m=m)[0])
        for text, m in ((LONE_AND_COUPLED, 4),
                        ("(1+i)*w^-2*(1 + p1*p2*w)", 3), (CHAINED, 5))
    ]
    return lone, mixed


def test_generator_ranges_match_the_class_map():
    """Each h1 generator is its own class, and each lone mask's in-band
    pivots w^j p^s, -B <= j <= min(-1, k - |s|), have class 0, on windows of
    lone masks only and of lone beside coupled masks."""
    lone, mixed = _class_map_cases()
    for sheaf in lone + mixed:
        res = cech_cohomology(sheaf)
        assert len(res.generators_h1) == res.h1.total, sheaf
        for g in res.generators_h1:
            [((e,), s)] = g.terms
            assert res.h1_class(g) == {(e, s): ONE}, (sheaf, e, s)
        comps, _ = cech._mask_pass(sheaf)
        lone_masks = [c[0] for c in comps if len(c) == 1]
        assert lone_masks and (sheaf in lone) == (len(comps) == 1 << sheaf.m)
        ctx_b = sheaf.W.ctx
        for s in lone_masks:
            hi = min(-1, sheaf.body_exponent - s.bit_count())
            for j in range(_band(res)[0], hi + 1):
                assert res.h1_class(ctx_b.monomial(1, (j,), s)) == {}, (sheaf, j, s)


def test_lone_window_builds_no_class_map(monkeypatch):
    made = []
    real = SparseElim.__init__

    def init(self, *args, **kwargs):
        made.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SparseElim, "__init__", init)
    res = cech_cohomology(twist_sheaf(6, 0), want_generators=False)
    assert made == []
    ctx_b = standard_transition(6).ctx_b
    assert res.h1_class(ctx_b.monomial(1, (-1,), 0b11)) == {(-1, 0b11): ONE}
    assert res.h1_class(ctx_b.monomial(1, (-1,), 0)) == {}
    assert made == []


def test_advanced_window_lists_the_generators_of_its_own_run():
    # D = 6 leaves w^-4 p1 p2 out of the band: it is below D_cov = 7, so
    # D = 7 is run and lists the generators of its own run
    sheaf = twist_sheaf(2, -3)
    res = cech_cohomology(sheaf, CechWindow(6))
    assert res.window_used == CechWindow(7) and res.stabilized
    assert res.h1 == DimPair(6, 6) and len(res.generators_h1) == 12
    ref = cech._run_window(sheaf, CechWindow(7), True)
    assert [g.terms for g in res.generators_h0] == [g.terms for g in ref.generators_h0]
    assert [g.terms for g in res.generators_h1] == [g.terms for g in ref.generators_h1]


def _covering(sheaf):
    """D_cov: from this window on every graded-H1 monomial lies in the band."""
    return sheaf.depth + sheaf.m + max(0, -sheaf.body_exponent - 1)


def test_default_window_is_d_cov():
    for name, sheaf in REFERENCE_CASES:
        assert default_window(sheaf).D == _covering(sheaf), name


def test_d_cov_default_matches_the_old_default_window():
    """The default D_cov window gives what the old default 2 depth + m + 2
    gave: h0, h1, both generator lists, and the class of every monomial in
    the old band, those below the D_cov band through the wider re-run."""
    sheaves = [twist_sheaf(m, k) for m in range(5) for k in range(-6, 3)]
    rng = random.Random(27)
    for _ in range(40):
        m = rng.randint(2, 4)
        W = _random_unit(rng, standard_transition(m).ctx_b, 3, body_range=(-4, 2))
        sheaves.append(TransitionSheaf(m, W))
    rerun = 0
    for sheaf in sheaves:
        res = cech_cohomology(sheaf)
        old = cech._run_window(sheaf, CechWindow(2 * sheaf.depth + sheaf.m + 2), True)
        assert res.window_used.D < old.window_used.D
        assert (res.h0, res.h1) == (old.h0, old.h1), sheaf
        assert [g.terms for g in res.generators_h0] == [g.terms for g in old.generators_h0]
        assert [g.terms for g in res.generators_h1] == [g.terms for g in old.generators_h1]
        ctx_b = sheaf.W.ctx
        for s in range(1 << sheaf.m):
            for e in _band(old):
                cocycle = ctx_b.monomial(1, (e,), s)
                assert res.h1_class(cocycle) == old.h1_class(cocycle), (sheaf, e, s)
                rerun += e < 0 and e not in _band(res)
    assert rerun


@pytest.mark.parametrize("want", (True, False))
def test_one_window_per_call(monkeypatch, want):
    """The default window is exact, and an explicit window D runs as
    max(D, D_cov): one window per call."""
    calls = []
    real = cech._run_window

    def run_window(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(cech, "_run_window", run_window)
    for name, sheaf in REFERENCE_CASES:
        calls.clear()
        res = cech_cohomology(sheaf, want_generators=want)
        assert calls == [default_window(sheaf)] and res.stabilized, name
        low = sheaf.depth + sheaf.m
        for D in (low, low + 1, _covering(sheaf) + 1):
            calls.clear()
            res = cech_cohomology(sheaf, CechWindow(D), want_generators=want)
            used = CechWindow(max(D, _covering(sheaf)))
            assert calls == [used] == [res.window_used] and res.stabilized, (name, D)


def _exactness_sheaves():
    """Twists, the reference units, and units whose nilpotent terms reach
    down to w^-4 (c0-truncation among them needs columns above D)."""
    sheaves = [twist_sheaf(m, k) for m in range(5) for k in range(-6, 3)]
    sheaves += [sheaf for name, sheaf in REFERENCE_CASES if not name.startswith("twist")]
    rng = random.Random(20261019)
    for _ in range(80):
        m = rng.randint(2, 4)
        ctx = standard_transition(m).ctx_b
        body = ctx.monomial(rng.choice([1, -1, Fraction(1, 2)]), (rng.randint(-5, 2),), 0)
        nil = random_even_nilpotent(rng, ctx, rng.randint(1, 4))
        sheaves.append(TransitionSheaf(m, body * (ctx.one() + nil)))
    return sheaves


def test_every_allowed_window_is_exact_in_h0_and_from_d_cov_in_h1():
    """(a) h0 is exact at every allowed window, (b) h1 never exceeds the
    true h1, and (c) h1 is exact from D_cov on (module docstring)."""
    nilpotent = 0
    for sheaf in _exactness_sheaves():
        res = cech_cohomology(sheaf, want_generators=False)
        if len(sheaf.W.terms) == 1:
            closed = cohomology_dims(1, sheaf.m, sheaf.body_exponent)
            assert (res.h0, res.h1) == (closed[0], closed[1]), sheaf
        else:
            nilpotent += 1
        for D in range(sheaf.depth + sheaf.m, _covering(sheaf) + 2):
            got = cech._run_window(sheaf, CechWindow(D), False)
            assert got.h0 == res.h0, (sheaf, D)
            if D >= _covering(sheaf):
                assert got.h1 == res.h1, (sheaf, D)
            else:
                assert got.h1.even <= res.h1.even and got.h1.odd <= res.h1.odd
    assert nilpotent >= 70


def test_window_below_d_cov_is_raised_to_it():
    # twist O(-6) on P^(1|2): D_cov = 6 + 2 + 5 = 13, and the band
    # [6 - D, D - 6] of every D < 13 misses the graded-H1 monomial w^-7 p1 p2
    res = cech_cohomology(twist_sheaf(2, -6), CechWindow(8))
    assert res.window_used == CechWindow(13) and res.stabilized
    assert res.h1 == cohomology_dims(1, 2, -6)[1] == DimPair(12, 12)


def test_rational_window_makes_no_scalar_product(monkeypatch):
    sheaves = _rational_sheaves()
    zeta = TransitionSheaf(2, parse_superpoly("1 + i*p1*p2*w^-1")[0])
    calls = []
    mul = Scalar.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    for sheaf in sheaves:
        res = cech._run_window(sheaf, default_window(sheaf), False)
        assert res.h0.even + res.h0.odd + res.h1.even + res.h1.odd > 0
    assert calls == []
    # the counter sees the Scalar path: a Q(zeta8) coefficient multiplies
    cech._run_window(zeta, default_window(zeta), False)
    assert calls


def _one_more(monkeypatch, field, extra=DimPair(1, 0)):
    """Make every window report the extra dimensions in field."""
    real = cech._run_window

    def run_window(*args):
        res = copy(real(*args))
        setattr(res, field, getattr(res, field) + extra)
        return res

    monkeypatch.setattr(cech, "_run_window", run_window)


@pytest.fixture
def wrong_h1(monkeypatch):
    """Every window reports one extra even h1 dimension."""
    _one_more(monkeypatch, "h1")


@pytest.fixture
def wrong_h0(monkeypatch):
    """Every window reports one extra even h0 dimension."""
    _one_more(monkeypatch, "h0")


def test_euler_characteristic_invariant(wrong_h0):
    # a window above the Euler characteristic of its split filtration is an
    # engine fault
    with pytest.raises(InvariantError, match="Euler characteristic"):
        cech_cohomology(twist_sheaf(2, -1), want_generators=False)


def test_odd_sector_euler_fault_is_caught(monkeypatch):
    # the Euler sum by mask size counts the odd sizes too: one extra odd h1
    # dimension on P^(1|5) is an engine fault
    _one_more(monkeypatch, "h1", DimPair(0, 1))
    with pytest.raises(InvariantError, match="Euler characteristic"):
        cech_cohomology(twist_sheaf(5, -1), want_generators=False)


def test_euler_shortfall_is_an_invariant_fault(monkeypatch, wrong_h1):
    # the window run is exact, so h0 - h1 below the Euler characteristic is
    # an engine fault too, raised from the one window
    calls = []
    run_window = cech._run_window
    monkeypatch.setattr(
        cech, "_run_window", lambda *args: calls.append(args[1]) or run_window(*args)
    )
    sheaf = twist_sheaf(2, -1)
    with pytest.raises(InvariantError, match="Euler characteristic"):
        cech_cohomology(sheaf, want_generators=False)
    assert calls == [default_window(sheaf)]


def test_invariant_violation_exits_1(wrong_h0, capsys):
    assert main(["cech", "--m", "2", "--transition", "w^-1"]) == 1
    assert "invariant violated" in capsys.readouterr().err


def test_euler_shortfall_exits_1(wrong_h1, capsys):
    assert main(["cech", "--m", "2", "--transition", "w^-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invariant violated:") and "--window" not in err


def _reference_sigma(sheaf, s):
    """sigma_s: the largest sum of k - e over nilpotent terms w^e p^t of W
    whose masks t are pairwise disjoint and inside s, 0 for none."""
    k = sheaf.body_exponent
    best = 0
    for (exps, t) in sheaf.W.terms:
        if t and t & s == t:
            best = max(best, k - exps[0] + _reference_sigma(sheaf, s & ~t))
    return best


def _section_reach(sheaf, s):
    """Mask s holds sections only at z-degrees a <= k - |s| + sigma_s."""
    return sheaf.body_exponent - bin(s).count("1") + _reference_sigma(sheaf, s)


@pytest.mark.parametrize("want", (True, False))
@pytest.mark.parametrize("case", ("twist-m3-ell1", "cech-p13", "zeta-mixed-m4",
                                  "chain-m4-k1-e1", "zeta-chain-m5-k-1-e-2"))
def test_one_elimination_per_window(monkeypatch, case, want):
    """Each column of a component with two or more masks is eliminated
    exactly once, in order, and a lone mask is not eliminated at all: its
    graded piece is the whole complex at its mask.  Mask s has the columns
    a <= B + k - |s| + sigma_s, its column bound, so every O(ell) makes no
    call."""
    sheaf = dict(REFERENCE_CASES)[case]
    window = default_window(sheaf)
    B = window.D - sheaf.depth
    calls = {}  # eliminator -> the column tags added to it, in order
    real = SparseElim.add

    def add(self, vec, tag_key=None):
        calls.setdefault(self, []).append(tag_key)
        return real(self, vec, tag_key)

    monkeypatch.setattr(SparseElim, "add", add)
    cech._run_window(sheaf, window, want)
    coupled = [c for c in cech._mask_pass(sheaf)[0] if len(c) > 1]
    assert sorted(len(tags) for tags in calls.values()) == sorted(
        sum(max(0, B + _section_reach(sheaf, s) + 1) for s in comp) for comp in coupled
    )
    assert all(tags == list(range(len(tags))) for tags in calls.values())
    assert bool(calls) == (case != "twist-m3-ell1")


def test_sections_lie_within_the_section_reach():
    """Proof (a): every kernel combination of the full column set uses only
    the columns z^a t^s with a <= k - |s| + sigma_s."""
    used = 0
    for sheaf in _exactness_sheaves():
        sections = _reference_window(sheaf, default_window(sheaf), False)[5]
        for combo in sections:
            for s, a in combo:
                assert a <= _section_reach(sheaf, s), (sheaf, s, a)
            used += any(_reference_sigma(sheaf, s) > 0 for s, _ in combo)
    # some sections reach past O(k - |s|) through sigma
    assert used


def _lower_sigma(monkeypatch, sheaf):
    """Lower sigma by one on the masks of the coupled component that has
    sections."""
    comps, sigma = cech._mask_pass(sheaf)
    [comp] = [c for c in comps if len(c) > 1
              and max(_section_reach(sheaf, s) for s in c) >= 0]
    low = [v - (s in comp) for s, v in enumerate(sigma)]
    monkeypatch.setattr(cech, "_mask_pass", lambda sheaf: (comps, low))


@pytest.mark.parametrize("want", (True, False))
@pytest.mark.parametrize("text, m, fault", [
    # the section 1 at mask 0 survives the cut, at a section reach of -1
    ("1 + p1*p2", 2, "section reach is negative"),
    # the band's image needs the columns at the column bound: without
    # them h1 reads 1|0 too many
    (C0_TRUNCATION, 2, "Euler characteristic"),
])
def test_a_column_bound_below_the_sections_is_an_invariant_fault(
        monkeypatch, text, m, fault, want):
    sheaf = TransitionSheaf(m, parse_superpoly(text, m=m)[0])
    _lower_sigma(monkeypatch, sheaf)
    with pytest.raises(InvariantError, match=fault):
        cech_cohomology(sheaf, want_generators=want)


def test_a_component_without_sections_tracks_no_kernel(monkeypatch):
    """At m = 4, w (1 + i p1 p2 w^-1) couples s with s | p1 p2 for s inside
    p3 p4; the section reach of p3 p4 is -1 and of p1 p2 p3 p4 is -2, so that
    component's elimination is untracked even when generators are wanted."""
    sheaf = dict(REFERENCE_CASES)["zeta-mixed-m4"]
    made = []
    real = SparseElim.__init__

    def init(self, track=False):
        made.append(track)
        real(self, track)

    monkeypatch.setattr(SparseElim, "__init__", init)
    res = cech._run_window(sheaf, default_window(sheaf), True)
    coupled = [c for c in cech._mask_pass(sheaf)[0] if len(c) > 1]
    assert made == [max(_section_reach(sheaf, s) for s in comp) >= 0
                    for comp in coupled]
    assert made.count(False) == 1 and 0b1100 in coupled[made.index(False)]
    assert len(res.generators_h0) == res.h0.total > 0
    made.clear()
    cech._run_window(sheaf, default_window(sheaf), False)
    assert made == [False] * len(coupled)


def test_serre_duality_on_law_suite_draws():
    """h^i(L) = h^(1-i)(L^dual (x) O(m-2)), parities swapped for odd m.

    Ber P^(1|m) = O(m-2) up to parity, so the dual sheaf has transition
    W^-1 w^(m-2).  Duality pins h0 and h1 separately, where the runtime
    Euler check pins only their difference.
    """
    off_split = 0
    for seed in range(400):
        m = (1, 2, 2, 3)[seed % 4]
        ctx = standard_transition(m).ctx_b
        W = _random_unit(random.Random(seed), ctx, 2)
        sheaf = TransitionSheaf(m, W)
        dual = TransitionSheaf(m, W.inverse() * ctx.monomial(1, (m - 2,), 0))
        res = cech_cohomology(sheaf, want_generators=False)
        dres = cech_cohomology(dual, want_generators=False)
        flip = (lambda d: DimPair(d.odd, d.even)) if m % 2 else (lambda d: d)
        assert (res.h0, res.h1) == (flip(dres.h1), flip(dres.h0)), (seed, W)
        off_split += res.h0 != cohomology_dims(1, m, sheaf.body_exponent)[0]
    # some draws are not split on h0, so the check reaches past O(k)
    assert off_split > 0


def test_c0_truncation_example():
    """W = w^2 + w^-1 p1 p2 on P^(1|2): h0 = 4|4 and h1 = 0|0.

    By hand, with the chart z^a t^S -> w^(-a-|S|) p^S (sign +1): write a C0
    section on the U chart as P = f + g1 t1 + g2 t2 + h t1 t2, with f, g1,
    g2, h polynomials in z.  Then W (P o chart) has
    - mask 0: w^2 f(1/w);
    - mask p_i: w g_i(1/w), the odd sectors of O(1);
    - mask p1 p2: h(1/w) + w^-1 f(1/w).
    h0: the three parts are polynomial in w iff deg f <= 2, deg g_i <= 1 and
    h_k = -f_(k-1) for k >= 1, so h0 = (3 + 1)|(2 + 2) = 4|4.
    h1: with the V-chart polynomials Q, w^2 f(1/w) covers every mask-0
    exponent; the p1 p2 part it drags along has exponents <= -1 and is
    cancelled by h(1/w), which with Q also covers every p1 p2 exponent; w
    g_i(1/w) and Q cover every p_i exponent.  So the coboundary is onto and
    h1 = 0|0, and h0 - h1 = 4|4 is the Euler characteristic of O(2).
    """
    W, _ = parse_superpoly(C0_TRUNCATION, m=2)
    res = cech_cohomology(TransitionSheaf(2, W), want_generators=False)
    assert (res.h0, res.h1) == (DimPair(4, 4), DimPair(0, 0))


def test_odd_sector_example():
    """W = 2 w^4 - p3 p4 on P^(1|4): h0 = 24|24, h1 = 0|0.

    By hand, from the mask-size filtration: the graded piece at mask s is
    O(4 - |s|) on P^1, and every |s| <= 4 has 4 - |s| >= 0, so no graded
    piece has an H1 and h1 = 0.  Then h0 is the Euler characteristic,
    sum_s (4 - |s| + 1): even 5 + 6 * 3 + 1 = 24, odd 4 * 4 + 4 * 2 = 24.
    The columns z^a t^s with a <= D leave out the z^(D+2) t^(s|p3p4) that
    cancel the p3 p4 term of z^D t^s, so without the columns above D every
    window reads h1 = 2|2 and none certifies itself.
    """
    W, _ = parse_superpoly("2*w^4 - p3*p4", m=4)
    res = cech_cohomology(TransitionSheaf(4, W), want_generators=False)
    assert (res.h0, res.h1) == (DimPair(24, 24), DimPair(0, 0))
