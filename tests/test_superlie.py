import os
import random
import subprocess
import sys
from functools import reduce
from operator import add
from pathlib import Path

import pytest

import superproj
import superproj.superlie as superlie

from frame_sample_reference import eval_body, sampled_frame
from integrability_reference import bucketed_conditions, general_odd_section
from osp22_reference import combo_matches, direct_osp22
from superproj.cli import main
from superproj.errors import InvariantError
from superproj.linalg import span_eliminator
from superproj.scalars import HALF, I, INV_SQRT2, ONE, Scalar
from superproj.superlie import (
    CONFORMAL_CHANGE,
    U_SIGMA_TABLE,
    NonClosureError,
    SuperLieBasis,
    bracket_via_constants,
    check_srs_pair,
    conformal_basis,
    integrability_conditions,
    standard_fields,
    structure_constants,
    u_sigma_basis,
    v_xi_basis,
    verify_osp22,
)
from superproj.superpoly import SuperDerivation, pnm_transition


def express_in_span(basis, target):
    """Coefficients x with sum_i x[i]*basis[i] == target, or None if outside."""
    return span_eliminator(basis).express(
        {k: c for k, c in target.items() if not c.is_zero()}
    )


def direct_tensor(basis):
    """The structure tensor with every ordered pair bracketed directly and
    expressed against a fresh elimination of the basis."""
    vectors = [basis.elements[n].vectorize() for n in basis.names]
    tensor = {}
    for a in basis.names:
        for b in basis.names:
            br = basis.elements[a].bracket(basis.elements[b])
            combo = express_in_span(vectors, br.vectorize())
            tensor[(a, b)] = {
                basis.names[k]: c for k, c in combo.items() if not c.is_zero()
            }
    return tensor


@pytest.fixture(scope="module")
def fields():
    return {**standard_fields(), **conformal_basis().elements}


def test_standard_fields_have_rational_coefficients():
    # the V/Xi and U/Sigma fields are integral; only conformal_basis, through
    # CONFORMAL_CHANGE, reaches into Q(zeta_8)
    for name, field in standard_fields().items():
        assert all(c.is_rational() for c in field.vectorize().values()), name


def test_closure_of_standard_bases():
    for basis in (u_sigma_basis(), conformal_basis(), v_xi_basis()):
        tensor = structure_constants(basis)
        assert len(tensor) == len(basis.names) ** 2


def test_non_closure_detected(fields):
    bad = SuperLieBasis(["V1", "V3"], {k: fields[k] for k in ("V1", "V3")})
    with pytest.raises(NonClosureError):
        structure_constants(bad)  # [V1, V3] needs V2 + 2*V5-type terms


def test_super_antisymmetry_of_tensor():
    # structure_constants fills [b, a] from [a, b] by super antisymmetry, so
    # the rule is checked on direct brackets of both orders, not read back
    for basis in (u_sigma_basis(), conformal_basis()):
        tensor = structure_constants(basis)
        direct = direct_tensor(basis)
        el, par = basis.elements, basis.parities
        for a in basis.names:
            for b in basis.names:
                sign = 1 if par[a] and par[b] else -1
                assert el[b].bracket(el[a]) == el[a].bracket(el[b]) * sign, (a, b)
                flipped = {k: c * sign for k, c in direct[(a, b)].items()}
                assert tensor[(b, a)] == direct[(b, a)] == flipped, (a, b)


def _logged_brackets(monkeypatch) -> list:
    """Log every SuperDerivation.bracket call from here on; returns the log."""
    calls = []
    bracket = SuperDerivation.bracket

    def logged(self, other):
        calls.append((self, other))
        return bracket(self, other)

    monkeypatch.setattr(SuperDerivation, "bracket", logged)
    return calls


def test_structure_constants_bracket_each_unordered_pair_once(monkeypatch):
    basis = v_xi_basis()
    calls = _logged_brackets(monkeypatch)
    structure_constants(basis)
    assert len(calls) == 16 * 17 // 2


def test_jacobi_via_tensor():
    basis = conformal_basis()
    tensor = structure_constants(basis)
    par = basis.parities
    names = basis.names
    for x in names:
        for y in names:
            for z in names:
                lhs = bracket_via_constants(
                    tensor, {x: ONE}, tensor[(y, z)]
                )
                t1 = bracket_via_constants(
                    tensor, tensor[(x, y)], {z: ONE}
                )
                sgn = Scalar(-1 if par[x] and par[y] else 1)
                t2 = {
                    k: c * sgn
                    for k, c in bracket_via_constants(
                        tensor, {y: ONE}, tensor[(x, z)]
                    ).items()
                }
                total = dict(t1)
                for k, c in t2.items():
                    total[k] = total.get(k, Scalar(0)) + c
                total = {k: v for k, v in total.items() if not v.is_zero()}
                assert lhs == total, (x, y, z)


def test_u_sigma_table_verbatim(fields):
    for (a, b), combo in U_SIGMA_TABLE.items():
        assert combo_matches(fields, combo, fields[a].bracket(fields[b])), (a, b)


def test_combo_matches_rejects_a_different_combination(fields):
    bracket = fields["U1"].bracket(fields["U3"])
    assert combo_matches(fields, {"U2": 1, "U4": 1}, bracket)
    assert not combo_matches(fields, {"U2": 1, "U4": 2}, bracket)
    assert not combo_matches(fields, {"U2": 1, "U4": 1, "U1": HALF}, bracket)
    assert not combo_matches(fields, {}, bracket)
    # a zero bracket matches the empty combination and one with a zero coefficient
    zero = fields["U2"].bracket(fields["U4"])
    assert combo_matches(fields, {}, zero)
    assert combo_matches(fields, {"U1": 0}, zero)
    assert not combo_matches(fields, {"U1": 1}, zero)


def test_u_sigma_span_is_4_4(fields):
    from superproj.linalg import sparse_rank

    names = ["U1", "U2", "U3", "U4", "Sigma1", "Sigma2", "Sigma3", "Sigma4"]
    assert sparse_rank([fields[k].vectorize() for k in names]) == 8


def test_conformal_change_of_basis_consistency():
    # structure constants of {H,K,D,Y,Q,S} computed directly must agree with
    # transforming the U/Sigma tensor through the defining linear change
    us = u_sigma_basis()
    conf = conformal_basis()
    t_us = structure_constants(us)
    change = CONFORMAL_CHANGE
    us_vectors = [us.elements[n].vectorize() for n in us.names]

    for a in conf.names:
        for b in conf.names:
            via_us = bracket_via_constants(t_us, change[a], change[b])
            # express the direct bracket in the U/Sigma basis for comparison
            direct = conf.elements[a].bracket(conf.elements[b])
            combo = express_in_span(us_vectors, direct.vectorize())
            direct_named = {
                us.names[k]: c for k, c in combo.items() if not c.is_zero()
            }
            assert via_us == direct_named, (a, b)


@pytest.mark.parametrize("make_basis", [u_sigma_basis, v_xi_basis, conformal_basis])
def test_structure_constants_match_per_bracket_expression(make_basis):
    # one eliminator of the basis serves every bracket, and half the pairs
    # come from the sign rule; every ordered pair bracketed alone and
    # expressed against a fresh elimination must give the same coefficients
    basis = make_basis()
    assert structure_constants(basis) == direct_tensor(basis)


def test_osp22_all_equations_pass():
    report = verify_osp22()
    assert report.all_passed
    assert len(report.entries) == 58
    computed = dict(report.computed_only)
    assert computed["[K,Q1]"] == "(1)*S1"
    assert computed["[K,Q2]"] == "(1)*S2"
    assert computed["[K,S1]"] == "0"
    assert computed["[K,S2]"] == "0"


def test_osp22_matches_the_direct_bracket_route():
    # the tensor route against every equation bracketed on the fields
    entries, computed_only = direct_osp22()
    report = verify_osp22()
    assert len(entries) == 58 and all(ok for _, ok in entries)
    assert report.entries == entries
    assert report.computed_only == computed_only


def test_osp22_makes_at_most_36_brackets(monkeypatch):
    # the U/Sigma tensor, one bracket per unordered pair, decides all 58
    # equations; bracketing the conformal fields directly took 62
    calls = _logged_brackets(monkeypatch)
    assert verify_osp22().all_passed
    assert len(calls) <= 36


def test_a_flipped_i_in_the_change_of_basis_fails_a_conformal_entry(monkeypatch):
    # Q1 = (Sigma1 + i Sigma3)/sqrt(2) instead of (Sigma1 - i Sigma3)/sqrt(2)
    monkeypatch.setitem(
        CONFORMAL_CHANGE, "Q1", {"Sigma1": INV_SQRT2, "Sigma3": I * INV_SQRT2}
    )
    report = verify_osp22()
    failed = [label for label, ok in report.entries if not ok]
    assert failed and not report.all_passed
    assert "{Q1,Q1}" in failed
    # the U/Sigma table does not read the change of basis
    assert all(ok for _, ok in report.entries[:len(U_SIGMA_TABLE)])


def _unclose_u3(monkeypatch):
    # U3 = z^3 d/dz: [U1, U3] = 3 z^2 d/dz leaves the U/Sigma span
    build = superlie.standard_fields

    def broken(*args):
        f = build(*args)
        z = f["U3"].ctx.var("z")
        f["U3"] = SuperDerivation(f["U3"].ctx, 0, {"z": z * z * z})
        return f

    monkeypatch.setattr(superlie, "standard_fields", broken)


def test_osp22_fields_outside_their_span_are_an_invariant_fault(monkeypatch):
    _unclose_u3(monkeypatch)
    with pytest.raises(InvariantError, match=r"\[U1, U3\]"):
        verify_osp22()


def test_osp22_verify_exits_1_on_fields_outside_their_span(monkeypatch, capsys):
    _unclose_u3(monkeypatch)
    assert main(["osp22-verify"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "invariant violated" in err and "[U1, U3]" in err


def test_osp22_builds_the_standard_fields_once(monkeypatch):
    calls = []
    build = superlie.standard_fields

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(superlie, "standard_fields", counted)
    assert verify_osp22().all_passed
    assert len(calls) == 1
    # conformal_basis stays public and builds the same basis
    basis = conformal_basis()
    assert basis.names == ["H", "K", "D", "Y", "Q1", "Q2", "S1", "S2"]


def test_y_brackets_rotate_with_i(fields):
    # [Y, Q1] = (i/2) Q2 and cyclic variants, fixed by direct computation
    assert fields["Y"].bracket(fields["Q1"]) == fields["Q2"] * (I * HALF)
    assert fields["Y"].bracket(fields["Q2"]) == fields["Q1"] * (-(I * HALF))
    assert fields["Y"].bracket(fields["S1"]) == fields["S2"] * (I * HALF)
    assert fields["Y"].bracket(fields["S2"]) == fields["S1"] * (-(I * HALF))


def test_integrability_conditions_contain_published_triple():
    conditions = integrability_conditions()
    ctx = conditions[0].ctx

    def quad(pairs):
        out = ctx.zero()
        for a, b in pairs:
            out = out + ctx.var(f"a{a}") * ctx.var(f"a{b}")
        return out

    published = [
        quad([(1, 5), (7, 3)]),
        quad([(2, 6), (8, 4)]),
        quad([(1, 6), (2, 5), (3, 8), (4, 7)]),
    ]
    for target in published:
        assert any(
            c == target or c == -target or c * 2 == target for c in conditions
        ), str(target)


def test_integrability_strictly_stronger_than_triple(fields):
    # Xi3 + Xi6 satisfies the three published conditions but squares to
    # theta2 d/dtheta1, witnessing the extra condition a4 a5 - a3 a6
    d = fields["Xi3"] + fields["Xi6"]
    ctx = d.ctx
    sq = d.bracket(d) * HALF
    assert sq == SuperDerivation(ctx, 0, {"t1": ctx.var("t2")})
    conditions = integrability_conditions()
    rendered = {str(c) for c in conditions}
    assert any("a4*a5" in r and "a3*a6" in r for r in rendered)
    assert len(conditions) == 7


def test_integrability_output_does_not_follow_the_hash_seed():
    # the conditions are listed in V order and each lists its terms in
    # monomial order, so the output does not depend on set order
    src = str(Path(superproj.__file__).parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "from superproj.superlie import integrability_conditions\n"
        "print([str(c) for c in integrability_conditions()])\n"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        )
        for seed in ("0", "4")
    ]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout and runs[1].stdout == runs[0].stdout


def test_general_odd_section_squares_encode_conditions():
    d = general_odd_section()
    sq = d.bracket(d)
    assert not sq.is_zero()
    assert sq.parity == 0


def test_integrability_conditions_match_the_squared_section():
    # the V-coordinates of the Xi-Xi brackets against the formal odd field
    # squared in the (z, a1..a8) chart and bucketed by geometric monomial
    conditions = integrability_conditions()
    reference = bucketed_conditions()
    assert len(conditions) == len(reference) == 7
    assert conditions == reference
    assert conditions[0].ctx == superlie.ansatz_context()


def _replace_field(monkeypatch, name, coeffs):
    """standard_fields with the odd field ``name`` rebuilt by
    coeffs(old coefficients) -> new coefficients."""
    build = superlie.standard_fields

    def patched():
        f = build()
        f[name] = SuperDerivation(f[name].ctx, 1, coeffs(f[name].coeffs))
        return f

    monkeypatch.setattr(superlie, "standard_fields", patched)


def test_a_flipped_xi_changes_the_conditions(monkeypatch):
    before = [str(c) for c in integrability_conditions()]
    _replace_field(monkeypatch, "Xi6", lambda c: {v: -p for v, p in c.items()})
    after = [str(c) for c in integrability_conditions()]
    assert after != before
    assert "a4*a8 - a2*a6" in after and "a4*a8 + a2*a6" not in after


def test_a_xi_bracket_outside_the_v_span_is_an_invariant_fault(monkeypatch):
    # Xi4 = z t2 d/dz + t1 t2 d/dt1 (the sign of its d/dt1 term flipped):
    # [Xi2, Xi4] is no longer a combination of V1..V8
    _replace_field(
        monkeypatch, "Xi4", lambda c: {v: -p if v == "t1" else p for v, p in c.items()}
    )
    with pytest.raises(InvariantError, match=r"\[Xi2, Xi4\]"):
        integrability_conditions()


def _charts():
    tr = pnm_transition(1, 2)
    return tr.ctx_a.var("z"), tr.ctx_b.var("w")


def test_srs_standard_pair(fields):
    d1 = fields["Xi3"] + fields["Xi5"]
    d2 = fields["Xi1"] + fields["Xi7"]
    rep = check_srs_pair(d1, d2)
    assert rep.d1_square_zero and rep.d2_square_zero
    ctx = d1.ctx
    assert rep.anticommutator == SuperDerivation(ctx, 0, {"z": ctx.one() * 2})
    # the frame holds on the whole U chart but degenerates at w = 0
    _, w = _charts()
    assert rep.frame_det_u == ctx.scalar(2)
    assert rep.frame_det_v == -(w ** 4) * 2


def test_srs_shifted_pair_moves_the_degeneracy(fields):
    # (1 + z - t1 t2)(Xi3 + Xi5) vanishes at z = -1 instead of at infinity,
    # so the frame now fails at z = -1, and w = 0 is a zero of order 2, not 4
    d1 = fields["Xi3"] + fields["Xi5"] + fields["Xi4"] + fields["Xi6"]
    d2 = fields["Xi1"] + fields["Xi7"]
    rep = check_srs_pair(d1, d2)
    assert rep.d1_square_zero and rep.d2_square_zero
    z, w = _charts()
    assert rep.frame_det_u == (1 + z) ** 2 * 2
    assert rep.frame_det_v == -(w * w * (1 + w) ** 2) * 2


def test_srs_samples_miss_a_degeneracy_between_them(fields):
    # -3(Xi3 + Xi5) + Xi4 + Xi6 = (z - 3 - t1 t2)(Xi3 + Xi5): the frame's
    # body determinant is 2(z - 3)^2, zero at z = 3, which no U sample hits
    d1 = (fields["Xi3"] + fields["Xi5"]) * Scalar(-3) + fields["Xi4"] + fields["Xi6"]
    d2 = fields["Xi1"] + fields["Xi7"]
    rep = check_srs_pair(d1, d2)
    assert rep.d1_square_zero and rep.d2_square_zero
    z, w = _charts()
    assert rep.frame_det_u == (z - 3) ** 2 * 2
    assert rep.frame_det_v == -(w * w * (1 - w * 3) ** 2) * 2
    assert all(ok for chart, _, ok in sampled_frame(d1, d2) if chart == "U")


def _frame_holds(det, name, point) -> bool:
    """Whether a frame determinant is regular and nonzero at the point."""
    try:
        return not eval_body(det, {name: point}).is_zero()
    except ZeroDivisionError:
        return False


def test_frame_determinants_decide_every_sample_verdict(fields):
    # 300 seeded pairs of odd Xi-combinations, squares zero or not: each of
    # the sampler's 12 verdicts is "the chart's determinant is regular and
    # nonzero there", and det_V = -w^4 det_U(1/w)
    rng = random.Random(3901)
    tr = pnm_transition(1, 2)
    minus_w4 = tr.ctx_b.monomial(-1, (4,))
    coeffs = (0, 1, -1, 2, -3)
    verdicts, falses, mismatches = 0, 0, []
    for _ in range(300):
        d1, d2 = (
            reduce(add, (fields[f"Xi{i}"] * rng.choice(coeffs) for i in range(1, 9)))
            for _ in range(2)
        )
        rep = check_srs_pair(d1, d2)
        assert rep.frame_det_v == minus_w4 * tr.to_b(rep.frame_det_u)
        dets = {"U": (rep.frame_det_u, "z"), "V": (rep.frame_det_v, "w")}
        for chart, point, ok in sampled_frame(d1, d2):
            verdicts += 1
            falses += not ok
            if ok != _frame_holds(*dets[chart], point):
                mismatches.append((str(d1), str(d2), chart, point))
    assert verdicts == 3600 and mismatches == []
    assert 0 < falses < verdicts


def test_a_wrong_pushforward_is_an_invariant_fault(monkeypatch, capsys, fields):
    # d/dw's coefficient with its sign flipped: det_V no longer equals
    # -w^4 det_U(1/w), in check_srs_pair and so in the integrability record
    push = SuperDerivation.pushforward

    def flipped(self, transition):
        d = push(self, transition)
        return SuperDerivation(d.ctx, d.parity, {
            v: -p if v == "w" else p for v, p in d.coeffs.items()
        })

    monkeypatch.setattr(SuperDerivation, "pushforward", flipped)
    with pytest.raises(InvariantError, match="frame determinants"):
        check_srs_pair(fields["Xi3"] + fields["Xi5"], fields["Xi1"] + fields["Xi7"])
    assert main(["selftest", "--cases", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invariant violated: frame determinants")


def test_srs_solved_family_anticommutator(fields):
    ctx = pnm_transition(1, 2).ctx_a
    z, t1, t2 = ctx.var("z"), ctx.var("t1"), ctx.var("t2")
    d1 = fields["Xi4"] + fields["Xi6"]  # (z - t1 t2)(Xi3 + Xi5)
    d2 = fields["Xi2"] + fields["Xi8"]  # (z + t1 t2)(Xi1 + Xi7)
    anti = d1.bracket(d2)
    expected = SuperDerivation(
        ctx,
        0,
        {"z": z * z * 2, "t1": z * t1 * 2, "t2": z * t2 * 2},
    )
    assert anti == expected


def test_srs_rejects_wrong_chart():
    from superproj.errors import DomainError

    ctx = pnm_transition(1, 3).ctx_a
    d = SuperDerivation(ctx, 1, {"t1": ctx.one()})
    with pytest.raises(DomainError):
        check_srs_pair(d, d)
