"""Golden-table checkers: each recomputes one fixture's claims with the
engine, and ``run_golden`` reports exact pass/fail against the records that
``golden.load_records`` reads.

Generator-list comparisons are by span, never by string equality.
"""

from __future__ import annotations

from math import comb

from .cech import TransitionSheaf, cech_cohomology, oracle_check_line
from .characteristic import characteristic_report, topological_twist
from .cohomology import DimPair, chi_closed, cohomology_dims, zeta_closed
from .errors import SuperprojError
from .golden import GoldenRecord, load_records
from .linalg import spans_equal
from .parser import parse_in_context, parse_superpoly
from .picard import continuous_dim_formula, pi_picard, verify_picard_dim_cech
from .superlie import (
    ansatz_context,
    check_srs_pair,
    integrability_conditions,
    standard_fields,
    structure_constants,
    v_xi_basis,
    verify_osp22,
)
from .superpoly import SuperDerivation
from .tangent import (
    bosonization_check,
    euler_tangent_dims,
    global_tangent_fields,
    sl_dimension,
    super_gradient_rank,
)


def _check_oracle_grid(rec):
    """Cech dims of O(ell) against the closed forms (``oracle_check_line``),
    and the n >= 2 derivative closed forms against the binomial sums.  Every
    mask of O(ell) is lone, so the Cech part checks per-mask counts on P^1,
    not the elimination of coupled masks."""
    bad = []
    for m in range(rec.inputs["m_max"] + 1):
        for ell in range(rec.inputs["ell_min"], rec.inputs["ell_max"] + 1):
            if not oracle_check_line(m, ell):
                bad.append(["cech", 1, m, ell])
    for n in range(2, rec.inputs["n_max"] + 1):
        for m in range(rec.inputs["m_max"] + 1):
            for ell in range(rec.inputs["ell_min"], rec.inputs["ell_max"] + 1):
                dims = cohomology_dims(n, m, ell)
                chi = chi_closed(n, m, ell)
                if chi is not None and chi != dims[0].total:
                    bad.append(["chi", n, m, ell])
                if zeta_closed(n, m, ell) != dims[n].total:
                    bad.append(["zeta", n, m, ell])
    return {"all_match": not bad, "mismatches": bad}


def _check_hn_minus_one(rec):
    bad = []
    for n in range(1, rec.inputs["n_max"] + 1):
        for m in range(n, rec.inputs["m_max"] + 1):
            got = cohomology_dims(n, m, -1)[n].total
            want = comb(m, n) * 2 ** (m - n)
            if got != want:
                bad.append([n, m, got, want])
    return {"all_match": not bad, "mismatches": bad}


def _check_picard_dims(rec):
    dims = [continuous_dim_formula(1, m) for m in rec.inputs["m_values"]]
    cech_ok = all(verify_picard_dim_cech(m) for m in rec.inputs["m_values"])
    return {"dims": dims, "cech_route": cech_ok}


def _check_cech_p13(rec):
    W, _ = parse_superpoly(rec.inputs["transition"], m=rec.inputs["m"])
    result = cech_cohomology(TransitionSheaf(rec.inputs["m"], W))
    cocycles = [
        parse_superpoly(text, m=rec.inputs["m"])[0]
        for text in rec.expected["generator_span"]
    ]
    return {
        "h0": result.h0.to_json(),
        "h1": result.h1.to_json(),
        # parity-resolved h0 - h1; the record's value is chi(O_{P^(1|3)}),
        # which this sheaf shares because W = 1 modulo nilpotents
        "euler_characteristic": [
            result.h0.even - result.h1.even,
            result.h0.odd - result.h1.odd,
        ],
        "generator_span": rec.expected["generator_span"]
        if result.h1_span_equals(cocycles)
        else ["span mismatch"],
    }


def _check_pi_picard(rec):
    split = []
    for n in range(1, rec.inputs["n_max"] + 1):
        for m in range(rec.inputs["m_min"], rec.inputs["m_max"] + 1):
            if pi_picard(n, m).split_only:
                split.append([n, m])
    dims = {
        key: pi_picard(*map(int, key.split(","))).nonsplit_parameter_dim
        for key in rec.expected["dims"]
    }
    return {"split_only_pairs": split, "dims": dims}


def _check_tangent_dims(rec):
    bad = []
    for n in range(1, 4):
        for m in range(5):
            rep = euler_tangent_dims(n, m)
            if (n, m) == (1, 2):
                if rep.h0 != DimPair(8, 8) or not rep.exceptional:
                    bad.append([n, m, "h0"])
            elif rep.h0 != sl_dimension(n, m) or rep.exceptional:
                bad.append([n, m, "h0"])
    special = {
        "h0_p34": euler_tangent_dims(3, 4).h0.to_json(),
        "h1_p14": euler_tangent_dims(1, 4).h1.to_json(),
        "h1_p23": euler_tangent_dims(2, 3).h1.to_json(),
    }
    rigid = [
        [n, m]
        for n, m in ((1, 1), (1, 2), (1, 3), (3, 4))
        if euler_tangent_dims(n, m).rigid
    ]
    return {"grid_match": not bad, "mismatches": bad, "rigid_pairs": rigid, **special}


def _check_global_fields(rec):
    basis = global_tangent_fields(2)
    count = basis.dims.total
    named = v_xi_basis()
    solver_vecs = [f.vectorize() for f in basis.all_fields()]
    named_vecs = [named.elements[n].vectorize() for n in named.names]
    span_ok = spans_equal(solver_vecs, named_vecs)
    try:
        structure_constants(named)
        closure = True
    except SuperprojError:
        closure = False
    boson = [[n, m] for n in (1, 2) for m in (2, 3) if bosonization_check(n, m)]
    return {
        "count": count,
        "span_matches": span_ok,
        "closure": closure,
        "bosonization_true_at": boson,
    }


def _check_super_gradient(rec):
    bad = []
    for n in range(1, rec.inputs["n_max"] + 1):
        for m in range(rec.inputs["m_max"] + 1):
            got = super_gradient_rank(n, m)["kernel_dim"]
            want = DimPair(1, 0) if m == n + 1 else DimPair(0, 0)
            if got != want:
                bad.append([n, m, got.to_json()])
    return {"all_match": not bad, "mismatches": bad}


def _check_osp22(rec):
    report = verify_osp22()
    return {
        "all_passed": report.all_passed,
        "entries": len(report.entries),
        "failed": [label for label, ok in report.entries if not ok],
    }


def _check_integrability(rec):
    conditions = integrability_conditions()
    rendered = {str(c) for c in conditions}
    missing = []
    for text in rec.inputs["conditions"]:
        # a printed quadratic matches a returned condition up to scale
        parsed = parse_in_context(text, ansatz_context())
        if not any(spans_equal([parsed.terms], [c.terms]) for c in conditions):
            missing.append(text)
    f = standard_fields()
    d1 = f["Xi3"] + f["Xi5"]
    d2 = f["Xi1"] + f["Xi7"]
    srs = check_srs_pair(d1, d2)
    ctx = d1.ctx
    expected_anti = SuperDerivation(ctx, 0, {"z": ctx.one() * 2})
    return {
        "contains_conditions": not missing,
        "missing": missing,
        "rendered": sorted(rendered),
        "d1_sq_zero": srs.d1_square_zero,
        "d2_sq_zero": srs.d2_square_zero,
        "anticommutator_matches": srs.anticommutator == expected_anti,
    }


def _check_characteristic(rec):
    bad = []
    for n in range(1, rec.inputs["n_max"] + 1):
        for m in range(rec.inputs["m_max"] + 1):
            r = characteristic_report(n, m)
            if r.berezinian_twist != m - n - 1 or r.super_c1 != n + 1 - m:
                bad.append([n, m, "twist"])
            if r.calabi_yau != (m == n + 1):
                bad.append([n, m, "cy"])
            for i in range(0, 2 * n + 1, 2):
                if r.de_rham_row_sum(i) != 2 ** m:
                    bad.append([n, m, "de_rham", i])
    twists = {"+": list(topological_twist("+")), "-": list(topological_twist("-"))}
    return {"all_match": not bad, "mismatches": bad, "twists": twists}


def _check_exp_log(rec):
    # properties loads only when a law-suite record runs
    from .properties import exp_log_round_trips

    rep = exp_log_round_trips(
        rec.inputs["seed"],
        rec.inputs["cases"],
        rec.inputs["m_max"],
        rec.inputs["depth_max"],
    )
    return {"failures": rep["failures"], "cases": rep["cases"]}


def _check_property_suites(rec):
    from .properties import run_all

    reports = run_all(rec.inputs["seed"], rec.inputs["cases"])
    return {"failures": {r["suite"]: r["failures"] for r in reports}}


CHECKERS = {
    "oracle-grid": _check_oracle_grid,
    "hn-minus-one": _check_hn_minus_one,
    "picard-dims": _check_picard_dims,
    "cech-p13": _check_cech_p13,
    "pi-picard": _check_pi_picard,
    "tangent-dims": _check_tangent_dims,
    "global-fields": _check_global_fields,
    "super-gradient": _check_super_gradient,
    "osp22": _check_osp22,
    "integrability": _check_integrability,
    "characteristic": _check_characteristic,
    "exp-log": _check_exp_log,
    "property-suites": _check_property_suites,
}


def _compare(expected: dict, actual: dict) -> bool:
    """Every expected key must be present in actual with an equal value."""
    for key, want in expected.items():
        if key not in actual or actual[key] != want:
            return False
    return True


def run_golden(suite=None, cases_override: int = None,
               seed_override: int = None) -> dict:
    """Recompute golden records; suite selects ids, None runs everything."""
    if cases_override is not None and cases_override < 1:
        # zero cases would check nothing, yet match every zero failure count
        raise SuperprojError(f"cases must be at least 1, got {cases_override}")
    if suite is not None and not suite:
        raise SuperprojError("an empty golden selection would check nothing")
    records = load_records()
    missing = set(suite or ()) - {rec.id for rec in records}
    if missing:
        raise SuperprojError(f"no golden fixture for {sorted(missing)}")
    report = {"schema": 1, "results": [], "all_passed": True}
    for rec in records:
        if suite is not None and rec.id not in suite:
            continue
        if rec.id not in CHECKERS:
            raise SuperprojError(f"fixture {rec.id!r} has no checker")
        overrides = {}
        if cases_override is not None and "cases" in rec.inputs:
            overrides["cases"] = cases_override
        if seed_override is not None and "seed" in rec.inputs:
            overrides["seed"] = seed_override
        if overrides:
            rec = GoldenRecord(rec.id, rec.anchor, {**rec.inputs, **overrides},
                               rec.expected, rec.provenance)
        actual = CHECKERS[rec.id](rec)
        ok = _compare(rec.expected, actual)
        report["results"].append(
            {"id": rec.id, "ok": ok, "expected": rec.expected, "actual": actual}
        )
        report["all_passed"] = report["all_passed"] and ok
    covered = {r["id"] for r in report["results"]}
    if suite is None and covered != set(CHECKERS):
        raise SuperprojError(
            f"fixture/checker mismatch: {sorted(set(CHECKERS) ^ covered)}"
        )
    return report
