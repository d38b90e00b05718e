"""Acceptance gate: thirteen criteria, each one test emitting one PASS/FAIL
line.  Every comparison is exact; there are no tolerances anywhere."""

import sys

from superproj.checkers import run_golden


def _verdict(number: int, label: str, ok: bool, detail: str = ""):
    line = f"criterion {number:02d} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _golden(number: int, record_id: str):
    report = run_golden(suite={record_id})
    result = report["results"][0]
    detail = ""
    if not result["ok"]:
        diffs = [
            f"{k}: expected {v}, got {result['actual'].get(k)}"
            for k, v in result["expected"].items()
            if result["actual"].get(k) != v
        ]
        detail = "; ".join(diffs)
    _verdict(number, record_id, result["ok"], detail)


def test_criterion_01_oracle_grid():
    _golden(1, "oracle-grid")


def test_criterion_02_hn_special_value():
    _golden(2, "hn-minus-one")


def test_criterion_03_even_picard_dims():
    _golden(3, "picard-dims")


def test_criterion_04_p13_line_bundle_example():
    _golden(4, "cech-p13")


def test_criterion_05_pi_picard():
    _golden(5, "pi-picard")


def test_criterion_06_tangent_dims():
    _golden(6, "tangent-dims")


def test_criterion_07_global_field_solver():
    _golden(7, "global-fields")


def test_criterion_08_super_gradient_kernel():
    _golden(8, "super-gradient")


def test_criterion_09_osp22_structure_equations():
    _golden(9, "osp22")


def test_criterion_10_integrability():
    _golden(10, "integrability")


def test_criterion_11_characteristic_invariants():
    _golden(11, "characteristic")


def test_criterion_12_exp_log_round_trips():
    _golden(12, "exp-log")


def test_criterion_13_property_suites():
    _golden(13, "property-suites")
