"""The engine's record types keep the behaviour their dataclass forms had."""

import pytest

from superproj.cech import CechWindow, CohomologyResult
from superproj.characteristic import characteristic_report
from superproj.checkers import CHECKERS, run_golden
from superproj.cohomology import DimPair
from superproj.golden import GoldenRecord, load_records
from superproj.picard import PiPicardData
from superproj.superlie import VerificationReport
from superproj.tangent import GlobalFieldBasis, TangentReport


def test_repr_names_every_field():
    assert repr(DimPair(1, 2)) == "DimPair(even=1, odd=2)"
    assert repr(CechWindow(7)) == "CechWindow(D=7)"
    assert repr(PiPicardData(False, 1)) == (
        "PiPicardData(split_only=False, nonsplit_parameter_dim=1)"
    )
    assert str(DimPair(1, 2)) == "1|2"


def test_equality_is_by_class_then_fields():
    assert DimPair(1, 2) == DimPair(1, 2)
    assert DimPair(1, 2) != DimPair(2, 1)
    assert DimPair(1, 2) != (1, 2)
    assert CechWindow(3) == CechWindow(3) != CechWindow(4)
    assert characteristic_report(1, 2) == characteristic_report(1, 2)
    assert GlobalFieldBasis([], [1]) == GlobalFieldBasis([], [1])
    assert GlobalFieldBasis([], [1]) != GlobalFieldBasis([1], [])
    rep = TangentReport(DimPair(8, 8), DimPair(0, 0), True, False)
    assert rep == TangentReport(DimPair(8, 8), DimPair(0, 0), True, False)
    window = CechWindow(3)
    res = CohomologyResult(DimPair(1, 0), DimPair(0, 0), [], [], window)
    assert res == CohomologyResult(DimPair(1, 0), DimPair(0, 0), [], [], window)
    assert res != CohomologyResult(DimPair(1, 0), DimPair(0, 1), [], [], window)
    assert res.stabilized is True


def test_frozen_records_hash_by_fields_and_the_rest_do_not_hash():
    assert hash(DimPair(1, 2)) == hash(DimPair(1, 2))
    assert hash(CechWindow(5)) == hash(CechWindow(5))
    assert len({DimPair(1, 2), DimPair(1, 2), DimPair(2, 1)}) == 2
    with pytest.raises(TypeError):
        hash(VerificationReport())
    with pytest.raises(TypeError):
        hash(GlobalFieldBasis([], []))


def test_frozen_records_refuse_assignment():
    pair, window, rec = DimPair(1, 2), CechWindow(5), load_records()[0]
    with pytest.raises(AttributeError):
        pair.even = 3
    with pytest.raises(AttributeError):
        window.D = 6
    with pytest.raises(AttributeError):
        rec.inputs = {}
    with pytest.raises(AttributeError):
        del pair.odd
    assert (pair.even, pair.odd, window.D) == (1, 2, 5)


def test_dim_pair_refuses_negative_dimensions():
    with pytest.raises(ValueError, match="nonnegative"):
        DimPair(-1, 0)
    with pytest.raises(ValueError):
        DimPair(0, 1) - DimPair(0, 2)


def test_verification_reports_do_not_share_lists():
    a, b = VerificationReport(), VerificationReport()
    a.entries.append(("label", True))
    a.computed_only.append(("label", "1"))
    assert b.entries == [] and b.computed_only == []
    assert b.all_passed


def test_cases_override_rebuilds_the_record(monkeypatch):
    seen = []
    check = CHECKERS["exp-log"]

    def recording_check(rec):
        seen.append(rec)
        return check(rec)

    monkeypatch.setitem(CHECKERS, "exp-log", recording_check)
    run_golden(suite={"exp-log"}, cases_override=2)
    [fixture] = [rec for rec in load_records() if rec.id == "exp-log"]
    [rec] = seen
    assert isinstance(rec, GoldenRecord)
    assert rec.inputs == {**fixture.inputs, "cases": 2}
    assert (rec.id, rec.anchor, rec.expected, rec.provenance) == (
        fixture.id, fixture.anchor, fixture.expected, fixture.provenance
    )
