import pytest

from superproj.cohomology import cohomology_dims
from superproj.errors import SuperprojError
from superproj.golden import CHECKERS, load_record, load_records, run_golden


def test_fixture_checker_bijection():
    ids = {rec.id for rec in load_records()}
    assert ids == set(CHECKERS)
    assert len(ids) == 13


def test_records_well_formed():
    for rec in load_records():
        assert rec.id and rec.anchor
        assert isinstance(rec.inputs, dict)
        assert isinstance(rec.expected, dict)
        assert rec.provenance in ("reference", "derived", "trivial")


def test_load_record_by_id():
    rec = load_record("picard-dims")
    assert rec.expected["dims"] == [1, 3, 9, 25]
    with pytest.raises(SuperprojError):
        load_record("missing")


def test_run_golden_subset():
    report = run_golden(suite={"hn-minus-one", "super-gradient"})
    assert report["all_passed"]
    assert {r["id"] for r in report["results"]} == {"hn-minus-one", "super-gradient"}


def test_generator_comparison_is_by_span():
    # the cech-p13 record lists five cocycles for a 4-dimensional H1 (one is
    # redundant through the coboundary delta(1, 1)), so only a comparison of
    # spans, not of lists, can match them
    report = run_golden(suite={"cech-p13"})
    result = report["results"][0]
    assert result["actual"]["generator_span"] == result["expected"]["generator_span"]
    assert result["actual"]["h0"] == result["expected"]["h0"]


def test_p13_record_euler_characteristic_is_closed_form():
    # W = 1 modulo nilpotents, so the record's chi is that of O_{P^(1|3)},
    # taken from the closed form and not from the Cech engine
    dims = cohomology_dims(1, 3, 0)
    chi = [dims[0].even - dims[1].even, dims[0].odd - dims[1].odd]
    expected = load_record("cech-p13").expected
    assert expected["euler_characteristic"] == chi
    assert [a - b for a, b in zip(expected["h0"], expected["h1"])] == chi


def test_run_golden_rejects_ids_without_a_fixture():
    # a misspelt id would otherwise select nothing and pass with nothing checked
    with pytest.raises(SuperprojError, match="oracle_grid"):
        run_golden(suite={"oracle_grid"})
    with pytest.raises(SuperprojError, match="'missing'"):
        run_golden(suite={"characteristic", "missing"})


@pytest.mark.parametrize("cases", [0, -3])
def test_run_golden_rejects_fewer_than_one_case(cases):
    # with no cases every property suite reports zero failures, a vacuous match
    with pytest.raises(SuperprojError, match="at least 1"):
        run_golden(suite={"exp-log"}, cases_override=cases)
