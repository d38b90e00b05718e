import json

import pytest

from superproj.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cohomology_json(capsys):
    code, out, _ = run(capsys, "cohomology", "--n", "1", "--m", "3", "--ell", "-1")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["dims"]["1"] == [6, 6]


def test_cohomology_oracle(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--n", "1", "--m", "3", "--ell", "-1", "--oracle"
    )
    assert code == 0
    assert json.loads(out)["oracle"] == "pass"


def test_cohomology_oracle_needs_n1(capsys):
    code, _, err = run(
        capsys, "cohomology", "--n", "2", "--m", "3", "--ell", "-1", "--oracle"
    )
    assert code == 2
    assert "n = 1" in err


def test_cech_example(capsys):
    code, out, _ = run(
        capsys, "cech", "--m", "3",
        "--transition", "1+(p1*p2+p1*p3+p2*p3)*w^-1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["h0"] == [0, 0]
    assert data["h1"] == [2, 2]
    assert data["stabilized"] is True


def test_cech_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "cech", "--m", "2", "--transition", "t1^2")
    assert code == 2
    assert "nilpotent" in err


def test_cech_wrong_chart_exit_2(capsys):
    code, _, err = run(capsys, "cech", "--m", "2", "--transition", "z")
    assert code == 2


def test_cech_window_too_small_exit_2(capsys):
    code, _, _ = run(
        capsys, "cech", "--m", "2", "--transition", "1 - 3*p1*p2*w^-1",
        "--window", "2",
    )
    assert code == 2


def test_picard_verify(capsys):
    code, out, _ = run(capsys, "picard", "--n", "1", "--m", "3", "--verify")
    assert code == 0
    data = json.loads(out)
    assert data["continuous_dim"] == 3
    assert data["verify"] == "pass"


def test_tangent_basis(capsys):
    code, out, _ = run(capsys, "tangent", "--n", "1", "--m", "2", "--basis")
    assert code == 0
    data = json.loads(out)
    assert data["h0"] == [8, 8]
    assert len(data["basis"]) == 16


def test_osp22_verify(capsys):
    code, out, _ = run(capsys, "osp22-verify")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    assert len(data["entries"]) == 58


def test_characteristic(capsys):
    code, out, _ = run(capsys, "characteristic", "--n", "3", "--m", "4")
    assert code == 0
    data = json.loads(out)
    assert data["calabi_yau"] is True


def test_formats(capsys, monkeypatch):
    code, out, _ = run(
        capsys, "characteristic", "--n", "1", "--m", "0", "--format", "text"
    )
    assert code == 0 and "calabi_yau: False" in out
    code, out, _ = run(
        capsys, "characteristic", "--n", "1", "--m", "0", "--format", "csv"
    )
    assert code == 0 and out.startswith("key,value")
    monkeypatch.setenv("SUPERPROJ_FORMAT", "text")
    code, out, _ = run(capsys, "characteristic", "--n", "1", "--m", "0")
    assert code == 0 and out.startswith("schema: 1")


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "picard", "--n", "1", "--m", "4")
    _, second, _ = run(capsys, "picard", "--n", "1", "--m", "4")
    assert first == second


def test_usage_error_exit_2(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "cohomology", "--n", "1")[0] == 2


def test_selftest_subset_runs(capsys):
    # keep it cheap: the full selftest is exercised by the acceptance suite
    from superproj.golden import run_golden

    report = run_golden(suite={"characteristic"})
    assert report["all_passed"]


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_selftest_rejects_fewer_than_one_case(capsys, cases):
    code, out, err = run(capsys, "selftest", "--cases", cases)
    assert code == 2 and out == ""
    assert "at least 1" in err
