import hashlib
import json
import shlex
from pathlib import Path

import pytest

from superproj.cech import TransitionSheaf, cech_cohomology
from superproj.cli import main
from superproj.linalg import spans_equal
from superproj.parser import parse_superpoly


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
    # the E1 page has no window: nothing reports one
    assert "window" not in data and "stabilized" not in data


def test_cech_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "cech", "--m", "2", "--transition", "t1^2")
    assert code == 2
    assert "nilpotent" in err


@pytest.mark.parametrize("transition, what", [
    ("p1^-1", "odd variable 'p1'"), ("0^-1", "zero factor"),
    ("(p1*p2)^-1", "nilpotent factor"), ("(w+1)^-1", "factor"),
])
def test_cech_negative_power_of_a_non_unit_is_a_parse_error(capsys, transition, what):
    # the base's offset, not a bare error from the inverse
    code, out, err = run(capsys, "cech", "--m", "2", "--transition", transition)
    assert (code, out) == (2, "")
    assert err == f"parse error: {what} is not invertible: power -1 (at offset 0)\n"


def test_cech_negative_m_names_only_m(capsys):
    code, out, err = run(capsys, "cech", "--m", "-1", "--transition", "1")
    assert code == 2 and out == ""
    assert err == "error: need m >= 0\n"


def test_cech_wrong_chart_exit_2(capsys):
    code, out, err = run(capsys, "cech", "--m", "2", "--transition", "z")
    assert code == 2
    assert out == ""
    assert "V chart" in err


def test_cech_has_no_window_option(capsys):
    code, out, err = run(
        capsys, "cech", "--m", "2", "--transition", "1 - 3*p1*p2*w^-1",
        "--window", "6",
    )
    assert code == 2 and out == ""
    assert "unrecognized arguments: --window" in err


def test_picard_verify(capsys):
    code, out, _ = run(capsys, "picard", "--n", "1", "--m", "3", "--verify")
    assert code == 0
    data = json.loads(out)
    assert data["continuous_dim"] == 3
    assert data["verify"] == "pass"


def test_picard_verify_refuses_m_outside_the_cech_range(capsys):
    # the range is stated once, by the engine
    code, out, err = run(capsys, "picard", "--n", "1", "--m", "7", "--verify")
    assert code == 2 and out == ""
    assert err == "error: the Cech check needs 2 <= m <= 6\n"


def test_picard_verify_refuses_n_other_than_1(capsys):
    code, out, err = run(capsys, "picard", "--n", "2", "--m", "3", "--verify")
    assert code == 2 and out == ""
    assert err == "error: --verify needs n = 1\n"


def test_tangent_basis(capsys):
    code, out, _ = run(capsys, "tangent", "--n", "1", "--m", "2", "--basis")
    assert code == 0
    data = json.loads(out)
    assert data["h0"] == [8, 8]
    assert len(data["basis"]) == 16


def test_tangent_basis_reaches_m_10(capsys):
    code, out, _ = run(capsys, "tangent", "--n", "1", "--m", "5", "--basis")
    assert code == 0
    data = json.loads(out)
    assert data["h0"] == [28, 20] and len(data["basis"]) == 48
    code, out, err = run(capsys, "tangent", "--n", "1", "--m", "11", "--basis")
    assert code == 2 and out == "" and "m <= 10" in err


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
    from superproj.checkers import run_golden

    report = run_golden(suite={"characteristic"})
    assert report["all_passed"]


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_selftest_rejects_fewer_than_one_case(capsys, cases):
    code, out, err = run(capsys, "selftest", "--cases", cases)
    assert code == 2 and out == ""
    assert "at least 1" in err


# sha256 of stdout and the exit code of each README command line, and of the
# cheap selftest, as the engine printed them when this table was recorded; a
# change meant to leave the outputs alone must leave this table alone
PINNED_STDOUT = {
    "cohomology --n 1 --m 3 --ell -1 --oracle":
        ("8c6e435b29f9bc16847210df70d94d0cc5d13afd60b3c78d32c2df1bc97752d9", 0),
    "cech --m 3 --transition '1+(p1*p2+p1*p3+p2*p3)*w^-1'":
        ("da3c45f49b9df719717461ab462c10e920120df1036044e6c3209f9c0215e3a6", 0),
    "cech --m 4 --transition 'w*(1+i*p1*p2*w^-1)'":
        ("33e0823f469486696fa88d73f0e471cafbdf19f02ad336be1bc33cd0c9cab038", 0),
    "cech --m 4 --transition '(3/2)*w*(1+(1/3)*p1*p2*w^-1-(2/5)*p2*p3*w)'":
        ("b32e84aa569ef413c84f58d0d1f6d9b6eeab9950ec6dbeb8d52b5a7d125405e2", 0),
    "picard --n 1 --m 4 --verify":
        ("ee74b86510170b6b48bfdef4d88074810aecf27ff9ce678b8ca4755f879b8b2d", 0),
    "tangent --n 1 --m 2 --basis":
        ("b12e1f502bf97484bc2e96d3dc36bdfe01f7a7b76b6789416e27a036d58f522c", 0),
    "osp22-verify":
        ("1c8175c98a4231c68b845ae3adf3fd6989edecf9d5fd7d7ef0909fd5c14f643a", 0),
    "characteristic --n 3 --m 4":
        ("57546c70509d10a7a5bc96d82f2003a37d2c125a7bbf0d85649fd7e154eb9de1", 0),
    "selftest":
        ("c1418ffc940dda5593d1f0ec95cfbf20b9d34da050f32f4b5820ee53bca9bf1f", 0),
    "selftest --cases 20":
        ("9b04260590445a362aa1a2ef248cfbcd6f6d5daa33f3902f1c89f0e2d9616a2f", 0),
}


def test_pinned_commands_are_the_readme_examples():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line]
    pinned = [shlex.split(cmd) for cmd in PINNED_STDOUT if cmd != "selftest --cases 20"]
    assert examples == pinned


@pytest.mark.parametrize("command", PINNED_STDOUT)
def test_stdout_is_pinned(capsys, command):
    code, out, _ = run(capsys, *shlex.split(command))
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == PINNED_STDOUT[command]


# the generator lists the windowed engine printed for the README cech lines,
# before the E1 page; the H1 basis differs (w^-1*p3 is no E1 monomial), the
# spans do not
WINDOWED_LISTS = {
    "1+(p1*p2+p1*p3+p2*p3)*w^-1": (
        [], ["w^-1*p1*p3", "w^-1*p2*p3", "w^-1*p3", "w^-1*p1*p2*p3"]),
    "w*(1+i*p1*p2*w^-1)": (
        ["w + i*p1*p2", "i", "p1", "p2"],
        ["w^-1*p3*p4", "w^-1*p1*p2*p3*p4", "w^-1*p1*p3*p4", "w^-1*p2*p3*p4"]),
    "(3/2)*w*(1+(1/3)*p1*p2*w^-1-(2/5)*p2*p3*w)": (
        ["3/2*w + 1/2*p1*p2 - 3/5*w^2*p2*p3", "-9/2 + 9/5*w*p2*p3",
         "3/2*p1 - 3/5*w*p1*p2*p3", "3/2*p2"],
        ["w^-1*p2*p3*p4", "w^-1*p3*p4", "w^-1*p1*p2*p3*p4", "w^-1*p1*p3*p4"]),
}


@pytest.mark.parametrize("transition", WINDOWED_LISTS)
def test_readme_cech_lists_span_the_windowed_lists(capsys, transition):
    m = 3 if transition.startswith("1+") else 4
    code, out, _ = run(capsys, "cech", "--m", str(m), "--transition", transition)
    data = json.loads(out)
    old_h0, old_h1 = WINDOWED_LISTS[transition]
    assert code == 0 and data["generators_h1"] != old_h1

    def parse(texts):
        return [parse_superpoly(text, m=m)[0] for text in texts]

    result = cech_cohomology(TransitionSheaf(m, parse([transition])[0]))
    assert spans_equal([g.terms for g in parse(data["generators_h0"])],
                       [g.terms for g in parse(old_h0)])
    assert result.h1_span_equals(parse(old_h1))
    assert result.h1_span_equals(parse(data["generators_h1"]))
