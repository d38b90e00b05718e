from superproj.properties import (
    ALL_SUITES,
    exp_log_round_trips,
    run_all,
    suite_duality,
    suite_sign_laws,
)

SEED = 7
CASES = 1000
FAST_CASES = 120


def _full(suite: str) -> dict:
    """The seed-7, 1000-case report of one suite; criterion 13 runs the same
    ``run_all`` call, which computes these suites once per process."""
    report = {r["suite"]: r for r in run_all(SEED, CASES)}[suite]
    assert report["cases"] == CASES
    return report


def test_sign_laws_full():
    assert _full("sign_laws")["failures"] == 0


def test_jacobi_full():
    assert _full("jacobi")["failures"] == 0


def test_leibniz_full():
    assert _full("leibniz")["failures"] == 0


def test_stabilization_full():
    assert _full("stabilization")["failures"] == 0


def test_iso_invariance_full():
    assert _full("iso_invariance")["failures"] == 0


def test_seed_reproducibility():
    for suite in ALL_SUITES:
        assert suite(123, FAST_CASES) == suite(123, FAST_CASES)


def test_different_seeds_still_pass():
    for seed in (0, 1, 99):
        assert suite_sign_laws(seed, FAST_CASES)["failures"] == 0


def test_exp_log_round_trips():
    report = exp_log_round_trips(20260823, 500, m_max=6, depth_max=3)
    assert report == {"suite": "exp_log", "cases": 500, "failures": 0}


def test_run_all_is_memoised_and_returns_copies():
    first = run_all(5, 6)
    assert first == [suite(5, 6) for suite in ALL_SUITES]
    first[0]["failures"] = 99
    first.append("extra")
    second = run_all(5, 6)
    assert second == [suite(5, 6) for suite in ALL_SUITES]
    assert second[0] is not run_all(5, 6)[0]


def test_duality_wide():
    # draws that reach past the law suites: body and nilpotent exponents in
    # [-4, 4], up to 4 nilpotent terms, m = 1..5
    assert suite_duality(11, 300) == {"suite": "duality", "cases": 300, "failures": 0}
    assert suite_duality not in ALL_SUITES
