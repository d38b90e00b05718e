from copy import copy
from itertools import combinations

import pytest

from scalar_reference import rational_value
from substitution_reference import pushforward
from superproj import tangent
from superproj.checkers import run_golden
from superproj.cli import main
from superproj.cohomology import DimPair, cohomology_dims
from superproj.errors import DomainError, InvariantError
from superproj.linalg import SparseElim, bareiss_rank, echelon_basis, spans_equal
from superproj.superlie import v_xi_basis
from superproj.superpoly import Context, SuperDerivation, mask_parity, pnm_transition
from superproj.tangent import (
    TangentReport,
    _ansatz,
    _compositions,
    _rows_to_fields,
    _solve_global_fields,
    bosonization_check,
    euler_tangent_dims,
    global_tangent_fields,
    sl_dimension,
    super_gradient_rank,
    tangent_report_json,
)


def _dense_gradient_rank(n, m):
    """The super gradient's rank data from a dense integer matrix and Bareiss.

    Reference for ``super_gradient_rank``: each source monomial becomes one
    dense row of its partials, taken with ``SuperPolynomial.partial``.
    """
    d = m - n - 1
    if d < 0:
        return {"domain_dim": DimPair(0, 0), "kernel_dim": DimPair(0, 0)}
    ctx = Context(
        tuple(f"X{j}" for j in range(n + 1)),
        tuple(f"T{i}" for i in range(1, m + 1)),
    )

    def degree_monomials(deg):
        out = []
        for size in range(min(deg, m) + 1):
            for mask_bits in combinations(range(m), size):
                mask = sum(1 << b for b in mask_bits)
                for exps in _compositions(deg - size, n + 1):
                    out.append((exps, mask))
        return out

    source = degree_monomials(d)
    target_index = {key: i for i, key in enumerate(degree_monomials(d - 1))} if d else {}
    names = ctx.even + ctx.odd
    domain, kernel = {}, {}
    for parity in (0, 1):
        cols = [key for key in source if mask_parity(key[1]) == parity]
        rows = []
        for exps, mask in cols:
            mono = ctx.monomial(1, exps, mask)
            row = [0] * (len(names) * len(target_index))
            for v, name in enumerate(names):
                sign = -1 if name.startswith("T") else 1
                for key, c in mono.partial(name).terms.items():
                    row[v * len(target_index) + target_index[key]] = (
                        sign * int(rational_value(c))
                    )
            rows.append(row)
        domain[parity] = len(cols)
        kernel[parity] = len(cols) - bareiss_rank(rows)
    return {
        "domain_dim": DimPair(domain[0], domain[1]),
        "kernel_dim": DimPair(kernel[0], kernel[1]),
    }


def test_gradient_matches_dense_oracle():
    for n in range(1, 4):
        for m in range(7):
            assert super_gradient_rank(n, m) == _dense_gradient_rank(n, m), (n, m)


def test_gradient_kernel_grid():
    # through the Calabi-Yau line P^(n|n+1): the kernel is 1|0 exactly there
    for n in range(1, 5):
        for m in range(11):
            got = super_gradient_rank(n, m)["kernel_dim"]
            want = DimPair(1, 0) if m == n + 1 else DimPair(0, 0)
            assert got == want, (n, m)


def _recursive_compositions(total, parts):
    """The compositions by first part, then the rest recursively."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_compositions_match_the_recursive_reference():
    for total in range(9):
        for parts in range(1, 6):
            assert list(_compositions(total, parts)) == list(
                _recursive_compositions(total, parts)
            ), (total, parts)


def test_gradient_domain_dims():
    data = super_gradient_rank(1, 4)
    # Sym^2 of 2|4 variables: 3 + C(4,2) even, 2*4 odd
    assert data["domain_dim"] == DimPair(9, 8)


@pytest.mark.parametrize("n, m", [(-1, 2), (0, 2), (1, -3)])
def test_gradient_rejects_bad_dimensions(n, m):
    with pytest.raises(DomainError):
        super_gradient_rank(n, m)


def test_euler_tangent_dims_rejects_bad_dimensions():
    # cohomology_dims performs the check; euler_tangent_dims relies on it
    with pytest.raises(DomainError, match=r"^need n >= 1 and m >= 0$"):
        euler_tangent_dims(1, -1)


def _gradient_euler_dims(n, m):
    """``euler_tangent_dims`` as assembled before the Euler identity: the
    kernel of the edge map read off ``super_gradient_rank`` for n <= 2."""
    d0 = cohomology_dims(n, m, 0)
    d1 = cohomology_dims(n, m, 1)
    h0_mid = (n + 1) * d1[0] + m * d1[0].swap()
    hn_mid = (n + 1) * d1[n] + m * d1[n].swap()
    if n <= 2:
        kernel = super_gradient_rank(n, m)["kernel_dim"]
        if m % 2:
            kernel = kernel.swap()
    if n == 1:
        h0 = h0_mid - d0[0] + kernel
        h1 = hn_mid - (d0[1] - kernel)
    elif n == 2:
        h0 = h0_mid - d0[0]
        h1 = kernel
    else:
        h0 = h0_mid - d0[0]
        h1 = DimPair(0, 0)
    return TangentReport(
        h0=h0, h1=h1, rigid=h1 == DimPair(0, 0), exceptional=h0 != sl_dimension(n, m),
    )


def test_euler_identity_matches_the_gradient_route():
    # the kernel from the Euler identity against the eliminated one
    for n in range(1, 5):
        for m in range(11):
            assert euler_tangent_dims(n, m) == _gradient_euler_dims(n, m), (n, m)


def test_h0_law_away_from_exception():
    for n in range(1, 4):
        for m in range(5):
            rep = euler_tangent_dims(n, m)
            if (n, m) == (1, 2):
                assert rep.h0 == DimPair(8, 8)
                assert rep.exceptional
            else:
                assert rep.h0 == sl_dimension(n, m), (n, m)
                assert not rep.exceptional


def test_special_h_values():
    assert euler_tangent_dims(3, 4).h0 == DimPair(31, 32)
    assert euler_tangent_dims(1, 4).h1 == DimPair(11, 8)
    assert euler_tangent_dims(2, 3).h1 == DimPair(0, 1)
    for n, m in ((1, 1), (1, 2), (1, 3), (3, 4)):
        assert euler_tangent_dims(n, m).rigid, (n, m)
    assert not euler_tangent_dims(1, 4).rigid


def test_global_fields_m2_span():
    basis = global_tangent_fields(2)
    assert basis.dims == DimPair(8, 8)
    named = v_xi_basis()
    assert spans_equal(
        [f.vectorize() for f in basis.all_fields()],
        [named.elements[k].vectorize() for k in named.names],
    )


def test_global_fields_counts():
    assert global_tangent_fields(0).dims == DimPair(3, 0)
    assert global_tangent_fields(1).dims == DimPair(4, 4)
    assert global_tangent_fields(3).dims == DimPair(12, 12)


def test_global_fields_match_euler_route():
    for m in range(4):
        assert global_tangent_fields(m).dims == euler_tangent_dims(1, m).h0


def _skew_h0(monkeypatch, skew):
    """Shift the even h0(T) of the Euler route by skew."""
    real = tangent.euler_tangent_dims

    def wrong_h0(n, m):
        rep = copy(real(n, m))
        rep.h0 = DimPair(rep.h0.even + skew, rep.h0.odd)
        return rep

    monkeypatch.setattr(tangent, "euler_tangent_dims", wrong_h0)


def test_global_fields_euler_invariant(monkeypatch):
    # more fields than h0(T): an engine fault
    _skew_h0(monkeypatch, -1)
    with pytest.raises(InvariantError, match="h0\\(T\\)"):
        global_tangent_fields(1)


def test_global_fields_too_few_is_an_invariant_fault(monkeypatch):
    # fewer fields than h0(T): the weight bound is proven, so the ansatz
    # holds every global field and a short count is an engine fault too
    _skew_h0(monkeypatch, 1)
    with pytest.raises(InvariantError, match="h0\\(T\\)"):
        global_tangent_fields(1)


def test_basis_count_mismatch_exits_1(monkeypatch, capsys):
    _skew_h0(monkeypatch, 1)
    assert main(["tangent", "--n", "1", "--m", "2", "--basis"]) == 1
    assert capsys.readouterr().err.startswith("invariant violated:")


def test_euler_route_never_reads_the_gradient(monkeypatch):
    # the kernel comes from the Euler identity for every n
    def gradient(n, m):
        raise AssertionError(f"super gradient read at n = {n}, m = {m}")

    monkeypatch.setattr(tangent, "super_gradient_rank", gradient)
    grid = {(n, m): euler_tangent_dims(n, m) for n in range(1, 4) for m in range(7)}
    assert run_golden(suite={"tangent-dims"})["all_passed"]
    monkeypatch.undo()
    assert grid == {key: _gradient_euler_dims(*key) for key in grid}


def test_global_fields_solve_once(monkeypatch):
    calls = []
    real = tangent._solve_global_fields

    def solve(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tangent, "_solve_global_fields", solve)
    assert global_tangent_fields(2).dims == DimPair(8, 8)
    assert calls == [(2,)]


def test_global_fields_bounds():
    with pytest.raises(DomainError, match="m <= 10"):
        global_tangent_fields(11)
    with pytest.raises(DomainError, match="m >= 0"):
        global_tangent_fields(-1)


def test_bosonization_only_at_1_2():
    results = {(n, m): bosonization_check(n, m) for n in (1, 2) for m in (2, 3)}
    assert results == {(1, 2): True, (1, 3): False, (2, 2): False, (2, 3): False}
    assert not bosonization_check(1, 1)


def test_bosonization_rejects_bad_dimensions():
    for n, m in ((0, 1), (1, -5), (-2, 0), (0, 3)):
        with pytest.raises(DomainError):
            bosonization_check(n, m)
    assert [bosonization_check(n, m) for n in (1, 2) for m in (0, 1)] == [False] * 4


def test_report_json():
    rep = tangent_report_json(1, 2, with_basis=True)
    assert rep["h0"] == [8, 8]
    assert rep["rigid"] is True
    assert len(rep["basis"]) == 16
    with pytest.raises(DomainError):
        tangent_report_json(2, 1, with_basis=True)


def _reference_ansatz(m, bound_z, bound_t):
    ctx = pnm_transition(1, m).ctx_a
    ansatz = []
    for mask in range(1 << m):
        for deg in range(bound_z + 1):
            coeff = ctx.monomial(1, (deg,), mask)
            ansatz.append(SuperDerivation(ctx, mask_parity(mask), {"z": coeff}))
        for i in range(1, m + 1):
            for deg in range(bound_t + 1):
                coeff = ctx.monomial(1, (deg,), mask)
                ansatz.append(
                    SuperDerivation(ctx, mask_parity(mask) ^ 1, {f"t{i}": coeff})
                )
    return ansatz


def _reference_polars(m, bound_z, bound_t):
    """Polar parts of the ansatz fields through the general pushforward of
    ``tests/substitution_reference.py``."""
    ctx_b = pnm_transition(1, m).ctx_b
    return [_reference_polar(field, ctx_b) for field in _reference_ansatz(m, bound_z, bound_t)]


def _reference_polar(field, ctx_b):
    pushed = pushforward(field, ctx_b).vectorize()
    return {key: c for key, c in pushed.items() if key[1][0] < 0}


def _reference_fields(m):
    """``global_tangent_fields(m)`` through the general pushforward, sums of
    ansatz fields and ``linalg.echelon_basis``, at the heuristic degree
    bounds 2 + m for d/dz and 1 + m for d/dt_i that predate the weight
    bound."""
    bound = 2 + m
    ctx = pnm_transition(1, m).ctx_a
    ansatz = _reference_ansatz(m, bound, bound - 1)
    elim = SparseElim(track=True)
    for j, polar in enumerate(_reference_polars(m, bound, bound - 1)):
        elim.add(polar, tag_key=j)
    fields = []
    for combo in elim.kernel:
        total = None
        for j, c in combo.items():
            piece = ansatz[j] * c
            total = piece if total is None else total + piece
        fields.append(total)
    basis = _rows_to_fields(echelon_basis([f.vectorize() for f in fields]), ctx)
    return [f for f in basis if f.parity == 0] + [f for f in basis if f.parity == 1]


def test_polar_parts_match_pushforward():
    # the ansatz is every z^d t^S d/dv with d + |S| <= 2, and each key's
    # polar part is the general pushforward's polar part of that key's field
    for m in range(5):
        ctx_b = pnm_transition(1, m).ctx_b
        want = {}
        for field in _reference_ansatz(m, 2, 2):
            key = next(iter(field.vectorize()))
            if key[1][0] + bin(key[2]).count("1") <= 2:
                want[key] = _reference_polar(field, ctx_b)
        pairs = _ansatz(m)
        assert len(pairs) == len(want), m  # no key listed twice
        assert dict(pairs) == want, m


def test_solved_rows_are_the_reduced_echelon_basis():
    # the tracked kernel, reversed, is the basis echelon_basis would print
    for m in range(7):
        rows = _solve_global_fields(m)
        assert rows == echelon_basis(rows), m


def test_solved_field_counts_are_the_euler_h0():
    # the weight-bounded ansatz finds h0(T) fields in each parity for every
    # m <= 10 the solver serves
    for m in range(11):
        parities = [
            mask_parity(mask) ^ (name != "z")
            for name, _, mask in (min(row) for row in _solve_global_fields(m))
        ]
        got = DimPair(parities.count(0), parities.count(1))
        assert got == euler_tangent_dims(1, m).h0, m


def test_global_fields_one_elimination(monkeypatch):
    # one add per ansatz column; the Euler route eliminates nothing, and no
    # echelon pass adds the rows again
    adds = []
    real_add = SparseElim.add

    def add(self, vec, tag_key=None):
        adds.append(tag_key)
        return real_add(self, vec, tag_key)

    monkeypatch.setattr(SparseElim, "add", add)
    for m in range(5):
        adds.clear()
        euler_tangent_dims(1, m)
        assert adds == [], m
        global_tangent_fields(m)
        assert len(adds) == len(_ansatz(m)), m


def test_global_fields_match_pushforward_solver():
    for m in range(5):
        got = [str(f) for f in global_tangent_fields(m).all_fields()]
        assert got == [str(f) for f in _reference_fields(m)], m
