from dataclasses import replace
from itertools import combinations

import pytest

from superproj import tangent
from superproj.cohomology import DimPair
from superproj.errors import DomainError, InstabilityError, InvariantError
from superproj.linalg import SparseElim, bareiss_rank, echelon_basis, spans_equal
from superproj.superlie import v_xi_basis
from superproj.superpoly import Context, SuperDerivation, mask_parity, p1m_transition
from superproj.tangent import (
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
                        sign * int(c.rational_value())
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


def test_gradient_domain_dims():
    data = super_gradient_rank(1, 4)
    # Sym^2 of 2|4 variables: 3 + C(4,2) even, 2*4 odd
    assert data["domain_dim"] == DimPair(9, 8)


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
        rep = real(n, m)
        return replace(rep, h0=DimPair(rep.h0.even + skew, rep.h0.odd))

    monkeypatch.setattr(tangent, "euler_tangent_dims", wrong_h0)


def test_global_fields_euler_invariant(monkeypatch):
    # more fields than h0(T): an engine fault
    _skew_h0(monkeypatch, -1)
    with pytest.raises(InvariantError, match="h0\\(T\\)"):
        global_tangent_fields(1, degree_bound=4)


def test_global_fields_too_few_is_instability(monkeypatch):
    # fewer fields than h0(T): the degree bound is too low
    _skew_h0(monkeypatch, 1)
    with pytest.raises(InstabilityError, match="h0\\(T\\)") as info:
        global_tangent_fields(1, degree_bound=4)
    assert info.value.suggested == 5


def test_global_fields_solve_once(monkeypatch):
    calls = []
    real = tangent._solve_global_fields

    def solve(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tangent, "_solve_global_fields", solve)
    assert global_tangent_fields(2).dims == DimPair(8, 8)
    assert calls == [(2, 4, 3)]


def test_global_fields_bounds():
    with pytest.raises(DomainError):
        global_tangent_fields(5)
    with pytest.raises(DomainError):
        global_tangent_fields(2, degree_bound=1)


def test_bosonization_only_at_1_2():
    results = {(n, m): bosonization_check(n, m) for n in (1, 2) for m in (2, 3)}
    assert results == {(1, 2): True, (1, 3): False, (2, 2): False, (2, 3): False}
    assert not bosonization_check(1, 1)


def test_report_json():
    rep = tangent_report_json(1, 2, with_basis=True)
    assert rep["h0"] == [8, 8]
    assert rep["rigid"] is True
    assert len(rep["basis"]) == 16
    with pytest.raises(DomainError):
        tangent_report_json(2, 1, with_basis=True)


def _reference_ansatz(m, bound_z, bound_t):
    ctx = p1m_transition(m).ctx_a
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
    """Polar parts of the ansatz fields through the general pushforward."""
    tr = p1m_transition(m)
    return [
        {key: c for key, c in field.pushforward(tr).vectorize().items() if key[1][0] < 0}
        for field in _reference_ansatz(m, bound_z, bound_t)
    ]


def _reference_fields(m):
    """``global_tangent_fields(m)`` through the general pushforward, sums of
    ansatz fields and ``linalg.echelon_basis``."""
    bound = 2 + m
    ctx = p1m_transition(m).ctx_a
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
    # each key's polar part against the general pushforward of that key's field
    for m in range(5):
        for bound in (2 + m, 3 + m):
            pairs = _ansatz(m, bound, bound - 1)
            fields = _reference_ansatz(m, bound, bound - 1)
            assert [key for key, _ in pairs] == [
                next(iter(f.vectorize())) for f in fields
            ]
            ref = _reference_polars(m, bound, bound - 1)
            for (key, polar), want in zip(pairs, ref):
                assert polar == want, (m, bound, key)


def test_solved_rows_are_the_reduced_echelon_basis():
    # the tracked kernel, reversed, is the basis echelon_basis would print
    for m in range(5):
        for bound in range(2 + m, 5 + m):
            rows = _solve_global_fields(m, bound, bound - 1)
            assert rows == echelon_basis(rows), (m, bound)


def test_global_fields_one_elimination(monkeypatch):
    # one add per ansatz column, beside the adds of the Euler route's own
    # super gradient; no echelon pass adds the rows again
    adds = []
    real_add = SparseElim.add

    def add(self, vec, tag_key=None):
        adds.append(tag_key)
        return real_add(self, vec, tag_key)

    monkeypatch.setattr(SparseElim, "add", add)
    for m in range(5):
        adds.clear()
        euler_tangent_dims(1, m)
        euler_adds = len(adds)
        adds.clear()
        global_tangent_fields(m)
        assert len(adds) == len(_ansatz(m, 2 + m, 1 + m)) + euler_adds, m


def test_global_fields_match_pushforward_solver():
    for m in range(5):
        got = [str(f) for f in global_tangent_fields(m).all_fields()]
        assert got == [str(f) for f in _reference_fields(m)], m
