"""Tangent sheaf cohomology and global vector fields.

Dimensions come from the super Euler sequence

    0 -> O -> O(1) (x) C^(n+1|m) -> T -> 0,

whose long exact sequence needs one nontrivial input: the kernel of the edge
map H^n(O) -> H^n(O(1))^(n+1|m), which Serre duality realizes as the super
gradient on Sym^d, d = m - n - 1, of the dual coordinates.  The super Euler
field sum X_i d/dX_i + sum T_j d/dT_j acts as d on Sym^d (T_j d/dT_j T^S =
T^S for j in S), so a source with vanishing partials has d f = 0: the kernel
is the constants on the Calabi-Yau line m = n + 1 and 0 elsewhere.
``super_gradient_rank`` eliminates it instead, as the independent route the
golden table and the tests compare against; no engine path calls it.

Global fields on P^(1|m) come from an ansatz on the U chart whose V-chart
polar coefficients must vanish.  Give z and t_i weight 1; then w has weight
-1, p_i 0, d/dz and d/dt_i -1 and d/dw +1.  The chart map z^d t^S ->
w^(-d-|S|) p^S preserves weight, so a global field's weight components are
global, and a field regular on V has weight <= 1: its U coefficients
z^d t^S have d + |S| <= 2.  The ansatz is exactly those, with closed-form
polar parts, and the printed basis is the tracked kernel of one elimination
of them.  Its count per parity must equal h0(T) from the Euler sequence; any
other count is an engine fault.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb
from operator import sub

from .cohomology import DimPair, cohomology_dims
from .errors import DomainError, InvariantError, check_pnm
from .linalg import SparseElim
from .records import Record
from .scalars import Scalar
from .superpoly import (
    SuperDerivation,
    SuperPolynomial,
    koszul_sign,
    mask_parity,
    pnm_transition,
)


class TangentReport(Record):
    __slots__ = ("h0", "h1", "rigid", "exceptional")

    def __init__(self, h0: DimPair, h1: DimPair, rigid: bool, exceptional: bool):
        self.h0 = h0
        self.h1 = h1
        self.rigid = rigid
        self.exceptional = exceptional


def sl_dimension(n: int, m: int) -> DimPair:
    return DimPair(n * n + m * m + 2 * n, 2 * n * m + 2 * m)


def super_gradient_rank(n: int, m: int) -> dict:
    """Rank data of the super gradient on Sym^(m-n-1) of C^(n+1|m) duals.

    The map sends f to (df/dX_0, ..., df/dX_n, -df/dT_1, ..., -df/dT_m); the
    minus signs on odd rows come from the super transposition.  Each source
    monomial X^a T^S is one sparse column of its n+1+m partials, keyed
    ``(v, exps, mask)``, with ``int`` entries, so the elimination is fraction
    free.  Returns domain and kernel dimensions split by source parity.
    """
    check_pnm(n, m)
    d = m - n - 1
    if d < 0:
        return {"domain_dim": DimPair(0, 0), "kernel_dim": DimPair(0, 0)}
    domain = [0, 0]
    elims = [SparseElim(), SparseElim()]
    for size in range(min(d, m) + 1):
        parity = size & 1
        elim = elims[parity]
        # each X^a with its even partials (v, lowered a, e), shared by every T^S
        evens = [
            (exps, [(v, exps[:v] + (e - 1,) + exps[v + 1:], e)
                    for v, e in enumerate(exps) if e])
            for exps in _compositions(d - size, n + 1)
        ]
        for mask_bits in combinations(range(m), size):
            mask = sum(1 << b for b in mask_bits)
            # left derivative sign (-1)^below, times the odd row's minus sign
            odds = [(n + 1 + b, mask & ~(1 << b), 1 if below & 1 else -1)
                    for below, b in enumerate(mask_bits)]
            for exps, partials in evens:
                col = {(v, lowered, mask): e for v, lowered, e in partials}
                for row, lower, sign in odds:
                    col[(row, exps, lower)] = sign
                elim.add(col)
        domain[parity] += len(evens) * comb(m, size)
    return {
        "domain_dim": DimPair(domain[0], domain[1]),
        "kernel_dim": DimPair(domain[0] - elims[0].rank, domain[1] - elims[1].rank),
    }


def _compositions(total: int, parts: int):
    """The ``parts``-tuples of nonnegative ints summing to ``total``, in
    lexicographic order: stars and bars, the parts - 1 bars cutting the
    total stars at nondecreasing points."""
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def euler_tangent_dims(n: int, m: int) -> TangentReport:
    """Tangent cohomology assembled from the Euler long exact sequence."""
    d0 = cohomology_dims(n, m, 0)
    d1 = cohomology_dims(n, m, 1)
    h0_mid = (n + 1) * d1[0] + m * d1[0].swap()
    hn_mid = (n + 1) * d1[n] + m * d1[n].swap()
    # the Euler identity's kernel; H^n(O) pairs against an odd-twisted dual
    # space, so for odd m the constants count as odd
    kernel = DimPair(1 - m % 2, m % 2) if m == n + 1 else DimPair(0, 0)
    if n == 1:
        h0 = h0_mid - d0[0] + kernel
        h1 = hn_mid - (d0[1] - kernel)
    else:
        # for n >= 3, H^1(T) lies between H^1(O(1))^(n+1|m) = 0 and
        # H^2(O) = 0, so it does not read the kernel, which sits in H^n(O)
        h0 = h0_mid - d0[0]
        h1 = kernel if n == 2 else DimPair(0, 0)
    return TangentReport(
        h0=h0,
        h1=h1,
        rigid=h1 == DimPair(0, 0),
        exceptional=h0 != sl_dimension(n, m),
    )


class GlobalFieldBasis(Record):
    __slots__ = ("even_fields", "odd_fields")

    def __init__(self, even_fields: list, odd_fields: list):
        self.even_fields = even_fields  # SuperDerivation, U-chart representatives
        self.odd_fields = odd_fields

    @property
    def dims(self) -> DimPair:
        return DimPair(len(self.even_fields), len(self.odd_fields))

    def all_fields(self):
        return self.even_fields + self.odd_fields


def _ansatz(m: int) -> list:
    """Ansatz fields on the U chart of P^(1|m), each with its V-chart polar part.

    The fields are z^d t^S d/dz and z^d t^S d/dt_i with d + |S| <= 2 (the
    weight bound), each named by its ``vectorize`` key ``(v, (d,), S)``.
    Since z^d t^S = w^(-d-|S|) p^S with sign +1, the pushforwards are

        z^d t^S d/dz    = -w^(2-d-|S|) p^S d/dw
                          - sum_(i not in S) sign(S, i) w^(1-d-|S|) p^(S+i) d/dp_i,
        z^d t^S d/dt_i  =  w^(1-d-|S|) p^S d/dp_i,

    so under the bound only the w^-1 terms of d + |S| = 2 are polar.  The
    polar part is keyed as ``vectorize`` keys it, with ``int`` entries 1 or
    -1 (a fraction-free elimination).  Returns (key, polar) pairs.
    """
    out = []
    for size in range(3):
        for bits in combinations(range(m), size):
            mask = sum(1 << b for b in bits)
            for deg in range(3 - size):
                pole = deg + size == 2
                polar = {
                    (f"p{i + 1}", (-1,), mask | 1 << i): -koszul_sign(mask, 1 << i)
                    for i in range(m)
                    if pole and not mask >> i & 1
                }
                out.append((("z", (deg,), mask), polar))
                for i in range(1, m + 1):
                    polar = {(f"p{i}", (-1,), mask): 1} if pole else {}
                    out.append(((f"t{i}", (deg,), mask), polar))
    return out


def _solve_global_fields(m: int) -> list:
    """The pole-free fields as rows ``{key: coeff}`` over the ansatz keys, in
    reduced echelon form: ascending by smallest key, each lead 1 and absent
    from every other row.

    The columns enter one tracked elimination in descending key order, each
    tagged by its key.  A kernel combination holds its own column with
    coefficient 1 and otherwise only pivot columns fed before it, whose keys
    are larger; so its own key leads it and no other combination holds that
    key.  The kernel reversed is thus the unique reduced echelon basis, the
    one ``linalg.echelon_basis`` would return.
    """
    elim = SparseElim(track=True)
    for key, polar in sorted(_ansatz(m), reverse=True):
        elim.add(polar, tag_key=key)
    return elim.kernel[::-1]


def _rows_to_fields(rows, ctx) -> list:
    """``SuperDerivation``s of rows ``{(v, exps, mask): coeff}``."""
    out = []
    for row in rows:
        terms = {}
        for (name, exps, mask), c in sorted(row.items()):
            terms.setdefault(name, {})[(exps, mask)] = Scalar.coerce(c)
        # every key of a row has the field's parity; read it off the first
        name, _, mask = min(row)
        parity = mask_parity(mask) ^ (ctx.lookup(name)[0] == "odd")
        coeffs = {v: SuperPolynomial(ctx, t) for v, t in terms.items()}
        out.append(SuperDerivation(ctx, parity, coeffs))
    return out


def global_tangent_fields(m: int) -> GlobalFieldBasis:
    """All global vector fields on P^(1|m) by the pole-freeness ansatz.

    By the weight bound of the module docstring the ansatz holds every
    global field, so the fields found are a basis of H^0(T).  The super
    Euler sequence gives h0(T) independently, from closed forms and the
    Euler identity; a count that differs in either parity is an engine
    fault and raises ``InvariantError``.
    """
    if m < 0:
        raise DomainError("need m >= 0")
    if m > 10:
        raise DomainError("global field solver covers m <= 10")
    ctx = pnm_transition(1, m).ctx_a
    basis = _rows_to_fields(_solve_global_fields(m), ctx)
    even = [f for f in basis if f.parity == 0]
    odd = [f for f in basis if f.parity == 1]
    result = GlobalFieldBasis(even_fields=even, odd_fields=odd)
    want = euler_tangent_dims(1, m).h0
    if result.dims != want:
        raise InvariantError(
            f"{result.dims} global fields on P^(1|{m}), but the super Euler "
            f"sequence gives h0(T) = {want}"
        )
    return result


def bosonization_check(n: int, m: int) -> bool:
    """Whether any field sum(c_ij^a theta_i theta_j d/dz_a) extends globally
    (never for m < 2, which has no such field)."""
    tr = pnm_transition(n, m)
    ctx = tr.ctx_a
    even_names = ctx.even
    elim = SparseElim()
    count = 0
    for name in even_names:
        for i, j in combinations(range(m), 2):
            mask = (1 << i) | (1 << j)
            field = SuperDerivation(ctx, 0, {name: ctx.monomial(1, None, mask)})
            pushed = field.pushforward(tr)
            polar = {
                key: c
                for key, c in pushed.vectorize().items()
                if any(e < 0 for e in key[1])
            }
            elim.add(polar)
            count += 1
    return elim.rank < count


def tangent_report_json(n: int, m: int, with_basis: bool = False) -> dict:
    report = euler_tangent_dims(n, m)
    out = {
        "schema": 1,
        "n": n,
        "m": m,
        "h0": report.h0.to_json(),
        "h1": report.h1.to_json(),
        "rigid": report.rigid,
        "exceptional": report.exceptional,
    }
    if with_basis:
        if n != 1:
            raise DomainError("field basis available only for n = 1")
        basis = global_tangent_fields(m)
        out["basis"] = [str(f) for f in basis.all_fields()]
    return out
