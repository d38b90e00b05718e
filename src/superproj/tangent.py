"""Tangent sheaf cohomology and global vector fields.

Dimensions come from the super Euler sequence

    0 -> O -> O(1) (x) C^(n+1|m) -> T -> 0,

whose long exact sequence needs one nontrivial input: the kernel of the edge
map H^n(O) -> H^n(O(1))^(n+1|m).  Serre duality realizes that edge map as the
super gradient on super-symmetric powers of the dual coordinates, whose rank
comes from sparse exact elimination of one column per source monomial.

Independently, global fields on P^(1|m) are found by brute force: a
polynomial ansatz on the U chart, pushed to the V chart, with all polar
coefficients required to vanish.  The chart map sends z^d t^S to
w^(-d-|S|) p^S with sign +1, so each ansatz field's polar part has a closed
form and needs no pushforward.  The printed field basis is the
tracked kernel of one elimination of those polar parts, already reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cohomology import DimPair, cohomology_dims
from .errors import DomainError, InstabilityError, InvariantError
from .linalg import SparseElim
from .scalars import Scalar
from .superpoly import (
    SuperDerivation,
    SuperPolynomial,
    koszul_sign,
    mask_parity,
    p1m_transition,
    pnm_transition,
)


@dataclass
class TangentReport:
    n: int
    m: int
    h0: DimPair
    h1: DimPair
    rigid: bool
    sl_dim: DimPair
    exceptional: bool


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
    if n < 1 or m < 0:
        raise DomainError("need n >= 1 and m >= 0")
    d = m - n - 1
    if d < 0:
        return {"domain_dim": DimPair(0, 0), "kernel_dim": DimPair(0, 0)}
    domain = [0, 0]
    elims = [SparseElim(), SparseElim()]
    for size in range(min(d, m) + 1):
        parity = size & 1
        for mask_bits in combinations(range(m), size):
            mask = sum(1 << b for b in mask_bits)
            for exps in _compositions(d - size, n + 1):
                col = {}
                for v, e in enumerate(exps):
                    if e:
                        lowered = exps[:v] + (e - 1,) + exps[v + 1:]
                        col[(v, lowered, mask)] = e
                for below, b in enumerate(mask_bits):
                    # left derivative sign (-1)^below, times the odd row's minus sign
                    col[(n + 1 + b, exps, mask & ~(1 << b))] = 1 if below & 1 else -1
                domain[parity] += 1
                elims[parity].add(col)
    return {
        "domain_dim": DimPair(domain[0], domain[1]),
        "kernel_dim": DimPair(domain[0] - elims[0].rank, domain[1] - elims[1].rank),
    }


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def euler_tangent_dims(n: int, m: int) -> TangentReport:
    """Tangent cohomology assembled from the Euler long exact sequence."""
    if n < 1 or m < 0:
        raise DomainError("need n >= 1 and m >= 0")
    d0 = cohomology_dims(n, m, 0)
    d1 = cohomology_dims(n, m, 1)
    h0_mid = (n + 1) * d1[0] + m * d1[0].swap()
    hn_mid = (n + 1) * d1[n] + m * d1[n].swap()
    if n <= 2:
        kernel = super_gradient_rank(n, m)["kernel_dim"]
        if m % 2:
            # H^n(O) pairs against an odd-twisted dual space
            kernel = kernel.swap()
    if n == 1:
        h0 = h0_mid - d0[0] + kernel
        h1 = hn_mid - (d0[1] - kernel)
    elif n == 2:
        h0 = h0_mid - d0[0]
        h1 = kernel
    else:
        # H^1(T) lies between H^1(O(1))^(n+1|m) = 0 and H^2(O) = 0, so
        # neither dimension reads the kernel
        h0 = h0_mid - d0[0]
        h1 = DimPair(0, 0)
    sl = sl_dimension(n, m)
    return TangentReport(
        n=n,
        m=m,
        h0=h0,
        h1=h1,
        rigid=h1 == DimPair(0, 0),
        sl_dim=sl,
        exceptional=h0 != sl,
    )


@dataclass
class GlobalFieldBasis:
    even_fields: list  # SuperDerivation, U-chart representatives
    odd_fields: list

    @property
    def dims(self) -> DimPair:
        return DimPair(len(self.even_fields), len(self.odd_fields))

    def all_fields(self):
        return self.even_fields + self.odd_fields


def _ansatz(m: int, bound_z: int, bound_t: int) -> list:
    """Ansatz fields on the U chart of P^(1|m), each with its V-chart polar part.

    The fields are z^d t^S d/dz (d <= bound_z) and z^d t^S d/dt_i
    (d <= bound_t), each named by its ``SuperDerivation.vectorize`` key
    ``(v, (d,), S)``.  Since z^d t^S = w^(-d-|S|) p^S with sign +1, the
    pushforwards are

        z^d t^S d/dz    = -w^(2-d-|S|) p^S d/dw
                          - sum_(i not in S) sign(S, i) w^(1-d-|S|) p^(S+i) d/dp_i,
        z^d t^S d/dt_i  =  w^(1-d-|S|) p^S d/dp_i,

    and the polar part keeps the terms with a negative w exponent, keyed as
    ``vectorize`` keys them.  Its entries are ``int`` 1 or -1, so the
    elimination of the polar parts is fraction free.  Returns (key, polar)
    pairs.
    """
    out = []
    for mask in range(1 << m):
        size = bin(mask).count("1")
        for deg in range(bound_z + 1):
            e = 1 - deg - size
            polar = {("w", (e + 1,), mask): -1} if e + 1 < 0 else {}
            if e < 0:
                for i in range(m):
                    bit = 1 << i
                    if not mask & bit:
                        polar[(f"p{i + 1}", (e,), mask | bit)] = -koszul_sign(mask, bit)
            out.append((("z", (deg,), mask), polar))
        for i in range(1, m + 1):
            for deg in range(bound_t + 1):
                e = 1 - deg - size
                polar = {(f"p{i}", (e,), mask): 1} if e < 0 else {}
                out.append(((f"t{i}", (deg,), mask), polar))
    return out


def _solve_global_fields(m: int, bound_z: int, bound_t: int) -> list:
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
    for key, polar in sorted(_ansatz(m, bound_z, bound_t), reverse=True):
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

    The ansatz takes d/dz coefficients up to z-degree 2 + m and d/dt_i ones
    up to 1 + m.  The fields found at that bound are independent global
    fields, so per parity their count is at most h0 of the tangent sheaf,
    which the super Euler sequence gives independently (closed forms plus
    the super gradient).  An equal count certifies the basis; a larger one
    is an engine fault, a smaller one a bound too low.
    """
    if m < 0:
        raise DomainError("need m >= 0")
    if m > 4:
        raise DomainError("global field solver covers m <= 4")
    bound = 2 + m
    ctx = p1m_transition(m).ctx_a
    basis = _rows_to_fields(_solve_global_fields(m, bound, bound - 1), ctx)
    even = [f for f in basis if f.parity == 0]
    odd = [f for f in basis if f.parity == 1]
    result = GlobalFieldBasis(even_fields=even, odd_fields=odd)
    want = euler_tangent_dims(1, m).h0
    got = result.dims
    if got.even > want.even or got.odd > want.odd:
        raise InvariantError(
            f"{got} global fields on P^(1|{m}), but the super Euler "
            f"sequence gives h0(T) = {want}"
        )
    if got != want:
        raise InstabilityError(
            f"{got} global fields at degree bound {bound}, below h0(T) = {want}",
            suggested=bound + 1,
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
