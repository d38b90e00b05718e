"""The windowed Cech engine, kept as a reference for the E1-page engine.

Before ``superproj.cech`` computed on the E1 page of the mask filtration, it
truncated the Laurent C1 to a window: C0 sections up to degree D, the C1 band
[depth - D, D - depth], and per mask s the columns z^a t^s up to the column
bound B + k - |s| + sigma_s, with B = D - depth and sigma_s read off W's
nilpotent terms in one mask pass.  Its exactness proofs:

(a) h0 is exact at every allowed window D >= depth + m: a section's
    component at mask s lies at z-degrees a <= k - |s| + sigma_s, its
    section reach, which is at most the column bound.
(b) h1 never exceeds the true h1: the image's part in the band is spanned
    by the window's columns, so band -> H1 is injective.
(c) h1 is exact from D_cov = depth + m + max(0, -k - 1) on: every graded-H1
    monomial w^e p^s, k - |s| < e < 0, then lies in the band, so
    band -> H1 is onto.

A rational W runs on L * W, with L the lcm of its denominators, so every
column entry is an ``int``.  A lone mask (a component {s} of one mask, on
which only the body acts) is read off as O(k - |s|) on P^1 and runs no
elimination.  ``window_cohomology`` is the old entry point: it refuses a
window below depth + m, runs the one window max(D, D_cov), and raises
``InvariantError`` when h0 - h1 is not the Euler characteristic.
``CohomologyResult.h1_class`` classifies a polar term below the band on one
run of the window depth + r that holds it.

``_mask_pass`` and ``_run_window`` are the engine's code as it was; the
tests compare the E1-page engine with them in counts, in the span of both
generator lists and in which cocycles have class 0, and check them in turn
against the general path of ``tests/test_cech.py::_reference_window``.
"""

from __future__ import annotations

from math import comb, lcm

from superproj.cech import CechWindow, TransitionSheaf, default_window
from superproj.cohomology import DimPair
from superproj.errors import ContextError, DomainError, InvariantError
from superproj.linalg import SparseElim, spans_equal
from superproj.records import Record
from superproj.scalars import ONE, Scalar
from superproj.superpoly import SuperPolynomial, koszul_sign, mask_parity


class CohomologyResult(Record):
    """A window's result, with the class map of its in-band image rows."""

    __slots__ = ("h0", "h1", "generators_h0", "generators_h1", "window_used",
                 "_sheaf", "_rows", "_lone", "_off", "_coboundaries")

    def __init__(self, h0: DimPair, h1: DimPair, generators_h0: list,
                 generators_h1: list, window_used: CechWindow,
                 _sheaf: TransitionSheaf = None, _rows: dict = None,
                 _lone: dict = None, _off: int = None):
        self.h0 = h0
        self.h1 = h1
        self.generators_h0 = generators_h0  # the Q components of sections, V chart
        self.generators_h1 = generators_h1  # V-chart Laurent polynomials
        self.window_used = window_used
        self._sheaf = _sheaf
        # the coupled components' stored vectors led by in-band keys, by key,
        # and each lone mask's hi, by mask; a key (e, s) is stored as
        # ~k = -k - 1 for k = ((e + _off) << m) | s
        self._rows = _rows
        self._lone = _lone
        self._off = _off
        # the class map, built from the rows on the first h1_class call
        self._coboundaries = None

    def h1_class(self, cocycle: SuperPolynomial) -> dict:
        """Canonical coordinates of a V-chart cocycle in the H1 quotient;
        a polar term below the band, at w^-r, is classified on one uncached
        run of the window depth + r."""
        sheaf = self._sheaf
        ctx = sheaf.W.ctx
        if cocycle.ctx != ctx:
            raise ContextError(
                f"cocycle lives in {cocycle.ctx!r}, not the V chart {ctx!r}"
            )
        r = max([-exps[0] for exps, _ in cocycle.terms if exps[0] < 0], default=0)
        if r > self.window_used.D - sheaf.depth:  # below the band [-B, B]
            wider = CechWindow(sheaf.depth + r)
            return _run_window(sheaf, wider, False).h1_class(cocycle)
        off, m = self._off, sheaf.m
        # a term with nonnegative exponent is a q unit column, and a lone mask's
        # term w^e p^s with e <= hi is its own pivot: the class of both is 0
        lone, floor = self._lone, -r - 1
        vec = {~(((e + off) << m) | s): c
               for ((e,), s), c in cocycle.terms.items() if lone.get(s, floor) < e < 0}
        if self._rows:
            if self._coboundaries is None:
                self._coboundaries = elim = SparseElim()
                elim.pivots = {key: (row, None) for key, row in self._rows.items()}
                elim.rank = len(elim.pivots)
            vec = self._coboundaries.reduce(vec)
        low = (1 << m) - 1
        return {((~k >> m) - off, ~k & low): c for k, c in vec.items()}

    def h1_span_equals(self, cocycles) -> bool:
        """Whether given cocycles span the computed H1 (compared in the quotient)."""
        given = [self.h1_class(c) for c in cocycles]
        computed = [self.h1_class(g) for g in self.generators_h1]
        return spans_equal(given, computed)


def _mask_pass(sheaf: TransitionSheaf):
    """The mask components, sectors the coboundary cannot mix (union-find),
    and sigma_s of each mask (module docstring, column bound), from one pass
    over the masks s and the nilpotent term masks t of W with s & t = 0."""
    m, k = sheaf.m, sheaf.body_exponent
    steps = [(t, k - exps[0]) for exps, t in sheaf.W.terms if t]
    parent = list(range(1 << m))
    sigma = [0] * (1 << m)

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    # s | t > s, so sigma_s is final before s | t reads it
    for s in range(1 << m):
        for t, step in steps:
            if not s & t:
                u = s | t
                sigma[u] = max(sigma[u], sigma[s] + step)
                a, b = find(s), find(u)
                if a != b:
                    parent[a] = b
    groups = {}
    for s in range(1 << m):
        groups.setdefault(find(s), []).append(s)
    return sorted(groups.values()), sigma


def _run_window(sheaf: TransitionSheaf, window: CechWindow, want_generators: bool):
    """One full computation at a fixed, allowed window."""
    D = window.D
    m = sheaf.m
    ctx_b = sheaf.W.ctx
    B = D - sheaf.depth  # the in-window C1 exponents are -B..B
    # a rational W runs scaled by the lcm of its denominators, on int
    terms, scale = sheaf.W.terms, 1
    if all(c.is_rational() for c in terms.values()):
        scale = lcm(*(c.d for c in terms.values()))
        terms = {key: c.n[0] * (scale // c.d) for key, c in terms.items()}
    w_terms = [(exps[0], mask, c) for (exps, mask), c in terms.items()]
    components, sigma = _mask_pass(sheaf)
    k = sheaf.body_exponent
    body = sheaf.W.terms[(k,), 0]  # c, unscaled

    # A C1 monomial w^e p^s is keyed by the int ((e + off) << m) | s >= 0.  In
    # the elimination an in-band key k is stored as ~k = -k - 1, so that
    # out-of-band keys lead and, in band, the smallest (e, s) leads.  off
    # covers the band and each column bound B + k - |s| + sigma_s <= D + sigma_s.
    off = D + max(sigma) + sheaf.depth + m

    h0 = {0: 0, 1: 0}
    h1 = {0: 0, 1: 0}
    gens_h0, gens_h1 = [], []
    rows, lone = {}, {}
    one_term = SuperPolynomial._term

    for comp in components:
        parity = mask_parity(comp[0])
        if len(comp) == 1:
            # a lone mask: the complex at s is O(n) on P^1 (module docstring),
            # with sections c w^(n - a) p^s and pivots w^j p^s, -B <= j <= hi
            s = comp[0]
            n = k - s.bit_count()
            hi = min(-1, n)
            h0[parity] += max(0, n + 1)
            h1[parity] += B - max(0, hi + B + 1)
            lone[s] = hi
            if want_generators:
                gens_h0 += [one_term(ctx_b, ((n - a,), s), body)
                            for a in range(n + 1)]
                gens_h1 += [one_term(ctx_b, ((j,), s), ONE)
                            for j in range(max(hi + 1, -B), 0)]
        else:
            # the column of z^a t^S is W * w^(-a-|S|) p^S: W's terms shifted by S,
            # then by a; one shifted term list per S, kept with each column
            # mask s: sections at a <= k - |s| + sigma_s, its section reach,
            # and columns up to B + that, its column bound (module docstring)
            shifts = []
            for s in comp:
                size = s.bit_count()
                shifted = []
                for e, mask, c in w_terms:
                    sign = koszul_sign(mask, s)
                    if sign:
                        e -= size
                        shifted.append((e, mask | s, ((e + off) << m) | mask | s,
                                        c if sign > 0 else -c))
                shifts.append((k - size + sigma[s], shifted))
            columns = [(a, shifted) for reach, shifted in shifts
                       for a in range(min(D, B + reach) + 1)]
            columns += [(a, shifted) for reach, shifted in shifts
                        for a in range(D + 1, B + reach + 1)]
            sections = max(reach for reach, _ in shifts) >= 0

            # h0 is the kernel of the polar-part map.  A column's exponents are at
            # most depth <= D, so its nonpolar keys are all q unit keys, which are
            # dropped: one elimination of the polar parts, in-band keys last.
            elim = SparseElim(track=want_generators and sections)
            for j, (a, shifted) in enumerate(columns):
                shift = a << m
                col = {}
                for e, _, key, c in shifted:
                    e -= a
                    if e < 0:
                        key -= shift
                        col[~key if e >= -B else key] = c
                elim.add(col, tag_key=j)
            if not sections and len(columns) > elim.rank:
                raise InvariantError(
                    f"a kernel of {len(columns) - elim.rank} in the mask component "
                    f"{comp}, whose section reach is negative at every mask"
                )
            h0[parity] += len(columns) - elim.rank
            if want_generators:
                for combo in elim.kernel:
                    q = {}
                    for j, c in combo.items():
                        a, shifted = columns[j]
                        for e, mask, _, v in shifted:
                            key = ((e - a,), mask)
                            term = c * v
                            cur = q.get(key)
                            q[key] = term if cur is None else cur + term
                    if scale != 1:
                        q = {key: v / scale for key, v in q.items()}
                    gens_h0.append(SuperPolynomial(
                        ctx_b, {key: Scalar.coerce(v) for key, v in q.items()}
                    ))

            # h1: the stored vectors led by in-band keys hold only polar
            # in-band keys and are an echelon basis of the polar in-window
            # image.  They are kept for the class map without their kernel
            # tags.  The q unit columns cover the band's |comp| * (B + 1)
            # nonnegative monomials.
            pivots = elim.pivots
            lead = [key for key in pivots if key < 0]
            for key in lead:
                rows[key] = pivots[key][0]
            h1[parity] += len(comp) * B - len(lead)
            if want_generators:
                for s in comp:
                    for j in range(-B, 0):
                        if ~(((j + off) << m) | s) not in pivots:
                            gens_h1.append(one_term(ctx_b, ((j,), s), ONE))

    return CohomologyResult(
        h0=DimPair(h0[0], h0[1]),
        h1=DimPair(h1[0], h1[1]),
        generators_h0=gens_h0,
        generators_h1=gens_h1,
        window_used=window,
        _sheaf=sheaf,
        _rows=rows,
        _lone=lone,
        _off=off,
    )


def window_cohomology(sheaf: TransitionSheaf, window: CechWindow = None,
                      want_generators: bool = True) -> CohomologyResult:
    """The windowed engine's entry point: one window max(D, D_cov), and an
    h0 - h1 other than the Euler characteristic raises InvariantError."""
    covering = default_window(sheaf)
    if window is None:
        window = covering
    if window.D < sheaf.depth + sheaf.m:
        raise DomainError(
            f"window D={window.D} below depth(W)+m = {sheaf.depth + sheaf.m}"
        )
    res = _run_window(sheaf, CechWindow(max(window.D, covering.D)), want_generators)
    k, m = sheaf.body_exponent, sheaf.m
    chi = [0, 0]
    for j in range(m + 1):  # the C(m, j) masks of size j
        chi[j & 1] += comb(m, j) * (k - j + 1)
    got = [res.h0.even - res.h1.even, res.h0.odd - res.h1.odd]
    if got != chi:
        raise InvariantError(
            f"Cech h0 - h1 = {got[0]}|{got[1]} at D={res.window_used.D}, not "
            f"the Euler characteristic {chi[0]}|{chi[1]} of O({k}) on "
            f"P^(1|{m})"
        )
    return res
