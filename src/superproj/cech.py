"""Brute-force Cech cohomology over the two-chart cover of P^(1|m).

A rank-1|0 sheaf is described by an even invertible transition function W in
the V-chart variables (w, p1..pm); a section pair (P, Q) glues iff
Q = W * (P o chart).  Cochain spaces are truncated to a finite window, which
is proven exact below.

On P^(1|m) the chart map sends z^a t^S to w^(-a-|S|) p^S with sign +1, so
each coboundary column is W shifted by a monomial: no polynomial chart map
and no polynomial product.  Each window is one linear map, the polar-part
map on the C0 columns, and each mask component of two or more masks
eliminates its columns once, out-of-band keys leading (a lone mask is read
off, see below).  h0 is the kernel: its dimension is the number of
columns less the rank, and its generators are the tracked kernel
combinations.  The stored vectors led by in-band keys are an echelon basis
of the in-window image: their count gives h1, and, kept without their
kernel tags as the pivots of one eliminator, built on the first
``h1_class`` call, they reduce a cocycle to its class.  The q unit columns
(w^b p^s, 0 <= b <= D) each hold one key with coefficient 1, so they are
never eliminated: a column's keys with nonnegative exponent are dropped
instead, and the class of any cocycle term with nonnegative exponent is
zero.

Column bound.  With k the body exponent of W, cancelling the term w^e p^t
of W on the column z^a t^s takes the body of z^(a + k - e - |t|) t^(s|t).
So sigma starts at 0 and sigma_(s|t) >= sigma_s + k - e for each nilpotent
term, read in one pass over the masks s in ascending order (s | t > s, so
sigma_s is final before s | t reads it), the same pass that joins the mask
components.  Mask s holds sections only at a <= k - |s| + sigma_s, its
section reach (proof (a)), and the band's part of the image only at
a <= B + k - |s| + sigma_s, its column bound (proof (b)); it takes the
columns z^a t^s up to its column bound.  The columns a <= D of every mask
come first, then those above D, as in the full set a <= D + r_s to which
(b) relaxes.  No section and no combination with its polar part in the band
uses a column left out, so a kept column is independent of the kept columns
before it just when it is in the full set: the kernel combinations and the
in-band pivots are the same.  A component whose section reach is negative
at every mask has no section: its elimination tracks no kernel, and a
kernel there is an engine fault.

Proof that one window is exact (the two-set Cech complex, Hartshorne III.4).
Filter the masks by size: the coboundary sends mask s to masks containing s,
and its graded piece at s is the Cech map of O(k - |s|) on P^1.  Write B =
D - depth for the band half-width; an allowed window has D >= depth + m, so
B >= 0, and B + k <= D since k <= depth.  Take a combination of U-columns
and let a be the top z-degree of its component at mask s.  The body turns
z^a t^s into c w^(k - a - |s|) p^s, below every other term of that
component at mask s.  Only a term from the component at s - u (u inside
s), through w^e p^u of W, can cancel it, and that needs
a <= deg_(s - u) + k - e - |u|.
(a) h0 is exact.  A global section has no polar part, so a <= max(k - |s|,
    deg_(s - u) + k - e - |u|).  By induction over the masks,
    deg_(s - u) <= k - |s - u| + sigma_(s - u), so the second term is at
    most k - |s| + sigma_(s - u) + k - e <= k - |s| + sigma_s, and
    a <= k - |s| + sigma_s, the section reach.  It is at most the
    column bound, since B >= 0: every section lies in the window's
    columns, and so do the h0 generators.
(b) h1 never exceeds the true h1.  For a combination whose polar part lies
    in the band an uncancelled term has exponent >= -B, so
    a <= max(B + k - |s|, deg_(s - u) + k - e - |u|), and by the same
    induction a <= B + k - |s| + sigma_s, the column bound.  So the
    image's part in the band is spanned by the window's columns, and
    band -> H1 is injective.  Since B + k <= D, the column bound is at
    most D + r_s, with r starting at 0 and r_(s|t) >= r_s + k - e - |t|.
(c) h1 is exact from D_cov = depth + m + max(0, -k - 1) on.  The graded-H1
    monomials w^e p^s, k - |s| < e < 0, span H1 under the filtration, and
    from D_cov on each lies in the band, so band -> H1 is onto.
The default window is D_cov, and ``cech_cohomology`` runs the one window
max(D, D_cov), so every result is stabilized: ``CohomologyResult.stabilized``
is the class constant True.  A cocycle whose lowest polar term w^e p^s lies
below the band, r = -e > B, is classified on one run of the window
depth + r, whose band holds it; that window is above D, so at least D_cov,
and exact by (b) and (c).  Its class is the one every exact window gives to
a cocycle in its band: below-band keys lead the elimination and the band's
keys keep their order, so in either window the stored vectors led by the
smaller band's keys are an echelon basis, with the same pivots, of the
image's part in that band (b), and the reduced form that holds no pivot key
is unique.  So the true h0 - h1, for each
parity the sum of C(m, j) (k - j + 1) over the mask sizes j of that parity
(the index of a triangular map is the sum of its graded indices, and the
graded piece depends on |s| only), is a runtime invariant: a window that
reads another value is an engine fault.

When every coefficient of W is rational, the window runs on L*W, with L the
lcm of W's coefficient denominators: every column entry is an ``int``, and
the elimination is fraction free.  A constant rescaling is an isomorphism of
sheaves, so h0, h1, both generator lists and the class map do not change:
the normalised kernel combinations are the same, the h0 generators are
divided by L, and the stored ``int`` vectors span the same image.  Only what
leaves the window is lifted to ``Scalar``: the h0 generators.  A cocycle
reduces on its own field: its ``Scalar`` entries divide against the ``int``
rows exactly, to the same unique reduced form.

The coboundary never mixes odd-mask sectors that are unreachable from each
other through W's terms, so the problem splits into many small exact linear
systems (union-find on masks, in the mask pass) instead of one large one.

Lone masks.  The union-find joins s with s | t for every nilpotent term p^t
of W disjoint from s, so a component {s} of one mask has no term of W acting
into or out of s: its sigma is 0, only the body c w^k acts, and the graded
piece at s is the whole complex at s, the Cech map of O(n) on P^1 with
n = k - |s|.  Its kernel is the max(0, n + 1) sections c w^(n - a) p^s,
a = 0..n, in the order the kernel expansion gives, and each polar column
z^a t^s, a > n, is the one key w^(n - a) p^s, its own pivot.  So a lone mask
builds no column, runs no elimination and stores no row: with
hi = min(-1, n), its in-band pivots are w^j p^s, -B <= j <= hi, so it adds
B - max(0, hi + B + 1) to h1, its h1 generators are w^j p^s for
max(hi + 1, -B) <= j <= -1, and the window keeps only hi, by s.  So
``h1_class`` drops a cocycle's term w^j p^s with j <= hi, as the pivot's
column would clear it, and keeps a term above hi, a generator: the class map
holds only the coupled components' rows, and a window of lone masks builds
none.  For O(ell) every mask is lone.
"""

from __future__ import annotations

from math import comb, lcm

from .cohomology import DimPair, cohomology_dims
from .errors import ContextError, DomainError, InvariantError, ParityError
from .linalg import SparseElim, spans_equal
from .records import FrozenRecord, Record, set_field
from .scalars import ONE, Scalar
from .superpoly import (
    SuperPolynomial,
    koszul_sign,
    mask_parity,
    pnm_transition,
)


def standard_transition(m: int):
    """``pnm_transition(1, m)``, kept as an alias for the benchmark only; the
    engine calls ``pnm_transition`` itself."""
    return pnm_transition(1, m)


class TransitionSheaf:
    """A rank-1|0 sheaf on P^(1|m) given by the frame rule e_U = W e_V."""

    def __init__(self, m: int, W: SuperPolynomial):
        if m < 0:
            raise DomainError("need m >= 0")
        self.m = m
        if W.ctx != pnm_transition(1, m).ctx_b:
            raise DomainError("W must live in the V chart (w, p1..pm)")
        if W.parity() != 0:
            raise ParityError("transition function must be even")
        body = W.body().terms
        if len(body) != 1:
            raise DomainError("transition function body must be c*w^k, c != 0")
        self.W = W
        [(exps, _)] = body
        self.body_exponent = exps[0]
        # the largest |Laurent exponent| appearing in W
        self.depth = max(abs(exps[0]) for exps, _ in W.terms)

    def __repr__(self):
        return f"TransitionSheaf(m={self.m}, W={self.W})"


def twist_sheaf(m: int, ell: int) -> TransitionSheaf:
    """The sheaf O(ell): W = w^ell, calibrated at m=0 against the Bott numbers."""
    ctx_b = pnm_transition(1, m).ctx_b
    return TransitionSheaf(m, ctx_b.monomial(1, (ell,), 0))


class CechWindow(FrozenRecord):
    """Degree bound: C0 sections up to degree D, C1 band [depth - D, D - depth]."""

    __slots__ = ("D",)

    def __init__(self, D: int):
        set_field(self, "D", D)

    def check(self, sheaf: TransitionSheaf):
        if self.D < sheaf.depth + sheaf.m:
            raise DomainError(
                f"window D={self.D} below depth(W)+m = {sheaf.depth + sheaf.m}"
            )


class CohomologyResult(Record):
    __slots__ = ("h0", "h1", "generators_h0", "generators_h1", "window_used",
                 "_sheaf", "_rows", "_lone", "_off", "_coboundaries")

    # every result a caller sees comes from one exact window (module docstring)
    stabilized = True

    def __init__(self, h0: DimPair, h1: DimPair, generators_h0: list,
                 generators_h1: list, window_used: CechWindow,
                 _sheaf: TransitionSheaf = None, _rows: dict = None,
                 _lone: dict = None, _off: int = None):
        self.h0 = h0
        self.h1 = h1
        self.generators_h0 = generators_h0  # the Q components of sections, V chart
        self.generators_h1 = generators_h1  # V-chart Laurent polynomials
        self.window_used = window_used
        self._sheaf = _sheaf  # its V chart is where cocycles live
        # the coupled components' stored vectors led by in-band keys, by key,
        # and each lone mask's hi, by mask; a key (e, s) is stored as
        # ~k = -k - 1 for k = ((e + _off) << m) | s
        self._rows = _rows
        self._lone = _lone
        self._off = _off
        # the class map, built from the rows on the first h1_class call
        self._coboundaries = None

    def _values(self) -> tuple:
        # the class map, the last slot, is a cache: equality reads the rows,
        # and the sheaf by its data (m, W)
        sheaf = self._sheaf
        return (self.h0, self.h1, self.generators_h0, self.generators_h1,
                self.window_used, None if sheaf is None else (sheaf.m, sheaf.W),
                self._rows, self._lone, self._off)

    def __repr__(self):
        # the fields equality reads, without the cache
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__[:-1])
        return f"CohomologyResult({fields})"

    def h1_class(self, cocycle: SuperPolynomial) -> dict:
        """Canonical coordinates of a V-chart cocycle in the H1 quotient.

        The result holds no pivot key of the image, so it is unique modulo
        the image.  A polar term below the window's band, at w^-r, is
        classified on one uncached run of the window depth + r, which gives
        the same class (module docstring).
        """
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


def default_window(sheaf: TransitionSheaf) -> CechWindow:
    """D_cov = depth + m + max(0, -k - 1), the least window exact in h1."""
    return CechWindow(sheaf.depth + sheaf.m + max(0, -sheaf.body_exponent - 1))


def cech_cohomology(sheaf: TransitionSheaf, window: CechWindow = None,
                    want_generators: bool = True) -> CohomologyResult:
    """Cech cohomology of a transition sheaf from one exact window.

    The window run is max(D, D_cov), which is exact (module docstring); an
    h0 - h1 other than the Euler characteristic raises InvariantError.
    """
    covering = default_window(sheaf)
    if window is None:
        window = covering
    window.check(sheaf)
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


def oracle_check_line(m: int, ell: int) -> bool:
    """Cech dims of O(ell) on P^(1|m) against the closed forms, parity-resolved.

    W = w^ell has no nilpotent term, so every mask is lone: this compares the
    per-mask counts of O(ell - |s|) on P^1 with the closed forms and runs no
    elimination.  The elimination of coupled masks is checked against the
    general path of the tests' ``_reference_window``.
    """
    if m > 8 or abs(ell) > 8:
        raise DomainError("oracle grid limited to m <= 8, |ell| <= 8")
    result = cech_cohomology(twist_sheaf(m, ell), want_generators=False)
    closed = cohomology_dims(1, m, ell)
    return result.h0 == closed[0] and result.h1 == closed[1]
