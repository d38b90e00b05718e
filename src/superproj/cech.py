"""Cech cohomology of rank-1|0 sheaves on P^(1|m), on the E1 page of the mask
filtration.

A rank-1|0 sheaf is given by an even invertible transition function
W = c w^k + N in the V-chart variables (w, p1..pm), with N its nilpotent
terms; a section pair (P, Q) glues iff Q = W * (P o chart), and the chart map
sends z^a t^s to w^(-a-|s|) p^s with sign +1.  The V columns Q clear every C1
term w^e p^s with e >= 0, so the two-set Cech complex (Hartshorne III.4) is
the map d from the U columns z^a t^s to the polar terms w^e p^s, e < 0:
d(z^a t^s) is the polar part of W w^(-a-|s|) p^s.

The E1 page.  d = d0 + delta: d0, the body c w^k, keeps the mask, and delta,
N acting on a column, sends mask s to the masks s | t above it.  Filtered by
mask (J. McCleary, A User's Guide to Spectral Sequences, ch. 2), the graded
piece at s is the Cech map of O(n_s) on P^1, n_s = k - |s| (Hartshorne
III.5), which sends z^a t^s to c w^(n_s - a) p^s.  Its cohomology is finite
and explicit: H0 has the classes z^a t^s, 0 <= a <= n_s, and H1 the
monomials w^j p^s, n_s < j < 0.  So no degree bound is needed.

The contraction.  h sends a polar term w^e p^u with e <= n_u to the column
z^(n_u - e) t^u / c, whose d0 is that term, and is 0 on the H1 monomials.  A
C1 vector y is contracted mask by mask, in ascending order: each term
w^e p^u with e <= n_u is cleared by subtracting d of its column, which adds
terms only at masks above u; each H1 monomial is kept; nothing else is left.
So y = d(L) + p(y), with the subtracted columns L the lift and p(y) on the H1
monomials.  For an H0 class x, d(x) = delta(x) (the body term of its column
is a Q), and the contraction of delta(x) gives D(x) and L_x with
d(x - L_x) = D(x).

The lemma (the perturbation lemma, M. Crainic, "On the perturbation lemma,
and deformations", arXiv:math/0403266): D = p (1 + delta h)^(-1) delta on
the H0 classes, with the lifts x - L_x = (1 + h delta)^(-1) x, both finite
series since delta h raises the mask, has the cohomology of d.  Directly:
if d(C) lies on the H1 monomials, C's part at its lowest mask s is a sum of
H0 classes, since d0 there lands at exponents <= n_s, below every H1
monomial; subtracting the matching x - L_x moves the lowest mask up, so
C = sum lambda_x (x - L_x) and d(C) = D(lambda).  Hence, parity by parity (W is even, so D keeps parity):
- h0 = dim ker D, and the sections are the lifts sum lambda_x (x - L_x),
  lambda in ker D;
- h1 = dim coker D; the H1 monomials that are not pivots of D are a basis,
  and a cocycle's class is p(y) reduced against the image of D.
D is block diagonal in parity, so one eliminator holds both blocks, and
h0 - h1 = #H0 classes - #H1 monomials, the Euler characteristic
sum C(m, j) (k - j + 1) over the mask sizes j of each parity, by
construction.  The runtime check is one that can fail: every section P must
glue, W * (P o chart), computed by the chart map and the product loop on
term dicts, must have no polar term, or ``InvariantError`` is raised.

``CechWindow``, ``default_window``, ``standard_transition``,
``CohomologyResult.stabilized`` and ``window_used`` are kept for the
benchmark only, which reads them by name; no count, generator or class
depends on them.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .cohomology import DimPair, cohomology_dims
from .errors import ContextError, DomainError, InvariantError, ParityError
from .linalg import SparseElim, spans_equal
from .records import FrozenRecord, Record, set_field
from .scalars import ONE, Scalar
from .superpoly import (
    SuperPolynomial,
    _mul_into,
    chart_terms,
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
        [(((k,), _), c)] = body.items()
        self.body_exponent = k
        # the largest |Laurent exponent| appearing in W
        self.depth = max(abs(exps[0]) for exps, _ in W.terms)
        # delta's terms c_t w^e p^t of N as (e - k, t, c_t), and h's 1/c
        self._nilpotent = [(e - k, t, v) for ((e,), t), v in W.terms.items() if t]
        self._inverse_body = c.inverse()

    def __repr__(self):
        return f"TransitionSheaf(m={self.m}, W={self.W})"

    def _spread(self, polar: dict, heap: list, s: int, e: int, x) -> None:
        """Add x * delta(z^a t^s), a = n_s - e, to the polar C1 vector
        ``polar`` ({mask: {exponent: coefficient}}), pushing each new mask on
        ``heap``: the term c_t w^f p^t of N sends the column to
        w^(e + f - k) p^(t|s), Koszul-signed."""
        for shift, t, v in self._nilpotent:
            f = e + shift
            if f < 0 and not s & t:
                u = s | t
                row = polar.get(u)
                if row is None:
                    polar[u] = row = {}
                    heappush(heap, u)
                term = v * x if koszul_sign(t, s) > 0 else v * -x
                old = row.get(f)
                new = term if old is None else old + term
                if new.is_zero():
                    del row[f]
                else:
                    row[f] = new

    def _contract(self, polar: dict, heap: list, lift: dict = None) -> dict:
        """p(y) for the polar C1 vector y in ``polar``, with ``heap`` its masks,
        as {(exponent, mask): coefficient}; consumes both.  Each column
        z^a t^u that clears a term enters ``lift`` with its coefficient in
        x - L_x, keyed ((a,), u) (module docstring)."""
        k, inverse = self.body_exponent, self._inverse_body
        out = {}
        while heap:
            u = heappop(heap)
            n = k - u.bit_count()
            for e, v in polar.pop(u).items():
                if e > n:
                    out[e, u] = v
                    continue
                x = -(v * inverse)
                if lift is not None:
                    lift[(n - e,), u] = x
                self._spread(polar, heap, u, e, x)
        return out


def twist_sheaf(m: int, ell: int) -> TransitionSheaf:
    """The sheaf O(ell): W = w^ell, calibrated at m=0 against the Bott numbers."""
    ctx_b = pnm_transition(1, m).ctx_b
    return TransitionSheaf(m, ctx_b.monomial(1, (ell,), 0))


class CechWindow(FrozenRecord):
    """A degree bound D of the former windowed engine, kept for the benchmark
    only: ``cech_cohomology`` accepts one and ignores it but for
    ``window_used``."""

    __slots__ = ("D",)

    def __init__(self, D: int):
        set_field(self, "D", D)


def default_window(sheaf: TransitionSheaf) -> CechWindow:
    """D_cov = depth + m + max(0, -k - 1), the least window the former
    windowed engine ran; kept for the benchmark only."""
    return CechWindow(sheaf.depth + sheaf.m + max(0, -sheaf.body_exponent - 1))


class CohomologyResult(Record):
    __slots__ = ("h0", "h1", "generators_h0", "generators_h1", "window_used",
                 "_sheaf", "_image")

    # kept for the benchmark only: every result is exact
    stabilized = True

    def __init__(self, h0: DimPair, h1: DimPair, generators_h0: list,
                 generators_h1: list, window_used: CechWindow,
                 _sheaf: TransitionSheaf = None, _image: SparseElim = None):
        self.h0 = h0
        self.h1 = h1
        self.generators_h0 = generators_h0  # the Q components of sections, V chart
        self.generators_h1 = generators_h1  # V-chart Laurent monomials
        self.window_used = window_used  # for the benchmark only
        self._sheaf = _sheaf  # its V chart is where cocycles live
        self._image = _image  # D's columns, reduced: the class map

    def _values(self) -> tuple:
        # the class map is a function of the sheaf, which compares by its
        # data (m, W)
        sheaf = self._sheaf
        return (self.h0, self.h1, self.generators_h0, self.generators_h1,
                self.window_used, None if sheaf is None else (sheaf.m, sheaf.W))

    def __repr__(self):
        # the fields equality reads
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__[:-1])
        return f"CohomologyResult({fields})"

    def h1_class(self, cocycle: SuperPolynomial) -> dict:
        """Canonical coordinates {(exponent, mask): coefficient} of a V-chart
        cocycle in H1: its contraction to the H1 monomials, reduced against
        the image of D.  The result holds no pivot of D, so it is unique
        modulo the image, and it is {} just for a coboundary."""
        sheaf = self._sheaf
        ctx = sheaf.W.ctx
        if cocycle.ctx != ctx:
            raise ContextError(
                f"cocycle lives in {cocycle.ctx!r}, not the V chart {ctx!r}"
            )
        polar = {}
        for ((e,), s), c in cocycle.terms.items():
            if e < 0:
                polar.setdefault(s, {})[e] = c
        return self._image.reduce(sheaf._contract(polar, sorted(polar)))

    def h1_span_equals(self, cocycles) -> bool:
        """Whether given cocycles span the computed H1 (compared in the quotient)."""
        given = [self.h1_class(c) for c in cocycles]
        computed = [self.h1_class(g) for g in self.generators_h1]
        return spans_equal(given, computed)


def cech_cohomology(sheaf: TransitionSheaf, window: CechWindow = None,
                    want_generators: bool = True) -> CohomologyResult:
    """Cech cohomology of a transition sheaf on the E1 page (module docstring).

    ``window`` is ignored but for ``window_used``, CechWindow(max(D, D_cov)),
    which the benchmark reads.  A section that does not glue raises
    InvariantError.
    """
    m, k = sheaf.m, sheaf.body_exponent
    image = SparseElim(track=want_generators)  # D, one column per H0 class
    h0, h1 = [0, 0], [0, 0]  # H0 classes and H1 monomials, then less rank D
    lifts = []  # x - L_x per H0 class, the column tag its index
    for s in range(1 << m):
        parity, n = mask_parity(s), k - s.bit_count()
        h0[parity] += max(0, n + 1)
        h1[parity] += max(0, -n - 1)
        for a in range(n + 1):
            polar, heap = {}, []
            sheaf._spread(polar, heap, s, n - a, ONE)
            lift = {((a,), s): ONE} if want_generators else None
            image.add(sheaf._contract(polar, heap, lift), tag_key=len(lifts))
            lifts.append(lift)
    for _, s in image.pivots:
        h0[mask_parity(s)] -= 1
        h1[mask_parity(s)] -= 1

    gens_h0, gens_h1 = [], []
    if want_generators:
        W, ctx_b = sheaf.W, sheaf.W.ctx
        for combo in image.kernel:
            section = {}
            for j, lam in combo.items():
                lam = Scalar.coerce(lam)
                unit = lam.is_one()
                for key, v in lifts[j].items():
                    term = v if unit else v * lam
                    old = section.get(key)
                    section[key] = term if old is None else old + term
            # Q = W * (P o chart), glued on term dicts: P is built only to
            # name a section that does not glue
            glued = {}
            _mul_into(glued, W.terms, chart_terms(section))
            Q = SuperPolynomial(ctx_b, glued)
            if any(e < 0 for (e,), _ in Q.terms):
                P = SuperPolynomial(pnm_transition(1, m).ctx_a, section)
                raise InvariantError(
                    f"the section {P} does not glue: W * (P o chart) = {Q} "
                    f"has polar terms"
                )
            gens_h0.append(Q)
        one_term, pivots = SuperPolynomial._term, image.pivots
        for s in range(1 << m):
            top = k - s.bit_count() + 1  # the H1 monomials w^e p^s, top <= e < 0
            if top < 0:
                exps = range(top, 0)
                if pivots:
                    exps = [e for e in exps if (e, s) not in pivots]
                gens_h1 += [one_term(ctx_b, ((e,), s), ONE) for e in exps]

    covering = default_window(sheaf)
    if window is None or window.D < covering.D:
        window = covering
    return CohomologyResult(DimPair(*h0), DimPair(*h1), gens_h0, gens_h1,
                            window, sheaf, image)


def oracle_check_line(m: int, ell: int) -> bool:
    """Cech dims of O(ell) on P^(1|m) against the closed forms, parity-resolved.

    W = w^ell has no nilpotent term, so D is zero: this compares the E1
    page's per-mask counts of O(ell - |s|) on P^1 with the closed forms.  D
    itself, on coupled masks, is checked against the windowed reference of
    the tests.
    """
    if m > 8 or abs(ell) > 8:
        raise DomainError("oracle grid limited to m <= 8, |ell| <= 8")
    result = cech_cohomology(twist_sheaf(m, ell), want_generators=False)
    closed = cohomology_dims(1, m, ell)
    return result.h0 == closed[0] and result.h1 == closed[1]
