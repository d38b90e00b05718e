"""Brute-force Cech cohomology over the two-chart cover of P^(1|m).

A rank-1|0 sheaf is described by an even invertible transition function W in
the V-chart variables (w, p1..pm); a section pair (P, Q) glues iff
Q = W * (P o chart).  Cochain spaces are truncated to a finite window and the
computation is repeated at window D and D+1 until the dimensions agree.

On P^(1|m) the chart map sends z^a t^S to w^(-a-|S|) p^S with sign +1, so
each coboundary column is W shifted by a monomial: no general substitution
and no polynomial product.  h0 is the kernel of the polar-part map.  The
in-window image comes from one sparse elimination of the columns in which
out-of-band keys lead: its stored vectors led by in-band keys are an
echelon basis of the image, their count gives h1, and one forward pass over
them sends a cocycle to its class.  The q unit columns (w^b p^s, 0 <= b <=
D) each hold one key with coefficient 1, so they are never eliminated: a
column's keys with nonnegative exponent are dropped instead, and the class
of any cocycle term with nonnegative exponent is zero.

When every coefficient of W is rational, so is every value inside a window:
the window then computes on ``Fraction`` and lifts to ``Scalar`` only what
leaves it, the h0 generators and (when a class is first asked for) the
image rows.

The coboundary never mixes odd-mask sectors that are unreachable from each
other through W's terms, so the problem splits into many small exact linear
systems (union-find on masks) instead of one large one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cohomology import DimPair, cohomology_dims
from .errors import (
    ContextError,
    DomainError,
    InstabilityError,
    InvariantError,
    ParityError,
)
from .linalg import SparseElim, _axpy, spans_equal
from .scalars import Scalar
from .superpoly import (
    ChartTransition,
    Context,
    SuperPolynomial,
    koszul_sign,
    mask_parity,
    p1m_transition,
)


@lru_cache(maxsize=None)
def standard_transition(m: int) -> ChartTransition:
    return p1m_transition(m)


class TransitionSheaf:
    """A rank-1|0 sheaf on P^(1|m) given by the frame rule e_U = W e_V."""

    def __init__(self, m: int, W: SuperPolynomial):
        if m < 0:
            raise DomainError("need m >= 0")
        self.m = m
        self.transition = standard_transition(m)
        if W.ctx != self.transition.ctx_b:
            raise DomainError("W must live in the V chart (w, p1..pm)")
        if W.parity() != 0:
            raise ParityError("transition function must be even")
        body = W.body().terms
        if len(body) != 1:
            raise DomainError("transition function body must be c*w^k, c != 0")
        self.W = W
        (exps, _), c = next(iter(body.items()))
        self.body_exponent = exps[0]
        self.body_coeff = c

    @property
    def depth(self) -> int:
        """Largest |Laurent exponent| appearing in W."""
        lo, hi = self.W.even_exponent_range("w")
        return max(abs(lo), abs(hi))

    def __repr__(self):
        return f"TransitionSheaf(m={self.m}, W={self.W})"


def twist_sheaf(m: int, ell: int) -> TransitionSheaf:
    """The sheaf O(ell): W = w^ell, calibrated at m=0 against the Bott numbers."""
    ctx_b = standard_transition(m).ctx_b
    return TransitionSheaf(m, ctx_b.monomial(1, (ell,), 0))


@dataclass(frozen=True)
class CechWindow:
    """Degree bound: C0 sections up to degree D, C1 Laurent band [-D, D]."""

    D: int

    def check(self, sheaf: TransitionSheaf):
        if self.D < sheaf.depth + sheaf.m:
            raise DomainError(
                f"window D={self.D} below depth(W)+m = {sheaf.depth + sheaf.m}"
            )


@dataclass
class CohomologyResult:
    h0: DimPair
    h1: DimPair
    generators_h0: list  # V-chart polynomials (the Q component of sections)
    generators_h1: list  # V-chart Laurent polynomials
    window_used: CechWindow
    stabilized: bool
    _ctx: Context = None  # the V chart, where cocycles live
    _band: range = None  # the in-window C1 exponents
    _masks: frozenset = None  # the odd masks the computation covered
    # the quotient's stored rows led by in-band keys, as (key, row) with the
    # window's int keys: -k - 1 for k = ((e + off) << m) | s, _keys = (off, m)
    _rows: list = None
    _keys: tuple = None
    # (pivot, row) echelon basis of the polar in-window image, decoded from
    # _rows on the first class asked for: each row holds no key that an
    # earlier row leads, and rows are not normalised
    _image: list = None

    def h1_class(self, cocycle: SuperPolynomial) -> dict:
        """Canonical coordinates of a V-chart cocycle in the H1 quotient.

        The result holds no pivot key of the image, so it is unique modulo
        the image.  A term outside the window's band or on a mask the
        computation left out has no class here and raises DomainError.
        """
        if cocycle.ctx != self._ctx:
            raise ContextError(
                f"cocycle lives in {cocycle.ctx!r}, not the V chart {self._ctx!r}"
            )
        vec = {(exps[0], mask): c for (exps, mask), c in cocycle.terms.items()}
        if any(e not in self._band or s not in self._masks for e, s in vec):
            raise DomainError(
                f"cocycle has a term off this result's band {self._band} or masks"
            )
        if self._image is None:
            off, m = self._keys
            low = (1 << m) - 1

            def decode(k):
                k = -k - 1
                return (k >> m) - off, k & low

            self._image = [
                (decode(key), {decode(k): Scalar.coerce(v) for k, v in row.items()})
                for key, row in self._rows
            ]
        # a term with nonnegative exponent is a q unit column: its class is 0
        vec = {k: c for k, c in vec.items() if k[0] < 0}
        for pivot, row in self._image:
            c = vec.get(pivot)
            if c is None:
                continue
            lead = row[pivot]
            _axpy(vec, row, c if lead.is_one() else c / lead)
        return vec

    def h1_span_equals(self, cocycles) -> bool:
        """Whether given cocycles span the computed H1 (compared in the quotient)."""
        given = [self.h1_class(c) for c in cocycles]
        computed = [self.h1_class(g) for g in self.generators_h1]
        return spans_equal(given, computed)


def _mask_components(m: int, term_masks, mask_pred=None):
    """Partition odd masks into sectors the coboundary cannot mix."""
    masks = [s for s in range(1 << m) if mask_pred is None or mask_pred(s)]
    allowed = set(masks)
    parent = {s: s for s in masks}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for s in masks:
        for t in term_masks:
            if t and not (s & t) and (s | t) in allowed:
                a, b = find(s), find(s | t)
                if a != b:
                    parent[a] = b
    groups = {}
    for s in masks:
        groups.setdefault(find(s), []).append(s)
    return sorted(groups.values())


def _run_window(sheaf: TransitionSheaf, window: CechWindow, mask_pred,
                want_generators: bool):
    """One full computation at a fixed window; no stabilization logic."""
    window.check(sheaf)
    D = window.D
    m = sheaf.m
    ctx_b = sheaf.transition.ctx_b
    B = D - sheaf.depth
    band = range(-B, B + 1)  # in-window C1 exponents
    rational = all(c.is_rational() for c in sheaf.W.terms.values())
    w_terms = [(exps[0], mask, c.rational_value() if rational else c)
               for (exps, mask), c in sheaf.W.terms.items()]
    components = _mask_components(m, {mask for _, mask, _ in w_terms}, mask_pred)

    # A C1 monomial w^e p^s is keyed by the int ((e + off) << m) | s >= 0.  In
    # the quotient elimination an in-band key k is stored as -k - 1, so that
    # out-of-band keys lead and, in band, the smallest (e, s) leads.
    off = D + sheaf.depth + m

    h0 = {0: 0, 1: 0}
    h1 = {0: 0, 1: 0}
    gens_h0, gens_h1 = [], []
    rows = []

    for comp in components:
        parity = mask_parity(comp[0])
        comp_set = set(comp)

        # the column of z^a t^S is W * w^(-a-|S|) p^S: W's terms shifted by S,
        # then by a; one shifted term list per S, kept with each column
        columns = []
        for s in comp:
            k = bin(s).count("1")
            shifted = []
            for e, mask, c in w_terms:
                sign = koszul_sign(mask, s)
                if sign and (mask | s) in comp_set:
                    e -= k
                    shifted.append((e, mask | s, ((e + off) << m) | mask | s,
                                    c if sign > 0 else -c))
            columns.extend((a, shifted) for a in range(D + 1))

        # h0 is the kernel of the polar-part map.  A column's exponents are at
        # most depth <= D, so its nonpolar keys are all q unit keys, which the
        # quotient drops: it eliminates the polar parts, in-band keys last.
        h0_elim = SparseElim(track=want_generators)
        quotient = SparseElim()
        for j, (a, shifted) in enumerate(columns):
            shift = a << m
            polar, col = {}, {}
            for e, _, key, c in shifted:
                e -= a
                if e < 0:
                    key -= shift
                    polar[key] = c
                    col[-key - 1 if e >= -B else key] = c
            h0_elim.add(polar, tag_key=j)
            quotient.add(col)
        h0[parity] += len(columns) - h0_elim.rank
        if want_generators:
            for combo in h0_elim.kernel:
                q = {}
                for j, c in combo.items():
                    a, shifted = columns[j]
                    for e, mask, _, v in shifted:
                        key = ((e - a,), mask)
                        term = c * v
                        cur = q.get(key)
                        q[key] = term if cur is None else cur + term
                gens_h0.append(SuperPolynomial(
                    ctx_b, {key: Scalar.coerce(v) for key, v in q.items()}
                ))

        # h1: the stored vectors led by in-band keys hold only polar in-band
        # keys and are an echelon basis of the polar in-window image; listed
        # from the largest pivot down, no row holds the pivot of an earlier
        # one.  The q unit columns cover the band's |comp| * (B + 1)
        # nonnegative monomials.
        pivots = quotient.pivots
        lead = sorted((k for k in pivots if k < 0), reverse=True)
        rows.extend((key, pivots[key][0]) for key in lead)
        h1[parity] += len(comp) * B - len(lead)
        if want_generators:
            for s in comp:
                for j in range(-B, 0):
                    if -(((j + off) << m) | s) - 1 not in pivots:
                        gens_h1.append(ctx_b.monomial(1, (j,), s))

    return CohomologyResult(
        h0=DimPair(h0[0], h0[1]),
        h1=DimPair(h1[0], h1[1]),
        generators_h0=gens_h0,
        generators_h1=gens_h1,
        window_used=window,
        stabilized=False,
        _ctx=ctx_b,
        _band=band,
        _masks=frozenset(s for comp in components for s in comp),
        _rows=rows,
        _keys=(off, m),
    )


def default_window(sheaf: TransitionSheaf) -> CechWindow:
    return CechWindow(2 * sheaf.depth + sheaf.m + 2)


def cech_cohomology(sheaf: TransitionSheaf, window: CechWindow = None,
                    mask_pred=None, want_generators: bool = True) -> CohomologyResult:
    """Cech cohomology of a transition sheaf with window stabilization.

    Dimensions are accepted once two consecutive windows agree; otherwise the
    window is advanced once more, and persistent disagreement raises
    InstabilityError with a suggested retry size.  The D+1 windows are
    compared by dimensions only and list no generators; when one of them is
    accepted and generators are wanted, it is run again with them.  Over all
    masks, the accepted parity-resolved h0 - h1 must equal that of O(k) on
    P^(1|m), k the body exponent of W (the associated graded sheaf is split);
    a mismatch raises InvariantError.
    """
    if window is None:
        window = default_window(sheaf)
    cur = _run_window(sheaf, window, mask_pred, want_generators)
    for attempt in range(2):
        # the D+1 window only confirms the dimensions: it lists no generators
        nxt = _run_window(
            sheaf, CechWindow(cur.window_used.D + 1), mask_pred, False
        )
        if (cur.h0, cur.h1) == (nxt.h0, nxt.h1):
            if attempt and want_generators:
                cur = _run_window(sheaf, cur.window_used, mask_pred, True)
            cur.stabilized = True
            if mask_pred is None:
                _check_euler_characteristic(sheaf, cur)
            return cur
        cur = nxt
    raise InstabilityError(
        f"Cech dimensions did not stabilize by D={cur.window_used.D}",
        suggested=2 * cur.window_used.D,
    )


def _check_euler_characteristic(sheaf: TransitionSheaf, result: CohomologyResult):
    closed = cohomology_dims(1, sheaf.m, sheaf.body_exponent)
    want = (closed[0].even - closed[1].even, closed[0].odd - closed[1].odd)
    got = (result.h0.even - result.h1.even, result.h0.odd - result.h1.odd)
    if got != want:
        raise InvariantError(
            f"Cech h0 - h1 = {got[0]}|{got[1]} at D={result.window_used.D}, but "
            f"the Euler characteristic of O({sheaf.body_exponent}) on "
            f"P^(1|{sheaf.m}) is {want[0]}|{want[1]}"
        )


def oracle_check_line(m: int, ell: int) -> bool:
    """Cech dims of O(ell) on P^(1|m) against the closed forms, parity-resolved."""
    if m > 8 or abs(ell) > 8:
        raise DomainError("oracle grid limited to m <= 8, |ell| <= 8")
    result = cech_cohomology(twist_sheaf(m, ell), want_generators=False)
    closed = cohomology_dims(1, m, ell)
    return result.h0 == closed[0] and result.h1 == closed[1]
