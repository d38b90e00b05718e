"""Exact linear algebra over Q and Q(zeta_8).

One eliminator: a sparse Gaussian eliminator on vectors stored as
``{key: coeff}`` dicts.  It serves the Cech engine (the rank and kernel of
its E1 differential, whose stored vectors are the class map's pivots), the
super gradient rank, the global field basis (its tracked kernel), span comparison
(a rank test) and expression in a fixed basis (one tracked elimination of
the basis serves every target).  The matrices are
extremely sparse and the row index sets are ad hoc.

Two references are kept beside it for the tests, and no engine path calls
either: ``echelon_basis``, a reduced echelon basis by one back-substitution
pass over the eliminator's stored vectors, and ``bareiss_rank``, a dense
fraction-free rank for integer matrices.  The benchmark tracer also wraps
both by name.

Coefficients are ``int``, ``Fraction`` or ``Scalar``.  Where a pivot lead
and the entry it clears are both ``int``, the step is fraction free (Bareiss,
Math. Comp. 22, 1968): integer columns stay ``int`` throughout, and each
stored vector of ``int`` entries is primitive, divided by its content gcd.
What leaves the eliminator is exact and never a float: a kernel combination
is scaled so that its own column has coefficient ``Fraction(1)``, and
``reduce`` and ``express`` divide by the multipliers they accumulated, so an
``int`` entry divided becomes a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import Scalar


def _is_zero(x) -> bool:
    if isinstance(x, Scalar):
        return x.is_zero()
    return x == 0


def _is_one(x) -> bool:
    if isinstance(x, Scalar):
        return x.is_one()
    return x == 1


class SparseElim:
    """Incremental sparse Gaussian elimination with optional combination tracking.

    Vectors are dicts mapping an arbitrary hashable row key to a nonzero
    coefficient.  Feeding vectors one by one, each is reduced against the
    pivots accumulated so far; a vector that reduces to zero contributes a
    kernel combination instead of a pivot.  A new pivot is the largest key of
    the reduced vector, so a stored vector holds no key above its pivot.

    A step whose pivot lead a and hit value b are both ``int`` is fraction
    free: with g = gcd(a, b), vec becomes (a/g) vec - (b/g) pvec, the sign
    chosen so that the multiplier a/g is positive.  Any other step divides,
    vec - (b/a) pvec.  A stored vector of ``int`` entries is divided by their
    content gcd, taken jointly with its tag when tracked, so it is primitive.
    """

    def __init__(self, track: bool = False):
        self.track = track
        self.pivots = {}  # key -> (vector, tag)
        self.rank = 0
        self.kernel = []  # list of tags (only if track)
        self._count = 0

    def add(self, vec: dict, tag_key=None):
        """Reduce vec and store it as a pivot, or record a kernel combination.

        Every coefficient of vec must be nonzero: the pivot is the largest key
        whatever its coefficient, so an explicit zero would become a pivot.
        A kernel combination holds its own column with coefficient
        ``Fraction(1)``, which makes it unique.  Returns the new pivot key, or
        None if vec reduced to zero.
        """
        vec = dict(vec)
        own = tag_key if tag_key is not None else self._count
        tag = {own: 1} if self.track else None
        self._count += 1
        self._eliminate(vec, tag)
        if not vec:
            if self.track:
                # the own coefficient is the product of the positive int
                # multipliers, since no stored tag holds this column
                self.kernel.append(_scaled(tag, tag[own]))
            return None
        pivot_key = max(vec)
        _make_primitive(vec, tag, vec[pivot_key])
        self.pivots[pivot_key] = (vec, tag)
        self.rank += 1
        return pivot_key

    def reduce(self, vec: dict) -> dict:
        """Reduce a vector against the accumulated pivots (no state change)."""
        vec = dict(vec)
        scale = self._eliminate(vec, None)
        return vec if scale == 1 else _scaled(vec, scale)

    def express(self, vec: dict):
        """Coefficients x with sum_t x[t] * (vector added under tag t) == vec,
        or None if vec lies outside the span (no state change; needs track)."""
        vec, combo = dict(vec), {}
        scale = self._eliminate(vec, combo)
        if vec:
            return None
        return _scaled(combo, -scale)

    def _eliminate(self, vec: dict, tag) -> int:
        """Clear every pivot key from vec in place, mirroring the steps on tag.

        Returns the product of the fraction-free multipliers: vec ends as that
        positive int times the exact remainder.
        """
        pivots = self.pivots
        scale = 1
        while True:
            hit = None
            for key in vec:
                if key in pivots:
                    hit = key
                    break
            if hit is None:
                return scale
            pvec, ptag = pivots[hit]
            lead, factor = pvec[hit], vec[hit]
            if type(lead) is int and type(factor) is int:
                g = gcd(lead, factor)
                if lead < 0:
                    g = -g
                lead //= g
                factor //= g
                if lead != 1:
                    scale *= lead
                    for key, val in vec.items():
                        vec[key] = val * lead
                    if tag is not None:
                        for key, val in tag.items():
                            tag[key] = val * lead
            elif not _is_one(lead):  # a pivot coefficient of 1 needs no division
                factor = factor / lead
            _axpy(vec, pvec, factor)
            if tag is not None:
                _axpy(tag, ptag, factor)


def _axpy(target: dict, source: dict, factor):
    """target -= factor * source, dropping exact zeros."""
    for key, val in source.items():
        cur = target.get(key)
        new = (cur - factor * val) if cur is not None else -factor * val
        if new.is_zero() if type(new) is Scalar else not new:
            target.pop(key, None)
        else:
            target[key] = new


def _make_primitive(vec: dict, tag, lead):
    """Divide an all-``int`` vector, with its tag, by their content gcd."""
    if type(lead) is not int or lead in (1, -1):
        return  # not an int vector, or a unit lead, whose content is 1
    try:  # math.gcd refuses a Fraction or Scalar entry
        g = gcd(*vec.values(), *(tag.values() if tag is not None else ()))
    except TypeError:
        return
    if g != 1:
        for key, val in vec.items():
            vec[key] = val // g
        if tag is not None:
            for key, val in tag.items():
                tag[key] = val // g


def _scaled(vec: dict, d: int) -> dict:
    """vec / d for a nonzero int d, exactly: an ``int`` entry becomes a
    Fraction, and d = 1 or -1 divides nothing."""
    out = {}
    for key, val in vec.items():
        if type(val) is int:
            out[key] = Fraction(val, d)
        elif d == 1:
            out[key] = val
        elif d == -1:
            out[key] = -val
        else:
            out[key] = val / d
    return out


def sparse_rank(vectors) -> int:
    elim = SparseElim()
    for v in vectors:
        elim.add(_nonzero(v))
    return elim.rank


def span_eliminator(basis) -> SparseElim:
    """A tracked eliminator of a basis list, each vector tagged by its index,
    for expressing many targets through ``SparseElim.express``."""
    elim = SparseElim(track=True)
    for i, b in enumerate(basis):
        elim.add(_nonzero(b), tag_key=i)
    return elim


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def _nonzero(vec: dict) -> dict:
    return {k: v for k, v in vec.items() if not _is_zero(v)}


def echelon_basis(vectors):
    """Reduced echelon basis of the span, for deterministic, comparable bases.

    Keys must be mutually comparable.  Rows come out sorted by pivot key (the
    row's smallest key) and fully reduced: each pivot appears in exactly one
    row, with coefficient 1.  A key enters the eliminator as its negated
    position in the sorted key list, so each pivot is its row's smallest key.
    The back-substitution feeds the stored rows, from the largest pivot key
    down, to a second eliminator, which clears the pivots stored before.
    """
    keys = sorted({k for v in vectors for k in v})
    idx = {k: -i for i, k in enumerate(keys)}
    elim, back = SparseElim(), SparseElim()
    for v in vectors:
        elim.add({idx[k]: c for k, c in _nonzero(v).items()})
    for pivot in sorted(elim.pivots):
        back.add(elim.pivots[pivot][0])
    out = []
    for pivot in sorted(back.pivots, reverse=True):
        row = back.pivots[pivot][0]
        lead = row[pivot]
        inv = Fraction(1, lead) if type(lead) is int else 1 / lead
        out.append({keys[-k]: row[k] * inv for k in sorted(row, reverse=True)})
    return out


def spans_equal(vecs_a, vecs_b) -> bool:
    """Whether two vector lists span the same space: every vector of b lies in
    the span of a, and both spans have the same rank."""
    elim = SparseElim()
    for v in vecs_a:
        elim.add(_nonzero(v))
    vecs_b = [_nonzero(v) for v in vecs_b]
    return not any(elim.reduce(v) for v in vecs_b) and sparse_rank(vecs_b) == elim.rank
