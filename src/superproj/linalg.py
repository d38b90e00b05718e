"""Exact linear algebra over Q and Q(zeta_8).

One eliminator: a sparse Gaussian eliminator on vectors stored as
``{key: coeff}`` dicts.  It serves the Cech engine (ranks, kernels, and its
stored vectors as an echelon basis of the in-window image), the super
gradient rank, the section solvers, span comparison (a rank test),
expression in a fixed basis (one tracked elimination of the basis serves
every target) and the reduced echelon bases the tangent engine prints (one
back-substitution pass over its stored vectors).  The matrices are
extremely sparse and the row index sets are ad hoc.

A dense fraction-free (Bareiss) rank for integer matrices is kept beside it
as the tests' independent rank oracle; no engine path calls it.

Coefficients are ``Fraction`` or ``Scalar``; both are exact fields.  ``int``
coefficients are accepted: a vector stored as a pivot under an ``int`` lead
has its ``int`` entries made ``Fraction``, so no division yields a float.
"""

from __future__ import annotations

from fractions import Fraction

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
        Returns the new pivot key, or None if vec reduced to zero.
        """
        vec = dict(vec)
        tag = {tag_key if tag_key is not None else self._count: Fraction(1)} if self.track else None
        self._count += 1
        self._eliminate(vec, tag)
        if not vec:
            if self.track:
                self.kernel.append(tag)
            return None
        pivot_key = max(vec)
        if type(vec[pivot_key]) is int:
            # an int lead would make the division by it a float division
            vec = {k: Fraction(v) if type(v) is int else v for k, v in vec.items()}
        self.pivots[pivot_key] = (vec, tag)
        self.rank += 1
        return pivot_key

    def reduce(self, vec: dict) -> dict:
        """Reduce a vector against the accumulated pivots (no state change)."""
        vec = dict(vec)
        self._eliminate(vec, None)
        return vec

    def express(self, vec: dict):
        """Coefficients x with sum_t x[t] * (vector added under tag t) == vec,
        or None if vec lies outside the span (no state change; needs track)."""
        vec, combo = dict(vec), {}
        self._eliminate(vec, combo)
        if vec:
            return None
        return {t: -c for t, c in combo.items()}

    def _eliminate(self, vec: dict, tag):
        """Clear every pivot key from vec in place, mirroring the steps on tag."""
        pivots = self.pivots
        while True:
            hit = None
            for key in vec:
                if key in pivots:
                    hit = key
                    break
            if hit is None:
                return
            pvec, ptag = pivots[hit]
            lead = pvec[hit]  # a pivot coefficient of 1 needs no division
            factor = vec[hit] if _is_one(lead) else vec[hit] / lead
            _axpy(vec, pvec, factor)
            if tag is not None:
                _axpy(tag, ptag, factor)


def _axpy(target: dict, source: dict, factor):
    """target -= factor * source, dropping exact zeros."""
    for key, val in source.items():
        cur = target.get(key)
        new = (cur - factor * val) if cur is not None else -factor * val
        if _is_zero(new):
            target.pop(key, None)
        else:
            target[key] = new


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


def express_in_span(basis, target):
    """Coefficients x with sum_i x[i]*basis[i] == target, or None if outside."""
    return span_eliminator(basis).express(_nonzero(target))


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
        inv = 1 / row[pivot]  # also makes int entries Fraction
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
