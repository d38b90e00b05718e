"""Exact linear algebra over Q and Q(zeta_8).

Three engines:

* a sparse Gaussian eliminator working on vectors stored as ``{key: coeff}``
  dicts, used by the Cech engine (ranks, kernels, and its stored vectors as
  an echelon basis of the in-window image), the super gradient rank and the
  section solvers (their matrices are extremely sparse and the row index
  sets are ad hoc);
* a dense reduced echelon basis, which serves span comparison
  (``spans_equal``) and the tangent engine's global field bases; a Cech
  window no longer uses it;
* a dense fraction-free (Bareiss) rank for integer matrices.  No engine path
  calls it since the super gradient moved onto the sparse eliminator; it is
  kept as the tests' independent rank oracle.

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
        elim.add(v)
    return elim.rank


def sparse_kernel(vectors):
    """Kernel combinations of a list of column vectors: each returned dict d
    satisfies sum_j d[j] * vectors[j] == 0."""
    elim = SparseElim(track=True)
    for j, v in enumerate(vectors):
        elim.add(v, tag_key=j)
    return elim.kernel


def express_in_span(basis, target):
    """Coefficients x with sum_i x[i]*basis[i] == target, or None if outside."""
    elim = SparseElim(track=True)
    for i, b in enumerate(basis):
        elim.add(b, tag_key=i)
    probe = SparseElim(track=True)
    probe.pivots = elim.pivots
    probe.rank = elim.rank
    key = probe.add(dict(target), tag_key="target")
    if key is not None:
        return None
    tag = probe.kernel[-1]
    scale = tag.pop("target")
    return {i: -(c / scale) for i, c in tag.items()}


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


def echelon_basis(vectors):
    """Reduced echelon basis of the span, for deterministic, comparable bases.

    Keys must be mutually comparable.  Rows come out sorted by pivot key and
    fully reduced (each pivot appears in exactly one row, with coefficient 1),
    so two vector lists span the same space iff their echelon bases are equal.
    Intended for small spans (generator sets, field bases); uses dense rref
    over the sorted union of keys.
    """
    keys = sorted({k for v in vectors for k in v})
    idx = {k: i for i, k in enumerate(keys)}
    rows = []
    for v in vectors:
        if v:
            rows.append([v.get(k) for k in keys])
    one = Fraction(1)
    rank = 0
    pivots = []
    for c in range(len(keys)):
        pr = next(
            (i for i in range(rank, len(rows))
             if rows[i][c] is not None and not _is_zero(rows[i][c])),
            None,
        )
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        inv = one / rows[rank][c]
        rows[rank] = [None if x is None or _is_zero(x) else x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i == rank or rows[i][c] is None or _is_zero(rows[i][c]):
                continue
            f = rows[i][c]
            rows[i] = [
                _sub(rows[i][j], rows[rank][j], f) for j in range(len(keys))
            ]
        pivots.append(c)
        rank += 1
        if rank == len(rows):
            break
    out = []
    for i in range(rank):
        out.append({
            keys[j]: rows[i][j]
            for j in range(len(keys))
            if rows[i][j] is not None and not _is_zero(rows[i][j])
        })
    return out


def _sub(a, b, factor):
    """a - factor*b where None stands for zero."""
    if b is None:
        return a
    term = factor * b
    if a is None:
        return -term
    return a - term


def spans_equal(vecs_a, vecs_b) -> bool:
    return echelon_basis(vecs_a) == echelon_basis(vecs_b)
