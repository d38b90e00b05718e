"""The dense reduced-echelon reference for the sparse engine's span work.

``echelon_basis`` and ``_sub`` are the dense rref the engine used before
``linalg.echelon_basis`` moved onto ``SparseElim``; they are kept verbatim
as an independent reference for ``tests/test_linalg.py`` and for the Cech
reference window in ``tests/test_cech.py``.
"""

from fractions import Fraction

from superproj.scalars import Scalar


def _is_zero(x) -> bool:
    if isinstance(x, Scalar):
        return x.is_zero()
    return x == 0


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
