from fractions import Fraction

from superproj.linalg import (
    SparseElim,
    bareiss_rank,
    echelon_basis,
    express_in_span,
    sparse_kernel,
    sparse_rank,
    spans_equal,
)
from superproj.scalars import I, ONE, Scalar


def test_sparse_rank_basic():
    rows = [{"a": 1, "b": 2}, {"a": 2, "b": 4}, {"b": 1}]
    assert sparse_rank([{k: Fraction(v) for k, v in r.items()} for r in rows]) == 2


def test_sparse_kernel_combination():
    v1 = {"x": Fraction(1), "y": Fraction(1)}
    v2 = {"x": Fraction(2), "y": Fraction(2)}
    kernels = sparse_kernel([v1, v2])
    assert len(kernels) == 1
    combo = kernels[0]
    # the combination must actually annihilate the stack
    total = {}
    for j, c in combo.items():
        for k, val in [v1, v2][j].items():
            total[k] = total.get(k, Fraction(0)) + c * val
    assert all(v == 0 for v in total.values())


def test_express_in_span():
    b1 = {"x": Scalar(1)}
    b2 = {"x": Scalar(1), "y": Scalar(1)}
    target = {"y": Scalar(3)}
    combo = express_in_span([b1, b2], target)
    assert combo is not None
    assert combo.get(1) == Scalar(3)
    assert combo.get(0, Scalar(0)) == Scalar(-3)
    assert express_in_span([b1], {"z": Scalar(1)}) is None


def test_bareiss_rank():
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[1, 0, 1], [0, 1, 1], [1, 1, 2]]) == 2
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[2, 3], [5, 7]]) == 2


def test_echelon_basis_fraction():
    vecs = [
        {"a": Fraction(2), "b": Fraction(2)},
        {"a": Fraction(1)},
        {"a": Fraction(3), "b": Fraction(2)},
    ]
    basis = echelon_basis(vecs)
    assert len(basis) == 2
    for row in basis:
        lead = row[min(row)]
        assert lead == 1


def test_echelon_basis_scalar_entries():
    vecs = [{"a": I, "b": ONE}, {"a": I * 2, "b": ONE * 2}]
    basis = echelon_basis(vecs)
    assert len(basis) == 1


def test_spans_equal():
    a = [{"x": Fraction(1)}, {"y": Fraction(1)}]
    b = [{"x": Fraction(1), "y": Fraction(1)}, {"x": Fraction(1), "y": Fraction(-1)}]
    assert spans_equal(a, b)
    assert not spans_equal(a, [{"x": Fraction(1)}])


def test_sparse_elim_reduce_is_stateless():
    elim = SparseElim()
    elim.add({"a": Fraction(1), "b": Fraction(1)})
    before = elim.rank
    reduced = elim.reduce({"a": Fraction(2), "b": Fraction(2)})
    assert reduced == {}
    assert elim.rank == before


def _floats(obj) -> list:
    """Every float anywhere inside nested dicts, lists and tuples."""
    if isinstance(obj, float):
        return [obj]
    if isinstance(obj, dict):
        return [f for k, v in obj.items() for f in _floats(k) + _floats(v)]
    if isinstance(obj, (list, tuple)):
        return [f for x in obj for f in _floats(x)]
    return []


def test_int_input_stays_exact():
    elim = SparseElim(track=True)
    elim.add({0: 2, 1: 3})
    elim.add({0: 3, 1: 1})
    elim.add({0: 5, 2: 7})
    elim.add({0: 1, 1: 4, 2: 2})  # dependent: reduces to a kernel combination
    assert elim.pivots[0][0] == {0: Fraction(7, 3)}
    assert len(elim.kernel) == 1
    reduced = elim.reduce({0: 1, 1: 1, 2: 1, 3: 2})
    assert reduced == {3: 2}
    assert _floats([elim.pivots, elim.kernel, reduced]) == []

    vectors = [{0: 2, 1: 3}, {0: 3, 1: 1}, {0: 1, 1: 5}]
    kernel = sparse_kernel(vectors)
    assert len(kernel) == 1
    for i in (0, 1):
        assert sum(c * vectors[j].get(i, 0) for j, c in kernel[0].items()) == 0
    combo = express_in_span([{0: 2, 1: 3}, {0: 3, 1: 1}], {0: 1, 1: 1})
    assert combo == {0: Fraction(2, 7), 1: Fraction(1, 7)}
    assert _floats([kernel, combo]) == []
