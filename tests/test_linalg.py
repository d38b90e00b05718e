import random
from fractions import Fraction

import dense_reference
from superproj.linalg import (
    SparseElim,
    bareiss_rank,
    echelon_basis,
    sparse_rank,
    span_eliminator,
    spans_equal,
)
from superproj.scalars import I, ONE, Scalar


def _kernel(vectors):
    """Kernel combinations d of a column list: sum_j d[j] * vectors[j] == 0."""
    elim = SparseElim(track=True)
    for j, v in enumerate(vectors):
        elim.add(v, tag_key=j)
    return elim.kernel


def test_sparse_rank_basic():
    rows = [{"a": 1, "b": 2}, {"a": 2, "b": 4}, {"b": 1}]
    assert sparse_rank([{k: Fraction(v) for k, v in r.items()} for r in rows]) == 2


def test_explicit_zero_entries_are_not_pivots():
    # an explicit zero coefficient is no entry: it must neither count towards
    # the rank nor become a pivot that a later reduction divides by
    assert sparse_rank([{0: Fraction(0)}]) == 0
    assert sparse_rank([{0: 1, 1: 0}, {0: 1}]) == 1
    assert span_eliminator([{1: 0, 0: 1}]).express({1: 1}) is None


def test_sparse_kernel_combination():
    v1 = {"x": Fraction(1), "y": Fraction(1)}
    v2 = {"x": Fraction(2), "y": Fraction(2)}
    kernels = _kernel([v1, v2])
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
    combo = span_eliminator([b1, b2]).express(target)
    assert combo is not None
    assert combo.get(1) == Scalar(3)
    assert combo.get(0, Scalar(0)) == Scalar(-3)
    assert span_eliminator([b1]).express({"z": Scalar(1)}) is None


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


def test_echelon_basis_of_int_rows_is_fraction():
    # an int row stays int inside the eliminator; the final scaling by the
    # lead must not be a float division
    basis = echelon_basis([{0: 2, 1: 4}])
    assert basis == [{0: Fraction(1), 1: Fraction(2)}]
    assert [type(v) for v in basis[0].values()] == [Fraction, Fraction]


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
    # int rows stay int, primitive jointly with their tag: 7 e0 = 3 v1 - v0
    assert elim.pivots[0] == ({0: 7}, {1: 3, 0: -1})
    assert len(elim.kernel) == 1
    reduced = elim.reduce({0: 1, 1: 1, 2: 1, 3: 2})
    assert reduced == {3: 2}
    assert _floats([elim.pivots, elim.kernel, reduced]) == []

    vectors = [{0: 2, 1: 3}, {0: 3, 1: 1}, {0: 1, 1: 5}]
    kernel = _kernel(vectors)
    assert len(kernel) == 1
    for i in (0, 1):
        assert sum(c * vectors[j].get(i, 0) for j, c in kernel[0].items()) == 0
    combo = span_eliminator([{0: 2, 1: 3}, {0: 3, 1: 1}]).express({0: 1, 1: 1})
    assert combo == {0: Fraction(2, 7), 1: Fraction(1, 7)}
    assert _floats([kernel, combo]) == []


# -- the sparse echelon basis and span test against the dense reference -------

def _random_entry(rng, kind):
    num, den = rng.randint(-4, 4), rng.randint(1, 3)
    if kind == "int":
        return num
    if kind == "fraction":
        return Fraction(num, den)
    return Scalar(num, *(rng.choice((-1, 0, 0, 0, 0, 1)) for _ in range(3)))


def _random_vectors(rng, kind, keys):
    """A vector list with duplicate, dependent, zero and empty members."""
    out = []
    for _ in range(rng.randint(0, 5)):
        roll = rng.random()
        if roll < 0.1:
            out.append({})
        elif roll < 0.2:
            out.append({rng.choice(keys): _random_entry(rng, kind) * 0})
        elif out and roll < 0.35:
            out.append(dict(rng.choice(out)))
        elif len(out) >= 2 and roll < 0.55:
            a, b = rng.sample(out, 2)
            ca, cb = _random_entry(rng, kind), _random_entry(rng, kind)
            vec = {}
            for k in set(a) | set(b):
                vec[k] = ca * a.get(k, 0) + cb * b.get(k, 0)
            out.append(vec)
        else:
            vec = {}
            for k in rng.sample(keys, rng.randint(1, len(keys))):
                vec[k] = _random_entry(rng, kind)
            out.append(vec)
    return out


def test_echelon_basis_and_spans_equal_match_dense_reference():
    rng = random.Random(2024)
    kinds = ("int", "fraction", "scalar")
    key_sets = ([0, 1, 2, 3, 4], ["a", "b", "c"], [(0, 1), (0, 2), (1, 0), (2, 3)])
    for case in range(2000):
        kind = kinds[case % 3]
        keys = key_sets[case // 3 % 3]
        vecs = _random_vectors(rng, kind, keys)
        got = echelon_basis(vecs)
        want = dense_reference.echelon_basis(vecs)
        assert [list(r.items()) for r in got] == [list(r.items()) for r in want], case
        assert [[type(v) for v in r.values()] for r in got] == [
            [type(v) for v in r.values()] for r in want
        ], case
        assert _floats(got) == []
        if rng.random() < 0.5:
            other = [
                {k: v * _random_entry(rng, kind) for k, v in vec.items()}
                for vec in vecs
            ]
            other += _random_vectors(rng, kind, keys)[: rng.randint(0, 1)]
        else:
            other = _random_vectors(rng, kind, keys)
        rng.shuffle(other)
        want = dense_reference.spans_equal(vecs, other)
        assert spans_equal(vecs, other) == want, case


# -- the fraction-free int path against the Fraction path ---------------------

def _int_vector(rng, keys):
    vec = {}
    for k in rng.sample(keys, rng.randint(1, min(4, len(keys)))):
        vec[k] = rng.choice((1, -1)) * rng.choice((1, 2, 3, 4, 6, 9, 35, 10**6 + 3))
    return vec


def _int_combination(rng, vecs):
    """An int combination of members, without explicit zeros (maybe empty)."""
    out = {}
    for vec in rng.sample(vecs, min(len(vecs), rng.randint(2, 3))):
        c = rng.choice((-3, -2, -1, 1, 2, 5))
        for k, v in vec.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def test_int_path_matches_fraction_path():
    """int columns eliminate fraction free; everything that leaves the
    eliminator equals, value for value, what the same columns as Fraction
    give, and holds no float."""
    rng = random.Random(1968)
    int_rows = 0
    for case in range(400):
        keys = rng.sample(range(-20, 20), rng.randint(2, 9))
        vecs = []
        for _ in range(rng.randint(1, 10)):
            vec = {}
            if len(vecs) >= 2 and rng.random() < 0.4:
                vec = _int_combination(rng, vecs)  # dependent, or empty
            vecs.append(vec or _int_vector(rng, keys))
        fracs = [{k: Fraction(v) for k, v in vec.items()} for vec in vecs]
        by_int, by_frac = SparseElim(track=True), SparseElim(track=True)
        for j, (vi, vf) in enumerate(zip(vecs, fracs)):
            assert by_int.add(vi, tag_key=j) == by_frac.add(vf, tag_key=j), case
        assert by_int.rank == by_frac.rank, case
        assert sorted(by_int.pivots) == sorted(by_frac.pivots), case
        assert by_int.kernel == by_frac.kernel, case
        assert [[type(c) for c in k.values()] for k in by_int.kernel] == [
            [type(c) for c in k.values()] for k in by_frac.kernel
        ], case
        int_rows += sum(
            all(type(v) is int for v in vec.values())
            for vec, _ in by_int.pivots.values()
        )
        targets = [_int_vector(rng, keys), _int_combination(rng, vecs) or {keys[0]: 1}]
        for target in targets:
            frac = {k: Fraction(v) for k, v in target.items()}
            reduced = by_int.reduce(target)
            assert reduced == by_frac.reduce(frac), case
            combo = by_int.express(target)
            assert combo == by_frac.express(frac), case
            assert _floats([reduced, combo]) == [], case
        assert _floats([by_int.pivots, by_int.kernel]) == [], case
    # the int columns ran the fraction-free path and stayed int
    assert int_rows > 1000
