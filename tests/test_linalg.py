"""Exact linear algebra: agreement with a naive elimination oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import apply, identity, inverse, matmul, rref, zeros

from centinv.linalg import RatMatrix, bareiss, sparse_inverse, sparse_rref


def naive_fraction_free_rank(rows):
    """Independent oracle: fraction-free elimination without pivot bookkeeping."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    for col in range(nc):
        piv = None
        for i in range(rank, nr):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(nr):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


small_entries = st.integers(min_value=-9, max_value=9)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_rank_kernel_matches_oracle(nr, nc, data):
    rows = [[data.draw(small_entries) for _ in range(nc)] for _ in range(nr)]
    m = RatMatrix(rows)
    rank = m.rank()
    kernel = m.kernel_basis()
    assert rank == naive_fraction_free_rank(rows)
    assert rank + len(kernel) == nc
    for vec in kernel:
        assert all(not x for x in apply(m.rows, vec))


def test_identity_and_zero():
    ident = RatMatrix(identity(3))
    assert ident.rank() == 3 and ident.kernel_basis() == []
    z = RatMatrix(zeros(2, 5))
    assert z.rank() == 0 and len(z.kernel_basis()) == 5


def test_rational_entries():
    m = RatMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert m.rank() == 1
    assert m.det() == 0
    m2 = RatMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]])
    assert m2.det() == Fraction(1, 2)
    inv = sparse_inverse([dict(enumerate(row)) for row in m2.rows])
    assert matmul(m2.rows, to_dense(inv, 2)) == identity(2)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        sparse_inverse([{0: 1, 1: 2}, {0: 2, 1: 4}])


def to_dense(rows, nc):
    return [[Fraction(row.get(c, 0)) for c in range(nc)] for row in rows]


sparse_rows = st.integers(1, 7).flatmap(lambda nc: st.lists(
    st.dictionaries(st.integers(0, nc - 1),
                    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)), max_size=nc),
    max_size=7).map(lambda rows: (rows, nc)))


@settings(max_examples=150, deadline=None)
@given(sparse_rows)
def test_sparse_rref_matches_dense_gauss_jordan(case):
    rows, nc = case
    reduced = sparse_rref(rows)
    expected, pivots = rref(to_dense(rows, nc)) if rows else ([], [])
    assert to_dense(reduced, nc) == expected[:len(pivots)]
    assert [min(row) for row in reduced] == pivots
    assert all(0 not in row.values() for row in reduced)


matrix_rows = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda shape: st.lists(
    st.dictionaries(st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1)),
                    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                    max_size=shape[0] * shape[1]),
    max_size=7).map(lambda rows: (rows, shape[1])))


@settings(max_examples=150, deadline=None)
@given(matrix_rows)
def test_sparse_rref_on_matrix_keys_is_the_flattened_result(case):
    """(i, j) keys pivot in the order of i * n + j: eliminating matrices as
    {(i, j): value} rows gives the flattened result, mapped back."""
    rows, n = case
    flat = sparse_rref({i * n + j: v for (i, j), v in row.items()} for row in rows)
    assert sparse_rref(rows) == [{divmod(k, n): v for k, v in row.items()} for row in flat]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_sparse_inverse_matches_dense_inverse(n, data):
    """Monomial matrices (the gl trace pairing) and random ones; a singular
    matrix raises in both."""
    if data.draw(st.booleans(), label="monomial"):
        perm = data.draw(st.permutations(range(n)), label="perm")
        rows = [{perm[i]: Fraction(data.draw(st.integers(1, 5)) * data.draw(st.sampled_from([-1, 1])),
                                   data.draw(st.integers(1, 4)))} for i in range(n)]
    else:
        rows = [dict(enumerate(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
                for _ in range(n)]
    dense_rows = to_dense(rows, n)
    if RatMatrix(dense_rows).rank() < n:
        with pytest.raises(ValueError):
            sparse_inverse(rows)
        return
    inv = sparse_inverse(rows)
    assert to_dense(inv, n) == inverse(dense_rows)
    assert matmul(dense_rows, to_dense(inv, n)) == identity(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.data())
def test_det_by_permutation_expansion(n, data):
    from itertools import permutations

    rows = [[data.draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
    m = RatMatrix(rows)
    expected = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                clen += 1
            if clen % 2 == 0:
                sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= rows[i][perm[i]]
        expected += term
    assert m.det() == expected
    assert bareiss([row[:] for row in rows])[1] == expected
