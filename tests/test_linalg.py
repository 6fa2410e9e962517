"""Exact linear algebra: agreement with a naive elimination oracle."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from dense_oracle import apply, det, identity, inverse, kernel, matmul, rank, rref, zeros
from dense_oracle import sparse_rows as to_sparse

from centinv.centralizer import build_gl_model, build_sp_model
from centinv.linalg import (
    RatMatrix,
    bareiss,
    pfaffian_rank,
    sparse_inverse,
    sparse_rref,
)
from centinv.partitions import ClassicalType, partitions_of
from centinv.regularity import (
    Functional,
    bracket_form_matrix,
    build_alpha,
    build_beta,
    build_beta_prime_sum,
    default_alpha_coefficients,
    random_functional,
    restrict_alpha_to_fixed,
)


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
    """The rank is the oracles': the naive elimination's, and nc minus the
    dimension of the dense oracle's kernel, which the integer rows annihilate."""
    rows = [[data.draw(small_entries) for _ in range(nc)] for _ in range(nr)]
    m = RatMatrix(rows)
    rank = m.rank()
    oracle_kernel = kernel(rows)
    assert rank == naive_fraction_free_rank(rows)
    assert rank + len(oracle_kernel) == nc
    for vec in oracle_kernel:
        assert all(not x for x in apply(m.rows, vec))


def cleared(rows) -> tuple[RatMatrix, int]:
    """The integer matrix den * rows of rational rows and den, the lcm of
    their denominators."""
    den = lcm(*(Fraction(x).denominator for row in rows for x in row))
    return RatMatrix([[int(x * den) for x in row] for row in rows]), den


def test_identity_and_zero():
    ident, den = cleared(identity(3))
    assert den == 1 and ident.rank() == 3 and ident.det() == 1
    assert cleared(zeros(2, 5))[0].rank() == 0


def test_rational_entries():
    m, den = cleared([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert (m.rows, den) == ([[3, 2], [9, 6]], 6)
    assert m.rank() == 1
    assert m.det() == 0
    rows2 = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]]
    m2, den2 = cleared(rows2)
    assert m2.det() == det(rows2) * den2 ** 2 == 18
    inv = sparse_inverse([dict(enumerate(row)) for row in rows2])
    assert matmul(rows2, to_dense(inv, 2)) == identity(2)


def test_entries_are_integers():
    # the rows are kept as given, and the determinant is theirs, an int
    m = RatMatrix([[2, 4], [6, 8]])
    assert m.rows == [[2, 4], [6, 8]]
    assert type(m.det()) is int and m.det() == -8


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.data())
def test_cleared_rational_matrix_matches_dense_oracle(nr, nc, square, data):
    """Rational rows cleared to integers by one den > 1: the rank is that
    of the Fraction rows, the determinant theirs times den^n."""
    entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    rows = [[data.draw(entries) for _ in range(nc)] for _ in range(nc if square else nr)]
    m, den = cleared(rows)
    assume(den > 1)
    assert all(type(x) is int for row in m.rows for x in row)
    assert [[Fraction(x, den) for x in row] for row in m.rows] == rows
    assert m.rank() == rank(rows)
    if len(rows) == nc:
        assert m.det() == det(rows) * den ** nc
    else:
        with pytest.raises(ValueError):
            m.det()


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


@st.composite
def row_sequences(draw):
    """Sparse rational rows with repeated rows and rows dependent on earlier
    ones, as drawn or sorted by their least column: decreasing puts every
    new pivot left of the earlier ones, increasing lets earlier rows hold
    each new pivot column, which must then be cleared from them."""
    nc = draw(st.integers(1, 8))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    rows: list[dict] = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("fresh", "repeat", "combination"))) if rows else "fresh"
        if kind == "fresh":
            row = draw(st.dictionaries(st.integers(0, nc - 1), entry, max_size=nc))
        elif kind == "repeat":
            row = dict(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = draw(entry), draw(entry)
            row = {c: ca * a.get(c, 0) + cb * b.get(c, 0) for c in {*a, *b}}
        rows.append(row)
    order = draw(st.sampled_from((0, 1, -1)))
    if order:
        rows.sort(key=lambda row: order * min((c for c, x in row.items() if x), default=-1))
    return rows, nc


@settings(max_examples=200, deadline=None)
@given(row_sequences())
def test_sparse_rref_is_the_dense_rref_as_sparse_rows(case):
    rows, nc = case
    expected, pivots = rref(to_dense(rows, nc)) if rows else ([], [])
    assert sparse_rref(rows) == to_sparse(expected[:len(pivots)])


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
    if rank(dense_rows) < n:
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


big_entries = st.integers(-2**40, 2**40)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.integers(0, 6), st.data())
def test_pfaffian_rank_matches_dense_oracle(n, k, data):
    """Skew forms sum_k (x y^T - y x^T) with entries up to 2^40 in x and y,
    zero rows and columns at random indices, then a random symmetric
    permutation: the rank is the dense oracle's, and the rows stay as given."""
    a = [[0] * n for _ in range(n)]
    for _ in range(k):
        x = data.draw(st.lists(big_entries, min_size=n, max_size=n), label="x")
        y = data.draw(st.lists(big_entries, min_size=n, max_size=n), label="y")
        for i in range(n):
            for j in range(n):
                a[i][j] += x[i] * y[j] - y[i] * x[j]
    zero = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()), label="zero")
    perm = data.draw(st.permutations(range(n)), label="perm")
    a = [[0 if perm[i] in zero or perm[j] in zero else a[perm[i]][perm[j]]
          for j in range(n)] for i in range(n)]
    given_rows = [row[:] for row in a]
    r = pfaffian_rank(a)
    assert a == given_rows
    assert r == rank(a) <= 2 * k
    assert r % 2 == 0


def bracket_form_points(model, alpha, beta, rng):
    """ALPHA, BETA (when there are two blocks), ZERO, and random integer
    points, some with zero coordinates."""
    points = [alpha, Functional((0,) * model.dim, "ZERO")]
    if beta is not None:
        points.append(beta)
    for _ in range(3):
        points.append(random_functional(model, rng))
        nums = tuple(rng.randint(-10, 10) if rng.random() < 0.7 else 0 for _ in range(model.dim))
        points.append(Functional(nums, "RANDOM"))
    return points


def bracket_form_cases():
    rng = random.Random(19)
    for n in range(1, 7):
        for p in partitions_of(n):
            m = build_gl_model(p)
            beta = build_beta(m) if p.k >= 2 else None
            yield m, bracket_form_points(m, build_alpha(m, default_alpha_coefficients(m)),
                                         beta, rng)
    for n in range(1, 4):
        for p in partitions_of(2 * n, ClassicalType.SP):
            sp = build_sp_model(p)
            beta = build_beta_prime_sum(sp)[0] if p.k >= 2 else None
            yield sp, bracket_form_points(sp, restrict_alpha_to_fixed(sp), beta, rng)


def test_bracket_form_rank_is_the_bareiss_rank():
    """Every bracket form of gl n <= 6 and sp 2n <= 6 is ranked by the
    Pfaffian kernel, which gives the Bareiss rank and leaves .rows as built."""
    forms = 0
    for model, points in bracket_form_cases():
        for gamma in points:
            form = bracket_form_matrix(model, gamma)
            assert form.skew
            row_lists = list(form.rows)
            given_rows = [row[:] for row in form.rows]
            assert form.rank() == bareiss([row[:] for row in form.rows])[0], gamma.provenance
            assert form.rows == given_rows
            assert all(a is b for a, b in zip(form.rows, row_lists))
            forms += 1
    assert forms == 378  # 43 models, 8 points each and BETA on the 34 with two blocks


def test_bracket_form_entries_are_ints():
    """``RatMatrix`` checks no entry, so its builder must make every entry
    an int: B(gamma) at every point of ``bracket_form_cases`` (alpha, beta,
    ZERO and six random points of every gl model with n <= 6 and sp model
    with 2n <= 6)."""
    forms = 0
    for model, points in bracket_form_cases():
        for gamma in points:
            rows = bracket_form_matrix(model, gamma).rows
            assert all(type(x) is int for row in rows for x in row), gamma.provenance
            forms += 1
    assert forms == 378


def test_only_a_form_marked_skew_takes_the_pfaffian_kernel():
    """The upper triangle of [[0, 1], [0, 0]] is that of a rank-2 skew form;
    unmarked, the matrix is ranked by Bareiss."""
    m = RatMatrix([[0, 1], [0, 0]])
    assert not m.skew
    assert m.rank() == 1
    assert pfaffian_rank(m.rows) == 2
