"""Partition combinatorics: dimensions, degree tables, the so diagnostic."""

import pickle
from math import comb

import pytest
from hypothesis import given, strategies as st

from centinv.centralizer import build_sp_model
from centinv.partitions import (
    ClassicalType,
    InvalidPartitionError,
    Partition,
    degrees_gl,
    degrees_sp,
    dim_centralizer_gl,
    dim_centralizer_so_sp,
    is_valid_for,
    pairing_map,
    partitions_of,
    so_good_system_diagnostic,
    vectors_with_total,
)


def test_parse_normalises():
    assert Partition.parse("1,2").parts == (2, 1)
    assert Partition.parse("5, 3,2 ,2").parts == (5, 3, 2, 2)
    with pytest.raises(InvalidPartitionError):
        Partition.parse("2,0")
    with pytest.raises(InvalidPartitionError):
        Partition.parse("")
    with pytest.raises(InvalidPartitionError):
        Partition.parse("a,b")


def test_d_is_computed_once_and_pickles():
    p = Partition.parse("4,2,2,1")
    assert p.d is p.d
    assert p.d == (3, 1, 1, 0)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p) and q.d == p.d
    assert Partition.parse("4,2,2,1") == p


def test_dim_centralizer_gl_examples():
    assert dim_centralizer_gl(Partition.parse("5,3,2,2")) == 38
    assert dim_centralizer_gl(Partition.parse("7")) == 7
    assert dim_centralizer_gl(Partition.parse("2,1")) == 5


def test_dim_so_sp_examples():
    assert dim_centralizer_so_sp(Partition.parse("5,3,2,2"), ClassicalType.SO) == 18
    # ones partition: zero nilpotent, centraliser is the full so_n
    for n in (3, 5, 7):
        ones = Partition(tuple([1] * n))
        assert dim_centralizer_so_sp(ones, ClassicalType.SO) == n * (n - 1) // 2
    # zero nilpotent in sp_2n: centraliser is the full sp_2n
    for n in (1, 2, 3):
        ones = Partition(tuple([1] * (2 * n)))
        assert dim_centralizer_so_sp(ones, ClassicalType.SP) == n * (2 * n + 1)
    assert dim_centralizer_so_sp(Partition.parse("2,1,1"), ClassicalType.SP) == 6
    assert dim_centralizer_so_sp(Partition.parse("2,2"), ClassicalType.SP) == 4


def test_type_validity():
    assert is_valid_for(Partition.parse("3,3,2"), ClassicalType.SP)
    assert not is_valid_for(Partition.parse("3,2,1"), ClassicalType.SP)
    assert is_valid_for(Partition.parse("5,3,2,2"), ClassicalType.SO)
    assert not is_valid_for(Partition.parse("2,1"), ClassicalType.SO)
    with pytest.raises(InvalidPartitionError) as err:
        dim_centralizer_so_sp(Partition.parse("3,2,1"), ClassicalType.SP)
    assert "odd part" in str(err.value)


def test_degrees_gl_examples():
    assert degrees_gl(Partition.parse("2,1")) == (1, 1, 2)
    assert degrees_gl(Partition.parse("4")) == (1, 1, 1, 1)
    degrees = degrees_gl(Partition.parse("5,3,2,2"))
    assert degrees == (1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 4)
    assert sum(degrees) == 25 == (38 + 12) // 2


def test_degree_sum_identity_all_partitions_up_to_12():
    for n in range(1, 13):
        for p in partitions_of(n):
            degrees = degrees_gl(p)
            assert 2 * sum(degrees) == dim_centralizer_gl(p) + n
            assert all(a <= b for a, b in zip(degrees, degrees[1:]))


def test_degrees_sp_examples():
    assert degrees_sp(Partition.parse("2,1,1")) == (1, 3)
    for n in (2, 3, 4):
        minimal = Partition(tuple([2] + [1] * (2 * n - 2)))
        assert degrees_sp(minimal) == tuple(range(1, 2 * n, 2))
    with pytest.raises(InvalidPartitionError):
        degrees_sp(Partition.parse("3,2,1"))


def test_degrees_sp_sum_identity():
    for n in range(1, 7):
        for p in partitions_of(2 * n, ClassicalType.SP):
            assert 2 * sum(degrees_sp(p)) == dim_centralizer_so_sp(p, ClassicalType.SP) + n


def test_no_partition_of_odd_size_is_valid_for_sp():
    """An sp-valid partition has its odd parts in pairs, so its size is even."""
    for n in range(1, 12, 2):
        assert not any(is_valid_for(p, ClassicalType.SP) for p in partitions_of(n))


@pytest.mark.parametrize("text", ["3", "2,1"])
@pytest.mark.parametrize("build", [build_sp_model, degrees_sp])
def test_odd_size_is_refused_by_the_sp_rule(build, text):
    with pytest.raises(InvalidPartitionError, match="invalid for sp: every odd part"):
        build(Partition.parse(text))


def test_pairing_consecutive():
    p = Partition.parse("5,3,2,2")
    pairing = pairing_map(p, ClassicalType.SO)
    assert pairing == {1: 1, 2: 2, 3: 4, 4: 3}
    psp = Partition.parse("3,3,1,1")
    pairing = pairing_map(psp, ClassicalType.SP)
    assert pairing == {1: 2, 2: 1, 3: 4, 4: 3}


def test_so_diagnostic_example():
    diag = so_good_system_diagnostic(Partition.parse("5,3,2,2"))
    assert diag["dim_centralizer"] == 18
    assert diag["even_degree_sum"] == 13
    assert diag["pfaffian_adjusted_sum"] == 11
    assert diag["bound"] == 12
    assert diag["verdict"] == "NO_GOOD_SYSTEM_FROM_MINORS"
    assert not diag["lemma_flags"]["even_top_row"]


def test_so_diagnostic_good_cases():
    diag = so_good_system_diagnostic(Partition.parse("3,1,1"))
    assert diag["lemma_flags"]["even_top_row"]
    assert diag["pfaffian_adjusted_sum"] == diag["bound"]
    assert diag["verdict"] == "GOOD_SYSTEM_FROM_MINORS"
    ones = so_good_system_diagnostic(Partition(tuple([1] * 5)))
    assert ones["verdict"] == "GOOD_SYSTEM_FROM_MINORS"


def test_even_top_row_hypotheses_force_equality():
    hits = 0
    for n in range(2, 13):
        for p in partitions_of(n, ClassicalType.SO):
            diag = so_good_system_diagnostic(p)
            if diag["lemma_flags"]["even_top_row"]:
                hits += 1
                assert diag["pfaffian_adjusted_sum"] == diag["bound"], p
    assert hits > 10


def test_partitions_of_counts():
    counts = [len(list(partitions_of(n))) for n in range(1, 9)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22]


def _count_with_total(ranges, total):
    """Number of vectors in the ranges with the given total, by counting
    the ways to reach each partial sum."""
    ways = {0: 1}
    for r in ranges:
        nxt = {}
        for acc, c in ways.items():
            for v in r:
                nxt[acc + v] = nxt.get(acc + v, 0) + c
        ways = nxt
    return ways.get(total, 0)


@given(st.lists(st.tuples(st.integers(-2, 3), st.integers(0, 4)), min_size=1, max_size=4),
       st.integers(-3, 12))
def test_vectors_with_total_are_complete_and_lexicographic(bounds, total):
    ranges = [range(lo, lo + width) for lo, width in bounds]
    got = list(vectors_with_total(ranges, total))
    assert all(sum(v) == total and all(x in r for x, r in zip(v, ranges)) for v in got)
    assert got == sorted(set(got))
    assert len(got) == _count_with_total(ranges, total)


@pytest.mark.parametrize("slots", [1, 2, 3, 5])
@pytest.mark.parametrize("total", [0, 1, 4])
def test_vectors_with_total_counts_compositions(slots, total):
    got = list(vectors_with_total([range(total + 1)] * slots, total))
    assert len(got) == comb(total + slots - 1, slots - 1)
    assert got == sorted(got)
