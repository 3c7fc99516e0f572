import pytest
from hypothesis import given, strategies as st

from orthospin.partitions import (
    EMPTY,
    LambdaRhoPair,
    Partition,
    admissible_lambda,
    column_flip,
    content_sum,
    enumerate_even_partitions,
    enumerate_lambda_rho,
    enumerate_partitions,
    format_partition,
    parse_partition,
    partition_tuples,
    transpose,
)

partitions_st = st.lists(st.integers(0, 8), max_size=6).map(
    lambda l: Partition(sorted(l, reverse=True))
)


def partition_count(n):
    """p(n) by the pentagonal-number recurrence (independent oracle)."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                p[m] += sign * p[m - g1]
            if g2 <= m:
                p[m] += sign * p[m - g2]
            k += 1
    return p[n]


def test_canonical_storage_trims_zeros():
    assert Partition([3, 1, 0, 0]).parts == (3, 1)
    assert Partition([]).parts == ()
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])


def test_enumerate_examples():
    assert enumerate_partitions(0, 3) == [EMPTY]
    assert [p.parts for p in enumerate_partitions(3, 2)] == [(3,), (2, 1)]
    assert len(enumerate_partitions(8, 3)) == 10


def _partitions_unpruned(n, max_parts):
    """The enumeration without the lower bound on each part (reference)."""
    out = []

    def rec(remaining, max_part, slots, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        if slots == 0:
            return
        for part in range(min(remaining, max_part), 0, -1):
            rec(remaining - part, part, slots - 1, prefix + (part,))

    rec(n, n, max_parts, ())
    return out


def test_pruned_enumeration_matches_unpruned():
    for n in range(31):
        for max_parts in range(n + 1):
            want = _partitions_unpruned(n, max_parts)
            assert list(partition_tuples(n, max_parts)) == want, (n, max_parts)
        assert [p.parts for p in enumerate_partitions(n, n)] == want
    with pytest.raises(ValueError):
        partition_tuples(-1, 2)


def test_enumerate_brute_force_triples():
    triples = {
        (a, b, c)
        for a in range(9)
        for b in range(a + 1)
        for c in range(b + 1)
        if a + b + c == 8
    }
    assert len(enumerate_partitions(8, 3)) == len(triples)


def test_partition_function_oracle():
    for n in range(21):
        assert len(enumerate_partitions(n, n)) == partition_count(n)


def test_reverse_lexicographic_order():
    ps = [p.parts for p in enumerate_partitions(6, 6)]
    padded = [p + (0,) * (6 - len(p)) for p in ps]
    assert padded == sorted(padded, reverse=True)


def test_content_sum_examples():
    assert content_sum(Partition([3])) == 3
    assert content_sum(Partition([2, 1])) == 0
    assert content_sum(Partition([10])) == 45


def test_transpose_examples():
    assert transpose(Partition([5, 5, 3, 1])).parts == (4, 3, 3, 2, 2)
    assert transpose(EMPTY) == EMPTY
    assert transpose(Partition([4, 1, 1])).parts == (3, 1, 1, 1)


def _transpose_by_boxes(p):
    """Column lengths counted box by box (the reference for transpose)."""
    cols = [0] * p[0]
    for row in p.parts:
        for j in range(row):
            cols[j] += 1
    return Partition(cols)


def test_transpose_matches_box_count():
    for n in range(15):
        for p in enumerate_partitions(n, n):
            assert transpose(p).parts == _transpose_by_boxes(p).parts


@given(st.lists(st.integers(0, 40), max_size=12).map(lambda l: Partition(sorted(l, reverse=True))))
def test_transpose_involution(p):
    t = transpose(p)
    assert Partition(t.parts) == t  # a valid partition, though built unchecked
    assert t.size == p.size
    assert transpose(t) == p


@given(partitions_st)
def test_content_antisymmetry(p):
    assert content_sum(transpose(p)) == -content_sum(p)


def test_column_flip_examples():
    assert column_flip(Partition([4]), 2).parts == (4,)
    assert column_flip(EMPTY, 3).parts == (1, 1, 1)
    # first column of (2,1) has length 2; it becomes 3-2=1, columns (1,1)
    assert column_flip(Partition([2, 1]), 3).parts == (2,)
    with pytest.raises(ValueError):
        column_flip(Partition([2, 2]), 3)


@given(partitions_st, st.integers(2, 7))
def test_column_flip_involution(p, theta):
    if not admissible_lambda(p, theta):
        return
    assert column_flip(column_flip(p, theta), theta) == p
    # the definition on columns: first column t1 -> theta - t1
    assert column_flip(p, theta) == transpose(
        Partition((theta - len(p),) + transpose(p).parts[1:]))


def test_even_partitions():
    assert [p.parts for p in enumerate_even_partitions(4, 2)] == [(4,), (2, 2)]
    assert enumerate_even_partitions(0, 5) == [EMPTY]
    assert [p.parts for p in enumerate_even_partitions(6, 3)] == [
        (6,),
        (4, 2),
        (2, 2, 2),
    ]
    # halve-and-enumerate bijection
    assert len(enumerate_even_partitions(6, 3)) == len(enumerate_partitions(3, 3))
    with pytest.raises(ValueError):
        enumerate_even_partitions(3, 2)


def test_enumerate_lambda_rho():
    assert len(enumerate_lambda_rho(2, 2)) == 6
    pairs = enumerate_lambda_rho(1, 5)
    assert len(pairs) == 1 and pairs[0].lam.parts == (1,) and pairs[0].k == 0
    assert len(enumerate_lambda_rho(4, 2)) == 12
    for pair in enumerate_lambda_rho(5, 3):
        assert pair.lam.size + 2 * pair.k == pair.rho.size
        assert admissible_lambda(pair.lam, 3)
        assert transpose(pair.rho)[0] <= 3


def test_lambda_rho_pair_validation():
    with pytest.raises(ValueError):
        LambdaRhoPair(Partition([2]), 1, Partition([3]))


def test_format_parse_roundtrip():
    p = Partition([5, 5, 3, 1])
    assert format_partition(p) == "[5,5,3,1]"
    assert parse_partition("[5,5,3,1]") == p
    assert parse_partition("[]") == EMPTY
