"""The lazy enumerators against the plain recursive definitions they replace.

The references below are the original recursive generators: obviously
correct and slow.  Each fast enumerator must produce the identical tuple
list, order included.
"""

import pytest

from parity_board.abseq import alternating_sum, sequence_tails
from parity_board.bijections import count_strict_by_parts_rank_formula, rank_histogram
from parity_board.partitions import (
    _descending,
    _strict_descending,
    bg_rank,
    enumerate_partitions,
    enumerate_strict_partitions,
    partition_tuples,
    strict_partition_tuples,
)


def reference_descending(n, max_part):
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in reference_descending(n - k, k):
            yield (k,) + rest


def reference_strict_descending(n, max_part, num_parts):
    if n == 0:
        if num_parts in (None, 0):
            yield ()
        return
    if num_parts == 0:
        return
    rest = None if num_parts is None else num_parts - 1
    for k in range(min(n, max_part), 0, -1):
        if n - k > k * (k - 1) // 2:
            continue
        if rest is not None and n - k < rest * (rest + 1) // 2:
            continue
        for tail in reference_strict_descending(n - k, k - 1, rest):
            yield (k,) + tail


def unpruned_tails(a, b, half_weight):
    """Every weakly decreasing tail of the right weight, kept when the whole
    sequence has vanishing alternating sum."""
    prefix = tuple(range(a + 1, a + b + 1))
    rest = 2 * half_weight - sum(prefix)
    if rest < 0:
        return []
    return [t for t in reference_descending(rest, a + b) if alternating_sum(prefix + t) == 0]


@pytest.mark.parametrize("n", range(31))
def test_zs1_matches_recursion(n):
    for max_part in range(0, n + 2):
        assert list(_descending(n, max_part)) == list(reference_descending(n, max_part))


@pytest.mark.parametrize("n", range(31))
def test_even_only_matches_doubled_recursion(n):
    for max_part in [None, *range(n + 2)]:
        half = n // 2
        bound = half if max_part is None else min(max_part // 2, half)
        expected = [] if n % 2 else [tuple(2 * p for p in t) for t in reference_descending(half, bound)]
        assert [p.parts for p in enumerate_partitions(n, max_part, even_only=True)] == expected


@pytest.mark.parametrize("n", range(31))
def test_strict_matches_recursion(n):
    for num_parts in [None, *range(9)]:
        expected = list(reference_strict_descending(n, n, num_parts))
        assert list(_strict_descending(n, num_parts)) == expected


def test_pruned_tails_match_unpruned():
    for a in range(5):
        for b in range(1, 6):
            for n in range(13):
                assert list(sequence_tails(a, b, n)) == unpruned_tails(a, b, n), (a, b, n)


def test_rank_histogram_matches_direct_filter():
    for k in range(-3, 4):
        for m in range(7):
            for n in range(26):
                direct = sum(
                    1 for s in enumerate_strict_partitions(n, num_parts=m) if bg_rank(s.parts) == k
                )
                assert rank_histogram(m, n)[k] == direct, (k, m, n)


def test_enumerators_are_lazy():
    # far beyond any weight that could be listed: only the first row is made
    assert next(partition_tuples(10_000)) == (10_000,)
    assert next(strict_partition_tuples(10_000)) == (10_000,)
    assert next(strict_partition_tuples(10_000, num_parts=3)) == (9_997, 2, 1)
    assert next(sequence_tails(0, 2, 5_000)) == (2,) * 4_998 + (1,)


@pytest.mark.parametrize(
    "call",
    [
        lambda: partition_tuples(-1),
        lambda: partition_tuples(3, max_part=-1),
        lambda: strict_partition_tuples(-1),
        lambda: strict_partition_tuples(3, num_parts=-1),
        lambda: sequence_tails(-1, 1, 3),
        lambda: sequence_tails(0, -1, 3),
        lambda: sequence_tails(0, 1, -1),
    ],
)
def test_bad_arguments_raise_at_the_call(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: list(partition_tuples(0, 0)), [()]),
        (lambda: list(partition_tuples(3, 0)), []),
        (lambda: list(sequence_tails(0, 0, 0)), [()]),
        (lambda: list(sequence_tails(2, 0, 0)), []),
        (lambda: list(sequence_tails(0, 0, 3)), []),
        (lambda: [count_strict_by_parts_rank_formula(0, 0, n) for n in range(5)], [1, 0, 0, 0, 0]),
    ],
    ids=["parts-0-of-0", "parts-0-of-3", "tails-a0-b0-n0", "tails-a2-b0-n0", "tails-a0-b0-n3", "formula-k0-m0"],
)
def test_zero_bounds_are_ordinary_cells(call, expected):
    """A bound of 0 is a cell like any other: the partitions with parts at
    most 0 and the sequences with an empty staircase are the empty one alone,
    so the closed form counts one strict partition of BG-rank 0 with 0 parts."""
    assert call() == expected
