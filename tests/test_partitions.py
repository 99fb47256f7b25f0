import pytest
from hypothesis import given, strategies as st

from parity_board.bijections import durfee_class
from parity_board.partitions import (
    MalformedColumns,
    Partition,
    StrictPartition,
    bg_rank,
    columns,
    enumerate_partitions,
    enumerate_strict_partitions,
    from_columns,
    partition_count,
)


def parts_of(partitions):
    return [p.parts for p in partitions]


strict_partitions = st.sets(st.integers(1, 60), max_size=10).map(
    lambda s: StrictPartition(tuple(sorted(s, reverse=True)))
)


class TestTypes:
    def test_partition_rejects_increase(self):
        with pytest.raises(ValueError):
            Partition((2, 3))

    def test_partition_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((3, 0))

    def test_strict_rejects_repeats(self):
        with pytest.raises(ValueError):
            StrictPartition((3, 3, 1))

    def test_empty_partition(self):
        assert Partition(()).weight == 0
        assert str(Partition(())) == "0"
        assert len(StrictPartition(())) == 0

    def test_part_accessor(self):
        p = Partition((5, 2))
        assert (p.parts[0], p.parts[1], len(p)) == (5, 2, 2)


class TestEnumeratePartitions:
    def test_bounded_reverse_lex(self):
        got = parts_of(enumerate_partitions(5, max_part=3))
        assert got == [(3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]

    def test_zero(self):
        assert parts_of(enumerate_partitions(0)) == [()]

    def test_even_only(self):
        got = parts_of(enumerate_partitions(6, even_only=True))
        assert got == [(6,), (4, 2), (2, 2, 2)]

    def test_even_only_matches_filtered_enumeration(self):
        for n in range(13):
            brute = [
                p.parts
                for p in enumerate_partitions(n)
                if all(x % 2 == 0 for x in p.parts)
            ]
            assert parts_of(enumerate_partitions(n, even_only=True)) == brute

    def test_even_only_with_max_part(self):
        got = parts_of(enumerate_partitions(8, max_part=5, even_only=True))
        assert got == [(4, 4), (4, 2, 2), (2, 2, 2, 2)]

    def test_odd_weight_even_only_empty(self):
        assert enumerate_partitions(7, even_only=True) == []

    def test_reverse_lex_order_and_uniqueness(self):
        for n in range(11):
            got = parts_of(enumerate_partitions(n))
            assert got == sorted(got, reverse=True)
            assert len(set(got)) == len(got)
            assert all(sum(t) == n for t in got)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1)
        assert enumerate_partitions(4, max_part=0) == []


class TestEnumerateStrict:
    def test_seven(self):
        got = parts_of(enumerate_strict_partitions(7))
        assert got == [(7,), (6, 1), (5, 2), (4, 3), (4, 2, 1)]

    def test_zero(self):
        assert parts_of(enumerate_strict_partitions(0)) == [()]

    def test_num_parts_matches_filter(self):
        for n in range(16):
            full = enumerate_strict_partitions(n)
            for m in range(6):
                expected = [s.parts for s in full if len(s.parts) == m]
                got = parts_of(enumerate_strict_partitions(n, num_parts=m))
                assert got == expected

    def test_matches_distinct_filter_of_all_partitions(self):
        for n in range(16):
            brute = sum(
                1
                for p in enumerate_partitions(n)
                if len(set(p.parts)) == len(p.parts)
            )
            assert len(enumerate_strict_partitions(n)) == brute


class TestPartitionCount:
    @pytest.mark.parametrize("n,expected", [(0, 1), (4, 5), (9, 30)])
    def test_known_values(self, n, expected):
        assert partition_count(n) == expected

    def test_negative(self):
        assert partition_count(-1) == 0
        assert partition_count(-7) == 0

    def test_recurrence_matches_enumeration(self):
        for n in range(31):
            assert partition_count(n) == len(enumerate_partitions(n))


class TestBgRank:
    @pytest.mark.parametrize(
        "parts,expected",
        [
            ((13, 6, 5, 4, 3, 2), 3),
            ((), 0),
            ((7, 4, 3, 1), 1),
            ((10, 1), -1),
        ],
    )
    def test_examples(self, parts, expected):
        assert bg_rank(parts) == expected

    def test_chessboard_equality(self):
        # rank equals minus the alternating sum of shifted-diagram columns
        for n in range(26):
            for s in enumerate_strict_partitions(n):
                c = columns(s)
                alt = sum(h if j % 2 else -h for j, h in enumerate(c))
                assert bg_rank(s.parts) == -alt


class TestColumns:
    def test_example(self):
        assert columns(StrictPartition((7, 4, 3, 1))) == (1, 2, 3, 4, 3, 1, 1)

    def test_single_cell(self):
        assert columns(StrictPartition((1,))) == (1,)

    def test_staircase_then_tail(self):
        assert columns(StrictPartition((4, 2, 1))) == (1, 2, 3, 1)

    def test_empty(self):
        assert columns(StrictPartition(())) == ()

    def test_structure_invariant(self):
        for n in range(26):
            for s in enumerate_strict_partitions(n):
                c = columns(s)
                m = len(s)
                assert c[:m] == tuple(range(1, m + 1))
                tail = c[max(m - 1, 0):]
                assert all(x >= y for x, y in zip(tail, tail[1:]))


class TestFromColumns:
    def test_inverse_of_example(self):
        assert from_columns((1, 2, 3, 4, 3, 1, 1)).parts == (7, 4, 3, 1)

    def test_single(self):
        assert from_columns((1,)).parts == (1,)

    def test_two_column_profile(self):
        # oracle: columns((4, 2)) is (1, 2, 2, 1), so this must invert to (4, 2)
        assert columns(StrictPartition((4, 2))) == (1, 2, 2, 1)
        assert from_columns((1, 2, 2, 1)).parts == (4, 2)

    def test_round_trip(self):
        for n in range(26):
            for s in enumerate_strict_partitions(n):
                assert from_columns(columns(s)) == s

    @pytest.mark.parametrize("cols", [(2, 2), (1, 1, 2), (1, 2, 2, 3), (1, 2, 0)])
    def test_malformed_rejected(self, cols):
        with pytest.raises(MalformedColumns):
            from_columns(cols)

    @given(strict_partitions)
    def test_round_trip_random(self, s):
        assert from_columns(columns(s)) == s


class TestDurfee:
    """The a-Durfee rectangle has ceil(b/2) rows, b the partition's class."""

    def test_offset_six(self):
        assert durfee_class((12, 10, 9, 6, 4, 3, 1), 6) == 5

    def test_square(self):
        assert durfee_class((7, 4, 3, 1), 0) == 5

    def test_absent(self):
        assert durfee_class((), 2) == 0

    def test_absent_iff_largest_part_small(self):
        for n in range(13):
            for p in enumerate_partitions(n):
                for a in range(7):
                    assert (durfee_class(p.parts, a) > 0) == (max(p.parts, default=0) > a)

    def test_rows_weakly_decreasing_in_offset(self):
        for n in range(13):
            for p in enumerate_partitions(n):
                rows = [(durfee_class(p.parts, a) + 1) // 2 for a in range(8)]
                assert all(x >= y for x, y in zip(rows, rows[1:]))

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            durfee_class((3,), -1)
