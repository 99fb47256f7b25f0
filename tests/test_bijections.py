import pytest
from hypothesis import given, strategies as st

from parity_board.abseq import ABSequence, enumerate_sequences
from parity_board.bijections import (
    InternalInvariantViolation,
    InvalidSequence,
    NotInDurfeeClass,
    NotInSplitImage,
    StaircaseSplit,
    count_strict_by_parts_rank_formula,
    durfee_class,
    is_valid_split,
    partition_from_sequence,
    partition_from_sequence_by_filling,
    rank_histogram,
    sequence_from_partition,
    split_strict,
    unsplit_strict,
)
from parity_board.partitions import (
    Partition,
    StrictPartition,
    bg_rank,
    enumerate_partitions,
    enumerate_strict_partitions,
)

BIG_ENTRIES = (7, 8, 9, 10, 11, 11, 8, 7, 5, 5, 4, 3, 1, 1)
BIG_PARTITION = (12, 10, 9, 6, 4, 3, 1)


class TestForwardMap:
    def test_worked_example(self):
        lam = partition_from_sequence(ABSequence(BIG_ENTRIES))
        assert lam.parts == BIG_PARTITION
        assert lam.weight == 45

    def test_minimal(self):
        assert partition_from_sequence(ABSequence((1, 1))).parts == (1,)

    def test_staircase(self):
        lam = partition_from_sequence(ABSequence((1, 2, 3, 3, 2, 1)))
        assert lam.parts == (3, 2, 1)
        assert partition_from_sequence_by_filling(ABSequence((1, 2, 3, 3, 2, 1))) == lam

    def test_empty_rejected(self):
        with pytest.raises(InvalidSequence):
            partition_from_sequence(ABSequence(()))
        with pytest.raises(InvalidSequence):
            partition_from_sequence_by_filling(ABSequence(()))

    def test_agrees_with_filling_oracle(self):
        for a in range(3):
            for b in range(1, 4):
                for n in range(9):
                    for d in enumerate_sequences(a, b, n):
                        assert partition_from_sequence(d) == (
                            partition_from_sequence_by_filling(d)
                        )


class TestInverseMap:
    def test_worked_example(self):
        seq = sequence_from_partition(6, Partition(BIG_PARTITION))
        assert seq.entries == BIG_ENTRIES

    def test_minimal(self):
        assert sequence_from_partition(0, Partition((1,))).entries == (1, 1)

    def test_staircase(self):
        assert sequence_from_partition(0, Partition((3, 2, 1))).entries == (1, 2, 3, 3, 2, 1)

    def test_small_largest_part_rejected(self):
        with pytest.raises(NotInDurfeeClass):
            sequence_from_partition(3, Partition((3, 1)))
        with pytest.raises(NotInDurfeeClass):
            sequence_from_partition(0, Partition(()))

    def test_round_trip_both_ways(self):
        for a in range(4):
            for b in range(1, 5):
                for n in range(10):
                    for d in enumerate_sequences(a, b, n):
                        lam = partition_from_sequence(d)
                        assert lam.weight == n
                        assert sequence_from_partition(a, lam) == d

    def test_total_on_large_first_part(self):
        # every partition whose largest part exceeds a inverts cleanly
        for n in range(11):
            for p in enumerate_partitions(n):
                for a in range(4):
                    if max(p.parts, default=0) > a:
                        d = sequence_from_partition(a, p)
                        assert partition_from_sequence(d) == p


def _rectangle_rows(parts, a):
    """Rows of the largest i x (i+a) rectangle in the diagram."""
    return sum(1 for i, part in enumerate(parts, start=1) if part >= a + i)


class TestDurfeeClass:
    def test_worked_example(self):
        assert durfee_class(BIG_PARTITION, 6) == 5

    def test_odd_case(self):
        assert durfee_class((3, 2, 1), 0) == 3

    def test_even_boundary(self):
        assert durfee_class((1,), 0) == 1
        assert durfee_class((2,), 0) == 2

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            durfee_class((1,), -1)

    def test_classes_partition_the_universe(self):
        # fixed offset: a partition with large first part lies in the class of
        # the sequence it inverts to, the others in none
        for a in range(4):
            for n in range(13):
                for p in enumerate_partitions(n):
                    if max(p.parts, default=0) > a:
                        assert durfee_class(p.parts, a) == sequence_from_partition(a, p).b
                    else:
                        assert durfee_class(p.parts, a) == 0

    def test_adjacent_classes_share_a_rectangle(self):
        for a in range(3):
            for n in range(11):
                for p in enumerate_partitions(n):
                    assert (durfee_class(p.parts, a) + 1) // 2 == _rectangle_rows(p.parts, a)

    def test_counting_bijectivity(self):
        for a in range(4):
            for b in range(1, 5):
                for n in range(13):
                    members = sum(
                        1 for p in enumerate_partitions(n) if durfee_class(p.parts, a) == b
                    )
                    assert members == len(enumerate_sequences(a, b, n))


class TestStaircaseSplit:
    TABLE = {
        (7,): (1, (1, 1, 1, 1, 1, 1)),
        (6, 1): (3, (1, 1, 1, 1)),
        (5, 2): (1, (2, 2, 1, 1)),
        (4, 3): (3, (2, 2)),
        (4, 2, 1): (1, (2, 3, 1)),
    }

    def test_weight_seven_images(self):
        for parts, (t, entries) in self.TABLE.items():
            img = split_strict(StrictPartition(parts))
            assert (img.triangular, img.seq.entries) == (t, entries)

    def test_staircase_maps_to_empty(self):
        img = split_strict(StrictPartition((3, 2, 1)))
        assert (img.triangular, img.seq) == (6, ABSequence(()))

    def test_empty_partition(self):
        img = split_strict(StrictPartition(()))
        assert (img.triangular, img.seq) == (0, ABSequence(()))
        assert unsplit_strict(img) == StrictPartition(())

    def test_round_trip(self):
        for n in range(21):
            for s in enumerate_strict_partitions(n):
                img = split_strict(s)
                assert img.triangular + img.seq.weight == n
                assert is_valid_split(img)
                assert unsplit_strict(img) == s

    def test_injective(self):
        images = set()
        for n in range(21):
            for s in enumerate_strict_partitions(n):
                img = split_strict(s)
                key = (img.triangular, img.seq.entries)
                assert key not in images
                images.add(key)

    def test_split_height_tracks_rank(self):
        for n in range(21):
            for s in enumerate_strict_partitions(n):
                rank = bg_rank(s.parts)
                expected = 2 * rank - 1 if rank > 0 else -2 * rank
                assert split_strict(s).height == expected

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            StaircaseSplit(-1, ABSequence(()))

    @pytest.mark.parametrize(
        "height,entries,ok",
        [
            (1, (1, 1, 1, 1, 1, 1), True),
            (2, (2, 2), True),
            (1, (3, 3), False),
            (0, (1, 1), True),
            (2, (1, 2, 2, 1), False),  # run of length 2 below the staircase
        ],
    )
    def test_image_characterization(self, height, entries, ok):
        img = StaircaseSplit(height, ABSequence(entries))
        assert is_valid_split(img) == ok

    def test_unsplit_examples(self):
        assert unsplit_strict(StaircaseSplit(2, ABSequence((2, 2)))).parts == (4, 3)
        assert unsplit_strict(StaircaseSplit(3, ABSequence(()))).parts == (3, 2, 1)
        assert unsplit_strict(StaircaseSplit(1, ABSequence((2, 2, 1, 1)))).parts == (5, 2)

    def test_unsplit_rejects_non_image(self):
        with pytest.raises(NotInSplitImage):
            unsplit_strict(StaircaseSplit(1, ABSequence((3, 3))))

    def test_image_complete_up_to_stated_bounds(self):
        # every admissible pair with triangular <= 21 and remnant weight <= 30
        # is hit by a strict partition
        for k in range(7):
            candidates = [StaircaseSplit(k, ABSequence(()))]
            for half in range(1, 16):
                for b in range(1, 16):
                    if k * b + b * (b + 1) // 2 > 2 * half:
                        break
                    candidates += [
                        StaircaseSplit(k, d) for d in enumerate_sequences(k, b, half)
                    ]
                for a in range(k):
                    candidates += [
                        StaircaseSplit(k, d) for d in enumerate_sequences(a, 1, half)
                    ]
            for img in candidates:
                assert is_valid_split(img)
                preimage = unsplit_strict(img)
                assert split_strict(preimage) == img
                assert preimage.weight == img.triangular + img.seq.weight


class TestCountsByPartsAndRank:
    def test_enumerated_examples(self):
        qualified = [
            s.parts
            for s in enumerate_strict_partitions(33, num_parts=6)
            if bg_rank(s.parts) == 3
        ]
        assert qualified == [(13, 6, 5, 4, 3, 2), (11, 8, 5, 4, 3, 2), (9, 8, 7, 4, 3, 2)]
        assert [
            s.parts
            for s in enumerate_strict_partitions(16, num_parts=3)
            if bg_rank(s.parts) == 2
        ] == [(13, 2, 1), (11, 4, 1), (9, 6, 1), (9, 4, 3), (7, 6, 3)]
        assert [
            s.parts
            for s in enumerate_strict_partitions(11, num_parts=2)
            if bg_rank(s.parts) == -1
        ] == [(10, 1), (8, 3), (6, 5)]

    @pytest.mark.parametrize(
        "k,m,n,expected",
        [(3, 6, 33, 3), (2, 3, 16, 5), (0, 3, 12, 4), (-1, 2, 11, 3)],
    )
    def test_spot_counts(self, k, m, n, expected):
        assert rank_histogram(m, n)[k] == expected
        assert count_strict_by_parts_rank_formula(k, m, n) == expected

    def test_grid_equality(self):
        for k in range(-2, 3):
            for m in range(1, 7):
                for n in range(21):
                    assert rank_histogram(m, n)[k] == count_strict_by_parts_rank_formula(k, m, n)

    def test_too_light_grid_is_zero(self):
        for m in range(1, 7):
            for n in range(m * (m + 1) // 2):
                for k in range(-3, 4):
                    assert rank_histogram(m, n)[k] == 0
                    assert count_strict_by_parts_rank_formula(k, m, n) == 0

    def test_out_of_range_parameters_count_zero(self):
        assert count_strict_by_parts_rank_formula(3, 2, 33) == 0
        assert count_strict_by_parts_rank_formula(-2, 3, 20) == 0
        assert count_strict_by_parts_rank_formula(1, 1, 4) == 0  # odd leftover
        assert count_strict_by_parts_rank_formula(0, -1, 0) == 0  # fewer parts than the staircase


SEQUENCE_POOL = [
    (a, d)
    for a in range(3)
    for b in range(1, 4)
    for n in range(9)
    for d in enumerate_sequences(a, b, n)
]


@given(st.sampled_from(SEQUENCE_POOL))
def test_round_trip_sampled(pair):
    a, d = pair
    lam = partition_from_sequence(d)
    assert 2 * lam.weight == d.weight
    assert durfee_class(lam.parts, a) == d.b
    assert sequence_from_partition(a, lam) == d


strict_pool = st.sets(st.integers(1, 45), max_size=9).map(
    lambda s: StrictPartition(tuple(sorted(s, reverse=True)))
)


@given(strict_pool)
def test_split_round_trip_random(s):
    img = split_strict(s)
    assert img.triangular + img.seq.weight == s.weight
    assert unsplit_strict(img) == s
