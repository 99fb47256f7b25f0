import pytest
from hypothesis import given, strategies as st

from parity_board.abseq import (
    ABSequence,
    EMPTY_SEQUENCE,
    NonPositiveEntry,
    NonzeroAlternatingSum,
    NotWeaklyDecreasing,
    PreconditionViolated,
    alternating_sum,
    check_pairing_property,
    check_prefix_sign_property,
    enumerate_sequences,
    validate,
)
from parity_board.partitions import enumerate_partitions

# a modest grid reused by several sweeps below
GRID = [
    (a, b, n) for a in range(4) for b in range(1, 5) for n in range(11)
]


def entries_of(seqs):
    return [d.entries for d in seqs]


class TestValidate:
    def test_long_example(self):
        d = validate([7, 8, 9, 10, 11, 11, 8, 7, 5, 5, 4, 3, 1, 1])
        assert (d.a, d.b, len(d), d.weight) == (6, 5, 14, 90)
        assert alternating_sum(d.entries) == 0

    def test_short_example(self):
        d = validate([2, 3, 1])
        assert (d.a, d.b, d.weight) == (1, 2, 6)

    def test_odd_weight_rejected(self):
        with pytest.raises(NonzeroAlternatingSum):
            validate([1, 1, 1])

    def test_empty(self):
        d = validate([])
        assert (d.a, d.b, len(d), d.weight, alternating_sum(d.entries)) == (0, 0, 0, 0, 0)
        assert d == EMPTY_SEQUENCE
        assert str(d) == "{}"

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveEntry):
            validate([1, 2, 0, 1])

    def test_increase_past_run_rejected(self):
        with pytest.raises(NotWeaklyDecreasing):
            validate([1, 2, 3, 1, 2])

    def test_idempotent(self):
        d = validate([6, 6, 3, 3])
        assert validate(d.entries) == d

    def test_str(self):
        assert str(validate([6, 6, 3, 3])) == "{6,6,3,3}"


class TestEnumerate:
    def test_single_run_cell(self):
        got = entries_of(enumerate_sequences(5, 1, 9))
        assert sorted(got) == sorted(
            [(6, 6, 1, 1, 1, 1, 1, 1), (6, 6, 2, 2, 1, 1), (6, 6, 3, 3)]
        )

    def test_longer_run_cell(self):
        got = entries_of(enumerate_sequences(0, 3, 6))
        assert sorted(got) == sorted(
            [
                (1, 2, 3, 3, 2, 1),
                (1, 2, 3, 3, 1, 1, 1),
                (1, 2, 3, 2, 1, 1, 1, 1),
                (1, 2, 3, 2, 2, 2),
            ]
        )

    def test_minimal_cell(self):
        assert entries_of(enumerate_sequences(0, 1, 1)) == [(1, 1)]

    def test_tails_descending_lex(self):
        for a, b, n in GRID:
            tails = [d.entries[d.b:] for d in enumerate_sequences(a, b, n)]
            assert tails == sorted(tails, reverse=True)
            assert len(set(tails)) == len(tails)

    def test_prefix_too_heavy(self):
        assert enumerate_sequences(3, 4, 2) == []

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_sequences(-1, 1, 3)
        with pytest.raises(ValueError):
            enumerate_sequences(0, 0, 3)
        with pytest.raises(ValueError):
            enumerate_sequences(0, 1, -2)

    def test_canonical_parameters(self):
        for a, b, n in GRID:
            for d in enumerate_sequences(a, b, n):
                assert (d.a, d.b) == (a, b)
                assert d.weight == 2 * n
                assert validate(d.entries) == d

    def test_no_entry_list_under_two_parameter_pairs(self):
        for n in range(11):
            seen: dict[tuple, tuple] = {}
            for a in range(4):
                for b in range(1, 5):
                    for d in enumerate_sequences(a, b, n):
                        assert d.entries not in seen
                        seen[d.entries] = (a, b)

    def test_unpruned_reference_on_tiny_weights(self):
        # regenerate each cell by filtering every weakly decreasing tail
        def brute(a, b, n):
            prefix = tuple(range(a + 1, a + b + 1))
            rest = 2 * n - sum(prefix)
            if rest < 0:
                return []
            found = []

            def go(tail, left):
                if left == 0:
                    cand = prefix + tuple(tail)
                    alt = sum(d if i % 2 else -d for i, d in enumerate(cand))
                    if alt == 0:
                        found.append(cand)
                    return
                top = tail[-1] if tail else a + b
                for v in range(min(top, left), 0, -1):
                    go(tail + [v], left - v)

            go([], rest)
            return found

        for a in range(3):
            for b in range(1, 4):
                for n in range(8):
                    assert entries_of(enumerate_sequences(a, b, n)) == brute(a, b, n)


class TestStructuralProperties:
    def test_weight_always_even(self):
        for a, b, n in GRID:
            for d in enumerate_sequences(a, b, n):
                assert d.weight % 2 == 0

    def test_prefix_sign_property_everywhere(self):
        for a, b, n in GRID:
            for d in enumerate_sequences(a, b, n):
                assert check_prefix_sign_property(d)

    def test_prefix_sign_small(self):
        assert check_prefix_sign_property(validate([1, 1]))
        assert check_prefix_sign_property(
            validate([7, 8, 9, 10, 11, 11, 8, 7, 5, 5, 4, 3, 1, 1])
        )

    def test_pairing_property_everywhere(self):
        for a, b, n in GRID:
            for d in enumerate_sequences(a, b, n):
                sums = d.prefix_alt_sums()
                for m in range(max(d.b - 1, 0), len(d) + 1):
                    if sums[m] == 0:
                        assert check_pairing_property(d, m)

    def test_pairing_minimal(self):
        assert check_pairing_property(validate([6, 6, 3, 3]), 0)
        assert check_pairing_property(validate([1, 1]), 0)

    def test_pairing_preconditions(self):
        d = validate([1, 2, 3, 3, 2, 1])
        with pytest.raises(PreconditionViolated):
            check_pairing_property(d, 1)  # S_1 = -1
        with pytest.raises(PreconditionViolated):
            check_pairing_property(d, 0)  # below b - 1
        with pytest.raises(PreconditionViolated):
            check_pairing_property(d, 9)  # beyond the length

    def test_single_run_cells_pair_up(self):
        # with b = 1 entries pair as d1=d2 >= d3=d4 >= ..., so halved pairs
        # are the partitions of n with largest part exactly a + 1
        for a in range(5):
            for n in range(13):
                seqs = enumerate_sequences(a, 1, n)
                for d in seqs:
                    assert check_pairing_property(d, 0)
                expected = sum(
                    1
                    for p in enumerate_partitions(n, max_part=a + 1)
                    if p.parts and p.parts[0] == a + 1
                )
                assert len(seqs) == expected


@given(st.sampled_from([cell for cell in GRID if cell[2] <= 8]), st.data())
def test_enumerated_sequences_validate_back(cell, data):
    seqs = enumerate_sequences(*cell)
    if not seqs:
        return
    d = data.draw(st.sampled_from(seqs))
    again = ABSequence(d.entries)
    assert again == d
    assert (again.a, again.b) == (cell[0], cell[1])
