import pytest

from parity_board.abseq import enumerate_sequences
from parity_board.partitions import (
    bg_rank,
    enumerate_partitions,
    enumerate_strict_partitions,
)
from parity_board.qseries import (
    CoeffTable,
    NonUnitConstantTerm,
    TruncatedSeries,
    gf_coefficients,
    pochhammer_q,
    strict_count_by_rank,
    strict_rank_gf,
)


class TestSeriesArithmetic:
    def test_geometric(self):
        one_minus_q = TruncatedSeries((1, -1, 0, 0))
        assert one_minus_q.reciprocal().coeffs == (1, 1, 1, 1)

    def test_product(self):
        s = TruncatedSeries((1, -1, 0, 0))
        t = TruncatedSeries((1, 1, 0, 0))
        assert (s * t).coeffs == (1, 0, -1, 0)

    def test_add_sub_neg(self):
        s = TruncatedSeries((1, 2, 3))
        t = TruncatedSeries((0, 1, -3))
        assert (s + t).coeffs == (1, 3, 0)
        assert (s - t).coeffs == (1, 1, 6)
        assert (-s).coeffs == (-1, -2, -3)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            TruncatedSeries((1, 0)) + TruncatedSeries((1, 0, 0))

    def test_reciprocal_requires_unit(self):
        with pytest.raises(NonUnitConstantTerm):
            TruncatedSeries((2, 0, 0)).reciprocal()

    def test_reciprocal_of_negative_unit(self):
        s = TruncatedSeries((-1, 1, 0, 0, 0))
        assert (s * s.reciprocal()).coeffs == (1, 0, 0, 0, 0)

    def test_reciprocal_inverts(self):
        for k in range(6):
            p = pochhammer_q(k, 12)
            assert (p * p.reciprocal()) == TruncatedSeries.one(12)

    def test_monomial_beyond_order_is_zero(self):
        assert TruncatedSeries.monomial(3, 7).coeffs == (0, 0, 0, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer_q(0, 4) == TruncatedSeries.one(4)

    def test_first(self):
        assert pochhammer_q(1, 3).coeffs == (1, -1, 0, 0)

    def test_second(self):
        assert pochhammer_q(2, 3).coeffs == (1, -1, -1, 1)

    def test_reciprocal_counts_bounded_partitions(self):
        for k in range(1, 6):
            inverse = pochhammer_q(k, 20).reciprocal()
            for n in range(21):
                assert inverse[n] == len(enumerate_partitions(n, max_part=k))


class TestCoefficientTable:
    def test_spot_entries(self):
        table = gf_coefficients(5, 8, 15)
        assert table.entry(0, 3, 6) == 4
        assert table.entry(5, 1, 9) == 3

    def test_constant_term(self):
        table = gf_coefficients(2, 4, 6)
        assert table.entry(0, 0, 0) == 1
        for a in range(3):
            for b in range(5):
                if (a, b) != (0, 0):
                    assert table.entry(a, b, 0) == 0

    def test_entries_nonnegative(self):
        table = gf_coefficients(4, 8, 15)
        assert all(v >= 0 for _, v in table.cells())

    def test_matches_enumeration(self):
        table = gf_coefficients(2, 4, 10)
        for (a, b, n), value in table.cells():
            if b == 0:
                expected = 1 if (a, b, n) == (0, 0, 0) else 0
            else:
                expected = len(enumerate_sequences(a, b, n))
            assert value == expected

    def test_row_sums_count_partitions_with_wide_first_row(self):
        table = gf_coefficients(3, 8, 10)
        for a in range(4):
            for n in range(11):
                total = sum(table.entry(a, b, n) for b in range(1, 9))
                wide = sum(1 for p in enumerate_partitions(n) if p.part(1) > a)
                assert total == wide

    def test_out_of_range_entry(self):
        table = gf_coefficients(1, 2, 3)
        with pytest.raises(IndexError):
            table.entry(2, 0, 0)
        with pytest.raises(IndexError):
            table.entry(0, 0, 4)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            gf_coefficients(-1, 2, 3)


class TestStrictCountByRank:
    def test_rank_minus_one(self):
        expected = [
            s.parts for s in enumerate_strict_partitions(11) if bg_rank(s) == -1
        ]
        assert expected == [(10, 1), (8, 3), (6, 5), (6, 3, 2), (5, 3, 2, 1)]
        assert strict_count_by_rank(-1, 11) == 5

    def test_parity_gap(self):
        assert strict_count_by_rank(0, 7) == 0

    def test_rank_one(self):
        assert [
            s.parts for s in enumerate_strict_partitions(7) if bg_rank(s) == 1
        ] == [(7,), (5, 2), (4, 2, 1)]
        assert strict_count_by_rank(1, 7) == 3

    def test_matches_brute_force(self):
        for n in range(26):
            stricts = enumerate_strict_partitions(n)
            for rank in range(-4, 5):
                brute = sum(1 for s in stricts if bg_rank(s) == rank)
                assert strict_count_by_rank(rank, n) == brute


class TestStrictRankGf:
    def test_rank_zero_coefficient(self):
        assert strict_rank_gf(0, 8)[4] == 2

    def test_rank_one_coefficient(self):
        assert strict_rank_gf(1, 8)[7] == 3

    def test_heavy_staircase_gives_zero_series(self):
        assert strict_rank_gf(3, 8) == TruncatedSeries.zero(8)
        assert strict_rank_gf(-3, 14) == TruncatedSeries.zero(14)

    def test_coefficients_match_counts(self):
        for rank in range(-3, 4):
            series = strict_rank_gf(rank, 30)
            for n in range(31):
                assert series[n] == strict_count_by_rank(rank, n)
