import itertools

import pytest

from parity_board.abseq import enumerate_sequences
from parity_board.partitions import (
    bg_rank,
    enumerate_partitions,
    enumerate_strict_partitions,
)
from parity_board.qseries import (
    _divide,
    gf_coefficients,
    strict_count_by_rank,
)


# The sequence generating function expanded as products of truncated series,
# on plain coefficient tuples: the reference the division kernel is held to.
def _one(order):
    return (1,) + (0,) * order


def _monomial(order, power):
    return tuple(int(i == power) for i in range(order + 1))


def _sub(s, t):
    return tuple(x - y for x, y in zip(s, t))


def _mul(s, t):
    out = [0] * len(s)
    for i, x in enumerate(s):
        if x:
            for j in range(len(s) - i):
                out[i + j] += x * t[j]
    return tuple(out)


def _reciprocal(s):
    """Inverse of a series with constant term +1 or -1."""
    c0 = s[0]
    out = [c0] + [0] * (len(s) - 1)
    for m in range(1, len(s)):
        out[m] = -c0 * sum(s[k] * out[m - k] for k in range(1, m + 1))
    return tuple(out)


def _pochhammer(k, order):
    """(1 - q)(1 - q^2) ... (1 - q^k), truncated."""
    out = _one(order)
    for i in range(1, min(k, order) + 1):
        out = _mul(out, _sub(_one(order), _monomial(order, i)))
    return out


def _reference_entries(max_a, max_b, order):
    entries = {(0, 0, 0): 1}
    recip = {}

    def recip_pochhammer(k):
        if k not in recip:
            recip[k] = _reciprocal(_pochhammer(k, order))
        return recip[k]

    def accumulate(a, b, series):
        for n, coeff in enumerate(series):
            if coeff:
                entries[(a, b, n)] = entries.get((a, b, n), 0) + coeff

    for a in range(max_a + 1):
        h = 1
        while h * (a + h) <= order and 2 * h - 1 <= max_b:
            shared = _mul(recip_pochhammer(h), recip_pochhammer(a + h))
            base = _monomial(order, h * (a + h))
            odd = _mul(_mul(base, _sub(_one(order), _monomial(order, h))), shared)
            accumulate(a, 2 * h - 1, odd)
            if 2 * h <= max_b:
                accumulate(a, 2 * h, _mul(_mul(base, _monomial(order, h)), shared))
            h += 1
    return entries


class TestSeriesArithmetic:
    """The reference's own arithmetic, on known small products."""

    def test_geometric(self):
        assert _reciprocal((1, -1, 0, 0)) == (1, 1, 1, 1)

    def test_product(self):
        assert _mul((1, -1, 0, 0), (1, 1, 0, 0)) == (1, 0, -1, 0)

    def test_reciprocal_of_negative_unit(self):
        s = (-1, 1, 0, 0, 0)
        assert _mul(s, _reciprocal(s)) == (1, 0, 0, 0, 0)

    def test_reciprocal_inverts(self):
        for k in range(6):
            p = _pochhammer(k, 12)
            assert _mul(p, _reciprocal(p)) == _one(12)

    def test_monomial_beyond_order_is_zero(self):
        assert _monomial(3, 7) == (0, 0, 0, 0)


class TestPochhammer:
    def test_empty_product(self):
        assert _pochhammer(0, 4) == _one(4)

    def test_first(self):
        assert _pochhammer(1, 3) == (1, -1, 0, 0)

    def test_second(self):
        assert _pochhammer(2, 3) == (1, -1, -1, 1)

    def test_reciprocal_counts_bounded_partitions(self):
        for k in range(1, 6):
            inverse = _reciprocal(_pochhammer(k, 20))
            for n in range(21):
                assert inverse[n] == len(enumerate_partitions(n, max_part=k))


class TestDivide:
    def test_counts_bounded_partitions(self):
        c = [1] + [0] * 20
        for k in range(1, 6):
            _divide(c, k)
            for n in range(21):
                assert c[n] == len(enumerate_partitions(n, max_part=k))

    def test_undoes_multiplication(self):
        c = [3, 0, -2, 7, 1, 0, 5]
        for e in range(1, 9):
            product = [x - (c[n - e] if n >= e else 0) for n, x in enumerate(c)]
            _divide(product, e)
            assert product == c


class TestCoefficientTable:
    def test_spot_entries(self):
        table = gf_coefficients(5, 8, 15)
        assert table.get((0, 3, 6), 0) == 4
        assert table.get((5, 1, 9), 0) == 3

    def test_constant_term(self):
        table = gf_coefficients(2, 4, 6)
        assert table.get((0, 0, 0), 0) == 1
        for a in range(3):
            for b in range(5):
                if (a, b) != (0, 0):
                    assert table.get((a, b, 0), 0) == 0

    def test_entries_nonnegative(self):
        table = gf_coefficients(4, 8, 15)
        assert all(v > 0 for v in table.values())

    def test_matches_enumeration(self):
        table = gf_coefficients(2, 4, 10)
        for a, b, n in itertools.product(range(3), range(5), range(11)):
            value = table.get((a, b, n), 0)
            if b == 0:
                expected = 1 if (a, b, n) == (0, 0, 0) else 0
            else:
                expected = len(enumerate_sequences(a, b, n))
            assert value == expected

    def test_row_sums_count_partitions_with_wide_first_row(self):
        table = gf_coefficients(3, 8, 10)
        for a in range(4):
            for n in range(11):
                total = sum(table.get((a, b, n), 0) for b in range(1, 9))
                wide = sum(1 for p in enumerate_partitions(n) if max(p.parts, default=0) > a)
                assert total == wide

    def test_matches_product_expansion(self):
        for bounds in [(20, 40, 200), (6, 10, 25), (4, 8, 15)]:
            table = gf_coefficients(*bounds)
            assert table == _reference_entries(*bounds)
            assert list(table) == sorted(table)  # the order table s-coeffs prints
        for bounds in itertools.product(range(6), range(10), range(21)):
            assert gf_coefficients(*bounds) == _reference_entries(*bounds)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            gf_coefficients(-1, 2, 3)


class TestStrictCountByRank:
    def test_rank_minus_one(self):
        expected = [
            s.parts for s in enumerate_strict_partitions(11) if bg_rank(s.parts) == -1
        ]
        assert expected == [(10, 1), (8, 3), (6, 5), (6, 3, 2), (5, 3, 2, 1)]
        assert strict_count_by_rank(-1, 11) == 5

    def test_parity_gap(self):
        assert strict_count_by_rank(0, 7) == 0

    def test_rank_one(self):
        assert [
            s.parts for s in enumerate_strict_partitions(7) if bg_rank(s.parts) == 1
        ] == [(7,), (5, 2), (4, 2, 1)]
        assert strict_count_by_rank(1, 7) == 3

    def test_matches_brute_force(self):
        for n in range(26):
            stricts = enumerate_strict_partitions(n)
            for rank in range(-4, 5):
                brute = sum(1 for s in stricts if bg_rank(s.parts) == rank)
                assert strict_count_by_rank(rank, n) == brute
