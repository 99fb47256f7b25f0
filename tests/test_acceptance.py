"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact; the stated wall-clock budgets are asserted as well
(they are generous, the sweeps finish in well under a second each).
"""

import time
from contextlib import contextmanager

from parity_board.abseq import (
    check_pairing_property,
    check_prefix_sign_property,
    enumerate_sequences,
    validate,
)
from parity_board.bijections import (
    count_strict_by_parts_rank_formula,
    partition_from_sequence,
    rank_histogram,
    sequence_from_partition,
)
from parity_board.cli import main
from parity_board.partitions import (
    Partition,
    bg_rank,
    enumerate_partitions,
    enumerate_strict_partitions,
)
from parity_board.qseries import strict_count_by_rank
from parity_board.verify import (
    verify_bijection_phi,
    verify_congruences,
    verify_euler_vandervelde,
    verify_gf,
    verify_iota,
    verify_theorem34,
)


@contextmanager
def criterion(number, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"criterion {number} ({label}): PASS ({elapsed:.3f}s)")


def test_criterion_01_table_of_weight_seven_splits(capsys):
    with criterion(1, "table1 --n 7 exact rows", budget=1.0):
        assert main(["table", "table1", "--n", "7"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "7\t(1,{1,1,1,1,1,1})\n"
            "6+1\t(3,{1,1,1,1})\n"
            "5+2\t(1,{2,2,1,1})\n"
            "4+3\t(3,{2,2})\n"
            "4+2+1\t(1,{2,3,1})\n"
        )


def test_criterion_02_offset_six_worked_example():
    with criterion(2, "offset-6 worked example", budget=1.0):
        seq = validate([7, 8, 9, 10, 11, 11, 8, 7, 5, 5, 4, 3, 1, 1])
        lam = partition_from_sequence(6, seq)
        assert lam == Partition((12, 10, 9, 6, 4, 3, 1))
        assert lam.weight == 45
        assert sequence_from_partition(6, lam) == seq


def test_criterion_03_gf_identity_full_grid():
    with criterion(3, "gf coefficients vs enumeration, A=4 B=8 N=15", budget=30.0):
        report = verify_gf(4, 8, 15)
        assert report.passed
        assert report.mismatches == []


def test_criterion_04_bijection_sweep():
    with criterion(4, "bijection sweep, a<=3 b<=4 n<=12", budget=30.0):
        report = verify_bijection_phi(3, 4, 12)
        assert report.passed
        assert report.mismatches == []


def test_criterion_05_staircase_split_sweep():
    with criterion(5, "staircase split sweep, n<=25", budget=30.0):
        report = verify_iota(25)
        assert report.passed
        assert report.mismatches == []


def test_criterion_06_counts_by_parts_and_rank():
    with criterion(6, "counts by (parts, rank), |k|<=3 m<=8 n<=30", budget=60.0):
        spots = [(3, 6, 33, 3), (2, 3, 16, 5), (0, 3, 12, 4), (-1, 2, 11, 3)]
        for k, m, n, expected in spots:
            assert rank_histogram(m, n)[k] == expected
            assert count_strict_by_parts_rank_formula(k, m, n) == expected
        report = verify_theorem34(-3, 3, 8, 30)
        assert report.passed


def test_criterion_07_closed_form_rank_counts():
    with criterion(7, "closed-form rank counts vs brute force, |j|<=3 n<=30", budget=30.0):
        assert strict_count_by_rank(1, 7) == 3
        assert strict_count_by_rank(-1, 11) == 5
        for n in range(31):
            stricts = enumerate_strict_partitions(n)
            for rank in range(-3, 4):
                brute = sum(1 for s in stricts if bg_rank(s) == rank)
                assert strict_count_by_rank(rank, n) == brute


def test_criterion_08_strict_vs_triangular_plus_even():
    with criterion(8, "strict vs triangular-plus-even counts, n<=40", budget=10.0):
        lhs = len(enumerate_strict_partitions(7))
        rhs = sum(
            len(enumerate_partitions(7 - t, parts_filter="even-only"))
            for t in (0, 1, 3, 6)
        )
        assert lhs == rhs == 5
        report = verify_euler_vandervelde(40)
        assert report.passed


def test_criterion_09_mod5_congruence_families():
    with criterion(9, "mod-5 families, n<=101", budget=10.0):
        assert strict_count_by_rank(-1, 11) == 5
        assert strict_count_by_rank(-1, 21) == 30
        assert strict_count_by_rank(-1, 11) % 5 == 0
        assert strict_count_by_rank(-1, 21) % 5 == 0
        report = verify_congruences(101)
        assert report.passed
        assert report.mismatches == []


def test_criterion_10_sign_and_pairing_properties():
    with criterion(10, "sign and pairing properties over the gf sweep grid", budget=60.0):
        for a in range(5):
            for b in range(1, 9):
                for n in range(16):
                    for d in enumerate_sequences(a, b, n):
                        assert check_prefix_sign_property(d)
                        sums = d.prefix_alt_sums()
                        for m in range(max(d.b - 1, 0), len(d) + 1):
                            if sums[m] == 0:
                                assert check_pairing_property(d, m)
