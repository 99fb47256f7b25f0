import dataclasses
import itertools

import pytest

from parity_board import bijections, partitions, verify
from parity_board.abseq import alternating_sum
from parity_board.bijections import (
    StaircaseSplit,
    count_strict_by_parts_rank_formula,
    partition_from_sequence,
    split_strict,
    unsplit_strict,
)
from parity_board.partitions import Partition, StrictPartition, partition_tuples, strict_partition_tuples
from parity_board.qseries import gf_coefficients, strict_count_by_rank
from parity_board.verify import (
    CONGRUENCE_FAMILIES,
    Mismatch,
    VerificationReport,
    verify_bijection_phi,
    verify_congruences,
    verify_euler_vandervelde,
    verify_gf,
    verify_iota,
    verify_theorem34,
)

SMALL_SWEEPS = [
    lambda jobs=1: verify_bijection_phi(2, 3, 8, jobs=jobs),
    lambda jobs=1: verify_gf(2, 4, 8, jobs=jobs),
    lambda jobs=1: verify_iota(12, jobs=jobs),
    lambda jobs=1: verify_theorem34(-2, 2, 5, 15, jobs=jobs),
    lambda jobs=1: verify_euler_vandervelde(20, jobs=jobs),
    lambda jobs=1: verify_congruences(60, jobs=jobs),
]


@pytest.mark.parametrize("sweep", SMALL_SWEEPS)
def test_small_sweeps_pass(sweep):
    report = sweep()
    assert report.passed
    assert report.exit_code == 0
    assert report.checks_run > 0
    assert report.mismatches == []


@pytest.mark.parametrize("sweep", SMALL_SWEEPS)
def test_reports_deterministic(sweep):
    first, second = sweep(), sweep()
    assert list(first.tsv_lines()) == list(second.tsv_lines())
    assert list(first.json_lines()) == list(second.json_lines())


@pytest.mark.parametrize("sweep", [SMALL_SWEEPS[0], SMALL_SWEEPS[2], SMALL_SWEEPS[3], SMALL_SWEEPS[4]])
def test_worker_count_does_not_change_report(sweep):
    serial = sweep(jobs=1)
    sharded = sweep(jobs=3)
    assert list(serial.tsv_lines()) == list(sharded.tsv_lines())
    assert list(serial.json_lines()) == list(sharded.json_lines())


def test_vacuous_phi_sweep():
    report = verify_bijection_phi(0, 0, 0)
    assert report.passed
    assert report.checks_run == 0


def test_minimal_phi_sweep():
    report = verify_bijection_phi(0, 1, 1)
    assert report.passed
    assert report.checks_run > 0


def test_gf_handles_run_length_zero_slice():
    report = verify_gf(2, 0, 5)
    assert report.passed


def test_congruence_families_cover_expected_residues():
    assert CONGRUENCE_FAMILIES == (
        (1, (9,)),
        (3, (3, 5)),
        (4, (2, 6)),
        (6, (4,)),
        (8, (0, 8)),
        (9, (1, 7)),
    )


def test_congruences_record_skipped_cells():
    report = verify_congruences(101)
    assert report.passed
    # cells below the staircase weight for each rank in [-5, 5]
    expected_skips = 0
    for rank in range(-5, 6):
        rank_residue = rank % 10
        residues = [r for r, js in CONGRUENCE_FAMILIES if rank_residue in js]
        assert len(residues) == 1
        start = residues[0]
        floor = rank * (2 * rank - 1)
        expected_skips += sum(1 for n in range(start, 102, 10) if n < floor)
    assert report.skipped == expected_skips == 25


def test_failure_report_rendering():
    bad = Mismatch("demo-law", {"n": 3}, "5", "4")
    report = VerificationReport("demo", {"n_max": 3}, 7, [bad], skipped=2, elapsed=1.25)
    assert not report.passed
    assert report.exit_code == 1
    tsv = list(report.tsv_lines())
    assert tsv == [
        "subject\tdemo",
        "params\tn_max=3",
        "checks\t7",
        "skipped\t2",
        "mismatches\t1",
        "status\tfail",
        "mismatch\tdemo-law\tn=3\texpected=5\tactual=4",
    ]
    json_lines = list(report.json_lines())
    assert '"status":"fail"' in json_lines[0]
    assert '"record":"mismatch"' in json_lines[1]
    # wall time stays out of both serializations
    assert not any("1.25" in line for line in tsv + json_lines)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor, which ``verify._run_cells`` imports
    from ``concurrent.futures`` when it starts a pool: records the worker
    count and maps in this process, so no worker is ever started."""

    max_workers: list[int] = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, cells, chunksize=1):
        return map(fn, cells)


@pytest.mark.parametrize(
    "jobs, cpus, n_cells, workers",
    [
        (64, 4, 10, [4]),  # capped at the CPU count
        (64, 16, 5, [5]),  # capped at the cell count
        (3, 16, 10, [3]),  # the requested count when it is the smallest
        (64, None, 10, []),  # unknown CPU count: one CPU, no pool
        (64, 8, 1, []),  # a single cell never starts a pool
    ],
)
def test_worker_count_is_capped(monkeypatch, jobs, cpus, n_cells, workers):
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "max_workers", [])
    cells = list(range(n_cells))
    assert verify._run_cells(abs, cells, jobs) == cells
    assert _RecordingPool.max_workers == workers


def test_vacuous_reports_say_so():
    report = verify_bijection_phi(0, 0, 0)
    assert report.vacuous
    assert list(report.tsv_lines())[-1] == "vacuous\t1"
    assert '"vacuous":true' in next(report.json_lines())
    checked = verify_bijection_phi(0, 1, 1)
    assert not checked.vacuous
    assert not any(line.startswith("vacuous") for line in checked.tsv_lines())
    assert "vacuous" not in next(checked.json_lines())


def _off_by_one_entry(*bounds):
    table = gf_coefficients(*bounds)
    key = min(cell for cell in table.entries if cell != (0, 0, 0))
    return dataclasses.replace(table, entries={**table.entries, key: table.entries[key] + 1})


def _first_part_plus_one(a, seq):
    parts = partition_from_sequence(a, seq).parts
    return Partition((parts[0] + 1,) + parts[1:])


def _staircase_one_higher(s):
    img = split_strict(s)
    k = img.height + 1
    return StaircaseSplit(k * (k + 1) // 2, img.seq)


def _drop_first_row(*args, **kwargs):
    return itertools.islice(partition_tuples(*args, **kwargs), 1, None)


def _drop_first_strict_row(*args, **kwargs):
    return itertools.islice(strict_partition_tuples(*args, **kwargs), 1, None)


def _unsplit_first_part_plus_one(img):
    parts = unsplit_strict(img).parts
    return StrictPartition((parts[0] + 1,) + parts[1:])


def _all_ones(a, seq):
    return Partition((1,) * partition_from_sequence(a, seq).weight)


def _drop_first_entry(parts):
    return partitions.conjugate(parts)[1:]


# id -> (sweep at small bounds, "module.name" of a function it calls, that
# function broken).  Most breaks are off by one.  The all-ones image lies
# outside the Durfee class, so the sweep must report it without attempting
# the round trip.  The alternating sum off by one and the conjugate that drops
# its first entry make a map raise, which the sweep must report as a
# mismatch.  The split test that accepts everything must be caught by the
# pairs it lets in.  The broken unsplit and the strict enumerator that drops a
# row break the sides that iota and euler now compute once and reuse.
FAULTS = {
    "partition_from_sequence": (
        lambda: verify_bijection_phi(2, 3, 6), "verify.partition_from_sequence", _first_part_plus_one
    ),
    "gf_coefficients": (lambda: verify_gf(2, 4, 8), "verify.gf_coefficients", _off_by_one_entry),
    "split_strict": (lambda: verify_iota(10), "verify.split_strict", _staircase_one_higher),
    "count_strict_by_parts_rank_formula": (
        lambda: verify_theorem34(-2, 2, 5, 15),
        "verify.count_strict_by_parts_rank_formula",
        lambda k, m, n: count_strict_by_parts_rank_formula(k, m, n) + 1,
    ),
    "partition_tuples": (
        lambda: verify_euler_vandervelde(12), "verify.partition_tuples", _drop_first_row
    ),
    "strict_partition_tuples": (
        lambda: verify_euler_vandervelde(12), "verify.strict_partition_tuples", _drop_first_strict_row
    ),
    "strict_count_by_rank": (
        lambda: verify_congruences(40),
        "verify.strict_count_by_rank",
        lambda rank, n: strict_count_by_rank(rank, n) + 1,
    ),
    "partition_from_sequence-outside-class": (
        lambda: verify_bijection_phi(2, 2, 4), "verify.partition_from_sequence", _all_ones
    ),
    "alternating_sum-raises-in-split": (
        lambda: verify_iota(10),
        "bijections.alternating_sum",
        lambda xs: alternating_sum(xs) + 1,
    ),
    "conjugate-raises-in-phi": (
        lambda: verify_bijection_phi(2, 3, 6), "bijections.conjugate", _drop_first_entry
    ),
    "is_valid_split-accepts-everything": (
        lambda: verify_iota(10), "verify.is_valid_split", lambda img: True
    ),
    "unsplit_strict": (lambda: verify_iota(10), "verify.unsplit_strict", _unsplit_first_part_plus_one),
}


@pytest.mark.parametrize("sweep, target, broken", FAULTS.values(), ids=FAULTS.keys())
def test_every_sweep_fails_when_its_closed_form_is_off_by_one(monkeypatch, sweep, target, broken):
    monkeypatch.setattr(f"parity_board.{target}", broken)
    report = sweep()
    assert report.mismatches
    assert report.exit_code == 1


def test_iota_fails_when_conjugate_drops_its_last_entry(monkeypatch):
    """``conjugate`` sits below the maps the sweeps call, in two modules, so
    the fault is planted where the maps look it up rather than in ``verify``."""
    conjugate = partitions.conjugate

    def broken(parts):
        return conjugate(parts)[:-1]

    monkeypatch.setattr(partitions, "conjugate", broken)
    monkeypatch.setattr(bijections, "conjugate", broken)
    report = verify_iota(10)
    assert report.mismatches
    assert report.exit_code == 1
    assert {m.law for m in report.mismatches} == {"weight-additivity", "round-trip", "completeness"}


def test_a_raising_map_is_reported_by_name():
    """The mismatch names what the map raised, and only the checks that need
    the map's result are skipped: the other sequences of the cell, and the
    cardinality, are still checked."""
    conjugate = bijections.conjugate
    calls = []

    def fails_once(parts):
        calls.append(parts)
        if len(calls) == 1:
            raise ValueError("planted")
        return conjugate(parts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bijections, "conjugate", fails_once)
        report = verify_bijection_phi(0, 1, 3)
    assert [(m.law, m.actual) for m in report.mismatches] == [("halved-weight", "ValueError: planted")]
    assert report.checks_run == verify_bijection_phi(0, 1, 3).checks_run


def test_theorem34_enumerates_each_parts_weight_pair_once(monkeypatch):
    """Each (m, n) of the grid is enumerated once for all ranks, and the
    count does not grow past any cache size: 100 * 41 pairs here."""
    calls = []
    strict_partition_tuples = bijections.strict_partition_tuples

    def counted(*args, **kwargs):
        calls.append((args, tuple(kwargs.items())))
        return strict_partition_tuples(*args, **kwargs)

    monkeypatch.setattr(bijections, "strict_partition_tuples", counted)
    report = verify_theorem34(-1, 1, 100, 40)
    assert report.passed
    assert len(calls) == len(set(calls)) == 4100


def _counting(monkeypatch, module, name):
    """Patch ``module.name`` with a wrapper that records each call's arguments."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_unsplit_off_by_one_fails_both_passes_through_the_reused_results(monkeypatch):
    """The completeness pass reads the unsplits of the round-trip pass, so a
    broken unsplit still fails both, and is called once per strict partition."""
    monkeypatch.setattr(verify, "unsplit_strict", _unsplit_first_part_plus_one)
    calls = _counting(monkeypatch, verify, "unsplit_strict")
    report = verify_iota(10)
    assert {"round-trip", "completeness"} <= {m.law for m in report.mismatches}
    assert len(calls) == sum(1 for n in range(11) for _ in strict_partition_tuples(n))


def test_iota_maps_each_strict_partition_once(monkeypatch):
    """The completeness pass reuses the round-trip pass's results: one split
    and one unsplit per strict partition of n <= 12."""
    splits = _counting(monkeypatch, verify, "split_strict")
    unsplits = _counting(monkeypatch, verify, "unsplit_strict")
    report = verify_iota(12)
    assert report.passed
    stricts = sum(1 for n in range(13) for _ in strict_partition_tuples(n))
    assert len(splits) == len(unsplits) == stricts == 70


def test_euler_counts_each_even_part_weight_once(monkeypatch):
    """The even-part side is enumerated once per weight 0..20, in this process."""
    calls = _counting(monkeypatch, verify, "partition_tuples")
    report = verify_euler_vandervelde(20)
    assert report.passed
    assert report.checks_run == 21
    assert calls == [(m,) for m in range(21)]
