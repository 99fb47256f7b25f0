import ast
import contextlib
import itertools
import os
import signal
import sys
import time
from pathlib import Path

import pytest

from parity_board import bijections, partitions, verify
from parity_board.abseq import alternating_sum, enumerate_sequences, sequence_tails
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
    assert report.checks_run > 0
    assert report.mismatches == []


@pytest.mark.parametrize("sweep", SMALL_SWEEPS)
def test_reports_deterministic(sweep):
    first, second = sweep(), sweep()
    assert list(first.tsv_lines()) == list(second.tsv_lines())
    assert list(first.json_lines()) == list(second.json_lines())


@pytest.mark.parametrize("sweep", SMALL_SWEEPS)
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


# (residue of n mod 10, residues of the rank mod 10) for the six families
# whose closed-form count is divisible by 5, as tabulated by hand: the oracle
# that the congruence sweep's derived grid is held to.
CONGRUENCE_FAMILIES = (
    (1, (9,)),
    (3, (3, 5)),
    (4, (2, 6)),
    (6, (4,)),
    (8, (0, 8)),
    (9, (1, 7)),
)


def _family_grid(n_max):
    """The congruence sweep's cells, in grid order, and its skipped count, read
    off ``CONGRUENCE_FAMILIES``: each family weight at or above the rank's
    staircase weight is a cell, and each one below it is skipped."""
    cells, skipped = [], 0
    for rank in range(-5, 6):
        (start,) = [n_res for n_res, ranks in CONGRUENCE_FAMILIES if rank % 10 in ranks]
        floor = rank * (2 * rank - 1)
        weights = range(start, n_max + 1, 10)
        kept = [(rank, n) for n in weights if n >= floor]
        cells += kept
        skipped += len(weights) - len(kept)
    return cells, skipped


def test_congruence_families_cover_expected_residues():
    """Each rank residue lies in one family, and the closed-form count of every
    rank up to 15 in absolute value is divisible by 5 on its family."""
    assert sorted(r for _, ranks in CONGRUENCE_FAMILIES for r in ranks) == list(range(10))
    for n_res, ranks in CONGRUENCE_FAMILIES:
        for rank in (r for r in range(-15, 16) if r % 10 in ranks):
            assert [strict_count_by_rank(rank, n) % 5 for n in range(n_res, 600, 10)] == [0] * 60


def test_congruences_record_skipped_cells():
    report = verify_congruences(101)
    assert report.passed
    assert report.skipped == _family_grid(101)[1] == 25


def test_congruence_grid_is_the_literal_families(monkeypatch):
    """The grid derived from p(5j + 4) and the staircase weight has the cells,
    in order, and the skipped count that the literal families give, for every
    bound; ``_sweep`` is replaced, so no cell runs."""
    monkeypatch.setattr(verify, "_sweep", lambda subject, cell, cells, params, jobs, skipped: (cells, skipped))
    assert [verify_congruences(n_max) for n_max in range(2102)] == [_family_grid(n_max) for n_max in range(2102)]


def test_failure_report_rendering():
    bad = Mismatch("demo-law", {"n": 3}, "5", "4")
    report = VerificationReport("demo", {"n_max": 3}, 7, [bad], skipped=2)
    assert not report.passed
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


# Every fork this test process makes, recorded on the parent side.  The hook
# cannot be unregistered, so it is registered once and tests read the count
# before and after a run.
_FORKS: list[int] = []
os.register_at_fork(before=lambda: _FORKS.append(os.getpid()))


@pytest.fixture
def deadline():
    """A test whose fork-join run hangs fails after 10 s instead."""

    def hung(signum, frame):
        raise TimeoutError("the fork-join run hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _patch_cpus(monkeypatch, cpus):
    """Make ``cpus`` CPUs usable, or none known when ``cpus`` is None."""
    if cpus is None:
        monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)


@pytest.mark.parametrize(
    "jobs, cpus, n_cells, workers",
    [
        (64, 4, 10, [4]),  # capped at the CPU count
        (64, 16, 5, [5]),  # capped at the cell count
        (3, 16, 10, [3]),  # the requested count when it is the smallest
        (64, None, 10, []),  # unknown CPU count: one CPU, no fork
        (64, 8, 1, []),  # a single cell never forks
        (64, 8, 0, []),  # an empty grid forks nothing and maps to []
    ],
)
def test_worker_count_is_capped(monkeypatch, deadline, jobs, cpus, n_cells, workers):
    """``workers`` is ``[W]`` when W processes, the parent and W - 1 forked
    children, share the cells, and ``[]`` when the parent maps them alone."""
    _patch_cpus(monkeypatch, cpus)
    cells = list(range(n_cells))
    before = len(_FORKS)
    assert verify._run_cells(abs, cells, jobs) == cells
    forks = len(_FORKS) - before
    assert ([forks + 1] if forks else []) == workers


def test_worker_count_is_capped_at_the_affinity_set(monkeypatch, deadline):
    """A process pinned to 2 of 64 CPUs forks one child, not 63."""
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 64)
    before = len(_FORKS)
    assert verify._run_cells(abs, list(range(10)), 64) == list(range(10))
    assert len(_FORKS) - before == 1


def test_no_fork_means_serial(monkeypatch):
    monkeypatch.delattr(verify.os, "fork")
    _patch_cpus(monkeypatch, 4)
    assert verify._run_cells(lambda cell: os.getpid(), [0, 1, 2], 4) == [os.getpid()] * 3


@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("n_cells", [7, 12])
def test_shares_merge_in_grid_order(monkeypatch, deadline, workers, n_cells):
    _patch_cpus(monkeypatch, workers)
    cells = [(n, -n) for n in range(n_cells)]

    def square(cell):  # a local function: forked children need no pickled fn
        return [cell[0] * cell[0], cell]

    assert verify._run_cells(square, cells, workers) == [square(c) for c in cells]


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_shares_are_strided_and_the_parent_maps_share_0(monkeypatch, deadline, workers):
    _patch_cpus(monkeypatch, workers)
    pids = verify._run_cells(lambda cell: os.getpid(), list(range(10)), workers)
    assert pids[0] == os.getpid()
    assert len(set(pids)) == workers
    assert all(pid == pids[i % workers] for i, pid in enumerate(pids))


@pytest.fixture
def two_cpus(monkeypatch, deadline):
    _patch_cpus(monkeypatch, 2)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_cell_that_raises_in_a_child_raises_in_the_parent(two_cpus):
    def broken(cell):
        if cell == 3:  # share 1 of 2, mapped by the child
            raise ValueError(f"cell {cell} is broken")
        return cell

    with pytest.raises(ValueError, match="^cell 3 is broken$"):
        verify._run_cells(broken, list(range(6)), 2)
    _assert_no_child_left()


def test_a_cell_that_raises_in_the_parent_still_reaps_the_children(two_cpus):
    def broken(cell):
        if cell == 2:  # share 0, mapped by the parent
            raise KeyError(cell)
        return cell

    with pytest.raises(KeyError):
        verify._run_cells(broken, list(range(6)), 2)
    _assert_no_child_left()


def test_a_cell_that_raises_in_the_parent_stops_the_children(two_cpus):
    """The children's results can no longer be used, so the parent does not
    wait for them to finish their shares."""

    def broken(cell):
        if cell == 0:  # share 0, mapped by the parent
            raise KeyError(cell)
        time.sleep(30)  # share 1, mapped by the child
        return cell

    t0 = time.perf_counter()
    with pytest.raises(KeyError):
        verify._run_cells(broken, [0, 1], 2)
    assert time.perf_counter() - t0 < 5
    _assert_no_child_left()


def test_an_interrupt_while_reaping_stops_the_children(monkeypatch):
    """An interrupt that reaches the parent while it waits for a child's
    reply kills and reaps the children it has not reaped yet."""
    _patch_cpus(monkeypatch, 2)
    forked = []
    fork = os.fork

    def recorded_fork():
        pid = fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)

    def slow_in_child(cell):
        if cell:  # share 1, mapped by the child
            time.sleep(30)
        return cell

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            verify._run_cells(slow_in_child, [0, 1], 2)
        assert time.perf_counter() - t0 < 5
        _assert_no_child_left()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        for pid in forked:  # what a failing run left behind
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def test_a_child_that_dies_is_an_error_naming_its_status(two_cpus):
    parent = os.getpid()

    def die_in_child(cell):
        if os.getpid() != parent:
            os._exit(3)
        return cell

    with pytest.raises(RuntimeError, match="exited with status 3"):
        verify._run_cells(die_in_child, list(range(6)), 2)
    _assert_no_child_left()


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception refuses to be pickled")


def _raise_unpicklable_in_share_1(cell):
    if cell:
        raise _Unpicklable(cell)
    return cell


@pytest.mark.parametrize(
    "fn, message",
    [
        (lambda cell: (lambda: cell), "pickle"),  # a local lambda is no picklable result
        (_raise_unpicklable_in_share_1, "cannot be sent to the parent"),
    ],
)
def test_what_cannot_be_pickled_comes_back_as_an_error(two_cpus, fn, message):
    with pytest.raises(Exception, match=message):
        verify._run_cells(fn, [0, 1], 2)
    _assert_no_child_left()


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
    key = min(cell for cell in table if cell != (0, 0, 0))
    return {**table, key: table[key] + 1}


def _first_part_plus_one(seq):
    parts = partition_from_sequence(seq).parts
    return Partition((parts[0] + 1,) + parts[1:])


def _staircase_one_higher(s):
    img = split_strict(s)
    return StaircaseSplit(img.height + 1, img.seq)


def _drop_first_row(*args, **kwargs):
    return itertools.islice(partition_tuples(*args, **kwargs), 1, None)


def _drop_first_strict_row(*args, **kwargs):
    return itertools.islice(strict_partition_tuples(*args, **kwargs), 1, None)


def _unsplit_first_part_plus_one(img):
    parts = unsplit_strict(img).parts
    return StrictPartition((parts[0] + 1,) + parts[1:])


def _all_ones(seq):
    return Partition((1,) * partition_from_sequence(seq).weight)


def _drop_first_entry(parts):
    return partitions.conjugate(parts)[1:]


def _first_tail_again_for_last(a, b, half_weight):
    """The tails, except that the first one comes again in place of the last."""
    tails = list(sequence_tails(a, b, half_weight))
    return iter(tails[:-1] + tails[:1])


def _second_sent_to_first(s):
    """The split, except that the second strict partition of each weight
    is sent to the first one's image."""
    first_two = list(itertools.islice(strict_partition_tuples(s.weight), 2))
    if first_two[1:] == [s.parts]:
        s = StrictPartition(first_two[0])
    return split_strict(s)


# id -> (sweep at small bounds, taking ``jobs``, "module.name" of a function
# it calls, that function broken, the laws the report must name).  Each report
# must also be the same at ``jobs=3``.  Most breaks are off by one.  The
# all-ones image lies outside the Durfee class, so the sweep must report it
# without attempting the round trip.  The alternating sum off by one and the
# conjugate that drops its first entry make a map raise, which the sweep must
# report as a mismatch.  The split test that accepts everything must be caught
# by the pairs it lets in, with no round trip failing.  A broken unsplit fails
# only the round trip, since the completeness pass calls no map.  A split that
# sends two partitions to one image fails injectivity, and a sequence
# enumerator that drops a row fails only the cardinality.  The strict
# enumerator that drops a row breaks the side that euler computes once and
# reuses.  Tails that repeat the first in place of the last keep every count
# and every object valid, so only ``distinct`` sees them.
FAULTS = {
    "partition_from_sequence": (
        lambda jobs=1: verify_bijection_phi(2, 3, 6, jobs=jobs),
        "verify.partition_from_sequence",
        _first_part_plus_one,
        {"halved-weight", "class-membership", "round-trip", "board-oracle"},
    ),
    "gf_coefficients": (
        lambda jobs=1: verify_gf(2, 4, 8, jobs=jobs),
        "verify.gf_coefficients",
        _off_by_one_entry,
        {"coefficient"},
    ),
    "split_strict": (
        lambda jobs=1: verify_iota(10, jobs=jobs),
        "verify.split_strict",
        _staircase_one_higher,
        {"weight-additivity", "image-characterization", "round-trip", "completeness"},
    ),
    "split_strict-merges-two-images": (
        lambda jobs=1: verify_iota(10, jobs=jobs),
        "verify.split_strict",
        _second_sent_to_first,
        {"round-trip", "injectivity", "completeness"},
    ),
    "count_strict_by_parts_rank_formula": (
        lambda jobs=1: verify_theorem34(-2, 2, 5, 15, jobs=jobs),
        "verify.count_strict_by_parts_rank_formula",
        lambda k, m, n: count_strict_by_parts_rank_formula(k, m, n) + 1,
        {"count-equality"},
    ),
    "partition_tuples": (
        lambda jobs=1: verify_euler_vandervelde(12, jobs=jobs),
        "verify.partition_tuples",
        _drop_first_row,
        {"count-equality"},
    ),
    "strict_partition_tuples": (
        lambda jobs=1: verify_euler_vandervelde(12, jobs=jobs),
        "verify.strict_partition_tuples",
        _drop_first_strict_row,
        {"count-equality"},
    ),
    "strict_count_by_rank": (
        lambda jobs=1: verify_congruences(40, jobs=jobs),
        "verify.strict_count_by_rank",
        lambda rank, n: strict_count_by_rank(rank, n) + 1,
        {"mod-5", "closed-form"},
    ),
    "partition_from_sequence-outside-class": (
        lambda jobs=1: verify_bijection_phi(2, 2, 4, jobs=jobs),
        "verify.partition_from_sequence",
        _all_ones,
        {"class-membership", "board-oracle"},
    ),
    "enumerate_sequences-drops-first": (
        lambda jobs=1: verify_bijection_phi(2, 3, 6, jobs=jobs),
        "verify.enumerate_sequences",
        lambda a, b, n: enumerate_sequences(a, b, n)[1:],
        {"cardinality"},
    ),
    "alternating_sum-raises-in-split": (
        lambda jobs=1: verify_iota(10, jobs=jobs),
        "bijections.alternating_sum",
        lambda xs: alternating_sum(xs) + 1,
        {"weight-additivity", "completeness"},
    ),
    "conjugate-raises-in-phi": (
        lambda jobs=1: verify_bijection_phi(2, 3, 6, jobs=jobs),
        "bijections.conjugate",
        _drop_first_entry,
        {"halved-weight", "class-membership", "board-oracle"},
    ),
    "is_valid_split-accepts-everything": (
        lambda jobs=1: verify_iota(10, jobs=jobs),
        "verify.is_valid_split",
        lambda img: True,
        {"completeness", "pair-count"},
    ),
    "unsplit_strict": (
        lambda jobs=1: verify_iota(10, jobs=jobs),
        "verify.unsplit_strict",
        _unsplit_first_part_plus_one,
        {"round-trip"},
    ),
    "sequence_tails-repeats-first-in-phi": (
        lambda jobs=1: verify_bijection_phi(2, 3, 6, jobs=jobs),
        "abseq.sequence_tails",
        _first_tail_again_for_last,
        {"distinct"},
    ),
    "sequence_tails-repeats-first-in-iota": (
        lambda jobs=1: verify_iota(10, jobs=jobs),
        "abseq.sequence_tails",
        _first_tail_again_for_last,
        {"distinct"},
    ),
}


@pytest.mark.parametrize("sweep, target, broken, laws", FAULTS.values(), ids=FAULTS.keys())
def test_every_sweep_fails_when_its_closed_form_is_off_by_one(monkeypatch, sweep, target, broken, laws):
    monkeypatch.setattr(f"parity_board.{target}", broken)
    report = sweep()
    assert not report.passed
    assert {m.law for m in report.mismatches} == laws
    sharded = sweep(jobs=3)
    assert list(sharded.tsv_lines()) == list(report.tsv_lines())
    assert list(sharded.json_lines()) == list(report.json_lines())


def _mismatch_calls(node):
    return [c for c in ast.walk(node) if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "Mismatch"]


def test_every_law_is_shown_to_fire():
    """Each law name a cell in ``verify.py`` yields is tripped by some fault
    above, so a law added without a fault case fails here.  A mismatch is
    built only in ``_tally``, which counts every record, so no check a cell
    makes goes uncounted."""
    tree = ast.parse(Path(verify.__file__).read_text())
    names = {
        node.value.elts[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Yield)
        and isinstance(node.value, ast.Tuple)
        and isinstance(node.value.elts[0], ast.Constant)
        and isinstance(node.value.elts[0].value, str)
    }
    assert names == set().union(*(laws for *_, laws in FAULTS.values()))
    tally = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_tally")
    assert len(_mismatch_calls(tree)) == len(_mismatch_calls(tally)) == 1


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
    assert not report.passed
    assert {m.law for m in report.mismatches} == {"weight-additivity", "round-trip", "completeness"}


def test_congruences_fail_when_the_staircase_weight_is_off(monkeypatch):
    """The grid writes the staircase weight out, so a staircase 2 too heavy,
    planted in every module that holds ``rank_staircase``, moves the closed
    form's count off its family: ``mod-5`` trips, and the cross-check with it."""
    rank_staircase = partitions.rank_staircase

    def heavier(rank):
        height, weight = rank_staircase(rank)
        return height, weight + 2

    for name, module in list(sys.modules.items()):
        if name.startswith("parity_board") and getattr(module, "rank_staircase", None) is rank_staircase:
            monkeypatch.setattr(module, "rank_staircase", heavier)
    report = verify_congruences(40)
    assert {m.law for m in report.mismatches} == {"mod-5", "closed-form"}
    sharded = verify_congruences(40, jobs=3)
    assert list(sharded.tsv_lines()) == list(report.tsv_lines())
    assert list(sharded.json_lines()) == list(report.json_lines())


def _drop_last_column(s):
    return partitions.columns(s)[:-1]


def _swap_last_two_columns(s):
    cols = partitions.columns(s)
    return cols[:-2] + (cols[-1], cols[-2]) if len(cols) > 1 and cols[-2] != cols[-1] else cols


@pytest.mark.parametrize(
    "broken, laws, mismatches",
    [
        (_drop_last_column, {"weight-additivity", "round-trip", "completeness"}, 207),
        (_swap_last_two_columns, {"weight-additivity", "completeness"}, 34),
    ],
    ids=["drops-last", "swaps-last-two"],
)
def test_iota_fails_when_columns_is_broken(monkeypatch, broken, laws, mismatches):
    """``columns`` returns a plain tuple that nothing checks on the way out,
    so a malformed profile reaches ``split_strict``: dropping the last column
    loses weight, and swapping the last two leaves no valid remnant, which
    ``split_strict`` raises on."""
    monkeypatch.setattr(bijections, "columns", broken)
    report = verify_iota(12)
    assert {m.law for m in report.mismatches} == laws
    assert len(report.mismatches) == mismatches
    sharded = verify_iota(12, jobs=3)
    assert list(sharded.tsv_lines()) == list(report.tsv_lines())
    assert list(sharded.json_lines()) == list(report.json_lines())


def test_a_raising_map_is_reported_by_name():
    """The mismatch names what the map raised, and only the checks that need
    the map's result are skipped: the class, round-trip and board checks of
    the one sequence it failed on, which the report no longer counts.  The
    other sequences of the cell, and the cardinality, are still checked."""
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
    assert report.checks_run == verify_bijection_phi(0, 1, 3).checks_run - 3 == 17


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


def test_a_broken_unsplit_fails_only_the_round_trip(monkeypatch):
    """The completeness pass calls no map, so a broken unsplit fails only the
    round trip, and is called once per strict partition."""
    monkeypatch.setattr(verify, "unsplit_strict", _unsplit_first_part_plus_one)
    calls = _counting(monkeypatch, verify, "unsplit_strict")
    report = verify_iota(10)
    assert {m.law for m in report.mismatches} == {"round-trip"}
    assert len(calls) == sum(1 for n in range(11) for _ in strict_partition_tuples(n)) == 43


def test_iota_maps_each_strict_partition_once(monkeypatch):
    """The completeness pass calls no map, so the round-trip pass makes the
    only calls: one split and one unsplit per strict partition of n <= 12."""
    splits = _counting(monkeypatch, verify, "split_strict")
    unsplits = _counting(monkeypatch, verify, "unsplit_strict")
    report = verify_iota(12)
    assert report.passed
    stricts = sum(1 for n in range(13) for _ in strict_partition_tuples(n))
    assert len(splits) == len(unsplits) == stricts == 70


def test_euler_counts_each_even_part_weight_once(monkeypatch):
    """The even-part side is enumerated once per half-weight 0..10, in this
    process: the partitions of m, doubled, are those of 2m into even parts."""
    calls = _counting(monkeypatch, verify, "partition_tuples")
    report = verify_euler_vandervelde(20)
    assert report.passed
    assert report.checks_run == 21
    assert calls == [(h,) for h in range(11)]
