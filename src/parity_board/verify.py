"""Verification sweeps pitting each closed form against brute enumeration.

Every sweep walks a parameter grid in canonical order, returning a
:class:`VerificationReport`.  Each cell is a generator that yields one
record ``(law, where, expected, actual)`` per check it makes, and
:func:`_tally` counts those records and keeps each whose two values differ
as a :class:`Mismatch`, so a report's ``checks`` is the number of records
its cells yielded.  Cells are independent pure computations, so a grid may
be sharded across W processes: the parent maps the strided share
``cells[0::W]`` itself and forks a child for each other share ``cells[w::W]``
(W = 1 where ``os.fork`` is missing); each process tallies the cells it
maps.  Results merge in grid order and the serialized report is
byte-identical for any worker count.  A report holds no wall time; the CLI
times the whole sweep call.
"""

from __future__ import annotations

import json
import os
import signal
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from .abseq import ABSequence, EMPTY_SEQUENCE, enumerate_sequences, sequence_tails
from .bijections import (
    count_strict_by_parts_rank_formula,
    durfee_class,
    is_valid_split,
    partition_from_sequence,
    partition_from_sequence_by_filling,
    rank_histogram,
    sequence_from_partition,
    split_strict,
    StaircaseSplit,
    unsplit_strict,
)
from .partitions import (
    bg_rank,
    enumerate_strict_partitions,
    partition_tuples,
    rank_staircase,
    strict_partition_tuples,
)
from .qseries import gf_coefficients, strict_count_by_rank

__all__ = [
    "SWEEPS",
    "Mismatch",
    "VerificationReport",
    "CONGRUENCE_FAMILIES",
    "verify_bijection_phi",
    "verify_gf",
    "verify_iota",
    "verify_theorem34",
    "verify_euler_vandervelde",
    "verify_congruences",
]


# CLI subcommand -> (name of the sweep function in this module, help text).
# Each function's signature declares the sweep's grid parameters and defaults.
SWEEPS: dict[str, tuple[str, str]] = {
    "verify-phi": ("verify_bijection_phi", "sequence <-> partition bijection sweep"),
    "verify-gf": ("verify_gf", "generating function coefficients vs enumeration"),
    "verify-iota": ("verify_iota", "staircase split of strict partitions sweep"),
    "verify-thm34": ("verify_theorem34", "counts by (parts, BG-rank) vs closed form"),
    "verify-euler": ("verify_euler_vandervelde", "strict vs triangular-plus-even-part counts"),
    "verify-congruences": ("verify_congruences", "mod-5 families of rank counts"),
}


def canonical_json(obj: dict) -> str:
    """The byte-stable JSON text of one record: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Mismatch:
    law: str
    where: dict[str, object]
    expected: str
    actual: str


@dataclass
class VerificationReport:
    subject: str
    params: dict[str, int]
    checks_run: int
    mismatches: list[Mismatch]
    skipped: int = 0

    @property
    def passed(self) -> bool:
        return not self.mismatches

    @property
    def vacuous(self) -> bool:
        """True when the sweep ran no check, so its pass says nothing."""
        return self.checks_run == 0

    def _head(self) -> dict:
        """The report's fields, in the order the TSV head lists them."""
        head = {
            "subject": self.subject,
            "params": self.params,
            "checks": self.checks_run,
            "skipped": self.skipped,
            "mismatches": len(self.mismatches),
            "status": "pass" if self.passed else "fail",
        }
        if self.vacuous:
            head["vacuous"] = True
        return head

    def tsv_lines(self) -> Iterator[str]:
        for key, value in self._head().items():
            if key == "params":
                value = _pairs(value)
            yield f"{key}\t{int(value) if value is True else value}"  # vacuous reads 1
        for m in self.mismatches:
            yield f"mismatch\t{m.law}\t{_pairs(m.where)}\texpected={m.expected}\tactual={m.actual}"

    def json_lines(self) -> Iterator[str]:
        yield canonical_json({"record": "report", **self._head()})
        for m in self.mismatches:
            yield canonical_json({"record": "mismatch", **vars(m)})


def _pairs(fields: dict) -> str:
    """``k=v`` for each field, space-separated, as a TSV line shows a dict."""
    return " ".join(f"{k}={v}" for k, v in fields.items())


# What a cell yields for each check it makes: (law, where, expected, actual).
Check = tuple[str, dict[str, object], object, object]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_share_and_exit(fn: Callable, share: Sequence, rfd: int, wfd: int) -> NoReturn:
    """In a forked child: close the parent's end ``rfd`` of the pipe, map
    ``fn`` over ``share``, write the pickled reply ``(True, results)`` or
    ``(False, exception)`` to ``wfd``, and exit.

    The exit status is 0 only once the whole reply is written.  A result or
    exception that cannot be pickled is replaced by an error that says so.
    """
    import pickle

    status = 1
    try:
        os.close(rfd)
        try:
            reply = pickle.dumps((True, [fn(cell) for cell in share]))
        except BaseException as exc:  # re-raised in the parent
            try:
                reply = pickle.dumps((False, exc))
            except Exception as why:
                reply = pickle.dumps((False, RuntimeError(f"{exc!r} cannot be sent to the parent: {why!r}")))
        with open(wfd, "wb") as pipe:
            pipe.write(reply)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, rfd: int) -> tuple[int, bytes]:
    """Read a child's reply to the end of its pipe, then wait for the child:
    ``(exit status, reply)``, with ``-signal`` for a child a signal killed."""
    with open(rfd, "rb") as pipe:
        reply = pipe.read()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), reply


def _run_cells(fn: Callable, cells: Sequence, jobs: int) -> list:
    """Map ``fn`` over ``cells`` preserving order, optionally in processes.

    W = min(jobs, usable CPUs, cells), at least 1, processes share the cells,
    and W is 1 where ``os.fork`` is missing.  Share w is ``cells[w::W]``:
    strided, so neighbouring cells, which cost about the same, go to
    different processes and no process gets the whole heavy tail of the grid.
    The parent is one of the W processes and maps share 0 itself, which is
    every cell when W is 1; each of W − 1 forked children maps one share and
    sends its results back pickled through a pipe.  Every child is reaped
    before this returns; when the parent raises, an interrupt while it waits
    for a child included, the children not yet reaped are killed first.  An
    exception a cell raised in a child is raised again here, and a child that
    dies is an error naming its exit status.
    """
    workers = max(1, min(jobs, _usable_cpus(), len(cells))) if hasattr(os, "fork") else 1
    if workers > 1:
        import pickle  # before the fork, so the children inherit it
    children = []
    replies = []
    out = [None] * len(cells)
    try:
        for w in range(1, workers):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _map_share_and_exit(fn, cells[w::workers], rfd, wfd)
            os.close(wfd)
            children.append((pid, rfd))
        out[0::workers] = [fn(cell) for cell in cells[0::workers]]
        for pid, rfd in children:
            replies.append(_reap(pid, rfd))
    except BaseException:
        for pid, rfd in children[len(replies) :]:  # their results can no longer be used
            with suppress(OSError):
                os.close(rfd)  # an interrupted _reap may have closed it already
            with suppress(OSError):  # or reaped the child
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        raise
    for w, (status, reply) in enumerate(replies, 1):
        if status:
            raise RuntimeError(f"sweep process for share {w} of {workers} exited with status {status}")
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        out[w::workers] = value
    return out


def _tally(records: Iterable[Check]) -> tuple[int, list[Mismatch]]:
    """The number of records, and a mismatch for each whose ``actual`` is not
    its ``expected``: both values shown by :func:`_shown`, and each value of
    ``where`` that is not an ``int`` as its text."""
    checks = 0
    mismatches = []
    for law, where, expected, actual in records:
        checks += 1
        if expected != actual:
            shown_where = {k: v if isinstance(v, int) else str(v) for k, v in where.items()}
            mismatches.append(Mismatch(law, shown_where, _shown(expected), _shown(actual)))
    return checks, mismatches


def _sweep(
    subject: str, cell: Callable[..., Iterator[Check]], cells: Sequence, params: dict, jobs: int, skipped: int = 0
) -> VerificationReport:
    """Tally the records ``cell`` yields on each of ``cells``, in the process
    that maps the cell, and merge the results in grid order: ``checks`` counts
    every record, so a map that raises lowers it by the checks that needed
    its result.  ``skipped`` counts the cells the grid left out."""
    results = _run_cells(lambda c: _tally(cell(c)), cells, jobs)
    checks = sum(r[0] for r in results)
    mismatches = [m for r in results for m in r[1]]
    return VerificationReport(subject, params, checks, mismatches, skipped)


def _outcome(fn: Callable, *args):
    """``fn(*args)``, or the exception it raised, which equals no result: a
    broken map fails the checks that need its result, it never stops a sweep."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _shown(outcome) -> str:
    """An outcome as a mismatch shows it; an exception by its type and message."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    return str(outcome)


def _phi_cell(cell: tuple[int, int, int, int]) -> Iterator[Check]:
    a, b, n, members = cell
    seqs = enumerate_sequences(a, b, n)
    for seq in seqs:
        where = {"a": a, "b": b, "n": n, "seq": seq}
        lam = _outcome(partition_from_sequence, a, seq)
        if isinstance(lam, Exception):
            yield "halved-weight", where, n, lam
            continue
        yield "halved-weight", where, n, lam.weight
        member = durfee_class(lam.parts, a) == b
        yield "class-membership", where, "member", "member" if member else f"{lam} outside class"
        # sequence_from_partition may refuse a partition outside the class, so there is no round trip to check
        if member:
            yield "round-trip", where, seq, _outcome(sequence_from_partition, a, lam)
        yield "board-oracle", where, lam, _outcome(partition_from_sequence_by_filling, a, seq)
    yield "cardinality", {"a": a, "b": b, "n": n}, members, len(seqs)


def verify_bijection_phi(a_max: int = 3, b_max: int = 4, n_max: int = 12, jobs: int = 1) -> VerificationReport:
    """Exhaustive check of the sequence <-> partition correspondence.

    On every (a, b, half-weight) cell: round trip, halved weight, class
    membership, agreement with the literal board filling, and equality of
    the two cardinalities.  The class members are counted in one pass over
    the partitions of each n, keyed by :func:`durfee_class`, and each cell
    carries its count.
    """
    members = Counter(
        (a, durfee_class(t, a), n)
        for n in range(n_max + 1)
        for t in partition_tuples(n)
        for a in range(a_max + 1)
    )
    cells = [
        (a, b, n, members[a, b, n])
        for a in range(a_max + 1)
        for b in range(1, b_max + 1)
        for n in range(n_max + 1)
    ]
    params = {"a_max": a_max, "b_max": b_max, "n_max": n_max}
    return _sweep("sequence-partition-bijection", _phi_cell, cells, params, jobs)


def _gf_cell(cell: tuple[int, int, int, int]) -> Iterator[Check]:
    """Count one cell by enumeration and compare with the table value it
    carries; the closed form itself is never consulted here."""
    a, b, n, value = cell
    if b == 0:
        count = 1 if (a, n) == (0, 0) else 0
    else:
        count = sum(1 for _ in sequence_tails(a, b, n))
    yield "coefficient", {"a": a, "b": b, "n": n}, count, value


def verify_gf(a_max: int = 4, b_max: int = 8, trunc: int = 15, jobs: int = 1) -> VerificationReport:
    """Compare the closed form's count on every cell of the grid, zero cells
    included, against direct enumeration."""
    table = gf_coefficients(a_max, b_max, trunc)
    cells = [
        (a, b, n, table.get((a, b, n), 0))
        for a in range(a_max + 1)
        for b in range(b_max + 1)
        for n in range(trunc + 1)
    ]
    params = {"a_max": a_max, "b_max": b_max, "trunc": trunc}
    return _sweep("sequence-gf", _gf_cell, cells, params, jobs)


def _admissible_splits(n: int) -> list[StaircaseSplit]:
    """Every pair (staircase, sequence) of total weight n that
    :func:`is_valid_split` accepts, in deterministic order.

    The test reads only the staircase height and the sequence's (a, b), so
    each (height, a, b) cell is taken or left whole by its first sequence.
    """
    out: list[StaircaseSplit] = []
    k = 0
    while (t := k * (k + 1) // 2) <= n:
        half, odd = divmod(n - t, 2)
        if half == odd == 0 and is_valid_split(StaircaseSplit(k, EMPTY_SEQUENCE)):
            out.append(StaircaseSplit(k, EMPTY_SEQUENCE))
        # a nonempty sequence has a + 1 <= half and its staircase weighs at most 2 * half
        for a in range(0 if odd else half):
            b = 1
            while a * b + b * (b + 1) // 2 <= 2 * half:
                tail = next(sequence_tails(a, b, half), None)
                first = None if tail is None else ABSequence(tuple(range(a + 1, a + b + 1)) + tail)
                if first is not None and is_valid_split(StaircaseSplit(k, first)):
                    out.extend(StaircaseSplit(k, seq) for seq in enumerate_sequences(a, b, half))
                b += 1
        k += 1
    return out


def _iota_cell(n: int) -> Iterator[Check]:
    """Check the split on every strict partition of ``n``, then that every
    admissible pair of weight ``n`` is the split of one.

    The round-trip pass keeps the key (staircase height, sequence entries)
    of each split that did not raise.  The completeness pass checks each
    admissible pair against those images and calls no map.
    """
    stricts = enumerate_strict_partitions(n)
    images = []
    for s in stricts:
        where = {"n": n, "partition": s}
        img = _outcome(split_strict, s)
        if isinstance(img, Exception):
            yield "weight-additivity", where, n, img
            continue
        images.append((img.height, img.seq.entries))
        yield "weight-additivity", where, n, img.triangular + img.seq.weight
        valid = is_valid_split(img)
        yield "image-characterization", where, "valid split", "valid split" if valid else img
        # unsplit_strict refuses a pair outside the image, so there is no round trip to check
        if valid:
            yield "round-trip", where, s, _outcome(unsplit_strict, img)
    keys = set(images)
    yield "injectivity", {"n": n}, len(images), len(keys)
    pairs = _admissible_splits(n)
    split_of_one = "a strict partition's split"
    for pair in pairs:
        found = split_of_one if (pair.height, pair.seq.entries) in keys else "no strict partition's split"
        yield "completeness", {"n": n, "pair": pair}, split_of_one, found
    yield "pair-count", {"n": n}, len(stricts), len(pairs)


def verify_iota(n_max: int = 25, jobs: int = 1) -> VerificationReport:
    """Check the staircase split on all strict partitions up to ``n_max``:
    round trip, weight additivity, injectivity, that the image
    characterization is sound and complete, and that the admissible pairs
    are as many as the strict partitions."""
    cells = list(range(n_max + 1))
    return _sweep("strict-staircase-split", _iota_cell, cells, {"n_max": n_max}, jobs)


def theorem34_cells(k_min: int, k_max: int, m_max: int, n_max: int) -> list[tuple[int, int, int, int]]:
    """The (k, m, n) cells of the theorem 3.4 sweep in grid order, each with
    its enumerated count; every (m, n) is enumerated once, in this process."""
    hist = {(m, n): rank_histogram(m, n) for m in range(1, m_max + 1) for n in range(n_max + 1)}
    return [
        (k, m, n, hist[m, n][k])
        for k in range(k_min, k_max + 1)
        for m in range(1, m_max + 1)
        for n in range(n_max + 1)
    ]


def _thm34_cell(cell: tuple[int, int, int, int]) -> Iterator[Check]:
    """Compare the enumerated count the cell carries with the closed form."""
    k, m, n, count = cell
    yield "count-equality", {"k": k, "m": m, "n": n}, count, count_strict_by_parts_rank_formula(k, m, n)


def verify_theorem34(
    k_min: int = -3, k_max: int = 3, m_max: int = 8, n_max: int = 30, jobs: int = 1
) -> VerificationReport:
    """Brute-force count of strict partitions by (parts, BG-rank) against the
    closed-form dispatch, over the full grid."""
    cells = theorem34_cells(k_min, k_max, m_max, n_max)
    params = {"k_min": k_min, "k_max": k_max, "m_max": m_max, "n_max": n_max}
    return _sweep("strict-by-parts-and-rank", _thm34_cell, cells, params, jobs)


def _euler_cell(cell: tuple[int, int]) -> Iterator[Check]:
    """Count the strict partitions of ``n`` and compare with the count of
    (triangular, even-part partition) pairs the cell carries."""
    n, rhs = cell
    yield "count-equality", {"n": n}, sum(1 for _ in strict_partition_tuples(n)), rhs


def verify_euler_vandervelde(n_max: int = 40, jobs: int = 1) -> VerificationReport:
    """Strict partitions of n versus pairs (triangular part, partition into
    even parts) of total weight n, both sides enumerated.

    The partitions into even parts of each weight up to ``n_max`` are
    counted once, in this process, and each cell carries the number of pairs
    of its weight; the cell enumerates only the strict side.
    """
    evens = [sum(1 for _ in partition_tuples(m, even_only=True)) for m in range(n_max + 1)]
    pairs = [0] * (n_max + 1)
    k = 0
    while (t := k * (k + 1) // 2) <= n_max:
        for n in range(t, n_max + 1):
            pairs[n] += evens[n - t]
        k += 1
    cells = list(enumerate(pairs))
    return _sweep("strict-vs-triangular-plus-even", _euler_cell, cells, {"n_max": n_max}, jobs)


# (residue of n mod 10, residues of the rank mod 10) for the six families
# whose closed-form count is divisible by 5
CONGRUENCE_FAMILIES: tuple[tuple[int, tuple[int, ...]], ...] = (
    (1, (9,)),
    (3, (3, 5)),
    (4, (2, 6)),
    (6, (4,)),
    (8, (0, 8)),
    (9, (1, 7)),
)


# residue of the rank mod 10 -> residue of n mod 10 of its family
_FAMILY_OF_RANK = {r: n_res for n_res, rank_residues in CONGRUENCE_FAMILIES for r in rank_residues}


def _congruence_cell(cell: tuple[int, int]) -> Iterator[Check]:
    rank, n = cell
    where = {"rank": rank, "n": n}
    count = strict_count_by_rank(rank, n)
    yield "mod-5", where, "0 (mod 5)", count if count % 5 else "0 (mod 5)"
    if n <= 30:
        yield "closed-form", where, sum(1 for t in strict_partition_tuples(n) if bg_rank(t) == rank), count


def verify_congruences(n_max: int = 101, jobs: int = 1) -> VerificationReport:
    """Scan the six mod-5 families for ranks of absolute value at most 5.

    Cells below the least admissible weight, zero by the weight bound, are
    left out of the grid and counted as skipped rather than passed vacuously;
    where the weight also stays within brute-force range the closed-form
    count is cross-checked against direct enumeration.
    """
    cells, skipped = [], 0
    for rank in range(-5, 6):
        weights = range(_FAMILY_OF_RANK[rank % 10], n_max + 1, 10)
        least = rank_staircase(rank)[1]
        kept = [(rank, n) for n in weights if n >= least]
        cells += kept
        skipped += len(weights) - len(kept)
    return _sweep("rank-count-congruences-mod5", _congruence_cell, cells, {"n_max": n_max}, jobs, skipped)
