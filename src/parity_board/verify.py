"""Verification sweeps pitting each closed form against brute enumeration.

Every sweep walks a parameter grid in canonical order, returning a
:class:`VerificationReport`.  Cells are independent pure computations, so a
grid may be sharded across W processes: the parent maps the strided share
``cells[0::W]`` itself and forks a child for each other share ``cells[w::W]``
(serial where ``os.fork`` is missing).  Results merge in grid order and the
serialized report is byte-identical for any worker count.  Wall time is
kept on the report but deliberately left out of the serialization.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, NoReturn, Sequence

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
    StrictPartition,
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
    elapsed: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    @property
    def vacuous(self) -> bool:
        """True when the sweep ran no check, so its pass says nothing."""
        return self.checks_run == 0

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def tsv_lines(self) -> Iterator[str]:
        yield f"subject\t{self.subject}"
        yield "params\t" + " ".join(f"{k}={v}" for k, v in self.params.items())
        yield f"checks\t{self.checks_run}"
        yield f"skipped\t{self.skipped}"
        yield f"mismatches\t{len(self.mismatches)}"
        yield f"status\t{'pass' if self.passed else 'fail'}"
        if self.vacuous:
            yield "vacuous\t1"
        for m in self.mismatches:
            where = " ".join(f"{k}={v}" for k, v in m.where.items())
            yield f"mismatch\t{m.law}\t{where}\texpected={m.expected}\tactual={m.actual}"

    def json_lines(self) -> Iterator[str]:
        head = {
            "record": "report",
            "subject": self.subject,
            "params": self.params,
            "checks": self.checks_run,
            "skipped": self.skipped,
            "mismatches": len(self.mismatches),
            "status": "pass" if self.passed else "fail",
        }
        if self.vacuous:
            head["vacuous"] = True
        yield canonical_json(head)
        for m in self.mismatches:
            rec = {
                "record": "mismatch",
                "law": m.law,
                "where": m.where,
                "expected": m.expected,
                "actual": m.actual,
            }
            yield canonical_json(rec)


CellResult = tuple[int, int, list[Mismatch]]


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

    W = min(jobs, usable CPUs, cells) processes share the cells, and W is 1
    where ``os.fork`` is missing.  Share w is ``cells[w::W]``: strided, so
    neighbouring cells, which cost about the same, go to different processes
    and no process gets the whole heavy tail of the grid.  The parent is one
    of the W processes and maps share 0 itself; each of W − 1 forked children
    maps one share and sends its results back pickled through a pipe.  Every
    child is reaped before this returns.  An exception a cell raised in a
    child is raised again here, and a child that dies is an error naming its
    exit status.
    """
    workers = min(jobs, _usable_cpus(), len(cells)) if hasattr(os, "fork") else 1
    if workers > 1:
        import pickle  # before the fork, so the children inherit it

        children = []
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
        finally:
            replies = [_reap(pid, rfd) for pid, rfd in children]
        for w, (status, reply) in enumerate(replies, 1):
            if status:
                raise RuntimeError(f"sweep process for share {w} of {workers} exited with status {status}")
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            out[w::workers] = value
        return out
    return [fn(cell) for cell in cells]


def _sweep(
    subject: str, cell: Callable[..., CellResult], cells: Sequence, params: dict[str, int], jobs: int
) -> VerificationReport:
    """Run ``cell`` over ``cells`` and merge the results in grid order."""
    t0 = time.perf_counter()
    results = _run_cells(cell, cells, jobs)
    checks = sum(r[0] for r in results)
    skipped = sum(r[1] for r in results)
    mismatches = [m for r in results for m in r[2]]
    return VerificationReport(subject, params, checks, mismatches, skipped, time.perf_counter() - t0)


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


def _phi_cell(cell: tuple[int, int, int, int]) -> CellResult:
    a, b, n, members = cell
    checks = 0
    bad: list[Mismatch] = []

    def miss(law: str, seq: ABSequence, expected: str, actual: str) -> None:
        bad.append(Mismatch(law, {"a": a, "b": b, "n": n, "seq": str(seq)}, expected, actual))

    seqs = enumerate_sequences(a, b, n)
    for seq in seqs:
        checks += 4
        lam = _outcome(partition_from_sequence, a, seq)
        if isinstance(lam, Exception):
            miss("halved-weight", seq, str(n), _shown(lam))
            continue
        if lam.weight != n:
            miss("halved-weight", seq, str(n), str(lam.weight))
        if durfee_class(lam.parts, a) != b:
            # sequence_from_partition may refuse such a partition, so there is no round trip to check
            miss("class-membership", seq, "member", f"{lam} outside class")
        else:
            back = _outcome(sequence_from_partition, a, lam)
            if back != seq:
                miss("round-trip", seq, str(seq), _shown(back))
        filled = _outcome(partition_from_sequence_by_filling, a, seq)
        if filled != lam:
            miss("board-oracle", seq, str(lam), _shown(filled))
    checks += 1
    if members != len(seqs):
        bad.append(
            Mismatch("cardinality", {"a": a, "b": b, "n": n}, str(members), str(len(seqs)))
        )
    return checks, 0, bad


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


def _gf_cell(cell: tuple[int, int, int, int]) -> CellResult:
    """Count one cell by enumeration and compare with the table value it
    carries; the closed form itself is never consulted here."""
    a, b, n, value = cell
    if b == 0:
        count = 1 if (a, n) == (0, 0) else 0
    else:
        count = sum(1 for _ in sequence_tails(a, b, n))
    if count != value:
        return 1, 0, [Mismatch("coefficient", {"a": a, "b": b, "n": n}, str(count), str(value))]
    return 1, 0, []


def verify_gf(a_max: int = 4, b_max: int = 8, trunc: int = 15, jobs: int = 1) -> VerificationReport:
    """Compare every coefficient-table cell against direct enumeration."""
    table = gf_coefficients(a_max, b_max, trunc)
    cells = [cell + (value,) for cell, value in table.cells()]
    params = {"a_max": a_max, "b_max": b_max, "trunc": trunc}
    return _sweep("sequence-gf", _gf_cell, cells, params, jobs)


def _admissible_splits(n: int) -> list[StaircaseSplit]:
    """Every pair (triangular, sequence) of total weight n that
    :func:`is_valid_split` accepts, in deterministic order.

    The test reads only the staircase height and the sequence's (a, b), so
    each (height, a, b) cell is taken or left whole by its first sequence.
    """
    out: list[StaircaseSplit] = []
    k = 0
    while k * (k + 1) // 2 <= n:
        t = k * (k + 1) // 2
        half, odd = divmod(n - t, 2)
        if half == odd == 0 and is_valid_split(StaircaseSplit(t, EMPTY_SEQUENCE)):
            out.append(StaircaseSplit(t, EMPTY_SEQUENCE))
        # a nonempty sequence has a + 1 <= half and its staircase weighs at most 2 * half
        for a in range(0 if odd else half):
            b = 1
            while a * b + b * (b + 1) // 2 <= 2 * half:
                tail = next(sequence_tails(a, b, half), None)
                first = None if tail is None else ABSequence(tuple(range(a + 1, a + b + 1)) + tail)
                if first is not None and is_valid_split(StaircaseSplit(t, first)):
                    out.extend(StaircaseSplit(t, seq) for seq in enumerate_sequences(a, b, half))
                b += 1
        k += 1
    return out


def _stored_outcome(memo: dict, key, fn: Callable, arg):
    """``memo[key]`` when an earlier pass stored it, else ``_outcome(fn, arg)``.
    A stored value may be falsy (the empty partition), so a miss is ``None``."""
    found = memo.get(key)
    return _outcome(fn, arg) if found is None else found


def _iota_cell(n: int) -> CellResult:
    """Check the split on every strict partition of ``n``, then that every
    admissible pair of weight ``n`` is the split of one.

    The round-trip pass keeps each split in ``split_of`` (keyed by parts) and
    each unsplit in ``unsplit_of`` (keyed by triangular part and sequence
    entries), result or exception.  Both maps are pure functions of those
    values, so the completeness pass reads them and calls a map only on a
    miss, such as a pair that is no strict partition's split.
    """
    checks = 0
    bad: list[Mismatch] = []

    def miss(law: str, s: StrictPartition, expected: str, actual: str) -> None:
        bad.append(Mismatch(law, {"n": n, "partition": str(s)}, expected, actual))

    stricts = enumerate_strict_partitions(n)
    split_of: dict = {}
    unsplit_of: dict = {}
    for s in stricts:
        checks += 3
        img = split_of[s.parts] = _outcome(split_strict, s)
        if isinstance(img, Exception):
            miss("weight-additivity", s, str(n), _shown(img))
            continue
        if img.triangular + img.seq.weight != n:
            miss("weight-additivity", s, str(n), str(img.triangular + img.seq.weight))
        if not is_valid_split(img):
            # unsplit_strict refuses such a pair, so there is no round trip to check
            miss("image-characterization", s, "valid split", str(img))
            continue
        back = unsplit_of[img.triangular, img.seq.entries] = _outcome(unsplit_strict, img)
        if back != s:
            miss("round-trip", s, str(s), _shown(back))
    images = [img for img in split_of.values() if not isinstance(img, Exception)]
    checks += 1
    keys = {(img.triangular, img.seq.entries) for img in images}
    if len(keys) != len(images):
        bad.append(Mismatch("injectivity", {"n": n}, str(len(images)), str(len(keys))))
    pairs = _admissible_splits(n)
    for img in pairs:
        checks += 1
        s = _stored_outcome(unsplit_of, (img.triangular, img.seq.entries), unsplit_strict, img)
        if isinstance(s, Exception):
            again = s
        else:
            # a broken unsplit may return a non-partition: it misses, and the split reports it
            again = _stored_outcome(split_of, getattr(s, "parts", None), split_strict, s)
        if again != img:
            bad.append(Mismatch("completeness", {"n": n, "pair": str(img)}, str(img), _shown(again)))
    checks += 1
    if len(pairs) != len(stricts):
        bad.append(Mismatch("pair-count", {"n": n}, str(len(stricts)), str(len(pairs))))
    return checks, 0, bad


def verify_iota(n_max: int = 25, jobs: int = 1) -> VerificationReport:
    """Check the staircase split on all strict partitions up to ``n_max``:
    round trip, weight additivity, injectivity, and that the image
    characterization is sound and complete."""
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


def _thm34_cell(cell: tuple[int, int, int, int]) -> CellResult:
    """Compare the enumerated count the cell carries with the closed form."""
    k, m, n, count = cell
    formula = count_strict_by_parts_rank_formula(k, m, n)
    if count != formula:
        return 1, 0, [Mismatch("count-equality", {"k": k, "m": m, "n": n}, str(count), str(formula))]
    return 1, 0, []


def verify_theorem34(
    k_min: int = -3, k_max: int = 3, m_max: int = 8, n_max: int = 30, jobs: int = 1
) -> VerificationReport:
    """Brute-force count of strict partitions by (parts, BG-rank) against the
    closed-form dispatch, over the full grid."""
    cells = theorem34_cells(k_min, k_max, m_max, n_max)
    params = {"k_min": k_min, "k_max": k_max, "m_max": m_max, "n_max": n_max}
    return _sweep("strict-by-parts-and-rank", _thm34_cell, cells, params, jobs)


def _euler_cell(cell: tuple[int, int]) -> CellResult:
    """Count the strict partitions of ``n`` and compare with the count of
    (triangular, even-part partition) pairs the cell carries."""
    n, rhs = cell
    lhs = sum(1 for _ in strict_partition_tuples(n))
    if lhs != rhs:
        return 1, 0, [Mismatch("count-equality", {"n": n}, str(lhs), str(rhs))]
    return 1, 0, []


def verify_euler_vandervelde(n_max: int = 40, jobs: int = 1) -> VerificationReport:
    """Strict partitions of n versus pairs (triangular part, partition into
    even parts) of total weight n, both sides enumerated.

    The partitions into even parts of each weight up to ``n_max`` are
    counted once, in this process, and each cell carries the number of pairs
    of its weight; the cell enumerates only the strict side.
    """
    evens = [sum(1 for _ in partition_tuples(m, parts_filter="even-only")) for m in range(n_max + 1)]
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


def _family_residue(rank: int) -> int | None:
    for n_res, rank_residues in CONGRUENCE_FAMILIES:
        if rank % 10 in rank_residues:
            return n_res
    return None


def _congruence_cell(cell: tuple[int, int]) -> CellResult:
    rank, n = cell
    if n < rank_staircase(rank)[1]:
        # identically zero by the weight bound; record as skipped
        return 0, 1, []
    checks = 1
    bad: list[Mismatch] = []
    count = strict_count_by_rank(rank, n)
    if count % 5:
        bad.append(Mismatch("mod-5", {"rank": rank, "n": n}, "0 (mod 5)", f"{count}"))
    if n <= 30:
        checks += 1
        brute = sum(1 for t in strict_partition_tuples(n) if bg_rank(t) == rank)
        if brute != count:
            bad.append(Mismatch("closed-form", {"rank": rank, "n": n}, str(brute), str(count)))
    return checks, 0, bad


def verify_congruences(n_max: int = 101, jobs: int = 1) -> VerificationReport:
    """Scan the six mod-5 families for ranks of absolute value at most 5.

    Cells below the least admissible weight are skipped rather than passed
    vacuously; where the weight also stays within brute-force range the
    closed-form count is cross-checked against direct enumeration.
    """
    cells = []
    for rank in range(-5, 6):
        n_res = _family_residue(rank)
        if n_res is None:
            continue
        cells.extend((rank, n) for n in range(n_res, n_max + 1, 10))
    return _sweep("rank-count-congruences-mod5", _congruence_cell, cells, {"n_max": n_max}, jobs)
