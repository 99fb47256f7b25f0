"""The two structural maps tying sequences to partitions.

The first map halves weight: a sequence with parameters (a, b) double-covers
a staggered board whose doubly covered region is the diagram of a partition.
The board's blocks alternate between rows and single columns:

    block 2j-1 = row j, columns 1 .. a+j        (capacity a+j)
    block 2i   = column a+i+1, rows 1 .. i      (capacity i)

Pass i of the filling first doubles the cells the previous pass left singly
covered, then single-covers the leading cells of block i; so with c_i the
cells pass i places in block i, c_1 = d_1 and c_i = d_i - c_{i-1}.  The
closed form below reads the partition straight off the c_i; the literal
cell-by-cell filling is kept as an independent oracle.

The second map splits a strict partition into a balanced staircase prefix of
its shifted-diagram columns plus a leftover sequence, and is injective.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from operator import add
from typing import Sequence

from .abseq import ABSequence, InvalidABSequence, alternating_sum, sequence_tails
from .partitions import (
    Partition,
    StrictPartition,
    bg_rank,
    columns,
    conjugate,
    from_columns,
    partition_tuples,
    rank_staircase,
    strict_partition_tuples,
)

__all__ = [
    "InvalidSequence",
    "NotInDurfeeClass",
    "NotInSplitImage",
    "InternalInvariantViolation",
    "StaircaseSplit",
    "partition_from_sequence",
    "partition_from_sequence_by_filling",
    "sequence_from_partition",
    "durfee_class",
    "split_strict",
    "unsplit_strict",
    "is_valid_split",
    "rank_histogram",
    "count_strict_by_parts_rank_formula",
]


class InvalidSequence(ValueError):
    """Sequence unusable for the board filling: the empty one covers no board."""


class NotInDurfeeClass(ValueError):
    """Partition outside every class with the requested offset."""


class NotInSplitImage(ValueError):
    """Pair that no strict partition splits into."""


class InternalInvariantViolation(RuntimeError):
    """A structural guarantee failed; signals a bug, not bad input."""


def _pass_cells(d: ABSequence) -> list[int]:
    """Cells placed in block i by pass i: c_1 = d_1, c_i = d_i - c_{i-1}."""
    cells = []
    prev = 0
    for entry in d.entries:
        prev = entry - prev
        cells.append(prev)
    return cells


def partition_from_sequence(d: ABSequence) -> Partition:
    """Map a sequence to the partition it double-covers on the board of its offset ``d.a``.

    Row j of the result is the row block's cells plus the conjugate of the
    column blocks at j: one cell for every column block reaching row j.  The
    weight is exactly half the sequence weight.
    """
    if d.is_empty:
        raise InvalidSequence("the empty sequence covers no board")
    cells = _pass_cells(d)
    rows = cells[0::2]
    reach = conjugate(cells[1::2]) + (0,) * len(rows)
    parts = [row + h for row, h in zip(rows, reach)]
    while parts and parts[-1] == 0:
        parts.pop()
    return Partition(tuple(parts))


def _block_cells(a: int, i: int) -> list[tuple[int, int]]:
    """Cells of block i in fill order (row, column), both 1-based."""
    if i % 2:
        j = (i + 1) // 2
        return [(j, col) for col in range(1, a + j + 1)]
    half = i // 2
    return [(row, a + half + 1) for row in range(1, half + 1)]


def partition_from_sequence_by_filling(d: ABSequence) -> Partition:
    """Slow oracle: replay the literal filling and read the covered cells.

    Each pass doubles the previous block's singly covered cells (left to
    right along rows, top down along columns), then single-covers the front
    of its own block.  Raises if a pass cannot complete, any cell ends up
    singly covered, or the doubled region is not a left-justified diagram.
    """
    if d.is_empty:
        raise InvalidSequence("the empty sequence covers no board")
    cover: dict[tuple[int, int], int] = {}
    prev_single: list[tuple[int, int]] = []
    for i, entry in enumerate(d.entries, start=1):
        if entry < len(prev_single):
            raise InternalInvariantViolation(
                f"pass {i} cannot double the {len(prev_single)} cells left singly covered"
            )
        for cell in prev_single:
            cover[cell] = 2
        budget = entry - len(prev_single)
        block = _block_cells(d.a, i)
        if budget > len(block):
            raise InternalInvariantViolation(f"pass {i} overflows block {i}")
        prev_single = block[:budget]
        for cell in prev_single:
            if cell in cover:
                raise InternalInvariantViolation(f"cell {cell} covered twice by one pass")
            cover[cell] = 1
    if prev_single:
        raise InternalInvariantViolation("singly covered cells remain after the last pass")

    rows: dict[int, set[int]] = {}
    for (r, c), count in cover.items():
        if count == 2:
            rows.setdefault(r, set()).add(c)
    parts = []
    for r in range(1, max(rows) + 1 if rows else 1):
        cs = rows.get(r, set())
        if cs != set(range(1, len(cs) + 1)):
            raise InternalInvariantViolation(f"row {r} of the covered region is not left-justified")
        parts.append(len(cs))
    while parts and parts[-1] == 0:
        parts.pop()
    try:
        return Partition(tuple(parts))
    except ValueError as exc:
        raise InternalInvariantViolation("covered region is not a partition diagram") from exc


def sequence_from_partition(a: int, p: Partition) -> ABSequence:
    """Inverse of :func:`partition_from_sequence`.

    Lays the diagram of ``p`` over the board (top-left corners aligned),
    counts the cells confined to each block (the column blocks through the
    conjugate of ``p``), and rebuilds the entries as d_1 = c_1,
    d_i = c_{i-1} + c_i up to one block past the last nonempty one.
    Requires the largest part to exceed ``a``.  The offset is an argument, not
    read off ``p``, because ``p`` lies in one class for each offset below its
    largest part.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    if not p.parts or p.parts[0] <= a:
        raise NotInDurfeeClass(f"largest part must exceed {a}")
    conj = conjugate(p.parts)
    rows = [min(part, a + j) for j, part in enumerate(p.parts, start=1)]
    cols = [min(h, conj[a + h]) for h in range(1, len(conj) - a)]
    cells = [c for pair in zip_longest(rows, cols, fillvalue=0) for c in pair]
    # Every row block and every column block left of the last column is nonempty, so
    # the sums c_{i-1} + c_i are positive to one block past the last and zero after.
    entries = [e for e in map(add, [0, *cells], [*cells, 0]) if e]
    try:
        seq = ABSequence(tuple(entries))
    except InvalidABSequence as exc:
        raise NotInDurfeeClass(f"{p} does not lie over any offset-{a} board filling") from exc
    return seq


def durfee_class(parts: Sequence[int], a: int) -> int:
    """The b of the one class, indexed by (a, b), that the partition with these
    parts lies in, or 0 when its largest part is at most ``a``.

    With r the rows of the a-Durfee rectangle (the i with part_i >= a + i),
    the class is b = 2r - 1 when part r equals a + r, and b = 2r when it is
    longer.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    r = 0
    while r < len(parts) and parts[r] > a + r:
        r += 1
    if not r:
        return 0
    return 2 * r - 1 if parts[r - 1] == a + r else 2 * r


@dataclass(frozen=True)
class StaircaseSplit:
    """A staircase of ``height`` rows, weighing ``triangular`` cells, plus a sequence remnant."""

    height: int
    seq: ABSequence

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValueError("staircase height must be nonnegative")

    @property
    def triangular(self) -> int:
        return self.height * (self.height + 1) // 2

    def __str__(self) -> str:
        return f"({self.triangular},{self.seq})"


def split_strict(s: StrictPartition) -> StaircaseSplit:
    """Split a strict partition into a balanced staircase and a remnant.

    The staircase is the BG-rank staircase of :func:`rank_staircase`, the
    BG-rank being minus the alternating sum A of the column heights that
    :func:`columns` gives.  Their running alternating sums start 0, -1, 1,
    -2, 2, ..., so A is first attained at its height k, and the heights past
    k form a valid sequence.  Weight is preserved: |s| = triangular +
    remnant weight.
    """
    profile = columns(s)
    k = rank_staircase(-alternating_sum(profile))[0]
    if k > len(s.parts):
        raise InternalInvariantViolation(f"split point {k} exceeds the {len(s.parts)} rows of {s}")
    try:
        seq = ABSequence(profile[k:])
    except InvalidABSequence as exc:
        raise InternalInvariantViolation(f"columns of {s} past {k} are not a valid sequence") from exc
    return StaircaseSplit(k, seq)


def is_valid_split(img: StaircaseSplit) -> bool:
    """Whether some strict partition splits into this pair.

    True when the remnant is empty, opens exactly one step above the
    staircase (offset equal to the height), or opens at or below it with a
    length-1 staircase run.
    """
    if img.seq.is_empty:
        return True
    if img.seq.a == img.height:
        return True
    return img.seq.a <= img.height - 1 and img.seq.b == 1


def unsplit_strict(img: StaircaseSplit) -> StrictPartition:
    """Rebuild the strict partition from a valid split.

    Prepends columns of heights 1, 2, ..., height to the remnant's entries
    and reads the shifted diagram back off the combined heights with
    :func:`from_columns`, which checks them.
    """
    if not is_valid_split(img):
        raise NotInSplitImage(f"{img} is not the split of any strict partition")
    return from_columns(tuple(range(1, img.height + 1)) + img.seq.entries)


def rank_histogram(m: int, n: int) -> Counter:
    """BG-rank -> number of strict partitions of ``n`` with exactly ``m``
    parts, by exhaustive enumeration."""
    return Counter(bg_rank(t) for t in strict_partition_tuples(n, num_parts=m))


def count_strict_by_parts_rank_formula(k: int, m: int, n: int) -> int:
    """Strict partitions of ``n`` with exactly ``m`` parts and BG-rank ``k``,
    in closed form: ``rank_histogram(m, n)[k]`` is the enumerated count it
    must equal.

    A strict partition with BG-rank k splits off the staircase of
    :func:`rank_staircase`, so it has at least that many parts.  When m
    exceeds the height the leftovers form a sequence family cell; when m
    equals it they pair up, giving partitions of half the leftover weight
    with parts at most the height, so only the empty one at height 0.
    Out-of-range (k, m, n) combinations count zero: a weight below
    m(m+1)/2 leaves either a negative leftover or a cell with no sequences.
    """
    height, weight = rank_staircase(k)
    if m < height:
        return 0
    leftover = n - weight
    if leftover < 0 or leftover % 2:
        return 0
    half = leftover // 2
    if m == height:
        return sum(1 for _ in partition_tuples(half, max_part=height))
    return sum(1 for _ in sequence_tails(height, m - height, half))
