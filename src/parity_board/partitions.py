"""Integer partitions, strict partitions, and shifted-diagram statistics.

Everything here is exact integer arithmetic on immutable values.  The
enumerators are the brute-force oracles the verification sweeps lean on, and
at the larger sweep bounds they take most of the time, so they are lazy
generators of part tuples with constant amortized work per partition.
Callers that only count consume the tuples (``partition_tuples``,
``strict_partition_tuples``); ``enumerate_*`` wraps the same tuples, in the
same order, in validated objects, except that the even-only partitions are
those of half the weight with every part doubled.  The tests hold both
generators to the plain recursive definitions they replace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

__all__ = [
    "Partition",
    "StrictPartition",
    "ColumnSequence",
    "MalformedColumns",
    "enumerate_partitions",
    "enumerate_strict_partitions",
    "partition_tuples",
    "strict_partition_tuples",
    "partition_count",
    "bg_rank",
    "rank_staircase",
    "conjugate",
    "columns",
    "from_columns",
]


class MalformedColumns(ValueError):
    """Column profile that does not describe a shifted diagram."""


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; ``Partition(())`` is empty."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, p in enumerate(self.parts):
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if i and self.parts[i - 1] < p:
                raise ValueError("parts must be weakly decreasing")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "+".join(map(str, self.parts)) if self.parts else "0"


class StrictPartition(Partition):
    """Partition with pairwise distinct parts."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for i in range(1, len(self.parts)):
            if self.parts[i - 1] <= self.parts[i]:
                raise ValueError("parts must be strictly decreasing")


@dataclass(frozen=True)
class ColumnSequence:
    """Column heights of a shifted diagram, read left to right.

    A valid profile is a staircase prefix 1, 2, ..., m followed by a weakly
    decreasing positive tail; the tail is automatically bounded by m.
    """

    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        cols = self.cols
        for c in cols:
            if c < 1:
                raise MalformedColumns(f"column heights must be positive, got {c}")
        m = self.staircase_height
        if cols and m == 0:
            raise MalformedColumns("first column height must be 1")
        for i in range(m - 1, len(cols) - 1):
            if cols[i] < cols[i + 1]:
                raise MalformedColumns("columns past the staircase must be weakly decreasing")

    @property
    def staircase_height(self) -> int:
        """Length m of the maximal staircase prefix 1, 2, ..., m."""
        m = 0
        while m < len(self.cols) and self.cols[m] == m + 1:
            m += 1
        return m

    def __len__(self) -> int:
        return len(self.cols)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.cols)) + "}"


def _descending(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``n`` with parts at most ``max_part``, reverse-lexicographic.

    Algorithm ZS1 of Zoghbi and Stojmenovic (1998), started at the first
    partition in that order, ``(k,) * q + (r,)`` with k = min(n, max_part).
    ``x[:m]`` is the current partition, every entry past index ``h`` is 1, and
    each step lowers ``x[h]`` by one and refills greedily with parts no
    larger, so the work per partition is constant amortized.  A bound of 0
    leaves only the empty partition of 0.
    """
    if n == 0:
        yield ()
        return
    k = min(n, max_part)
    if k < 1:
        return
    q, r = divmod(n, k)
    x = [k] * q + [1] * (n - q)
    if r:
        x[q] = r
    m = q + (1 if r else 0)
    h = q if r > 1 else (q - 1 if k > 1 else -1)
    yield tuple(x[:m])
    while h >= 0:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def partition_tuples(n: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """The part tuples of :func:`enumerate_partitions` without ``even_only``,
    lazily and in the same order, without building objects; the arguments
    are checked at the call."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is not None and max_part < 0:
        raise ValueError("max_part must be nonnegative")
    return _descending(n, n if max_part is None else max_part)


def enumerate_partitions(
    n: int,
    max_part: Optional[int] = None,
    even_only: bool = False,
) -> list[Partition]:
    """All partitions of ``n``, reverse-lexicographic on part tuples.

    ``max_part`` bounds the largest part.  With ``even_only``, only the
    partitions all of whose parts are even: the partitions of n/2 with parts
    at most max_part/2, every part doubled, which keeps the order, and none
    for odd ``n``.  The order is fixed so emitted tables are byte-stable.
    """
    if not even_only:
        return [Partition(t) for t in partition_tuples(n, max_part)]
    halves = partition_tuples(n // 2, None if max_part is None else max_part // 2)
    return [] if n % 2 else [Partition(tuple([2 * p for p in t])) for t in halves]


def _strict_descending(n: int, num_parts: Optional[int]) -> Iterator[tuple[int, ...]]:
    """Strict partitions of ``n`` with, unless ``num_parts`` is None, exactly
    that many parts; reverse-lexicographic.

    Depth-first search on an explicit stack that enters only prefixes which
    complete.  A part k followed by ``after`` more parts leaves n' = rest - k
    to parts distinct and below k, so n' is at most k(k-1)/2, or
    after*k - after(after+1)/2 with ``after`` fixed, and at least
    after(after+1)/2.  The first candidate at each depth is the largest k
    meeting the lower bound; the upper bound only tightens as k falls, so
    the first candidate that misses it ends the depth.
    """
    if n == 0:
        if num_parts in (None, 0):
            yield ()
        return
    parts: list[int] = []
    rest = n  # weight not yet placed
    k = n if num_parts is None else n - num_parts * (num_parts - 1) // 2  # candidate for the next part
    while True:
        if num_parts is None:
            room = k * (k - 1) // 2
        else:
            after = num_parts - len(parts) - 1
            room = after * k - after * (after + 1) // 2
        if k >= 1 and rest - k <= room:
            # place k, then descend greedily: every candidate on the way fits
            while True:
                parts.append(k)
                rest -= k
                if not rest:
                    break
                k -= 1
                if num_parts is None:
                    top = rest
                else:
                    after = num_parts - len(parts) - 1
                    top = rest - after * (after + 1) // 2
                if k > top:
                    k = top
            yield tuple(parts)
        # lower the last placed part: after a yield to try the next candidate
        # at its depth, after a miss because no smaller candidate fits either
        if not parts:
            return
        k = parts.pop()
        rest += k
        k -= 1


def strict_partition_tuples(n: int, num_parts: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """The part tuples of :func:`enumerate_strict_partitions`, lazily and in
    the same order, without building objects; the arguments are checked at
    the call."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if num_parts is not None and num_parts < 0:
        raise ValueError("num_parts must be nonnegative")
    return _strict_descending(n, num_parts)


def enumerate_strict_partitions(
    n: int, num_parts: Optional[int] = None
) -> list[StrictPartition]:
    """All strict partitions of ``n`` (optionally with exactly ``num_parts``
    parts), reverse-lexicographic on part tuples."""
    return [StrictPartition(t) for t in strict_partition_tuples(n, num_parts)]


_count_cache = [1]


def partition_count(n: int) -> int:
    """Number of partitions of ``n`` (0 for negative ``n``).

    Uses the pentagonal-number recurrence with a grow-on-demand table; the
    enumerator above serves as its independent cross-check in the tests.
    """
    if n < 0:
        return 0
    while len(_count_cache) <= n:
        m = len(_count_cache)
        total = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * _count_cache[m - g]
            g += k  # second pentagonal number k(3k+1)/2
            if g <= m:
                total += sign * _count_cache[m - g]
            k += 1
        _count_cache.append(total)
    return _count_cache[n]


def bg_rank(parts: tuple[int, ...]) -> int:
    """Odd parts at odd (1-based) index minus odd parts at even index."""
    return sum(x & 1 for x in parts[0::2]) - sum(x & 1 for x in parts[1::2])


def rank_staircase(rank: int) -> tuple[int, int]:
    """Height and weight of the staircase that a strict partition of BG-rank
    ``rank`` splits off: 2*rank - 1 rows for a positive rank, -2*rank
    otherwise, weighing the triangular number of the height, rank*(2*rank - 1)."""
    height = 2 * rank - 1 if rank > 0 else -2 * rank
    return height, height * (height + 1) // 2


def conjugate(parts: Sequence[int]) -> tuple[int, ...]:
    """For j = 1 .. max(parts), how many of ``parts`` are at least j: the
    conjugate of a partition.  The parts may come in any order, and a part
    below 1 reaches no column; a tally of where each part ends and a suffix
    sum make it O(len(parts) + max(parts))."""
    ends = [0] * max(parts, default=0)
    for part in parts:
        if part > 0:
            ends[part - 1] += 1
    for j in reversed(range(len(ends) - 1)):
        ends[j] += ends[j + 1]
    return tuple(ends)


def columns(s: StrictPartition) -> ColumnSequence:
    """Column heights of the shifted diagram of ``s``.

    Row i of the shifted diagram is indented i-1 cells, so it occupies
    columns i through part_i + i - 1.  Those ends weakly decrease, so
    column j holds rows 1 .. min(j, the j-th entry of conjugate(ends)).
    """
    reach = conjugate([part + i for i, part in enumerate(s.parts)])
    # from a list: a tuple made from an iterator is over-allocated, and the sweeps keep many
    return ColumnSequence(tuple([min(j, r) for j, r in enumerate(reach, start=1)]))


def from_columns(c: ColumnSequence) -> StrictPartition:
    """The unique strict partition whose shifted diagram has profile ``c``.

    Staircase columns j < i are too short for row i, and no later column
    outgrows the staircase, so the parts are the conjugate of the profile.
    Round-trips with :func:`columns`.
    """
    return StrictPartition(conjugate(c.cols))
