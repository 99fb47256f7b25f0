"""Integer partitions, strict partitions, and shifted-diagram statistics.

Everything here is exact integer arithmetic on immutable values.  The
enumerators are the brute-force oracles the verification sweeps lean on, so
they favour an obvious recursive structure over speed; at the weights this
package targets (well under 100) that is never a bottleneck.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "Partition",
    "StrictPartition",
    "ColumnSequence",
    "DurfeeRect",
    "MalformedColumns",
    "enumerate_partitions",
    "enumerate_strict_partitions",
    "partition_count",
    "bg_rank",
    "columns",
    "from_columns",
    "durfee_rectangle",
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

    def part(self, i: int) -> int:
        """1-based part access, 0 beyond the last part."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

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

    @property
    def num_parts(self) -> int:
        return len(self.parts)


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


@dataclass(frozen=True)
class DurfeeRect:
    """An i x (i+a) rectangle; rows == 0 encodes that none fits."""

    rows: int
    cols: int

    @property
    def present(self) -> bool:
        return self.rows > 0


def _descending(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in _descending(n - k, k):
            yield (k,) + rest


def enumerate_partitions(
    n: int,
    max_part: Optional[int] = None,
    parts_filter: str = "any",
) -> list[Partition]:
    """All partitions of ``n``, reverse-lexicographic on part tuples.

    ``max_part`` bounds the largest part.  ``parts_filter`` is ``"any"`` or
    ``"even-only"`` (keep partitions all of whose parts are even).  The order
    is fixed so emitted tables are byte-stable.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is not None and max_part < 1:
        raise ValueError("max_part must be positive")
    if parts_filter == "even-only":
        if n % 2:
            return []
        half = n // 2
        bound = half if max_part is None else min(max_part // 2, half)
        return [
            Partition(tuple(2 * p for p in t)) for t in _descending(half, bound)
        ]
    if parts_filter != "any":
        raise ValueError(f"unknown parts_filter {parts_filter!r}")
    bound = n if max_part is None else min(max_part, n)
    return [Partition(t) for t in _descending(n, bound)]


def _strict_descending(
    n: int, max_part: int, num_parts: Optional[int]
) -> Iterator[tuple[int, ...]]:
    if n == 0:
        if num_parts in (None, 0):
            yield ()
        return
    if num_parts == 0:
        return
    rest = None if num_parts is None else num_parts - 1
    for k in range(min(n, max_part), 0, -1):
        # distinct parts below k can carry at most k(k-1)/2 ...
        if n - k > k * (k - 1) // 2:
            continue
        # ... and rest parts need at least 1+2+...+rest
        if rest is not None and n - k < rest * (rest + 1) // 2:
            continue
        for tail in _strict_descending(n - k, k - 1, rest):
            yield (k,) + tail


def enumerate_strict_partitions(
    n: int, num_parts: Optional[int] = None
) -> list[StrictPartition]:
    """All strict partitions of ``n`` (optionally with exactly ``num_parts``
    parts), reverse-lexicographic on part tuples."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if num_parts is not None and num_parts < 0:
        raise ValueError("num_parts must be nonnegative")
    return [StrictPartition(t) for t in _strict_descending(n, n, num_parts)]


_count_cache = [1]
_count_lock = threading.Lock()


def partition_count(n: int) -> int:
    """Number of partitions of ``n`` (0 for negative ``n``).

    Uses the pentagonal-number recurrence with a grow-on-demand table; the
    enumerator above serves as its independent cross-check in the tests.
    """
    if n < 0:
        return 0
    with _count_lock:
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


def bg_rank(p: Partition) -> int:
    """Odd parts at odd (1-based) index minus odd parts at even index."""
    r = 0
    for i, part in enumerate(p.parts, start=1):
        if part % 2:
            r += 1 if i % 2 else -1
    return r


def columns(s: StrictPartition) -> ColumnSequence:
    """Column heights of the shifted diagram of ``s``.

    Row i of the shifted diagram is indented i-1 cells, so it occupies
    columns i through i + part - 1; column j then collects every row
    straddling it.
    """
    width = s.parts[0] if s.parts else 0
    heights = []
    for j in range(1, width + 1):
        h = 0
        for i, part in enumerate(s.parts, start=1):
            if i <= j <= i + part - 1:
                h += 1
        heights.append(h)
    return ColumnSequence(tuple(heights))


def from_columns(c: ColumnSequence) -> StrictPartition:
    """The unique strict partition whose shifted diagram has profile ``c``.

    Row i of the rebuilt diagram covers column j exactly when j >= i and
    the column is at least i cells tall; counting those columns recovers
    the part.  Round-trips with :func:`columns`.
    """
    m = c.staircase_height
    parts = tuple(
        sum(1 for j in range(i - 1, len(c.cols)) if c.cols[j] >= i)
        for i in range(1, m + 1)
    )
    return StrictPartition(parts)


def durfee_rectangle(p: Partition, a: int) -> DurfeeRect:
    """Largest i x (i+a) rectangle inside the diagram of ``p``.

    ``rows == 0`` (with ``cols == a``) means no such rectangle fits, which
    happens exactly when the largest part is at most ``a``.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    rows = 0
    for i, part in enumerate(p.parts, start=1):
        if part < i + a:
            break
        rows = i
    return DurfeeRect(rows, rows + a if rows else a)
