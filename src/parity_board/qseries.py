"""Counting functions read off exact truncated power series.

A series truncated at q^N is a list of its N + 1 coefficients, plain Python
integers, so arithmetic is exact at any size.  The sequence generating
function is built only from factors 1/(1 - q^e), so dividing a list by
(1 - q^e) in place is the one series operation the module needs.
"""

from __future__ import annotations

from .partitions import partition_count, rank_staircase

__all__ = [
    "gf_coefficients",
    "strict_count_by_rank",
]


def _divide(c: list[int], e: int) -> None:
    """Divide the series ``c`` by (1 - q^e) in place, truncated at its length."""
    for n in range(e, len(c)):
        c[n] += c[n - e]


def gf_coefficients(max_a: int, max_b: int, trunc_order: int) -> dict[tuple[int, int, int], int]:
    """Expand the closed-form generating function into the sequence counts
    by (offset a, run length b, half-weight n): a dict of the nonzero cells,
    in ascending (a, b, n) order, the order they are inserted.  Every other
    cell within the bounds counts 0.

    For offset a and staircase half-height h >= 1 the closed form contributes
    the two slices b = 2h-1 and b = 2h.  Both read the series
    s = 1/((q;q)_h (q;q)_{a+h}): the odd slice is s shifted by h(a+h) and
    multiplied by (1 - q^h), the even slice is s shifted by h(a+h) + h.
    Stepping h to h+1 divides s by (1 - q^(h+1))(1 - q^(a+h+1)).  Cell
    (0, 0, 0) gets the constant 1, the lone empty sequence.
    """
    if max_a < 0 or max_b < 0 or trunc_order < 0:
        raise ValueError("bounds must be nonnegative")
    entries: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    for a in range(max_a + 1):
        s = [1] + [0] * trunc_order
        for i in range(1, a + 1):
            _divide(s, i)
        h = 1
        while h * (a + h) <= trunc_order and 2 * h - 1 <= max_b:
            _divide(s, h)
            _divide(s, a + h)
            base = h * (a + h)
            for m in range(trunc_order + 1 - base):
                odd = s[m] - s[m - h] if m >= h else s[m]
                if odd:
                    entries[(a, 2 * h - 1, base + m)] = odd
            if 2 * h <= max_b:
                for m in range(trunc_order + 1 - base - h):
                    if s[m]:
                        entries[(a, 2 * h, base + h + m)] = s[m]
            h += 1
    return entries


def strict_count_by_rank(rank: int, n: int) -> int:
    """Strict partitions of ``n`` with the given BG-rank, in closed form.

    What remains past the staircase carrying the rank (:func:`rank_staircase`)
    must split evenly into an even-part partition, counted by the ordinary
    partition function at half the leftover weight.
    """
    leftover = n - rank_staircase(rank)[1]
    if leftover < 0 or leftover % 2:
        return 0
    return partition_count(leftover // 2)
