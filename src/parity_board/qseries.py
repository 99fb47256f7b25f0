"""Exact truncated power series over the integers and counting functions.

Coefficients are plain Python integers, so arithmetic is exact at any size
and overflow cannot occur; every operation truncates at the shared order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import partition_count

__all__ = [
    "TruncatedSeries",
    "NonUnitConstantTerm",
    "pochhammer_q",
    "CoeffTable",
    "gf_coefficients",
    "strict_count_by_rank",
    "strict_rank_gf",
]


class NonUnitConstantTerm(ValueError):
    """Reciprocal requested for a series whose constant term is not +-1."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer coefficients of q^0 .. q^N, N = len(coeffs) - 1."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series stores at least the constant term")

    @property
    def trunc_order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, trunc_order: int) -> "TruncatedSeries":
        return cls((0,) * (trunc_order + 1))

    @classmethod
    def one(cls, trunc_order: int) -> "TruncatedSeries":
        return cls((1,) + (0,) * trunc_order)

    @classmethod
    def monomial(cls, trunc_order: int, power: int, coeff: int = 1) -> "TruncatedSeries":
        """``coeff * q**power`` truncated; the zero series if power > order."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        c = [0] * (trunc_order + 1)
        if power <= trunc_order:
            c[power] = coeff
        return cls(tuple(c))

    def _same_order(self, other: "TruncatedSeries") -> None:
        if self.trunc_order != other.trunc_order:
            raise ValueError(
                f"truncation orders differ: {self.trunc_order} vs {other.trunc_order}"
            )

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._same_order(other)
        return TruncatedSeries(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._same_order(other)
        return TruncatedSeries(tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-x for x in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._same_order(other)
        n = self.trunc_order
        out = [0] * (n + 1)
        for i, x in enumerate(self.coeffs):
            if x == 0:
                continue
            for j in range(n + 1 - i):
                y = other.coeffs[j]
                if y:
                    out[i + j] += x * y
        return TruncatedSeries(tuple(out))

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires constant term +1 or -1."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise NonUnitConstantTerm(f"constant term {c0} is not invertible over the integers")
        n = self.trunc_order
        out = [0] * (n + 1)
        out[0] = c0
        for m in range(1, n + 1):
            acc = sum(self.coeffs[k] * out[m - k] for k in range(1, m + 1))
            out[m] = -c0 * acc
        return TruncatedSeries(tuple(out))

    def __str__(self) -> str:
        terms = [f"{c}*q^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def pochhammer_q(k: int, trunc_order: int) -> TruncatedSeries:
    """The finite product (1 - q)(1 - q^2) ... (1 - q^k), truncated."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = TruncatedSeries.one(trunc_order)
    for i in range(1, min(k, trunc_order) + 1):
        out = out * (TruncatedSeries.one(trunc_order) - TruncatedSeries.monomial(trunc_order, i))
    return out


@dataclass(frozen=True)
class CoeffTable:
    """Sequence counts by (offset a, run length b, half-weight n).

    ``entries`` stores the nonzero cells; :meth:`entry` reads any in-range
    cell.  Cell (0, 0, 0) holds the lone empty sequence.
    """

    max_a: int
    max_b: int
    trunc_order: int
    entries: dict[tuple[int, int, int], int]

    def entry(self, a: int, b: int, n: int) -> int:
        if not (0 <= a <= self.max_a and 0 <= b <= self.max_b and 0 <= n <= self.trunc_order):
            raise IndexError(f"cell ({a}, {b}, {n}) outside the stored ranges")
        return self.entries.get((a, b, n), 0)

    def cells(self):
        """Yield ((a, b, n), value) over all in-range cells, ascending."""
        for a in range(self.max_a + 1):
            for b in range(self.max_b + 1):
                for n in range(self.trunc_order + 1):
                    yield (a, b, n), self.entries.get((a, b, n), 0)


def gf_coefficients(max_a: int, max_b: int, trunc_order: int) -> CoeffTable:
    """Expand the closed-form generating function into a coefficient table.

    For offset a and staircase half-height h >= 1 the closed form contributes
    the two slices b = 2h-1 and b = 2h.  Both share the product of the
    reciprocals of the Pochhammer factors of orders h and a+h; the odd slice
    is that product shifted by h(a+h) and multiplied by (1 - q^h), the even
    slice is shifted by h(a+h) + h.  Cell (0, 0, 0) gets the constant 1.
    """
    if max_a < 0 or max_b < 0 or trunc_order < 0:
        raise ValueError("bounds must be nonnegative")
    entries: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    recip: dict[int, TruncatedSeries] = {}

    def recip_pochhammer(k: int) -> TruncatedSeries:
        if k not in recip:
            recip[k] = pochhammer_q(k, trunc_order).reciprocal()
        return recip[k]

    def accumulate(a: int, b: int, series: TruncatedSeries) -> None:
        for n, coeff in enumerate(series.coeffs):
            if coeff:
                entries[(a, b, n)] = entries.get((a, b, n), 0) + coeff

    one = TruncatedSeries.one(trunc_order)
    for a in range(max_a + 1):
        h = 1
        while h * (a + h) <= trunc_order and 2 * h - 1 <= max_b:
            shared = recip_pochhammer(h) * recip_pochhammer(a + h)
            base = TruncatedSeries.monomial(trunc_order, h * (a + h))
            odd = base * (one - TruncatedSeries.monomial(trunc_order, h)) * shared
            accumulate(a, 2 * h - 1, odd)
            if 2 * h <= max_b:
                even = base * TruncatedSeries.monomial(trunc_order, h) * shared
                accumulate(a, 2 * h, even)
            h += 1
    return CoeffTable(max_a, max_b, trunc_order, entries)


def strict_count_by_rank(rank: int, n: int) -> int:
    """Strict partitions of ``n`` with the given BG-rank, in closed form.

    The staircase carrying the rank weighs rank*(2*rank - 1); what remains
    must split evenly into an even-part partition, counted by the ordinary
    partition function at half the leftover weight.
    """
    leftover = n - rank * (2 * rank - 1)
    if leftover < 0 or leftover % 2:
        return 0
    return partition_count(leftover // 2)


def strict_rank_gf(rank: int, trunc_order: int) -> TruncatedSeries:
    """Weight generating function for strict partitions of a fixed BG-rank.

    Equals q^(rank*(2*rank - 1)) over the product of (1 - q^(2i)); factors
    with 2i beyond the truncation order cannot contribute and are dropped.
    Returns the zero series when the staircase alone exceeds the order.
    """
    shift = rank * (2 * rank - 1)
    if shift > trunc_order:
        return TruncatedSeries.zero(trunc_order)
    prod = TruncatedSeries.one(trunc_order)
    for i in range(1, trunc_order // 2 + 1):
        prod = prod * (
            TruncatedSeries.one(trunc_order) - TruncatedSeries.monomial(trunc_order, 2 * i)
        )
    return TruncatedSeries.monomial(trunc_order, shift) * prod.reciprocal()
