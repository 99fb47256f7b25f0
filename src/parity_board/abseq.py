"""Staircase-prefixed sequences with vanishing alternating sum.

An ``ABSequence`` opens with the staircase a+1, a+2, ..., a+b, decreases
weakly afterwards, and its entries cancel under alternating signs.  The
parameters (a, b) are never supplied; they are derived from the entries and
the derivation is unique, because an entry extending the staircase would
have to exceed its predecessor.  The two lemmas these sequences satisfy,
on the signs of the running alternating sums and on the pairing of the
entries past a zero running sum, are stated in ``tests/test_abseq.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

__all__ = [
    "ABSequence",
    "alternating_sum",
    "InvalidABSequence",
    "enumerate_sequences",
    "sequence_tails",
]


class InvalidABSequence(ValueError):
    """Entry list that fails a structural condition, which the message names."""


def alternating_sum(xs: Sequence[int]) -> int:
    """-x_1 + x_2 - x_3 + ..., the sum that vanishes on every sequence."""
    return sum(xs[1::2]) - sum(xs[0::2])


@dataclass(frozen=True)
class ABSequence:
    """Validated sequence d_1..d_l; the empty sequence has a = b = 0.

    Construction derives a = d_1 - 1 and b = length of the maximal initial
    run with d_i = a + i, then checks weak decrease past the run and that
    the alternating sum -d_1 + d_2 - d_3 + ... vanishes (which forces the
    weight to be even).
    """

    entries: tuple[int, ...]
    a: int = field(init=False)
    b: int = field(init=False)

    def __post_init__(self) -> None:
        entries = self.entries
        for d in entries:
            if d < 1:
                raise InvalidABSequence(f"entries must be positive, got {d}")
        if not entries:
            a = b = 0
        else:
            a = entries[0] - 1
            b = 1
            while b < len(entries) and entries[b] == a + b + 1:
                b += 1
            for i in range(b - 1, len(entries) - 1):
                if entries[i] < entries[i + 1]:
                    raise InvalidABSequence(
                        f"entry {entries[i + 1]} at index {i + 2} exceeds {entries[i]}"
                    )
            alt = alternating_sum(entries)
            if alt != 0:
                raise InvalidABSequence(f"alternating sum is {alt}, not 0")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def weight(self) -> int:
        return sum(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.entries)) + "}"


def _tails(bound: int, rest: int, u: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing tails with entries at most ``bound`` and sum ``rest``
    that bring the running alternating sum to 0, in descending lex order.

    ``u`` is the running sum times the sign of the next position, and the
    caller has checked the prune rule of :func:`enumerate_sequences` for it.
    Placing v turns (bound, rest, u) into (v, rest - v, -u - v); the rule holds
    there exactly when max(1, -u) <= v <= min(bound, (rest - u) / 2), so the
    search descends greedily by the largest such v, lowers the deepest entry
    that stays in its range, and never enters a prefix that cannot complete.
    """
    tail: list[int] = []
    # plain comparisons and one assignment per name: min(), max() and tuple
    # packing cost more than the rest of this loop
    while True:
        while rest:
            v = (rest - u) // 2
            if v > bound:
                v = bound
            tail.append(v)
            bound = v
            rest -= v
            u = -u - v
        yield tuple(tail)
        while True:
            if not tail:
                return
            v = tail.pop()
            rest += v
            u = -u - v
            if v > 1 and v > -u:  # v - 1 >= max(1, -u)
                break
        v -= 1
        tail.append(v)
        bound = v
        rest -= v
        u = -u - v


def sequence_tails(a: int, b: int, half_weight: int) -> Iterator[tuple[int, ...]]:
    """The entries past the staircase of each sequence of
    :func:`enumerate_sequences`, lazily and in the same order, without
    building objects; the arguments are checked at the call.  A staircase of
    length 0 opens only the empty sequence, whose offset is 0, so the cell
    b = 0 holds the empty tail when a = half_weight = 0 and nothing else."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    if b < 0:
        raise ValueError("b must be nonnegative")
    if half_weight < 0:
        raise ValueError("half_weight must be nonnegative")
    prefix = range(a + 1, a + b + 1)
    rest = 2 * half_weight - sum(prefix)
    # position b + 1 enters the alternating sum with sign + when it is even
    u = alternating_sum(prefix) if b % 2 else -alternating_sum(prefix)
    if rest < 0 or u > 0 or -u > min(a + b, rest) or (rest - u) % 2 or (not b and (a or rest)):
        return iter(())
    return _tails(a + b, rest, u)


def enumerate_sequences(a: int, b: int, half_weight: int) -> list[ABSequence]:
    """All sequences with parameters (a, b) and weight ``2 * half_weight``;
    b = 0 is the cell of the empty sequence, as in :func:`sequence_tails`.

    The staircase prefix is fixed; tails are generated in descending
    lexicographic order, so the output order is deterministic.

    Prune rule: a weakly decreasing tail t_1 >= t_2 >= ... with signs s, -s,
    s, ... adds s*T to the running alternating sum, where
    T = t_1 - t_2 + t_3 - ... satisfies 0 <= T <= t_1 <= min(bound, rest)
    and T = rest (mod 2), rest being the weight still to place.  A prefix
    admitting no such T that cancels the running sum is abandoned; every
    prefix admitting one completes (take T, then pairs of ones), so the
    rule cuts exactly the empty subtrees and leaves the order unchanged.
    """
    prefix = tuple(range(a + 1, a + b + 1))
    return [ABSequence(prefix + tail) for tail in sequence_tails(a, b, half_weight)]

