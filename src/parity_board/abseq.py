"""Staircase-prefixed sequences with vanishing alternating sum.

An ``ABSequence`` opens with the staircase a+1, a+2, ..., a+b, decreases
weakly afterwards, and its entries cancel under alternating signs.  The
parameters (a, b) are never supplied; they are derived from the entries and
the derivation is unique, because an entry extending the staircase would
have to exceed its predecessor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

__all__ = [
    "ABSequence",
    "alternating_sum",
    "EMPTY_SEQUENCE",
    "InvalidABSequence",
    "NonPositiveEntry",
    "NotWeaklyDecreasing",
    "NonzeroAlternatingSum",
    "PreconditionViolated",
    "validate",
    "enumerate_sequences",
    "sequence_tails",
    "check_prefix_sign_property",
    "check_pairing_property",
]


class InvalidABSequence(ValueError):
    """Entry list that fails one of the three structural conditions."""


class NonPositiveEntry(InvalidABSequence):
    pass


class NotWeaklyDecreasing(InvalidABSequence):
    pass


class NonzeroAlternatingSum(InvalidABSequence):
    pass


class PreconditionViolated(ValueError):
    """A property checker was called outside its stated domain."""


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
                raise NonPositiveEntry(f"entries must be positive, got {d}")
        if not entries:
            a = b = 0
        else:
            a = entries[0] - 1
            b = 1
            while b < len(entries) and entries[b] == a + b + 1:
                b += 1
            for i in range(b - 1, len(entries) - 1):
                if entries[i] < entries[i + 1]:
                    raise NotWeaklyDecreasing(
                        f"entry {entries[i + 1]} at index {i + 2} exceeds {entries[i]}"
                    )
            alt = alternating_sum(entries)
            if alt != 0:
                raise NonzeroAlternatingSum(f"alternating sum is {alt}, not 0")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def weight(self) -> int:
        return sum(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def prefix_alt_sums(self) -> tuple[int, ...]:
        """Running sums S_0 = 0, S_1 = -d_1, S_2 = -d_1 + d_2, ..., S_l."""
        sums = [0]
        for i, d in enumerate(self.entries):
            sums.append(sums[-1] + (d if i % 2 else -d))
        return tuple(sums)

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.entries)) + "}"


EMPTY_SEQUENCE = ABSequence(())


def validate(raw: Iterable[int]) -> ABSequence:
    """Validate an entry list, deriving (a, b); the empty list is allowed."""
    return ABSequence(tuple(raw))


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
    building objects; the arguments are checked at the call."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    if b < 1:
        raise ValueError("b must be positive")
    if half_weight < 0:
        raise ValueError("half_weight must be nonnegative")
    prefix = range(a + 1, a + b + 1)
    rest = 2 * half_weight - sum(prefix)
    # position b + 1 enters the alternating sum with sign + when it is even
    u = alternating_sum(prefix) if b % 2 else -alternating_sum(prefix)
    if rest < 0 or u > 0 or -u > min(a + b, rest) or (rest - u) % 2:
        return iter(())
    return _tails(a + b, rest, u)


def enumerate_sequences(a: int, b: int, half_weight: int) -> list[ABSequence]:
    """All sequences with parameters (a, b) and weight ``2 * half_weight``.

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


def check_prefix_sign_property(d: ABSequence) -> bool:
    """No two consecutive running alternating sums are strictly same-signed."""
    sums = d.prefix_alt_sums()
    return not any(sums[m] * sums[m + 1] > 0 for m in range(1, len(d)))


def check_pairing_property(d: ABSequence, n: int) -> bool:
    """Once the first ``n`` entries cancel, the rest pair up as equal couples.

    Requires ``n >= b - 1`` and a vanishing n-th running alternating sum;
    anything else raises :class:`PreconditionViolated`.  Returns True when
    ``n`` has the parity of the length and entries n+1..l form equal adjacent
    pairs (weak decrease between pairs already holds by construction).
    """
    if n < d.b - 1 or n > len(d):
        raise PreconditionViolated(f"n={n} outside [b-1, l] = [{d.b - 1}, {len(d)}]")
    if d.prefix_alt_sums()[n] != 0:
        raise PreconditionViolated(f"running alternating sum at {n} is nonzero")
    if (len(d) - n) % 2:
        return False
    return all(d.entries[i] == d.entries[i + 1] for i in range(n, len(d) - 1, 2))
