"""The four diagram maps against the counts they replace, ``conjugate``, and
the Durfee class key against the membership test it replaces.

``columns``, ``from_columns``, ``partition_from_sequence`` and
``sequence_from_partition`` all read a diagram column by column through
``conjugate``.  The references below are their earlier forms, which count
each column cell by cell: obviously correct and quadratic.  Each map must
give the identical result, or raise the identical exception.

``durfee_class`` names the one class a partition lies in; its references are
the earlier a-Durfee rectangle and the yes/no test of one (a, b) class.
"""

import itertools
import random
from collections import namedtuple

import pytest

from parity_board.abseq import ABSequence, InvalidABSequence, enumerate_sequences
from parity_board.bijections import (
    InvalidSequence,
    NotInDurfeeClass,
    _pass_cells,
    durfee_class,
    partition_from_sequence,
    sequence_from_partition,
)
from parity_board.partitions import (
    MalformedColumns,
    Partition,
    StrictPartition,
    columns,
    conjugate,
    from_columns,
    partition_tuples,
    strict_partition_tuples,
)


def reference_columns(s):
    width = s.parts[0] if s.parts else 0
    heights = []
    for j in range(1, width + 1):
        h = 0
        for i, part in enumerate(s.parts, start=1):
            if i <= j <= i + part - 1:
                h += 1
        heights.append(h)
    return tuple(heights)


def reference_from_columns(cols):
    m = 0
    while m < len(cols) and cols[m] == m + 1:
        m += 1
    parts = tuple(
        sum(1 for j in range(i - 1, len(cols)) if cols[j] >= i)
        for i in range(1, m + 1)
    )
    return StrictPartition(parts)


def reference_partition_from_sequence(a, d):
    if d.is_empty:
        raise InvalidSequence("the empty sequence covers no board")
    if d.a != a:
        raise InvalidSequence(f"sequence has offset {d.a}, expected {a}")
    cells = _pass_cells(d)
    col_heights = cells[1::2]
    parts = []
    for j in range(1, (len(cells) + 1) // 2 + 1):
        parts.append(cells[2 * j - 2] + sum(1 for h in col_heights if h >= j))
    while parts and parts[-1] == 0:
        parts.pop()
    return Partition(tuple(parts))


def reference_sequence_from_partition(a, p):
    if a < 0:
        raise ValueError("a must be nonnegative")
    if not p.parts or p.parts[0] <= a:
        raise NotInDurfeeClass(f"largest part must exceed {a}")
    num_rows = len(p.parts)
    width = p.parts[0]
    max_block = max(2 * num_rows - 1, 2 * (width - a - 1))
    rows = p.parts + (0,) * max_block  # row j is rows[j - 1], 0 past the last part
    confined = []
    for i in range(1, max_block + 1):
        if i % 2:
            j = (i + 1) // 2
            confined.append(min(rows[j - 1], a + j))
        else:
            half = i // 2
            col = a + half + 1
            confined.append(sum(1 for row in range(1, half + 1) if rows[row - 1] >= col))
    confined.append(0)
    last = max(i for i, c in enumerate(confined, start=1) if c > 0)
    entries = [confined[0]]
    entries.extend(confined[i - 1] + confined[i] for i in range(1, last + 1))
    try:
        seq = ABSequence(tuple(entries))
    except InvalidABSequence as exc:
        raise NotInDurfeeClass(f"{p} does not lie over any offset-{a} board filling") from exc
    if seq.a != a:
        raise NotInDurfeeClass(f"rebuilt sequence has offset {seq.a}, expected {a}")
    return seq


DurfeeRect = namedtuple("DurfeeRect", "rows cols")


def reference_durfee_rectangle(p, a):
    if a < 0:
        raise ValueError("a must be nonnegative")
    rows = 0
    for i, part in enumerate(p.parts, start=1):
        if part < i + a:
            break
        rows = i
    return DurfeeRect(rows, rows + a if rows else a)


def reference_in_durfee_class(p, a, b):
    if a < 0:
        raise ValueError("a must be nonnegative")
    if b < 1:
        raise ValueError("b must be positive")
    depth = (b + 1) // 2
    if reference_durfee_rectangle(p, a).rows != depth:
        return False
    if b % 2 == 0:
        return p.parts[depth - 1] > a + depth
    return p.parts[depth - 1] == a + depth


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message of the
    ``ValueError`` (every refusal of these maps is one) that it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", range(31))
def test_columns_and_from_columns_match_reference(n):
    for t in strict_partition_tuples(n):
        s = StrictPartition(t)
        profile = columns(s)
        assert profile == reference_columns(s)
        assert from_columns(profile) == reference_from_columns(profile) == s


def test_from_columns_accepts_exactly_the_shifted_profiles():
    """Of every tuple of at most 7 heights in 0..4, ``from_columns`` accepts
    exactly the profiles of strict partitions and inverts each; all others
    raise.  Those profiles are the 99 subsets of {1, ..., 7} with at most 4
    parts, all of weight at most 22, so weight 28 covers them."""
    profiles = {
        reference_columns(StrictPartition(t)) for n in range(29) for t in strict_partition_tuples(n)
    }
    accepted = set()
    for length in range(8):
        for cols in itertools.product(range(5), repeat=length):
            if cols in profiles:
                assert columns(from_columns(cols)) == cols
                accepted.add(cols)
            else:
                with pytest.raises(MalformedColumns):
                    from_columns(cols)
    assert len(accepted) == 99


@pytest.mark.parametrize("a", range(6))
def test_partition_from_sequence_matches_reference(a):
    for b in range(1, 8):
        for half_weight in range(21):
            for seq in enumerate_sequences(a, b, half_weight):
                assert partition_from_sequence(seq) == reference_partition_from_sequence(a, seq)


@pytest.mark.parametrize("n", range(26))
def test_sequence_from_partition_matches_reference(n):
    for t in partition_tuples(n):
        p = Partition(t)
        for a in range(7):
            want = _outcome(reference_sequence_from_partition, a, p)
            assert _outcome(sequence_from_partition, a, p) == want


@pytest.mark.parametrize("n", range(21))
def test_conjugate_is_an_involution(n):
    for t in partition_tuples(n):
        assert conjugate(conjugate(t)) == t


def test_conjugate_ignores_order():
    rng = random.Random(0)
    for n in range(21):
        for t in partition_tuples(n):
            shuffled = list(t)
            rng.shuffle(shuffled)
            assert conjugate(shuffled) == conjugate(t)


def test_conjugate_edges():
    assert conjugate(()) == ()
    assert conjugate((0, 0)) == ()
    assert conjugate((3, 0, -2, 1)) == (2, 1, 1)


@pytest.mark.parametrize("n", range(26))
def test_durfee_class_matches_reference(n):
    for t in partition_tuples(n):
        p = Partition(t)
        for a in range(8):
            b = durfee_class(t, a)
            rows = reference_durfee_rectangle(p, a).rows
            assert (b + 1) // 2 == rows
            # the old test fails every b whose depth (b + 1) // 2 is not the
            # rectangle's rows, so only these two classes can hold p
            held = [c for c in (2 * rows - 1, 2 * rows) if c > 0 and reference_in_durfee_class(p, a, c)]
            assert held == ([b] if b else [])
