"""The benchmark's workloads: fixed lists of ``parity-board`` invocations.

Each invocation is the argv given to ``python -m parity_board``.  The grids
are fixed; ``--seed`` only shuffles the order in which a run issues them.
"""

from __future__ import annotations

import os
import random

# The README command lines at their default (acceptance) bounds.  Almost all
# of their time is interpreter start, import and argument parsing, so this
# workload measures set-up and the CLI layer; the enumerators barely run.
PINNED = (
    ("enumerate", "partitions", "--n", "5", "--max-part", "3"),
    ("enumerate", "partitions", "--n", "6", "--even-only"),
    ("enumerate", "strict", "--n", "33", "--parts", "6"),
    ("enumerate", "abseq", "--a", "5", "--b", "1", "--half-weight", "9"),
    ("table", "table1", "--n", "7"),
    ("table", "counts", "--n", "10"),
    ("table", "s-coeffs", "--a-max", "2", "--b-max", "4", "--trunc", "10"),
    ("table", "theorem34", "--k-min", "-1", "--k-max", "1", "--m-max", "4", "--n-max", "12"),
    ("verify-phi", "--a-max", "3", "--b-max", "4", "--n-max", "12"),
    ("verify-gf", "--a-max", "4", "--b-max", "8", "--trunc", "15"),
    ("verify-iota", "--n-max", "25"),
    ("verify-thm34", "--k-min", "-3", "--k-max", "3", "--m-max", "8", "--n-max", "30"),
    ("verify-euler", "--n-max", "40"),
    ("verify-congruences", "--n-max", "101"),
)

# The six sweeps at the larger "reach tier" bounds, single process.  Almost
# all of the time is in the enumerators and the maps.
REACH_TIER = (
    ("verify-phi", "--a-max", "4", "--b-max", "6", "--n-max", "18"),
    ("verify-gf", "--a-max", "6", "--b-max", "10", "--trunc", "25"),
    ("verify-iota", "--n-max", "40"),
    ("verify-thm34", "--k-min", "-3", "--k-max", "3", "--m-max", "8", "--n-max", "45"),
    ("verify-euler", "--n-max", "70"),
    ("verify-congruences", "--n-max", "2001"),
)

# Large outputs: every object is built, formatted and written.  The only
# workload where the series kernel (s-coeffs) and the table formatting do
# real work.
EMIT = (
    ("enumerate", "partitions", "--n", "45"),
    ("enumerate", "strict", "--n", "90", "--format", "json-lines"),
    ("table", "table1", "--n", "65"),
    ("table", "s-coeffs", "--a-max", "20", "--b-max", "40", "--trunc", "200"),
    ("table", "theorem34", "--n-max", "40"),
    ("enumerate", "abseq", "--a", "2", "--b", "2", "--half-weight", "30"),
)


def sharded_jobs() -> int:
    """Worker count for the sharded workload: two, never above the CPU count."""
    return min(2, os.cpu_count() or 1)


def _with_jobs(invocations, jobs):
    return tuple(argv + ("--jobs", str(jobs)) for argv in invocations)


WORKLOADS = {
    "pinned": PINNED,
    "reach-tier": _with_jobs(REACH_TIER, 1),
    "emit": EMIT,
    "sharded": _with_jobs(REACH_TIER, sharded_jobs()),
}


def invocations(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The workload's invocations in the order the seed picks."""
    order = list(WORKLOADS[workload])
    random.Random(seed).shuffle(order)
    return order


def reference_argv(argv: tuple[str, ...]) -> tuple[str, ...]:
    """The argv without ``--jobs W``: the key under which golden values and
    the single-process reference output are stored."""
    if "--jobs" in argv:
        i = argv.index("--jobs")
        return argv[:i] + argv[i + 2 :]
    return argv


def is_verify(argv: tuple[str, ...]) -> bool:
    return argv[0].startswith("verify-")
