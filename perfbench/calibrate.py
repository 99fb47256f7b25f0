"""Host-speed calibration.

The shared host this benchmark was tuned on changes speed by a third over
minutes and by up to two fifths from one second to the next; CPU time moves
with wall time, so the cause is the host, not scheduling.  A fixed
pure-Python kernel, of the same kinds of work as the package (recursive
generators, tuple building, small-integer arithmetic, dict updates, string
joins and ``json.dumps``), is timed in the benchmark process after every
invocation of a run.  The run's timings are then reported in reference
seconds:

    reference = measured * NOMINAL_S / (median kernel time of the run)

that is, the time the run would take on a host where the kernel takes
``NOMINAL_S``.  The kernel is the benchmark's own code, so a change to the
package cannot move it.
"""

from __future__ import annotations

import json
import time

NOMINAL_S = 0.15


def _descending(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in _descending(n - k, k):
            yield (k,) + rest


def kernel_seconds() -> float:
    """Time one pass of the fixed kernel."""
    t0 = time.perf_counter()
    tally: dict[int, int] = {}
    for parts in _descending(34, 34):
        odd = sum(1 for x in parts if x % 2)
        tally[odd] = tally.get(odd, 0) + len(parts)
    chars = 0
    for parts in _descending(30, 30):
        chars += len("+".join(map(str, parts)))
        chars += len(json.dumps({"parts": list(parts), "weight": 30}, sort_keys=True, separators=(",", ":")))
    seconds = time.perf_counter() - t0
    # parts over all partitions of 34; characters of the rows for 30
    if sum(tally.values()) != 130462 or chars != 347136:
        raise RuntimeError("calibration kernel miscounted")
    return seconds
