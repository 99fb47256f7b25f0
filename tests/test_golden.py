"""The README invocations and a few larger ones against the golden outputs of
the benchmark.

``perfbench/golden.json`` holds, for each invocation of the benchmark, the
stdout sha256 of a ``table`` or ``enumerate`` run and the ``checks`` count of
a ``verify-*`` report.  This module runs the benchmark's ``pinned``
invocations (the README command lines at their default bounds), the
``s-coeffs``, ``table1`` and ``theorem34`` tables of its ``emit`` workload,
and all six of its ``reach-tier`` sweeps, in-process and holds them to the
same rules as the benchmark gate, so a change of output is caught by the
ordinary test run.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from parity_board.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# The larger invocations that also run here: the series kernel at its largest,
# the diagram maps (``columns``, ``from_columns``, phi and its inverse) and the
# theorem 3.4 counts at the sizes the benchmark runs them, and every sweep at
# its reach-tier bounds.
_EMIT_TABLES = (("table", "s-coeffs"), ("table", "table1"), ("table", "theorem34"))
_REACH_SWEEPS = ("verify-phi", "verify-gf", "verify-iota", "verify-thm34", "verify-euler", "verify-congruences")


def _invocations() -> tuple[tuple[str, ...], ...]:
    spec = importlib.util.spec_from_file_location("_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    emit = tuple(argv for argv in workloads.EMIT if argv[:2] in _EMIT_TABLES)
    reach = tuple(argv for argv in workloads.REACH_TIER if argv[0] in _REACH_SWEEPS)
    return workloads.PINNED + emit + reach


GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["invocations"]


@pytest.mark.parametrize("argv", _invocations(), ids=" ".join)
def test_pinned_invocation_matches_golden(capsys, argv):
    want = GOLDEN[" ".join(argv)]
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    if argv[0].startswith("verify-"):
        fields = dict(line.split("\t") for line in out.splitlines() if line.count("\t") == 1)
        assert (fields["status"], fields["mismatches"]) == ("pass", "0")
        assert int(fields["checks"]) >= want["checks"]
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]
