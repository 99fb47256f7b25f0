"""Tests of the benchmark itself: the gate fails when it should, and the
trace accounts for the time.

    python3 -m pytest perfbench -q

The trace tests run every workload in-process four times (about a minute
and a half on two cores).  No test starts more processes at once than the
machine has CPUs: the sharded workload's pool is ``min(2, nproc)`` workers.
"""

from __future__ import annotations

import pytest

import gate
import run
from runner import run_cli, run_in_process
from workloads import WORKLOADS, invocations

THM34 = ("verify-thm34", "--k-min", "-3", "--k-max", "3", "--m-max", "8", "--n-max", "30")
TABLE1 = ("table", "table1", "--n", "7")
EULER = ("verify-euler", "--n-max", "40")
COUNT_STATS = ("calls", "rows", "hits", "ops", "cells", "checks", "bytes")


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def gated(cli, argvs):
    check = gate.Gate()
    for argv in argvs:
        check(run_in_process(cli.main, argv))
    return check


def test_seed_outputs_pass_the_gate(cli):
    check = gated(cli, [THM34, TABLE1, EULER])
    assert (check.attempted, check.failed) == (3, 0)


def test_gate_counts_broken_outputs_as_failed(cli, monkeypatch):
    from parity_board import tables, verify

    formula = verify.count_strict_by_parts_rank_formula
    monkeypatch.setattr(verify, "count_strict_by_parts_rank_formula", lambda k, m, n: formula(k, m, n) + 1)
    emit_table = tables.emit_table

    def altered(*args, **kwargs):
        rows = list(emit_table(*args, **kwargs))
        rows[1] = rows[1].replace("6+1", "6+0+1")
        return iter(rows)

    monkeypatch.setattr(tables, "emit_table", altered)
    check = gated(cli, [THM34, TABLE1, EULER])
    assert (check.attempted, check.failed) == (3, 2)


def test_gate_rules():
    golden = gate.load_golden()
    report = b"subject\tx\nchecks\t1736\nchecks_by_law\tcount-equality\t1736\nmismatches\t0\nstatus\tpass\n"
    assert gate.failure(THM34, 0, report, golden) is None
    assert gate.failure(THM34, 1, report, golden) == "exit code 1"
    assert "below golden" in gate.failure(THM34, 0, report.replace(b"1736\nc", b"1735\nc"), golden)
    assert "status" in gate.failure(THM34, 0, report.replace(b"pass", b"fail"), golden)
    assert gate.failure(THM34, 0, report, golden, reference=gate.digest(report)) is None
    assert "--jobs 1" in gate.failure(THM34, 0, report, golden, reference=gate.digest(b""))
    assert "golden output" in gate.failure(TABLE1, 0, b"7\n", golden)


def test_seed_only_reorders():
    for workload, argvs in WORKLOADS.items():
        assert sorted(invocations(workload, 1)) == sorted(argvs)
    assert invocations("pinned", 1) != invocations("pinned", 2)


@pytest.fixture(scope="module")
def traces(cli):
    """Each workload traced twice: (tracer, traced wall time) per pass."""
    out = {}
    for workload in WORKLOADS:
        argvs = invocations(workload, 1)
        out[workload] = []
        for _ in range(2):
            refs = gate.reference_digests(argvs, run.source_digest(), run_cli) if workload == "sharded" else None
            check = gate.Gate(refs)
            spans, _, outcomes = run.paired_pass(cli, argvs, check)
            assert check.failed == 0
            out[workload].append((spans, sum(o.seconds for o in outcomes)))
    return out


def test_self_times_sum_to_traced_wall(traces):
    for workload, runs in traces.items():
        for spans, wall in runs:
            total = sum(row["self_s"] for row in spans.by_name().values())
            assert abs(total - wall) <= 0.01 * wall + 0.005, workload


def test_counts_repeat_exactly(traces):
    for workload, (first, second) in traces.items():
        a, b = run.layer_metrics(first[0]), run.layer_metrics(second[0])
        counts = {k for k in a if k.rsplit(".", 1)[1] in COUNT_STATS}
        assert counts and {k: a[k] for k in counts} == {k: b[k] for k in counts}, workload


def shares(spans, start_import):
    layers = run.layer_seconds(spans)
    layers["start+import"] = start_import
    total = sum(layers.values())
    return {k: v / total for k, v in layers.items()}


def test_trace_confirms_why_each_workload_exists(traces):
    process_start, import_s = run.startup_seconds()
    per_invocation = process_start + import_s
    share = {
        w: shares(runs[0][0], per_invocation * len(WORKLOADS[w])) for w, runs in traces.items()
    }
    reach = share["reach-tier"]
    assert reach["partitions"] + reach["abseq"] + reach["bijections"] > 0.5
    assert share["pinned"]["start+import"] > 0.5
    for layer in ("tables", "qseries", "cli"):
        assert share["emit"][layer] > reach[layer], layer
