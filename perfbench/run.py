"""parity-board benchmark: one run of one workload.

    python3 perfbench/run.py --workload reach-tier --seed 1 --seconds 20 --trace 0

Run from anywhere in a checkout that holds ``src/parity_board``.  A run is a
closed loop with one client: the workload's invocations (see
``workloads.py``) are issued one after another, each as a fresh
``python -m parity_board`` process, and the whole list is repeated while
the next pass still fits in ``--seconds``.  Every invocation goes through the
correctness gate (``gate.py``).

With ``--trace 0`` the run reports the end-to-end metrics; each timing is the
median over the run's samples.  With ``--trace 1`` it instead calls
``parity_board.cli.main`` in this process, once untraced and once under the
span tracer (``tracer.py``), and reports the per-layer metrics and the
tracing overhead; ``--seconds`` does not apply to it.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
record (interpreter, CPUs, load, commit, seed) is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from collections import defaultdict
from statistics import median

import tracer as tracing
from calibrate import NOMINAL_S, kernel_seconds
from gate import Gate, checks_of, reference_digests, store_references
from runner import OUT, ROOT, SRC, run_cli, run_in_process, run_process
from workloads import WORKLOADS, invocations, is_verify

START_SAMPLES = 7


def source_digest() -> str:
    """sha256 over the package sources, naming the code under test."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def timed(args, need_output: bool = False) -> float:
    """Wall time of ``python <args>``; raises if it fails or, when output is
    needed, prints nothing."""
    o = run_process(args, args)
    if o.code != 0 or (need_output and not o.stdout):
        raise RuntimeError(f"python {' '.join(args)} failed: {o.stderr.decode()[-400:]}")
    return o.seconds


HELP = ("-m", "parity_board", "--help")


def interleaved(invs, setup, kernels):
    """Run the invocations in order.  After each one, take a set-up sample
    and time the calibration kernel, so that both spread over the whole run."""
    outcomes = []
    for argv in invs:
        outcomes.append(run_cli(argv))
        setup.append(timed(HELP, need_output=True))
        kernels.append(kernel_seconds())
    return outcomes


def measure(workload, seed, seconds, digest):
    """Untraced run: the end-to-end metrics, in reference seconds."""
    invs = invocations(workload, seed)
    timed(HELP, need_output=True)  # warm-up: byte-compile and page in
    setup, kernels = [], []
    references = reference_digests(invs, digest, run_cli) if workload == "sharded" else None
    check = Gate(references)

    samples = defaultdict(list)
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcomes = interleaved(invs, setup, kernels)
        passes.append(time.perf_counter() - t0)
        for o in outcomes:
            check(o)
            samples[o.argv].append(o)
        if time.perf_counter() - start + median(passes) > seconds:
            break
    if workload == "reach-tier":
        store_references(outcomes, digest)

    scale = NOMINAL_S / median(kernels)
    times = {a: median(o.seconds for o in samples[a]) * scale for a in invs}
    wall = sum(times.values())
    outputs = {a: samples[a][0].stdout for a in invs}
    checks = sum(checks_of(a, outputs[a]) for a in invs)
    rows = sum(outputs[a].count(b"\n") for a in invs)
    work = sum(checks_of(a, outputs[a]) if is_verify(a) else outputs[a].count(b"\n") for a in invs)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (median(setup) * scale, "s"),
        "cpu_s": (sum(median(o.cpu_s for o in samples[a]) for a in invs) * scale, "s"),
        "peak_rss_mb": (max(median(o.rss_mb for o in samples[a]) for a in invs), "MB"),
        "work_per_s": (work / wall, "1/s"),
    }
    extra = {
        "slowest_cmd_s": (max(times.values()), "s"),
        "checks_per_s": (checks / wall, "1/s"),
        "rows_per_s": (rows / wall, "1/s"),
        "failed_frac": (check.failed / check.attempted, "1"),
        "raw_wall_s": (wall / scale, "s"),
        "raw_setup_s": (median(setup), "s"),
        "kernel_s": (median(kernels), "s"),
        "passes": (len(passes), "count"),
        "setup_samples": (len(setup), "count"),
    }
    detail = {
        "samples": [[" ".join(o.argv), o.seconds, o.cpu_s] for a in invs for o in samples[a]],
        "setup_samples": setup,
        "kernel_samples": kernels,
    }
    return check, metrics, extra, detail


def import_cli():
    """The package's CLI module, imported from this checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from parity_board import cli

    return cli


def startup_seconds() -> tuple[float, float]:
    """Median time of a bare interpreter start, and what importing the CLI adds."""
    bare = median(timed(("-c", "pass")) for _ in range(START_SAMPLES))
    loaded = median(timed(("-c", "import parity_board.cli")) for _ in range(START_SAMPLES))
    return bare, max(loaded - bare, 0.0)


def paired_pass(cli, argvs, check):
    """Run each invocation twice in this process, plainly and under the span
    tracer, alternating which goes first; returns (tracer, plain, traced)."""
    spans = tracing.Tracer()
    plain, traced = [], []
    for i, argv in enumerate(argvs, start=1):
        spans.invocation = i
        for under_tracer in (i % 2 == 0, i % 2 == 1):
            if under_tracer:
                with spans:
                    # looked up per call, so that the tracer's wrapper is the one called
                    traced.append(run_in_process(lambda a: cli.main(a), argv))
            else:
                plain.append(run_in_process(cli.main, argv))
    for o in plain + traced:
        check(o)
    return spans, plain, traced


_COUNTER = {"rows": "c1", "hits": "c1", "ops": "c1", "checks": "c1", "cells": "c2", "bytes": "c2"}


def unit_of(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return "s" if stat.endswith("_s") else "B" if stat == "bytes" else "count"


def layer_seconds(spans) -> dict[str, float]:
    """Self time summed per layer (module)."""
    totals = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, row in spans.by_name().items():
        totals[name.split(".")[0]] += row["self_s"]
    return totals


def layer_metrics(spans) -> dict[str, float]:
    """The per-function, sweep, pool and layer metrics of one traced pass."""
    rows = spans.by_name()
    empty = {"calls": 0, "self_s": 0.0, "busy_s": 0.0, "c1": 0, "c2": 0}
    metrics = {}
    for module, attr, prefix, _, stats in tracing.TARGETS:
        name = prefix or f"{module}.{attr}"
        row = rows.get(name, empty)
        for stat in stats:
            metrics[f"{name}.{stat}"] = row[_COUNTER.get(stat, stat)]
    for stat in tracing.POOL_STATS:
        metrics[f"verify.{stat}"] = spans.pool[stat]
    metrics["cli.parser_s"] = rows.get("cli.build_parser", empty)["busy_s"]
    metrics["cli.main.self_s"] = rows.get("cli.main", empty)["self_s"]
    for layer, seconds in layer_seconds(spans).items():
        metrics[f"layer.{layer}.self_s"] = seconds
    return metrics


def trace(workload, seed, digest):
    """Traced run: per-layer metrics and the tracing overhead, in seconds."""
    invs = invocations(workload, seed)
    process_start, import_s = startup_seconds()
    cli = import_cli()
    check = Gate(reference_digests(invs, digest, run_cli) if workload == "sharded" else None)
    spans, untraced, traced = paired_pass(cli, invs, check)
    if workload == "reach-tier":
        store_references(traced, digest)
    OUT.mkdir(parents=True, exist_ok=True)
    spans.dump(OUT / f"trace-{workload}.bin")

    traced_wall = sum(o.seconds for o in traced)
    untraced_wall = sum(o.seconds for o in untraced)
    values = layer_metrics(spans)
    values.update({
        "cli.process_start_s": process_start,
        "cli.import_s": import_s,
        "layer.start_import_s": (process_start + import_s) * len(invs),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unaccounted_s": traced_wall - spans.root_busy(),
        "trace.spans": spans.span_count(),
    })
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    extra = {"untraced_in_process_wall_s": (untraced_wall, "s"),
             "missing_targets": (len(spans.missing), "count")}
    return check, metrics, extra, {"missing_targets": spans.missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="parity-board benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "parity_board" / "__init__.py").is_file():
        print(f"no parity_board package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    digest = source_digest()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_before": os.getloadavg(),
        "git_commit": git_commit(),
        "source_sha256": digest,
        "order": [" ".join(a) for a in invocations(args.workload, args.seed)],
    }
    try:
        if args.trace:
            check, metrics, extra, detail = trace(args.workload, args.seed, digest)
        else:
            check, metrics, extra, detail = measure(args.workload, args.seed, args.seconds, digest)
    except RuntimeError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1
    record["loadavg_after"] = os.getloadavg()
    record["metrics"] = {k: v for k, (v, _) in {**metrics, **extra}.items()}
    record.update(detail)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"# workload {args.workload}, seed {args.seed}, python {record['python']}, "
          f"nproc {record['nproc']}, cpu {record['cpu_model']}")
    print(f"# load {record['loadavg_before']} -> {record['loadavg_after']}, commit {record['git_commit']}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:52s} {value:>16.6f} {unit}" if isinstance(value, float) else f"{name:52s} {value:>16} {unit}")
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
