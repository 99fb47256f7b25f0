"""Correctness gate: decides whether one invocation's result is right.

Golden values were captured from the seed commit by ``make_golden.py`` and
live in ``golden.json``.  An invocation fails when

- its exit code is not 0;
- it is a ``verify-*`` report without ``status pass`` and ``mismatches 0``,
  or its ``checks`` count is below the golden one;
- it is a ``table`` or ``enumerate`` invocation whose stdout sha256 is not
  the golden one;
- a reference is given (the sha256 of the same invocation's stdout with
  ``--jobs 1``) and the stdout differs from that output.

Report lines the golden run did not have are tolerated, so that reports may
grow additive rows.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Optional

from runner import OUT
from workloads import is_verify, reference_argv

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def key(argv) -> str:
    return " ".join(reference_argv(tuple(argv)))


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["invocations"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_fields(stdout: bytes) -> dict[str, str]:
    """First value of each two-column TSV report line, by its key."""
    fields: dict[str, str] = {}
    for line in stdout.decode("utf-8", "replace").splitlines():
        parts = line.split("\t")
        if len(parts) == 2:
            fields.setdefault(parts[0], parts[1])
    return fields


def checks_of(argv, stdout: bytes) -> int:
    """The ``checks`` count a verify report states (0 for other commands)."""
    if not is_verify(argv):
        return 0
    try:
        return int(report_fields(stdout).get("checks", "0"))
    except ValueError:
        return 0


def failure(
    argv, code: int, stdout: bytes, golden: dict, reference: Optional[str] = None
) -> Optional[str]:
    """Why the invocation failed the gate, or None when it passed."""
    want = golden.get(key(argv))
    if want is None:
        return "no golden value for this invocation"
    if code != 0:
        return f"exit code {code}"
    if is_verify(argv):
        fields = report_fields(stdout)
        if fields.get("status") != "pass" or fields.get("mismatches") != "0":
            return f"status {fields.get('status')}, mismatches {fields.get('mismatches')}"
        if checks_of(argv, stdout) < want["checks"]:
            return f"checks {fields.get('checks')} below golden {want['checks']}"
    elif digest(stdout) != want["sha256"]:
        return "stdout differs from the golden output"
    if reference is not None and digest(stdout) != reference:
        return "stdout differs from the --jobs 1 output"
    return None


class Gate:
    """Applies the gate to each outcome and counts attempts and failures.

    ``references`` maps an invocation's key to the sha256 of its ``--jobs 1``
    stdout, for the byte-identity check of the sharded workload.
    """

    def __init__(self, references: Optional[dict[str, str]] = None):
        self.golden = load_golden()
        self.references = references or {}
        self.attempted = 0
        self.failed = 0

    def __call__(self, outcome) -> bool:
        reason = failure(
            outcome.argv, outcome.code, outcome.stdout, self.golden, self.references.get(key(outcome.argv))
        )
        self.attempted += 1
        if reason:
            self.failed += 1
            err = outcome.stderr.decode("utf-8", "replace").strip()[-400:]
            print(f"FAILED {' '.join(outcome.argv)}: {reason} {err}", file=sys.stderr)
        return reason is None


def _references_path(source_digest: str) -> Path:
    return OUT / f"reference-{source_digest[:16]}.json"


def _load_references(source_digest: str) -> dict[str, str]:
    path = _references_path(source_digest)
    return json.loads(path.read_text()) if path.is_file() else {}


def _save_references(source_digest: str, refs: dict[str, str]) -> None:
    OUT.mkdir(exist_ok=True)
    _references_path(source_digest).write_text(json.dumps(refs, indent=1, sort_keys=True))


def store_references(outcomes, source_digest: str) -> None:
    """Cache the stdout digests of successful ``--jobs 1`` verify runs."""
    refs = _load_references(source_digest)
    for o in outcomes:
        if is_verify(o.argv) and o.code == 0:
            refs.setdefault(key(o.argv), digest(o.stdout))
    _save_references(source_digest, refs)


def reference_digests(argvs, source_digest: str, run_cli) -> dict[str, str]:
    """sha256 of each invocation's ``--jobs 1`` stdout for this source tree.

    Cached per source digest, so the sharded workload normally reuses the
    outputs a reach-tier run already produced; missing ones are made with
    ``run_cli`` outside any timed region.
    """
    refs = _load_references(source_digest)
    missing = [argv for argv in argvs if key(argv) not in refs]
    for argv in missing:
        refs[key(argv)] = digest(run_cli(reference_argv(argv) + ("--jobs", "1")).stdout)
    if missing:
        _save_references(source_digest, refs)
    return refs
