"""Capture the golden values the gate compares against.

Run once, on the commit whose outputs are taken as correct:

    python3 perfbench/make_golden.py --commit <git commit id>

Every distinct invocation of every workload (``--jobs`` stripped) is run
single-process.  A verify report contributes its ``checks`` count; a
``table`` or ``enumerate`` invocation contributes the sha256, line count and
size of its stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from gate import GOLDEN_PATH, digest, key, report_fields
from runner import run_cli
from workloads import WORKLOADS, is_verify, reference_argv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="the commit the outputs come from")
    args = parser.parse_args()
    argvs = {reference_argv(argv) for argvs in WORKLOADS.values() for argv in argvs}
    golden = {}
    for argv in sorted(argvs):
        result = run_cli(argv)
        if result.code != 0:
            print(f"{key(argv)}: exit code {result.code}", file=sys.stderr)
            return 1
        if is_verify(argv):
            fields = report_fields(result.stdout)
            if fields.get("status") != "pass":
                print(f"{key(argv)}: status {fields.get('status')}", file=sys.stderr)
                return 1
            golden[key(argv)] = {"checks": int(fields["checks"])}
        else:
            golden[key(argv)] = {
                "sha256": digest(result.stdout),
                "lines": result.stdout.count(b"\n"),
                "bytes": len(result.stdout),
            }
        print(f"{key(argv)}: {golden[key(argv)]}", file=sys.stderr)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"commit": args.commit, "invocations": golden}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
