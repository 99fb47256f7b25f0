"""Command line front end.

Exit codes: 0 when every check passes, 1 when a verification finds any
mismatch, 2 on usage or parameter errors, among them an ``--out`` file that
cannot be opened.  Data rows go to stdout (or the ``--out`` file); the
``verify-*`` subcommands also write a one-line timing summary to stderr, so
the data stream stays byte-stable.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import sys
from itertools import islice
from typing import Callable, Iterable, Optional, TextIO

from . import tables, verify


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


# Flag types of sweep parameters; every parameter not named here is nonnegative.
_PARAM_TYPES: dict[str, Callable[[str], int]] = {"k_min": int, "k_max": int, "m_max": _positive}


def _add_sweep_flags(p: argparse.ArgumentParser, sweep: Callable) -> None:
    """One flag per grid parameter of ``sweep``, with the signature's default."""
    for name, param in inspect.signature(sweep).parameters.items():
        if name != "jobs":
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, type=_PARAM_TYPES.get(name, _nonnegative), default=param.default)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=tables.FORMATS,
        default="tsv",
        help="output format (default tsv)",
    )
    p.add_argument("--out", metavar="PATH", help="write rows to PATH instead of stdout")


def _add_jobs_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        type=_positive,
        default=1,
        metavar="W",
        help="shard the parameter grid over W worker processes",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parity-board",
        description="Enumerate partition-style objects and machine-check the identities tying them together.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list objects one per line")
    what = p.add_subparsers(dest="what", required=True)
    pp = what.add_parser("partitions", help="partitions of n")
    pp.add_argument("--n", type=_nonnegative, required=True)
    pp.add_argument("--max-part", type=_positive, default=None)
    pp.add_argument("--even-only", action="store_true", help="keep all-even partitions only")
    _add_output_flags(pp)
    ps = what.add_parser("strict", help="strict partitions of n")
    ps.add_argument("--n", type=_nonnegative, required=True)
    ps.add_argument("--parts", type=_nonnegative, default=None, help="exact number of parts")
    _add_output_flags(ps)
    pq = what.add_parser("abseq", help="sequences with parameters (a, b) and weight 2n")
    pq.add_argument("--a", type=_nonnegative, required=True)
    pq.add_argument("--b", type=_positive, required=True)
    pq.add_argument("--half-weight", type=_nonnegative, required=True, metavar="N")
    _add_output_flags(pq)

    for command, (name, help_text) in verify.SWEEPS.items():
        p = sub.add_parser(command, help=help_text)
        _add_sweep_flags(p, getattr(verify, name))
        _add_jobs_flag(p)
        _add_output_flags(p)

    p = sub.add_parser("table", help="emit a named table")
    p.add_argument("kind", choices=tables.TABLE_KINDS)
    p.add_argument("--n", type=_nonnegative, default=None, help="bound for table1 and counts")
    _add_sweep_flags(p, verify.verify_gf)
    _add_sweep_flags(p, verify.verify_theorem34)
    _add_output_flags(p)

    return parser


# Lines per write: the text is written as it is made, but one write call per
# line costs several times the join it replaces.
_CHUNK_LINES = 4096


def _write(lines: Iterable[str], fh: TextIO) -> None:
    rows = (line + "\n" for line in lines)
    while chunk := "".join(islice(rows, _CHUNK_LINES)):
        fh.write(chunk)


def _params(args: argparse.Namespace) -> dict:
    """The parsed grid parameters (and ``--jobs``), without the output flags."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "kind", "format", "out")}


def _run_verify(args: argparse.Namespace, fh: TextIO) -> int:
    sweep = getattr(verify, verify.SWEEPS[args.command][0])
    report = sweep(**_params(args))
    lines = report.tsv_lines() if args.format == "tsv" else report.json_lines()
    _write(lines, fh)
    print(
        f"# {report.subject}: {report.checks_run} checks, "
        f"{len(report.mismatches)} mismatches, {report.skipped} skipped "
        f"in {report.elapsed:.2f}s",
        file=sys.stderr,
    )
    return report.exit_code


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "k_min", 0) > getattr(args, "k_max", 0):
        parser.error("--k-min must not exceed --k-max")
    if args.command == "table" and args.kind in ("table1", "counts") and args.n is None:
        parser.error(f"table {args.kind} requires --n")
    # opened before any work, so a path that cannot be written is a usage error
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        parser.error(f"cannot open --out {args.out}: {exc.strerror or exc}")

    with out as fh:
        if args.command == "enumerate":
            if args.what == "partitions":
                parts_filter = "even-only" if args.even_only else "any"
                lines = tables.emit_partitions(args.n, args.max_part, parts_filter, args.format)
            elif args.what == "strict":
                lines = tables.emit_strict_partitions(args.n, args.parts, args.format)
            else:
                lines = tables.emit_sequences(args.a, args.b, args.half_weight, args.format)
            _write(lines, fh)
            return 0
        if args.command == "table":
            _write(tables.emit_table(args.kind, args.format, **_params(args)), fh)
            return 0
        return _run_verify(args, fh)


def run() -> None:
    raise SystemExit(main())
