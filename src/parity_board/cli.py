"""Command line front end.

Exit codes: 0 when every check passes, 1 when a verification finds any
mismatch, 2 on usage or parameter errors, among them an ``--out`` file that
cannot be opened and a ``table`` bound its kind does not read, and 3 when
the output cannot be written, as to a full disk or a closed pipe (with one
``parity-board: cannot write output`` line on stderr).  Data rows go to
stdout (or the ``--out`` file); the ``verify-*`` subcommands also write a
one-line timing summary to stderr, so the data stream stays byte-stable.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import os
import stat
import sys
import time
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


# Flag types of signature parameters; every parameter not named here is nonnegative.
_PARAM_TYPES = {"k_min": int, "k_max": int, "m_max": _positive, "max_part": _positive, "b": _positive}
_PARAM_HELP = {"even_only": "keep all-even partitions only", "parts": "exact number of parts"}


def _add_flags(p: argparse.ArgumentParser, fn: Callable) -> None:
    """One flag per parameter of ``fn`` but ``jobs`` and ``fmt``: a parameter
    without a default is a required flag, a ``False`` default is a switch,
    and any other default is the flag's default."""
    for name, param in inspect.signature(fn).parameters.items():
        if name in ("jobs", "fmt"):
            continue
        flag, help_text = "--" + name.replace("_", "-"), _PARAM_HELP.get(name)
        to_int = _PARAM_TYPES.get(name, _nonnegative)
        if param.default is False:
            p.add_argument(flag, action="store_true", help=help_text)
        elif param.default is param.empty:
            p.add_argument(flag, type=to_int, required=True, help=help_text)
        else:
            p.add_argument(flag, type=to_int, default=param.default, help=help_text)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=tables.FORMATS,
        default="tsv",
        help="output format (default tsv)",
    )
    p.add_argument("--out", metavar="PATH", help="write rows to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parity-board",
        description="Enumerate partition-style objects and machine-check the identities tying them together.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list objects one per line")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, (name, help_text) in tables.ENUMERATIONS.items():
        pe = kinds.add_parser(kind, help=help_text)
        _add_flags(pe, getattr(tables, name))
        _add_output_flags(pe)

    for command, (name, help_text) in verify.SWEEPS.items():
        p = sub.add_parser(command, help=help_text)
        _add_flags(p, getattr(verify, name))
        p.add_argument(
            "--jobs",
            type=_positive,
            default=1,
            metavar="W",
            help="shard the parameter grid over W worker processes",
        )
        _add_output_flags(p)

    p = sub.add_parser("table", help="emit a named table")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, (sweep, help_text) in tables.TABLE_KINDS.items():
        pt = kinds.add_parser(kind, help=help_text)
        if sweep is None:
            pt.add_argument("--n", type=_nonnegative, required=True)
        else:
            _add_flags(pt, getattr(verify, sweep))
        _add_output_flags(pt)

    return parser


# Lines per write: the text is written as it is made, but one write call per
# line costs several times the join it replaces.
_CHUNK_LINES = 4096


def _write(lines: Iterable[str], fh: TextIO) -> None:
    rows = (line + "\n" for line in lines)
    while chunk := "".join(islice(rows, _CHUNK_LINES)):
        fh.write(chunk)


def _params(args: argparse.Namespace) -> dict:
    """The parsed parameters of the sweep, table or emitter, without the output flags."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "kind", "format", "out")}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "k_min", 0) > getattr(args, "k_max", 0):
        parser.error("--k-min must not exceed --k-max")
    # Opened before any work, so a path that cannot be written is a usage
    # error, but not emptied: a run that fails or is stopped leaves it as it was.
    try:
        out = open(args.out, "a", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        parser.error(f"cannot open --out {args.out}: {exc.strerror or exc}")

    with out as fh:
        report = None
        if args.command == "enumerate":
            lines = getattr(tables, tables.ENUMERATIONS[args.kind][0])(fmt=args.format, **_params(args))
        elif args.command == "table":
            lines = tables.emit_table(args.kind, args.format, **_params(args))
        else:
            t0 = time.perf_counter()
            report = getattr(verify, verify.SWEEPS[args.command][0])(**_params(args))
            elapsed = time.perf_counter() - t0
            lines = report.tsv_lines() if args.format == "tsv" else report.json_lines()
        # Rows are made as they are written, but making them does no I/O, so
        # an OSError here comes from writing the output.
        try:
            if args.out and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(0)  # the rows are ready: only now do the old ones go
            _write(lines, fh)
            fh.flush()
        except OSError as exc:
            # What is still buffered goes to the null device, so neither the
            # close nor the interpreter's last flush of stdout raises again.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fh.fileno())
            os.close(null)
            print(f"parity-board: cannot write output: {exc.strerror or exc}", file=sys.stderr)
            return 3
    if report is None:
        return 0
    summary = f"{report.checks_run} checks, {len(report.mismatches)} mismatches, {report.skipped} skipped"
    print(f"# {report.subject}: {summary} in {elapsed:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


def run() -> None:
    raise SystemExit(main())
