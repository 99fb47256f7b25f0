"""Run one ``parity-board`` invocation, as a fresh process or in-process."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


@dataclass
class Outcome:
    argv: tuple[str, ...]
    seconds: float
    code: int
    stdout: bytes
    stderr: bytes = b""
    cpu_s: float = 0.0
    rss_mb: float = 0.0


def child_env() -> dict[str, str]:
    """The caller's environment with ``src`` on the path.  Bytecode caching
    and stdout buffering are left at the interpreter's defaults, as a user
    has them, whatever the caller's environment says."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_process(args, argv=()) -> Outcome:
    """Run ``python <args>`` to completion and time it from spawn to reap.

    CPU time and peak RSS come from ``wait4``, so they cover the child and
    every process it waited for (pool workers included).
    """
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=err, env=child_env()
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Outcome(
        tuple(argv),
        seconds,
        proc.returncode,
        out,
        stderr,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
    )


def run_cli(argv) -> Outcome:
    """``python -m parity_board <argv>`` in a fresh interpreter."""
    return run_process(("-m", "parity_board", *argv), argv)


def run_in_process(main, argv) -> Outcome:
    """Call ``main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    seconds = time.perf_counter() - t0
    return Outcome(tuple(argv), seconds, code, out.getvalue().encode(), err.getvalue().encode())
