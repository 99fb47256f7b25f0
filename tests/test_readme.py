"""The README's library example runs as written."""

import re
from pathlib import Path

from parity_board import tables

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {})
    rows = [line.replace("\t", " ") for line in tables.emit_table("table1", n=7)]
    assert capsys.readouterr().out.splitlines() == rows
