"""The README's library example runs as written, its command lines are the
benchmark's ``pinned`` workload, and its list of each sweep's laws is the one
``verify.py`` yields."""

import ast
import importlib.util
import re
import shlex
from pathlib import Path

from parity_board import tables, verify

README = Path(__file__).resolve().parents[1] / "README.md"
WORKLOADS = README.parent / "perfbench" / "workloads.py"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {})
    rows = [line.replace("\t", " ") for line in tables.emit_table("table1", n=7)]
    assert capsys.readouterr().out.splitlines() == rows


def _yielded_laws(fn: ast.FunctionDef) -> list[str]:
    """The law names ``fn`` yields, in the order they first appear in it."""
    yields = sorted(
        (node.lineno, node.col_offset, node.value.elts[0].value)
        for node in ast.walk(fn)
        if isinstance(node, ast.Yield) and isinstance(node.value, ast.Tuple)
    )
    return list(dict.fromkeys(law for *_, law in yields))


def test_readme_lists_each_sweeps_laws_in_report_order():
    """Each ``SWEEPS`` function passes a cell to ``_sweep``; the README lists
    the laws that cell yields, in order, under the sweep's subcommand."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    expected = {}
    for command, (name, _help) in verify.SWEEPS.items():
        call = next(
            node
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_sweep"
        )
        expected[command] = _yielded_laws(functions[call.args[1].id])
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = {
        line[1]: re.findall(r"`([^`]+)`", line[2])
        for line in re.finditer(r"^- `(verify-[\w-]+)`: (.*)$", section, re.MULTILINE)
    }
    assert listed == expected


def test_readme_command_lines_are_the_pinned_workload():
    """Every ``parity-board`` line of the README's command block, its ``#``
    comment dropped, is a ``pinned`` invocation, in order, so each one is
    checked against the golden outputs (``tests/test_golden.py``)."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = tuple(
        tuple(shlex.split(line, comments=True)[1:]) for line in block.splitlines() if line.startswith("parity-board ")
    )
    spec = importlib.util.spec_from_file_location("_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert commands == workloads.PINNED
