"""Every name a package module imports is read there or listed in its ``__all__``."""

import ast
from pathlib import Path

import parity_board

MODULES = sorted(Path(parity_board.__file__).parent.glob("*.py"))


def _unread_imports(source: str) -> set[str]:
    """The names ``source`` binds by import but never reads and does not
    list in ``__all__``; ``__future__`` and star imports are left out."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return imported - read - exported


def test_every_imported_name_is_read():
    assert MODULES
    unread = {path.name: names for path in MODULES if (names := _unread_imports(path.read_text()))}
    assert unread == {}


def test_an_unread_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from .abseq import *\n"
        "from .partitions import bg_rank\n"
        "__all__ = ['bg_rank']\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int\n"
        "print(os.path.sep)\n"
    )
    assert _unread_imports(source) == {"math", "field"}
