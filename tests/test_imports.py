"""Every name a package module imports is read there or listed in its
``__all__``, and every name an ``__all__`` lists is read in the package."""

import ast
from pathlib import Path

import parity_board

MODULES = sorted(Path(parity_board.__file__).parent.glob("*.py"))


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)


def _exported(tree: ast.Module) -> set[str]:
    return {name for node in tree.body if _is_all(node) for name in ast.literal_eval(node.value)}


def _read_outside_all(tree: ast.Module) -> set[str]:
    """Each name, attribute and string constant ``tree`` loads outside its
    ``__all__``; string constants are how the ``SWEEPS``, ``ENUMERATIONS``
    and ``TABLE_KINDS`` registries name the functions they dispatch to."""
    read = set()
    for node in (n for stmt in tree.body if not _is_all(stmt) for n in ast.walk(stmt)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


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
    return imported - read - _exported(tree)


def test_every_imported_name_is_read():
    assert MODULES
    unread = {path.name: names for path in MODULES if (names := _unread_imports(path.read_text()))}
    assert unread == {}


def test_every_public_name_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    read = set().union(*map(_read_outside_all, trees.values()))
    unread = {name: names for name, tree in trees.items() if (names := _exported(tree) - read)}
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
