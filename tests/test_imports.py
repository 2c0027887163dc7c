"""Import hygiene of the package, read with the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dpwarden"


def unused_imports(source: str) -> list[str]:
    """Names a module imports, at any depth, and never reads.  ``import a.b``
    binds ``a``; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = sorted((line, name) for name, line in imported.items() if name not in read)
    return [f"line {line}: {name}" for line, name in unread]


def test_the_check_finds_an_unused_import():
    source = "\n".join(["from __future__ import annotations", "import os.path",
                        "from typing import Mapping, Sequence", "x: Mapping"])
    assert unused_imports(source) == ["line 2: os", "line 3: Sequence"]


# __init__.py imports to re-export
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_a_module_imports_only_names_it_reads(module):
    assert unused_imports((SRC / module).read_text()) == []
