"""Import hygiene and dead code of the package, read with the standard
library's ``ast``."""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dpwarden"


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


_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _definitions(tree):
    """(name, node) of each module-level function, class and constant, and
    of each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item) for item in node.body if isinstance(item, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _named(tree) -> list[str]:
    """Each name a tree reads, as a name, an attribute or an import, or
    spells as a dotted string (perfbench's tracer names what it wraps so)."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.append(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.extend(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            names.extend(node.value.split("."))
    return names


@functools.lru_cache(maxsize=None)
def _named_in(source: str) -> Counter:
    return Counter(_named(ast.parse(source)))


def unnamed_definitions(module: str, others: list[str]) -> list[str]:
    """Definitions of ``module`` (dunders excepted) that neither ``module``
    outside the definition itself nor any of ``others`` names."""
    tree = ast.parse(module)
    named = sum((_named_in(source) for source in others), Counter(_named(tree)))
    unnamed = []
    for name, node in _definitions(tree):
        if not (name.startswith("__") and name.endswith("__")) and named[name] <= _named(node).count(name):
            unnamed.append(f"line {node.lineno}: {name}")
    return unnamed


def test_the_check_finds_an_unnamed_definition():
    module = "\n".join(["A = 1", "B = A", "def f(n):", "    return f(n - 1)", "def g():", "    pass",
                        "class C:", "    def m(self):", "        return self.m()", "    def __eq__(self, o):",
                        "        return True"])
    assert unnamed_definitions(module, ["from x import C", "SPAN = 'x.g'"]) == ["line 2: B", "line 3: f", "line 8: m"]


_SOURCES = {p: p.read_text() for d in ("src/dpwarden", "tests", "perfbench") for p in sorted((ROOT / d).glob("*.py"))}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_definition_is_named_somewhere(module):
    path = SRC / module
    assert unnamed_definitions(_SOURCES[path], [s for p, s in _SOURCES.items() if p != path]) == []
