"""Every name a package module or a test module imports is used in it.

``__init__.py`` imports names to re-export them, and ``from __future__``
imports switch on compiler features, so neither counts.
"""
from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "typedtopo"


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that nothing else reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_checker_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, json as js\n"
        "from typing import Iterable, Optional\n"
        "def f(x: Optional[int]) -> str:\n"
        "    return js.dumps(x)\n"
    )
    assert unused_imports(source) == ["Iterable", "os"]


def unused_by_module(modules) -> dict[str, list[str]]:
    """The unused imports of each module in ``modules`` that has any."""
    return {
        p.name: names
        for p in modules
        if (names := unused_imports(p.read_text(encoding="utf-8")))
    }


def test_package_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert unused_by_module(modules) == {}


def test_test_modules_use_every_import():
    modules = sorted(TESTS.glob("*.py"))
    assert Path(__file__).resolve() in modules
    assert unused_by_module(modules) == {}
