"""Source hygiene: every name a package module imports is used in it.

A module-level name is used when the module's syntax tree loads it; names
read only inside string annotations do not count. An import line marked
"# noqa: F401" is exempt (an import kept for its side effect)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "algebroids"


def unused_imports(source: str) -> list[str]:
    """The imported names that the source never loads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported.append((alias.asname or alias.name).split(".")[0])
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in loaded]


def test_the_gate_flags_an_unused_name_and_keeps_an_exempt_one():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from itertools import (\n"
        "    product,\n"
        "    chain,  # noqa: F401\n"
        ")\n"
        "x = os.path.join(str(Fraction(1)))\n"
    )
    assert unused_imports(source) == ["product"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
