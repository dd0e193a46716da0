"""Source hygiene: every name a package module imports is used in it, every
name it defines is named somewhere else, and only symcalc and linalg touch
the term dictionary of a polynomial.

A module-level name is used when the module's syntax tree loads it; names
read only inside string annotations do not count. An import line marked
"# noqa: F401" is exempt (an import kept for its side effect).

A definition (a top-level function or class, or a method whose name is not
a dunder) is alive when its name appears as a word on some line of the
Python files under src/, tests/ or perfbench/ other than its own def line.

The term dictionary (Poly.terms) is the storage format of symcalc, which
owns it; linalg reads it to match coefficients. Every other module goes
through Poly and ChartMap, so a change of format touches those two only.

The README does not drift from the code: every code name it puts in
backticks (an identifier, dotted or called, such as `ChartMap.slots` or
`dirac_pushdown(d)`) has each dotted part appear as a word in the same
Python files; a span that names a file of the repository is exempt."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "algebroids"


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


def definitions(source: str) -> list[tuple[str, int]]:
    """(name, def line) of each top-level function and class and of each
    method whose name is not a dunder, in source order."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, kinds):
            continue
        out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out += [
                (item.name, item.lineno)
                for item in node.body
                if isinstance(item, kinds) and not re.fullmatch(r"__\w+__", item.name)
            ]
    return out


def dead_definitions(
    defining: dict[str, str], corpus: dict[str, str]
) -> list[str]:
    """path:name of each definition in the defining sources whose name
    appears on no line of the corpus (path -> source) but its def line."""
    seen: dict[str, set[tuple[str, int]]] = {}
    for path, source in corpus.items():
        for lineno, line in enumerate(source.splitlines(), 1):
            for word in set(re.findall(r"\w+", line)):
                seen.setdefault(word, set()).add((path, lineno))
    return [
        f"{path}:{name}"
        for path, source in defining.items()
        for name, lineno in definitions(source)
        if not seen.get(name, set()) - {(path, lineno)}
    ]


def test_the_dead_definition_gate_flags_a_name_used_only_where_defined():
    source = (
        "def used():\n"
        "    pass\n"
        "def unused():\n"
        "    pass\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        used()\n"
        "    def open(self):\n"
        "        pass\n"
    )
    elsewhere = "Box().open()\n"
    corpus = {"m.py": source, "t.py": elsewhere}
    assert dead_definitions({"m.py": source}, corpus) == ["m.py:unused"]


def python_corpus() -> dict[str, str]:
    """Path -> source of every Python file under src/, tests/ and perfbench/."""
    return {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for top in ("src", "tests", "perfbench")
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def test_every_definition_is_named_elsewhere():
    corpus = python_corpus()
    defining = {
        path: source
        for path, source in corpus.items()
        if Path(path).parent == SRC.relative_to(ROOT)
    }
    assert defining
    assert dead_definitions(defining, corpus) == []


TERM_OWNERS = ("symcalc.py", "linalg.py")


def term_dictionary_uses(source: str) -> list[int]:
    """The lines where the source reads or writes an attribute named terms."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "terms"
    )


def test_the_term_gate_flags_an_attribute_and_keeps_a_plain_name():
    source = (
        "terms = 3\n"
        "def f(p, terms=2):\n"
        "    return [t for t in terms], p.terms\n"
    )
    assert term_dictionary_uses(source) == [3]


def test_only_symcalc_and_linalg_touch_the_term_dictionary():
    uses = {
        path.name: term_dictionary_uses(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name not in TERM_OWNERS
    }
    assert {name: lines for name, lines in uses.items() if lines} == {}


CODE_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")


def readme_drift(readme: str, words: set[str]) -> list[str]:
    """The backticked code names of readme, outside fenced blocks, with a
    dotted part that is not in words; spans naming a repository file, and
    spans that are no code name (flags, verbs, numbers), are skipped."""
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    out = []
    for span in re.findall(r"`([^`\n]+)`", prose):
        name = CODE_NAME.fullmatch(span)
        if name is None or (ROOT / span).is_file():
            continue
        if any(part not in words for part in name[1].split(".")):
            out.append(span)
    return out


def test_the_readme_gate_flags_a_deleted_name_and_keeps_a_file():
    readme = (
        "`anchored.comparison(a, b)` and `lie_algebroid.removed_helper`\n"
        "in `pyproject.toml`; verbs like `check-lie` and `--seed`.\n"
        "```python\nignored.name()\n```\n"
    )
    words = {"anchored", "comparison", "lie_algebroid"}
    assert readme_drift(readme, words) == ["lie_algebroid.removed_helper"]


def test_every_readme_code_name_is_in_the_code():
    words = {
        word
        for source in python_corpus().values()
        for word in re.findall(r"\w+", source)
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert readme_drift(readme, words) == []
