"""Source hygiene: every name a package or test module imports is used in
it, only symcalc and linalg touch the term dictionary of a polynomial, and
only symcalc and jsonio name the polynomial parser.

A module-level name is used when the module's syntax tree loads it; names
read only inside string annotations do not count. An import line marked
"# noqa: F401" is exempt (an import kept for its side effect).

The term dictionary (Poly.terms) is the storage format of symcalc, which
owns it; linalg reads it to match coefficients. Every other module goes
through Poly and ChartMap, so a change of format touches those two only.
Likewise text enters the program only through jsonio, which reads specs
with symcalc's parser (parse_poly, parse_expr); every other module is given
polynomials.

No process-global state changes the results, so functools.cache and
lru_cache decorate only functions nested inside another function: such a
cache lives as long as one call of its enclosing function. On a top-level
function or on a method it would outlive every call and hold its inputs
for the whole process.

No Poly is changed after it is built, since a chart holds one zero and
one unit that every zero or unit constant on it is: one stray write would
change every zero on that chart. So a term dictionary and the is_zero flag
stored with it are bound only by Poly.__init__ and Poly._raw, no term
dictionary is written, and no module but symcalc builds a zero by hand, as
Poly(chart) or Poly._raw(chart, {}).

A presentation's relations are set by Presentation.__init__ and nowhere
else, since it takes their nonzero entries once for the rebuild in reduce.

Lemma L14 decides a whole table through one admission step that returns a
mask per row. The tests of one pair (paired, bracket_vanishes), that step
on one column, are called only in TauModule.bracket, which brackets
single pairs, so no table loop goes back to testing pair by pair. A full table of section pairs is
AnchoredModule.bracket_table or CourantData.pairing_table, or the row-order
entries they are built from: outside anchored, the admission steps
(admitted, pairings), pruned_entries and pruned_table are called only by
pairing_entries and by a listed set of sites that keep their
own masks, so a new hand-built table loop fails the gate.

A vector is pulled along a chart map by ChartMap.pull_vec, which checks
every entry's chart and pulls only the nonzero ones: outside ChartMap no
code pulls entry by entry, with a .pull inside a comprehension or
generator expression or a .pull (or a name pull) mapped over a vector. A
single polynomial is still pulled by pull (ChartMap.pullback_form).

Structure data is frozen once validated: a dataclass of the package with a
functools.cached_property, its own or one inherited from a base class, is
declared frozen=True. A value cached on a mutable instance goes stale when
a field is reassigned, and a check that reads it passes on data it never
saw.

The README does not drift from the code: every code name it puts in
backticks (an identifier, dotted or called, such as `ChartMap.slots` or
`dirac_pushdown(d)`) has each dotted part appear as a word in the same
Python files; a span that names a file of the repository is exempt."""

import ast
import re
from collections.abc import Iterator
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "algebroids"
TESTS = ROOT / "tests"


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


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def python_corpus() -> dict[str, str]:
    """Path -> source of every Python file under src/, tests/ and perfbench/."""
    return {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for top in ("src", "tests", "perfbench")
        for path in sorted((ROOT / top).rglob("*.py"))
    }


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = (ast.ClassDef, *FUNCTIONS)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


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


TERM_BINDERS = {"Poly.__init__", "Poly._raw"}
BOUND_SLOTS = {"terms", "is_zero"}
DICT_WRITES = {"update", "pop", "popitem", "clear", "setdefault", "__setitem__", "__delitem__"}


def owned(tree: ast.AST) -> Iterator[tuple[tuple[ast.AST, ...], ast.AST, bool]]:
    """(enclosing, node, inside) for each node under tree, in source order:
    the class and function nodes enclosing the node, outermost first, and
    whether it lies inside a comprehension or generator expression. A class
    or function encloses its decorators, arguments and body, not itself."""

    def walk(node: ast.AST, enclosing: tuple[ast.AST, ...], inside: bool):
        for child in ast.iter_child_nodes(node):
            yield enclosing, child, inside
            yield from walk(
                child,
                enclosing + (child,) if isinstance(child, SCOPES) else enclosing,
                inside or isinstance(child, COMPREHENSIONS),
            )

    return walk(tree, (), False)


def owner(enclosing: tuple[ast.AST, ...]) -> str:
    """The dotted path of the enclosing classes and functions, "<module>"
    at top level."""
    return ".".join(node.name for node in enclosing) or "<module>"


def slot_write(node: ast.AST, slots: set[str]) -> bool:
    """Whether node stores or deletes an attribute named in slots, or sets
    one with setattr or __setattr__."""
    if isinstance(node, ast.Attribute):
        return node.attr in slots and not isinstance(node.ctx, ast.Load)
    return (
        isinstance(node, ast.Call)
        and last_name(node) in ("setattr", "__setattr__")
        and any(getattr(arg, "value", None) in slots for arg in node.args)
    )


def term_writes(source: str) -> list[str]:
    """"definition:line" for each write to a term dictionary or its is_zero
    flag by other code than their binders: a store or del of the attribute
    terms or is_zero itself (by assignment, augmented assignment, setattr
    or __setattr__) outside TERM_BINDERS, and anywhere a store or del of an
    item of terms, or a call of a dict method that changes it. A definition
    is named by the dotted path of the classes and functions enclosing the
    write."""
    out = []

    def is_terms(node: ast.AST | None) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    for enclosing, node, _ in owned(ast.parse(source)):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            written = is_terms(node.value)
        elif isinstance(node, ast.Call) and last_name(node) in DICT_WRITES:
            written = is_terms(getattr(node.func, "value", None))
        else:
            written = slot_write(node, BOUND_SLOTS) and owner(enclosing) not in TERM_BINDERS
        if written:
            out.append(f"{owner(enclosing)}:{node.lineno}")
    return out


def test_the_term_write_gate_flags_every_write_but_the_constructors():
    source = (
        "class Poly:\n"
        "    def __init__(self, chart, terms=None):\n"
        "        self.terms = dict(terms or {})\n"
        "        self.is_zero = not self.terms\n"
        "    @classmethod\n"
        "    def const(cls, chart, c):\n"
        "        p = cls(chart)\n"
        "        p.terms[(0,)] = c\n"
        "        chart.zero.terms[(0,)] = c\n"
        "        return p\n"
        "    def scale(self, c):\n"
        "        self.terms.update({k: v * c for k, v in self.terms.items()})\n"
        "def clear(p, q):\n"
        "    del p.terms[(0,)]\n"
        "    p.terms |= {}\n"
        "    p.terms = {}\n"
        "    setattr(p, 'terms', {})\n"
        "    q.terms.pop((0,), None)\n"
        "    p.is_zero = True\n"
        "    object.__setattr__(q, 'is_zero', False)\n"
        "    return p.terms.get((0,)), dict(p.terms), q.pop(0), p.is_zero, clear()\n"
    )
    assert term_writes(source) == [
        "Poly.const:8", "Poly.const:9", "Poly.scale:12",
        "clear:14", "clear:15", "clear:16", "clear:17", "clear:18", "clear:19", "clear:20",
    ]


def test_no_poly_is_written_after_it_is_built():
    """A chart's one zero and one unit are shared by every operation on
    the chart, so a write to a Poly's terms or is_zero flag outside the two
    binders would change every zero on that chart, or make a zero that
    reads as nonzero."""
    writes = {path: term_writes(source) for path, source in python_corpus().items()}
    assert {path: found for path, found in writes.items() if found} == {}


def zero_constructions(source: str) -> list[int]:
    """The lines that build a zero Poly by hand: a call of Poly with the
    chart alone, or of Poly or _raw with empty terms ({}, dict() or None)."""

    def empty(node: ast.expr) -> bool:
        return (
            (isinstance(node, ast.Dict) and not node.keys)
            or (isinstance(node, ast.Call) and last_name(node) == "dict" and not node.args)
            or (isinstance(node, ast.Constant) and node.value is None)
        )

    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or last_name(node) not in ("Poly", "_raw"):
            continue
        terms = node.args[1:2] + [k.value for k in node.keywords if k.arg == "terms"]
        if any(map(empty, terms)) or (last_name(node) == "Poly" and not terms):
            out.append(node.lineno)
    return sorted(out)


def test_the_zero_gate_flags_a_hand_built_zero():
    source = (
        "from algebroids.symcalc import Poly\n"
        "z = Poly(chart)\n"
        "w = symcalc.Poly(chart, {})\n"
        "v = Poly._raw(chart, {}, -1)\n"
        "u = Poly(chart, terms=dict())\n"
        "ok = Poly(chart, {(1,): 2}), Poly.zero(chart), Poly._raw(chart, terms)\n"
    )
    assert zero_constructions(source) == [2, 3, 4, 5]


def test_only_symcalc_builds_a_zero_by_hand():
    """Every zero on a chart is the chart's one zero (Poly.zero)."""
    built = {
        path: zero_constructions(source)
        for path, source in python_corpus().items()
        if path != "src/algebroids/symcalc.py"
    }
    assert {path: lines for path, lines in built.items() if lines} == {}


PARSER_OWNERS = ("symcalc.py", "jsonio.py")
PARSERS = {"parse_poly", "parse_expr"}


def parser_uses(source: str) -> list[int]:
    """The lines where the source imports, loads or reads as an attribute
    a name of the polynomial parser."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in PARSERS:
            out.append(node.lineno)
    return sorted(out)


def test_the_parser_gate_flags_an_import_a_call_and_an_attribute():
    source = (
        "from algebroids.symcalc import (\n"
        "    parse_poly,\n"
        ")\n"
        "import algebroids.symcalc as s\n"
        "# parse_expr in a comment, and in a 'parse_expr' string\n"
        "p = parse_poly('x1', c)\n"
        "q = s.parse_expr('x1', c)\n"
    )
    assert parser_uses(source) == [2, 6, 7]


def test_only_symcalc_and_jsonio_name_the_parser():
    uses = {
        path.name: parser_uses(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name not in PARSER_OWNERS
    }
    assert {name: lines for name, lines in uses.items() if lines} == {}


CACHES = {"cache", "lru_cache"}


def last_name(node: ast.expr) -> str | None:
    """The last name of a bare, called or dotted expression, as a decorator
    or a base class is written: "cache" for functools.cache(...)."""
    target = node.func if isinstance(node, ast.Call) else node
    return getattr(target, "attr", getattr(target, "id", None))


def global_caches(source: str) -> list[int]:
    """The lines of the functions decorated with functools.cache or
    lru_cache (bare, called or as an attribute) that are not nested
    inside another function."""
    return sorted(
        node.lineno
        for enclosing, node, _ in owned(ast.parse(source))
        if isinstance(node, FUNCTIONS)
        and not any(isinstance(scope, FUNCTIONS) for scope in enclosing)
        and any(last_name(d) in CACHES for d in node.decorator_list)
    )


def test_the_cache_gate_flags_a_module_level_cache_and_a_cached_method():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@cache\n"
        "def table(n):\n"
        "    return n\n"
        "class Module:\n"
        "    @functools.lru_cache(maxsize=None)\n"
        "    def masks(self):\n"
        "        return 0\n"
        "def check(m):\n"
        "    @cache\n"
        "    def row(a):\n"
        "        return a\n"
        "    return row(m)\n"
    )
    assert global_caches(source) == [4, 8]


def test_only_nested_functions_are_cached():
    uses = {
        path.name: global_caches(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: lines for name, lines in uses.items() if lines} == {}


def mutable_cached_dataclasses(sources: list[str]) -> list[str]:
    """The classes of sources declared @dataclass without frozen=True that
    have a functools.cached_property, their own or a base class's; a base
    is matched by name across all the sources."""
    classes = [
        node
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    ]

    def own(cls: ast.ClassDef) -> bool:
        return any(
            last_name(d) == "cached_property"
            for item in cls.body
            if isinstance(item, ast.FunctionDef)
            for d in item.decorator_list
        )

    cached: set[str] = set()
    while True:
        more = {
            cls.name
            for cls in classes
            if own(cls) or any(last_name(base) in cached for base in cls.bases)
        }
        if more == cached:
            break
        cached = more

    def mutable_dataclass(cls: ast.ClassDef) -> bool:
        for deco in cls.decorator_list:
            if last_name(deco) == "dataclass":
                keywords = deco.keywords if isinstance(deco, ast.Call) else []
                return not any(
                    k.arg == "frozen" and getattr(k.value, "value", None) is True
                    for k in keywords
                )
        return False

    return sorted(cls.name for cls in classes if cls.name in cached and mutable_dataclass(cls))


def test_the_frozen_gate_flags_mutable_dataclasses_with_cached_values():
    base = (
        "from functools import cached_property\n"
        "class Module:\n"
        "    @cached_property\n"
        "    def masks(self):\n"
        "        return 0\n"
        "class Anchored(Module):\n"
        "    pass\n"
    )
    subclasses = (
        "import dataclasses, functools\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Inherited(Anchored):\n"
        "    rank: int\n"
        "@dataclass(frozen=True)\n"
        "class Frozen(Anchored):\n"
        "    rank: int\n"
        "@dataclasses.dataclass(eq=False)\n"
        "class Own:\n"
        "    @functools.cached_property\n"
        "    def rows(self):\n"
        "        return 0\n"
        "@dataclass\n"
        "class Plain:\n"
        "    rank: int\n"
    )
    assert mutable_cached_dataclasses([base, subclasses]) == ["Inherited", "Own"]


def test_every_dataclass_with_a_cached_value_is_frozen():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert mutable_cached_dataclasses(sources) == []


def relation_writes(source: str) -> list[int]:
    """The lines outside Presentation.__init__ that assign or delete an
    attribute named relations, or set it with setattr or __setattr__."""
    return sorted(
        node.lineno
        for enclosing, node, _ in owned(ast.parse(source))
        if slot_write(node, {"relations"}) and owner(enclosing) != "Presentation.__init__"
    )


def test_the_relations_gate_flags_every_write_but_the_constructors():
    source = (
        "class Presentation:\n"
        "    def __init__(self, relations=()):\n"
        "        self.relations = tuple(relations)\n"
        "class Pullback(Presentation):\n"
        "    def __init__(self):\n"
        "        super().__init__(())\n"
        "        self.relations = ()\n"
        "def build(p):\n"
        "    setattr(p, 'relations', ())\n"
        "    object.__setattr__(p, 'relations', ())\n"
        "    p.basis, p.relations = (), ()\n"
        "    return p.relations\n"
    )
    assert relation_writes(source) == [7, 9, 10, 11]


def test_only_the_presentation_constructor_sets_relations():
    """A presentation takes the nonzero entries of its relations once, when
    it is made, and reduce rebuilds from them: relations set later would
    leave them stale."""
    writes = {
        path.name: relation_writes(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: lines for name, lines in writes.items() if lines} == {}


PAIR_TESTS = {"paired", "bracket_vanishes"}
PAIR_TEST_OWNERS = {"TauModule.bracket"}


def stray_calls(source: str, names: set[str], owners: set[str]) -> list[str]:
    """"definition:line" for each call of one of names (by its last name,
    bare or as an attribute) outside owners; a definition is named by the
    dotted path of the classes and functions enclosing the call,
    "<module>" at top level."""
    return [
        f"{owner(enclosing)}:{node.lineno}"
        for enclosing, node, _ in owned(ast.parse(source))
        if isinstance(node, ast.Call) and last_name(node) in names
        and owner(enclosing) not in owners
    ]


def test_the_pair_test_gate_flags_a_table_loop_and_keeps_the_owners():
    source = (
        "class TauModule:\n"
        "    def bracket(self, x, y):\n"
        "        if paired(self.rows, x, y):\n"
        "            return self.q.bracket_vanishes(x, y)\n"
        "def curvature(q, s):\n"
        "    return [q.bracket_vanishes(a, b) for a in s for b in s]\n"
        "class Combination:\n"
        "    def __init__(self, q):\n"
        "        def unpaired(x, y):\n"
        "            return not paired(q.rows, x, y)\n"
        "        self.admitted = q.admitted(q.rows)\n"
    )
    found = stray_calls(source, PAIR_TESTS, PAIR_TEST_OWNERS)
    assert found == ["curvature:6", "Combination.__init__.unpaired:10"]


def test_tables_read_masks_not_pair_tests():
    calls = {
        path.name: stray_calls(path.read_text(encoding="utf-8"), PAIR_TESTS, PAIR_TEST_OWNERS)
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in calls.items() if found} == {}


TABLE_STEPS = {"admitted", "pairings", "pruned_entries", "pruned_table"}
TABLE_STEP_OWNERS = {
    "CourantData.pairing_entries",
    "check_courant",
    "check_tau_rules",
    "Connection.__post_init__",
    "check_dirac.isotropy",
    "CourantPullback.result",
    "LiePullback.__init__",
}


def test_the_table_step_gate_flags_a_hand_built_table_and_keeps_the_owners():
    source = (
        "class CourantData:\n"
        "    def pairing_entries(self, xs, ys):\n"
        "        return pruned_entries(pairings(self.rows, xs, ys), self.pairing_of)\n"
        "def curvature(q, columns, supports):\n"
        "    admitted = q.admitted(supports, supports)\n"
        "    return q.bracket_table(columns), admitted\n"
        "def check_dirac(d):\n"
        "    def isotropy():\n"
        "        return pairings(d.rows, d.supports, d.supports)\n"
        "    def closure():\n"
        "        return pruned_table(d.masks, d.bracket)\n"
    )
    found = stray_calls(source, TABLE_STEPS, TABLE_STEP_OWNERS)
    assert found == ["curvature:5", "check_dirac.closure:11"]


def test_tables_of_sections_go_through_the_table_operations():
    """Outside anchored, the admission step of Lemma L14 (admitted,
    pairings), pruned_entries and pruned_table are called only by
    CourantData.pairing_entries and by the sites that keep their own masks:
    check_courant's generator cases (lazy), check_tau_rules (lazy, its
    degree-0 elements against e_b*eps in both orders), the isotropy checks
    of Connection and check_dirac (pairs i <= j), and the two inverse
    images (presentation tuples). Any other full table of sections is
    AnchoredModule.bracket_table or CourantData.pairing_table."""
    calls = {
        path.name: stray_calls(path.read_text(encoding="utf-8"), TABLE_STEPS, TABLE_STEP_OWNERS)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "anchored.py"
    }
    assert {name: found for name, found in calls.items() if found} == {}


def entrywise_pulls(source: str) -> list[str]:
    """"definition:line" for each vector pulled entry by entry outside the
    class ChartMap: an attribute named pull inside a comprehension or
    generator expression, or a call of map on an attribute or a name pull.
    A definition is named by the dotted path of the classes and functions
    enclosing the pull."""

    def pulls(node: ast.AST) -> bool:
        return getattr(node, "attr", getattr(node, "id", None)) == "pull"

    def entrywise(node: ast.AST, inside: bool) -> bool:
        if isinstance(node, ast.Call) and last_name(node) == "map":
            return bool(node.args) and pulls(node.args[0])
        return inside and isinstance(node, ast.Attribute) and node.attr == "pull"

    return [
        f"{owner(enclosing)}:{node.lineno}"
        for enclosing, node, inside in owned(ast.parse(source))
        if owner(enclosing).partition(".")[0] != "ChartMap" and entrywise(node, inside)
    ]


def test_the_pull_gate_flags_an_entrywise_pull_and_keeps_a_single_one():
    source = (
        "class ChartMap:\n"
        "    def pull_vec(self, vec):\n"
        "        return tuple(self.pull(f) for f in vec)\n"
        "def restrict(d, p):\n"
        "    return d.inclusion.pull(p), d.inclusion.pull_vec([p, p])\n"
        "def rows(f, m):\n"
        "    return [[f.pull(p) for p in row] for row in m]\n"
        "class Split:\n"
        "    def basis(self):\n"
        "        pull = self.map.pull\n"
        "        return map(self.map.pull, self.frame), list(map(pull, self.frame))\n"
        "    def left(self, f):\n"
        "        return {k: f.pull(v) for k, v in self.d.items()}, map(f.pull_vec, self.m)\n"
    )
    assert entrywise_pulls(source) == ["rows:7", "Split.basis:11", "Split.basis:11", "Split.left:13"]


def test_vectors_are_pulled_whole():
    """Every vector-wide pull goes through ChartMap.pull_vec, so a zero
    entry costs no pull and every entry's chart is checked."""
    found = {
        path.name: entrywise_pulls(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


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
