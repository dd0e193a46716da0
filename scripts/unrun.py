"""The reach gate: the package functions and classes that no golden or
benchmark input runs.

    python3 scripts/unrun.py

Runs, under a sys.settrace tracer:
  * the product jobs: the golden battery, pullback-mode and single jobs of
    tests/test_acceptance.py, each through cli.main as the digest test runs
    them, and pass 0 of the axioms and constructions workloads of
    perfbench/workloads.py (seed 11);
  * every builder of its _failing_cases() (seed 0), with the report
    printed as the failing digests print it.
It prints every function and class defined in src/algebroids, methods and
nested functions included, that none of them runs, one `module.qualname` a
line (`<locals>` left out of nested names). A function runs when it is
entered; its code object is matched to its `def` by file and first line,
which for a decorated function is the line of its first decorator. A class
runs when one of its methods is entered, or when a traced call returns an
instance of it or of a subclass. A name printed is run by the tests alone,
or by nothing.

Then, under `unmatched:`, it prints each package function that test code
calls directly (from a frame of a file under tests/) while the failing
cases run, and that no product job enters: a failing case adds failure
branches inside the entry points the product runs, never an entry point of
its own. tests/test_unrun.py holds the first list to its ALLOWED names and
the second to empty. The job builders are imported from the test and
workload modules, so both lists follow the inputs they build.
"""

from __future__ import annotations

import ast
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "algebroids"
TESTS = ROOT / "tests"
for path in (ROOT / "src", TESTS, ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest
import workloads
from test_acceptance import (
    _battery_jobs,
    _failing_cases,
    _pullback_mode_jobs,
    _report_digest,
    _single_jobs,
)

WORKLOAD_SEED = 11
# The fields of a statement that hold statements (a def stands only in one
# of them), the handlers of a try and the cases of a match included.
BLOCKS = ("body", "orelse", "finalbody", "handlers", "cases")


def defined(paths) -> tuple[dict[tuple[str, int], str], dict[tuple[str, str], str]]:
    """The functions and classes of the files, each mapped to its
    module.qualname: a function keyed by file and first line, a decorated
    one starting at its first decorator as its code object does, and a
    class by file and qualname."""
    functions, classes = {}, {}
    for path in paths:

        def walk(statements, prefix):
            for node in statements:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = prefix + node.name
                    if isinstance(node, ast.ClassDef):
                        classes[str(path), name] = f"{path.stem}.{name}"
                    else:
                        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                        functions[str(path), first] = f"{path.stem}.{name}"
                    walk(node.body, name + ".")
                else:
                    for block in BLOCKS:
                        walk(getattr(node, block, ()), prefix)

        walk(ast.parse(path.read_text(encoding="utf-8")).body, "")
    return functions, classes


def ran(run, functions, classes, callers: str | None = None) -> tuple[set[str], set[str]]:
    """Runs run() under a tracer. The names of the functions and classes
    (as defined() maps them) it runs, and of the functions it enters
    straight from a frame whose file lies under the callers directory."""
    codes, direct, types = set(), set(), set()

    def returned(frame, event, arg):
        if event == "return":
            types.add(type(arg))
        return returned

    def entered(frame, event, arg):
        codes.add(frame.f_code)
        if callers and frame.f_back.f_code.co_filename.startswith(callers):
            direct.add(frame.f_code)
        frame.f_trace_lines = False
        return returned

    sys.settrace(entered)
    try:
        run()
    finally:
        sys.settrace(None)

    def names(codes):
        keys = ((code.co_filename, code.co_firstlineno) for code in codes)
        return {functions[key] for key in keys if key in functions}

    out = names(codes)
    out |= {name.rpartition(".")[0] for name in out} & set(classes.values())
    for cls in {base for t in types for base in t.__mro__}:
        file = getattr(sys.modules.get(cls.__module__), "__file__", None)
        key = (file, cls.__qualname__.replace("<locals>.", ""))
        if key in classes:
            out.add(classes[key])
    return out, names(direct)


def product_jobs() -> None:
    """Every golden CLI job, and pass 0 of two workloads."""
    with tempfile.TemporaryDirectory() as tmp:
        for verb, spec in _battery_jobs().items():
            _report_digest(Path(tmp), verb, spec, verb)
        for mode, spec in _pullback_mode_jobs().items():
            _report_digest(Path(tmp), "pullback", spec, f"pullback-{mode}")
        for name, (verb, spec) in _single_jobs().items():
            _report_digest(Path(tmp), verb, spec, name)
    for job in workloads.axioms_jobs(WORKLOAD_SEED, 0) + workloads.constructions_jobs(
        WORKLOAD_SEED, 0
    ):
        job.run()


def failing_jobs() -> None:
    """Every failing case, its report printed."""
    for build in _failing_cases().values():
        with pytest.MonkeyPatch.context() as mp:
            str(build(0, mp))


def reach() -> tuple[list[str], list[str]]:
    """(unrun, unmatched), each sorted: the package functions and classes no
    job runs, and the package functions test code calls directly while the
    failing cases run that no product job enters."""
    functions, classes = defined(sorted(PACKAGE.glob("*.py")))
    product, _ = ran(product_jobs, functions, classes)
    failing, direct = ran(failing_jobs, functions, classes, callers=str(TESTS))
    everything = set(functions.values()) | set(classes.values())
    return sorted(everything - product - failing), sorted(direct - product)


def main() -> None:
    unrun, unmatched = reach()
    for name in unrun:
        print(name)
    if unmatched:
        print("unmatched:")
        for name in unmatched:
            print(name)


if __name__ == "__main__":
    main()
