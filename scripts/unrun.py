"""The package functions that no golden or benchmark input enters.

    python3 scripts/unrun.py

Runs, under a sys.setprofile tracer:
  * the golden battery jobs and the golden pullback-mode jobs of
    tests/test_acceptance.py, each through cli.main as the digest test runs
    them;
  * every builder of its _failing_cases() (seed 0), with the report
    printed as the failing digests print it;
  * pass 0 of the axioms and constructions workloads of
    perfbench/workloads.py (seed 11).
It prints every function defined in src/algebroids, methods and nested
functions included, that none of them enters, one `module.qualname` a line
(`<locals>` left out of nested names). A name listed is reached by the tests
alone, or by nothing. The job builders are imported from those modules, so
the list follows the inputs they build.
"""

from __future__ import annotations

import ast
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "algebroids"
for path in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

WORKLOAD_SEED = 11


def defined() -> dict[tuple[str, str], str]:
    """(file, qualname) -> module.qualname of every def in the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    if not isinstance(child, ast.ClassDef):
                        out[str(path), name] = f"{path.stem}.{name}"
                    walk(child, name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def run_jobs() -> None:
    """Every input the listing is taken over, run once."""
    import pytest

    import workloads
    from test_acceptance import (
        _battery_jobs,
        _failing_cases,
        _pullback_mode_jobs,
        _report_digest,
    )

    with tempfile.TemporaryDirectory() as tmp:
        for verb, spec in _battery_jobs().items():
            _report_digest(Path(tmp), verb, spec, verb)
        for mode, spec in _pullback_mode_jobs().items():
            _report_digest(Path(tmp), "pullback", spec, f"pullback-{mode}")
    for build in _failing_cases().values():
        with pytest.MonkeyPatch.context() as mp:
            str(build(0, mp))
    for job in workloads.axioms_jobs(WORKLOAD_SEED, 0) + workloads.constructions_jobs(
        WORKLOAD_SEED, 0
    ):
        job.run()


def unrun() -> list[str]:
    """The module.qualname of each package function run_jobs never enters,
    sorted."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_jobs()
    finally:
        sys.setprofile(None)
    entered = {(c.co_filename, c.co_qualname.replace("<locals>.", "")) for c in codes}
    return sorted(name for key, name in defined().items() if key not in entered)


def main() -> None:
    for name in unrun():
        print(name)


if __name__ == "__main__":
    main()
