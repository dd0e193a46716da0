"""The reach gate (scripts/unrun.py): every package function and class runs
in a golden or benchmark job, or is listed here with its reason; and a
failing case calls no package entry point that the product jobs leave
unrun."""

import importlib
import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "unrun.py"
spec = importlib.util.spec_from_file_location("unrun", SCRIPT)
unrun = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unrun)

READER = "argparse, built only for a command line that is not plain (its error and help paths); every golden command line is plain"
DEBUG = "debug printing"
ERROR = "an exit code of cli.main that tests/test_cli.py pins; no golden job gives bad input"
SAMPLING = "unused by every verdict; ROADMAP item 1 deletes it"

# The package names no job runs, each with why it stays.
ALLOWED = {
    "anchored.AnchoredModule.__reduce__": "copy and pickle through the constructor",
    "cli._parser": READER,
    "errors.AlgebroidError": ERROR,
    "errors.ChartMismatchError": ERROR,
    "errors.DegreeOverflowError": ERROR,
    "errors.ParseError": ERROR,
    "errors.ParseError.__init__": "the polynomial parser's error path; no golden spec is malformed",
    "errors.TruncationError": ERROR,
    "errors.UnsupportedModeError": ERROR,
    "errors.ValidationError": ERROR,
    "sampling.sample_kform": SAMPLING,
    "sampling.sample_poly": SAMPLING,
    "sampling.sample_section": SAMPLING,
    "symcalc.Chart.__reduce__": "copy and pickle through the constructor",
    "symcalc.Chart.__str__": DEBUG,
    "symcalc.ChartMap.__str__": DEBUG,
    "symcalc.KForm.__repr__": DEBUG,
    "symcalc.KForm.as_poly": "reached only by the degree-0 branches of kform_str and ChartMap.pullback_form, which no job takes; the tests read 0-forms through it",
    "symcalc.KForm.__str__": DEBUG,
    "symcalc.Poly.__repr__": DEBUG,
    "symcalc.Poly.__rsub__": "perfbench/tracing.py traces it as a poly_addsub member",
    "symcalc.VField.__repr__": DEBUG,
    "symcalc.kform_str": DEBUG,
}


def test_only_the_allowed_names_go_unrun_and_failing_cases_add_no_entry_point():
    """A new name no job runs is code to delete, or to list here with its
    reason; a listed name that runs or is gone comes off the list. A
    package function a failing case calls straight from the tests is one a
    golden job or a workload pass enters too."""
    unlisted, unmatched = unrun.reach()
    assert unlisted == sorted(ALLOWED)
    assert unmatched == []


SAMPLE = '''\
import functools


class Base:
    pass


class Used(Base):
    pass


class Unused:
    pass


class Entered:
    @staticmethod
    @functools.cache
    def value():
        def inner():
            return Used()

        return inner()


def never():
    return Unused()
'''


def test_the_gate_lists_what_never_runs_and_matches_decorated_and_nested_functions(
    tmp_path, monkeypatch
):
    """Entered runs through its decorated method, whose nested function
    returns a Used, so Used and its base Base run too; never is not entered
    and no Unused is made."""
    path = tmp_path / "unrun_sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "unrun_sample", raising=False)
    sample = importlib.import_module("unrun_sample")
    functions, classes = unrun.defined([path])
    try:
        names, _ = unrun.ran(sample.Entered.value, functions, classes)
    finally:
        del sys.modules["unrun_sample"]
    everything = set(functions.values()) | set(classes.values())
    assert sorted(everything - names) == ["unrun_sample.Unused", "unrun_sample.never"]
    assert {"unrun_sample.Entered.value", "unrun_sample.Entered.value.inner"} <= names


def test_the_gate_tells_a_call_from_the_tests(tmp_path, monkeypatch):
    """A function entered straight from a file under the callers directory
    is a direct call; one entered through another function is not."""
    path = tmp_path / "unrun_direct.py"
    path.write_text("def leaf():\n    pass\n\n\ndef relay():\n    leaf()\n", encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    sample = importlib.import_module("unrun_direct")
    try:
        functions, classes = unrun.defined([path])
        _, direct = unrun.ran(lambda: sample.relay(), functions, classes, str(Path(__file__).parent))
    finally:
        del sys.modules["unrun_direct"]
    assert direct == {"unrun_direct.relay"}
