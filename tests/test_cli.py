"""End-to-end runs of the command-line verbs on small job files."""

import argparse
import ast
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings, strategies as st

from algebroids import cli, jsonio
from algebroids.cli import VERBS, main
from algebroids.courant import coordinate_connection, standard_exact
from algebroids.symcalc import (
    Chart,
    ChartMap,
    KForm,
    Poly,
    coordinate_chart,
    parse_poly,
)

R1 = coordinate_chart("L", 1, prefix="y")
R2 = coordinate_chart("P", 2)
R3 = coordinate_chart("X", 3)
R4 = coordinate_chart("B", 4)
ROOT = Path(__file__).resolve().parents[1]
VOL = KForm(R3, 3, {(0, 1, 2): Poly.const(R3, 1)})
Q3 = standard_exact(R3, VOL)
Q3_FLAT = standard_exact(R3, KForm.zero(R3, 3))
Q2 = standard_exact(R2, KForm.zero(R2, 3))

SHEAR = ChartMap(
    R3,
    R3,
    (Poly.coord(R3, 0), Poly.coord(R3, 1), parse_poly("x3 + x1*x2", R3)),
)


def _tangent_lie_json():
    from algebroids.lie_algebroid import tangent_algebroid

    return jsonio.lie_to_json(tangent_algebroid(R2))


def _assoc_spec():
    from algebroids.lie_algebroid import tangent_algebroid, trivial_extension

    phi = ChartMap(
        R2, R3, (Poly.coord(R2, 0), Poly.coord(R2, 1), parse_poly("x1*x2", R2))
    )
    z_chart = coordinate_chart("Z", 1, prefix="z")
    psi = ChartMap(z_chart, R2, (Poly.coord(z_chart, 0), parse_poly("z1^2", z_chart)))
    w_chart = coordinate_chart("W", 1, prefix="w")
    xi = ChartMap(w_chart, z_chart, (parse_poly("w1^2", w_chart),))
    a = trivial_extension(tangent_algebroid(R3)).total.lie
    return {
        "algebroid": jsonio.lie_to_json(a),
        "maps": [jsonio.map_to_json(f) for f in (phi, psi, xi)],
        "splitting": [
            ["1", "0", "0", "0"],
            ["0", "1", "0", "0"],
            ["0", "0", "1", "0"],
        ],
    }


def _supported_dirac():
    return {
        "support": ["x3"],
        "generators": [
            ["1", "0", "0", "0", "x1", "0"],
            ["0", "1", "0", "-x1", "0", "0"],
            ["0", "0", "0", "0", "0", "1"],
        ],
    }


PASSING_JOBS = {
    "check-lie": lambda: ({"algebroid": _tangent_lie_json()}, ["--samples", "10"]),
    "check-courant": lambda: ({"structure": jsonio.courant_to_json(Q3)}, []),
    "check-dirac": lambda: (
        {
            "structure": jsonio.courant_to_json(Q3_FLAT),
            "dirac": _supported_dirac(),
        },
        [],
    ),
    "pullback": lambda: (
        {
            "structure": jsonio.courant_to_json(Q3),
            "map": jsonio.map_to_json(ChartMap.identity(R3)),
        },
        [],
    ),
    "twist": lambda: (
        {
            "structure": jsonio.courant_to_json(Q3_FLAT),
            "form": jsonio.kform_to_json(VOL),
        },
        [],
    ),
    "curvature": lambda: (
        {
            "structure": jsonio.courant_to_json(Q3),
            "expect": jsonio.kform_to_json(VOL),
        },
        [],
    ),
    "tau-roundtrip": lambda: (
        {"structure": jsonio.courant_to_json(Q2)},
        ["--samples", "3"],
    ),
    "tau-linear": lambda: (
        {
            "parts": [jsonio.courant_to_json(Q2), jsonio.courant_to_json(Q2)],
            "weights": ["1", "-2"],
            "connections": [
                jsonio.matrix_to_json(coordinate_connection(Q2).columns),
                jsonio.matrix_to_json(coordinate_connection(Q2).columns),
            ],
        },
        ["--samples", "2"],
    ),
    "cocycle": lambda: (
        {
            "structure": jsonio.courant_to_json(Q2),
            "cover": {
                "maps": {
                    "one": ["x1", "x2"],
                    "s": ["x1", "x2 + x1^2"],
                    "s2": ["x1", "x2 + 2*x1^2"],
                },
                "table": {"s,s": "s2", "one,s": "s", "s,one": "s"},
            },
        },
        [],
    ),
    "twist-commute": lambda: (
        {
            "structure": jsonio.courant_to_json(Q3_FLAT),
            "map": jsonio.map_to_json(SHEAR),
            "form": jsonio.kform_to_json(VOL),
        },
        [],
    ),
    "curvature-pullback": lambda: (
        {
            "structure": jsonio.courant_to_json(Q3),
            "map": jsonio.map_to_json(SHEAR),
        },
        [],
    ),
    "dirac-pushdown": lambda: (
        {
            "structure": jsonio.courant_to_json(Q3_FLAT),
            "dirac": _supported_dirac(),
        },
        [],
    ),
    "morphism-graph": lambda: (
        {
            "structure": jsonio.courant_to_json(
                standard_exact(coordinate_chart("T", 1), KForm.zero(coordinate_chart("T", 1), 3))
            ),
            "map": jsonio.map_to_json(
                ChartMap(R1, coordinate_chart("T", 1), (parse_poly("y1^2", R1),))
            ),
        },
        [],
    ),
    "assoc-c-plus": lambda: (_assoc_spec(), ["--samples", "4"]),
}


def write_job(tmp_path, obj, name="job.json"):
    path = tmp_path / name
    path.write_text(jsonio.dump_json(obj), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("verb", sorted(PASSING_JOBS))
def test_verb_passes_on_good_spec(tmp_path, verb):
    spec, extra = PASSING_JOBS[verb]()
    out = tmp_path / "report.json"
    rc = main([verb, "--spec", write_job(tmp_path, spec), "--out", str(out)] + extra)
    assert rc == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["job"]["verb"] == verb
    assert payload["job"]["spec"] == "job.json"
    assert payload["checks"]
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_every_verb_has_a_passing_job():
    assert sorted(PASSING_JOBS) == sorted(VERBS)


def test_readme_and_benchmark_name_exactly_the_cli_verbs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("Verbs:") :].split("\n\n", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", paragraph)) == VERBS
    workloads = ROOT / "perfbench" / "workloads.py"
    tree = ast.parse(workloads.read_text(encoding="utf-8"))
    bench = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["VERBS"]
    )
    assert ast.literal_eval(bench) == VERBS


def test_failing_check_exits_one(tmp_path):
    # dH != 0, so the twisted bracket misses the closure identity
    bad = KForm(R4, 3, {(1, 2, 3): Poly.coord(R4, 0)})
    spec = {"structure": jsonio.courant_to_json(standard_exact(R4, bad))}
    out = tmp_path / "report.json"
    rc = main(["check-courant", "--spec", write_job(tmp_path, spec), "--out", str(out)])
    assert rc == 1
    payload = json.loads(out.read_text(encoding="utf-8"))
    failed = [c["name"] for c in payload["checks"] if c["status"] == "fail"]
    assert failed == ["leibniz_identity"]


def test_missing_spec_file_exits_two(tmp_path):
    rc = main(["check-courant", "--spec", str(tmp_path / "nope.json")])
    assert rc == 2


def test_invalid_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    assert main(["check-courant", "--spec", str(path)]) == 2


def test_a_spec_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"structure": "\xe9"}')
    assert main(["check-courant", "--spec", str(path)]) == 2
    assert "error: cannot read spec" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, '{"structure": ' + "[" * 50_000 + "]" * 50_000 + "}"],
    ids=["brackets", "structure"],
)
def test_a_spec_nested_past_the_decoder_limit_exits_two(tmp_path, capsys, text):
    """The JSON decoder gives up on deep nesting with a RecursionError; that
    is an unreadable spec, not a failed check."""
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert main(["check-courant", "--spec", str(path)]) == 2
    assert "error: cannot read spec" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["missing/report.json", "."], ids=["no-dir", "a-dir"])
def test_an_unwritable_report_path_exits_two(tmp_path, capsys, out):
    spec, _ = PASSING_JOBS["check-courant"]()
    path = write_job(tmp_path, spec)
    rc = main(["check-courant", "--spec", path, "--out", str(tmp_path / out)])
    assert rc == 2
    assert "error: cannot write report" in capsys.readouterr().err


def test_missing_field_exits_two(tmp_path):
    assert main(["check-courant", "--spec", write_job(tmp_path, {})]) == 2


def test_bad_polynomial_exits_two_with_position(tmp_path, capsys):
    # A spec gives fields and forms as components, so their printed
    # generators are no polynomial text.
    for text, message in (
        ("x1 +", "position 4: unexpected end of input"),
        ("dx1", "position 0: unknown name 'dx1'"),
        ("d/dx1", "position 0: unknown name 'd'"),
    ):
        spec = {"structure": jsonio.courant_to_json(Q2)}
        spec["structure"]["anchor"][0][0] = text
        assert main(["check-courant", "--spec", write_job(tmp_path, spec)]) == 2
        assert message in capsys.readouterr().err


def test_an_over_long_integer_literal_exits_two_with_position(tmp_path, capsys):
    """A literal beyond int()'s digit limit is a bad spec, not an internal
    error, wherever it stands: coefficient, exponent or denominator."""
    long = "9" * 5000
    for text, position in ((f"{long}*x1", 0), (f"x1^{long}", 3), (f"1/{long}", 2)):
        spec = {"structure": jsonio.courant_to_json(Q2)}
        spec["structure"]["anchor"][0][0] = text
        assert main(["check-courant", "--spec", write_job(tmp_path, spec)]) == 2
        err = capsys.readouterr().err
        assert f"position {position}: integer literal of 5000 digits is too long" in err


def test_verb_flag_spelling(tmp_path):
    spec, _ = PASSING_JOBS["check-courant"]()
    path = write_job(tmp_path, spec)
    assert main(["--verb", "check-courant", "--spec", path]) == 0
    assert main(["--spec", path, "--verb=check-courant"]) == 0


def test_an_unknown_verb_exits_two(tmp_path, capsys):
    spec, _ = PASSING_JOBS["check-courant"]()
    with pytest.raises(SystemExit) as exc:
        main(["check-nothing", "--spec", write_job(tmp_path, spec)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_a_call_without_a_verb_exits_two(tmp_path):
    spec, _ = PASSING_JOBS["check-courant"]()
    with pytest.raises(SystemExit) as exc:
        main(["--spec", write_job(tmp_path, spec)])
    assert exc.value.code == 2


def test_options_before_the_verb_give_the_same_report(tmp_path):
    spec, _ = PASSING_JOBS["check-courant"]()
    path = write_job(tmp_path, spec)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check-courant", "--spec", path, "--out", str(first)]) == 0
    assert main(["--spec", path, "--out", str(second), "check-courant"]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_help_names_every_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = re.findall(r"\{([^}]*)\}", capsys.readouterr().out)
    assert listed and all(tuple(names.split(",")) == VERBS for names in listed)


def test_the_command_line_is_one_flat_grammar_read_per_call(capsys):
    """One grammar with no subcommands: the verb is one positional whose
    choices are VERBS, beside the four options of OPTIONS. The module keeps
    no parser object, and a call leaves nothing behind for the next."""
    assert list(cli.OPTIONS) == ["--spec", "--out", "--seed", "--samples"]
    for verb in VERBS:
        assert cli.parse_argv([verb, "--spec", "s"]).verb == verb
    with pytest.raises(SystemExit) as exc:
        cli.parse_argv(["check-nothing", "--spec", "s"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    kept = [
        name
        for name, value in vars(cli).items()
        if isinstance(value, argparse.ArgumentParser)
    ]
    assert kept == []
    first = ["pullback", "--spec", "a.json", "--seed", "5"]
    second = ["--out", "r.json", "--samples=3", "--spec", "b.json", "twist"]
    a, b, again = (cli.parse_argv(argv) for argv in (first, second, first))
    assert vars(a) == vars(again) == {
        "verb": "pullback", "spec": "a.json", "out": None, "seed": 5, "samples": 100
    }
    assert vars(b) == {
        "verb": "twist", "spec": "b.json", "out": "r.json", "seed": 0, "samples": 3
    }


def _spellings(option):
    """option in full, abbreviated to a unique prefix, as an ambiguous
    prefix (where it has one), and with an attached value."""
    unique = {"--spec": "--sp", "--out": "--o", "--seed": "--se", "--samples": "--sa"}
    return [option, unique[option], option[:3], f"{option}=3", f"{unique[option]}=x"]


OPTION_TOKENS = sorted({t for option in cli.OPTIONS for t in _spellings(option)})
ARGV_TOKENS = sorted(
    {
        *OPTION_TOKENS,
        "-h", "--help", "--help=1", "--h", "-hh", "-hx", "-hhx", "-h=",
        "--verb", "--verb=pullback", "--verb=x",
        "--", "-", "-x", "--max-degree", "--spec=--", "--seed=",
        "-5", "1.5", "-1.5", "-a b", "--s b", "", "job.json", "out/r.json",
    }
)
VALUES = ["3", "-5", "1.5", "-a b", "", "--", "job.json"]


def _argv():
    """Lists of 0-7 tokens: either any tokens, or a --spec and a verb with
    up to three more parts (a token, a verb, `--`, an option and a value),
    in any order. The second kind makes most lines well formed, so values
    are compared as often as exit codes."""
    verb = st.sampled_from([*VERBS, "check-nothing"]).map(lambda v: [v])
    value = st.sampled_from(VALUES)
    part = st.one_of(
        st.sampled_from(ARGV_TOKENS).map(lambda token: [token]),
        verb,
        st.just(["--"]),
        st.tuples(st.sampled_from(OPTION_TOKENS), value).map(list),
    )
    spec = st.one_of(
        value.map(lambda v: ["--spec", v]),
        value.map(lambda v: ["--sp", v]),
        value.map(lambda v: [f"--spec={v}"]),
    )
    lines = st.tuples(verb, spec, st.lists(part, max_size=3)).flatmap(
        lambda t: st.permutations([t[1], t[0], *t[2]])
    )
    return st.one_of(
        st.lists(st.sampled_from(ARGV_TOKENS), max_size=7),
        lines.map(lambda parts: sum(parts, [])[:7]),
    )


def _outcome(read, argv):
    """The values read from argv, or the code read exits with."""
    try:
        return vars(read(argv))
    except SystemExit as exc:
        return exc.code


@given(_argv())
@settings(max_examples=500, deadline=None)
def test_the_reader_agrees_with_the_argparse_reference(argv):
    """parse_argv accepts exactly the command lines the argparse parser
    accepts, with the same values, and exits with the same code otherwise:
    abbreviations, --opt=value, ambiguous prefixes, negative numbers,
    dash tokens holding a space, --, repeated options and -h among them.
    Every line is held to the argparse of the running interpreter, which
    reads every line that is not plain."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        expected = _outcome(
            lambda a: oracles.build_parser().parse_args(cli._normalise_argv(list(a))),
            argv,
        )
        assert _outcome(cli.parse_argv, argv) == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--s", "x"], "ambiguous option: --s could match --spec, --seed, --samples"),
        (["--help", "--s"], "ambiguous option: --s could match"),
        (["twist", "--spec"], "argument --spec: expected one argument"),
        (["twist", "--spec", "s", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["twist", "--spec", "s", "--"], "unrecognized arguments: --"),
        (["twist", "--spec", "s", "--seed", "9" * 4301], "argument --seed: invalid int value: '999"),
        (["--help=1"], "argument -h/--help: ignored explicit argument '1'"),
        ([], "the following arguments are required: verb, --spec"),
    ],
)
def test_a_malformed_command_line_exits_two_with_usage(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.parse_argv(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: algebroids ")
    assert f"algebroids: error: {message}" in err


@pytest.mark.parametrize(
    "argv, values",
    [
        (["--sp", "s", "twist", "--seed", "-5"], {"spec": "s", "seed": -5}),
        (["--o=r", "--spec=-a b", "twist"], {"spec": "-a b", "out": "r"}),
        (["twist", "--spec", "a", "--spec", "b"], {"spec": "b"}),
        (["--spec", "s", "--", "twist"], {"spec": "s"}),
        (["--spec", "s", "twist", "--samples", "1_0"], {"spec": "s", "samples": 10}),
        (["--spec", "s", "twist", "--seed", "9" * 4300], {"spec": "s", "seed": int("9" * 4300)}),
    ],
)
def test_the_reader_takes_argparse_spellings(argv, values):
    expected = {"verb": "twist", "spec": None, "out": None, "seed": 0, "samples": 100}
    assert vars(cli.parse_argv(argv)) == expected | values


# Dash-free values of each option; those of the int options convert.
PLAIN_VALUES = {
    str: ["", "job.json", "out/r.json", "7", "1_0", " 5"],
    int: ["7", "1_0", " 5", "0"],
}


def _plain_argv():
    """Plain lines: one verb and --spec, with up to four more options, in
    any order and repeated; each option spelled in full, with its value as
    the next token or after `=`."""

    def spell(name):
        value = st.sampled_from(PLAIN_VALUES[cli.OPTIONS[name][0]])
        return st.one_of(
            value.map(lambda v: [name, v]), value.map(lambda v: [f"{name}={v}"])
        )

    verb = st.sampled_from(VERBS).map(lambda v: [v])
    option = st.sampled_from(list(cli.OPTIONS)).flatmap(spell)
    lines = st.tuples(verb, spell("--spec"), st.lists(option, max_size=4)).flatmap(
        lambda t: st.permutations([t[0], t[1], *t[2]])
    )
    return lines.map(lambda parts: sum(parts, []))


def _no_parser():
    raise AssertionError("a plain line built an argparse parser")


@given(_plain_argv())
@settings(max_examples=200, deadline=None)
def test_plain_lines_are_read_without_a_parser(argv):
    """parse_argv reads a plain line as the argparse reference does, and
    builds no parser for it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parser", _no_parser)
        got = vars(cli.parse_argv(argv))
    assert got == vars(oracles.build_parser().parse_args(argv))


def test_golden_and_benchmark_lines_build_no_parser(tmp_path, monkeypatch):
    """The command line of every golden report, and the battery line shape
    of perfbench/workloads.py, are plain."""
    from test_acceptance import (
        _battery_jobs,
        _pullback_mode_jobs,
        _single_jobs,
        golden_argv,
    )

    monkeypatch.setattr(cli, "_parser", _no_parser)
    names = {verb: verb for verb in _battery_jobs()}
    names |= {f"pullback-{mode}": "pullback" for mode in _pullback_mode_jobs()}
    names |= {name: verb for name, (verb, _) in _single_jobs().items()}
    lines = [
        golden_argv(verb, tmp_path / f"{name}.json", tmp_path / f"{name}.report.json")
        for name, verb in names.items()
    ]
    lines += [
        [v, "--spec", f"specs/{v}.json", "--out", f"{v}.0.report.json",
         "--seed", "123456", "--samples", "10"]
        for v in VERBS
    ]
    for argv in lines:
        assert cli.parse_argv(argv).verb == argv[0]


def _argparse_reads(argv, dest):
    """What the argparse of the running interpreter reads for dest from
    argv, or None where it refuses the line."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return getattr(cli._parser().parse_args(argv), dest)
        except SystemExit:
            return None


def _exit_code(argv):
    """The code main returns, or the code it exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_a_spec_of_a_bare_double_dash_exits_two(tmp_path, capsys, monkeypatch):
    """argparse up to 3.12 reads --spec=-- as an empty list, which main
    refuses as argparse refuses --spec with no value; 3.13 reads the path
    `--`, which is not a spec that can be read."""
    monkeypatch.chdir(tmp_path)
    argv = ["check-lie", "--spec=--"]
    if _argparse_reads(argv, "spec") == []:
        message = "algebroids: error: argument --spec: expected one argument"
    else:
        message = "error: cannot read spec"
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("option", ["--out", "--seed", "--samples"])
def test_an_option_of_a_bare_double_dash_is_refused_or_read_as_the_value(
    tmp_path, capsys, monkeypatch, option
):
    """argparse up to 3.12 reads --out=--, --seed=-- and --samples=-- as an
    empty list: main exits 2 as for the option with no value, and reads no
    spec. 3.13 reads the value `--`: --out writes the report to the file
    `--`, and argparse itself refuses the int options."""
    monkeypatch.chdir(tmp_path)
    spec, _ = PASSING_JOBS["check-lie"]()
    argv = ["check-lie", "--spec", write_job(tmp_path, spec), f"{option}=--"]
    value = _argparse_reads(argv, option[2:])
    if value == "--":
        assert main(argv) == 0
        assert json.loads((tmp_path / "--").read_text())["job"]["verb"] == "check-lie"
        return
    assert value in ([], None)
    read = []
    monkeypatch.setattr(jsonio, "load_json", read.append)
    assert _exit_code(argv) == 2
    assert read == []
    if value == []:
        err = capsys.readouterr().err
        assert err.startswith("usage: algebroids ")
        assert f"algebroids: error: argument {option}: expected one argument" in err


def test_unsupported_mode_exits_three(tmp_path, capsys):
    parabola = ChartMap(R1, R2, (Poly.coord(R1, 0), parse_poly("y1^2", R1)))
    spec = {
        "structure": jsonio.courant_to_json(Q2),
        "map": jsonio.map_to_json(parabola),
    }
    rc = main(["pullback", "--spec", write_job(tmp_path, spec)])
    assert rc == 3
    assert "unsupported mode" in capsys.readouterr().err


def _courant_assoc_spec(q=Q3):
    """The maps of the Lie assoc-c-plus spec on its Courant input: a
    structure on R3, with no connection (the coordinate one)."""
    spec = _assoc_spec()
    return {"structure": jsonio.courant_to_json(q), "maps": spec["maps"]}


def test_assoc_on_a_courant_structure_passes_with_or_without_its_connection(
    tmp_path, capsys
):
    spec = _courant_assoc_spec()
    assert main(["assoc-c-plus", "--spec", write_job(tmp_path, spec)]) == 0
    implicit = capsys.readouterr().out
    spec["connection"] = jsonio.matrix_to_json(coordinate_connection(Q3).columns)
    assert main(["assoc-c-plus", "--spec", write_job(tmp_path, spec)]) == 0
    assert capsys.readouterr().out == implicit
    names = [c["name"] for c in json.loads(implicit)["checks"]]
    assert names == sorted(
        ["composition_associative"]
        + [f"comparison.morphism_{n}" for n in ("anchor", "coanchor", "pairing", "bracket")]
    )


@pytest.mark.parametrize(
    "fields", [("algebroid", "structure"), (), None], ids=["both", "neither", "not-an-object"]
)
def test_assoc_needs_exactly_one_of_algebroid_and_structure(tmp_path, capsys, fields):
    spec = {**_assoc_spec(), **_courant_assoc_spec()}
    for key in {"algebroid", "structure"} - set(fields or ()):
        del spec[key]
    if fields is None:
        spec = list(spec.values())
    assert main(["assoc-c-plus", "--spec", write_job(tmp_path, spec)]) == 2
    assert "exactly one of the fields 'algebroid' and 'structure'" in capsys.readouterr().err


def test_assoc_on_a_courant_structure_of_another_rank_exits_three(tmp_path, capsys):
    """Q3 with one more generator, anchor-free, paired to 1 with itself and
    bracketing to zero: rank 7, not twice the dimension, so the exact-split
    presentation the Courant chain reads is unsupported."""
    from algebroids.courant import CourantData

    z = Poly.zero(R3)

    def pad(row):
        return tuple(row) + (z,)

    q = CourantData(
        R3,
        Q3.rank + 1,
        Q3.anchor + ((z, z, z),),
        tuple(map(pad, Q3.coanchor)),
        tuple(map(pad, Q3.pairing)) + ((z,) * Q3.rank + (Poly.one(R3),),),
        {key: pad(vec) for key, vec in Q3.structure.items()},
    )
    rc = main(["assoc-c-plus", "--spec", write_job(tmp_path, _courant_assoc_spec(q))])
    assert rc == 3
    assert "rank twice the target dimension" in capsys.readouterr().err


def test_reports_are_byte_identical_across_runs(tmp_path):
    spec = write_job(tmp_path, {"structure": jsonio.courant_to_json(Q2)})
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["tau-roundtrip", "--spec", spec, "--samples", "4", "--seed", "9"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_out_flag_keeps_stdout_quiet(tmp_path, capsys):
    spec, _ = PASSING_JOBS["check-courant"]()
    out = tmp_path / "report.json"
    main(["check-courant", "--spec", write_job(tmp_path, spec), "--out", str(out)])
    assert capsys.readouterr().out == ""


def test_stdout_report_parses(tmp_path, capsys):
    spec, _ = PASSING_JOBS["twist"]()
    rc = main(["twist", "--spec", write_job(tmp_path, spec)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["bracket"]


def test_the_max_degree_option_exits_two(tmp_path, capsys):
    spec, _ = PASSING_JOBS["check-lie"]()
    with pytest.raises(SystemExit) as exc:
        main(["check-lie", "--spec", write_job(tmp_path, spec), "--max-degree", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-degree" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["check-dirac", "dirac-pushdown"])
def test_a_repeated_support_coordinate_exits_two(tmp_path, capsys, verb):
    spec, _ = PASSING_JOBS[verb]()
    spec["dirac"]["support"] = ["x3", "x3"]
    assert main([verb, "--spec", write_job(tmp_path, spec)]) == 2
    assert "support names 'x3' twice" in capsys.readouterr().err


def test_pushdown_report_prefixes_both_sides(tmp_path, capsys):
    spec, _ = PASSING_JOBS["dirac-pushdown"]()
    rc = main(["dirac-pushdown", "--spec", write_job(tmp_path, spec)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    names = {c["name"] for c in payload["checks"]}
    assert "input.isotropy" in names
    assert "output.closure" in names
    assert payload["result"]["support"] == []


def test_module_entry_point(tmp_path):
    spec, _ = PASSING_JOBS["check-courant"]()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "algebroids.cli",
            "check-courant",
            "--spec",
            write_job(tmp_path, spec),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["job"]["verb"] == "check-courant"


def _set_rank(key, value):
    def edit(spec):
        spec[key]["rank"] = value

    return edit


def _set_degree(spec):
    spec["form"]["degree"] = "three"


def _set_weight(spec):
    spec["weights"][1] = "one"


@pytest.mark.parametrize(
    "verb, edit, field",
    [
        ("check-courant", _set_rank("structure", "2.5"), "'rank'"),
        ("check-lie", _set_rank("algebroid", "two"), "'rank'"),
        ("check-lie", _set_rank("algebroid", 2.5), "'rank'"),
        ("twist", _set_degree, "'degree'"),
        ("tau-linear", _set_weight, "weights[1]"),
    ],
    ids=["courant-rank", "lie-rank", "lie-float-rank", "form-degree", "weight"],
)
def test_malformed_numbers_exit_two_naming_the_field(tmp_path, verb, edit, field):
    spec, _ = PASSING_JOBS[verb]()
    edit(spec)
    proc = subprocess.run(
        [sys.executable, "-m", "algebroids.cli", verb, "--spec", write_job(tmp_path, spec)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "bad job spec" in proc.stderr and field in proc.stderr
    assert "Traceback" not in proc.stderr


S3 = Chart("S", ("x", "y", "z"))


def _letters_lie():
    from algebroids.lie_algebroid import tangent_algebroid

    return {"algebroid": jsonio.lie_to_json(tangent_algebroid(Chart("S", ("x", "y"))))}


def _letters_dirac():
    return {
        "structure": jsonio.courant_to_json(standard_exact(S3, KForm.zero(S3, 3))),
        "dirac": {
            "support": ["z"],
            "generators": [
                ["1", "0", "0", "0", "x", "0"],
                ["0", "1", "0", "-x", "0", "0"],
                ["0", "0", "0", "0", "0", "1"],
            ],
        },
    }


COORDS = ("algebroid", "chart", "coords")


def _set(path, value):
    def edit(spec):
        for key in path[:-1]:
            spec = spec[key]
        spec[path[-1]] = value

    return edit


def _keyed(key):
    def edit(spec):
        spec[key] = {f"item{i}": item for i, item in enumerate(spec[key])}

    return edit


@pytest.mark.parametrize(
    "verb, job, edit, field",
    [
        ("check-lie", _letters_lie, _set(COORDS, "xy"), "coords"),
        ("check-lie", _letters_lie, _set(COORDS, {"x": 1, "y": 2}), "coords"),
        ("check-dirac", _letters_dirac, _set(("dirac", "support"), "z"), "support"),
        ("tau-linear", None, _set(("weights",), "12"), "weights"),
        ("tau-linear", None, _keyed("parts"), "parts"),
        ("tau-linear", None, _keyed("connections"), "connections"),
        ("assoc-c-plus", None, _keyed("maps"), "maps"),
    ],
    ids=[
        "coords-string",
        "coords-object",
        "support-string",
        "weights-string",
        "parts-object",
        "connections-object",
        "maps-object",
    ],
)
def test_list_fields_must_be_json_lists(tmp_path, capsys, verb, job, edit, field):
    spec, extra = (job(), []) if job else PASSING_JOBS[verb]()
    assert main([verb, "--spec", write_job(tmp_path, spec, "good.json")] + extra) == 0
    edit(spec)
    capsys.readouterr()
    assert main([verb, "--spec", write_job(tmp_path, spec)] + extra) == 2
    err = capsys.readouterr().err
    assert "bad job spec" in err and f"field {field!r} must be a list" in err


@pytest.mark.parametrize(
    "verb, edit, field",
    [
        ("check-courant", _set(("structure", "bracket"), []), "bracket"),
        ("check-lie", _set(("algebroid", "bracket"), []), "bracket"),
        ("twist", _set(("form", "comps"), ["x1"]), "comps"),
        ("cocycle", _set(("cover", "maps"), [["x1", "x2"]]), "maps"),
        ("cocycle", _set(("cover", "table"), [["s", "s"]]), "table"),
        ("cocycle", _set(("matrices",), []), "matrices"),
    ],
    ids=[
        "structure-bracket",
        "algebroid-bracket",
        "form-comps",
        "cover-maps",
        "cover-table",
        "matrices",
    ],
)
def test_object_fields_must_be_json_objects(tmp_path, capsys, verb, edit, field):
    spec, extra = PASSING_JOBS[verb]()
    edit(spec)
    assert main([verb, "--spec", write_job(tmp_path, spec)] + extra) == 2
    err = capsys.readouterr().err
    assert "bad job spec" in err and f"field {field!r} must be an object" in err


@pytest.mark.parametrize(
    "edit",
    [
        lambda conns: conns + ["not even a matrix"],
        lambda conns: conns[:1],
    ],
    ids=["extra", "missing"],
)
def test_tau_linear_needs_one_connection_per_summand(tmp_path, capsys, edit):
    """A connections list longer or shorter than parts is a bad spec (exit
    2): no entry is dropped unread."""
    spec, extra = PASSING_JOBS["tau-linear"]()
    spec["connections"] = edit(spec["connections"])
    assert main(["tau-linear", "--spec", write_job(tmp_path, spec)] + extra) == 2
    err = capsys.readouterr().err
    assert "bad job spec" in err and "one connection per summand" in err


def test_an_internal_error_exits_five_with_a_traceback(tmp_path, capsys, monkeypatch):
    from algebroids import cli

    def broken(spec, args):
        raise TypeError("handler bug")

    monkeypatch.setitem(cli.HANDLERS, "check-lie", broken)
    spec, extra = PASSING_JOBS["check-lie"]()
    assert main(["check-lie", "--spec", write_job(tmp_path, spec)] + extra) == 5
    err = capsys.readouterr().err
    assert "Traceback" in err and "internal error" in err and "handler bug" in err


def test_embedding_mode_on_a_non_embedding_exits_three(tmp_path, capsys):
    y = coordinate_chart("Y", 2, prefix="y")
    flatten = ChartMap(y, R2, (Poly.coord(y, 0), Poly.zero(y)))
    spec = {
        "structure": jsonio.courant_to_json(Q2),
        "map": jsonio.map_to_json(flatten),
        "mode": "coordinate-embedding",
    }
    rc = main(["pullback", "--spec", write_job(tmp_path, spec)])
    assert rc == 3
    assert "unsupported mode" in capsys.readouterr().err


def test_dependent_conormal_directions_exit_three(tmp_path, capsys):
    """Both coordinates of R2 cut at the origin, with coanchor row 1 equal to
    row 0: the two pulled conormal directions coincide."""
    from algebroids.courant import CourantData
    from algebroids.errors import UnsupportedModeError
    from algebroids.pullback import pullback_courant

    q = CourantData(
        R2, Q2.rank, Q2.anchor, (Q2.coanchor[0],) * 2, Q2.pairing, Q2.structure
    )
    origin = Chart("O", ())
    f = ChartMap(origin, R2, (Poly.zero(origin), Poly.zero(origin)))
    with pytest.raises(UnsupportedModeError, match="conormal directions are dependent"):
        pullback_courant(f, q)
    spec = {"structure": jsonio.courant_to_json(q), "map": jsonio.map_to_json(f)}
    rc = main(["pullback", "--spec", write_job(tmp_path, spec)])
    assert rc == 3
    assert "conormal directions are dependent" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["pullback", "twist-commute"])
@pytest.mark.parametrize(
    "mode", [["identity"], 3, {}, "identty", "transitive-split"]
)
def test_a_mode_that_is_not_a_mode_name_exits_two(tmp_path, capsys, verb, mode):
    spec, _ = PASSING_JOBS[verb]()
    spec["mode"] = mode
    rc = main([verb, "--spec", write_job(tmp_path, spec)])
    assert rc == 2
    assert "mode" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["check-courant", "pullback", "twist"])
def test_courant_verbs_run_with_the_echoed_seed_and_samples(
    tmp_path, monkeypatch, verb
):
    from algebroids import cli

    seen = []
    real = cli.check_courant

    def spy(q, samples=100, seed=0):
        seen.append((seed, samples))
        return real(q, samples=samples, seed=seed)

    monkeypatch.setattr(cli, "check_courant", spy)
    spec, _ = PASSING_JOBS[verb]()
    out = tmp_path / "report.json"
    argv = [verb, "--spec", write_job(tmp_path, spec), "--out", str(out)]
    assert main(argv + ["--seed", "5", "--samples", "3"]) == 0
    assert seen == [(5, 3)]
    job = json.loads(out.read_text(encoding="utf-8"))["job"]
    assert (job["seed"], job["samples"]) == (5, 3)


@pytest.mark.parametrize(
    "options",
    [[], ["--samples", "4"], ["--seed", "9", "--samples", "1000"]],
)
@pytest.mark.parametrize(
    "verb", ["check-courant", "pullback", "twist", "check-lie", "tau-roundtrip"]
)
def test_verdict_verbs_call_no_sampling_function(tmp_path, monkeypatch, verb, options):
    """The verbs that once sampled decide every verdict exactly, whatever
    --seed and --samples say."""
    from algebroids import sampling

    called = []
    for name in ("sample_poly", "sample_section", "sample_kform"):
        real = getattr(sampling, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            called.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(sampling, name, spy)
    spec, _ = PASSING_JOBS[verb]()
    argv = [verb, "--spec", write_job(tmp_path, spec), "--out", str(tmp_path / "r")]
    assert main(argv + options) == 0
    assert called == []


@pytest.mark.parametrize("module", ["courant", "lie_algebroid", "transgression"])
def test_verdict_modules_import_no_random_source(module):
    import ast
    import importlib

    path = importlib.import_module(f"algebroids.{module}").__file__
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert not imported & {"random", "algebroids.sampling"}


def test_importing_the_cli_loads_every_module():
    script = (
        "import pkgutil, sys, algebroids, algebroids.cli\n"
        "names = (m.name for m in pkgutil.iter_modules(algebroids.__path__))\n"
        "print(sorted(n for n in names if 'algebroids.' + n not in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_loads_neither_argparse_nor_gettext():
    script = (
        "import sys, algebroids.cli\n"
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cocycle_with_a_failing_first_element_exits_one(tmp_path, capsys):
    from algebroids.descent import CoverData, tautological_datum

    spec, _ = PASSING_JOBS["cocycle"]()
    x1, x2 = Poly.coord(R2, 0), Poly.coord(R2, 1)
    cover = CoverData(
        R2,
        {
            "one": ChartMap.identity(R2),
            "s": ChartMap(R2, R2, (x1, x2 + x1 * x1)),
            "s2": ChartMap(R2, R2, (x1, x2 + 2 * x1 * x1)),
        },
        {("s", "s"): "s2", ("one", "s"): "s", ("s", "one"): "s"},
    )
    matrices = dict(tautological_datum(cover, Q2).matrices)
    matrices["one"] = tuple(tuple(2 * p for p in row) for row in matrices["one"])
    spec["matrices"] = {
        name: jsonio.matrix_to_json(m) for name, m in matrices.items()
    }
    rc = main(["cocycle", "--spec", write_job(tmp_path, spec)])
    assert rc == 1
    checks = {
        c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]
    }
    failing = checks["element_preservation"]
    assert failing["status"] == "fail"
    assert failing["counterexample"].startswith("element one")


def test_degree_overflow_exits_four_as_a_resource_limit(tmp_path, capsys):
    steep = ChartMap(
        R3,
        R3,
        (
            Poly.coord(R3, 0),
            parse_poly("x2 + x1^4", R3),
            parse_poly("x3 + x1^9*x2^8", R3),
        ),
    )
    spec = {
        "structure": jsonio.courant_to_json(Q3_FLAT),
        "map": jsonio.map_to_json(steep),
        "form": jsonio.kform_to_json(VOL),
    }
    rc = main(["twist-commute", "--spec", write_job(tmp_path, spec)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "resource limit" in err
    assert "bad job spec" not in err
