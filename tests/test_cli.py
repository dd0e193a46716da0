"""End-to-end runs of the command-line verbs on small job files."""

import json
import subprocess
import sys

import pytest

from algebroids import jsonio
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


def test_missing_field_exits_two(tmp_path):
    assert main(["check-courant", "--spec", write_job(tmp_path, {})]) == 2


def test_bad_polynomial_exits_two_with_position(tmp_path, capsys):
    spec = {"structure": jsonio.courant_to_json(Q2)}
    spec["structure"]["anchor"][0][0] = "x1 +"
    assert main(["check-courant", "--spec", write_job(tmp_path, spec)]) == 2
    assert "position" in capsys.readouterr().err


def test_verb_flag_spelling(tmp_path):
    spec, _ = PASSING_JOBS["check-courant"]()
    path = write_job(tmp_path, spec)
    assert main(["--verb", "check-courant", "--spec", path]) == 0
    assert main(["--spec", path, "--verb=check-courant"]) == 0


def test_unsupported_mode_exits_three(tmp_path, capsys):
    parabola = ChartMap(R1, R2, (Poly.coord(R1, 0), parse_poly("y1^2", R1)))
    spec = {
        "structure": jsonio.courant_to_json(Q2),
        "map": jsonio.map_to_json(parabola),
    }
    rc = main(["pullback", "--spec", write_job(tmp_path, spec)])
    assert rc == 3
    assert "unsupported mode" in capsys.readouterr().err


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


def test_job_echo_includes_max_degree(tmp_path, capsys):
    spec, _ = PASSING_JOBS["check-lie"]()
    rc = main(
        [
            "check-lie",
            "--spec",
            write_job(tmp_path, spec),
            "--samples",
            "5",
            "--max-degree",
            "1",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["job"]["max_degree"] == 1
    assert payload["job"]["samples"] == 5


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

    def spy(q, samples=100, seed=0, max_degree=None):
        seen.append((seed, samples))
        return real(q, samples=samples, seed=seed, max_degree=max_degree)

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
    [[], ["--samples", "4", "--max-degree", "1"], ["--seed", "9", "--samples", "1000"]],
)
@pytest.mark.parametrize(
    "verb", ["check-courant", "pullback", "twist", "check-lie", "tau-roundtrip"]
)
def test_verdict_verbs_call_no_sampling_function(tmp_path, monkeypatch, verb, options):
    """The verbs that once sampled decide every verdict exactly, whatever
    --seed, --samples and --max-degree say."""
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
