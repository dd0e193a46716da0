"""Command-line checks over JSON job specs.

Every verb reads a spec file, runs exact checks, and writes a deterministic
JSON report (sorted keys, no timestamps): running the same job twice gives
byte-identical output. Exit codes: 0 all checks passed, 1 some check
failed, 2 the spec was unreadable (or not UTF-8) or inconsistent, or the
report could not be written, 3 the job needs an unsupported presentation
mode, 4 the job hit a resource limit (a polynomial product above the
total-degree cap), 5 an internal error: an exception that is not an
AlgebroidError, printed with its traceback on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

# sampling goes with --seed/--samples (ROADMAP item 1). No verdict uses
# it, but importing the CLI still loads every module.
from algebroids import jsonio, sampling  # noqa: F401
from algebroids.courant import (
    check_courant,
    coordinate_connection,
    curvature,
    twist,
)
from algebroids.descent import check_cocycle
from algebroids.dirac import check_dirac
from algebroids.errors import (
    AlgebroidError,
    DegreeOverflowError,
    UnsupportedModeError,
    ValidationError,
)
from algebroids.lie_algebroid import (
    check_compose_associative,
    check_lie_algebroid,
)
from algebroids.pullback import (
    check_curvature_pullback,
    check_relation_absorption,
    check_twist_commute,
    dirac_pushdown,
    morphism_graph,
    pullback_courant,
)
from algebroids.report import Report
from algebroids.transgression import (
    check_tau_rules,
    check_transgression_linear,
    courant_from_transgression,
    transgress,
)


def _structure(spec):
    return jsonio.courant_from_json(
        jsonio._require(spec, "structure", "spec")
    )


def _map(spec):
    return jsonio.map_from_json(jsonio._require(spec, "map", "spec"))


def _connection(spec, q):
    return jsonio.optional_connection(spec, q) or coordinate_connection(q)


def _sampling(args) -> dict:
    """The seed and sample count the checks accept; no verdict uses them
    any more, and the report echoes them."""
    return {"samples": args.samples, "seed": args.seed}


def _run_check_lie(spec, args):
    a = jsonio.lie_from_json(jsonio._require(spec, "algebroid", "spec"))
    return check_lie_algebroid(a, **_sampling(args)), {}


def _run_check_courant(spec, args):
    return check_courant(_structure(spec), **_sampling(args)), {}


def _run_check_dirac(spec, args):
    q = _structure(spec)
    d = jsonio.dirac_from_json(jsonio._require(spec, "dirac", "spec"), q)
    mode = spec.get("maximality", "full")
    return check_dirac(d, maximality=mode), {}


def _run_pullback(spec, args):
    q = _structure(spec)
    f = _map(spec)
    pb = pullback_courant(f, q, spec.get("mode"), jsonio.optional_connection(spec, q))
    rep = check_courant(pb.result, **_sampling(args))
    rep.merge(check_relation_absorption(pb))
    return rep, {"result": jsonio.courant_to_json(pb.result)}


def _run_twist(spec, args):
    q = _structure(spec)
    h = jsonio.kform_from_json(
        jsonio._require(spec, "form", "spec"), q.chart
    )
    out = twist(q, h)
    rep = check_courant(out, **_sampling(args))
    return rep, {"result": jsonio.courant_to_json(out)}


def _run_curvature(spec, args):
    q = _structure(spec)
    conn = _connection(spec, q)
    form = curvature(conn)
    rep = Report()
    if "expect" in spec:
        expected = jsonio.kform_from_json(spec["expect"], q.chart)
        ok = form == expected
        rep.add("curvature_matches_expected", ok, "computed curvature differs")
    else:
        rep.add("curvature_defined", True)
    return rep, {"form": jsonio.kform_to_json(form)}


def _run_tau_roundtrip(spec, args):
    q = _structure(spec)
    rep = check_tau_rules(q, **_sampling(args))
    rebuilt = courant_from_transgression(transgress(q))
    rep.add("roundtrip_exact", rebuilt == q, "rebuilt structure differs")
    return rep, {}


def _run_tau_linear(spec, args):
    parts = [
        jsonio.courant_from_json(p)
        for p in jsonio._require_list(spec, "parts", "spec")
    ]
    weights = [
        jsonio.rational_from_json(w, f"weights[{i}]")
        for i, w in enumerate(jsonio._require_list(spec, "weights", "spec"))
    ]
    conns = [
        jsonio.connection_from_json(c, q)
        for c, q in zip(jsonio._require_list(spec, "connections", "spec"), parts)
    ]
    return check_transgression_linear(parts, weights, conns), {}


def _run_cocycle(spec, args):
    return check_cocycle(jsonio.descent_from_json(spec, _structure(spec))), {}


def _run_twist_commute(spec, args):
    q = _structure(spec)
    f = _map(spec)
    h = jsonio.kform_from_json(
        jsonio._require(spec, "form", "spec"), q.chart
    )
    conn = jsonio.optional_connection(spec, q)
    return check_twist_commute(f, q, h, spec.get("mode"), conn), {}


def _run_curvature_pullback(spec, args):
    q = _structure(spec)
    f = _map(spec)
    conn = _connection(spec, q)
    measure = jsonio.optional_connection(spec, q, "measure") or conn
    pb = pullback_courant(f, q, "exact-split", conn)
    return check_curvature_pullback(pb, measure), {}


def _run_dirac_pushdown(spec, args):
    q = _structure(spec)
    d = jsonio.dirac_from_json(jsonio._require(spec, "dirac", "spec"), q)
    down = dirac_pushdown(d)
    rep = Report()
    rep.merge(check_dirac(d), prefix="input")
    rep.merge(check_dirac(down), prefix="output")
    return rep, {
        "result": jsonio.dirac_to_json(down),
        "structure": jsonio.courant_to_json(down.courant),
    }


def _run_morphism_graph(spec, args):
    q = _structure(spec)
    f = _map(spec)
    conn = _connection(spec, q)
    d = morphism_graph(f, q, conn)
    return check_dirac(d), {
        "ambient_rank": d.courant.rank,
        "generators": jsonio.matrix_to_json(d.generators),
    }


def _run_assoc(spec, args):
    a = jsonio.lie_from_json(jsonio._require(spec, "algebroid", "spec"))
    maps = [
        jsonio.map_from_json(m)
        for m in jsonio._require_list(spec, "maps", "spec")
    ]
    if len(maps) != 3:
        raise ValidationError("assoc-c-plus needs exactly three maps")
    splitting = jsonio.matrix_from_json(
        jsonio._require(spec, "splitting", "spec"), a.chart
    )
    return check_compose_associative(a, tuple(maps), splitting), {}


HANDLERS = {
    "check-lie": _run_check_lie,
    "check-courant": _run_check_courant,
    "check-dirac": _run_check_dirac,
    "pullback": _run_pullback,
    "twist": _run_twist,
    "curvature": _run_curvature,
    "tau-roundtrip": _run_tau_roundtrip,
    "tau-linear": _run_tau_linear,
    "cocycle": _run_cocycle,
    "twist-commute": _run_twist_commute,
    "curvature-pullback": _run_curvature_pullback,
    "dirac-pushdown": _run_dirac_pushdown,
    "morphism-graph": _run_morphism_graph,
    "assoc-c-plus": _run_assoc,
}
VERBS = tuple(HANDLERS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algebroids",
        description="Exact checks for Courant structures on polynomial charts.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--spec", required=True, help="path to the JSON job")
        p.add_argument("--out", help="report path (default: stdout)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=100)
    return parser


def _normalise_argv(argv):
    """Accept --verb NAME (or --verb=NAME) as a spelling of the subcommand."""
    for i, token in enumerate(argv):
        if token == "--verb" and i + 1 < len(argv):
            return [argv[i + 1]] + argv[:i] + argv[i + 2 :]
        if token.startswith("--verb="):
            return [token.split("=", 1)[1]] + argv[:i] + argv[i + 1 :]
    return argv


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_normalise_argv(list(argv)))
    try:
        spec = jsonio.load_json(args.spec)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 2

    try:
        report, extra = HANDLERS[args.verb](spec, args)
    except UnsupportedModeError as exc:
        print(f"error: unsupported mode: {exc}", file=sys.stderr)
        return 3
    except DegreeOverflowError as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 4
    except AlgebroidError as exc:
        print(f"error: bad job spec: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return 5

    params = {
        "seed": args.seed,
        "samples": args.samples,
        "spec": os.path.basename(args.spec),
    }
    payload = jsonio.report_to_json(report, args.verb, params)
    payload.update(extra)
    text = jsonio.dump_json(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
