"""Seeded job lists for the three workloads, each job with a known answer.

A pass is one list of jobs generated from ``(seed, pass index)``. A job is
one verdict: a ``cli.main`` call for ``battery``, the checker calls of one
generated instance for ``axioms`` and ``constructions``. ``Job.run`` is the
timed part; ``Job.verdict`` turns its result into ``{check name: passed}``
(plus the exit code for CLI jobs) outside the timed region.

Expected verdicts follow from the mathematics of each instance, never from
the program's output:

* a twisted standard structure on R^n satisfies every Courant identity iff
  its three-form is closed; on n <= 3 every three-form is closed, and on R4
  ``dB + c*x4*dx1^dx2^dx3`` (c != 0) is not, which breaks exactly the
  Jacobi identity in Leibniz form (the six pointwise compatibilities hold
  for any twist);
* triangular maps ``(x1, x2 + p(x1), x3 + q(x1, x2))`` have Jacobian
  determinant 1, so pullbacks, twist/pullback commutation, curvature
  pullback and morphism graphs hold by naturality;
* the Baer sum of the standard structures twisted by H1 and H2 is the
  standard structure twisted by H1 + H2;
* a constant twist is preserved by every cover map, so the tautological
  descent datum is a cocycle; composing one matrix with the shear of a
  nonzero closed two-form keeps every element an automorphism but breaks
  exactly the triple identity.

Module objects are looked up when a job runs, never bound when it is
built, so the in-memory patches of a traced run see every call.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("battery", "axioms", "constructions")

COURANT_CHECKS = (
    "eq1_anchor_coanchor",
    "eq2_leibniz_rule",
    "eq3_pairing_invariance",
    "eq4_coanchor_ideal",
    "eq5_adjunction",
    "eq6_symmetrization",
    "leibniz_identity",
)
TAU_CHECKS = (
    "rule_c_central",
    "rule_one_form_rewrite",
    "rule_interior_action",
    "rule_lie_action",
    "rule_odd_pairing",
    "rule_mixed_bracket",
    "graded_antisymmetry",
    "graded_jacobi",
    "truncation_guard",
)
LIE_CHECKS = ("antisymmetry", "anchor_morphism", "jacobi_identity", "leibniz_rule")
DIRAC_CHECKS = ("isotropy", "maximality", "anchor_tangency", "closure")
ABSORPTION_CHECKS = ("relations_isotropic", "relations_bracket_closed")
TWIST_COMMUTE_CHECKS = ("twist_commute_frame", "twist_commute_structure")
COCYCLE_CHECKS = ("cover_composition", "element_preservation", "triple_identity")

# The 14 verbs of the acceptance battery. check-courant, pullback and twist
# call check_courant with its own seed and sample count whatever the CLI
# says, so a second CLI seed would repeat identical work: each battery pass
# runs them at one seed and the other eleven verbs at two.
VERBS = (
    "check-lie",
    "check-courant",
    "check-dirac",
    "pullback",
    "twist",
    "curvature",
    "tau-roundtrip",
    "tau-linear",
    "cocycle",
    "twist-commute",
    "curvature-pullback",
    "dirac-pushdown",
    "morphism-graph",
    "assoc-c-plus",
)
SEED_BLIND_VERBS = ("check-courant", "pullback", "twist")
CLI_SAMPLES = "10"


@dataclass
class Expected:
    """A known answer: checks that must be reported, the ones that must
    fail (every other reported check must pass), and a CLI exit code."""

    names: tuple[str, ...] = ()
    fail: frozenset = frozenset()
    exit_code: int | None = None


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    verdict: Callable[[object], tuple[dict, int | None]]
    expected: Expected


def verdict_matches(expected: Expected, checks: dict, exit_code) -> bool:
    """Compare only check names, pass/fail status and the exit code.

    Checks the program adds later are tolerated as long as they pass.
    """
    if not checks or exit_code != expected.exit_code:
        return False
    if not set(expected.names) | expected.fail <= checks.keys():
        return False
    return all(passed == (name not in expected.fail) for name, passed in checks.items())


def _report_checks(rep) -> tuple[dict, None]:
    return {c.name: c.passed for c in rep.checks}, None


def _merged_checks(reports) -> tuple[dict, None]:
    return {c.name: c.passed for rep in reports for c in rep.checks}, None


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _coeff(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _poly(rng: random.Random, chart, shape):
    """A polynomial with one term per (coordinate indices, degree) entry of
    shape, each a monomial of that degree in those coordinates with a
    nonzero coefficient in [-3, 3]."""
    from algebroids.symcalc import Poly

    terms: dict = {}
    for indices, degree in shape:
        exps = [0] * chart.dim
        for _ in range(degree):
            exps[rng.choice(indices)] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + _coeff(rng)
    return Poly(chart, terms)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def battery_specs() -> dict:
    """The benchmark's own copy of the acceptance battery's 14 job specs."""
    from algebroids import jsonio
    from algebroids.courant import coordinate_connection, standard_exact
    from algebroids.lie_algebroid import tangent_algebroid, trivial_extension
    from algebroids.symcalc import ChartMap, KForm, Poly, coordinate_chart, parse_poly

    r3 = coordinate_chart("X", 3)
    p2 = coordinate_chart("P", 2)
    l1 = coordinate_chart("L", 1, prefix="y")
    t1 = coordinate_chart("T", 1)
    w1 = coordinate_chart("W", 1, prefix="w")
    vol = KForm(r3, 3, {(0, 1, 2): Poly.const(r3, 1)})
    flat = jsonio.courant_to_json(standard_exact(r3))
    twisted = jsonio.courant_to_json(standard_exact(r3, vol))
    q2 = jsonio.courant_to_json(standard_exact(p2))
    shear = jsonio.map_to_json(
        ChartMap(r3, r3, (Poly.coord(r3, 0), Poly.coord(r3, 1), parse_poly("x3 + x1*x2", r3)))
    )
    vol_json = jsonio.kform_to_json(vol)
    supported = {
        "support": ["x3"],
        "generators": [
            ["1", "0", "0", "0", "x1", "0"],
            ["0", "1", "0", "-x1", "0", "0"],
            ["0", "0", "0", "0", "0", "1"],
        ],
    }
    conn2 = jsonio.matrix_to_json(coordinate_connection(standard_exact(p2)).columns)
    ext = trivial_extension(tangent_algebroid(r3)).total.lie
    return {
        "check-lie": {"algebroid": jsonio.lie_to_json(tangent_algebroid(p2))},
        "check-courant": {"structure": twisted},
        "check-dirac": {"structure": flat, "dirac": supported},
        "pullback": {"structure": twisted, "map": shear},
        "twist": {"structure": flat, "form": vol_json},
        "curvature": {"structure": twisted, "expect": vol_json},
        "tau-roundtrip": {"structure": q2},
        "tau-linear": {
            "parts": [q2, q2],
            "weights": ["1", "-1"],
            "connections": [conn2, conn2],
        },
        "cocycle": {
            "structure": q2,
            "cover": {
                "maps": {
                    "one": ["x1", "x2"],
                    "s": ["x1", "x2 + x1^2"],
                    "s2": ["x1", "x2 + 2*x1^2"],
                },
                "table": {"s,s": "s2", "one,s": "s", "s,one": "s"},
            },
        },
        "twist-commute": {"structure": flat, "map": shear, "form": vol_json},
        "curvature-pullback": {"structure": twisted, "map": shear},
        "dirac-pushdown": {"structure": flat, "dirac": supported},
        "morphism-graph": {
            "structure": jsonio.courant_to_json(standard_exact(t1)),
            "map": jsonio.map_to_json(ChartMap(l1, t1, (parse_poly("y1^2", l1),))),
        },
        "assoc-c-plus": {
            "algebroid": jsonio.lie_to_json(ext),
            "maps": [
                jsonio.map_to_json(
                    ChartMap(
                        p2,
                        r3,
                        (Poly.coord(p2, 0), Poly.coord(p2, 1), parse_poly("x1*x2", p2)),
                    )
                ),
                jsonio.map_to_json(
                    ChartMap(l1, p2, (Poly.coord(l1, 0), parse_poly("y1^2", l1)))
                ),
                jsonio.map_to_json(ChartMap(w1, l1, (parse_poly("w1^2", w1),))),
            ],
            "splitting": [
                ["1", "0", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "1", "0"],
            ],
        },
    }


def write_battery_specs(workdir: str) -> dict:
    """Write the spec files; returns verb -> spec path."""
    from algebroids import jsonio

    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for verb, spec in battery_specs().items():
        path = os.path.join(workdir, f"{verb}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(jsonio.dump_json(spec))
        paths[verb] = path
    return paths


def _read_report(path_and_rc) -> tuple[dict, int]:
    import json

    path, rc = path_and_rc
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return {c["name"]: c["status"] == "pass" for c in payload["checks"]}, rc


def battery_jobs(seed: int, pass_index: int, spec_paths: dict, workdir: str) -> list[Job]:
    from algebroids import cli

    rng = _rng("battery", seed, pass_index)
    cli_seeds = (rng.randrange(10**6), rng.randrange(10**6))
    jobs = []
    for k, cli_seed in enumerate(cli_seeds):
        for verb in VERBS:
            if k and verb in SEED_BLIND_VERBS:
                continue
            out = os.path.join(workdir, f"{verb}.{k}.report.json")
            argv = [
                verb,
                "--spec",
                spec_paths[verb],
                "--out",
                out,
                "--seed",
                str(cli_seed),
                "--samples",
                CLI_SAMPLES,
            ]

            def run(argv=argv, out=out):
                return out, cli.main(argv)

            jobs.append(Job(verb, run, _read_report, Expected(exit_code=0)))
    return jobs


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def axioms_jobs(seed: int, pass_index: int) -> list[Job]:
    """Twisted standard structures on R1..R4, and tangent algebroids of
    R1..R4. A job is the checker calls of one instance: check_courant (100
    samples) and check_tau_rules for a structure, check_lie_algebroid for a
    tangent algebroid. Three of the nine structures per pass are
    refutations, which run check_courant only: the tau rules make no
    promise on them."""
    from algebroids import courant, lie_algebroid, transgression
    from algebroids.symcalc import KForm, coordinate_chart

    rng = _rng("axioms", seed, pass_index)
    charts = {n: coordinate_chart(f"R{n}", n) for n in (1, 2, 3, 4)}
    r3, r4 = charts[3], charts[4]
    jobs: list[Job] = []
    passing = Expected(names=COURANT_CHECKS + TAU_CHECKS)
    refuted = Expected(names=COURANT_CHECKS, fail=frozenset({"leibniz_identity"}))

    def add_structure(q, refutation=False):
        check_seed = rng.randrange(10**6)
        n = q.chart.dim
        if refutation:
            jobs.append(Job(
                f"courant.R{n}.refuted",
                lambda: [courant.check_courant(q, samples=100, seed=check_seed)],
                _merged_checks,
                refuted,
            ))
            return
        jobs.append(Job(
            f"courant+tau.R{n}",
            lambda: [
                courant.check_courant(q, samples=100, seed=check_seed),
                transgression.check_tau_rules(q, samples=10, seed=check_seed),
            ],
            _merged_checks,
            passing,
        ))

    def exact_on_r4():
        # dB for B = m dx_i^dx_j, m involving a coordinate outside {i, j}, so dB != 0
        i, j = sorted(rng.sample(range(4), 2))
        other = rng.choice([k for k in range(4) if k not in (i, j)])
        m = _poly(rng, r4, [((other,), 1)]) * _poly(rng, r4, [((0, 1, 2, 3), 1)])
        return KForm(r4, 2, {(i, j): m}).d()

    for n in (1, 2):
        for _ in range(2):
            add_structure(courant.standard_exact(charts[n]))
    h = _poly(rng, r3, [((0,), 0), ((0, 1, 2), 1), ((0, 1, 2), 2)])
    add_structure(courant.standard_exact(r3, KForm(r3, 3, {(0, 1, 2): h})))
    add_structure(courant.standard_exact(r4, exact_on_r4()))
    for _ in range(3):
        not_closed = KForm(r4, 3, {(0, 1, 2): _poly(rng, r4, [((3,), 1)])})
        add_structure(courant.standard_exact(r4, exact_on_r4() + not_closed), refutation=True)
    for n in (1, 2, 3, 4):
        a = lie_algebroid.tangent_algebroid(charts[n])
        lie_seed = rng.randrange(10**6)
        jobs.append(
            Job(
                f"check_lie_algebroid.R{n}",
                lambda a=a, s=lie_seed: lie_algebroid.check_lie_algebroid(a, seed=s),
                _report_checks,
                Expected(names=LIE_CHECKS),
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

# One entry per map of a pass: the degree of p and the exponents of the
# leading monomial x1^a*x2^b of q. Every pass covers the same shapes, all of
# degree <= 3, so passes differ in coefficients, not in cost class.
MAP_SHAPES = ((2, (2, 0)), (3, (1, 1)), (2, (0, 2)), (3, (2, 1)), (2, (1, 2)), (3, (3, 0)))


def constructions_jobs(seed: int, pass_index: int) -> list[Job]:
    """Exact generator work along seeded triangular automorphisms of R3:
    six jobs per map, of which every third cocycle job is a refutation."""
    from algebroids import courant, descent, dirac, pullback
    from algebroids.symcalc import ChartMap, KForm, Poly, coordinate_chart

    rng = _rng("constructions", seed, pass_index)
    r3 = coordinate_chart("X", 3)
    jobs: list[Job] = []

    def twist_form():
        return KForm(r3, 3, {(0, 1, 2): _poly(rng, r3, [((0,), 0), ((0, 1, 2), 1)])})

    for k, (p_degree, (a, b)) in enumerate(MAP_SHAPES):
        p = Poly(r3, {(p_degree, 0, 0): _coeff(rng), (1, 0, 0): _coeff(rng)})
        q = Poly(r3, {(a, b, 0): _coeff(rng), (1, 0, 0): _coeff(rng)})
        f = ChartMap(
            r3, r3, (Poly.coord(r3, 0), Poly.coord(r3, 1) + p, Poly.coord(r3, 2) + q)
        )
        h1, h2, h_twist = twist_form(), twist_form(), twist_form()
        q1 = courant.standard_exact(r3, h1)
        q2 = courant.standard_exact(r3, h2)
        q_const = courant.standard_exact(
            r3, KForm(r3, 3, {(0, 1, 2): _poly(rng, r3, [((0,), 0)])})
        )
        broken = k % 3 == 2
        closed_b = KForm(r3, 2, {(0, 1): _poly(rng, r3, [((0, 1), 1)])})

        def relation_absorption(f=f, q1=q1):
            return pullback.check_relation_absorption(pullback.pullback_courant(f, q1))

        def twist_commute(f=f, q1=q1, h=h_twist):
            return pullback.check_twist_commute(f, q1, h)

        def curvature_pullback(f=f, q1=q1):
            conn = courant.coordinate_connection(q1)
            pb = pullback.pullback_courant(f, q1, "exact-split", conn)
            return pullback.check_curvature_pullback(pb, conn)

        def graph_dirac(f=f, q1=q1):
            conn = courant.coordinate_connection(q1)
            return dirac.check_dirac(pullback.morphism_graph(f, q1, conn))

        def baer(q1=q1, q2=q2, h=h1 + h2):
            comb = courant.baer_sum(
                q1, q2, courant.coordinate_connection(q1), courant.coordinate_connection(q2)
            )
            return comb.result == courant.standard_exact(r3, h)

        def cocycle(f=f, q=q_const, broken=broken, b=closed_b):
            cover = descent.CoverData(
                r3,
                {"one": ChartMap.identity(r3), "s": f, "s2": f.compose(f)},
                {("s", "s"): "s2", ("one", "s"): "s", ("s", "one"): "s"},
            )
            datum = descent.tautological_datum(cover, q)
            if broken:
                matrices = dict(datum.matrices)
                matrices["s2"] = descent.mat_mul(
                    matrices["s2"], descent.two_form_transform(q, b), r3
                )
                datum = descent.DescentDatum(cover, q, matrices)
            return descent.check_cocycle(datum)

        cocycle_fail = frozenset({"triple_identity"}) if broken else frozenset()
        jobs += [
            Job("relation_absorption", relation_absorption, _report_checks,
                Expected(names=ABSORPTION_CHECKS)),
            Job("twist_commute", twist_commute, _report_checks,
                Expected(names=TWIST_COMMUTE_CHECKS)),
            Job("curvature_pullback", curvature_pullback, _report_checks,
                Expected(names=("curvature_pullback_matches",))),
            Job("morphism_graph", graph_dirac, _report_checks, Expected(names=DIRAC_CHECKS)),
            Job("baer_sum", baer, lambda ok: ({"baer_sum_is_standard": ok}, None),
                Expected(names=("baer_sum_is_standard",))),
            Job("cocycle", cocycle, _report_checks,
                Expected(names=COCYCLE_CHECKS, fail=cocycle_fail)),
        ]
    return jobs


class Workload:
    """Inputs of one workload: builds the job list of any pass."""

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.spec_paths = write_battery_specs(workdir) if name == "battery" else None

    def jobs(self, pass_index: int) -> list[Job]:
        if self.name == "battery":
            return battery_jobs(self.seed, pass_index, self.spec_paths, self.workdir)
        if self.name == "axioms":
            return axioms_jobs(self.seed, pass_index)
        return constructions_jobs(self.seed, pass_index)
