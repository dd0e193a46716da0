"""Acceptance battery: one test per release gate, all equality exact.

Every contract here is zero-tolerance symbolic equality; the timing
assertions pin the indicative budgets (per instance, and under ten
minutes for the full battery). Run with ``pytest -v`` to get one
pass/fail line per gate.
"""

import json
import random
import time

from algebroids import jsonio, linalg, sampling
from algebroids.cli import main
from algebroids.courant import (
    CourantData,
    baer_sum,
    check_courant,
    check_courant_morphism,
    coordinate_connection,
    curvature,
    standard_exact,
)
from algebroids.descent import (
    CoverData,
    DescentDatum,
    check_cocycle,
    mat_mul,
    tautological_datum,
    two_form_transform,
)
from algebroids.dirac import (
    DiracData,
    check_dirac,
    support_inclusion,
)
from algebroids.lie_algebroid import (
    LieData,
    check_compose_associative,
    tangent_algebroid,
    trivial_extension,
)
from algebroids.pullback import (
    check_courant_compose_associative,
    check_curvature_pullback,
    check_twist_commute,
    dirac_pushdown,
    pullback_courant,
)
from algebroids.symcalc import (
    ChartMap,
    KForm,
    Poly,
    VField,
    coordinate_chart,
    parse_poly,
)
from algebroids.transgression import (
    check_tau_rules,
    check_transgression_linear,
    transgress,
)

from oracles import (
    check_names,
    connection_shift,
    courant_from_transgression,
    graph_of_two_form,
    opposite,
)

A1 = coordinate_chart("A1", 1)
A2 = coordinate_chart("A2", 2)
R3 = coordinate_chart("X", 3)
R4 = coordinate_chart("B", 4)
L1 = coordinate_chart("L", 1, prefix="y")
P2 = coordinate_chart("P", 2)

VOL = KForm(R3, 3, {(0, 1, 2): Poly.const(R3, 1)})
SCALED = KForm(R3, 3, {(0, 1, 2): parse_poly("x1 + x2", R3)})

AXIOM_NAMES = [
    "eq1_anchor_coanchor",
    "eq2_leibniz_rule",
    "eq3_pairing_invariance",
    "eq4_coanchor_ideal",
    "eq5_adjunction",
    "eq6_symmetrization",
    "leibniz_identity",
]
RULE_NAMES = [
    "rule_c_central",
    "rule_one_form_rewrite",
    "rule_interior_action",
    "rule_lie_action",
    "rule_odd_pairing",
    "rule_mixed_bracket",
]


def structure_family():
    """Six pairwise-distinct structures: flat, twisted, opposite, summed."""
    qa = standard_exact(R3, VOL)
    qb = standard_exact(R3, SCALED)
    summed = baer_sum(
        qa, qb, coordinate_connection(qa), coordinate_connection(qb)
    ).result
    return [
        standard_exact(A1),
        standard_exact(A2),
        qa,
        qb,
        opposite(qa),
        summed,
    ]


def shear_map():
    return ChartMap(
        R3,
        R3,
        (Poly.coord(R3, 0), Poly.coord(R3, 1), parse_poly("x3 + x1*x2", R3)),
    )


def test_axiom_suite_exact_on_standard_family():
    cases = [
        standard_exact(A1),
        standard_exact(A2),
        standard_exact(R3),
        standard_exact(R3, VOL),
        standard_exact(R3, SCALED),
    ]
    for q in cases:
        start = time.monotonic()
        rep = check_courant(q)
        assert time.monotonic() - start < 10.0
        assert check_names(rep) == AXIOM_NAMES
        assert rep.ok, str(rep)
    # a twist with nonzero differential must break exactly the last identity
    sloped = standard_exact(R4, KForm(R4, 3, {(0, 1, 2): Poly.coord(R4, 3)}))
    rep = check_courant(sloped)
    assert [c.name for c in rep.failures()] == ["leibniz_identity"]


def test_transgression_round_trip_on_family():
    family = structure_family()
    blobs = {
        jsonio.dump_json(jsonio.courant_to_json(q)) for q in family
    }
    assert len(blobs) == len(family) == 6
    for q in family:
        start = time.monotonic()
        assert courant_from_transgression(transgress(q)) == q
        assert time.monotonic() - start < 5.0


def test_bracket_rules_and_centrality_on_family():
    for q in structure_family():
        rep = check_tau_rules(q, samples=6, seed=3)
        assert rep.ok, str(rep)
        names = check_names(rep)
        for rule in RULE_NAMES:
            assert rule in names


def test_twist_and_pullback_commute_for_three_pairs():
    flat = standard_exact(R3)
    inclusion = ChartMap(
        P2, R3, (Poly.coord(P2, 0), Poly.coord(P2, 1), Poly.zero(P2))
    )
    slanted = ChartMap(
        R4,
        R3,
        (Poly.coord(R4, 0), Poly.coord(R4, 1), parse_poly("x3 + x1*x4", R4)),
    )
    pairs = [
        (shear_map(), None, None),
        (inclusion, None, None),
        (slanted, "exact-split", coordinate_connection(flat)),
    ]
    # the shear and the slanted graph keep the pulled twist nonzero; the
    # plane inclusion kills it outright
    assert shear_map().pullback_form(VOL) != KForm.zero(R3, 3)
    assert slanted.pullback_form(VOL) != KForm.zero(R4, 3)
    assert inclusion.pullback_form(VOL) == KForm.zero(P2, 3)
    for f, mode, conn in pairs:
        start = time.monotonic()
        rep = check_twist_commute(f, flat, VOL, mode, conn)
        assert time.monotonic() - start < 30.0
        assert check_names(rep) == [
            "twist_commute_frame",
            "twist_commute_structure",
        ]
        assert rep.ok, str(rep)


def test_curvature_normalisation_torsor_law_and_pullback():
    # the coordinate lift of a standard structure reads back its twist
    for h in (KForm.zero(R3, 3), VOL, SCALED):
        q = standard_exact(R3, h)
        assert curvature(coordinate_connection(q)) == h

    # shifting the lift by a two-form moves the curvature by its differential
    q = standard_exact(R3, VOL)
    conn = coordinate_connection(q)
    rng = random.Random(2026)
    for _ in range(20):
        b = sampling.sample_kform(rng, R3, 2)
        assert curvature(connection_shift(conn, b)) == VOL + b.d()

    # pulled lift of a pulled structure has the pulled curvature
    nonlinear = [
        shear_map(),
        ChartMap(
            P2, R3, (Poly.coord(P2, 0), Poly.coord(P2, 1), parse_poly("x1*x2", P2))
        ),
        ChartMap(
            L1,
            R3,
            (
                Poly.coord(L1, 0),
                parse_poly("y1^2", L1),
                parse_poly("y1^3", L1),
            ),
        ),
    ]
    for f in nonlinear:
        pb = pullback_courant(f, q, "exact-split", conn)
        rep = check_curvature_pullback(pb, conn)
        assert check_names(rep) == ["curvature_pullback_matches"]
        assert rep.ok, str(rep)


def test_composition_coherence_on_a_four_step_chain():
    phi = ChartMap(
        R3,
        R4,
        (
            Poly.coord(R3, 0),
            Poly.coord(R3, 1),
            Poly.coord(R3, 2),
            parse_poly("x1*x2 + x3^2", R3),
        ),
    )
    psi = ChartMap(
        P2, R3, (Poly.coord(P2, 0), Poly.coord(P2, 1), parse_poly("x1*x2", P2))
    )
    xi = ChartMap(L1, P2, (Poly.coord(L1, 0), parse_poly("y1^2", L1)))

    tangent = tangent_algebroid(R4)
    extended = trivial_extension(tangent).total.lie
    for a, rank in ((tangent, 4), (extended, 5)):
        split = tuple(linalg.unit_vec(R4, rank, j) for j in range(4))
        rep = check_compose_associative(a, (phi, psi, xi), split)
        assert check_names(rep) == [
            "composition_associative",
            "comparison_anchor",
            "comparison_bracket",
        ]
        assert rep.ok, str(rep)


def test_dirac_graphs_and_supported_round_trips():
    q = standard_exact(R3)
    conn = coordinate_connection(q)

    closed = KForm(R3, 2, {(0, 1): Poly.coord(R3, 0)})
    assert closed.d() == KForm.zero(R3, 3)
    assert check_dirac(graph_of_two_form(conn, closed)).ok

    sloped = KForm(R3, 2, {(0, 1): Poly.coord(R3, 2)})
    rep = check_dirac(graph_of_two_form(conn, sloped))
    assert [c.name for c in rep.failures()] == ["closure"]
    # the recorded defect is the double contraction of the differential
    defect = (
        sloped.d()
        .iota(VField.basis(R3, 0))
        .iota(VField.basis(R3, 1))
        .component((2,))
    )
    assert rep["closure"].counterexample == (
        f"generators (0,1) against 2: pairing {defect}"
    )

    examples = [
        (
            R3,
            ("x3",),
            [
                ["1", "0", "0", "0", "x1", "0"],
                ["0", "1", "0", "-x1", "0", "0"],
                ["0", "0", "0", "0", "0", "1"],
            ],
        ),
        (
            R3,
            ("x2",),
            [
                ["1", "0", "0", "0", "0", "x1"],
                ["0", "0", "1", "-x1", "0", "0"],
                ["0", "0", "0", "0", "1", "0"],
            ],
        ),
        (
            R4,
            ("x3", "x4"),
            [
                ["1", "0", "0", "0", "0", "x1", "0", "0"],
                ["0", "1", "0", "0", "-x1", "0", "0", "0"],
                ["0", "0", "0", "0", "0", "0", "1", "0"],
                ["0", "0", "0", "0", "0", "0", "0", "1"],
            ],
        ),
    ]
    for chart, support, rows in examples:
        ambient = standard_exact(chart)
        sub = support_inclusion(chart, support).source
        gens = tuple(tuple(parse_poly(s, sub) for s in row) for row in rows)
        supported = DiracData(ambient, gens, support)
        assert check_dirac(supported).ok

        down = dirac_pushdown(supported)
        assert check_dirac(down).ok
        # the push-down recovers the graph of the restricted two-form,
        # compared as spans of generator rows
        graph = graph_of_two_form(
            coordinate_connection(down.courant),
            KForm(sub, 2, {(0, 1): Poly.coord(sub, 0)}),
        )
        rows_down = list(down.generators)
        rows_graph = list(graph.generators)
        rank_down = linalg.poly_rows_rank(rows_down)
        assert rank_down == len(rows_down)
        assert rank_down == linalg.poly_rows_rank(rows_graph)
        assert rank_down == linalg.poly_rows_rank(rows_down + rows_graph)


def test_combination_isomorphism_and_linearity():
    qa = standard_exact(R3, VOL)
    qb = standard_exact(R3, SCALED)
    conns = [coordinate_connection(qa), coordinate_connection(qb)]

    # unit-weight sum of two standard structures is standard on the nose
    plain = baer_sum(qa, qb, *conns)
    assert plain.result == standard_exact(R3, VOL + SCALED)

    # with a shifted lift the sum lands a differential away, and the
    # two-form transform provides the verified isomorphism back
    b = KForm(R3, 2, {(0, 1): Poly.coord(R3, 2)})
    shifted = baer_sum(qa, qb, connection_shift(conns[0], b), conns[1])
    assert shifted.result == standard_exact(R3, VOL + SCALED + b.d())
    iso = two_form_transform(shifted.result, b)
    assert linalg.left_inverse(iso) is not None
    assert check_courant_morphism(
        shifted.result, standard_exact(R3, VOL + SCALED), iso
    ).ok

    rep = check_transgression_linear([qa, qb], [1, 1], conns)
    assert check_names(rep) == [
        "tau_pairing_combines",
        "tau_bracket_combines",
        "tau_function_action_matches",
    ]
    assert rep.ok, str(rep)


def test_descent_cocycle_passes_and_names_the_broken_triple():
    chart = coordinate_chart("G", 2)
    maps = {
        "one": ChartMap.identity(chart),
        "s": ChartMap(
            chart,
            chart,
            (Poly.coord(chart, 0), parse_poly("x2 + x1^2", chart)),
        ),
        "s2": ChartMap(
            chart,
            chart,
            (Poly.coord(chart, 0), parse_poly("x2 + 2*x1^2", chart)),
        ),
    }
    cover = CoverData(
        chart, maps, {("s", "s"): "s2", ("one", "s"): "s", ("s", "one"): "s"}
    )
    q = standard_exact(chart)
    datum = tautological_datum(cover, q)
    rep = check_cocycle(datum)
    assert check_names(rep) == [
        "cover_composition",
        "element_preservation",
        "triple_identity",
    ]
    assert rep.ok, str(rep)

    shear = two_form_transform(q, KForm(chart, 2, {(0, 1): Poly.coord(chart, 0)}))
    matrices = dict(datum.matrices)
    matrices["s2"] = mat_mul(matrices["s2"], shear, chart)
    broken = check_cocycle(DescentDatum(cover, q, matrices))
    assert [c.name for c in broken.failures()] == ["triple_identity"]
    assert "triple (s,s) -> s2" in broken["triple_identity"].counterexample


def _battery_jobs():
    flat = standard_exact(R3)
    twisted = standard_exact(R3, VOL)
    q2 = standard_exact(P2)
    shear = shear_map()
    supported = {
        "support": ["x3"],
        "generators": [
            ["1", "0", "0", "0", "x1", "0"],
            ["0", "1", "0", "-x1", "0", "0"],
            ["0", "0", "0", "0", "0", "1"],
        ],
    }
    conn2 = jsonio.matrix_to_json(coordinate_connection(q2).columns)
    t_chart = coordinate_chart("T", 1)
    ext = trivial_extension(tangent_algebroid(R3)).total.lie
    return {
        "check-lie": {"algebroid": jsonio.lie_to_json(tangent_algebroid(P2))},
        "check-courant": {"structure": jsonio.courant_to_json(twisted)},
        "check-dirac": {
            "structure": jsonio.courant_to_json(flat),
            "dirac": supported,
        },
        "pullback": {
            "structure": jsonio.courant_to_json(twisted),
            "map": jsonio.map_to_json(shear),
        },
        "twist": {
            "structure": jsonio.courant_to_json(flat),
            "form": jsonio.kform_to_json(VOL),
        },
        "curvature": {
            "structure": jsonio.courant_to_json(twisted),
            "expect": jsonio.kform_to_json(VOL),
        },
        "tau-roundtrip": {"structure": jsonio.courant_to_json(q2)},
        "tau-linear": {
            "parts": [jsonio.courant_to_json(q2), jsonio.courant_to_json(q2)],
            "weights": ["1", "-1"],
            "connections": [conn2, conn2],
        },
        "cocycle": {
            "structure": jsonio.courant_to_json(q2),
            "cover": {
                "maps": {
                    "one": ["x1", "x2"],
                    "s": ["x1", "x2 + x1^2"],
                    "s2": ["x1", "x2 + 2*x1^2"],
                },
                "table": {"s,s": "s2", "one,s": "s", "s,one": "s"},
            },
        },
        "twist-commute": {
            "structure": jsonio.courant_to_json(flat),
            "map": jsonio.map_to_json(shear),
            "form": jsonio.kform_to_json(VOL),
        },
        "curvature-pullback": {
            "structure": jsonio.courant_to_json(twisted),
            "map": jsonio.map_to_json(shear),
        },
        "dirac-pushdown": {
            "structure": jsonio.courant_to_json(flat),
            "dirac": supported,
        },
        "morphism-graph": {
            "structure": jsonio.courant_to_json(
                standard_exact(t_chart)
            ),
            "map": jsonio.map_to_json(
                ChartMap(L1, t_chart, (parse_poly("y1^2", L1),))
            ),
        },
        "assoc-c-plus": {
            "algebroid": jsonio.lie_to_json(ext),
            "maps": [
                jsonio.map_to_json(
                    ChartMap(
                        P2,
                        R3,
                        (
                            Poly.coord(P2, 0),
                            Poly.coord(P2, 1),
                            parse_poly("x1*x2", P2),
                        ),
                    )
                ),
                jsonio.map_to_json(
                    ChartMap(L1, P2, (Poly.coord(L1, 0), parse_poly("y1^2", L1)))
                ),
                jsonio.map_to_json(
                    ChartMap(
                        coordinate_chart("W", 1, prefix="w"),
                        L1,
                        (parse_poly("w1^2", coordinate_chart("W", 1, prefix="w")),),
                    )
                ),
            ],
            "splitting": [
                ["1", "0", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "1", "0"],
            ],
        },
    }


def _courant_assoc_job():
    """The assoc-c-plus verb on its Courant input: a twisted structure on R3
    and three maps, presented through the coordinate connection."""
    w_chart = coordinate_chart("W", 1, prefix="w")
    maps = (
        ChartMap(P2, R3, (Poly.coord(P2, 0), Poly.coord(P2, 1), parse_poly("x1*x2", P2))),
        ChartMap(L1, P2, (Poly.coord(L1, 0), parse_poly("y1^2", L1))),
        ChartMap(w_chart, L1, (parse_poly("w1^2 + w1", w_chart),)),
    )
    return {
        "structure": jsonio.courant_to_json(standard_exact(R3, SCALED)),
        "maps": [jsonio.map_to_json(f) for f in maps],
    }


def varying_pairing_frame():
    """Standard A1 in the frame f0 = e0 + x1*e1, f1 = e1: <f0, f0> = 2*x1 is
    not constant, so graded_jacobi of check_tau_rules brackets x with
    [f0*eps, f0*eps] (its pairing_c stage), and [f0, f0] = f1."""
    z, one = Poly.zero(A1), Poly.one(A1)
    return CourantData(
        A1,
        2,
        ((one,), (z,)),
        ((z, one),),
        ((2 * Poly.coord(A1, 0), one), (one, z)),
        {(0, 0): (z, one)},
    )


def _twisted_combination():
    """tau-linear on 2*(R3 twisted by (x1 + 2) vol) - (R3 twisted by
    x2*x3 vol), each presented through its coordinate connection: a
    combination whose brackets do not vanish, so CourantCombination
    reduces them."""
    parts = [
        standard_exact(R3, KForm(R3, 3, {(0, 1, 2): parse_poly(h, R3)}))
        for h in ("x1 + 2", "x2*x3")
    ]
    return {
        "parts": [jsonio.courant_to_json(q) for q in parts],
        "weights": ["2", "-1"],
        "connections": [
            jsonio.matrix_to_json(coordinate_connection(q).columns) for q in parts
        ],
    }


def _single_jobs():
    """name -> (verb, spec) of each golden report outside the battery and
    the pullback modes: assoc-c-plus on its Courant input; check-lie on a
    table stored in one order only, [e0, e1] = x2*e2, which the check reads
    back negated for [e1, e0]; tau-roundtrip on varying_pairing_frame,
    the witness of the pairing_c stage of graded_jacobi; and tau-linear on
    _twisted_combination."""
    return {
        "assoc-c-plus-courant": ("assoc-c-plus", _courant_assoc_job()),
        "check-lie-one-order": (
            "check-lie",
            {"algebroid": jsonio.lie_to_json(_magnetic_total(P2))},
        ),
        "tau-roundtrip-varying-pairing": (
            "tau-roundtrip",
            {"structure": jsonio.courant_to_json(varying_pairing_frame())},
        ),
        "tau-linear-twisted": ("tau-linear", _twisted_combination()),
    }


def golden_argv(verb, spec_path, out_path):
    """The command line each golden report is written with."""
    return [verb, "--spec", str(spec_path), "--out", str(out_path), "--seed", "7", "--samples", "10"]


def test_full_battery_is_deterministic_and_fast(tmp_path):
    jobs = _battery_jobs()
    start = time.monotonic()
    outputs = []
    for round_name in ("a", "b"):
        outdir = tmp_path / round_name
        outdir.mkdir()
        produced = {}
        for verb, spec in jobs.items():
            spec_path = tmp_path / f"{verb}.json"
            spec_path.write_text(jsonio.dump_json(spec), encoding="utf-8")
            out_path = outdir / f"{verb}.json"
            rc = main(golden_argv(verb, spec_path, out_path))
            assert rc == 0, f"{verb} exited {rc}"
            produced[verb] = out_path.read_bytes()
        outputs.append(produced)
    assert outputs[0] == outputs[1]
    # every report parses and passed all its checks
    for verb, blob in outputs[0].items():
        payload = json.loads(blob)
        assert payload["job"]["seed"] == 7
        assert all(c["status"] == "pass" for c in payload["checks"]), verb
    assert time.monotonic() - start < 600.0


def _container_paths(node, prefix=(), depth=3):
    """Paths to every list or object at most depth keys below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and depth > 0:
            yield prefix + (key,)
            yield from _container_paths(value, prefix + (key,), depth - 1)


def _malformed_battery_specs():
    """(verb, label, spec): each list or object of a battery spec, to depth
    3, replaced by one of the other kind with the same items, and by a
    string; plus an assoc-c-plus splitting row one nonzero entry too long."""
    for verb, spec in sorted(_battery_jobs().items()):
        for path in _container_paths(spec):
            for kind in ("other", "string"):
                bad = json.loads(json.dumps(spec))
                parent = bad
                for key in path[:-1]:
                    parent = parent[key]
                old = parent[path[-1]]
                if kind == "string":
                    parent[path[-1]] = "x1"
                elif isinstance(old, dict):
                    parent[path[-1]] = list(old.values())
                else:
                    parent[path[-1]] = {str(i): item for i, item in enumerate(old)}
                yield verb, f"{kind} at {path}", bad
    bad = _battery_jobs()["assoc-c-plus"]
    bad["splitting"][0].append("1")
    yield "assoc-c-plus", "splitting row too long", bad


def test_malformed_battery_specs_exit_two(tmp_path, capsys):
    wrong = []
    for verb, label, spec in _malformed_battery_specs():
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        rc = main([verb, "--spec", str(path), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        if rc != 2 or not err.startswith("error: bad job spec"):
            wrong.append(f"{verb} {label}: exit {rc}: {err.strip()[-160:]}")
    assert not wrong, "\n".join(wrong)


# SHA-256 of every report the battery writes at --seed 7 --samples 10, of
# the single jobs (the assoc-c-plus verb on its Courant input among them), of
# the pullback verb in each Courant presentation mode (plus a coordinate
# projection with a vertical direction), and of the Lie inverse image in its
# one mode, transitive-split. A refactor that claims to keep behaviour must
# leave every one of these unchanged.
GOLDEN_BATTERY = {
    "assoc-c-plus": "bd2e479f47464e4cc7191d9226359499fb43f8591a1f4666552e671d6653eecf",
    "check-courant": "f0bf88703620a33afe938b58d0e399b624fd060ccfb3d60bbdfb721ae4c45025",
    "check-dirac": "04ce37dd72ea92b552cba19886f6d7166a4a6ab897d25e6aa3a2f7f573a01c44",
    "check-lie": "c2b25d057e5c45fdad5e65037a9b76d609d0632dc7dc7d448603386ad6b4ea34",
    "cocycle": "97effedd0cb1e2f87b9c2503a46ee3b479b92b3c0580a39637b8d2211bdce71b",
    "curvature": "537298b245538bb4c1de4c1b3757f31d3ad67cf1a74d2cfb0f6b61a135cbe407",
    "curvature-pullback": "51b5b3b124cbccc7548ad1b886d131d69c65cef8de16b1d3f3dfbd1a516a42eb",
    "dirac-pushdown": "3590d5feca1658402eec701a03761f76b015219c8d312eae71f89cb4222dc615",
    "morphism-graph": "108fb0a9cf1f4a5394c1103919de0b914d85369fa586813cd4beea06f84fcf13",
    "pullback": "b95e9f37daa9dfa11f81f2f47dd3b7b2873f9fda56a735f7e412344393a84164",
    "tau-linear": "c4d4affee8b9516cb47087e3bb8e1714a9fa5cf869b3deb849d978d697756c2a",
    "tau-roundtrip": "b4aaea1414c909623bb9bd310b6a247ac53deea700f9bc4fb4c66ca07201386d",
    "twist": "9a92643ce306ab32a5ce645278874d7288a952f3226580b7a1cbc65fed495399",
    "twist-commute": "eac2031471486c261ea460ff8ebec0b64ca461ef59e9c3d091357af9d3a67ecf",
}
GOLDEN_SINGLE = {
    "assoc-c-plus-courant": "013886060487bf34d12e33c45745b11144f0c550cb0bd67c3f5652c959db73ed",
    "check-lie-one-order": "84332db33cfc1dc3c281dab1ce803e03b48fe3fb8a82612d1dbbb6365452f9cb",
    "tau-roundtrip-varying-pairing": "96ac8e8760ac729f1b6a3bdd0c9181d6814b9a58bd2c3c6396106ddc8d7692de",
    "tau-linear-twisted": "52b49531958756fb18b134ed9f4827ed0984a3c41a1e8a24cad053a66fb9b192",
}
GOLDEN_PULLBACK_MODES = {
    "coordinate-embedding": "26ab3e1751acbfabe8f0a2f34230bf13a6cdd4f84438363d72f2c65d1405bfc4",
    "coordinate-projection": "e6790fcbbfa4d53fd8a484a76709177063ba9221ca929b74711b5723b66eccd8",
    "coordinate-submersion": "7e5ad62ad987dbc0e3fa92a3cb92dcc9c7b014ed8c2de0f6e6bb72939dddacd1",
    "exact-split": "e42082a8843840344d2c92f7452c3eb7f0df8ba02236700aec5cf014868c737d",
    "identity": "bb03dd2257cd637ac1dedf905064c31de8cb7779b8674f4c94e51476bf7b49e7",
}
GOLDEN_LIE_PULLBACKS = {
    "transitive-split": "1f43afd79d0d005ef5f352a3534e5a430336a2d145ba3cc8952a43dc29f90dc9",
}


def _pullback_mode_jobs():
    twisted = standard_exact(R3, VOL)
    structure = jsonio.courant_to_json(twisted)
    # a closed twist on R4 that survives restriction to {x4 = 0}
    on_r4 = standard_exact(
        R4, KForm(R4, 3, {(0, 1, 2): parse_poly("x1 + x2", R4)})
    )
    inclusion = ChartMap(
        R3, R4, tuple(Poly.coord(R3, j) for j in range(3)) + (Poly.zero(R3),)
    )
    shear = jsonio.map_to_json(shear_map())
    return {
        "identity": {
            "structure": structure,
            "map": jsonio.map_to_json(ChartMap.identity(R3)),
            "mode": "identity",
        },
        "exact-split": {
            "structure": structure,
            "map": shear,
            "mode": "exact-split",
            "connection": jsonio.matrix_to_json(
                coordinate_connection(twisted).columns
            ),
        },
        "coordinate-embedding": {
            "structure": jsonio.courant_to_json(on_r4),
            "map": jsonio.map_to_json(inclusion),
            "mode": "coordinate-embedding",
        },
        "coordinate-submersion": {
            "structure": structure,
            "map": shear,
            "mode": "coordinate-submersion",
        },
        "coordinate-projection": {
            "structure": structure,
            "map": jsonio.map_to_json(_projection()),
            "mode": "coordinate-submersion",
        },
    }


def _projection():
    """R4 -> R3, (x1, x2, x3): a coordinate projection with x4 vertical."""
    return ChartMap(R4, R3, tuple(Poly.coord(R4, j) for j in range(3)))


def _lie_pullbacks():
    from algebroids.lie_algebroid import pullback_lie

    # the line extension of the tangent algebroid by the closed two-form
    # (x1 + x3^2) dx1^dx3 + x2 dx2^dx3
    z = Poly.zero(R3)
    anchor = tuple(tangent_algebroid(R3).anchor) + ((z, z, z),)
    ext = LieData(
        R3,
        4,
        anchor,
        {
            (0, 2): (z, z, z, parse_poly("x1 + x3^2", R3)),
            (1, 2): (z, z, z, parse_poly("x2", R3)),
        },
    )
    split = tuple(linalg.unit_vec(R3, 4, j) for j in range(3))
    curve = ChartMap(
        P2, R3, (Poly.coord(P2, 0), Poly.coord(P2, 1), parse_poly("x1*x2", P2))
    )
    return {"transitive-split": pullback_lie(curve, ext, split)}


def test_every_courant_pullback_mode_is_run_by_a_golden_report():
    """Each mode pullback_courant accepts is the mode of a golden pullback
    spec, so a pinned CLI report runs every mode."""
    from algebroids.pullback import MODES

    assert {spec["mode"] for spec in _pullback_mode_jobs().values()} == set(MODES)


def _report_digest(tmp_path, verb, spec, name):
    import hashlib

    spec_path = tmp_path / f"{name}.json"
    spec_path.write_text(jsonio.dump_json(spec), encoding="utf-8")
    out_path = tmp_path / f"{name}.report.json"
    assert main(golden_argv(verb, spec_path, out_path)) == 0, name
    return hashlib.sha256(out_path.read_bytes()).hexdigest()


def test_golden_report_digests(tmp_path):
    import hashlib

    battery = {
        verb: _report_digest(tmp_path, verb, spec, verb)
        for verb, spec in _battery_jobs().items()
    }
    modes = {
        mode: _report_digest(tmp_path, "pullback", spec, f"pullback-{mode}")
        for mode, spec in _pullback_mode_jobs().items()
    }
    lie = {
        mode: hashlib.sha256(
            jsonio.dump_json(jsonio.lie_to_json(pb.result)).encode("utf-8")
        ).hexdigest()
        for mode, pb in _lie_pullbacks().items()
    }
    single = {
        name: _report_digest(tmp_path, verb, spec, name)
        for name, (verb, spec) in _single_jobs().items()
    }
    assert battery == GOLDEN_BATTERY
    assert single == GOLDEN_SINGLE
    assert modes == GOLDEN_PULLBACK_MODES
    assert lie == GOLDEN_LIE_PULLBACKS


# Run in a fresh interpreter: each spec file in the directory argv[1], by
# cli.main, printing its verb, exit code and report digest.
HASH_SEED_RUN = """
import hashlib, pathlib, sys
from algebroids.cli import main
for spec in sorted(pathlib.Path(sys.argv[1]).glob("*.json")):
    out = spec.with_suffix(".report")
    rc = main([spec.stem, "--spec", str(spec), "--out", str(out), "--seed", "7", "--samples", "10"])
    print(spec.stem, rc, hashlib.sha256(out.read_bytes()).hexdigest())
"""


def test_golden_battery_digests_do_not_depend_on_the_hash_seed(tmp_path):
    """The golden battery reports are the same bytes under PYTHONHASHSEED
    1 and 2, each in its own interpreter: no set or dict order that string
    hashing decides reaches a report. Both run at once."""
    import os
    import subprocess
    import sys

    runs = {}
    for seed in ("1", "2"):
        jobs = tmp_path / seed
        jobs.mkdir()
        for verb, spec in _battery_jobs().items():
            (jobs / f"{verb}.json").write_text(jsonio.dump_json(spec), encoding="utf-8")
        runs[seed] = subprocess.Popen(
            [sys.executable, "-c", HASH_SEED_RUN, str(jobs)],
            env={**os.environ, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    for seed, proc in runs.items():
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        lines = [line.split() for line in out.splitlines()]
        assert {verb: rc for verb, rc, _ in lines} == dict.fromkeys(GOLDEN_BATTERY, "0")
        assert {verb: digest for verb, _, digest in lines} == GOLDEN_BATTERY, seed


def test_every_basis_element_reduces_to_its_unit_class():
    """In each presented inverse image of the digest tables, reduce reads
    basis[k] back as the k-th unit vector."""
    presentations = dict(_lie_pullbacks())
    for mode, spec in _pullback_mode_jobs().items():
        q = jsonio.courant_from_json(spec["structure"])
        f = jsonio.map_from_json(spec["map"])
        conn = jsonio.optional_connection(spec, q)
        presentations[f"courant {mode}"] = pullback_courant(f, q, spec["mode"], conn)
    for name, pb in presentations.items():
        r = len(pb.basis)
        for k, element in enumerate(pb.basis):
            unit = linalg.unit_vec(pb.chart, r, k)
            assert linalg.vec_eq(pb.reduce(element), unit), (name, k)


# ---------------------------------------------------------------------------
# Failing reports: every named verdict's first counterexample, pinned
# ---------------------------------------------------------------------------


def _perturbed(q, where, idx, delta):
    """q with one anchor, coanchor, pairing (both mirror entries) or
    structure entry shifted by delta."""
    anchor = [list(row) for row in q.anchor]
    coanchor = [list(row) for row in q.coanchor]
    pairing = [list(row) for row in q.pairing]
    structure = dict(q.structure)
    if where == "anchor":
        a, j = idx
        anchor[a][j] += delta
    elif where == "coanchor":
        j, a = idx
        coanchor[j][a] += delta
    elif where == "pairing":
        a, b = idx
        pairing[a][b] += delta
        if a != b:
            pairing[b][a] += delta
    else:
        a, b, k = idx
        vec = list(structure.get((a, b), linalg.zero_vec(q.chart, q.rank)))
        vec[k] += delta
        structure[(a, b)] = tuple(vec)
    return type(q)(
        q.chart,
        q.rank,
        tuple(map(tuple, anchor)),
        tuple(map(tuple, coanchor)),
        tuple(map(tuple, pairing)),
        structure,
    )


def _perturbed_lie(a, where, idx, delta):
    anchor = [list(row) for row in a.anchor]
    structure = dict(a.structure)
    if where == "anchor":
        i, j = idx
        anchor[i][j] += delta
    else:
        i, j, k = idx
        vec = list(structure.get((i, j), linalg.zero_vec(a.chart, a.rank)))
        vec[k] += delta
        structure[(i, j)] = tuple(vec)
    return LieData(a.chart, a.rank, tuple(map(tuple, anchor)), structure)


def _magnetic_total(chart):
    """The line extension of the tangent algebroid of the plane with
    [e1, e2] = x2 * marking; the marking is the last generator."""
    z = Poly.zero(chart)
    one = Poly.one(chart)
    anchor = ((one, z), (z, one), (z, z))
    return LieData(chart, 3, anchor, {(0, 1): (z, z, Poly.coord(chart, 1))})


def first_order_probe_witness():
    """A structure whose leibniz_identity first fails on a first-order L12
    probe: on the line, e0 is anchored along d/dx1 and [e1, e1] = e2, with
    zero pairing and coanchor. eq5 and eq6 fail, so J is not known to be
    tensorial; J vanishes on the generator triples and on every L10 and
    L11 case, and J(x1*e1, e1, e0) = 2 e2."""
    z, one = Poly.zero(A1), Poly.one(A1)
    zeros = (z, z, z)
    return CourantData(
        A1,
        3,
        ((one,), (z,), (z,)),
        (zeros,),
        (zeros, zeros, zeros),
        {(1, 1): linalg.unit_vec(A1, 3, 2)},
    )


def _failing_cases():
    """name -> builder(seed, monkeypatch) of a report with failures.

    Inputs perturb one anchor, coanchor, pairing or structure entry by +-1
    or +-x_i. The twist-commute, transgression-linearity and composition
    verdicts hold for every input their constructors accept, so those cases
    perturb one entry of an intermediate result instead (monkeypatched), which
    reaches the same failure branches. Builders of seedless checks ignore
    the seed.
    """
    from algebroids import anchored, pullback, transgression
    from algebroids.lie_algebroid import check_lie_algebroid
    from algebroids.pullback import check_relation_absorption

    x1 = Poly.coord(A2, 0)
    x2 = Poly.coord(A2, 1)
    flat = standard_exact(A2)

    def courant(where, idx, delta):
        return lambda seed, mp: check_courant(
            _perturbed(flat, where, idx, delta), samples=8, seed=seed
        )

    def morphism(where, idx, delta):
        identity = tuple(flat.gen(a) for a in range(flat.rank))
        return lambda seed, mp: check_courant_morphism(
            flat, _perturbed(flat, where, idx, delta), identity
        )

    def lie(where, idx, delta):
        return lambda seed, mp: check_lie_algebroid(
            _perturbed_lie(tangent_algebroid(A2), where, idx, delta),
            samples=20,
            seed=seed,
        )

    def tau(where, idx, delta):
        return lambda seed, mp: check_tau_rules(
            _perturbed(flat, where, idx, delta), samples=4, seed=seed
        )

    def tau_linear(where, idx, delta):
        def build(seed, mp):
            combine = transgression.baer_combination

            def perturbed_combination(*args):
                comb = combine(*args)
                comb.result = _perturbed(comb.result, where, idx, delta)
                return comb

            mp.setattr(transgression, "baer_combination", perturbed_combination)
            conn = coordinate_connection(flat)
            return check_transgression_linear([flat, flat], [1, 1], [conn, conn])

        return build

    z_chart = coordinate_chart("Z", 1, prefix="z")
    w_chart = coordinate_chart("W", 1, prefix="w")
    chain = (
        ChartMap(A2, R3, (x1, x2, parse_poly("x1*x2", A2))),
        ChartMap(z_chart, A2, (Poly.coord(z_chart, 0), parse_poly("z1^2", z_chart))),
        ChartMap(w_chart, z_chart, (parse_poly("w1^2", w_chart),)),
    )
    scaled = standard_exact(R3, SCALED)

    def compose(g, check):
        # entry 1 of the comparison image of generator g gains z1: the
        # marking of the Lie extension, a cotangent line of the Courant one
        def build(seed, mp):
            compare = anchored.comparison

            def perturbed_comparison(inner, outer, target):
                out = compare(inner, outer, target)
                if inner.map is chain[1]:
                    row = out[g]
                    out[g] = row[:1] + (row[1] + Poly.coord(z_chart, 0),) + row[2:]
                return out

            mp.setattr(anchored, "comparison", perturbed_comparison)
            return check()

        return build

    def absorption(where, idx, delta):
        return lambda seed, mp: check_relation_absorption(
            pullback_courant(
                shear_map(), _perturbed(standard_exact(R3), where, idx, delta)
            )
        )

    def twist_commute(where, idx):
        def build(seed, mp):
            plane = standard_exact(A2)
            twist = pullback.twist

            def perturbed_twist(q, h):
                out = twist(q, h)
                if q.chart == R3:
                    out = _perturbed(out, where, idx, Poly.coord(R3, 0))
                return out

            mp.setattr(pullback, "twist", perturbed_twist)
            projection = ChartMap(R3, A2, (Poly.coord(R3, 0), Poly.coord(R3, 1)))
            return check_twist_commute(projection, plane, KForm.zero(A2, 3))

        return build

    def dirac(maximality):
        def build(seed, mp):
            q = _perturbed(standard_exact(R3), "structure", (0, 1, 5), Poly.coord(R3, 0))
            b = KForm(R3, 2, {(0, 1): Poly.coord(R3, 0)})
            graph = graph_of_two_form(coordinate_connection(q), b)
            return check_dirac(graph, maximality=maximality)

        return build

    def cocycle(seed, mp):
        cover = CoverData(
            A2,
            {
                "one": ChartMap.identity(A2),
                "s": ChartMap(A2, A2, (x1, x2 + x1 * x1)),
                "s2": ChartMap(A2, A2, (x1, x2 + 2 * x1 * x1)),
            },
            {("s", "s"): "s2", ("one", "s"): "s", ("s", "one"): "s"},
        )
        datum = tautological_datum(cover, flat)
        matrices = dict(datum.matrices)
        rows = [list(row) for row in matrices["s2"]]
        rows[0][2] += 1
        matrices["s2"] = tuple(map(tuple, rows))
        return check_cocycle(DescentDatum(cover, flat, matrices))

    return {
        # eq3 and eq4 pass on generators and fail on a probe case
        "courant-anchor": courant("anchor", (0, 0), 1),
        # eq3 fails on generators, eq4 on a probe case
        "courant-pairing": courant("pairing", (0, 2), x1),
        "courant-structure": courant("structure", (0, 1, 2), x2),
        # leibniz_identity fails first on a first-order L12 probe
        "courant-first-order-probe": lambda seed, mp: check_courant(
            first_order_probe_witness(), samples=8, seed=seed
        ),
        "morphism-anchor": morphism("anchor", (2, 0), 1),
        "morphism-structure": morphism("structure", (0, 1, 2), -x1),
        "lie-anchor": lie("anchor", (0, 1), x2),
        "lie-structure": lie("structure", (0, 0, 1), x1),
        "compose": compose(
            1,
            lambda: check_compose_associative(
                trivial_extension(tangent_algebroid(R3)).total.lie,
                chain,
                tuple(linalg.unit_vec(R3, 4, j) for j in range(3)),
            ),
        ),
        "compose-courant": compose(
            0,
            lambda: check_courant_compose_associative(
                scaled, chain, coordinate_connection(scaled)
            ),
        ),
        "tau-anchor": tau("anchor", (0, 0), 1),
        # graded antisymmetry fails on its (0,-1) generator case
        "tau-structure": tau("structure", (0, 1, 2), 1),
        # the pairing fails on generators, and the bracket on its pairing case
        "tau-linear-pairing": tau_linear("pairing", (0, 2), 1),
        # the bracket fails on its anchor case
        "tau-linear-anchor": tau_linear("anchor", (2, 0), x1),
        "absorption": absorption("coanchor", (0, 4), Poly.coord(R3, 0)),
        "twist-commute-pairing": twist_commute("pairing", (0, 3)),
        "twist-commute-structure": twist_commute("structure", (0, 1, 5)),
        "dirac-full": dirac("full"),
        "dirac-rank-only": dirac("rank-only"),
        "cocycle": cocycle,
    }


def _failing_digests(monkeypatch):
    import hashlib

    out = {}
    for name, build in _failing_cases().items():
        for seed in (0, 7):
            with monkeypatch.context() as mp:
                rep = build(seed, mp)
            assert not rep.ok, name
            text = str(rep).encode("utf-8")
            out[f"{name}@{seed}"] = hashlib.sha256(text).hexdigest()
    return out


GOLDEN_FAILING = {
    "courant-anchor@0": "6652f63ee566bc19c90e007c9e28763fbdcc86955504e19722d94e7d686e34c6",
    "courant-anchor@7": "6652f63ee566bc19c90e007c9e28763fbdcc86955504e19722d94e7d686e34c6",
    "courant-pairing@0": "75574ff8ea52e13d26fcd467531607941bbaa7c90dc31364c3e7acc84c440860",
    "courant-pairing@7": "75574ff8ea52e13d26fcd467531607941bbaa7c90dc31364c3e7acc84c440860",
    "courant-structure@0": "8207a7165e7cb0bf0723fd1780cfdb7fe9bf684b9257d06b68931a44bb1cfc43",
    "courant-structure@7": "8207a7165e7cb0bf0723fd1780cfdb7fe9bf684b9257d06b68931a44bb1cfc43",
    "courant-first-order-probe@0": "89c54b8c611009faf090858803432e916b3571d3f89a059c55f1ce135cb42173",
    "courant-first-order-probe@7": "89c54b8c611009faf090858803432e916b3571d3f89a059c55f1ce135cb42173",
    "morphism-anchor@0": "9e28a078b197db61807f67bc348472c58fc2e201cd94e3f3f9c7a107999210ff",
    "morphism-anchor@7": "9e28a078b197db61807f67bc348472c58fc2e201cd94e3f3f9c7a107999210ff",
    "morphism-structure@0": "a8312efb62951b10538be98bdb6fb4384b295d3216616ac7eeb4c4f9c31c3c94",
    "morphism-structure@7": "a8312efb62951b10538be98bdb6fb4384b295d3216616ac7eeb4c4f9c31c3c94",
    "lie-anchor@0": "c7c026688de54ea07bebec2ee4b7ff88dba587de47863dfbdaa29bb519728212",
    "lie-anchor@7": "c7c026688de54ea07bebec2ee4b7ff88dba587de47863dfbdaa29bb519728212",
    "lie-structure@0": "3adbdeddf4582fb94757714d0ec433e0751adf0a989f46ed90c1dcad988e0eb4",
    "lie-structure@7": "3adbdeddf4582fb94757714d0ec433e0751adf0a989f46ed90c1dcad988e0eb4",
    "compose@0": "3ecd3a21666faf3717603c00471501bc990cb7e27ee85feb142cb5bd8b2676e6",
    "compose@7": "3ecd3a21666faf3717603c00471501bc990cb7e27ee85feb142cb5bd8b2676e6",
    "compose-courant@0": "81eaab7b3d3523400aba9a007b365fdddf3c91eed1847911fb405ea19b2c5784",
    "compose-courant@7": "81eaab7b3d3523400aba9a007b365fdddf3c91eed1847911fb405ea19b2c5784",
    "tau-anchor@0": "539830a2e2be005b0aa714003f4c4ac4075e363f58c294b01dc0c7ba2d24ca95",
    "tau-anchor@7": "539830a2e2be005b0aa714003f4c4ac4075e363f58c294b01dc0c7ba2d24ca95",
    "tau-structure@0": "f7571a27bf93e5d3812b968b55d1c0938180daf5261080d6408265f08070f99f",
    "tau-structure@7": "f7571a27bf93e5d3812b968b55d1c0938180daf5261080d6408265f08070f99f",
    "tau-linear-pairing@0": "af9f8d6023959efa0f84308c415f26c80c93061a5d22877fe8d3609754832b69",
    "tau-linear-pairing@7": "af9f8d6023959efa0f84308c415f26c80c93061a5d22877fe8d3609754832b69",
    "tau-linear-anchor@0": "4d2b2c55f23015bc57154d92072dfb757ad865259ed5dd4e819099e885cbacbd",
    "tau-linear-anchor@7": "4d2b2c55f23015bc57154d92072dfb757ad865259ed5dd4e819099e885cbacbd",
    "absorption@0": "a54dd2aff313a5fc7969771eb9556a12d8ac7f969549946e2cc74a1b509a905e",
    "absorption@7": "a54dd2aff313a5fc7969771eb9556a12d8ac7f969549946e2cc74a1b509a905e",
    "twist-commute-pairing@0": "a507b0ebf5dcc76358a0d0e6b8fa7f4c83e406d61ec10ad83583f2b6188e327e",
    "twist-commute-pairing@7": "a507b0ebf5dcc76358a0d0e6b8fa7f4c83e406d61ec10ad83583f2b6188e327e",
    "twist-commute-structure@0": "3a516bb7f87abc56c201484d42efd2e8dcce224ee207afa8aa83e9a772f117a3",
    "twist-commute-structure@7": "3a516bb7f87abc56c201484d42efd2e8dcce224ee207afa8aa83e9a772f117a3",
    "dirac-full@0": "7258354dca897d00df43e508a9931276c71e911b3fd79381a78431e4e9c5d8c2",
    "dirac-full@7": "7258354dca897d00df43e508a9931276c71e911b3fd79381a78431e4e9c5d8c2",
    "dirac-rank-only@0": "796a9b5d91407f6c4d565352c219e80958274fb564ff65df26de5beffc04ae7b",
    "dirac-rank-only@7": "796a9b5d91407f6c4d565352c219e80958274fb564ff65df26de5beffc04ae7b",
    "cocycle@0": "33f68b4d5240dcaeb9812dbf38843bba1cbf4d03d532150f706ce3221a0373ac",
    "cocycle@7": "33f68b4d5240dcaeb9812dbf38843bba1cbf4d03d532150f706ce3221a0373ac",
}


def test_golden_failing_report_digests(monkeypatch):
    assert _failing_digests(monkeypatch) == GOLDEN_FAILING


COURANT_CHECKS = [
    "eq1_anchor_coanchor",
    "eq2_leibniz_rule",
    "eq3_pairing_invariance",
    "eq4_coanchor_ideal",
    "eq5_adjunction",
    "eq6_symmetrization",
    "leibniz_identity",
]
MORPHISM_CHECKS = [
    "morphism_anchor",
    "morphism_coanchor",
    "morphism_pairing",
    "morphism_bracket",
]
LIE_CHECKS = ["antisymmetry", "anchor_morphism", "jacobi_identity", "leibniz_rule"]
COMPOSE_CHECKS = [
    "composition_associative",
    "comparison_anchor",
    "comparison_bracket",
]
TAU_CHECKS = [
    "rule_c_central",
    "rule_one_form_rewrite",
    "rule_interior_action",
    "rule_lie_action",
    "rule_odd_pairing",
    "rule_mixed_bracket",
    "graded_antisymmetry",
    "graded_jacobi",
    "truncation_guard",
]
TAU_LINEAR_CHECKS = [
    "tau_pairing_combines",
    "tau_bracket_combines",
    "tau_function_action_matches",
]
TWIST_COMMUTE_CHECKS = ["twist_commute_frame", "twist_commute_structure"]
DIRAC_CHECKS = ["isotropy", "maximality", "anchor_tangency", "closure"]

# (ordered check names, failing checks) of each failing case; unlike the
# digests these do not pin counterexample text, so they hold across a change
# of how a verdict reaches its counterexample.
FAILING_STATUSES = {
    "courant-anchor": (
        COURANT_CHECKS,
        [
            "eq3_pairing_invariance",
            "eq4_coanchor_ideal",
            "eq5_adjunction",
            "leibniz_identity",
        ],
    ),
    "courant-pairing": (
        COURANT_CHECKS,
        [
            "eq3_pairing_invariance",
            "eq4_coanchor_ideal",
            "eq5_adjunction",
            "eq6_symmetrization",
            "leibniz_identity",
        ],
    ),
    "courant-structure": (
        COURANT_CHECKS,
        ["eq3_pairing_invariance", "eq6_symmetrization", "leibniz_identity"],
    ),
    "courant-first-order-probe": (
        COURANT_CHECKS,
        ["eq5_adjunction", "eq6_symmetrization", "leibniz_identity"],
    ),
    "morphism-anchor": (MORPHISM_CHECKS, ["morphism_anchor"]),
    "morphism-structure": (MORPHISM_CHECKS, ["morphism_bracket"]),
    "lie-anchor": (LIE_CHECKS, ["anchor_morphism", "jacobi_identity"]),
    "lie-structure": (
        LIE_CHECKS,
        ["antisymmetry", "anchor_morphism", "jacobi_identity"],
    ),
    "compose": (COMPOSE_CHECKS, ["composition_associative", "comparison_bracket"]),
    "compose-courant": (
        ["composition_associative"] + [f"comparison.{n}" for n in MORPHISM_CHECKS],
        [
            "composition_associative",
            "comparison.morphism_pairing",
            "comparison.morphism_bracket",
        ],
    ),
    "tau-anchor": (
        TAU_CHECKS,
        ["rule_interior_action", "rule_lie_action", "graded_jacobi"],
    ),
    "tau-structure": (TAU_CHECKS, ["graded_antisymmetry", "graded_jacobi"]),
    "tau-linear-pairing": (
        TAU_LINEAR_CHECKS,
        ["tau_pairing_combines", "tau_bracket_combines"],
    ),
    "tau-linear-anchor": (
        TAU_LINEAR_CHECKS,
        ["tau_bracket_combines", "tau_function_action_matches"],
    ),
    "absorption": (
        ["relations_isotropic", "relations_bracket_closed"],
        ["relations_isotropic", "relations_bracket_closed"],
    ),
    "twist-commute-pairing": (TWIST_COMMUTE_CHECKS, ["twist_commute_frame"]),
    "twist-commute-structure": (TWIST_COMMUTE_CHECKS, ["twist_commute_structure"]),
    "dirac-full": (DIRAC_CHECKS, ["closure"]),
    "dirac-rank-only": (DIRAC_CHECKS, ["closure"]),
    "cocycle": (
        ["cover_composition", "element_preservation", "triple_identity"],
        ["element_preservation", "triple_identity"],
    ),
}


def test_failing_report_statuses(monkeypatch):
    got = {}
    for name, build in _failing_cases().items():
        statuses = []
        for seed in (0, 7):
            with monkeypatch.context() as mp:
                rep = build(seed, mp)
            statuses.append(
                (check_names(rep), [c.name for c in rep.failures()])
            )
        assert statuses[0] == statuses[1], name
        got[name] = statuses[0]
    assert got == FAILING_STATUSES
