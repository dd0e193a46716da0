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
from algebroids.anchored import comparison
from algebroids.cli import main
from algebroids.courant import (
    baer_sum,
    check_courant,
    check_courant_morphism,
    connection_shift,
    coordinate_connection,
    curvature,
    opposite,
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
    graph_of_two_form,
    support_inclusion,
)
from algebroids.lie_algebroid import (
    LieData,
    MarkedLieData,
    OExtensionData,
    canonical_splitting,
    check_compose_associative,
    check_extension_pullback_linear,
    pullback_marked,
    tangent_algebroid,
    trivial_extension,
)
from algebroids.pullback import (
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
    courant_from_transgression,
    transgress,
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
        assert rep.check_names() == AXIOM_NAMES
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
        names = rep.check_names()
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
        assert rep.check_names() == [
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
        assert rep.check_names() == ["curvature_pullback_matches"]
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
    extended = trivial_extension(tangent).total
    for a, rank in ((tangent, 4), (extended.lie, 5)):
        split = tuple(linalg.unit_vec(R4, rank, j) for j in range(4))
        rep = check_compose_associative(a, (phi, psi, xi), split)
        assert rep.check_names() == [
            "composition_associative",
            "comparison_anchor",
            "comparison_bracket",
        ]
        assert rep.ok, str(rep)

    # the comparison also carries the marking of the extended algebroid
    split = tuple(linalg.unit_vec(R4, 5, j) for j in range(4))
    mp_phi = pullback_marked(phi, extended, "transitive-split", split)
    mp_psi = pullback_marked(
        psi, mp_phi.marked, "transitive-split", canonical_splitting(mp_phi.pullback)
    )
    mp_both = pullback_marked(phi.compose(psi), extended, "transitive-split", split)
    r_out = mp_both.pullback.result.rank
    cmatrix = comparison(mp_psi.pullback, mp_phi.pullback, mp_both.pullback)
    image = list(linalg.zero_vec(P2, r_out))
    for alpha, c in enumerate(mp_psi.marked.marking):
        if not c.is_zero:
            for k in range(r_out):
                if not cmatrix[alpha][k].is_zero:
                    image[k] = image[k] + c * cmatrix[alpha][k]
    assert linalg.vec_eq(tuple(image), mp_both.marked.marking)


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
    assert rep.check_names() == [
        "tau_pairing_combines",
        "tau_bracket_combines",
        "tau_function_action_matches",
    ]
    assert rep.ok, str(rep)

    # the same combination law holds for line extensions of the plane's
    # tangent algebroid pulled back along a curve
    def line_extension(expr):
        base = tangent_algebroid(P2)
        z = Poly.zero(P2)
        anchor = tuple(base.anchor[a] for a in range(2)) + ((z, z),)
        total = LieData(P2, 3, anchor, {(0, 1): (z, z, parse_poly(expr, P2))})
        return OExtensionData(
            MarkedLieData(total, linalg.unit_vec(P2, 3, 2)),
            base,
            tuple(linalg.unit_vec(P2, 2, a) for a in range(2))
            + (linalg.zero_vec(P2, 2),),
            tuple(linalg.unit_vec(P2, 3, a) for a in range(2)),
        )

    curve = ChartMap(L1, P2, (Poly.coord(L1, 0), parse_poly("y1^2", L1)))
    rep = check_extension_pullback_linear(
        curve,
        [line_extension("x1"), line_extension("x2")],
        [1, 1],
        tuple(linalg.unit_vec(P2, 2, j) for j in range(2)),
    )
    assert rep.ok, str(rep)
    assert rep["isomorphism_found"].passed


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
    assert rep.check_names() == [
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
            rc = main(
                [
                    verb,
                    "--spec",
                    str(spec_path),
                    "--out",
                    str(out_path),
                    "--seed",
                    "7",
                    "--samples",
                    "10",
                ]
            )
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
# the pullback verb in each Courant presentation mode (plus a coordinate
# projection with a vertical direction), and of the Lie inverse image in each
# mode (plus that projection). A refactor that claims to keep behaviour must
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
GOLDEN_PULLBACK_MODES = {
    "coordinate-embedding": "26ab3e1751acbfabe8f0a2f34230bf13a6cdd4f84438363d72f2c65d1405bfc4",
    "coordinate-projection": "e6790fcbbfa4d53fd8a484a76709177063ba9221ca929b74711b5723b66eccd8",
    "coordinate-submersion": "7e5ad62ad987dbc0e3fa92a3cb92dcc9c7b014ed8c2de0f6e6bb72939dddacd1",
    "exact-split": "e42082a8843840344d2c92f7452c3eb7f0df8ba02236700aec5cf014868c737d",
    "identity": "bb03dd2257cd637ac1dedf905064c31de8cb7779b8674f4c94e51476bf7b49e7",
}
GOLDEN_LIE_PULLBACKS = {
    "coordinate-embedding": "4710d238ca10a69cde790f0ec186c33be348c37b305c922f4cdf8ba8b4cd7883",
    "coordinate-projection": "c132a838f62131841424b4189a7cd64d6f6e587f25aa4e77b64e2d2e771fbc69",
    "coordinate-submersion": "0558a24a2d02100960baef1abdb6cd9970341698972b768e902a27228bd9fdd1",
    "identity": "e8e3b700b4c16eb3832b904fc8e8c148bc77d436516ba03c83968bafe37362c7",
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
    return {
        "identity": pullback_lie(ChartMap.identity(R3), ext),
        "coordinate-projection": pullback_lie(
            _projection(), ext, "coordinate-submersion"
        ),
        "coordinate-embedding": pullback_lie(
            ChartMap(P2, R3, (Poly.coord(P2, 0), Poly.zero(P2), Poly.coord(P2, 1))),
            ext,
            "coordinate-embedding",
        ),
        "coordinate-submersion": pullback_lie(
            shear_map(), ext, "coordinate-submersion"
        ),
        "transitive-split": pullback_lie(
            ChartMap(
                P2, R3, (Poly.coord(P2, 0), Poly.coord(P2, 1), parse_poly("x1*x2", P2))
            ),
            ext,
            "transitive-split",
            split,
        ),
    }


def _report_digest(tmp_path, verb, spec, name):
    import hashlib

    spec_path = tmp_path / f"{name}.json"
    spec_path.write_text(jsonio.dump_json(spec), encoding="utf-8")
    out_path = tmp_path / f"{name}.report.json"
    argv = [verb, "--spec", str(spec_path), "--out", str(out_path)]
    assert main(argv + ["--seed", "7", "--samples", "10"]) == 0, name
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
    assert battery == GOLDEN_BATTERY
    assert modes == GOLDEN_PULLBACK_MODES
    assert lie == GOLDEN_LIE_PULLBACKS


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


def _extension(total):
    chart = total.chart
    return OExtensionData(
        MarkedLieData(total, linalg.unit_vec(chart, 3, 2)),
        tangent_algebroid(chart),
        (
            linalg.unit_vec(chart, 2, 0),
            linalg.unit_vec(chart, 2, 1),
            linalg.zero_vec(chart, 2),
        ),
        (linalg.unit_vec(chart, 3, 0), linalg.unit_vec(chart, 3, 1)),
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
    from algebroids import lie_algebroid, pullback, transgression
    from algebroids.lie_algebroid import (
        check_extension,
        check_lie_algebroid,
        check_marked,
    )
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

    def marked(where, idx, delta):
        total = _perturbed_lie(_magnetic_total(A2), where, idx, delta)
        return lambda seed, mp: check_marked(
            MarkedLieData(total, linalg.unit_vec(A2, 3, 2))
        )

    def extension(where, idx, delta):
        total = _perturbed_lie(_magnetic_total(A2), where, idx, delta)
        return lambda seed, mp: check_extension(_extension(total))

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

    def compose(seed, mp):
        # the comparison image of the second generator gains z1 * marking
        z_chart = coordinate_chart("Z", 1, prefix="z")
        w_chart = coordinate_chart("W", 1, prefix="w")
        phi = ChartMap(A2, R3, (x1, x2, parse_poly("x1*x2", A2)))
        psi = ChartMap(
            z_chart, A2, (Poly.coord(z_chart, 0), parse_poly("z1^2", z_chart))
        )
        xi = ChartMap(w_chart, z_chart, (parse_poly("w1^2", w_chart),))
        compare = lie_algebroid.comparison

        def perturbed_comparison(inner, outer, target):
            out = compare(inner, outer, target)
            if inner.map is psi:
                row = out[1]
                out[1] = row[:1] + (row[1] + Poly.coord(z_chart, 0),) + row[2:]
            return out

        mp.setattr(lie_algebroid, "comparison", perturbed_comparison)
        return check_compose_associative(
            trivial_extension(tangent_algebroid(R3)).total.lie,
            (phi, psi, xi),
            tuple(linalg.unit_vec(R3, 4, j) for j in range(3)),
        )

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
        "morphism-anchor": morphism("anchor", (2, 0), 1),
        "morphism-structure": morphism("structure", (0, 1, 2), -x1),
        "lie-anchor": lie("anchor", (0, 1), x2),
        "lie-structure": lie("structure", (0, 0, 1), x1),
        "marked-anchor": marked("anchor", (2, 0), x1),
        "marked-structure": marked("structure", (1, 2, 0), 1),
        "extension-anchor": extension("anchor", (2, 0), x1),
        "extension-structure": extension("structure", (0, 1, 0), -1),
        "compose": compose,
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
    "morphism-anchor@0": "9e28a078b197db61807f67bc348472c58fc2e201cd94e3f3f9c7a107999210ff",
    "morphism-anchor@7": "9e28a078b197db61807f67bc348472c58fc2e201cd94e3f3f9c7a107999210ff",
    "morphism-structure@0": "a8312efb62951b10538be98bdb6fb4384b295d3216616ac7eeb4c4f9c31c3c94",
    "morphism-structure@7": "a8312efb62951b10538be98bdb6fb4384b295d3216616ac7eeb4c4f9c31c3c94",
    "lie-anchor@0": "c7c026688de54ea07bebec2ee4b7ff88dba587de47863dfbdaa29bb519728212",
    "lie-anchor@7": "c7c026688de54ea07bebec2ee4b7ff88dba587de47863dfbdaa29bb519728212",
    "lie-structure@0": "3adbdeddf4582fb94757714d0ec433e0751adf0a989f46ed90c1dcad988e0eb4",
    "lie-structure@7": "3adbdeddf4582fb94757714d0ec433e0751adf0a989f46ed90c1dcad988e0eb4",
    "marked-anchor@0": "2b435204cf66064b030eeb4560f34c77c5ea0de35b9e74b6660af31fe572e94b",
    "marked-anchor@7": "2b435204cf66064b030eeb4560f34c77c5ea0de35b9e74b6660af31fe572e94b",
    "marked-structure@0": "9b552761b71216bd96e267c4226602a61ceadc19b708f3c11fde16f77fda4f61",
    "marked-structure@7": "9b552761b71216bd96e267c4226602a61ceadc19b708f3c11fde16f77fda4f61",
    "extension-anchor@0": "333518633abd560283f7ac9da60c9ddddb286f2edc9e9e3c38eb2a00bb8d9fe2",
    "extension-anchor@7": "333518633abd560283f7ac9da60c9ddddb286f2edc9e9e3c38eb2a00bb8d9fe2",
    "extension-structure@0": "547fdd680aa03f0ca6da0e61cfab32a460ebbdc10784d8c65b64af5b63f80029",
    "extension-structure@7": "547fdd680aa03f0ca6da0e61cfab32a460ebbdc10784d8c65b64af5b63f80029",
    "compose@0": "3ecd3a21666faf3717603c00471501bc990cb7e27ee85feb142cb5bd8b2676e6",
    "compose@7": "3ecd3a21666faf3717603c00471501bc990cb7e27ee85feb142cb5bd8b2676e6",
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
MARKED_CHECKS = ["marking_anchor_free", "marking_central"]
EXTENSION_CHECKS = MARKED_CHECKS + [
    "splitting_section",
    "marking_in_kernel",
    "projection_anchor",
    "projection_bracket",
    "kernel_is_marking_line",
]
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
    "morphism-anchor": (MORPHISM_CHECKS, ["morphism_anchor"]),
    "morphism-structure": (MORPHISM_CHECKS, ["morphism_bracket"]),
    "lie-anchor": (LIE_CHECKS, ["anchor_morphism", "jacobi_identity"]),
    "lie-structure": (
        LIE_CHECKS,
        ["antisymmetry", "anchor_morphism", "jacobi_identity"],
    ),
    "marked-anchor": (MARKED_CHECKS, ["marking_anchor_free", "marking_central"]),
    "marked-structure": (MARKED_CHECKS, ["marking_central"]),
    "extension-anchor": (
        EXTENSION_CHECKS,
        ["marking_anchor_free", "marking_central", "projection_anchor"],
    ),
    "extension-structure": (EXTENSION_CHECKS, ["projection_bracket"]),
    "compose": (COMPOSE_CHECKS, ["composition_associative", "comparison_bracket"]),
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
                (rep.check_names(), [c.name for c in rep.failures()])
            )
        assert statuses[0] == statuses[1], name
        got[name] = statuses[0]
    assert got == FAILING_STATUSES
