"""Lie algebroid data, axiom checks, extensions, and inverse images."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from algebroids.anchored import classify_map, comparison, jacobiator
from algebroids.errors import UnsupportedModeError, ValidationError
from algebroids import linalg
from algebroids.lie_algebroid import (
    LieData,
    MarkedLieData,
    OExtensionData,
    baer_combination,
    baer_presentation,
    canonical_splitting,
    check_compose_associative,
    check_extension,
    check_extension_pullback_linear,
    check_lie_algebroid,
    check_marked,
    pullback_lie,
    pullback_marked,
    quotient_by_marking,
    solve_coboundary,
    tangent_algebroid,
    trivial_extension,
)
from algebroids.symcalc import (
    Chart,
    ChartMap,
    Poly,
    VField,
    coordinate_chart,
    parse_poly,
)

from test_courant import WEIGHTS
from test_symcalc import polys

PT = Chart("PT", ())
R1 = coordinate_chart("Z", 1, prefix="z")
R2 = coordinate_chart("Y", 2, prefix="y")
R3 = coordinate_chart("X", 3)


def sec(chart, *exprs):
    return tuple(parse_poly(e, chart) for e in exprs)


def so3():
    u = lambda i: linalg.unit_vec(PT, 3, i)
    z = linalg.zero_vec(PT, 0)
    anchor = tuple(z for _ in range(3))
    structure = {(0, 1): u(2), (1, 2): u(0), (2, 0): u(1)}
    return LieData(PT, 3, anchor, structure)


def test_so3_is_a_lie_algebroid():
    rep = check_lie_algebroid(so3(), samples=20, seed=1)
    assert rep.ok, str(rep)
    assert rep.check_names() == [
        "antisymmetry",
        "anchor_morphism",
        "jacobi_identity",
        "leibniz_rule",
    ]


def test_broken_jacobi_is_caught():
    a = so3()
    # Perturb [e1, e2] by e1: the cyclic sum over (e1, e2, e3) becomes -e2.
    bad = LieData(
        PT,
        3,
        a.anchor,
        {
            (0, 1): linalg.vec_add(
                linalg.unit_vec(PT, 3, 2), linalg.unit_vec(PT, 3, 0)
            ),
            (1, 2): linalg.unit_vec(PT, 3, 0),
            (2, 0): linalg.unit_vec(PT, 3, 1),
        },
    )
    rep = check_lie_algebroid(bad, samples=5, seed=0)
    assert not rep.ok
    assert not rep["jacobi_identity"].passed
    assert rep["antisymmetry"].passed
    assert rep["jacobi_identity"].counterexample


def test_non_antisymmetric_structure_is_caught():
    u2 = linalg.unit_vec(PT, 3, 2)
    z = linalg.zero_vec(PT, 0)
    bad = LieData(PT, 3, (z, z, z), {(0, 1): u2, (1, 0): u2})
    rep = check_lie_algebroid(bad, samples=5, seed=0)
    assert not rep["antisymmetry"].passed


def test_tangent_algebroid_axioms():
    rep = check_lie_algebroid(tangent_algebroid(R3), samples=30, seed=2)
    assert rep.ok, str(rep)


def flag_algebroid():
    # Generators d/dy1, y1 * d/dy2, d/dy2 on the plane.
    anchor = (sec(R2, "1", "0"), sec(R2, "0", "y1"), sec(R2, "0", "1"))
    structure = {(0, 1): sec(R2, "0", "0", "1")}
    return LieData(R2, 3, anchor, structure)


def test_flag_algebroid_axioms():
    rep = check_lie_algebroid(flag_algebroid(), samples=40, seed=3)
    assert rep.ok, str(rep)


def test_section_bracket_matches_vector_fields():
    t = tangent_algebroid(R2)
    got = t.bracket(sec(R2, "y2", "0"), sec(R2, "0", "1"))
    assert got == sec(R2, "-1", "0")
    # Leibniz in the right slot: [e1, y1 e2] = e2 picked up from the anchor.
    got = t.bracket(sec(R2, "1", "0"), sec(R2, "0", "y1"))
    assert got == sec(R2, "0", "1")


# ---------------------------------------------------------------------------
# markings and extensions
# ---------------------------------------------------------------------------


def magnetic(gamma: Poly) -> OExtensionData:
    """Central extension of the tangent algebroid of the plane by a line,
    with [g1, g2] = gamma * marking."""
    chart = gamma.chart
    base = tangent_algebroid(chart)
    z = Poly.zero(chart)
    anchor = (sec(chart, "1", "0"), sec(chart, "0", "1"), (z, z))
    structure = {(0, 1): (z, z, gamma)}
    total = LieData(chart, 3, anchor, structure)
    marking = linalg.unit_vec(chart, 3, 2)
    projection = (
        linalg.unit_vec(chart, 2, 0),
        linalg.unit_vec(chart, 2, 1),
        linalg.zero_vec(chart, 2),
    )
    splitting = (linalg.unit_vec(chart, 3, 0), linalg.unit_vec(chart, 3, 1))
    return OExtensionData(MarkedLieData(total, marking), base, projection, splitting)


def test_magnetic_extension_is_valid():
    ext = magnetic(parse_poly("y1", R2))
    assert check_lie_algebroid(ext.total.lie, samples=20, seed=4).ok
    rep = check_extension(ext)
    assert rep.ok, str(rep)


def test_marking_must_be_central():
    # Sabotage: make the marking non-central.
    chart = R2
    z = Poly.zero(chart)
    anchor = (sec(chart, "1", "0"), sec(chart, "0", "1"), (z, z))
    structure = {(0, 2): (z, z, Poly.one(chart))}
    total = LieData(chart, 3, anchor, structure)
    rep = check_marked(MarkedLieData(total, linalg.unit_vec(chart, 3, 2)))
    assert not rep["marking_central"].passed


def test_baer_combination_adds_cocycles():
    e1 = magnetic(parse_poly("y1", R2))
    e2 = magnetic(parse_poly("y2", R2))
    comb = baer_combination([e1, e2], [2, -1])
    assert comb.total.lie.rank == 3
    assert comb.total.lie.structure[(0, 1)] == sec(R2, "0", "0", "2*y1 - y2")
    assert check_extension(comb).ok


def test_baer_combination_zero_weights_is_trivial():
    e1 = magnetic(parse_poly("y1", R2))
    comb = baer_combination([e1, e1], [0, 0])
    assert comb.total.lie.structure == {}
    assert check_extension(comb).ok


def _reframed(ext, scale, shifts):
    """ext with its marking scaled by a constant and each splitting
    column moved along the marking by a polynomial."""
    marking = linalg.vec_scale(scale, ext.total.marking)
    splitting = tuple(
        linalg.vec_add(col, linalg.vec_scale(p, marking))
        for col, p in zip(ext.splitting, shifts)
    )
    return OExtensionData(
        MarkedLieData(ext.total.lie, marking), ext.base, ext.projection, splitting
    )


@given(WEIGHTS, st.data())
@settings(max_examples=25, deadline=None)
def test_baer_presentation_reduce_inverts_expand(weights, data):
    """reduce(expand(c) + any combination of relations) = c, on magnetic
    extensions with scaled markings and splittings moved along them."""
    extensions = [
        _reframed(
            magnetic(data.draw(polys(R2, max_degree=1))),
            data.draw(st.sampled_from([1, 2, Fraction(-1, 3)])),
            [data.draw(polys(R2, max_degree=1)) for _ in range(2)],
        )
        for _ in weights
    ]
    comb = baer_presentation(extensions, [Fraction(w) for w in weights])
    cls = tuple(data.draw(polys(R2)) for _ in range(3))
    assert comb.reduce(comb.expand(cls)) == cls
    rel = tuple(data.draw(polys(R2, max_degree=1)) for _ in comb.relations)
    shifted = tuple(
        linalg.apply_matrix([r[i] for r in comb.relations], rel, len(e), R2, e)
        for i, e in enumerate(comb.expand(cls))
    )
    assert comb.reduce(shifted) == cls


def test_baer_presentation_refuses_a_section_off_the_marking_line():
    e = magnetic(parse_poly("y1", R2))
    comb = baer_presentation([e, e], [Fraction(1), Fraction(1)])
    # Both sections lift g1, and the second adds the lift of g2 as well.
    (lift_0, lift_1), (_, other) = comb.basis[:2]
    with pytest.raises(ValidationError, match="not in the fiber product"):
        comb.reduce((lift_0, linalg.vec_add(lift_1, other)))


def test_trivial_extension_roundtrip():
    ext = trivial_extension(flag_algebroid())
    assert check_extension(ext).ok
    quotient, projection = quotient_by_marking(ext.total)
    assert quotient.rank == 3
    assert quotient.structure == flag_algebroid().structure
    assert projection[:3] == tuple(
        linalg.unit_vec(R2, 3, i) for i in range(3)
    )


def test_quotient_by_marking_recovers_base():
    ext = magnetic(parse_poly("y1", R2))
    quotient, _ = quotient_by_marking(ext.total)
    assert quotient.rank == 2
    assert quotient.structure == {}
    assert quotient.anchor == tangent_algebroid(R2).anchor


# ---------------------------------------------------------------------------
# inverse images
# ---------------------------------------------------------------------------


def test_classify_map():
    ident = ChartMap.identity(R2)
    assert classify_map(ident) == "identity"
    axis = ChartMap(R1, R2, sec(R1, "z1", "0"))
    assert classify_map(axis) == "coordinate-embedding"
    proj = ChartMap(R3, R2, sec(R3, "x1", "x2"))
    assert classify_map(proj) == "coordinate-submersion"
    shear = ChartMap(R2, R2, sec(R2, "y1", "y2 + y1^2"))
    assert classify_map(shear) == "coordinate-submersion"
    curve = ChartMap(R1, R2, sec(R1, "z1", "z1^2"))
    with pytest.raises(UnsupportedModeError):
        classify_map(curve)


@pytest.mark.parametrize(
    "source, target, comps",
    [
        (R2, R2, ("y1", "y2")),
        (R1, R2, ("z1", "0")),
        (R3, R2, ("x1", "x2")),
        (R2, R2, ("y1", "y2 + y1^2")),
        (R1, R2, ("z1", "z1^2")),
        (R2, R2, ("y2", "y1")),
        (R2, R2, ("y1", "y1*y2")),
    ],
    ids=["identity", "axis", "projection", "shear", "curve", "swap", "singular"],
)
def test_classify_map_is_the_first_mode_whose_fibre_takes_the_map(
    source, target, comps
):
    f = ChartMap(source, target, sec(source, *comps))
    tangent = tangent_algebroid(target)
    taken = []
    for mode in ("identity", "coordinate-submersion", "coordinate-embedding"):
        try:
            pullback_lie(f, tangent, mode)
        except UnsupportedModeError:
            continue
        taken.append(mode)
    if taken:
        assert classify_map(f) == taken[0]
    else:
        with pytest.raises(UnsupportedModeError):
            classify_map(f)


def test_identity_pullback_is_the_algebroid():
    a = flag_algebroid()
    pb = pullback_lie(ChartMap.identity(R2), a)
    assert pb.result.rank == a.rank
    assert pb.result.anchor == a.anchor
    assert pb.result.structure == a.structure


def test_identity_mode_is_the_submersion_along_the_identity():
    # the tangent algebroid of R3 in the frame d1 + x2 d3, d2, d3
    frame = LieData(
        R3,
        3,
        (sec(R3, "1", "0", "x2"), sec(R3, "0", "1", "0"), sec(R3, "0", "0", "1")),
        {(0, 1): sec(R3, "0", "0", "-1")},
    )
    ident = ChartMap.identity(R3)
    pb_id = pullback_lie(ident, frame, "identity")
    pb_sub = pullback_lie(ident, frame, "coordinate-submersion")
    assert (pb_id.mode, pb_sub.mode) == ("identity", "coordinate-submersion")
    assert pb_id.basis == pb_sub.basis
    assert pb_id.result == pb_sub.result
    assert (pb_id.map, pb_id.source) == (pb_sub.map, pb_sub.source)
    # only the transitive-split presentation has a canonical splitting
    for pb in (pb_id, pb_sub):
        with pytest.raises(UnsupportedModeError):
            canonical_splitting(pb)


def test_axis_embedding_pullback_of_tangent():
    f = ChartMap(R1, R2, sec(R1, "z1", "0"))
    pb = pullback_lie(f, tangent_algebroid(R2))
    assert pb.mode == "coordinate-embedding"
    assert pb.result.rank == 1
    assert pb.result.anchor == (sec(R1, "1"),)
    assert pb.result.structure == {}
    # d/dy2 does not restrict to the axis.
    outside = ((Poly.zero(R1),), (Poly.zero(R1), Poly.one(R1)))
    with pytest.raises(ValidationError):
        pb.reduce(outside)


def test_projection_pullback_of_tangent():
    f = ChartMap(R3, R2, sec(R3, "x1", "x2"))
    pb = pullback_lie(f, tangent_algebroid(R2))
    assert pb.result.rank == 3
    assert pb.result.structure == {}
    assert pb.result.anchor_of(pb.result.gen(0)).comps == tuple(
        sec(R3, "1", "0", "0")
    )
    # The vertical generator is anchored along x3.
    assert pb.result.anchor_of(pb.result.gen(2)).comps == tuple(
        sec(R3, "0", "0", "1")
    )


def test_invertible_shear_pullback():
    f = ChartMap(R2, R2, sec(R2, "y1", "y2 + y1^2"))
    pb = pullback_lie(f, tangent_algebroid(R2))
    assert pb.result.rank == 2
    assert pb.result.structure == {}
    # Lift of d/dy1 through the shear: d/dy1 - 2 y1 d/dy2.
    assert pb.basis[0] == (sec(R2, "1", "-2*y1"), sec(R2, "1", "0"))
    coeffs = pb.reduce((sec(R2, "1", "-2*y1 + 3"), sec(R2, "1", "3")))
    assert coeffs == sec(R2, "1", "3")


def test_transitive_split_pullback_of_extension():
    ext = magnetic(parse_poly("y1", R2))
    f = ChartMap(R1, R2, sec(R1, "z1", "z1^2"))
    splitting = (linalg.unit_vec(R2, 3, 0), linalg.unit_vec(R2, 3, 1))
    pb = pullback_lie(f, ext.total.lie, "transitive-split", splitting)
    assert pb.result.rank == 2
    # Tangent lift carries the Jacobian of the curve.
    assert pb.basis[0] == (sec(R1, "1"), sec(R1, "1", "2*z1", "0"))
    assert pb.basis[1] == (sec(R1, "0"), sec(R1, "0", "0", "1"))
    # Any line extension pulled to a one-dimensional base flattens out.
    assert pb.result.structure == {}
    rep = check_lie_algebroid(pb.result, samples=10, seed=8)
    assert rep.ok, str(rep)


def test_transitive_split_needs_constant_kernel():
    a = flag_algebroid()
    splitting = (linalg.unit_vec(R2, 3, 0), linalg.unit_vec(R2, 3, 2))
    f = ChartMap.identity(R2)
    with pytest.raises(UnsupportedModeError):
        pullback_lie(f, a, "transitive-split", splitting)


def test_transitive_split_rejects_bad_splitting():
    t = tangent_algebroid(R2)
    bad = (linalg.unit_vec(R2, 2, 0), linalg.unit_vec(R2, 2, 0))
    with pytest.raises(ValidationError):
        pullback_lie(ChartMap.identity(R2), t, "transitive-split", bad)


def test_marked_pullback_carries_the_marking():
    ext = magnetic(parse_poly("y1", R2))
    shear = ChartMap(R2, R2, sec(R2, "y1", "y2 + y1^2"))
    mpb = pullback_marked(shear, ext.total)
    assert mpb.marked.marking == sec(R2, "0", "0", "1")
    assert check_marked(mpb.marked).ok


def test_pullback_axioms_hold():
    # The induced structure on each presentation is itself a Lie algebroid.
    ext = magnetic(parse_poly("y2", R2))
    cases = [
        pullback_lie(ChartMap(R3, R2, sec(R3, "x1", "x2")), tangent_algebroid(R2)),
        pullback_lie(ChartMap(R1, R2, sec(R1, "z1", "0")), flag_algebroid()),
        pullback_lie(
            ChartMap(R1, R2, sec(R1, "z1", "z1^3")),
            ext.total.lie,
            "transitive-split",
            ext.splitting,
        ),
    ]
    for pb in cases:
        rep = check_lie_algebroid(pb.result, samples=15, seed=10)
        assert rep.ok, f"{pb.mode}: {rep}"


def test_comparison_on_a_curve_chain():
    # Z --g--> Y --f--> X with a line extension of the tangent upstairs.
    f = ChartMap(R2, R3, sec(R2, "y1", "y2", "y1*y2"))
    g = ChartMap(R1, R2, sec(R1, "z1", "z1^2"))
    a = trivial_extension(tangent_algebroid(R3)).total.lie
    splitting = tuple(linalg.unit_vec(R3, 4, j) for j in range(3))
    p_f = pullback_lie(f, a, "transitive-split", splitting)
    s_f = canonical_splitting(p_f)
    p_g = pullback_lie(g, p_f.result, "transitive-split", s_f)
    p_fg = pullback_lie(f.compose(g), a, "transitive-split", splitting)
    e = sec(R1, "z1", "1 + z1")
    cmatrix = comparison(p_g, p_f, p_fg)
    got = linalg.apply_matrix(cmatrix, e, p_fg.result.rank, R1)
    assert len(got) == p_fg.result.rank
    # The comparison reaches the composite presentation exactly; spot-check
    # by expanding both sides to ambient section coordinates over X.
    tangent, coeffs = p_g.expand(e)
    flat = list(linalg.zero_vec(R1, 4))
    for alpha, c in enumerate(coeffs):
        u_part = p_f.basis[alpha][1]
        for k in range(4):
            flat[k] = flat[k] + c * g.pull(u_part[k])
    assert p_fg.expand(got) == (tuple(tangent), tuple(flat))


def test_compose_associativity_check():
    phi = ChartMap(R2, R3, sec(R2, "y1", "y2", "y1*y2"))
    psi = ChartMap(R1, R2, sec(R1, "z1", "z1^2"))
    w_chart = coordinate_chart("W", 1, prefix="w")
    xi = ChartMap(w_chart, R1, (parse_poly("w1^2", w_chart),))
    a = trivial_extension(tangent_algebroid(R3)).total.lie
    splitting = tuple(linalg.unit_vec(R3, 4, j) for j in range(3))
    rep = check_compose_associative(a, (phi, psi, xi), splitting)
    assert rep.ok, str(rep)


def test_extension_pullback_linearity():
    # Extensions of the tangent algebroid of X by closed two-forms, pulled
    # back along a surface in X.
    def magnetic3(expr):
        chart = R3
        base = tangent_algebroid(chart)
        z = Poly.zero(chart)
        anchor = tuple(base.anchor[a] for a in range(3)) + ((z, z, z),)
        structure = {(0, 1): (z, z, z, parse_poly(expr, chart))}
        total = LieData(chart, 4, anchor, structure)
        return OExtensionData(
            MarkedLieData(total, linalg.unit_vec(chart, 4, 3)),
            base,
            tuple(linalg.unit_vec(chart, 3, a) for a in range(3))
            + (linalg.zero_vec(chart, 3),),
            tuple(linalg.unit_vec(chart, 4, a) for a in range(3)),
        )

    f = ChartMap(R2, R3, sec(R2, "y1", "y2", "y1*y2"))
    exts = [magnetic3("x1"), magnetic3("x2")]
    base_splitting = tuple(linalg.unit_vec(R3, 3, j) for j in range(3))
    rep = check_extension_pullback_linear(f, exts, [3, -2], base_splitting)
    assert rep.ok, str(rep)
    assert rep["cocycles_match"].passed


def test_shape_failures_are_unsupported_modes():
    flatten = ChartMap(R2, R2, sec(R2, "y1", "0"))
    diagonal = ChartMap(R1, R2, sec(R1, "z1", "z1"))
    for f in (flatten, diagonal):
        with pytest.raises(UnsupportedModeError):
            pullback_lie(f, tangent_algebroid(R2), "coordinate-embedding")
    fold = ChartMap(R1, R1, sec(R1, "z1^2 + z1"))
    with pytest.raises(UnsupportedModeError):
        pullback_lie(fold, tangent_algebroid(R1), "coordinate-submersion")


def _coboundary(anchors, t):
    """(k, l) -> anchors[k](t_l) - anchors[l](t_k) for k < l."""
    n = len(anchors)
    return {
        (k, l): anchors[k].apply(t[l]) - anchors[l].apply(t[k])
        for k in range(n)
        for l in range(k + 1, n)
    }


def test_solve_coboundary_solves_a_known_coboundary():
    anchors = [VField.basis(R2, 0), VField.basis(R2, 1)]
    target = _coboundary(anchors, sec(R2, "y1*y2 + 3", "y1^2 - 2*y2"))
    t = solve_coboundary(anchors, target, R2, 3)
    assert t is not None
    assert _coboundary(anchors, t) == target


def test_solve_coboundary_without_anchors_has_no_solution():
    anchors = [VField.zero(R2), VField.zero(R2)]
    target = {(0, 1): parse_poly("y1", R2)}
    assert solve_coboundary(anchors, target, R2, 2) is None


@st.composite
def lie_data(draw):
    """LieData on R2 of rank 1-3 with an arbitrary anchor and table; most
    of them break the axioms."""
    r = draw(st.integers(1, 3))
    entry = polys(R2, max_degree=1, max_terms=2)
    keys = st.tuples(st.integers(0, r - 1), st.integers(0, r - 1))
    anchor = draw(st.tuples(*[st.tuples(entry, entry)] * r))
    table = st.dictionaries(keys, st.tuples(*[entry] * r), max_size=4)
    return LieData(R2, r, anchor, draw(table))


@given(lie_data(), st.data())
@settings(max_examples=30, deadline=None)
def test_bracket_leibniz_rules_hold_for_any_table(a, data):
    """[u, f v] = f [u, v] + anchor(u)(f) v and [f u, v] = f [u, v] -
    anchor(v)(f) u, with no coanchor term, whatever the table: why
    leibniz_rule is a pass by construction."""
    section = st.tuples(*[polys(R2)] * a.rank)
    u, v, f = data.draw(section), data.draw(section), data.draw(polys(R2))
    uv = a.bracket(u, v)
    scale, add, sub = linalg.vec_scale, linalg.vec_add, linalg.vec_sub
    right = add(scale(f, uv), scale(a.anchor_of(u).apply(f), v))
    assert linalg.vec_eq(a.bracket(u, scale(f, v)), right)
    left = sub(scale(f, uv), scale(a.anchor_of(v).apply(f), u))
    assert linalg.vec_eq(a.bracket(scale(f, u), v), left)


@given(lie_data(), st.data())
@settings(max_examples=30, deadline=None)
def test_bracket_with_a_marking_is_decided_by_generators_and_its_anchor(a, data):
    """L9: [u, m] = sum_i u_i [e_i, m] - anchor(m)(u_i) e_i for an arbitrary
    marking m, so m is central iff [e_i, m] = 0 for every i and anchor(m)
    = 0."""
    section = st.tuples(*[polys(R2)] * a.rank)
    u, m = data.draw(section), data.draw(section)
    rho_m = a.anchor_of(m)
    scale, add, sub = linalg.vec_scale, linalg.vec_add, linalg.vec_sub
    expected = a.zero_section()
    for i in range(a.rank):
        gen_term = scale(u[i], a.bracket(a.gen(i), m))
        expected = add(expected, sub(gen_term, scale(rho_m.apply(u[i]), a.gen(i))))
    assert linalg.vec_eq(a.bracket(u, m), expected)


@given(lie_data(), st.data())
@settings(max_examples=25, deadline=None)
def test_jacobiator_slots_obey_l13(a, data):
    """L13: with A(u, v) = anchor([u, v]) - [anchor u, anchor v], function-
    linear in both slots, J(u, v, f w) = f J - A(u, v)(f) w, J(u, f v, w)
    = f J + A(u, w)(f) v and J(f u, v, w) = f J - A(v, w)(f) u
    + anchor(w)(f) ([u, v] + [v, u])."""
    section = st.tuples(*[polys(R2)] * a.rank)
    u, v, w = (data.draw(section) for _ in range(3))
    f = data.draw(polys(R2))
    scale, add, sub = linalg.vec_scale, linalg.vec_add, linalg.vec_sub

    def anchor_defect(x, y):
        return a.anchor_of(a.bracket(x, y)) - a.anchor_of(x).bracket(a.anchor_of(y))

    base = scale(f, jacobiator(a, u, v, w))
    assert anchor_defect(scale(f, u), v) == anchor_defect(u, v).scale(f)
    assert anchor_defect(u, scale(f, v)) == anchor_defect(u, v).scale(f)
    expected = sub(base, scale(anchor_defect(u, v).apply(f), w))
    assert linalg.vec_eq(jacobiator(a, u, v, scale(f, w)), expected)
    expected = add(base, scale(anchor_defect(u, w).apply(f), v))
    assert linalg.vec_eq(jacobiator(a, u, scale(f, v), w), expected)
    symmetric = add(a.bracket(u, v), a.bracket(v, u))
    expected = sub(base, scale(anchor_defect(v, w).apply(f), u))
    expected = add(expected, scale(a.anchor_of(w).apply(f), symmetric))
    assert linalg.vec_eq(jacobiator(a, scale(f, u), v, w), expected)


def test_exact_verdicts_on_every_tangent_r3_mutant():
    """+1 and +x1 on one anchor or table entry of the tangent algebroid of
    R3. The survivors are the anchor shifts whose vector fields still
    commute; every other mutant breaks anchor_morphism, which by L13 also
    breaks jacobi_identity."""
    from test_acceptance import _perturbed_lie

    a = tangent_algebroid(R3)
    one, x1 = Poly.one(R3), Poly.coord(R3, 0)
    mutants = [("anchor", (i, j)) for i in range(3) for j in range(3)]
    mutants += [("structure", idx) for idx in product(range(3), repeat=3)]
    survivors = []
    for (where, idx), delta in product(mutants, (one, x1)):
        rep = check_lie_algebroid(_perturbed_lie(a, where, idx, delta))
        if rep.ok:
            survivors.append((where, idx, str(delta)))
        else:
            assert not rep["anchor_morphism"].passed
            assert not rep["jacobi_identity"].passed
    commuting = [("anchor", (0, j), "x1") for j in range(3)]
    shifts = [("anchor", (i, j), "1") for i in range(3) for j in range(3)]
    assert sorted(survivors) == sorted(shifts + commuting)


def test_jacobi_identity_catches_a_symmetric_entry_past_the_generators():
    """[e0, e0] = e2 on the magnetic line extension of the plane: e2 is
    central and anchor-free, so every generator triple and the anchor hold,
    but J(x1 e0, e0, e0) = anchor(e0)(x1) ([e0, e0] + [e0, e0]) = 2 e2."""
    from test_acceptance import A2, _magnetic_total, _perturbed_lie

    a = _perturbed_lie(_magnetic_total(A2), "structure", (0, 0, 2), 1)
    rep = check_lie_algebroid(a)
    assert [c.name for c in rep.failures()] == ["antisymmetry", "jacobi_identity"]
    label = rep["jacobi_identity"].counterexample
    assert label == "sections (x1*e0, e0, e0): defect (0, 0, 2)"
    u = (Poly.coord(A2, 0), Poly.zero(A2), Poly.zero(A2))
    e0 = a.gen(0)
    assert linalg.vec_eq(jacobiator(a, u, e0, e0), linalg.vec_scale(2, a.gen(2)))
