"""Inverse images: the four presentation modes, twist/curvature naturality,
supported pushdowns and morphism graphs."""

import dataclasses
from fractions import Fraction

import pytest

from algebroids import jsonio
from algebroids.cli import main
from algebroids.courant import (
    Connection,
    associated_lie_algebroid,
    check_courant,
    check_courant_morphism,
    connection_shift,
    coordinate_connection,
    direct_sum,
    opposite,
    scalar_multiple,
    standard_exact,
)
from algebroids.dirac import (
    DiracData,
    check_dirac,
    graph_of_two_form,
    support_inclusion,
)
from algebroids.errors import UnsupportedModeError, ValidationError
from algebroids.lie_algebroid import tangent_algebroid
from algebroids.anchored import comparison, embedding_layout, pulled_morphism
from algebroids.linalg import left_inverse, mat_mul, unit_vec, vec_eq
from algebroids.pullback import (
    CourantPullback,
    check_curvature_pullback,
    check_relation_absorption,
    check_twist_commute,
    dirac_pushdown,
    morphism_graph,
    pullback_connection,
    pullback_courant,
)
from algebroids.symcalc import (
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


def vol3(scale="1"):
    return KForm(R3, 3, {(0, 1, 2): parse_poly(scale, R3)})


def projection_32():
    return ChartMap(R3, R2, (Poly.coord(R3, 0), Poly.coord(R3, 1)))


def inclusion_23():
    return ChartMap(
        R2, R3, (Poly.coord(R2, 0), Poly.coord(R2, 1), Poly.zero(R2))
    )


def shear_33():
    x1, x2, x3 = (Poly.coord(R3, i) for i in range(3))
    return ChartMap(R3, R3, (x1, x2, x3 + x1 * x2))


def test_identity_mode_returns_the_structure():
    q = standard_exact(R2)
    pb = pullback_courant(ChartMap.identity(R2), q)
    assert pb.mode == "identity"
    assert pb.result == q
    rep = check_relation_absorption(pb)
    assert rep.ok
    assert rep.check_names() == [
        "relations_isotropic",
        "relations_bracket_closed",
    ]


def test_identity_mode_is_the_submersion_along_the_identity():
    q = standard_exact(R3, vol3("x1 + x2"))
    ident = ChartMap.identity(R3)
    pb_id = pullback_courant(ident, q, "identity")
    pb_sub = pullback_courant(ident, q, "coordinate-submersion")
    assert (pb_id.mode, pb_sub.mode) == ("identity", "coordinate-submersion")
    assert pb_id.basis == pb_sub.basis
    assert pb_id.result == pb_sub.result
    assert (pb_id.map, pb_id.source) == (pb_sub.map, pb_sub.source)


def test_projection_pullback_is_a_courant_structure():
    pb = pullback_courant(projection_32(), standard_exact(R2))
    assert pb.mode == "coordinate-submersion"
    assert pb.result.rank == 6
    assert check_courant(pb.result).ok
    assert check_relation_absorption(pb).ok
    # pulled generators keep their anchors, the verticals pair as a point
    assert pb.result.anchor[0] == (Poly.one(R3), Poly.zero(R3), Poly.zero(R3))
    assert pb.result.pairing[4][5] == Poly.one(R3)


def test_relations_are_built_once_per_presentation(monkeypatch):
    """reduce and check_relation_absorption read the relation generators
    the presentation built, one call of relation per target coordinate."""
    calls = []
    original = CourantPullback.relation

    def counted(self, k):
        calls.append(k)
        return original(self, k)

    monkeypatch.setattr(CourantPullback, "relation", counted)
    q = standard_exact(R3, vol3("x1 + x2"))
    pb = pullback_courant(shear_33(), q)
    assert check_relation_absorption(pb).ok
    assert calls == list(range(q.chart.dim))


def test_embedding_restricts_the_twist():
    """Pulling std(X, x1 vol) back along {x3=0} kills the volume twist."""
    q = standard_exact(R3, vol3("x1"))
    pb = pullback_courant(inclusion_23(), q)
    assert pb.mode == "coordinate-embedding"
    assert pb.result == standard_exact(R2)
    assert check_relation_absorption(pb).ok


def test_embedding_of_a_nonexact_structure():
    big = direct_sum(standard_exact(R3), opposite(standard_exact(R3)))
    pb = pullback_courant(inclusion_23(), big)
    assert pb.result.rank == 10
    assert check_courant(pb.result).ok
    assert check_relation_absorption(pb).ok


def test_invertible_shear_both_presentations():
    q = standard_exact(R3, vol3())
    auto = pullback_courant(shear_33(), q)
    assert auto.mode == "coordinate-submersion"
    assert check_courant(auto.result).ok
    assert check_relation_absorption(auto).ok

    split = pullback_courant(shear_33(), q, connection=coordinate_connection(q))
    assert split.mode == "exact-split"
    assert check_courant(split.result).ok
    assert check_relation_absorption(split).ok


def _unit_classes(pb):
    r = len(pb.basis)
    return [pb.reduce(t) for t in pb.basis] == [
        unit_vec(pb.chart, r, k) for k in range(r)
    ]


@pytest.mark.parametrize("weight", [2, -3])
def test_exact_split_reads_a_scaled_coanchor_frame(weight):
    """A scalar multiple scales the coanchor by 1/weight, so the kernel
    frame of the split presentation has a left inverse that is not the
    identity."""
    q = scalar_multiple(weight, standard_exact(R3, vol3()))
    pb = pullback_courant(shear_33(), q, "exact-split", coordinate_connection(q))
    assert check_courant(pb.result).ok
    assert check_relation_absorption(pb).ok
    assert _unit_classes(pb)


def _pullback_job(tmp_path, q, f, conn):
    spec = {
        "structure": jsonio.courant_to_json(q),
        "map": jsonio.map_to_json(f),
        "mode": "exact-split",
        "connection": jsonio.matrix_to_json(conn.columns),
    }
    path = tmp_path / "job.json"
    path.write_text(jsonio.dump_json(spec), encoding="utf-8")
    return ["pullback", "--spec", str(path)]


def test_exact_split_presents_a_pulled_back_structure(tmp_path):
    """The submersion pullback along a curved automorphism has a coanchor
    with polynomial entries. Its kernel frame has no constant left inverse,
    but a polynomial one, so the exact-split pullback of that pullback
    presents."""
    x1, x2, x3 = (Poly.coord(R3, i) for i in range(3))
    f = ChartMap(R3, R3, (x1, x2, x3 + x1 * x1))
    q = standard_exact(R3)
    sub = pullback_courant(f, q, "coordinate-submersion")
    p = sub.result
    assert any(c.as_constant() is None for row in p.coanchor for c in row)
    conn = pullback_connection(sub, coordinate_connection(q))
    pb = pullback_courant(f, p, "exact-split", conn)
    assert check_courant(pb.result).ok
    assert check_relation_absorption(pb).ok
    assert _unit_classes(pb)
    assert main(_pullback_job(tmp_path, p, f, conn)) == 0


def test_exact_split_refuses_a_frame_with_no_left_inverse(tmp_path, capsys):
    """Coanchor rows scaled by x1 leave a kernel frame whose only maximal
    minor is x1^2: no polynomial left inverse reads it."""
    x1 = Poly.coord(R2, 0)
    q = standard_exact(R2)
    q = dataclasses.replace(
        q, coanchor=tuple(tuple(x1 * c for c in row) for row in q.coanchor)
    )
    ident = ChartMap.identity(R2)
    conn = coordinate_connection(q)
    with pytest.raises(UnsupportedModeError):
        pullback_courant(ident, q, "exact-split", conn)
    assert main(_pullback_job(tmp_path, q, ident, conn)) == 3
    assert "no polynomial left inverse" in capsys.readouterr().err


def test_point_target_gives_the_standard_structure():
    R0 = coordinate_chart("O", 0)
    pb = pullback_courant(ChartMap(R3, R0, ()), standard_exact(R0))
    assert pb.result == standard_exact(R3)


def projection_43():
    return ChartMap(R4, R3, tuple(Poly.coord(R4, j) for j in range(3)))


def test_pullback_composition_agrees_up_to_reordering():
    """The composite in one step vs two steps differs only by the order the
    generators come out in; match them by their anchor/coanchor signature
    and the permutation is a verified isomorphism."""
    f = projection_43()
    g = projection_32()
    q = standard_exact(R2)
    once = pullback_courant(g.compose(f), q).result
    twice = pullback_courant(f, pullback_courant(g, q).result).result
    assert once.chart == twice.chart
    assert once.rank == twice.rank

    def signature(qq, a):
        return (
            tuple(str(p) for p in qq.anchor[a]),
            tuple(str(qq.coanchor[j][a]) for j in range(qq.chart.dim)),
        )

    slot = {signature(once, a): a for a in range(once.rank)}
    assert len(slot) == once.rank
    perm = [slot[signature(twice, a)] for a in range(twice.rank)]
    assert sorted(perm) == list(range(once.rank))
    matrix = [
        tuple(
            Poly.one(R4) if j == perm[a] else Poly.zero(R4)
            for j in range(once.rank)
        )
        for a in range(twice.rank)
    ]
    assert check_courant_morphism(twice, once, matrix).ok


def test_pullback_of_exact_stays_exact():
    """Quotienting the inverse image by its coanchor gives the tangent
    algebroid of the source, twist or not."""
    pb = pullback_courant(projection_43(), standard_exact(R3, vol3()))
    lie, _ = associated_lie_algebroid(pb.result)
    expected = tangent_algebroid(R4)
    assert lie.chart == expected.chart
    assert lie.rank == expected.rank
    assert lie.anchor == expected.anchor
    for a in range(lie.rank):
        for b in range(lie.rank):
            assert vec_eq(lie.bracket_gen(a, b), expected.bracket_gen(a, b))


def test_reduce_rejects_triples_off_the_fiber_product():
    q = standard_exact(R2)
    pb = pullback_courant(ChartMap.identity(R2), q)
    beta = (Poly.zero(R2), Poly.zero(R2))
    u = q.gen(0)
    eta = (Poly.zero(R2), Poly.zero(R2))  # should be the anchor of gen 0
    with pytest.raises(ValidationError):
        pb.reduce((beta, u, eta))


def test_exact_split_needs_a_connection_and_an_exact_structure():
    q = standard_exact(R3)
    with pytest.raises(ValidationError):
        pullback_courant(shear_33(), q, "exact-split")
    big = direct_sum(q, opposite(q))
    with pytest.raises(UnsupportedModeError):
        pullback_courant(
            shear_33(), big, "exact-split", coordinate_connection(q)
        )


def test_mode_dispatch_guards():
    q = standard_exact(R2)
    # a Lie-only mode name is a bad argument, not an unsupported presentation
    with pytest.raises(ValidationError, match="mode"):
        pullback_courant(ChartMap.identity(R2), q, "transitive-split")
    # a genuinely curved map has no automatic presentation
    y = Poly.coord(R1, 0)
    parab = ChartMap(R1, R2, (y, y * y))
    with pytest.raises(UnsupportedModeError):
        pullback_courant(parab, q)
    # but the split presentation applies to any map into an exact structure
    pb = pullback_courant(parab, q, "exact-split", coordinate_connection(q))
    assert pb.result.rank == 2
    assert check_courant(pb.result).ok
    assert check_relation_absorption(pb).ok


def test_twist_commute_along_the_shear():
    rep = check_twist_commute(shear_33(), standard_exact(R3), vol3())
    assert rep.ok
    assert rep.check_names() == [
        "twist_commute_frame",
        "twist_commute_structure",
    ]


def test_twist_commute_when_the_pulled_form_vanishes():
    # the embedding pulls the volume form back to zero, yet both routes agree
    f = inclusion_23()
    assert f.pullback_form(vol3()) == KForm.zero(R2, 3)
    rep = check_twist_commute(f, standard_exact(R3), vol3())
    assert rep.ok


def test_twist_commute_in_the_split_presentation():
    q = standard_exact(R3)
    rep = check_twist_commute(
        shear_33(), q, vol3("x2"), connection=coordinate_connection(q)
    )
    assert rep.ok


def test_curvature_commutes_with_pullback():
    q = standard_exact(R3, vol3())
    conn = coordinate_connection(q)
    pb = pullback_courant(shear_33(), q, connection=conn)
    assert check_curvature_pullback(pb, conn).ok

    # a shifted connection rides through the same presentation
    b = KForm(R3, 2, {(0, 2): Poly.coord(R3, 1)})
    assert check_curvature_pullback(pb, connection_shift(conn, b)).ok


def test_pullback_connection_validates_ownership():
    q = standard_exact(R3)
    other = standard_exact(R3, vol3())
    pb = pullback_courant(shear_33(), q, connection=coordinate_connection(q))
    with pytest.raises(ValidationError):
        pullback_connection(pb, coordinate_connection(other))


def test_embedding_layout_lists_the_cut_slots():
    half = support_inclusion(R2, ("x2",))
    assert embedding_layout(half) == ({0: 0}, [1])
    assert embedding_layout(ChartMap.identity(R2)) == ({0: 0, 1: 1}, [])
    point = coordinate_chart("O", 0)
    origin = ChartMap(point, R2, (Poly.zero(point), Poly.zero(point)))
    assert embedding_layout(origin) == ({}, [0, 1])


def test_embedding_layout_refuses_non_embeddings():
    with pytest.raises(UnsupportedModeError, match="coordinate-embedding"):
        embedding_layout(projection_32())
    y = Poly.coord(R1, 0)
    with pytest.raises(UnsupportedModeError, match="coordinate-embedding"):
        embedding_layout(ChartMap(R1, R2, (y, y * y)))


def _map(source, target, *comps):
    return ChartMap(source, target, tuple(parse_poly(c, source) for c in comps))


def _split(f, q, conn):
    """The exact-split inverse image of q along f, and its pulled connection."""
    pb = pullback_courant(f, q, connection=conn)
    return pb, pullback_connection(pb, conn)


def _chain(phi, psi, q, conn=None):
    """(inner, outer, target): psi+(phi+q), phi+q and (phi psi)+q, in
    exact-split mode through conn and its pulled connection when conn is
    given, else in the mode each map classifies to."""
    if conn is None:
        outer = pullback_courant(phi, q)
        inner = pullback_courant(psi, outer.result)
        return inner, outer, pullback_courant(phi.compose(psi), q)
    outer, pulled = _split(phi, q, conn)
    inner, _ = _split(psi, outer.result, pulled)
    return inner, outer, pullback_courant(phi.compose(psi), q, connection=conn)


def _courant_chain(name):
    """The inner, outer and target presentations of one chain of two maps.

    In "shear" the inner map is an invertible shear of an exact-split
    outer image, so the comparison reaches the outer cotangent lines and
    pulls their one-forms through a Jacobian that is not constant."""
    twisted = standard_exact(R3, vol3("x1 + x2"))
    surface = _map(R2, R3, "x1", "x2", "x1*x2")
    if name == "exact-split":
        return _chain(
            surface,
            _map(R1, R2, "y1", "y1^2"),
            twisted,
            coordinate_connection(twisted),
        )
    if name == "shear":
        conn = coordinate_connection(twisted)
        outer = pullback_courant(surface, twisted, connection=conn)
        shear = _map(R2, R2, "x1", "x2 + x1^2")
        inner = pullback_courant(shear, outer.result)
        target = pullback_courant(surface.compose(shear), twisted, connection=conn)
        return inner, outer, target
    if name == "projections":
        return _chain(_map(R2, R1, "x1"), projection_32(), standard_exact(R1))
    return _chain(inclusion_23(), _map(R1, R2, "y1", "0"), standard_exact(R3))


@pytest.mark.parametrize(
    "name", ["exact-split", "shear", "projections", "embeddings"]
)
def test_courant_comparison_is_an_invertible_morphism(name):
    inner, outer, target = _courant_chain(name)
    matrix = comparison(inner, outer, target)
    assert check_courant_morphism(inner.result, target.result, matrix).ok
    assert left_inverse(matrix) is not None


def test_courant_comparison_checks_its_chain():
    inner, outer, target = _courant_chain("projections")
    with pytest.raises(ValidationError, match="outer algebroid"):
        comparison(inner, target, target)
    with pytest.raises(ValidationError, match="different map"):
        comparison(inner, outer, outer)


def test_courant_comparison_is_associative_on_an_exact_split_chain():
    """xi+(C(phi, psi)) then C(phi psi, xi) equals C(psi, xi) then
    C(phi, psi xi), row by row on the unit sections over W."""
    w = coordinate_chart("W", 1, prefix="w")
    phi = _map(R2, R3, "x1", "x2", "x1*x2")
    psi = _map(R1, R2, "y1", "y1^2")
    xi = _map(w, R1, "w1^2 + w1")
    q = standard_exact(R3, vol3("x1 + x2"))
    conn = coordinate_connection(q)
    p_phi, c_phi = _split(phi, q, conn)
    p_psi, c_psi = _split(psi, p_phi.result, c_phi)
    p_xi, _ = _split(xi, p_psi.result, c_psi)
    p_phi_psi, c_phi_psi = _split(phi.compose(psi), q, conn)
    p_xi_of_composite, _ = _split(xi, p_phi_psi.result, c_phi_psi)
    p_psi_xi, _ = _split(psi.compose(xi), p_phi.result, c_phi)
    p_full, _ = _split(phi.compose(psi.compose(xi)), q, conn)

    cmatrix = comparison(p_psi, p_phi, p_phi_psi)
    route1 = mat_mul(
        pulled_morphism(p_xi, p_xi_of_composite, cmatrix),
        comparison(p_xi_of_composite, p_phi_psi, p_full),
        w,
    )
    route2 = mat_mul(
        comparison(p_xi, p_psi, p_psi_xi),
        comparison(p_psi_xi, p_phi, p_full),
        w,
    )
    assert len(route1) == p_xi.result.rank
    assert all(map(vec_eq, route1, route2))


def graph_on_axis(form_scale="x1"):
    """The graph of form_scale dx1^dx2 over {x3=0} in std(R3)."""
    q = standard_exact(R3)
    inc = support_inclusion(R3, ("x3",))
    shifted = connection_shift(
        coordinate_connection(q),
        KForm(R3, 2, {(0, 1): parse_poly(form_scale, R3)}),
    )
    rows = (shifted.columns[0], shifted.columns[1], q.coanchor[2])
    return DiracData(q, tuple(tuple(map(inc.pull, row)) for row in rows), ("x3",))


def test_dirac_pushdown_recovers_the_restricted_graph():
    d = graph_on_axis("x1")
    assert check_dirac(d).ok
    down = dirac_pushdown(d)
    sub = down.courant.chart
    expected = graph_of_two_form(
        coordinate_connection(down.courant),
        KForm(sub, 2, {(0, 1): Poly.coord(sub, 0)}),
    )
    assert down.generators == expected.generators
    assert check_dirac(down).ok


def test_dirac_pushdown_reuses_the_presentations_embedding(monkeypatch):
    from algebroids import pullback

    built = []

    class CountingEmbedding(pullback.Embedding):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(pullback, "Embedding", CountingEmbedding)
    d = graph_on_axis("x1")
    dirac_pushdown(d)
    assert len(built) == 1


def test_dirac_pushdown_refuses_an_empty_support():
    q = standard_exact(R2)
    d = DiracData(q, (unit_vec(R2, 4, 0), unit_vec(R2, 4, 1)), ())
    assert check_dirac(d).ok
    with pytest.raises(ValidationError, match="nonempty support"):
        dirac_pushdown(d)


def test_dirac_pushdown_requires_conormal_membership():
    q = standard_exact(R3)
    sub = support_inclusion(R3, ("x3",)).source
    gens = tuple(
        tuple(
            Poly.one(sub) if b == a else Poly.zero(sub) for b in range(6)
        )
        for a in (0, 1, 2)
    )
    bad = DiracData(q, gens, ("x3",))
    with pytest.raises(ValidationError, match="conormal"):
        dirac_pushdown(bad)


def test_plane_pushdown_gives_the_tangent_dirac_structure():
    """span{(d/dx1, 0), (0, dx2)} over {x2=0} pushes down to the tangent
    directions of the line."""
    q = standard_exact(R2)
    sub = support_inclusion(R2, ("x2",)).source
    one, zero = Poly.one(sub), Poly.zero(sub)
    d = DiracData(
        q, ((one, zero, zero, zero), (zero, zero, zero, one)), ("x2",)
    )
    assert check_dirac(d).ok
    down = dirac_pushdown(d)
    assert down.courant.rank == 2
    assert down.generators == ((one, zero),)
    assert check_dirac(down).ok


def test_morphism_graph_is_a_dirac_structure():
    Y = coordinate_chart("Y", 1, prefix="y")
    X1 = coordinate_chart("Z", 1, prefix="z")
    f = ChartMap(Y, X1, (2 * Poly.coord(Y, 0),))
    q = standard_exact(X1)
    d = morphism_graph(f, q, coordinate_connection(q))
    assert d.courant.rank == 4
    assert len(d.generators) == 2
    assert check_dirac(d).ok


def test_morphism_graph_of_a_curved_map_with_twist():
    Y = coordinate_chart("Y", 2, prefix="y")
    y1, y2 = Poly.coord(Y, 0), Poly.coord(Y, 1)
    f = ChartMap(Y, R3, (y1, y2, y1 * y2))
    q = standard_exact(R3, vol3())
    d = morphism_graph(f, q, coordinate_connection(q))
    assert d.courant.chart.dim == 5
    assert len(d.generators) == 5
    assert check_dirac(d).ok


def test_morphism_graph_of_the_identity_is_the_diagonal():
    q = standard_exact(R2)
    d = morphism_graph(ChartMap.identity(R2), q, coordinate_connection(q))
    prod = d.courant.chart
    assert prod.name == "P*P"
    assert prod.coords == ("x1", "x2", "w_x1", "w_x2")
    assert d.support == ("w_x1", "w_x2")
    assert d.courant.rank == 8
    rows = tuple(tuple(str(p) for p in row) for row in d.generators)
    assert rows == (
        ("1", "0", "1", "0", "0", "0", "0", "0"),
        ("0", "1", "0", "1", "0", "0", "0", "0"),
        ("0", "0", "0", "0", "-1", "0", "1", "0"),
        ("0", "0", "0", "0", "0", "-1", "0", "1"),
    )
    assert check_dirac(d).ok


def test_morphism_graph_to_a_point_keeps_only_source_tangents():
    point = coordinate_chart("O", 0)
    q = standard_exact(point)
    d = morphism_graph(ChartMap(R2, point, ()), q, coordinate_connection(q))
    assert d.courant.chart.coords == ("x1", "x2")
    assert d.support == ()
    assert d.courant.rank == 4
    rows = tuple(tuple(str(p) for p in row) for row in d.generators)
    assert rows == (("1", "0", "0", "0"), ("0", "1", "0", "0"))
    assert check_dirac(d).ok


def test_shape_failures_are_unsupported_modes():
    q = standard_exact(R2)
    y = coordinate_chart("Y", 2, prefix="y")
    flatten = ChartMap(y, R2, (Poly.coord(y, 0), Poly.zero(y)))
    t = Poly.coord(R1, 0)
    diagonal = ChartMap(R1, R2, (t, t))
    for f in (flatten, diagonal):
        with pytest.raises(UnsupportedModeError):
            pullback_courant(f, q, "coordinate-embedding")
    line = coordinate_chart("Z", 1, prefix="z")
    z = Poly.coord(line, 0)
    fold = ChartMap(line, line, (z * z + z,))
    with pytest.raises(UnsupportedModeError):
        pullback_courant(fold, standard_exact(line), "coordinate-submersion")
    # the identity presentation needs the identity map, not just equal charts
    with pytest.raises(UnsupportedModeError):
        pullback_courant(shear_33(), standard_exact(R3), "identity")
