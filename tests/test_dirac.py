"""Dirac structures: isotropy, maximality, tangency, and the closure routes."""

import pytest

from algebroids.courant import (
    CourantData,
    coordinate_connection,
    standard_exact,
)
from algebroids.dirac import (
    DiracData,
    check_dirac,
    graph_of_morphism,
    graph_of_two_form,
    support_inclusion,
)
from algebroids.errors import ValidationError
from algebroids.linalg import unit_vec, vec_add, vec_scale, zero_vec
from algebroids.symcalc import (
    Chart,
    ChartMap,
    KForm,
    Poly,
    coordinate_chart,
    parse_poly,
)

R2 = coordinate_chart("P", 2)
R3 = coordinate_chart("X", 3)

DIRAC_NAMES = ["isotropy", "maximality", "anchor_tangency", "closure"]


def vol3(scale="1"):
    return KForm(R3, 3, {(0, 1, 2): parse_poly(scale, R3)})


def test_restrict_unrestrict_round_trip():
    d = DiracData(standard_exact(R2), (), ("x2",))
    sub = d.inclusion.source
    assert sub.coords == ("x1",)
    p = parse_poly("3*x1*x1 - 2*x1 + 7", R2)
    down = d.restrict(p)
    assert down == parse_poly("3*x1^2 - 2*x1 + 7", sub)
    assert d.unrestrict(down) == p
    mixed = parse_poly("x1*x2 + x1", R2)
    assert d.restrict(mixed) == parse_poly("x1", sub)


def test_support_inclusion_refuses_an_unknown_or_repeated_name():
    with pytest.raises(ValidationError, match="'nope' is not a coordinate"):
        support_inclusion(R2, ("nope",))
    with pytest.raises(ValidationError, match="support names 'x2' twice"):
        support_inclusion(R2, ("x2", "x2"))
    with pytest.raises(ValidationError, match="support names 'x2' twice"):
        DiracData(standard_exact(R2), (), ("x2", "x2"))
    assert support_inclusion(R2, ()) == ChartMap.identity(R2)
    inc = support_inclusion(R3, ("x3", "x1"))
    assert inc.source == Chart("X|x1,x3", ("x2",))
    assert inc.slots == (None, 0, None)


def test_conormal_structure_on_axis():
    q = standard_exact(R2)
    sub = support_inclusion(R2, ("x2",)).source
    gens = (unit_vec(sub, 4, 0), unit_vec(sub, 4, 3))
    d = DiracData(q, gens, ("x2",))
    assert check_dirac(d).ok
    assert check_dirac(d, maximality="rank-only").ok
    assert check_dirac(d).check_names() == DIRAC_NAMES


@pytest.mark.parametrize("maximality", ["full", "rank-only"])
def test_closure_lifts_each_generator_once(monkeypatch, maximality):
    calls = []
    original = DiracData.lift_generator

    def counted(self, idx):
        calls.append(idx)
        return original(self, idx)

    monkeypatch.setattr(DiracData, "lift_generator", counted)
    sub = support_inclusion(R3, ("x3",)).source
    gens = (unit_vec(sub, 6, 0), unit_vec(sub, 6, 1), unit_vec(sub, 6, 5))
    assert check_dirac(DiracData(standard_exact(R3), gens, ("x3",)), maximality).ok
    assert calls == [0, 1, 2]


def test_supported_generators_with_coefficients():
    q = standard_exact(R2)
    sub = support_inclusion(R2, ("x2",)).source
    t = Poly.coord(sub, 0)
    k0 = vec_add(unit_vec(sub, 4, 0), vec_scale(t, unit_vec(sub, 4, 3)))
    d = DiracData(q, (k0, unit_vec(sub, 4, 3)), ("x2",))
    assert check_dirac(d).ok


def test_transverse_generator_fails_tangency():
    q = standard_exact(R2)
    sub = support_inclusion(R2, ("x2",)).source
    gens = (unit_vec(sub, 4, 1), unit_vec(sub, 4, 2))
    rep = check_dirac(DiracData(q, gens, ("x2",)))
    assert [c.name for c in rep.failures()] == ["anchor_tangency"]
    assert "x2" in rep["anchor_tangency"].counterexample


def test_graph_of_closed_two_form_is_dirac():
    q = standard_exact(R3)
    b = KForm(R3, 2, {(0, 1): parse_poly("x1 + x2", R3)})
    assert b.d().is_zero
    d = graph_of_two_form(coordinate_connection(q), b)
    assert check_dirac(d).ok
    assert check_dirac(d, maximality="rank-only").ok


def test_graph_of_nonclosed_two_form_fails_closure():
    q = standard_exact(R3)
    b = KForm(R3, 2, {(0, 1): Poly.coord(R3, 2)})
    d = graph_of_two_form(coordinate_connection(q), b)
    rep = check_dirac(d)
    assert [c.name for c in rep.failures()] == ["closure"]
    # The recorded pairing defect is exactly db evaluated on the triple.
    assert rep["closure"].counterexample == "generators (0,1) against 2: pairing 1"


def test_graph_compensating_a_twist():
    h = vol3()
    q = standard_exact(R3, h)
    b = KForm(R3, 2, {(0, 1): parse_poly("-x3", R3)})
    assert (h + b.d()).is_zero
    d = graph_of_two_form(coordinate_connection(q), b)
    assert check_dirac(d).ok
    # The same graph without the compensation is not closed.
    bad = graph_of_two_form(coordinate_connection(q), KForm.zero(R3, 2))
    rep = check_dirac(bad)
    assert [c.name for c in rep.failures()] == ["closure"]


def quadratic_line():
    chart = coordinate_chart("L", 1)
    z = Poly.zero(chart)
    return CourantData(
        chart,
        2,
        ((z,), (z,)),
        ((z, z),),
        ((z, z), (z, z)),
        {},
    )


def test_degenerate_pairing_needs_rank_only_mode():
    q = quadratic_line()
    d = DiracData(q, (unit_vec(q.chart, 2, 0),), ())
    rep = check_dirac(d)
    assert [c.name for c in rep.failures()] == ["maximality"]
    assert "rank-only" in rep["maximality"].counterexample
    assert check_dirac(d, maximality="rank-only").ok
    with pytest.raises(ValidationError):
        check_dirac(d, maximality="both")


def test_rank_only_closure_finds_span_witness():
    q = standard_exact(R2)
    conn = coordinate_connection(q)
    b = KForm(R2, 2, {(0, 1): Poly.coord(R2, 0)})
    graph = graph_of_two_form(conn, b)
    s0, s1 = graph.generators
    # Mixing the generators over the functions keeps the structure but makes
    # the defect brackets nonzero sections of the span.
    mixed = (vec_add(s0, vec_scale(Poly.coord(R2, 1), s1)), s1)
    d = DiracData(q, mixed, ())
    rep = check_dirac(d, maximality="rank-only")
    assert rep.ok, str(rep)


def test_wrong_generator_count_fails_maximality():
    q = standard_exact(R2)
    d = DiracData(q, (unit_vec(R2, 4, 0),), ())
    rep = check_dirac(d)
    assert not rep["maximality"].passed


def test_graph_of_morphism_identity_is_dirac():
    q = standard_exact(R3, vol3())
    identity = tuple(q.gen(a) for a in range(q.rank))
    d = graph_of_morphism(identity, q, q)
    assert d.courant.rank == 12
    assert check_dirac(d).ok


def test_graph_of_morphism_detects_twist_mismatch():
    q1 = standard_exact(R3, vol3())
    q2 = standard_exact(R3, vol3("x3"))
    identity = tuple(q1.gen(a) for a in range(q1.rank))
    rep = check_dirac(graph_of_morphism(identity, q1, q2))
    assert [c.name for c in rep.failures()] == ["closure"]
    assert "generators (0,1)" in rep["closure"].counterexample
