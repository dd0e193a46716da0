"""Dirac structures: isotropy, maximality, tangency, and the closure routes."""

from dataclasses import replace
from itertools import combinations_with_replacement, product

import pytest

from algebroids.courant import (
    CourantData,
    coordinate_connection,
    standard_exact,
)
from algebroids.dirac import (
    DiracData,
    check_dirac,
    support_inclusion,
)
from algebroids.errors import ValidationError
from algebroids.linalg import (
    fmt_section,
    membership_witness,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_scale,
)
from algebroids.pullback import morphism_graph
from algebroids.symcalc import (
    Chart,
    ChartMap,
    KForm,
    Poly,
    coordinate_chart,
    parse_poly,
)

from oracles import check_names, graph_of_two_form

R2 = coordinate_chart("P", 2)
R3 = coordinate_chart("X", 3)

DIRAC_NAMES = ["isotropy", "maximality", "anchor_tangency", "closure"]


def vol3(scale="1"):
    return KForm(R3, 3, {(0, 1, 2): parse_poly(scale, R3)})


def test_a_polynomial_pulled_to_the_support_lifts_back():
    d = DiracData(standard_exact(R2), (), ("x2",))
    sub = d.inclusion.source
    assert sub.coords == ("x1",)
    p = parse_poly("3*x1*x1 - 2*x1 + 7", R2)
    down = d.inclusion.pull(p)
    assert down == parse_poly("3*x1^2 - 2*x1 + 7", sub)
    zeros = (Poly.zero(sub),) * (d.courant.rank - 1)
    assert replace(d, generators=((down, *zeros),)).lift_generator(0)[0] == p
    mixed = parse_poly("x1*x2 + x1", R2)
    assert d.inclusion.pull(mixed) == parse_poly("x1", sub)


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
    assert check_names(check_dirac(d)) == DIRAC_NAMES


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


# ---------------------------------------------------------------------------
# Lemma L14 in check_dirac
# ---------------------------------------------------------------------------


def line_graph():
    """The morphism_graph of the battery's line spec: the standard
    structure of a line along y1 -> y1^2."""
    line, target = coordinate_chart("L", 1, prefix="y"), coordinate_chart("T", 1)
    q = standard_exact(target)
    f = ChartMap(line, target, (parse_poly("y1^2", line),))
    return morphism_graph(f, q, coordinate_connection(q))


def unpruned_verdicts(d, maximality):
    """check_dirac's isotropy and closure verdicts by brute force: every
    generator pair paired, every lifted pair bracketed and restricted, and
    every defect paired against every generator (full) or tested for span
    membership (rank-only)."""
    q, g, gens = d.courant, d.restricted_pairing(), d.generators
    m = len(gens)
    isotropy = [
        f"generators ({i},{j}): pairing {got}"
        for i, j in combinations_with_replacement(range(m), 2)
        if not (got := d.pair_restricted(gens[i], gens[j], g)).is_zero
    ]
    lifts = [d.lift_generator(i) for i in range(m)]
    defects = {
        (i, j): tuple(map(d.inclusion.pull, q.bracket(lifts[i], lifts[j])))
        for i, j in product(range(m), repeat=2)
    }
    if maximality == "full":
        closure = [
            f"generators ({i},{j}) against {l}: pairing {got}"
            for (i, j), defect in sorted(defects.items())
            for l in range(m)
            if not (got := d.pair_restricted(defect, gens[l], g)).is_zero
        ]
    else:
        bound = 2 + max(
            [p.degree() for v in (*defects.values(), *gens) for p in v if not p.is_zero]
            + [0]
        )
        closure = [
            f"bracket of generators ({i},{j}) has no span witness up "
            f"to degree {bound}: {fmt_section(defect)}"
            for (i, j), defect in sorted(defects.items())
            if not vec_is_zero(defect)
            and membership_witness(gens, defect, d.inclusion.source, bound) is None
        ]
    return {"isotropy": isotropy, "closure": closure}


def dirac_cases():
    """A passing graph, a graph that is not closed, and a generator set
    that is not isotropic (with a polynomial entry, so closure has
    nonzero defects too)."""
    q = standard_exact(R3)
    x1 = Poly.coord(R3, 0)
    skew = vec_add(unit_vec(R3, 6, 0), vec_scale(x1, unit_vec(R3, 6, 3)))
    return {
        "line-graph": line_graph(),
        "not-closed": graph_of_two_form(
            coordinate_connection(q), KForm(R3, 2, {(0, 1): Poly.coord(R3, 2)})
        ),
        "not-isotropic": DiracData(q, (skew, unit_vec(R3, 6, 1), unit_vec(R3, 6, 2)), ()),
    }


DIRAC_CASES = dirac_cases()


@pytest.mark.parametrize("maximality", ["full", "rank-only"])
@pytest.mark.parametrize("name", sorted(DIRAC_CASES))
def test_pruned_check_dirac_equals_the_unpruned_check(name, maximality):
    d = DIRAC_CASES[name]
    rep = check_dirac(d, maximality)
    for check, failures in unpruned_verdicts(d, maximality).items():
        assert rep[check].passed == (not failures)
        assert rep[check].counterexample == (failures[0] if failures else None)


def test_closure_brackets_only_the_admitted_lifted_pairs(monkeypatch):
    """Op-count gate on the closure check of the line spec's graph. Its 2
    generators, the lift of the graph tangent and a conormal line, give 4
    lifted pairs. Lemma L14 rules out the line against itself: it has no
    table entry and no anchor, and the pairing is zero on it, so 3
    brackets are made."""
    d = line_graph()
    calls = []
    bracket = CourantData.bracket

    def counted(self, u, v, *args, **kwargs):
        calls.append((u, v))
        return bracket(self, u, v, *args, **kwargs)

    monkeypatch.setattr(CourantData, "bracket", counted)
    rep = check_dirac(d)
    monkeypatch.undo()
    assert rep.ok
    assert len(calls) == 3


def test_closure_computes_each_lift_anchor_at_most_once(monkeypatch):
    """Op-count gate on the anchor_of calls of check_dirac on the morphism
    graph of twisted R3 along (x1, x2 + x1^2, x3). Its 6 lifts are
    bracketed in 36 ordered pairs; each lift's anchor is computed once, on
    its first admitted bracket, and one lift is in no admitted pair: 5 calls
    (28 when each bracket computed both anchors)."""
    q = standard_exact(R3, vol3())
    x1, x2, x3 = (Poly.coord(R3, i) for i in range(3))
    f = ChartMap(R3, R3, (x1, x2 + x1 * x1, x3))
    d = morphism_graph(f, q, coordinate_connection(q))
    calls = []
    anchor_of = CourantData.anchor_of

    def counted(self, u):
        calls.append(u)
        return anchor_of(self, u)

    monkeypatch.setattr(CourantData, "anchor_of", counted)
    rep = check_dirac(d)
    monkeypatch.undo()
    assert rep.ok
    assert len(d.generators) == 6
    assert len(calls) == 5
