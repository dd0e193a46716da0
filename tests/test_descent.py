"""Cocycle checks for gluing data over self-covers."""

import pytest

from algebroids.courant import (
    check_courant,
    check_courant_morphism,
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
from algebroids.errors import ChartMismatchError, ValidationError
from algebroids.symcalc import ChartMap, KForm, Poly, coordinate_chart

COCYCLE_NAMES = ["cover_composition", "element_preservation", "triple_identity"]

R2 = coordinate_chart("U", 2, prefix="u")
R3 = coordinate_chart("V", 3, prefix="v")


def parabola_cover():
    u, v = Poly.coord(R2, 0), Poly.coord(R2, 1)
    s = ChartMap(R2, R2, (u, v + u * u))
    s2 = ChartMap(R2, R2, (u, v + 2 * u * u))
    return CoverData(
        R2,
        {"one": ChartMap.identity(R2), "s": s, "s2": s2},
        {("s", "s"): "s2", ("one", "s"): "s", ("s", "one"): "s"},
    )


def volume_cover():
    v1, v2, v3 = (Poly.coord(R3, i) for i in range(3))
    s = ChartMap(R3, R3, (v1, v2, v3 + v1 * v2))
    s2 = ChartMap(R3, R3, (v1, v2, v3 + 2 * v1 * v2))
    return CoverData(R3, {"s": s, "s2": s2}, {("s", "s"): "s2"})


def test_tautological_datum_is_a_cocycle():
    rep = check_cocycle(tautological_datum(parabola_cover(), standard_exact(R2)))
    assert rep.ok
    assert rep.check_names() == COCYCLE_NAMES


def test_identity_map_gets_the_identity_matrix():
    datum = tautological_datum(parabola_cover(), standard_exact(R2))
    q = datum.structure
    assert datum.matrices["one"] == tuple(q.gen(a) for a in range(q.rank))


def test_twisted_cocycle_with_volume_preserving_cover():
    vol = KForm(R3, 3, {(0, 1, 2): Poly.one(R3)})
    rep = check_cocycle(tautological_datum(volume_cover(), standard_exact(R3, vol)))
    assert rep.ok


def test_two_form_transform_is_an_automorphism_when_closed():
    q = standard_exact(R3)
    closed = KForm(R3, 2, {(0, 1): Poly.one(R3)})
    assert check_courant_morphism(q, q, two_form_transform(q, closed)).ok

    sloped = KForm(R3, 2, {(0, 1): Poly.coord(R3, 2)})
    rep = check_courant_morphism(q, q, two_form_transform(q, sloped))
    assert [c.name for c in rep.failures()] == ["morphism_bracket"]


def test_perturbed_datum_fails_exactly_the_failing_triple():
    cover = parabola_cover()
    q = standard_exact(R2)
    datum = tautological_datum(cover, q)
    shear = two_form_transform(q, KForm(R2, 2, {(0, 1): Poly.coord(R2, 0)}))
    matrices = dict(datum.matrices)
    matrices["s2"] = mat_mul(matrices["s2"], shear, R2)
    rep = check_cocycle(DescentDatum(cover, q, matrices))
    assert [c.name for c in rep.failures()] == ["triple_identity"]
    assert "triple (s,s) -> s2" in rep["triple_identity"].counterexample


def test_twist_scaling_map_fails_preservation():
    v1, v2, v3 = (Poly.coord(R3, i) for i in range(3))
    cover = CoverData(R3, {"sc": ChartMap(R3, R3, (2 * v1, v2, v3))}, {})
    vol = KForm(R3, 3, {(0, 1, 2): Poly.one(R3)})
    rep = check_cocycle(tautological_datum(cover, standard_exact(R3, vol)))
    assert [c.name for c in rep.failures()] == ["element_preservation"]
    assert "element sc" in rep["element_preservation"].counterexample


def test_failing_first_element_still_checks_every_triple():
    # "one" sorts first, so its failure is found before the other maps are
    # checked; the triples still need every map pulled back
    cover = parabola_cover()
    q = standard_exact(R2)
    matrices = dict(tautological_datum(cover, q).matrices)
    matrices["one"] = tuple(tuple(2 * p for p in row) for row in matrices["one"])
    rep = check_cocycle(DescentDatum(cover, q, matrices))
    assert rep.check_names() == COCYCLE_NAMES
    assert not rep["element_preservation"].passed
    assert rep["element_preservation"].counterexample.startswith("element one")


def test_dishonest_table_short_circuits_the_triples():
    cover = volume_cover()
    lying = CoverData(R3, dict(cover.maps), {("s", "s2"): "s"})
    rep = check_cocycle(tautological_datum(lying, standard_exact(R3)))
    failed = [c.name for c in rep.failures()]
    assert failed == ["cover_composition", "triple_identity"]
    assert "(s,s2) -> s" in rep["cover_composition"].counterexample


def test_cover_and_datum_validation():
    with pytest.raises(ValidationError):
        CoverData(R2, {"one": ChartMap.identity(R2)}, {("one", "ghost"): "one"})
    other = ChartMap(R3, R3, tuple(Poly.coord(R3, i) for i in range(3)))
    with pytest.raises(ChartMismatchError):
        CoverData(R2, {"one": other})
    cover = parabola_cover()
    q = standard_exact(R2)
    with pytest.raises(ValidationError):
        DescentDatum(cover, q, {"one": tuple(q.gen(a) for a in range(4))})


def test_pulled_structures_stay_courant():
    # the cocycle machinery leans on pullbacks; spot-check their axioms
    from algebroids.pullback import pullback_courant

    cover = parabola_cover()
    q = standard_exact(R2)
    for f in cover.maps.values():
        assert check_courant(pullback_courant(f, q).result).ok
