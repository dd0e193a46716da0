"""Transgressed bracket tables: rules, round trips, and linearity."""

import pytest

from algebroids.courant import (
    check_courant,
    coordinate_connection,
    direct_sum,
    opposite,
    scalar_multiple,
    standard_exact,
)
from algebroids.errors import TruncationError, ValidationError
from algebroids.symcalc import KForm, Poly, coordinate_chart, parse_poly
from algebroids.transgression import (
    check_tau_rules,
    check_transgression_linear,
    courant_from_transgression,
    transgress,
)

R1 = coordinate_chart("L", 1)
R2 = coordinate_chart("P", 2)
R3 = coordinate_chart("X", 3)

RULE_NAMES = [
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


def vol3(scale="1"):
    return KForm(R3, 3, {(0, 1, 2): parse_poly(scale, R3)})


def round_trip_cases():
    return [
        standard_exact(R1),
        standard_exact(R2),
        standard_exact(R3, vol3()),
        standard_exact(R3, vol3("x1 + x2")),
        opposite(standard_exact(R2)),
        scalar_multiple(3, standard_exact(R3, vol3("x2*x3"))),
        direct_sum(standard_exact(R2), opposite(standard_exact(R2))),
    ]


def test_round_trip_recovers_structure():
    cases = round_trip_cases()
    assert len(cases) >= 6
    for q in cases:
        assert courant_from_transgression(transgress(q)) == q


def test_rule_report_passes_and_names():
    rep = check_tau_rules(standard_exact(R3, vol3()), samples=4, seed=3)
    assert rep.ok, str(rep)
    assert rep.check_names() == RULE_NAMES
    rep = check_tau_rules(standard_exact(R2), samples=4, seed=5)
    assert rep.ok, str(rep)


def test_odd_pairing_value():
    q = standard_exact(R2)
    tau = transgress(q)
    got = tau.bracket(
        tau.section_eps(q.gen(0)), tau.section_eps(q.gen(2))
    )
    assert got.degree == -2
    assert got.c_part == Poly.one(R2)


def test_anchor_action_values():
    q = standard_exact(R2)
    tau = transgress(q)
    flat = tau.pair(q.gen(0))
    assert tau.bracket(flat, tau.coordinate_c(0)).c_part == Poly.one(R2)
    assert tau.bracket(flat, tau.coordinate_c(1)).is_zero


def test_one_form_rewrite_lands_on_coanchor():
    q = standard_exact(R2)
    tau = transgress(q)
    alpha = KForm.dx(R2, 0)
    assert tau.one_form_c(alpha) == tau.section_eps(q.gen(2))
    mixed = KForm(R2, 1, {(0,): Poly.coord(R2, 1)})
    assert tau.one_form_c(mixed).section == (
        Poly.zero(R2),
        Poly.zero(R2),
        Poly.coord(R2, 1),
        Poly.zero(R2),
    )


def test_two_form_slot_feeds_interior_correction():
    q = standard_exact(R2)
    tau = transgress(q)
    omega = KForm(R2, 2, {(0, 1): Poly.one(R2)})
    got = tau.bracket(tau.pair(q.gen(0), omega), tau.section_eps(q.gen(1)))
    assert got.degree == -1
    assert got.section == (
        Poly.zero(R2),
        Poly.zero(R2),
        Poly.one(R2),
        Poly.zero(R2),
    )


def test_centrality_and_truncation():
    q = standard_exact(R2)
    tau = transgress(q)
    one = tau.function_c(Poly.one(R2))
    assert tau.bracket(tau.pair(q.gen(1)), one).is_zero
    assert tau.bracket(one, one).is_zero
    with pytest.raises(TruncationError):
        tau.bracket(tau.pair(q.gen(0)), tau.pair(q.gen(1)))


def test_foreign_elements_rejected():
    t1 = transgress(standard_exact(R2))
    t2 = transgress(opposite(standard_exact(R2)))
    x = t1.section_eps(t1.courant.gen(0))
    y = t2.section_eps(t2.courant.gen(0))
    with pytest.raises(ValidationError):
        t1.bracket(x, y)
    with pytest.raises(ValidationError):
        x + y
    with pytest.raises(ValidationError):
        x + t1.function_c(Poly.one(R2))


def test_linearity_of_transgression():
    h1, h2 = vol3(), vol3("x1 + x2")
    q1, q2 = standard_exact(R3, h1), standard_exact(R3, h2)
    rep = check_transgression_linear(
        [q1, q2],
        [1, 1],
        [coordinate_connection(q1), coordinate_connection(q2)],
    )
    assert rep.ok, str(rep)
    assert rep.check_names() == [
        "tau_pairing_combines",
        "tau_bracket_combines",
        "tau_function_action_matches",
    ]


def test_linearity_with_weights():
    h1, h2 = vol3("x3"), vol3("x1*x2")
    q1, q2 = standard_exact(R3, h1), standard_exact(R3, h2)
    rep = check_transgression_linear(
        [q1, q2],
        [2, -1],
        [coordinate_connection(q1), coordinate_connection(q2)],
    )
    assert rep.ok, str(rep)


def test_transgression_of_rebuilt_structure_checks_out():
    q = courant_from_transgression(transgress(standard_exact(R2)))
    assert check_courant(q, samples=4, seed=13).ok
