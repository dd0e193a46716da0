"""Transgressed bracket tables: rules, round trips, and linearity."""

import pytest
from hypothesis import given, settings, strategies as st

from algebroids.courant import (
    CourantData,
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

from test_courant import courant_data

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


def _summand(name):
    """Standard R2 ("std"), or with coanchor row j (generator 2 + j)
    anchored to d/dx1 ("bent<j>")."""
    q = standard_exact(R2)
    if name == "std":
        return q
    anchor = list(q.anchor)
    anchor[2 + int(name[-1])] = (Poly.one(R2), Poly.zero(R2))
    return CourantData(R2, 4, tuple(anchor), q.coanchor, q.pairing, q.structure)


LIFT_MOVES_ANCHOR = "lift changes the anchor: generator 2, coordinate x1, summand 0"


@pytest.mark.parametrize(
    "names, weights, bracket_failure, action_ok",
    [
        (("bent0", "std"), [1, 1], LIFT_MOVES_ANCHOR, False),
        (("bent0",), [2], LIFT_MOVES_ANCHOR, False),
        (("std", "bent0"), [1, 1], "summand 1: coanchor row 0", True),
        (("std", "bent0"), [1, 0], "summand 1: coanchor row 0", True),
        (("std", "bent1"), [2, -1], "summand 1: coanchor row 1", True),
    ],
)
def test_linearity_statuses_when_a_coanchor_row_has_an_anchor(
    names, weights, bracket_failure, action_ok
):
    """The combination still builds: reduce accepts a tuple whose sections
    are their lifts plus coanchor lines, whatever those lines anchor to.
    The anchored row fails H2 when the lines sit on its summand, and H4
    otherwise."""
    parts = [_summand(name) for name in names]
    rep = check_transgression_linear(
        parts, weights, [coordinate_connection(q) for q in parts]
    )
    assert [(c.name, c.passed) for c in rep.checks] == [
        ("tau_pairing_combines", True),
        ("tau_bracket_combines", False),
        ("tau_function_action_matches", action_ok),
    ]
    assert rep["tau_bracket_combines"].counterexample == bracket_failure


def test_transgression_of_rebuilt_structure_checks_out():
    q = courant_from_transgression(transgress(standard_exact(R2)))
    assert check_courant(q, samples=4, seed=13).ok


def test_exact_rules_on_every_standard_r2_mutant():
    """+1, -1, +x1 and +x2 on one anchor, coanchor or pairing entry and +1
    or +x1 on one table entry of standard R2. Each rule restates a Courant
    defect (the table in check_tau_rules), so the survivors are the mutants
    on which eq3-eq6 hold: the constant shifts of the pairing's tangent
    block, as in the check_courant batteries."""
    from test_acceptance import _perturbed
    from test_courant import _mutants

    q = standard_exact(R2)
    one, x1, x2 = Poly.one(R2), Poly.coord(R2, 0), Poly.coord(R2, 1)
    mutants = _mutants(q, (one, -one, x1, x2), (one, x1))
    assert len(mutants) == 232
    survivors = []
    for where, idx, delta in mutants:
        mutant = _perturbed(q, where, idx, delta)
        if check_tau_rules(mutant).ok:
            survivors.append((where, idx, str(delta)))
            assert check_courant(mutant).ok
    assert survivors == [
        ("pairing", idx, delta)
        for idx in ((0, 0), (0, 1), (1, 1))
        for delta in ("1", "-1")
    ]


@given(courant_data(), st.data())
@settings(max_examples=25, deadline=None)
def test_tau_rules_restate_the_courant_defects(q, data):
    """The table of check_tau_rules on arbitrary R2 data: the interior and
    Lie actions on dressed one-forms are E5 and E4, graded antisymmetry in
    degrees (0,-1) is E6, and graded Jacobi on pair(u) (no two-form) is E3,
    so each verdict agrees with check_courant's exact verdict."""
    rules, axioms = check_tau_rules(q), check_courant(q)
    assert rules["rule_interior_action"].passed == axioms["eq5_adjunction"].passed
    assert rules["rule_lie_action"].passed == axioms["eq4_coanchor_ideal"].passed
    assert rules["graded_antisymmetry"].passed == axioms["eq6_symmetrization"].passed
    if rules["graded_jacobi"].passed:
        assert axioms["eq3_pairing_invariance"].passed
    if axioms["eq3_pairing_invariance"].passed and axioms["eq5_adjunction"].passed:
        assert rules["graded_jacobi"].passed
