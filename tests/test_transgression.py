"""Transgressed bracket tables: rules, round trips, and linearity."""

import random
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from algebroids import jsonio
from algebroids.anchored import Presentation, probe
from algebroids.courant import (
    CourantData,
    check_courant,
    coordinate_connection,
    generator_defects,
    standard_exact,
)
from algebroids.errors import ChartMismatchError, TruncationError, ValidationError
from algebroids.linalg import unit_vec, zero_vec
from algebroids.symcalc import KForm, Poly, coordinate_chart, parse_poly
from algebroids.transgression import (
    TauElement,
    TauModule,
    check_tau_rules,
    check_transgression_linear,
    transgress,
)

from oracles import (
    check_names,
    courant_from_transgression,
    direct_sum,
    opposite,
    scalar_multiple,
    tau_add,
    tau_is_zero,
    unpruned_tau_bracket,
    unpruned_tau_rules,
)
from test_acceptance import _battery_jobs
from test_courant import courant_data
from test_symcalc import kforms

R1 = coordinate_chart("L", 1)
R2 = coordinate_chart("P", 2)
R3 = coordinate_chart("X", 3)
R4 = coordinate_chart("B", 4)

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


def standard_r2_mutants():
    """(where, idx, delta) of +1, -1, +x1 and +x2 on one anchor, coanchor or
    pairing entry and +1 or +x1 on one table entry of standard R2."""
    from test_courant import _mutants

    one, x1, x2 = Poly.one(R2), Poly.coord(R2, 0), Poly.coord(R2, 1)
    mutants = _mutants(standard_exact(R2), (one, -one, x1, x2), (one, x1))
    assert len(mutants) == 232
    return mutants


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
    """Evaluates what tau-roundtrip records as roundtrip_exact without
    evaluation, on the standard-R2 mutants too."""
    from test_acceptance import _perturbed

    cases = round_trip_cases()
    assert len(cases) >= 6
    q = standard_exact(R2)
    cases += [_perturbed(q, *mutant) for mutant in standard_r2_mutants()]
    for q in cases:
        assert courant_from_transgression(transgress(q)) == q


def test_rule_report_passes_and_names():
    rep = check_tau_rules(standard_exact(R3, vol3()), samples=4, seed=3)
    assert rep.ok, str(rep)
    assert check_names(rep) == RULE_NAMES
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
    assert tau_is_zero(tau.bracket(flat, tau.coordinate_c(1)))


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
    assert tau_is_zero(tau.bracket(tau.pair(q.gen(1)), one))
    assert tau_is_zero(tau.bracket(one, one))
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
        tau_add(x, y)
    with pytest.raises(ValidationError):
        tau_add(x, t1.function_c(Poly.one(R2)))


def test_ruled_out_branches_check_chart_and_length():
    """The branches of TauModule.bracket that Lemma L14 prunes read only
    built elements, and an element refuses a section entry on another chart
    (ChartMismatchError) or a section of another length (ValidationError)
    when it is built, in degree -1 and degree 0 alike, also for the
    all-zero section that the support test would rule out of every
    branch."""
    q = standard_exact(R2)
    tau = transgress(q)
    x1, rest = Poly.coord(R2, 0), zero_vec(R2, q.rank - 2)
    for bad in (
        zero_vec(R3, q.rank),
        (x1, Poly.zero(R3)) + rest,
        (x1, Poly.one(R3)) + rest,
    ):
        for degree in (-1, 0):
            with pytest.raises(ChartMismatchError):
                TauElement(tau, degree, Poly.zero(R2), bad, KForm.zero(R2, 2))
        with pytest.raises(ChartMismatchError):
            tau.section_eps(bad)
        with pytest.raises(ChartMismatchError):
            tau.pair(bad)
    for bad in (zero_vec(R2, q.rank - 1), unit_vec(R2, q.rank + 1, 0)):
        with pytest.raises(ValidationError):
            tau.section_eps(bad)


def test_linearity_of_transgression():
    h1, h2 = vol3(), vol3("x1 + x2")
    q1, q2 = standard_exact(R3, h1), standard_exact(R3, h2)
    rep = check_transgression_linear(
        [q1, q2],
        [1, 1],
        [coordinate_connection(q1), coordinate_connection(q2)],
    )
    assert rep.ok, str(rep)
    assert check_names(rep) == [
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
    """Each rule restates a Courant defect (the table in check_tau_rules),
    so the survivors among standard_r2_mutants are the mutants on which
    eq3-eq6 hold: the constant shifts of the pairing's tangent block, as in
    the check_courant batteries."""
    from test_acceptance import _perturbed

    q = standard_exact(R2)
    survivors = []
    for where, idx, delta in standard_r2_mutants():
        mutant = _perturbed(q, where, idx, delta)
        if check_tau_rules(mutant).ok:
            survivors.append((where, idx, str(delta)))
            assert check_courant(mutant).ok
    assert survivors == [
        ("pairing", idx, delta)
        for idx in ((0, 0), (0, 1), (1, 1))
        for delta in ("1", "-1")
    ]


def definitional_failures(q):
    """The cases check_tau_rules records without evaluation, each evaluated
    through TauModule.bracket on the generator elements of q: the labels of
    those that do not hold. A degree (0,0) bracket must raise."""
    tau = transgress(q)
    chart, r, n = q.chart, q.rank, q.chart.dim
    gens = [q.gen(a) for a in range(r)]
    eps = [tau.section_eps(e) for e in gens]
    flat = [tau.pair(e) for e in gens]
    one = tau.function_c(Poly.one(chart))
    two_forms = [
        KForm(chart, 2, {(i, j): Poly.one(chart)})
        for i, j in combinations(range(n), 2)
    ]
    degree_zero = flat + [tau.two_form_c(omega) for omega in two_forms]
    fc = [tau.coordinate_c(k) for k in range(n)]
    for i, x in enumerate(degree_zero):
        yield f"[x{i}, c]", tau_is_zero(tau.bracket(x, one))
        yield f"[c, x{i}]", tau_is_zero(tau.bracket(one, x))
        for k in range(n):
            back = tau.bracket(fc[k], x)
            yield f"(0,-2) x{i}, x{k + 1}", tau_is_zero(tau_add(tau.bracket(x, fc[k]), back))
        with pytest.raises(TruncationError):
            tau.bracket(x, x)
    for j in range(n):
        yield f"rewrite dx{j + 1}", tau.one_form_c(KForm.dx(chart, j)) == (
            tau.section_eps(q.coanchor[j])
        )
    for omega, b in product(two_forms, range(r)):
        x = tau.two_form_c(omega)
        both = tau_add(tau.bracket(x, eps[b]), tau.bracket(eps[b], x))
        yield f"(0,-1) {omega}, e{b}", tau_is_zero(both)
    for a, k in product(range(r), range(n)):
        got = tau.bracket(flat[a], fc[k])
        yield f"[e{a}, x{k + 1}*c]", got == tau.function_c(q.anchor[a][k])
    for a, omega in product(range(r), two_forms):
        got = tau.bracket(eps[a], tau.two_form_c(omega))
        yield f"[e{a}*eps, {omega}]", got == tau.one_form_c(
            omega.iota(q.anchor_of(gens[a]))
        )
    for a in range(r):
        yield f"[e{a}*eps, c]", tau_is_zero(tau.bracket(eps[a], one))
    for a, b in product(range(r), repeat=2):
        paired = tau.bracket(eps[a], eps[b])
        yield f"pairing e{a}, e{b}", paired == tau.function_c(q.pairing[a][b])
        if a < b:
            yield f"(-1,-1) e{a}, e{b}", paired == tau.bracket(eps[b], eps[a])
        row = q.bracket_gen(a, b)
        yield f"[e{a}, e{b}*eps]", tau.bracket(flat[a], eps[b]) == tau.section_eps(row)
        d_pairing = KForm.from_poly(-q.pairing[a][b]).d()
        yield f"[e{a}*eps, e{b}]", tau.bracket(eps[a], flat[b]) == tau_add(
            tau.one_form_c(d_pairing), tau.section_eps(row)
        )


def test_definitional_rules_hold():
    """What check_tau_rules records without evaluation holds: c-centrality
    in all three orders, the one-form rewrite, the odd pairing, the mixed
    bracket in both orders, the truncation guard, the interior action on
    dressed two-forms, the Lie action on dressed functions, and graded
    antisymmetry in degrees (-1,-1) and (0,-2) and on the dressed two-forms
    (Lemma L16). Standard R1-R3, R3 twisted, and every mutant of
    test_exact_rules_on_every_standard_r2_mutant."""
    from test_acceptance import _perturbed

    structures = [standard_exact(R) for R in (R1, R2, R3)]
    structures.append(standard_exact(R3, vol3()))
    q = standard_exact(R2)
    structures += [_perturbed(q, *mutant) for mutant in standard_r2_mutants()]
    for q in structures:
        assert [label for label, ok in definitional_failures(q) if not ok] == []


def axioms_r4():
    """An exact twist dB on R4 of the shape the axioms benchmark draws: B =
    m dx1^dx2 with m = x3 * (x1 + 2*x4) involving a coordinate outside {1,
    2}, so dB is not zero."""
    m = parse_poly("x1*x3 + 2*x3*x4", R4)
    return standard_exact(R4, KForm(R4, 2, {(0, 1): m}).d())


def tau_rule_counts(monkeypatch, q):
    """TauModule.bracket calls, TauElement constructions (validated or
    through TauElement._raw) and validations of one passing check_tau_rules
    on q."""
    counts = {"bracket": 0, "element": 0, "validated": 0}
    bracket, post_init, raw = TauModule.bracket, TauElement.__post_init__, TauElement._raw

    def counted_bracket(self, x, y):
        counts["bracket"] += 1
        return bracket(self, x, y)

    def counted_post_init(self):
        counts["element"] += 1
        counts["validated"] += 1
        post_init(self)

    def counted_raw(*args):
        counts["element"] += 1
        return raw(*args)

    monkeypatch.setattr(TauModule, "bracket", counted_bracket)
    monkeypatch.setattr(TauElement, "__post_init__", counted_post_init)
    monkeypatch.setattr(TauElement, "_raw", staticmethod(counted_raw))
    assert check_tau_rules(q).ok
    return counts


def test_tau_rules_evaluate_only_the_cases_that_can_fail(monkeypatch):
    """One check_tau_rules on twisted R3 evaluates none of the cases that
    definitional_failures covers, and brackets only the cases that Lemma
    L14 admits, the dressed one-form cases included (732 brackets and 138
    elements with every case of the evaluated rules bracketed, 84 with the
    one-form cases unadmitted, 51 and 66 while graded antisymmetry walked
    every ordered pair and the two-forms before Lemma L16); a bracket that
    Lemma L14 shows zero returns the module's shared zero element. Only the
    elements built from caller data are validated, not the bracket results
    (54 validations while every result was validated again). M is zero
    here, so Lemma L17 builds no two-form (36 brackets, 54 elements and 21
    validations while graded_jacobi walked all three)."""
    counts = tau_rule_counts(monkeypatch, standard_exact(R3, vol3()))
    assert counts == {"bracket": 21, "element": 36, "validated": 18}


def test_tau_rules_bracket_only_admitted_cases_on_r4(monkeypatch):
    """The same gate on axioms_r4, where bracketing every case of the
    evaluated rules took 1,836 brackets and 253 elements, leaving the
    dressed one-form cases unadmitted 164 brackets, and walking graded
    antisymmetry on every ordered pair and the two-forms (before Lemma L16)
    104 brackets and 125 elements; 96 validations while every bracket
    result was validated again; 71 brackets, 96 elements and 29
    validations while graded_jacobi walked all six two-forms, which Lemma
    L17 now leaves unbuilt, M being zero."""
    counts = tau_rule_counts(monkeypatch, axioms_r4())
    assert counts == {"bracket": 35, "element": 54, "validated": 23}


def test_transgression_linear_reads_the_lifts_from_the_basis(monkeypatch):
    """One passing check_transgression_linear on the battery's tau-linear
    spec reads the lift of each generator e_x from comb.basis[x], which is
    the sum over the basis with the coefficients e_x, and makes no such
    sum (Presentation._combine): 68 when both generators of every pair
    were expanded."""
    spec = _battery_jobs()["tau-linear"]
    parts = [jsonio.courant_from_json(p) for p in spec["parts"]]
    weights = [jsonio.rational_from_json(w, "weights") for w in spec["weights"]]
    conns = [jsonio.connection_from_json(c, q) for c, q in zip(spec["connections"], parts)]
    calls = []
    combine = Presentation._combine

    def counted(self, *args):
        calls.append(args)
        return combine(self, *args)

    monkeypatch.setattr(Presentation, "_combine", counted)
    assert check_transgression_linear(parts, weights, conns).ok
    assert len(calls) == 0


def twisted_mutants(q, count, seed):
    """count seeded single-entry mutants of q, each (where, idx, delta):
    one anchor, coanchor, pairing (kept symmetric) or table entry shifted
    by 1, x1 or x1*x_n, and every shift of a pairing entry by x1, which
    makes the pairing <e_b, e_c> not constant."""
    from test_courant import _mutants

    chart = q.chart
    x1 = Poly.coord(chart, 0)
    deltas = (Poly.one(chart), x1, x1 * Poly.coord(chart, chart.dim - 1))
    mutants = _mutants(q, deltas, deltas)
    varying = [m for m in mutants if m[0] == "pairing" and m[2] == x1]
    return varying + random.Random(seed).sample(mutants, count)


def test_tau_rules_match_the_unpruned_reference():
    """Admission in check_tau_rules skips only cases whose both sides are
    zero: its report equals unpruned_tau_rules, which brackets every case
    through unpruned_tau_bracket, on standard R2 and its mutants, twisted
    R3, axioms_r4 and seeded mutants of twisted R3 and of axioms_r4."""
    from test_acceptance import _perturbed

    r2, r3 = standard_exact(R2), standard_exact(R3, vol3("x1 + x2"))
    structures = [r2, standard_exact(R3, vol3()), axioms_r4()]
    structures += [_perturbed(r2, *mutant) for mutant in standard_r2_mutants()]
    structures += [_perturbed(r3, *mutant) for mutant in twisted_mutants(r3, 40, 3)]
    r4 = axioms_r4()
    structures += [_perturbed(r4, *mutant) for mutant in twisted_mutants(r4, 10, 4)]
    for q in structures:
        assert str(check_tau_rules(q)) == str(unpruned_tau_rules(q))


@given(st.sampled_from([R2, R3, R4]), st.data())
@settings(max_examples=15, deadline=None)
def test_two_form_jacobi_cases_combine_the_eq5_defects(chart, data):
    """Lemma L17 (check_tau_rules): on x = (dx_i^dx_j)*c the graded_jacobi
    case (e_b, e_c) is A[b][i] M[c][j] - A[b][j] M[c][i] + A[c][i] M[b][j]
    - A[c][j] M[b][i], A the anchor rows and M the eq5 defects of
    generator_defects, so it is zero when columns i and j of M are.
    Standard R2-R4, R3 twisted by a drawn 3-form, with one anchor,
    coanchor or pairing entry shifted by 1, x1 or x1*x_n."""
    from test_acceptance import _perturbed
    from test_courant import _mutants

    h = data.draw(kforms(chart, 3, max_degree=1)) if chart.dim == 3 else None
    q = standard_exact(chart, h)
    x1 = Poly.coord(chart, 0)
    deltas = (Poly.one(chart), x1, x1 * Poly.coord(chart, chart.dim - 1))
    sites = [m for m in _mutants(q, deltas, ()) if m[0] != "structure"]
    q = _perturbed(q, *data.draw(st.sampled_from(sites)))
    tau, A, (M, _) = transgress(q), q.anchor, generator_defects(q)
    eps = [tau.section_eps(q.gen(a)) for a in range(q.rank)]
    for i, j in combinations(range(chart.dim), 2):
        x = tau.two_form_c(KForm(chart, 2, {(i, j): Poly.one(chart)}))
        for b, c in combinations_with_replacement(range(q.rank), 2):
            # lhs - rhs as graded_jacobi forms them
            lhs = tau.bracket(x, tau.bracket(eps[b], eps[c])).c_part
            rhs = tau.bracket(tau.bracket(x, eps[b]), eps[c]).c_part
            rhs = rhs + tau.bracket(eps[b], tau.bracket(x, eps[c])).c_part
            want = A[b][i] * M[c][j] - A[b][j] * M[c][i]
            want = want + A[c][i] * M[b][j] - A[c][j] * M[b][i]
            assert lhs - rhs == want, (i, j, b, c)


def test_tau_rules_build_only_the_two_forms_on_defective_columns(monkeypatch):
    """Lemma L17 prunes two-forms one by one: on axioms_r4 with coanchor
    row 2 shifted by x1, M is nonzero in column 2 only, and check_tau_rules
    builds exactly the three two-forms that contain dx3 (of six), and
    reports what unpruned_tau_rules does, which builds all six."""
    from test_acceptance import _perturbed

    q = _perturbed(axioms_r4(), "coanchor", (2, 0), Poly.coord(R4, 0))
    M, _ = generator_defects(q)
    columns = [any(not M[b][k].is_zero for b in range(q.rank)) for k in range(4)]
    assert columns == [False, False, True, False]
    built = []
    two_form_c = TauModule.two_form_c

    def counted(self, omega):
        built.extend(omega.comps)
        return two_form_c(self, omega)

    monkeypatch.setattr(TauModule, "two_form_c", counted)
    rep = check_tau_rules(q)
    assert built == [(0, 2), (1, 2), (2, 3)]
    built.clear()
    assert str(rep) == str(unpruned_tau_rules(q))
    assert len(built) == 6


def test_pruned_bracket_matches_the_unpruned_reference():
    """Lemma L14 in TauModule.bracket skips only parts that are zero: on
    standard R2, twisted R3 and the standard-R2 mutants, the bracket equals
    unpruned_tau_bracket in each pruned branch, on every pair of the
    elements pair(e_a), pair(x_k e_a), (dx_i^dx_j)*c in degree 0, e_a*eps
    and dx_j*c in degree -1, and c, x_k*c in degree -2. The support test
    reads a table entry only as zero or not, so of the table mutants the
    +1 ones stand for the +x1 ones."""
    from test_acceptance import _perturbed

    q = standard_exact(R2)
    structures = [q, standard_exact(R3, vol3())]
    structures += [
        _perturbed(q, where, idx, delta)
        for where, idx, delta in standard_r2_mutants()
        if where != "structure" or delta == Poly.one(R2)
    ]
    for q in structures:
        tau = transgress(q)
        chart, r, n = q.chart, q.rank, q.chart.dim
        sections = [q.gen(a) for a in range(r)]
        sections += [probe(q, a, k)[1] for a, k in product(range(r), range(n))]
        odd = [tau.section_eps(u) for u in sections[:r]]
        # dx_j*c is e_{n+j}*eps unless the coanchor row is mutated
        odd += [
            alpha_c
            for alpha_c in (tau.one_form_c(KForm.dx(chart, j)) for j in range(n))
            if alpha_c not in odd
        ]
        elements = {
            0: [tau.pair(u) for u in sections] + [
                tau.two_form_c(KForm(chart, 2, {(i, j): Poly.one(chart)}))
                for i, j in combinations(range(n), 2)
            ],
            -1: odd,
            -2: [tau.function_c(Poly.one(chart))]
            + [tau.coordinate_c(k) for k in range(n)],
        }
        for degrees in ((0, -2), (-1, -1), (0, -1), (-1, 0)):
            for x, y in product(*(elements[d] for d in degrees)):
                assert tau.bracket(x, y) == unpruned_tau_bracket(tau, x, y), (x, y)


@pytest.mark.parametrize("idx, label", [((0, 0), "e0, e0"), ((1, 0), "e0, e1")])
def test_graded_antisymmetry_reports_the_first_failure_with_a_at_most_b(idx, label):
    """Lemma L16 witnesses: on standard R2 with the table entry idx shifted
    by e0, graded antisymmetry first fails on the diagonal (0, 0), or, for
    the shift on (1, 0), at its mirror (0, 1), first in walk order; the
    unpruned walk, which visits every ordered pair, names the same."""
    from test_acceptance import _perturbed

    q = _perturbed(standard_exact(R2), "structure", (*idx, 0), Poly.one(R2))
    want = f"degrees (0,-1): {label}"
    assert check_tau_rules(q)["graded_antisymmetry"].counterexample == want
    assert unpruned_tau_rules(q)["graded_antisymmetry"].counterexample == want


@given(st.sampled_from([R2, R3]), st.data())
@settings(max_examples=20, deadline=None)
def test_graded_antisymmetry_fails_on_symmetric_generator_pairs(chart, data):
    """Lemma L16 on draws: standard R2, or R3 twisted by a drawn 3-form,
    with one or two entries shifted by 1, x1 or x1*x_n (the pairing kept
    symmetric). The generator pairs (a, b) on which graded antisymmetry
    fails, every ordered pair bracketed through unpruned_tau_bracket, form
    a symmetric set, and check_tau_rules reports what unpruned_tau_rules
    does."""
    from test_acceptance import _perturbed
    from test_courant import _mutants

    h = data.draw(kforms(chart, 3, max_degree=1)) if chart.dim == 3 else None
    q = standard_exact(chart, h)
    x1 = Poly.coord(chart, 0)
    deltas = (Poly.one(chart), x1, x1 * Poly.coord(chart, chart.dim - 1))
    shifts = st.lists(st.sampled_from(_mutants(q, deltas, deltas)), min_size=1, max_size=2)
    for mutant in data.draw(shifts):
        q = _perturbed(q, *mutant)
    tau, r = transgress(q), q.rank
    eps = [tau.section_eps(q.gen(a)) for a in range(r)]

    def fails(a, b):
        x = tau.pair(q.gen(a))
        both = tau_add(unpruned_tau_bracket(tau, x, eps[b]), unpruned_tau_bracket(tau, eps[b], x))
        return not tau_is_zero(both)

    failing = {(a, b) for a, b in product(range(r), repeat=2) if fails(a, b)}
    assert failing == {(b, a) for a, b in failing}
    assert str(check_tau_rules(q)) == str(unpruned_tau_rules(q))


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
