"""Courant structure data: axioms, twists, connections, combinations."""

from fractions import Fraction
from itertools import combinations_with_replacement, product
import re

import pytest
from hypothesis import given, settings, strategies as st

from algebroids.anchored import jacobi_generator_failures, jacobiator
from algebroids.courant import (
    Connection,
    CourantData,
    associated_lie_algebroid,
    baer_combination,
    baer_sum,
    check_courant,
    check_courant_morphism,
    connection_shift,
    coordinate_connection,
    curvature,
    direct_sum,
    opposite,
    scalar_multiple,
    standard_exact,
    twist,
)
from algebroids.errors import ChartMismatchError, ValidationError
from algebroids.lie_algebroid import MarkedLieData, check_marked, tangent_algebroid
from algebroids.linalg import unit_vec, vec_add, vec_eq, vec_scale, vec_sub, zero_vec
from algebroids.symcalc import KForm, Poly, coordinate_chart, parse_poly

from test_acceptance import A2, _magnetic_total, _perturbed, _perturbed_lie
from test_symcalc import kforms, polys

R1 = coordinate_chart("L", 1)
R2 = coordinate_chart("P", 2)
R3 = coordinate_chart("X", 3)
R4 = coordinate_chart("W", 4)

CHECK_NAMES = [
    "eq1_anchor_coanchor",
    "eq2_leibniz_rule",
    "eq3_pairing_invariance",
    "eq4_coanchor_ideal",
    "eq5_adjunction",
    "eq6_symmetrization",
    "leibniz_identity",
]


def sec(chart, *exprs):
    return tuple(parse_poly(e, chart) for e in exprs)


def vol3(scale="1"):
    return KForm(R3, 3, {(0, 1, 2): parse_poly(scale, R3)})


def test_standard_passes_small_dims():
    for chart in (R1, R2, R3):
        rep = check_courant(standard_exact(chart), samples=8, seed=3)
        assert rep.ok, str(rep)
        assert rep.check_names() == CHECK_NAMES


@pytest.mark.parametrize("m", [standard_exact(R2), tangent_algebroid(R2)], ids=["courant", "lie"])
def test_bracket_with_a_zero_side_checks_chart_and_length(m):
    u = unit_vec(R2, m.rank, 0)
    assert vec_eq(m.bracket(u, m.zero_section()), m.zero_section())
    for bad, error in (
        (zero_vec(R3, m.rank), ChartMismatchError),
        (zero_vec(R2, m.rank - 1), ValidationError),
        (zero_vec(R2, m.rank + 1), ValidationError),
        (unit_vec(R2, m.rank - 1, 0), ValidationError),
        (unit_vec(R2, m.rank + 1, m.rank), ValidationError),
    ):
        for pair in ((bad, u), (u, bad), (bad, m.zero_section())):
            with pytest.raises(error):
                m.bracket(*pair)


def test_twisted_standard_passes():
    for h in (vol3(), vol3("x1 + x2")):
        rep = check_courant(standard_exact(R3, h), samples=6, seed=5)
        assert rep.ok, str(rep)


def test_nonclosed_twist_fails_leibniz_only():
    h = KForm(R4, 3, {(1, 2, 3): Poly.coord(R4, 0)})
    assert not h.d().is_zero
    rep = check_courant(standard_exact(R4, h), samples=4, seed=7)
    assert [c.name for c in rep.failures()] == ["leibniz_identity"]
    assert "defect" in rep["leibniz_identity"].counterexample


def test_twist_matches_twisted_standard():
    for h in (vol3(), vol3("x1*x3")):
        assert twist(standard_exact(R3), h) == standard_exact(R3, h)


def test_twists_compose_additively():
    h1, h2 = vol3("x1"), vol3("x2 - 2*x3")
    assert twist(twist(standard_exact(R3), h1), h2) == standard_exact(
        R3, h1 + h2
    )


def test_section_bracket_values():
    q = standard_exact(R2)
    # {x2 d1, d2} = -d1 and {x1 d1, dx1} picks up the coanchor correction.
    u = sec(R2, "x2", "0", "0", "0")
    assert q.bracket(u, q.gen(1)) == sec(R2, "-1", "0", "0", "0")
    v = sec(R2, "x1", "0", "0", "0")
    assert q.bracket(v, q.gen(2)) == sec(R2, "0", "0", "1", "0")


def test_opposite_is_involutive_and_valid():
    q = standard_exact(R2)
    assert opposite(opposite(q)) == q
    assert check_courant(opposite(q), samples=6, seed=11).ok


def test_direct_sum_valid():
    q = direct_sum(standard_exact(R2), opposite(standard_exact(R2)))
    assert q.rank == 8
    rep = check_courant(q, samples=4, seed=13)
    assert rep.ok, str(rep)


def test_nonsymmetric_pairing_rejected():
    q = standard_exact(R1)
    bad = (sec(R1, "0", "1"), sec(R1, "0", "0"))
    with pytest.raises(ValidationError):
        CourantData(R1, 2, q.anchor, q.coanchor, bad, {})


def test_connection_validation():
    q = standard_exact(R2)
    coordinate_connection(q)
    # Wrong anchor image.
    with pytest.raises(ValidationError):
        Connection(q, (q.gen(0), q.gen(0)))
    # Anchored correctly but not isotropic.
    cols = (
        sec(R2, "1", "0", "1", "0"),
        q.gen(1),
    )
    with pytest.raises(ValidationError):
        Connection(q, cols)


def test_curvature_recovers_twist():
    for h in (vol3(), vol3("x1 + x2"), vol3("x2*x3")):
        q = standard_exact(R3, h)
        assert curvature(coordinate_connection(q)) == h


def test_curvature_shift_is_torsor_action():
    h = vol3("x1")
    q = standard_exact(R3, h)
    conn = coordinate_connection(q)
    b = KForm(R3, 2, {(0, 1): Poly.coord(R3, 2)})
    shifted = connection_shift(conn, b)
    assert shifted.columns[0] == sec(R3, "1", "0", "0", "0", "x3", "0")
    assert curvature(shifted) == h + b.d()


def test_curvature_shift_seeded_two_forms():
    from algebroids.sampling import sample_kform
    import random

    rng = random.Random(20)
    q = standard_exact(R3, vol3("x1*x2"))
    conn = coordinate_connection(q)
    base = curvature(conn)
    for _ in range(5):
        b = sample_kform(rng, R3, 2)
        assert curvature(connection_shift(conn, b)) == base + b.d()


def test_associated_lie_algebroid_of_standard():
    q = standard_exact(R2)
    lie, projection = associated_lie_algebroid(q)
    assert lie == tangent_algebroid(R2)
    assert projection[0] == unit_vec(R2, 2, 0)
    assert projection[3] == zero_vec(R2, 2)


def test_associated_lie_algebroid_drops_twist():
    q = standard_exact(R3, vol3("x1"))
    lie, _ = associated_lie_algebroid(q)
    assert lie == tangent_algebroid(R3)


def test_baer_sum_of_standards_is_standard():
    h1, h2 = vol3(), vol3("x1 + x2")
    q1, q2 = standard_exact(R3, h1), standard_exact(R3, h2)
    comb = baer_sum(q1, q2, coordinate_connection(q1), coordinate_connection(q2))
    assert comb.result == standard_exact(R3, h1 + h2)
    identity = tuple(comb.result.gen(a) for a in range(comb.result.rank))
    rep = check_courant_morphism(
        comb.result, standard_exact(R3, h1 + h2), identity
    )
    assert rep.ok, str(rep)


def test_weighted_combination_scales_curvatures():
    h1, h2 = vol3("x3"), vol3("x1*x1")
    q1, q2 = standard_exact(R3, h1), standard_exact(R3, h2)
    comb = baer_combination(
        [q1, q2],
        [3, -2],
        [coordinate_connection(q1), coordinate_connection(q2)],
    )
    expected = KForm(
        R3, 3, {(0, 1, 2): parse_poly("3*x3 - 2*x1*x1", R3)}
    )
    assert comb.result == standard_exact(R3, expected)
    assert check_courant(comb.result, samples=4, seed=17).ok


def test_combination_lift_reduce_round_trip():
    h1, h2 = vol3("x2"), vol3()
    q1, q2 = standard_exact(R3, h1), standard_exact(R3, h2)
    comb = baer_combination(
        [q1, q2],
        [2, 1],
        [coordinate_connection(q1), coordinate_connection(q2)],
    )
    cls = sec(R3, "x1", "0", "1", "x2*x3", "0", "2")
    lifted = comb.lift(cls)
    assert q1.anchor_of(lifted[0]) == q2.anchor_of(lifted[1])
    assert comb.reduce_tuple(lifted) == cls


def test_combination_input_validation():
    q = standard_exact(R2)
    conn = coordinate_connection(q)
    with pytest.raises(ValidationError):
        baer_combination([q, q], [0, 0], [conn, conn])
    fat = direct_sum(q, opposite(q))
    with pytest.raises(ValidationError):
        baer_combination([fat], [1], [coordinate_connection(fat)])


def test_scalar_multiple_matches_combination():
    h = vol3("x1 + 2*x2")
    q = standard_exact(R3, h)
    comb = baer_combination([q], [5], [coordinate_connection(q)])
    assert comb.result == standard_exact(R3, KForm(R3, 3, {(0, 1, 2): 5 * h.component((0, 1, 2))}))
    sm = scalar_multiple(5, q)
    assert check_courant(sm, samples=4, seed=19).ok
    # sm is the same object presented on unscaled generators; the diagonal
    # rescaling of the coanchor directions maps it onto the combination.
    matrix = tuple(sm.gen(a) for a in range(3)) + tuple(
        tuple(Fraction(5) * p for p in sm.gen(a)) for a in range(3, 6)
    )
    rep = check_courant_morphism(sm, comb.result, matrix)
    assert rep.ok, str(rep)
    with pytest.raises(ValidationError):
        scalar_multiple(0, q)


def test_integer_structures_multiply_on_ints(monkeypatch):
    # An integer structure keeps every coefficient an int through the whole
    # axiom suite; a stray Fraction literal would send every product down
    # the Fraction path.
    from algebroids import symcalc

    seen = []
    real = symcalc.mul_terms

    def spy(a, b):
        out = real(a, b)
        seen.extend(type(c) for terms in (a, b, out) for c in terms.values())
        return out

    monkeypatch.setattr(symcalc, "mul_terms", spy)
    rep = check_courant(standard_exact(R3, vol3("x1")), samples=8, seed=0)
    assert rep.ok, str(rep)
    assert seen and set(seen) == {int}


def _coeff_types(polys):
    return {type(c) for p in polys for c in p.terms.values()}


def _table_polys(q):
    for table in (q.anchor, q.coanchor, q.pairing):
        for row in table:
            yield from row
    for vec in q.structure.values():
        yield from vec


def test_rational_weights_and_solves_never_yield_floats():
    from algebroids.linalg import poly_inverse_unit_det, qq_solve

    x1 = Poly.coord(R2, 0)
    inv = poly_inverse_unit_det([[Poly.const(R2, 2), x1], [Poly.zero(R2), Poly.one(R2)]])
    assert inv == [
        [Poly.const(R2, Fraction(1, 2)), x1 * Fraction(-1, 2)],
        [Poly.zero(R2), Poly.one(R2)],
    ]
    assert float not in _coeff_types(p for row in inv for p in row)
    x = qq_solve([[2, 1], [0, 4]], [1, 3])
    assert x == [Fraction(1, 8), Fraction(3, 4)]
    assert {type(c) for c in x} == {Fraction}

    q = standard_exact(R3, vol3("x1 + 2*x2"))
    half = scalar_multiple(Fraction(1, 2), q)
    assert Fraction in _coeff_types(_table_polys(half))
    assert float not in _coeff_types(_table_polys(half))
    comb = baer_combination(
        [q, q], [Fraction(1, 3), Fraction(2, 3)], [coordinate_connection(q)] * 2
    )
    assert float not in _coeff_types(_table_polys(comb.result))


def test_morphism_check_flags_wrong_twist():
    h1, h2 = vol3(), vol3("x3")
    q1, q2 = standard_exact(R3, h1), standard_exact(R3, h2)
    identity = tuple(q1.gen(a) for a in range(q1.rank))
    rep = check_courant_morphism(q1, q2, identity)
    assert [c.name for c in rep.failures()] == ["morphism_bracket"]


def _rows(count, length):
    """count rows of length polynomials on R2 of degree at most 1."""
    entry = polys(R2, max_degree=1, max_terms=2)
    return st.tuples(*[st.tuples(*[entry] * length) for _ in range(count)])


@st.composite
def courant_data(draw, min_rank=1):
    """CourantData on R2 of rank min_rank-3 with an arbitrary anchor,
    coanchor, symmetric pairing and table; most of them break the axioms."""
    r = draw(st.integers(min_rank, 3))
    upper = draw(_rows(r, r))
    pairing = tuple(
        tuple(upper[min(a, b)][max(a, b)] for b in range(r)) for a in range(r)
    )
    keys = st.tuples(st.integers(0, r - 1), st.integers(0, r - 1))
    table = st.dictionaries(keys, _rows(1, r).map(lambda m: m[0]), max_size=4)
    return CourantData(
        R2, r, draw(_rows(r, 2)), draw(_rows(2, r)), pairing, draw(table)
    )


@given(courant_data(), st.data())
@settings(max_examples=30, deadline=None)
def test_bracket_leibniz_rules_hold_for_any_table(q, data):
    """[u, f v] = f [u, v] + anchor(u)(f) v, and in the left slot
    [f u, v] = f [u, v] - anchor(v)(f) u + <u, v> coanchor(df), whatever
    the structure data: why eq2_leibniz_rule is a pass by construction."""
    section = st.tuples(*[polys(R2)] * q.rank)
    u, v, f = data.draw(section), data.draw(section), data.draw(polys(R2))
    uv = q.bracket(u, v)
    right = vec_add(vec_scale(f, uv), vec_scale(q.anchor_of(u).apply(f), v))
    assert vec_eq(q.bracket(u, vec_scale(f, v)), right)
    left = vec_sub(vec_scale(f, uv), vec_scale(q.anchor_of(v).apply(f), u))
    df = q.coanchor_of(KForm.from_poly(f).d())
    left = vec_add(left, vec_scale(q.pairing_of(u, v), df))
    assert vec_eq(q.bracket(vec_scale(f, u), v), left)


# Constant shifts of the tangent block of the pairing keep standard R2 a
# Courant structure: the axioms do not ask for a nondegenerate pairing.
R2_SURVIVORS = [
    ("pairing", idx, delta)
    for idx in ((0, 0), (0, 1), (1, 1))
    for delta in ("1", "-1")
]


def _mutants(q, site_deltas, table_deltas):
    """Each delta on one anchor, coanchor or pairing entry (the pairing kept
    symmetric) and each table delta on one structure entry of q."""
    r, n = q.rank, q.chart.dim
    sites = [("anchor", (a, j)) for a in range(r) for j in range(n)]
    sites += [("coanchor", (j, a)) for j in range(n) for a in range(r)]
    sites += [("pairing", (a, b)) for a in range(r) for b in range(a, r)]
    mutants = [(w, i, d) for w, i in sites for d in site_deltas]
    return mutants + [
        ("structure", idx, d)
        for idx in product(range(r), repeat=3)
        for d in table_deltas
    ]


def _survivors(q, mutants):
    """The mutants that pass check_courant without samples."""
    survivors = []
    for where, idx, delta in mutants:
        rep = check_courant(_perturbed(q, where, idx, delta), samples=0)
        assert rep["eq2_leibniz_rule"].passed
        if rep.ok:
            survivors.append((where, idx, str(delta)))
    return survivors


def test_generator_cases_refute_every_r2_mutant_but_pairing_shifts():
    """Every +-1/+-x_i shift of one anchor, coanchor or pairing entry and
    every +1/-1/+x1 shift of one table entry of standard R2."""
    q = standard_exact(R2)
    one, x1, x2 = Poly.one(R2), Poly.coord(R2, 0), Poly.coord(R2, 1)
    mutants = _mutants(q, (one, -one, x1, -x1, x2, -x2), (one, -one, x1))
    assert len(mutants) == 348
    assert _survivors(q, mutants) == R2_SURVIVORS


def test_generator_cases_refute_every_r3_mutant_but_pairing_shifts():
    """+1 and +x1 on one anchor, coanchor or pairing entry and +1 on one
    table entry of R3 twisted by (x1 + x2) dx1 dx2 dx3. Only the constant
    shifts of the tangent block of the pairing survive, as on R2."""
    q = standard_exact(R3, vol3("x1 + x2"))
    one, x1 = Poly.one(R3), Poly.coord(R3, 0)
    mutants = _mutants(q, (one, x1), (one,))
    assert len(mutants) == 330
    survivors = [("pairing", (a, b), "1") for a in range(3) for b in range(a, 3)]
    assert _survivors(q, mutants) == survivors


# Defects of eq3-eq6 on arbitrary sections; check_courant decides each on
# generators plus the first-order probe cases of lemmas L5-L8.


def e3(q, u, v, w):
    """anchor(u)<v, w> - <[u, v], w> - <v, [u, w]>."""
    lhs = q.anchor_of(u).apply(q.pairing_of(v, w))
    return lhs - q.pairing_of(q.bracket(u, v), w) - q.pairing_of(v, q.bracket(u, w))


def e4(q, u, alpha):
    """[u, coanchor(alpha)] - coanchor(L_{anchor(u)} alpha)."""
    lhs = q.bracket(u, q.coanchor_of(alpha))
    return vec_sub(lhs, q.coanchor_of(alpha.lie(q.anchor_of(u))))


def e5(q, u, alpha):
    """<u, coanchor(alpha)> - alpha(anchor(u))."""
    lhs = q.pairing_of(u, q.coanchor_of(alpha))
    return lhs - alpha.iota(q.anchor_of(u)).as_poly()


def e6(q, u, v):
    """[u, v] + [v, u] - coanchor(d<u, v>)."""
    lhs = vec_add(q.bracket(u, v), q.bracket(v, u))
    return vec_sub(lhs, q.coanchor_of(KForm.from_poly(q.pairing_of(u, v)).d()))


def _draw_sections(q, data, count, **kw):
    section = st.tuples(*[polys(R2, **kw)] * q.rank)
    return [data.draw(section) for _ in range(count)]


@given(courant_data(), st.data())
@settings(max_examples=25, deadline=None)
def test_adjunction_and_symmetrization_defects_are_function_linear(q, data):
    """L5 and L6: the eq5 and eq6 defects are function-linear in every
    argument, whatever the structure data."""
    u, v = _draw_sections(q, data, 2)
    f = data.draw(polys(R2))
    alpha = data.draw(kforms(R2, 1))
    fu, fv = vec_scale(f, u), vec_scale(f, v)
    assert e5(q, fu, alpha) == f * e5(q, u, alpha)
    assert e5(q, u, alpha.scale(f)) == f * e5(q, u, alpha)
    assert vec_eq(e6(q, fu, v), vec_scale(f, e6(q, u, v)))
    assert vec_eq(e6(q, u, fv), vec_scale(f, e6(q, u, v)))


@given(courant_data(), st.data())
@settings(max_examples=25, deadline=None)
def test_pairing_invariance_defect_obeys_l7(q, data):
    """E3 is function-linear in v and w, and E3(f u, v, w) = f E3(u, v, w)
    - <u, v> E5(w, df) - <u, w> E5(v, df)."""
    u, v, w = _draw_sections(q, data, 3)
    f = data.draw(polys(R2))
    df = KForm.from_poly(f).d()
    base = e3(q, u, v, w)
    assert e3(q, u, vec_scale(f, v), w) == f * base
    assert e3(q, u, v, vec_scale(f, w)) == f * base
    expected = (
        f * base
        - q.pairing_of(u, v) * e5(q, w, df)
        - q.pairing_of(u, w) * e5(q, v, df)
    )
    assert e3(q, vec_scale(f, u), v, w) == expected


@given(courant_data(), st.data())
@settings(max_examples=25, deadline=None)
def test_coanchor_ideal_defect_obeys_l8(q, data):
    """E4 is function-linear in alpha, and E4(f u, alpha) = f E4(u, alpha)
    - anchor(coanchor(alpha))(f) u + E5(u, alpha) coanchor(df)."""
    (u,) = _draw_sections(q, data, 1)
    f = data.draw(polys(R2))
    alpha = data.draw(kforms(R2, 1))
    base = e4(q, u, alpha)
    falpha = alpha.scale(f)
    assert vec_eq(e4(q, u, falpha), vec_scale(f, base))
    n_alpha = q.anchor_of(q.coanchor_of(alpha))
    expected = vec_sub(vec_scale(f, base), vec_scale(n_alpha.apply(f), u))
    df = q.coanchor_of(KForm.from_poly(f).d())
    expected = vec_add(expected, vec_scale(e5(q, u, alpha), df))
    assert vec_eq(e4(q, vec_scale(f, u), alpha), expected)


# The slot formulas of the jacobiator J (L10-L12 in check_courant), each
# against direct jacobiator calls on tables that break the axioms.


def anchor_defect(q, u, v):
    """anchor([u, v]) - [anchor(u), anchor(v)]."""
    return q.anchor_of(q.bracket(u, v)) - q.anchor_of(u).bracket(q.anchor_of(v))


def c_d(q, f):
    """coanchor(df)."""
    return q.coanchor_of(KForm.from_poly(f).d())


def _combine(q, *terms):
    """The sum of coefficient * section over (coefficient, section) pairs."""
    out = zero_vec(q.chart, q.rank)
    for coeff, vec in terms:
        out = vec_add(out, vec_scale(coeff, vec))
    return out


@given(courant_data(min_rank=2), st.data())
@settings(max_examples=15, deadline=None)
def test_jacobiator_w_slot_obeys_l10(q, data):
    """J(u, v, f w) = f J(u, v, w) - A(u, v)(f) w; A(u, f v) = f A(u, v)
    and A(f u, v) = f A(u, v) + <u, v> anchor(coanchor(df))."""
    u, v, w = _draw_sections(q, data, 3)
    f = data.draw(polys(R2))
    a_uv = anchor_defect(q, u, v)
    expected = _combine(q, (f, jacobiator(q, u, v, w)), (-a_uv.apply(f), w))
    assert vec_eq(jacobiator(q, u, v, vec_scale(f, w)), expected)
    assert anchor_defect(q, u, vec_scale(f, v)) == a_uv.scale(f)
    n_df = q.anchor_of(c_d(q, f)).scale(q.pairing_of(u, v))
    assert anchor_defect(q, vec_scale(f, u), v) == a_uv.scale(f) + n_df


@given(courant_data(min_rank=2), st.data())
@settings(max_examples=15, deadline=None)
def test_jacobiator_v_slot_obeys_l11(q, data):
    """J(u, f v, w) = f J + A(u, w)(f) v + <v, w> E4(u, df)
    + E3(u, v, w) coanchor(df), and K_k(u, e_b, e_c) = g_bc E4(u, dx_k)
    + E3(u, e_b, e_c) coanchor[k] picks up the closed-form correction of
    L11 at u = x_m e_a."""
    u, v, w = _draw_sections(q, data, 3)
    f = data.draw(polys(R2))
    df = KForm.from_poly(f).d()
    expected = _combine(
        q,
        (f, jacobiator(q, u, v, w)),
        (anchor_defect(q, u, w).apply(f), v),
        (q.pairing_of(v, w), e4(q, u, df)),
        (e3(q, u, v, w), c_d(q, f)),
    )
    assert vec_eq(jacobiator(q, u, vec_scale(f, v), w), expected)

    a, b, c = (data.draw(st.integers(0, q.rank - 1)) for _ in range(3))
    k, m = (data.draw(st.integers(0, 1)) for _ in range(2))
    e = [unit_vec(R2, q.rank, i) for i in range(q.rank)]
    g = q.pairing

    def big_m(i, j):
        return q.pairing_of(e[i], q.coanchor[j]) - q.anchor[i][j]

    def k_defect(u):
        dx_k = KForm.dx(R2, k)
        return _combine(
            q, (g[b][c], e4(q, u, dx_k)), (e3(q, u, e[b], e[c]), q.coanchor[k])
        )

    x_m = Poly.coord(R2, m)
    n_k = q.anchor_of(q.coanchor[k])
    closed = _combine(
        q,
        (g[b][c] * big_m(a, k), q.coanchor[m]),
        (-(g[b][c] * n_k.comps[m]), e[a]),
        (-(g[a][b] * big_m(c, m) + g[a][c] * big_m(b, m)), q.coanchor[k]),
    )
    got = vec_sub(k_defect(vec_scale(x_m, e[a])), vec_scale(x_m, k_defect(e[a])))
    assert vec_eq(got, closed)


@given(courant_data(min_rank=2), st.data())
@settings(max_examples=15, deadline=None)
def test_jacobiator_u_slot_obeys_l12(q, data):
    """The closed forms of J(f u, v, w) and [coanchor(df), w] in L12."""
    u, v, w = _draw_sections(q, data, 3)
    f = data.draw(polys(R2))
    df = KForm.from_poly(f).d()
    cdf = c_d(q, f)
    uv = q.pairing_of(u, v)
    cdf_w = _combine(
        q, (-1, e4(q, w, df)), (1, c_d(q, e5(q, w, df))), (1, e6(q, cdf, w))
    )
    assert vec_eq(q.bracket(cdf, w), cdf_w)
    scalar = (
        e3(q, v, u, w)
        + q.pairing_of(e6(q, u, v), w)
        + e5(q, w, KForm.from_poly(uv).d())
    )
    expected = _combine(
        q,
        (f, jacobiator(q, u, v, w)),
        (-anchor_defect(q, v, w).apply(f), u),
        (-scalar, cdf),
        (q.anchor_of(w).apply(f), e6(q, u, v)),
        (-e5(q, w, df), c_d(q, uv)),
        (-q.pairing_of(u, w), e4(q, v, df)),
        (-uv, cdf_w),
    )
    assert vec_eq(jacobiator(q, vec_scale(f, u), v, w), expected)


@given(courant_data(min_rank=2), st.data())
@settings(max_examples=12, deadline=None)
def test_jacobiator_u_slot_is_second_order(q, data):
    """L12: D(f) = J(f u, v, w) - f J(u, v, w) is the order-two operator
    that D(x_k) and D(x_k x_l) fix, so those probes decide the u slot."""
    u, v, w = _draw_sections(q, data, 3, max_degree=1)
    f = data.draw(polys(R2, max_degree=3))
    base = jacobiator(q, u, v, w)

    def big_d(p):
        return vec_sub(jacobiator(q, vec_scale(p, u), v, w), vec_scale(p, base))

    x = [Poly.coord(R2, k) for k in range(2)]
    first = [big_d(x[k]) for k in range(2)]
    expected = _combine(q, *[(f.diff(k), first[k]) for k in range(2)])
    for k, l in combinations_with_replacement(range(2), 2):
        # (1 + delta_kl) D_kl
        cross = _combine(q, (x[l], first[k]), (x[k], first[l]))
        d_kl = vec_sub(big_d(x[k] * x[l]), cross)
        weight = f.diff(k).diff(l) * Fraction(1, 1 + (k == l))
        expected = vec_add(expected, vec_scale(weight, d_kl))
    assert vec_eq(big_d(f), expected)


def _named_sections(label, chart, rank):
    """The sections x_k*...*e_a a counterexample label names, in order; a
    defect after the colon is not read."""
    out = []
    for coeff, a in re.findall(r"((?:x\d+\*)*)e(\d+)", label.split(":")[0]):
        poly = parse_poly(coeff.rstrip("*") or "1", chart)
        out.append(vec_scale(poly, unit_vec(chart, rank, int(a))))
    return out


def test_probe_cases_name_failing_sections():
    """On the courant-anchor and marked-anchor inputs of the failing-report
    pins, eq3, eq4, leibniz_identity and marking_central hold on generators
    and fail on a probe case; the identity is nonzero on the sections each
    one names."""
    q = _perturbed(standard_exact(A2), "anchor", (0, 0), 1)
    rep = check_courant(q, samples=0)
    label = rep["eq3_pairing_invariance"].counterexample
    assert label.startswith("sections (")
    u, v, w = _named_sections(label, A2, q.rank)
    assert not e3(q, u, v, w).is_zero
    label = rep["eq4_coanchor_ideal"].counterexample
    assert label.startswith("section ")
    (u,) = _named_sections(label, A2, q.rank)
    alpha = KForm.dx(A2, A2.coords.index(label.rsplit(" ", 1)[1]))
    assert not vec_eq(e4(q, u, alpha), zero_vec(A2, q.rank))

    label = rep["leibniz_identity"].counterexample
    assert label.startswith("sections (")
    u, v, w = _named_sections(label, A2, q.rank)
    assert not vec_eq(jacobiator(q, u, v, w), zero_vec(A2, q.rank))

    total = _perturbed_lie(_magnetic_total(A2), "anchor", (2, 0), Poly.coord(A2, 0))
    marking = unit_vec(A2, 3, 2)
    rep = check_marked(MarkedLieData(total, marking))
    label = rep["marking_central"].counterexample
    assert label.startswith("section ")
    (u,) = _named_sections(label, A2, 3)
    assert not vec_eq(total.bracket(u, marking), zero_vec(A2, 3))


def _zero_coanchor(chart):
    """The tangent table with a zero coanchor and the identity pairing. The
    bracket is the bracket of vector fields, so J = 0, but the pairing is
    not invariant (eq3) and the coanchor not adjoint to the anchor (eq5)."""
    n = chart.dim
    frame = tuple(unit_vec(chart, n, i) for i in range(n))
    return CourantData(chart, n, frame, (zero_vec(chart, n),) * n, frame, {})


@pytest.mark.parametrize("chart", [R2, R3])
def test_leibniz_identity_runs_every_probe_when_prerequisites_fail(chart, monkeypatch):
    """The worst case of leibniz_identity: eq3 and eq5 fail, so J is not
    known to be tensorial, yet J = 0, so every stage of L10-L12 runs and
    passes, including all first- and second-order probes."""
    from algebroids import courant

    probes = []
    real = courant.jacobi_left_probe_failures

    def spy(q, batch):
        batch = list(batch)
        probes.extend(label for label, _ in batch)
        return real(q, batch)

    monkeypatch.setattr(courant, "jacobi_left_probe_failures", spy)
    q = _zero_coanchor(chart)
    rep = check_courant(q)
    assert [c.name for c in rep.failures()] == [
        "eq3_pairing_invariance",
        "eq5_adjunction",
    ]
    n = chart.dim
    assert len(probes) == n * n + n * n * (n + 1) // 2
    assert rep["leibniz_identity"].passed


def test_leibniz_identity_names_a_probe_past_the_generator_triples():
    """R3 twisted by (x1 + x2) dx1 dx2 dx3 with anchor[0][2] + 1: every
    generator triple and the anchor on generators hold, and leibniz_identity
    fails on probe sections, where J is nonzero."""
    q = _perturbed(standard_exact(R3, vol3("x1 + x2")), "anchor", (0, 2), 1)
    assert not any(jacobi_generator_failures(q))
    label = check_courant(q)["leibniz_identity"].counterexample
    assert label.startswith("sections (")
    u, v, w = _named_sections(label, R3, q.rank)
    assert not vec_eq(jacobiator(q, u, v, w), zero_vec(R3, q.rank))
