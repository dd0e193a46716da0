"""Core symbolic calculus: exact arithmetic, Cartan calculus, grammar."""

import copy
import dataclasses
import itertools
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algebroids import jsonio, symcalc
from algebroids.cli import main
from algebroids.courant import standard_exact
from algebroids.dirac import support_inclusion
from algebroids.errors import (
    ChartMismatchError,
    DegreeOverflowError,
    ParseError,
    ValidationError,
)
from algebroids.symcalc import (
    Chart,
    ChartMap,
    KForm,
    Poly,
    VField,
    _Parser,
    _tokenize,
    add_terms,
    coordinate_chart,
    kform_str,
    mul_terms,
    parse_expr,
    parse_poly,
    poly_str,
    scale_terms,
    vfield_str,
)

from oracles import (
    kform_neg,
    kform_scale,
    kform_sub,
    scalar_multiple,
    scanned_constant,
    vfield_add,
    vfield_neg,
    vfield_zero,
)
from test_acceptance import _battery_jobs

R1 = Chart("R1", ("t",))
R2 = coordinate_chart("R2", 2)
R3 = coordinate_chart("R3", 3)


def polys(chart, max_degree=2, max_terms=3, coeff=3, max_den=1):
    exps = st.tuples(
        *[st.integers(0, max_degree) for _ in range(chart.dim)]
    ).filter(lambda e: sum(e) <= max_degree)
    coeffs = st.builds(Fraction, st.integers(-coeff, coeff), st.integers(1, max_den))
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda terms: Poly(chart, terms)
    )


def rational_polys(chart, **kw):
    """polys with denominators 1-4: terms mix ints and Fractions."""
    return polys(chart, max_den=4, **kw)


def vfields(chart, **kw):
    return st.tuples(*[polys(chart, **kw) for _ in range(chart.dim)]).map(
        lambda comps: VField(chart, comps)
    )


def kforms(chart, degree, **kw):
    indices = list(itertools.combinations(range(chart.dim), degree))
    return st.dictionaries(
        st.sampled_from(indices), polys(chart, **kw), max_size=2
    ).map(lambda comps: KForm(chart, degree, comps))


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def test_poly_basic_arithmetic():
    x1 = Poly.coord(R2, "x1")
    x2 = Poly.coord(R2, "x2")
    square = (x1 + x2) ** 2
    assert square == x1 * x1 + 2 * x1 * x2 + x2 * x2
    assert poly_str(square) == "x1^2 + 2*x1*x2 + x2^2"
    assert (square - square).is_zero
    assert square.degree() == 2
    assert Poly.zero(R2).degree() == -1


def test_poly_rational_coefficients():
    p = parse_poly("1/2*x1 - 3/4", R2)
    assert p * 4 == parse_poly("2*x1 - 3", R2)
    assert p.constant_term() == Fraction(-3, 4)


def test_poly_diff():
    p = parse_poly("x1^3*x2 + 2*x2", R2)
    assert p.diff("x1") == parse_poly("3*x1^2*x2", R2)
    assert p.diff("x2") == parse_poly("x1^3 + 2", R2)
    assert p.diff(0).diff(1) == p.diff(1).diff(0)


def test_poly_chart_mismatch():
    with pytest.raises(ChartMismatchError):
        Poly.coord(R2, 0) + Poly.coord(R3, 0)


def test_degree_cap():
    x = Poly.coord(R1, "t")
    with pytest.raises(DegreeOverflowError):
        (x**9) * (x**8)
    assert (x**8) * (x**8) == x**16
    # The parser builds a term of any degree; a product with the chart's
    # unit, which returns the other side itself, still reads the cap.
    big = parse_expr("t^17", R1)
    with pytest.raises(DegreeOverflowError):
        big * R1.one
    with pytest.raises(DegreeOverflowError):
        R1.one * big


def test_pure_kernel_does_not_mutate():
    a = {(1, 0): Fraction(2)}
    b = {(1, 0): Fraction(-2)}
    out = add_terms(a, b)
    assert out == {}
    assert a == {(1, 0): Fraction(2)} and b == {(1, 0): Fraction(-2)}


def test_zero_dimensional_chart():
    pt = Chart("pt", ())
    p = Poly.const(pt, Fraction(5, 2))
    assert p * p == Poly.const(pt, Fraction(25, 4))
    assert p.degree() == 0


@given(polys(R2), polys(R2), polys(R2))
def test_poly_ring_axioms(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p


@given(polys(R3), polys(R3))
def test_poly_diff_is_derivation(p, q):
    for i in range(3):
        assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


@given(rational_polys(R2), rational_polys(R2), rational_polys(R2))
def test_rational_poly_ring_axioms(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p - q) + q == p


@given(rational_polys(R3), rational_polys(R3))
def test_rational_poly_diff_is_derivation(p, q):
    for i in range(3):
        assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


@given(rational_polys(R3), rational_polys(R3))
def test_product_degree_is_the_sum_of_degrees(p, q):
    prod = p * q
    assert prod.degree() == max(map(sum, prod.terms), default=-1)
    if not p.is_zero and not q.is_zero:
        assert prod.degree() == p.degree() + q.degree()


nonzero_constants = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(2, 4)),
)


@given(rational_polys(R2), nonzero_constants)
def test_a_constant_side_scales_as_the_general_product_multiplies(p, c):
    """A product with a nonzero constant side has the terms mul_terms gives,
    in either order, with every integral coefficient stored as an int."""
    k = Poly.const(R2, c)
    want = mul_terms(p.terms, k.terms)
    for got in (p * k, k * p):
        assert got.terms == want
        assert all(type(v) is int for v in got.terms.values() if v.denominator == 1)
        assert got.degree() == p.degree()


def test_a_fraction_constant_can_make_the_product_integral():
    x1 = Poly.coord(R2, 0)
    got = Poly.const(R2, Fraction(1, 2)) * (2 * x1)
    assert got.terms == {(1, 0): 1} and type(got.terms[(1, 0)]) is int
    assert got.degree() == 1


@given(rational_polys(R2))
def test_a_product_by_one_is_the_other_operand(p):
    one = Poly.one(R2)
    if not p.is_zero:
        assert p * one is p and one * p is p and p * 1 is p
    assert (p * one).terms == (one * p).terms == p.terms


def test_a_constant_on_another_chart_is_refused():
    x1 = Poly.coord(R2, 0)
    for c in (Poly.one(R3), Poly.const(R3, Fraction(2, 3)), Poly.zero(R3)):
        with pytest.raises(ChartMismatchError):
            x1 * c
        with pytest.raises(ChartMismatchError):
            c * x1


def _coeff_types(p):
    return {type(c) for c in p.terms.values()}


def test_integer_coefficients_are_stored_as_ints():
    three = Fraction(3, 1)
    assert type(Poly(R2, {(1, 0): three}).terms[(1, 0)]) is int
    assert type(Poly.const(R2, three).constant_term()) is int
    assert type(Poly.const(R2, True).constant_term()) is int
    assert _coeff_types(parse_poly("6/2*x1 + 1/2*x2 - 4", R2)) == {int, Fraction}
    assert parse_poly("6/2*x1", R2).terms == {(1, 0): 3}
    assert _coeff_types(Poly.coord(R2, 0)) == {int}
    assert _coeff_types(-Poly.coord(R2, 0)) == {int}
    assert type(Poly.zero(R2).constant_term()) is int
    assert type(Poly.zero(R2).as_constant()) is int
    with pytest.raises(ValidationError):
        Poly.const(R2, 0.5)
    # int x Fraction products that come out integral are stored as ints.
    half = Fraction(1, 2)
    x1 = Poly.coord(R2, 0)
    assert type(((x1 * half) * 2).terms[(1, 0)]) is int
    assert type((half * x1 * (x1 * 2)).terms[(2, 0)]) is int
    assert type(scale_terms({(0, 0): 4}, half)[(0, 0)]) is int
    # So are integral sums, differences and derivatives of Fraction terms.
    assert _coeff_types(x1 * half + x1 * half) == {int}
    assert _coeff_types(x1 * Fraction(3, 2) - x1 * half) == {int}
    assert _coeff_types((x1 * x1 * half).diff(0)) == {int}
    q = standard_exact(R2)
    back = scalar_multiple(2, scalar_multiple(half, q))
    assert back == q
    for table in (back.coanchor, back.pairing):
        for row in table:
            for p in row:
                assert all(type(c) is int for c in p.terms.values())


def test_rational_operations_never_yield_floats():
    half = Fraction(1, 2)
    p = parse_poly("x1 + 2*x2 + 3", R2)
    assert scale_terms(p.terms, half) == {(1, 0): half, (0, 1): 1, (0, 0): Fraction(3, 2)}
    assert float not in _coeff_types(p * half)
    assert float not in _coeff_types(half * p)
    w = kform_scale(KForm(R2, 1, {(0,): p}), half)
    assert float not in _coeff_types(w.comps[(0,)])
    assert w.comps[(0,)] == p * half


# ---------------------------------------------------------------------------
# Vector fields and forms
# ---------------------------------------------------------------------------


def test_vf_bracket_example():
    # [x2 d1, d2] = -d1: the flow of d2 moves the coefficient x2.
    v = VField(R2, (Poly.coord(R2, 1), Poly.zero(R2)))
    w = VField.basis(R2, 1)
    assert v.bracket(w) == vfield_neg(VField.basis(R2, 0))


@given(vfields(R2), vfields(R2), vfields(R2))
@settings(max_examples=25)
def test_vf_bracket_jacobi(a, b, c):
    jac = vfield_add(
        vfield_add(a.bracket(b.bracket(c)), b.bracket(c.bracket(a))),
        c.bracket(a.bracket(b)),
    )
    assert jac.is_zero


def test_wedge_reorders_with_sign():
    w = KForm(R3, 2, {(2, 0): Poly.one(R3)})
    assert w == kform_neg(KForm(R3, 2, {(0, 2): Poly.one(R3)}))
    assert KForm(R3, 2, {(1, 1): Poly.one(R3)}).is_zero


def test_d_squared_zero_concrete():
    x1, x2, x3 = (Poly.coord(R3, i) for i in range(3))
    w = KForm(R3, 1, {(1,): x1 * x3, (2,): x2**2})
    assert w.d().d().is_zero


def test_interior_product_signs():
    vol = KForm(R3, 3, {(0, 1, 2): 1})
    v = VField.basis(R3, 1)
    assert vol.iota(v) == KForm(R3, 2, {(0, 2): -1})


def test_lie_derivative_example():
    # Frozen from first principles: L_d1(x1 dx2) = d(iota) + iota(d)
    # = d(0) + iota_d1(dx1^dx2) = dx2.
    w = KForm(R3, 1, {(1,): Poly.coord(R3, 0)})
    assert w.lie(VField.basis(R3, 0)) == KForm.dx(R3, 1)


@given(kforms(R3, 1), kforms(R3, 2))
@settings(max_examples=25)
def test_d_squared_zero(a, b):
    assert a.d().d().is_zero
    assert b.d().d().is_zero


@given(vfields(R3, max_degree=1), kforms(R3, 1), kforms(R3, 1))
@settings(max_examples=25)
def test_iota_is_a_derivation(v, a, b):
    lhs = a.wedge(b).iota(v)
    rhs = kform_sub(a.iota(v).wedge(b), a.wedge(b.iota(v)))
    assert lhs == rhs


@given(kforms(R3, 1, max_degree=1), kforms(R3, 1, max_degree=1))
def test_wedge_antisymmetry(a, b):
    assert a.wedge(b) == kform_neg(b.wedge(a))


@given(vfields(R3, max_degree=1), vfields(R3, max_degree=1), kforms(R3, 2, max_degree=1))
@settings(max_examples=25)
def test_lie_iota_commutator(v, w, form):
    # [L_v, iota_w] = iota_[v,w] on forms.
    lhs = kform_sub(form.lie(v).iota(w), form.iota(w).lie(v))
    rhs = form.iota(v.bracket(w))
    assert (lhs + rhs).is_zero or lhs == kform_neg(rhs)


@given(vfields(R2, max_degree=1), kforms(R2, 1))
@settings(max_examples=25)
def test_lie_derivative_commutes_with_d(v, w):
    assert w.d().lie(v) == w.lie(v).d()


# ---------------------------------------------------------------------------
# Chart maps
# ---------------------------------------------------------------------------


def curve() -> ChartMap:
    t = Poly.coord(R1, "t")
    return ChartMap(R1, R2, (t, t * t))


def test_pullback_form_curve():
    # f(t) = (t, t^2): f*(x1 dx2) = t d(t^2) = 2 t^2 dt.
    f = curve()
    w = KForm(R2, 1, {(1,): Poly.coord(R2, 0)})
    assert f.pullback_form(w) == KForm(R1, 1, {(0,): parse_poly("2*t^2", R1)})


def test_pullback_of_volume_to_lower_dimension_is_zero():
    g = ChartMap(
        R2,
        R3,
        (Poly.coord(R2, 0), Poly.coord(R2, 1), Poly.coord(R2, 0) * Poly.coord(R2, 1)),
    )
    vol = KForm(R3, 3, {(0, 1, 2): 1})
    assert g.pullback_form(vol).is_zero


def test_compose_and_pull():
    f = curve()
    g = ChartMap(
        R2,
        R3,
        (Poly.coord(R2, 0), Poly.coord(R2, 1), Poly.coord(R2, 0) + Poly.coord(R2, 1)),
    )
    gf = g.compose(f)
    p = parse_poly("x3^2", R3)
    assert gf.pull(p) == parse_poly("t^4 + 2*t^3 + t^2", R1)
    assert gf.pull(p) == f.pull(g.pull(p))


@given(kforms(R3, 1, max_degree=1))
@settings(max_examples=25)
def test_pullback_commutes_with_d(w):
    g = ChartMap(
        R2,
        R3,
        (Poly.coord(R2, 0), Poly.coord(R2, 1), Poly.coord(R2, 0) * Poly.coord(R2, 1)),
    )
    assert g.pullback_form(w.d()) == g.pullback_form(w).d()


@given(kforms(R3, 1, max_degree=1), kforms(R3, 1, max_degree=1))
@settings(max_examples=25)
def test_pullback_commutes_with_wedge(a, b):
    g = ChartMap(
        R2,
        R3,
        (Poly.coord(R2, 0) * Poly.coord(R2, 0), Poly.coord(R2, 1), Poly.coord(R2, 0)),
    )
    assert g.pullback_form(a.wedge(b)) == g.pullback_form(a).wedge(
        g.pullback_form(b)
    )


def test_identity_and_composition_on_point_chart():
    pt = Chart("pt", ())
    inc = ChartMap(pt, R2, (Poly.const(pt, 1), Poly.const(pt, 2)))
    assert inc.pull(parse_poly("x1*x2 + x2", R2)) == Poly.const(pt, 4)
    to_pt = ChartMap(R1, pt, ())
    assert inc.compose(to_pt).comps == (Poly.const(R1, 1), Poly.const(R1, 2))


@st.composite
def coordinate_maps(draw, target, source=None):
    """Maps to target whose components are source coordinates or zero, in
    any order and with repeats; the source is drawn, 0-3 dimensional, when
    not given."""
    if source is None:
        source = coordinate_chart("S", draw(st.integers(0, 3)), prefix="s")
    slots = draw(
        st.lists(
            st.sampled_from([None, *range(source.dim)]),
            min_size=target.dim,
            max_size=target.dim,
        )
    )
    comps = (Poly.zero(source) if s is None else Poly.coord(source, s) for s in slots)
    return ChartMap(source, target, tuple(comps))


@given(st.data())
@settings(max_examples=100)
def test_pull_along_a_coordinate_map_is_substitution(data):
    target = data.draw(st.sampled_from([R1, R2, R3]))
    f = data.draw(coordinate_maps(target))
    p = data.draw(rational_polys(target, max_degree=3, max_terms=5))
    assert f.slots is not None
    got = f.pull(p)
    assert got == p.subs(list(f.comps))
    assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())
    assert ChartMap.identity(target).pull(p) is p


@given(st.data())
@settings(max_examples=50)
def test_compose_with_a_coordinate_map_is_substitution(data):
    mid = data.draw(st.sampled_from([R1, R2, R3]))
    inner = data.draw(coordinate_maps(mid))
    outer = data.draw(
        coordinate_maps(R2, mid)
        | st.tuples(polys(mid), polys(mid)).map(lambda comps: ChartMap(mid, R2, comps))
    )
    got = outer.compose(inner)
    assert got.comps == tuple(c.subs(list(inner.comps)) for c in outer.comps)


@st.composite
def triangular_maps(draw):
    """Triangular automorphisms (x1, x2 + p(x1), x3 + q(x1, x2)) of R3."""
    x1, x2, x3 = (Poly.coord(R3, i) for i in range(3))
    p = draw(rational_polys(R1, max_degree=3)).subs([x1])
    q = draw(rational_polys(R2, max_degree=3)).subs([x1, x2])
    return ChartMap(R3, R3, (x1, x2 + p, x3 + q))


PROJECTION_32 = ChartMap(R3, R2, (Poly.coord(R3, 0), Poly.coord(R3, 1)))


@given(
    triangular_maps() | st.just(PROJECTION_32) | st.just(support_inclusion(R2, ("x2",))),
    st.data(),
)
@settings(max_examples=100)
def test_pull_is_substitution(f, data):
    """Along triangular endomorphisms of R3, a coordinate projection and a
    support inclusion, pull is substitution of the components, on random
    polynomials, constants and zero; along an endomorphism a constant is
    its own pull."""
    constants = st.builds(
        Fraction, st.integers(-3, 3), st.integers(1, 4)
    ).map(lambda c: Poly.const(f.target, c))
    p = data.draw(rational_polys(f.target, max_degree=3) | constants)
    got = f.pull(p)
    assert got.chart == f.source and got == p.subs(list(f.comps))
    assert got.degree() == max(map(sum, got.terms), default=-1)
    if p.as_constant() is not None and f.source is f.target:
        assert got is p


def constants(chart):
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)).map(
        lambda c: Poly.const(chart, c)
    )


def twin(chart):
    """An equal chart that holds constants of its own."""
    return Chart(chart.name, chart.coords)


def entries(chart):
    """Vector entries on chart: polynomials, constants, its zero, and the
    zero of an equal chart."""
    return (
        rational_polys(chart, max_degree=3)
        | constants(chart)
        | st.just(chart.zero)
        | st.just(twin(chart).zero)
    )


PULL_MAPS = (
    st.just(ChartMap.identity(R3))
    | triangular_maps()
    | st.just(PROJECTION_32)
    | st.just(support_inclusion(R2, ("x2",)))
)


@given(PULL_MAPS, st.data())
@settings(max_examples=100)
def test_pull_vec_is_the_entrywise_pull(f, data):
    """pull_vec is pull on each entry, in value and in which entries are
    the very object pull returns: the entry itself, or the source chart's
    zero or unit."""
    vec = data.draw(st.lists(entries(f.target), max_size=6))
    got = f.pull_vec(vec)
    want = tuple(map(f.pull, vec))
    assert type(got) is tuple and got == want
    for p, g, w in zip(vec, got, want):
        for shared in (p, f.source.zero, f.source.one):
            assert (g is shared) == (w is shared)


@given(PULL_MAPS, st.data())
@settings(max_examples=50)
def test_pull_vec_refuses_a_zero_entry_on_another_chart(f, data):
    vec = data.draw(st.lists(entries(f.target), max_size=4))
    where = data.draw(st.integers(0, len(vec)))
    vec.insert(where, Poly.zero(R1))
    with pytest.raises(ChartMismatchError):
        f.pull_vec(vec)


@given(st.data())
@settings(max_examples=100)
def test_as_constant_reads_the_charts_origin(data):
    chart = data.draw(st.sampled_from([Chart("R0", ()), R1, R2, R3]))
    p = data.draw(rational_polys(chart) | constants(chart) | st.just(chart.zero))
    got, want = p.as_constant(), scanned_constant(p)
    assert got == want and type(got) is type(want)
    assert chart.origin == (0,) * chart.dim and p.constant_term() == p.terms.get(chart.origin, 0)


@given(st.data())
@settings(max_examples=50)
def test_vf_bracket_is_the_per_slot_formula(data):
    """[X, Y]_j = X(Y_j) - Y(X_j), each action summed over every slot with
    no term skipped, on fields with constant and zero components."""
    chart = data.draw(st.sampled_from([R1, R2, R3]))
    comps = polys(chart) | constants(chart) | st.just(chart.zero)
    x, y = (VField(chart, data.draw(st.lists(comps, min_size=chart.dim, max_size=chart.dim))) for _ in "xy")

    def act(v, f):
        return sum((v.comps[i] * f.diff(i) for i in range(chart.dim)), chart.zero)

    want = tuple(act(x, b) - act(y, a) for a, b in zip(x.comps, y.comps))
    assert x.bracket(y).comps == want


def substituted_term_by_term(p, values):
    out = values[0].chart.zero
    for exps, c in p.terms.items():
        term = Poly.const(values[0].chart, c)
        for v, e in zip(values, exps):
            term = term * v**e
        out = out + term
    return out


@given(st.data())
@settings(max_examples=100)
def test_subs_is_term_by_term_substitution_when_powers_repeat(data):
    """Exponents drawn from {0, 2, 3} make terms share a power values[i] **
    e, which subs computes once."""
    exps = st.tuples(*[st.sampled_from([0, 2, 3]) for _ in range(R3.dim)])
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    p = Poly(R3, data.draw(st.dictionaries(exps, coeffs, max_size=5)))
    values = [data.draw(rational_polys(R2, max_degree=1)) for _ in range(R3.dim)]
    assert p.subs(values) == substituted_term_by_term(p, values)


def test_subs_computes_each_power_once(monkeypatch):
    """The four terms read the powers (x1, 2), (x2, 1), (x3, 1) and (x3, 2):
    four powers, where a power per factor took seven."""
    a, b = Poly.coord(R2, 0), Poly.coord(R2, 1)
    values = [a + 1, b, a * b]
    p = parse_poly("x1^2*x2 + x1^2*x3 + x1^2 + x2*x3^2", R3)
    calls = []
    power = Poly.__pow__

    def counted(self, n):
        calls.append(n)
        return power(self, n)

    monkeypatch.setattr(Poly, "__pow__", counted)
    got = p.subs(values)
    monkeypatch.undo()
    assert got == substituted_term_by_term(p, values)
    assert sorted(calls) == [1, 1, 2, 2]


def test_a_constant_is_its_own_pull_along_an_endomorphism():
    x1, x2, x3 = (Poly.coord(R3, i) for i in range(3))
    shear = ChartMap(R3, R3, (x1, x2, x3 + x1 * x2))
    for c in (Poly.zero(R3), Poly.one(R3), Poly.const(R3, Fraction(-2, 3))):
        assert shear.pull(c) is c
    zero = PROJECTION_32.pull(Poly.zero(R2))
    assert zero.chart == R3 and zero.is_zero and zero.degree() == -1


def test_a_constant_on_the_wrong_chart_cannot_be_pulled():
    x1, x2, x3 = (Poly.coord(R3, i) for i in range(3))
    shear = ChartMap(R3, R3, (x1, x2, x3 + x1 * x2))
    for f in (shear, PROJECTION_32, ChartMap.identity(R3)):
        for c in (Poly.zero(R1), Poly.const(R1, 5)):
            with pytest.raises(ChartMismatchError):
                f.pull(c)


def test_every_zero_on_a_chart_is_its_one_zero():
    """A chart holds one zero and one unit: the constructors return them,
    and so does every operation whose result has no terms."""
    zero, x1 = Poly.zero(R2), Poly.coord(R2, 0)
    assert zero is R2.zero and Poly.one(R2) is Poly.one(R2) is R2.one
    for got in (
        Poly.zero(R2),
        x1 - x1,
        x1 * 0,
        x1 * zero,
        zero + zero,
        Poly.const(R2, 0),
        -zero,
        Poly.coord(R2, 0).diff(1),
        parse_poly("x1 - x1", R2),
    ):
        assert got is zero
    assert Poly.const(R2, Fraction(2, 2)) is Poly.one(R2)
    assert PROJECTION_32.pull(Poly.zero(R2)) is Poly.zero(R3)
    assert all(c is zero for c in vfield_zero(R2).comps)
    assert VField.basis(R2, 1).comps[1] is Poly.one(R2)
    assert zero.terms == {} and zero.degree() == -1
    assert Poly.one(R2).terms == {(0, 0): 1} and Poly.one(R2).degree() == 0


@given(st.data())
@settings(max_examples=100)
def test_is_zero_is_stored_with_the_terms(data):
    """is_zero is a slot that Poly.__init__ and Poly._raw bind with the
    terms, and no Poly is changed after it is built, so it reads as an
    empty term dictionary on every result."""
    chart = data.draw(st.sampled_from([R1, R2, R3]))
    p, q = data.draw(rational_polys(chart)), data.draw(rational_polys(chart))
    i = data.draw(st.integers(0, chart.dim - 1))
    c = data.draw(st.fractions(-3, 3, max_denominator=3))
    f = data.draw(coordinate_maps(chart))
    values = [data.draw(polys(chart, max_degree=1)) for _ in range(chart.dim)]
    results = [
        p, p + q, p - q, p - p, p * q, p * c, c * p, p + c, c - p, -p,
        p.diff(i), f.pull(p), p.subs(values), Poly.const(chart, c), Poly.coord(chart, i),
        parse_expr(poly_str(p), chart), copy.copy(p), copy.deepcopy(p),
        pickle.loads(pickle.dumps(p)), chart.zero, chart.one,
    ]
    for r in results:
        assert r.is_zero is (not r.terms)


def test_a_charts_constants_are_not_part_of_its_value():
    """The dimension, zero and unit a chart holds are not dataclass
    fields: equality, hash, repr and the spec form read the name and the
    coordinates only, and an equal chart holds constants of its own."""
    chart = coordinate_chart("C", 2)

    def value(c):
        return hash(c), repr(c), dataclasses.fields(c), jsonio.chart_to_json(c)

    before = value(chart)
    assert (Poly.zero(chart), Poly.one(chart), chart.dim) == (chart.zero, chart.one, 2)
    assert value(chart) == before
    assert [f.name for f in dataclasses.fields(chart)] == ["name", "coords"]
    assert repr(chart) == "Chart(name='C', coords=('x1', 'x2'))"
    twin = Chart("C", ["x1", "x2"])
    assert twin == chart and value(twin) == before
    assert twin.zero is not chart.zero and twin.zero == chart.zero


def test_the_chart_constants_are_unchanged_by_the_battery(monkeypatch, tmp_path):
    """Every chart the 14 battery verbs build, run in process, still holds
    a zero with no terms and degree -1 and a unit of its one unit term: no
    operation writes to a Poly it did not just build."""
    charts = []
    post_init = Chart.__post_init__

    def recorded(self):
        post_init(self)
        charts.append(self)

    monkeypatch.setattr(Chart, "__post_init__", recorded)
    jobs = _battery_jobs()
    assert len(jobs) == 14
    for verb, spec in jobs.items():
        spec_path = tmp_path / f"{verb}.json"
        spec_path.write_text(jsonio.dump_json(spec), encoding="utf-8")
        argv = [verb, "--spec", str(spec_path), "--out", str(tmp_path / f"{verb}.out")]
        assert main(argv + ["--seed", "7", "--samples", "10"]) == 0, verb
    monkeypatch.undo()
    assert len(charts) > 14
    for chart in charts:
        assert chart.zero.terms == {} and chart.zero._degree == -1, chart
        assert chart.one.terms == {(0,) * chart.dim: 1}, chart
        assert chart.one._degree == 0, chart


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------


def test_parse_examples():
    assert parse_poly("0", R2).is_zero
    assert parse_poly("-x1 + 2", R2) == 2 - Poly.coord(R2, 0)
    assert parse_poly("x1*x1", R2) == Poly.coord(R2, 0) ** 2


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as e:
        parse_poly("x1 + ", R2)
    assert e.value.position == 5
    with pytest.raises(ParseError) as e:
        parse_poly("x1 $ 2", R2)
    assert e.value.position == 3
    with pytest.raises(ParseError):
        parse_poly("x9", R2)
    for text in ("x1^dx2", "dx1 + d/dx2", "x1 + dx2"):
        with pytest.raises(ParseError):
            parse_poly(text, R2)


def test_typed_parse_wrappers():
    # Fields and forms only print; their generators are no polynomial names.
    for text, name in (("dx1", "dx1"), ("d/dx1", "d")):
        with pytest.raises(ParseError, match=f"unknown name '{name}'") as e:
            parse_poly(text, R2)
        assert e.value.position == 0
    assert type(parse_expr("1/2*x1", R2)) is Poly


LONG = "9" * 5000  # beyond int()'s default limit of 4,300 digits


def outcome(read, text):
    """What read(text, R2) gives: ("value", poly) or ("error", type, position)."""
    try:
        return "value", read(text, R2)
    except ParseError as exc:
        return "error", type(exc), exc.position


def parse_by_parser(text, chart):
    return _Parser(text, chart).parse()


@pytest.mark.parametrize(
    "text, position",
    [(LONG, 0), ("-" + LONG, 1), (f"2*x1^{LONG}", 5), (f"1/{LONG}*x1", 2), (f"x1 - {LONG}/3", 5)],
    ids=["literal", "negative-literal", "exponent", "denominator", "coefficient"],
)
def test_an_over_long_integer_literal_is_a_parse_error_at_its_position(text, position):
    with pytest.raises(ParseError, match="integer literal of 5000 digits is too long") as e:
        parse_poly(text, R2)
    assert e.value.position == position
    assert outcome(parse_by_parser, text) == ("error", ParseError, position)


@pytest.mark.parametrize(
    "text",
    ["0", "-0", "1", "007", "12", "-12", "\u0663"],  # U+0663 is an Nd digit
)
def test_a_bare_integer_reads_as_the_parser_reads_it(text):
    """The literal path of parse_expr (sign and decimal digits) gives what
    the parser gives; a value that is 0 or 1 is the chart's own."""
    kind, value = outcome(parse_expr, text)
    assert (kind, value) == outcome(parse_by_parser, text)
    for shared in (R2.zero, R2.one):
        assert (value == shared) == (value is shared)


@pytest.mark.parametrize(
    "text", ["", "-", "+1", "--1", " 1", "1 ", "1_0", "\u00b2", "1/2", "-1/2"]
)
def test_any_other_text_goes_through_the_parser(monkeypatch, text):
    """Text that is no bare integer reaches the tokenizer, and raises where
    the parser raises; int() reads "1_0" and str.isdigit() accepts "²",
    but neither is an integer of the grammar."""
    expected = outcome(parse_by_parser, text)
    tokenized = []
    monkeypatch.setattr(symcalc, "_tokenize", lambda t: tokenized.append(t) or _tokenize(t))
    assert outcome(parse_expr, text) == expected
    assert tokenized == [text]


@given(st.integers())
def test_a_signed_integer_reads_as_the_parser_reads_it(n):
    assert parse_expr(str(n), R3) == parse_by_parser(str(n), R3) == Poly.const(R3, n)


def test_the_pullback_spec_tokenizes_only_its_non_integer_entries(monkeypatch):
    """Op-count gate on decoding the pullback battery spec: 111 parse_expr
    calls, of which only the 3 that are no bare integer run the tokenizer
    (all 111 did before the literal path)."""
    spec = _battery_jobs()["pullback"]
    calls = {"parse": 0, "tokenize": 0}
    parse, tokenize = symcalc.parse_expr, symcalc._tokenize

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(symcalc, "parse_expr", counted("parse", parse))
    monkeypatch.setattr(symcalc, "_tokenize", counted("tokenize", tokenize))
    jsonio.courant_from_json(spec["structure"])
    jsonio.map_from_json(spec["map"])
    assert calls == {"parse": 111, "tokenize": 3}


@given(polys(R3, max_degree=3, max_terms=4, coeff=5))
def test_poly_print_parse_roundtrip(p):
    assert parse_poly(poly_str(p), R3) == p


def test_field_and_form_print_syntax():
    x1, x2, x3 = (Poly.coord(R3, i) for i in range(3))
    half = Fraction(1, 2)
    v = VField(R3, (x1, x2 * half, Poly.one(R3)))
    assert vfield_str(v) == "x1*d/dx1 + 1/2*x2*d/dx2 + d/dx3"
    w = KForm(R3, 2, {(1, 2): -3 * x1 * x2, (0, 1): x3 + 1})
    assert kform_str(w) == "x3*dx1^dx2 + dx1^dx2 - 3*x1*x2*dx2^dx3"
    assert kform_str(KForm(R3, 1, {(0,): -1})) == "-dx1"
    assert kform_str(KForm.from_poly(x1 - 2)) == "x1 - 2"
    assert vfield_str(vfield_zero(R3)) == "0"
    assert kform_str(KForm.zero(R3, 2)) == "0"


def read_generator_terms(text, chart, labels):
    """Read printed coefficient*generator terms back into one coefficient
    per generator label: each coefficient goes through parse_poly, and the
    generator is the last factor of its term."""
    comps = {label: Poly.zero(chart) for label in labels}
    if text == "0":
        return comps
    sign, rest = (-1, text[1:]) if text.startswith("-") else (1, text)
    pieces = re.split(r" ([+-]) ", rest)
    for k in range(0, len(pieces), 2):
        if k:
            sign = -1 if pieces[k - 1] == "-" else 1
        *factors, gen = pieces[k].split("*")
        coeff = parse_poly("*".join(factors), chart) if factors else Poly.one(chart)
        comps[gen] = comps[gen] + sign * coeff
    return comps


@given(kforms(R3, 2, max_degree=2))
def test_kform_print_parse_roundtrip(w):
    labels = {
        "^".join(f"d{R3.coords[i]}" for i in idx): idx
        for idx in itertools.combinations(range(R3.dim), 2)
    }
    comps = read_generator_terms(kform_str(w), R3, labels)
    assert KForm(R3, 2, {labels[g]: c for g, c in comps.items()}) == w


@given(vfields(R2, max_degree=2))
def test_vfield_print_parse_roundtrip(v):
    labels = [f"d/d{x}" for x in R2.coords]
    comps = read_generator_terms(vfield_str(v), R2, labels)
    assert VField(R2, [comps[g] for g in labels]) == v


@given(rational_polys(R3, max_degree=3, max_terms=4, coeff=5))
def test_rational_poly_print_parse_roundtrip(p):
    assert parse_poly(poly_str(p), R3) == p


def test_print_is_canonical_fixed_point():
    text = "x2*x1 + x1*x2 + 1/2*x1 - x1"
    once = poly_str(parse_poly(text, R2))
    assert once == "2*x1*x2 - 1/2*x1"
    assert poly_str(parse_poly(once, R2)) == once


def test_chart_validation():
    with pytest.raises(ValidationError):
        Chart("bad", ("dx1",))
    with pytest.raises(ValidationError):
        Chart("bad", ("x1", "x1"))
    with pytest.raises(ValidationError):
        Chart("bad", ("2x",))
