"""Core symbolic calculus: exact arithmetic, Cartan calculus, grammar."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algebroids.courant import scalar_multiple, standard_exact
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
    add_terms,
    coordinate_chart,
    kform_str,
    parse_expr,
    parse_kform,
    parse_poly,
    parse_vfield,
    poly_str,
    scale_terms,
    vfield_str,
)

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
    w = KForm(R2, 1, {(0,): p}).scale(half)
    assert float not in _coeff_types(w.comps[(0,)])
    assert w.comps[(0,)] == p * half


# ---------------------------------------------------------------------------
# Vector fields and forms
# ---------------------------------------------------------------------------


def test_vf_bracket_example():
    # [x2 d1, d2] = -d1: the flow of d2 moves the coefficient x2.
    v = parse_vfield("x2*d/dx1", R2)
    w = parse_vfield("d/dx2", R2)
    assert v.bracket(w) == parse_vfield("-d/dx1", R2)


@given(vfields(R2), vfields(R2), vfields(R2))
@settings(max_examples=25)
def test_vf_bracket_jacobi(a, b, c):
    jac = (
        a.bracket(b.bracket(c))
        + b.bracket(c.bracket(a))
        + c.bracket(a.bracket(b))
    )
    assert jac.is_zero


def test_wedge_reorders_with_sign():
    w = KForm(R3, 2, {(2, 0): Poly.one(R3)})
    assert w == -KForm(R3, 2, {(0, 2): Poly.one(R3)})
    assert KForm(R3, 2, {(1, 1): Poly.one(R3)}).is_zero


def test_d_squared_zero_concrete():
    w = parse_kform("x1*x3*dx2 + x2^2*dx3", R3)
    assert w.d().d().is_zero


def test_interior_product_signs():
    vol = parse_kform("dx1^dx2^dx3", R3)
    v = parse_vfield("d/dx2", R3)
    assert vol.iota(v) == parse_kform("-dx1^dx3", R3)


def test_lie_derivative_example():
    # Frozen from first principles: L_d1(x1 dx2) = d(iota) + iota(d)
    # = d(0) + iota_d1(dx1^dx2) = dx2.
    w = parse_kform("x1*dx2", R3)
    assert w.lie(VField.basis(R3, 0)) == parse_kform("dx2", R3)


@given(kforms(R3, 1), kforms(R3, 2))
@settings(max_examples=25)
def test_d_squared_zero(a, b):
    assert a.d().d().is_zero
    assert b.d().d().is_zero


@given(vfields(R3, max_degree=1), kforms(R3, 1), kforms(R3, 1))
@settings(max_examples=25)
def test_iota_is_a_derivation(v, a, b):
    lhs = a.wedge(b).iota(v)
    rhs = a.iota(v).wedge(b) - a.wedge(b.iota(v))
    assert lhs == rhs


@given(kforms(R3, 1, max_degree=1), kforms(R3, 1, max_degree=1))
def test_wedge_antisymmetry(a, b):
    assert a.wedge(b) == -b.wedge(a)


@given(vfields(R3, max_degree=1), vfields(R3, max_degree=1), kforms(R3, 2, max_degree=1))
@settings(max_examples=25)
def test_lie_iota_commutator(v, w, form):
    # [L_v, iota_w] = iota_[v,w] on forms.
    lhs = form.lie(v).iota(w) - form.iota(w).lie(v)
    rhs = form.iota(v.bracket(w))
    assert (lhs + rhs).is_zero or lhs == -rhs


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
    w = parse_kform("x1*dx2", R2)
    assert f.pullback_form(w) == parse_kform("2*t^2*dt", R1)


def test_pullback_of_volume_to_lower_dimension_is_zero():
    g = ChartMap(
        R2,
        R3,
        (Poly.coord(R2, 0), Poly.coord(R2, 1), Poly.coord(R2, 0) * Poly.coord(R2, 1)),
    )
    vol = parse_kform("dx1^dx2^dx3", R3)
    assert g.pullback_form(vol).is_zero


def test_dmap_along_curve():
    f = curve()
    v = VField.basis(R1, "t")
    assert f.dmap(v) == (Poly.one(R1), parse_poly("2*t", R1))


def test_dmap_dual_along_curve():
    f = curve()
    coeffs = (Poly.zero(R1), Poly.one(R1))  # the covector dx2 along f
    assert f.dmap_dual(coeffs) == parse_kform("2*t*dt", R1)


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


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------


def test_parse_examples():
    assert parse_poly("0", R2).is_zero
    assert parse_poly("-x1 + 2", R2) == 2 - Poly.coord(R2, 0)
    assert parse_expr("dx1^dx1", R3).is_zero
    w = parse_expr("dx2^dx1", R3)
    assert w == -parse_expr("dx1^dx2", R3)
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
    with pytest.raises(ParseError):
        parse_expr("x1^dx2", R2)
    with pytest.raises(ParseError):
        parse_expr("dx1 + d/dx2", R2)
    with pytest.raises(ParseError):
        parse_expr("x1 + dx2", R2)


def test_typed_parse_wrappers():
    assert parse_kform("0", R2, degree=2).is_zero
    assert parse_vfield("0", R2).is_zero
    with pytest.raises(ParseError):
        parse_kform("dx1", R2, degree=2)
    with pytest.raises(ParseError):
        parse_poly("dx1", R2)


@given(polys(R3, max_degree=3, max_terms=4, coeff=5))
def test_poly_print_parse_roundtrip(p):
    assert parse_poly(poly_str(p), R3) == p


@given(kforms(R3, 2, max_degree=2))
def test_kform_print_parse_roundtrip(w):
    if w.is_zero:
        assert kform_str(w) == "0"
    else:
        assert parse_expr(kform_str(w), R3) == w


@given(vfields(R2, max_degree=2))
def test_vfield_print_parse_roundtrip(v):
    if v.is_zero:
        assert vfield_str(v) == "0"
    else:
        assert parse_expr(vfield_str(v), R2) == v


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
