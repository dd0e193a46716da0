"""symcalc against sympy: products, derivatives, substitution and the action
of vector fields agree on random rational polynomials over R3, including the
zero and constant operands that the early returns of VField.apply and
Poly.__add__/__sub__ handle. linalg.left_inverse of a matrix with a nonzero
constant determinant agrees with sympy's inverse, and the pairing table of a
Baer combination agrees with the weighted sum of its parts' pairings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algebroids import jsonio, linalg
from algebroids.courant import (
    baer_combination,
    coordinate_connection,
    standard_exact,
)
from algebroids.errors import ChartMismatchError
from algebroids.symcalc import ChartMap, KForm, Poly, VField, coordinate_chart

from oracles import connection_shift
from test_acceptance import _battery_jobs
from test_symcalc import rational_polys

sympy = pytest.importorskip("sympy")

R3 = coordinate_chart("R3", 3)
XS = sympy.symbols(R3.coords)
# Equal to R3 but a different object: results must live on an equal chart
# whichever operand an early return hands back.
R3_COPY = coordinate_chart("R3", 3)
OTHER = coordinate_chart("Y", 3)


def to_sympy(p: Poly):
    xs = [sympy.Symbol(name) for name in p.chart.coords]
    out = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for x, e in zip(xs, exps):
            term *= x**e
        out += term
    return out


def same(p: Poly, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


def rational_maps(**kw):
    return st.tuples(*[rational_polys(R3, **kw) for _ in range(3)]).map(
        lambda comps: ChartMap(R3, R3, comps)
    )


@given(rational_polys(R3), rational_polys(R3))
@settings(max_examples=50)
def test_product_matches_sympy(p, q):
    assert same(p * q, to_sympy(p) * to_sympy(q))


@given(rational_polys(R3, max_degree=3, max_terms=4))
@settings(max_examples=50)
def test_diff_matches_sympy(p):
    for i, x in enumerate(XS):
        assert same(p.diff(i), sympy.diff(to_sympy(p), x))


@given(rational_polys(R3), rational_maps())
@settings(max_examples=50)
def test_pull_matches_sympy_subs(p, f):
    values = dict(zip(XS, (to_sympy(c) for c in f.comps)))
    expected = to_sympy(p).subs(values, simultaneous=True)
    assert same(f.pull(p), expected)
    assert same(p.subs(f.comps), expected)


@given(st.tuples(*[rational_polys(R3) for _ in range(3)]), rational_polys(R3))
@settings(max_examples=50)
def test_vfield_apply_matches_sympy(comps, p):
    expected = sum(
        to_sympy(c) * sympy.diff(to_sympy(p), x) for c, x in zip(comps, XS)
    )
    assert same(VField(R3, comps).apply(p), expected)


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@given(st.tuples(*[rational_polys(R3) for _ in range(3)]), rationals)
@settings(max_examples=50)
def test_vfield_apply_to_a_constant_matches_sympy(comps, c):
    v = VField(R3, comps)
    for f in (Poly.const(R3, c), Poly.zero(R3), Poly.const(R3_COPY, c)):
        got = v.apply(f)
        assert same(got, sympy.Integer(0))
        assert got.chart == R3


@given(st.tuples(*[rational_polys(R3) for _ in range(3)]), rationals)
@settings(max_examples=20)
def test_vfield_apply_to_a_constant_checks_the_chart(comps, c):
    v = VField(R3, comps)
    for f in (Poly.const(OTHER, c), Poly.zero(OTHER)):
        with pytest.raises(ChartMismatchError):
            v.apply(f)


@given(rational_polys(R3))
@settings(max_examples=50)
def test_sum_with_a_zero_side_matches_sympy(p):
    expr = to_sympy(p)
    for zero in (Poly.zero(R3), Poly.zero(R3_COPY)):
        for got, expected in (
            (p + zero, expr),
            (zero + p, expr),
            (p - zero, expr),
            (zero - p, -expr),
        ):
            assert same(got, expected)
            assert got.chart == R3
    with pytest.raises(ChartMismatchError):
        p + Poly.zero(OTHER)
    with pytest.raises(ChartMismatchError):
        Poly.zero(OTHER) - p


def _product(a, b):
    return [
        [linalg.dot(row, tuple(r[j] for r in b), R3) for j in range(len(b[0]))]
        for row in a
    ]


@st.composite
def unit_det_matrices(draw):
    """U.D.V with U unit upper and V unit lower triangular (polynomial
    entries off the diagonal) and D a constant invertible diagonal: a 3x3
    matrix whose determinant is a nonzero constant."""
    entry = rational_polys(R3, max_degree=1, max_terms=2)
    z, one = Poly.zero(R3), Poly.one(R3)

    def triangular(below: bool):
        return [
            [one if i == j else draw(entry) if (i > j) == below else z for j in range(3)]
            for i in range(3)
        ]

    upper, lower = triangular(False), triangular(True)
    diag = [Poly.const(R3, draw(rationals.filter(bool))) for _ in range(3)]
    scaled = [[diag[i] if i == j else z for j in range(3)] for i in range(3)]
    return _product(_product(upper, scaled), lower)


@given(unit_det_matrices())
@settings(max_examples=20, deadline=None)
def test_left_inverse_of_a_unit_determinant_matrix_matches_sympy(m):
    inverse = sympy.Matrix([[to_sympy(p) for p in row] for row in m]).inv()
    left = linalg.left_inverse(m)
    for i in range(3):
        for j in range(3):
            assert sympy.cancel(to_sympy(left[i][j]) - inverse[i, j]) == 0


def oracle_pairing(comb):
    """sum_i w_i x_i^T G_i y_i on each pair (x, y) of comb.basis, read from
    the parts' pairing matrices G_i alone."""
    def matrix(rows):
        return sympy.Matrix([[to_sympy(p) for p in row] for row in rows])

    grams = [matrix(q.pairing) for q in comb.parts]
    weights = [sympy.Rational(w.numerator, w.denominator) for w in comb.weights]
    slots = [[matrix([u]) for u in element] for element in comb.basis]
    return [
        [
            sum(
                (w * (u * g * v.T)[0] for w, g, u, v in zip(weights, grams, x, y)),
                sympy.Integer(0),
            )
            for y in slots
        ]
        for x in slots
    ]


def battery_tau_linear():
    spec = _battery_jobs()["tau-linear"]
    parts = [jsonio.courant_from_json(p) for p in spec["parts"]]
    weights = [jsonio.rational_from_json(w, "weights") for w in spec["weights"]]
    conns = [
        jsonio.connection_from_json(c, q)
        for c, q in zip(spec["connections"], parts)
    ]
    return baer_combination(parts, weights, conns)


def twisted_r3_pair(weights):
    """Two twisted standard structures on R3, their coordinate connections
    shifted by one two-form. The lifts are isotropic and the glued lines
    pair with them through the first part of nonzero weight, so only a
    first weight other than 1 shows the weights in the table."""
    qs = [
        standard_exact(R3, KForm(R3, 3, {(0, 1, 2): h}))
        for h in (Poly.coord(R3, 2), Poly.coord(R3, 0) * Poly.coord(R3, 1))
    ]
    shift = KForm(R3, 2, {(0, 1): Poly.coord(R3, 2) + 1})
    conns = [connection_shift(coordinate_connection(q), shift) for q in qs]
    return baer_combination(qs, weights, conns)


@pytest.mark.parametrize(
    "build",
    [
        battery_tau_linear,
        lambda: twisted_r3_pair((1, -2)),
        lambda: twisted_r3_pair((-2, 1)),
    ],
    ids=["tau-linear", "twisted-r3", "twisted-r3-swapped"],
)
def test_combination_pairing_matches_the_weighted_part_pairings(build):
    comb = build()
    expected = oracle_pairing(comb)
    pairing = comb.result.pairing
    assert len(pairing) == len(comb.basis)
    for x, row in enumerate(expected):
        for y, entry in enumerate(row):
            assert same(pairing[x][y], entry), (x, y)
