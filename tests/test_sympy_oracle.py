"""symcalc against sympy: products, derivatives, substitution and the action
of vector fields agree on random rational polynomials over R3, including the
zero and constant operands that the early returns of VField.apply and
Poly.__add__/__sub__ handle. linalg.left_inverse of a matrix with a nonzero
constant determinant agrees with sympy's inverse."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algebroids import linalg
from algebroids.errors import ChartMismatchError
from algebroids.symcalc import ChartMap, Poly, VField, coordinate_chart

from test_symcalc import rational_polys

sympy = pytest.importorskip("sympy")

R3 = coordinate_chart("R3", 3)
XS = sympy.symbols(R3.coords)
# Equal to R3 but a different object: results must live on an equal chart
# whichever operand an early return hands back.
R3_COPY = coordinate_chart("R3", 3)
OTHER = coordinate_chart("Y", 3)


def to_sympy(p: Poly):
    out = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for x, e in zip(XS, exps):
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
