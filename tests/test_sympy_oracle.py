"""symcalc against sympy: products, derivatives, substitution and the action
of vector fields agree on random rational polynomials over R3."""

import pytest
from hypothesis import given, settings, strategies as st

from algebroids.symcalc import ChartMap, Poly, VField, coordinate_chart

from test_symcalc import rational_polys

sympy = pytest.importorskip("sympy")

R3 = coordinate_chart("R3", 3)
XS = sympy.symbols(R3.coords)


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
