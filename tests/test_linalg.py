"""The polynomial left inverse, its two routes, and the greedy choice of
independent rows."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algebroids import linalg
from algebroids.courant import standard_exact
from algebroids.descent import CoverData, tautological_datum
from algebroids.symcalc import ChartMap, KForm, Poly, coordinate_chart, parse_poly

from test_symcalc import polys

R2 = coordinate_chart("P", 2)
X1, X2 = Poly.coord(R2, 0), Poly.coord(R2, 1)
ONE = Poly.one(R2)


def times(left, m):
    """The matrix product left . m of polynomial matrices."""
    return [
        [linalg.dot(lrow, tuple(row[j] for row in m), R2) for j in range(len(m[0]))]
        for lrow in left
    ]


def test_minors_that_combine_to_one():
    """No single minor of (x1, 1 - x1) is a unit, but x1 + (1 - x1) = 1."""
    m = [[X1], [ONE - X1]]
    assert linalg.left_inverse(m) == [[ONE, ONE]]


def test_no_left_inverse_when_the_minors_generate_no_unit():
    assert linalg.left_inverse([[X1], [X2]]) is None
    assert linalg.left_inverse([[X1, Poly.zero(R2)], [Poly.zero(R2), X1]]) is None


def test_a_polynomial_frame_reads_through_a_polynomial_inverse():
    m = [[ONE, Poly.zero(R2)], [X1 * X2, ONE], [X2, X1]]
    left = linalg.left_inverse(m)
    assert times(left, m) == [[ONE, Poly.zero(R2)], [Poly.zero(R2), ONE]]
    assert any(p.as_constant() is None for row in left for p in row)


def test_apply_matrix_of_a_zero_input_is_start_or_zero():
    m = [(X1, ONE), (ONE, X2)]
    zero = Poly.zero(R2)
    start = (X1, X2 * X2)
    assert linalg.apply_matrix(m, (zero, zero), 2, R2, start) is start
    assert linalg.apply_matrix(m, (zero, zero), 2, R2) == (zero, zero)
    # a row is read only for a nonzero coefficient
    assert linalg.apply_matrix(m[:1], (zero, zero, zero), 2, R2) == (zero, zero)
    assert linalg.zero_vec(R2, 3) == (zero, zero, zero)


def test_apply_matrix_refuses_a_matrix_short_of_rows():
    m = [(X1, ONE)]
    zero = Poly.zero(R2)
    with pytest.raises(IndexError):
        linalg.apply_matrix(m, (zero, X2), 2, R2)
    with pytest.raises(IndexError):
        linalg.apply_matrix(m, (ONE, zero, X1), 2, R2, (X1, X2))


@given(
    st.lists(st.tuples(polys(R2), polys(R2)), min_size=3, max_size=3),
    st.tuples(polys(R2), polys(R2), polys(R2)),
    st.tuples(polys(R2), polys(R2)),
)
@settings(max_examples=60, deadline=None)
def test_apply_matrix_is_start_plus_the_row_combination(m, u, start):
    want = tuple(
        start[k] + sum((u[a] * m[a][k] for a in range(3)), Poly.zero(R2))
        for k in range(2)
    )
    assert linalg.apply_matrix(m, u, 2, R2, start) == want


small = st.integers(-2, 2)


@st.composite
def constant_frames(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 4))
    row = st.lists(small, min_size=k, max_size=k)
    return draw(st.lists(row, min_size=n, max_size=n))


@given(constant_frames())
@settings(max_examples=60, deadline=None)
def test_a_constant_frame_has_a_left_inverse_iff_it_has_full_rank(rows):
    """Full column rank gives L m = I; otherwise every maximal minor is 0."""
    m = [[Poly.const(R2, c) for c in r] for r in rows]
    left = linalg.left_inverse(m)
    k = len(rows[0])
    if len(linalg.qq_rref(linalg.transpose(rows))[1]) < k:
        assert left is None
    else:
        assert times(left, m) == [
            [Poly.const(R2, int(i == j)) for j in range(k)] for i in range(k)
        ]


@given(st.lists(st.lists(small, min_size=3, max_size=3), max_size=5))
@settings(max_examples=60, deadline=None)
def test_independent_rows_is_the_greedy_choice(rows):
    kept: list[list[Fraction]] = []
    greedy = []
    for i, row in enumerate(rows):
        if len(linalg.qq_rref(kept + [row])[1]) > len(kept):
            kept.append(row)
            greedy.append(i)
    assert linalg.independent_rows(rows) == greedy


entries = st.sampled_from(
    [Poly.zero(R2), ONE, -ONE, ONE + ONE, X1, X2, X1 * X2, X1 - ONE, X1 * X1]
)


@given(st.lists(st.lists(entries, min_size=3, max_size=3), max_size=5))
@settings(max_examples=60, deadline=None)
def test_select_independent_is_the_greedy_choice(rows):
    """One elimination of the transpose keeps the rows that the greedy pass,
    one rank per candidate, keeps."""
    kept: list[list[Poly]] = []
    greedy = []
    for i, row in enumerate(rows):
        if linalg.poly_rows_rank(kept + [row]) > len(kept):
            kept.append(row)
            greedy.append(i)
    assert linalg.select_independent(rows) == greedy


R3 = coordinate_chart("X", 3)


def triangular_maps():
    """Triangular automorphisms (x1, x2 + p(x1), x3 + q(x1, x2)) of R3 of
    degree 2 and 3, the shapes the descent cocycles run along."""
    shapes = (
        ("x2 + 2*x1^2 - x1", "x3 + 3*x1^2 + x1"),
        ("x2 - x1^3 + 2*x1", "x3 + x1*x2 - 2*x1"),
        ("x2 + x1^2 + 3*x1", "x3 - x2^2 + x1"),
        ("x2 + 2*x1^3 - x1", "x3 + x1^2*x2 + 3*x1"),
    )
    return [
        ChartMap(R3, R3, (Poly.coord(R3, 0), parse_poly(p, R3), parse_poly(q, R3)))
        for p, q in shapes
    ]


def cocycle_inputs():
    """Every matrix left_inverse sees while tautological_datum builds the
    canonical matrices of a twisted standard R3 over the cover (identity,
    f, f o f) of each triangular map f: the Jacobians and the 6 x 6
    frame_matrix inputs."""
    q = standard_exact(R3, KForm(R3, 3, {(0, 1, 2): Poly.const(R3, 2)}))
    seen = []
    real = linalg.left_inverse

    def recorded(m):
        seen.append(m)
        return real(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "left_inverse", recorded)
        for f in triangular_maps():
            maps = {"one": ChartMap.identity(R3), "s": f, "s2": f.compose(f)}
            tautological_datum(CoverData(R3, maps), q)
    return seen


def test_pivot_inverse_is_the_adjugate_inverse_along_triangular_maps():
    """On each Jacobian of a triangular automorphism and each pulled frame
    of the cocycle datum along it, elimination on constant pivots succeeds
    and returns the matrix of the adjugate route."""
    inputs = [f.jacobian() for f in triangular_maps()] + cocycle_inputs()
    assert sorted({len(m) for m in inputs}) == [3, 6]
    for m in inputs:
        got = linalg.pivot_inverse(m)
        assert got is not None
        assert got == linalg.adjugate_left_inverse(m) == linalg.left_inverse(m)


@st.composite
def elementary_products(draw):
    """A product of 1-4 elementary polynomial matrices on R2: row
    additions I + p e_ij (i != j) and constant row scalings, so it has a
    polynomial inverse."""
    n = draw(st.integers(2, 3))
    m = [[ONE if i == j else Poly.zero(R2) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        step = [[ONE if r == c else Poly.zero(R2) for c in range(n)] for r in range(n)]
        if i == j:
            step[i][i] = Poly.const(R2, draw(st.sampled_from((-1, 2, Fraction(1, 3)))))
        else:
            step[i][j] = draw(polys(R2, max_degree=2, max_terms=2))
        m = times(step, m)
    return m


@given(elementary_products())
@settings(max_examples=60, deadline=None)
def test_left_inverse_of_an_elementary_product_is_the_adjugate_inverse(m):
    """Both routes agree where elimination finds its pivots, and
    left_inverse is the adjugate route's matrix either way."""
    adjugate = linalg.adjugate_left_inverse(m)
    assert adjugate is not None
    got = linalg.pivot_inverse(m)
    assert got is None or got == adjugate
    assert linalg.left_inverse(m) == adjugate


def test_a_unit_determinant_with_no_constant_pivot_takes_the_adjugate_route():
    """det = (1 + x1 x2)(1 - x1 x2) + x1^2 x2^2 = 1, but no entry of
    column 0 is constant: elimination declines, and the adjugate route
    returns the inverse."""
    m = [[ONE + X1 * X2, X1 * X1], [-(X2 * X2), ONE - X1 * X2]]
    assert linalg.pivot_inverse(m) is None
    inverse = [[ONE - X1 * X2, -(X1 * X1)], [X2 * X2, ONE + X1 * X2]]
    assert linalg.left_inverse(m) == linalg.adjugate_left_inverse(m) == inverse
    assert times(inverse, m) == [[ONE, Poly.zero(R2)], [Poly.zero(R2), ONE]]
