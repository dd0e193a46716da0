"""The polynomial left inverse and the greedy choice of independent rows."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from algebroids import linalg
from algebroids.symcalc import Poly, coordinate_chart

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
    if linalg.qq_rank(linalg.transpose(rows)) < k:
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
        if linalg.qq_rank(kept + [row]) > len(kept):
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
