"""Exact linear algebra helpers over Q and over polynomial rings.

Three layers:

* Fraction matrices (lists of lists of Fraction): rref, rank, solving,
  inverse. Used wherever the relevant coefficients are constants
  (complement selection, relation reduction, cocycle algebra).
* The sparse matrix action every structure map goes through: apply_matrix
  (sum_a u_a M[a], the image of a section under a generator matrix),
  mat_mul (their composite), apply_constant (a constant matrix times a
  polynomial vector), dot, bilinear (sum_ab u_a g_ab v_b) and
  pairing_differential (the one-form sum_a (sum_b g_ab v_b) du_a of the
  Courant bracket). Zero entries cost nothing.
* Poly matrices/vectors: structural operations plus fraction-free Gaussian
  elimination for ranks "at the generic point", cofactor determinants and
  adjugates, one polynomial left inverse (left_inverse: a constant
  combination of the adjugates of the maximal row minors) behind every
  frame a construction reads coordinates through, and one bounded-degree
  solver (solve_bounded_degree) for a Q-linear map on polynomials, behind
  span membership, the coboundary solve and left_inverse.

Sections of rank-r objects are represented throughout the package as tuples
of r polynomials; the vec_* helpers here operate on those, and fmt_section
prints one the way every report does.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import add
from typing import Sequence

from algebroids.errors import ValidationError
from algebroids.symcalc import Chart, Poly, poly_str

Vec = tuple[Poly, ...]


# ---------------------------------------------------------------------------
# Section vectors
# ---------------------------------------------------------------------------


def zero_vec(chart: Chart, n: int) -> Vec:
    z = Poly.zero(chart)
    return tuple(z for _ in range(n))


def unit_vec(chart: Chart, n: int, i: int) -> Vec:
    return tuple(
        Poly.one(chart) if j == i else Poly.zero(chart) for j in range(n)
    )


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vec_scale(f, a: Vec) -> Vec:
    return tuple(f * x for x in a)


def vec_is_zero(a: Vec) -> bool:
    return all(x.is_zero for x in a)


def vec_eq(a: Vec, b: Vec) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def fmt_section(v: Sequence[Poly]) -> str:
    """A section as "(p_1, ..., p_r)", the form every report prints."""
    return "(" + ", ".join(poly_str(p) for p in v) + ")"


def transpose(m):
    return [list(col) for col in zip(*m)]


# ---------------------------------------------------------------------------
# Sparse matrix action
# ---------------------------------------------------------------------------


def apply_matrix(
    matrix: Sequence[Vec],
    u: Vec,
    rank_out: int,
    chart: Chart,
    start: Vec | None = None,
) -> Vec:
    """start + sum_a u_a matrix[a]: the image of u under a generator matrix.

    start defaults to zero. Zero coefficients and zero matrix entries are
    skipped, so a sparse matrix costs one product per nonzero pair.
    """
    out = list(zero_vec(chart, rank_out) if start is None else start)
    for a, coeff in enumerate(u):
        if coeff.is_zero:
            continue
        for k, img in enumerate(matrix[a]):
            if not img.is_zero:
                out[k] = out[k] + coeff * img
    return tuple(out)


def mat_mul(first: Sequence[Vec], then: Sequence[Vec], chart: Chart) -> tuple[Vec, ...]:
    """Row-convention composite: apply `first`, then `then`."""
    cols = len(then[0])
    return tuple(apply_matrix(then, row, cols, chart) for row in first)


def apply_constant(
    matrix: Sequence[Sequence[Fraction]], vec: Vec, chart: Chart
) -> Vec:
    """A constant matrix times a polynomial vector."""
    out = []
    for row in matrix:
        acc = Poly.zero(chart)
        for c, p in zip(row, vec):
            if c and not p.is_zero:
                acc = acc + c * p
        out.append(acc)
    return tuple(out)


def dot(u: Vec, v: Vec, chart: Chart) -> Poly:
    """sum_b u_b v_b over the pairs with both entries nonzero."""
    acc = Poly.zero(chart)
    for x, y in zip(u, v):
        if not x.is_zero and not y.is_zero:
            acc = acc + x * y
    return acc


def bilinear(u: Vec, matrix: Sequence[Vec], v: Vec, chart: Chart) -> Poly:
    """sum_ab u_a matrix[a][b] v_b, with the inner sum over b taken first."""
    acc = Poly.zero(chart)
    for a, coeff in enumerate(u):
        if coeff.is_zero:
            continue
        inner = dot(matrix[a], v, chart)
        if not inner.is_zero:
            acc = acc + coeff * inner
    return acc


def pairing_differential(
    pairing: Sequence[Vec], u: Vec, v: Vec, chart: Chart
) -> Vec:
    """The one-form sum_a (sum_b g_ab v_b) du_a, one coefficient per
    coordinate; g is the pairing matrix. Constant u_a contribute nothing."""
    out = list(zero_vec(chart, chart.dim))
    for a, coeff in enumerate(u):
        if coeff.as_constant() is not None:
            continue
        weight = dot(pairing[a], v, chart)
        if weight.is_zero:
            continue
        for j in range(chart.dim):
            du = coeff.diff(j)
            if not du.is_zero:
                out[j] = out[j] + weight * du
    return tuple(out)


# ---------------------------------------------------------------------------
# Fraction matrices
# ---------------------------------------------------------------------------


def qq_rref(
    rows: list[list[Fraction]],
) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def qq_rank(rows: list[list[Fraction]]) -> int:
    return len(qq_rref(rows)[1])


def independent_rows(rows: Sequence[Sequence[Fraction]]) -> list[int]:
    """Indices of the rows a greedy pass keeps, each independent of those
    kept before it: the pivot columns of the transpose, in one elimination."""
    return qq_rref(transpose(rows))[1]


def qq_solve(
    a: list[list[Fraction]], b: list[Fraction]
) -> list[Fraction] | None:
    """One solution of a x = b over Q, or None if inconsistent."""
    if not a:
        return [] if not any(b) else None
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    rref, pivots = qq_rref(aug)
    ncols = len(a[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rref[r][ncols]
    return x


def qq_inverse(a: list[list[Fraction]]) -> list[list[Fraction]] | None:
    n = len(a)
    aug = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(a)]
    rref, pivots = qq_rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rref]


# ---------------------------------------------------------------------------
# Polynomial matrices
# ---------------------------------------------------------------------------


def _pivot_columns(rows: Sequence[Vec]) -> list[int]:
    """Pivot columns of a polynomial matrix at the generic point.

    Fraction-free elimination: rows are cross-multiplied, so no division
    happens and the pivot columns are those over the fraction field, the
    columns independent of the columns before them.
    """
    work = [list(r) for r in rows if not vec_is_zero(tuple(r))]
    if not work:
        return []
    ncols = len(work[0])
    pivots = []
    col = 0
    while work and col < ncols:
        pivot_row = None
        for i, row in enumerate(work):
            if not row[col].is_zero:
                if pivot_row is None or _poly_size(row[col]) < _poly_size(
                    work[pivot_row][col]
                ):
                    pivot_row = i
        if pivot_row is None:
            col += 1
            continue
        pivot = work.pop(pivot_row)
        pval = pivot[col]
        nxt = []
        for row in work:
            if row[col].is_zero:
                nxt.append(row)
                continue
            rv = row[col]
            new = [pval * row[j] - rv * pivot[j] for j in range(ncols)]
            if any(not p.is_zero for p in new):
                nxt.append(new)
        work = nxt
        pivots.append(col)
        col += 1
    return pivots


def poly_rows_rank(rows: Sequence[Vec]) -> int:
    """Rank of a polynomial matrix at the generic point."""
    return len(_pivot_columns(rows))


def _poly_size(p: Poly) -> tuple[int, int]:
    return (p.degree(), len(p.terms))


def select_independent(rows: Sequence[Vec]) -> list[int]:
    """Indices of the rows a greedy pass keeps, each generically independent
    of those kept before it: the pivot columns of the transpose, in one
    elimination."""
    return _pivot_columns(transpose(rows))


def poly_det(m: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant by cofactor expansion (fine for the small sizes here)."""
    n = len(m)
    if n == 0:
        raise ValidationError("determinant of an empty matrix")
    chart = m[0][0].chart
    if n == 1:
        return m[0][0]
    out = Poly.zero(chart)
    for j in range(n):
        a = m[0][j]
        if a.is_zero:
            continue
        minor = [
            [m[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        term = a * poly_det(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def poly_adjugate(m: Sequence[Sequence[Poly]]) -> list[list[Poly]]:
    n = len(m)
    chart = m[0][0].chart
    if n == 1:
        return [[Poly.one(chart)]]
    adj = [[Poly.zero(chart)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = poly_det(minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj


def left_inverse(m: Sequence[Sequence[Poly]]) -> list[list[Poly]] | None:
    """A polynomial matrix L with L m = identity, or None.

    m is an n x k polynomial matrix (n rows, k >= 1 columns); L is k x n.
    Each k-row minor m_S has adj(m_S) m_S = det(m_S) I, so constants c_S
    with sum_S c_S det(m_S) = 1 give L = sum_S c_S adj(m_S), placed on the
    columns S. None when no such constants exist. By Cauchy-Binet this
    accepts every m with a constant left inverse L0 (c_S is the determinant
    of L0 on the columns S) and every square m whose determinant is a
    nonzero constant.
    """
    n = len(m)
    if n == 0:
        return None
    k = len(m[0])
    chart = m[0][0].chart
    subsets = list(combinations(range(n), k))
    minors = [[m[i] for i in rows] for rows in subsets]
    dets = [poly_det(minor) for minor in minors]
    weights = solve_bounded_degree(
        len(dets), lambda j, mono: (dets[j],), (Poly.one(chart),), chart, 0
    )
    if weights is None:
        return None
    out = [[Poly.zero(chart)] * n for _ in range(k)]
    for rows, minor, w in zip(subsets, minors, weights):
        c = w.as_constant()
        if not c:
            continue
        adj = poly_adjugate(minor)
        for r in range(k):
            for t, i in enumerate(rows):
                out[r][i] = out[r][i] + c * adj[r][t]
    # Defensive: confirm L m = I exactly, one column at a time.
    columns = transpose(out)
    for j in range(k):
        col = tuple(row[j] for row in m)
        if apply_matrix(columns, col, k, chart) != unit_vec(chart, k, j):
            return None
    return out


# ---------------------------------------------------------------------------
# Constant-coefficient solving with polynomial right-hand sides
# ---------------------------------------------------------------------------


def membership_witness(
    gens: Sequence[Vec], v: Vec, chart: Chart, degree_bound: int
) -> list[Poly] | None:
    """Polynomial multipliers expressing v in the module span of gens.

    Solves for multipliers of total degree <= degree_bound by comparing
    coefficients; returns the multiplier list or None if no solution exists
    within the bound. Exact in the positive direction; a None is only
    conclusive up to the stated bound (callers record the bound).
    """
    if vec_is_zero(v):
        return [Poly.zero(chart) for _ in gens]
    if not gens:
        return None

    def image(g: int, mono: tuple[int, ...]) -> Vec:
        """x^mono * gens[g], shifting exponents instead of multiplying."""
        return tuple(
            Poly(chart, {tuple(map(add, exps, mono)): c for exps, c in p.terms.items()})
            for p in gens[g]
        )

    return solve_bounded_degree(len(gens), image, v, chart, degree_bound)


def solve_bounded_degree(
    n: int, image, target: Vec, chart: Chart, degree_bound: int
) -> list[Poly] | None:
    """Polynomials t_0..t_{n-1} of total degree <= degree_bound with
    L(t) = target, for a Q-linear map L into polynomial vectors.

    image(j, mono) is L of the monomial mono in slot j (zero elsewhere).
    Coefficients of every output slot and monomial are matched and the
    system solved by qq_solve; None when no solution exists within the bound.
    """
    monos = _monomials_up_to(chart.dim, degree_bound)
    unknowns = [(j, m) for j in range(n) for m in monos]
    # One equation per (output slot, monomial) that an image or the target has.
    rows: dict[tuple[int, tuple[int, ...]], dict[int, Fraction]] = {}
    for col, (j, m) in enumerate(unknowns):
        for i, p in enumerate(image(j, m)):
            for exps, c in p.terms.items():
                bucket = rows.setdefault((i, exps), {})
                bucket[col] = bucket.get(col, Fraction(0)) + c
    for i, p in enumerate(target):
        for exps in p.terms:
            rows.setdefault((i, exps), {})
    keys = sorted(rows)
    a = [[rows[k].get(col, Fraction(0)) for col in range(len(unknowns))] for k in keys]
    b = [target[i].terms.get(exps, Fraction(0)) for i, exps in keys]
    sol = qq_solve(a, b)
    if sol is None:
        return None
    out: list[dict] = [{} for _ in range(n)]
    for (j, m), c in zip(unknowns, sol):
        if c:
            out[j][m] = c
    return [Poly(chart, terms) for terms in out]


def _monomials_up_to(dim: int, degree: int) -> list[tuple[int, ...]]:
    if dim == 0:
        return [()]
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            for e in range(remaining + 1):
                out.append(prefix + (e,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, dim)
    return sorted(out)
