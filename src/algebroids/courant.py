"""Courant algebroids with polynomial coefficients.

A Courant algebroid here is a free module with an anchor (sections to vector
fields), a coanchor (one-forms to sections), a symmetric pairing, and a
non-antisymmetric bracket given by structure functions on the generators.
The bracket of general sections extends the generator table by the Leibniz
rule in the right slot and its pairing-corrected mirror in the left slot;
everything but the last (coanchor) line is the anchored-module core shared
with LieData (algebroids.anchored):

    {u, v} = sum_ab u_a v_b {e_a, e_b}
           + sum_b anchor(u)(v_b) e_b
           - sum_a anchor(v)(u_a) e_a
           + sum_a (sum_b g_ab v_b) coanchor(d u_a).

check_courant names its verdicts eq1_anchor_coanchor through
eq6_symmetrization plus leibniz_identity; the first six are the pointwise
compatibilities (composition, Leibniz, invariance, ideal, adjunction,
symmetrization) and the last is the Jacobi identity in Leibniz form.

The Baer-type combination is implemented for exact structures (rank twice
the chart dimension, with an isotropic connection supplied per summand).
CourantCombination is the anchored.Combination of the summands over the
common anchor, glued along their coanchor lines by the weights, which is
where the curvature classes combine linearly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product
from typing import Sequence

from algebroids import linalg
from algebroids.anchored import (
    AnchoredModule,
    Combination,
    anchor_defect,
    anchor_failures,
    bracket_failures,
    constant_quotient,
    jacobi_counterexample,
    jacobi_generator_failures,
    jacobi_left_probe_failures,
    probe,
)
from algebroids.errors import ChartMismatchError, ValidationError
from algebroids.lie_algebroid import LieData
from algebroids.linalg import (
    Vec,
    apply_matrix,
    bilinear,
    pairing_differential,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from algebroids.report import Report
from algebroids.symcalc import Chart, KForm, Poly, VField


def _form_vec(form: KForm) -> Vec:
    return tuple(form.component((j,)) for j in range(form.chart.dim))


@dataclass
class CourantData(AnchoredModule):
    """Structure data of a Courant algebroid on a free module basis.

    anchor[a] is the vector field image of generator a; coanchor[j] is the
    section hit by the j-th coordinate differential; pairing is the full
    symmetric matrix; structure maps ordered generator pairs to bracket
    coefficient vectors (no antisymmetry is implied, so both orders are
    stored when nonzero).
    """

    chart: Chart
    rank: int
    anchor: tuple[Vec, ...]
    coanchor: tuple[Vec, ...]
    pairing: tuple[Vec, ...]
    structure: dict[tuple[int, int], Vec] = field(default_factory=dict)

    def __post_init__(self):
        self._validate()
        self.coanchor = tuple(tuple(r) for r in self.coanchor)
        self.pairing = tuple(tuple(r) for r in self.pairing)
        if len(self.coanchor) != self.chart.dim:
            raise ValidationError("coanchor needs one row per coordinate")
        for row in self.coanchor:
            if len(row) != self.rank:
                raise ValidationError("coanchor row has wrong length")
        if len(self.pairing) != self.rank:
            raise ValidationError("pairing must be a square matrix")
        for a, row in enumerate(self.pairing):
            if len(row) != self.rank:
                raise ValidationError("pairing must be a square matrix")
        for a in range(self.rank):
            for b in range(self.rank):
                if self.pairing[a][b] != self.pairing[b][a]:
                    raise ValidationError(
                        f"pairing is not symmetric at ({a},{b})"
                    )
        for mat in (self.coanchor, self.pairing):
            for row in mat:
                for p in row:
                    if p.chart != self.chart:
                        raise ChartMismatchError("entry on wrong chart")

    # -- sections ----------------------------------------------------------

    def coanchor_of(self, alpha: KForm) -> Vec:
        if alpha.degree != 1:
            raise ValidationError("coanchor acts on one-forms")
        return self._coanchor_vec(_form_vec(alpha))

    def _coanchor_vec(self, alpha: Vec, start: Vec | None = None) -> Vec:
        """start + the coanchor image of the one-form with coefficients alpha."""
        return apply_matrix(self.coanchor, alpha, self.rank, self.chart, start)

    def pairing_of(self, u: Vec, v: Vec) -> Poly:
        return bilinear(u, self.pairing, v, self.chart)

    def bracket(self, u: Vec, v: Vec) -> Vec:
        if self._either_zero(u, v):
            return self.zero_section()
        alpha = pairing_differential(self.pairing, u, v, self.chart)
        return self._coanchor_vec(alpha, super().bracket(u, v))


def standard_exact(chart: Chart, h: KForm | None = None) -> CourantData:
    """The split exact structure on tangent + cotangent directions.

    Generators 0..n-1 cover the coordinate vector fields, generators n..2n-1
    the coordinate differentials; h (a three-form) feeds the bracket of two
    vector directions. h = None means the untwisted structure.
    """
    n = chart.dim
    if h is None:
        h = KForm.zero(chart, 3)
    if h.degree != 3:
        raise ValidationError("the twisting form must be a three-form")
    if h.chart != chart:
        raise ChartMismatchError("twisting form on the wrong chart")
    r = 2 * n
    z = Poly.zero(chart)
    one = Poly.one(chart)
    anchor, coanchor = _exact_frame(chart)
    pairing = tuple(
        tuple(
            one if abs(a - b) == n else z for b in range(r)
        )
        for a in range(r)
    )
    structure = {
        (i, j): (z,) * n + tuple(h.component((i, j, k)) for k in range(n))
        for i, j in product(range(n), repeat=2)
    }
    return CourantData(chart, r, anchor, coanchor, pairing, structure)


def _exact_frame(chart: Chart) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Anchor and coanchor of the split exact frame: generator i < n is the
    i-th coordinate field, generator n + j the j-th coordinate differential."""
    n = chart.dim
    anchor = tuple(linalg.unit_vec(chart, n, i) for i in range(n))
    coanchor = tuple(linalg.unit_vec(chart, 2 * n, n + j) for j in range(n))
    return anchor + (linalg.zero_vec(chart, n),) * n, coanchor


def opposite(q: CourantData) -> CourantData:
    """Same bracket and anchor, pairing and coanchor negated."""
    return CourantData(
        q.chart,
        q.rank,
        q.anchor,
        tuple(linalg.vec_neg(row) for row in q.coanchor),
        tuple(linalg.vec_neg(row) for row in q.pairing),
        dict(q.structure),
    )


def twist(q: CourantData, h: KForm) -> CourantData:
    """Add the h-term coanchor(i_{anchor b} i_{anchor a} h) to each bracket.

    The added term is function-bilinear, so twisting the structure functions
    twists the bracket of arbitrary sections consistently.
    """
    if h.degree != 3:
        raise ValidationError("the twisting form must be a three-form")
    if h.chart != q.chart:
        raise ChartMismatchError("twisting form on the wrong chart")
    iotas = [h.iota(q.anchor_of(q.gen(a))) for a in range(q.rank)]
    structure = {
        (a, b): vec_add(
            q.bracket_gen(a, b),
            q.coanchor_of(iotas[a].iota(q.anchor_of(q.gen(b)))),
        )
        for a, b in product(range(q.rank), repeat=2)
    }
    return CourantData(
        q.chart, q.rank, q.anchor, q.coanchor, q.pairing, structure
    )


def direct_sum(q1: CourantData, q2: CourantData) -> CourantData:
    """Block sum of two structures on one chart (anchors add, coanchors
    stack, pairing is block diagonal)."""
    if q1.chart != q2.chart:
        raise ChartMismatchError("direct sum needs a common chart")
    chart = q1.chart
    r1, r2 = q1.rank, q2.rank
    z = Poly.zero(chart)

    def pad1(v: Vec) -> Vec:
        return tuple(v) + tuple(z for _ in range(r2))

    def pad2(v: Vec) -> Vec:
        return tuple(z for _ in range(r1)) + tuple(v)

    anchor = tuple(q1.anchor[a] for a in range(r1)) + tuple(
        q2.anchor[b] for b in range(r2)
    )
    coanchor = tuple(
        tuple(q1.coanchor[j]) + tuple(q2.coanchor[j])
        for j in range(chart.dim)
    )
    pairing = tuple(
        tuple(q1.pairing[a]) + tuple(z for _ in range(r2)) for a in range(r1)
    ) + tuple(
        tuple(z for _ in range(r1)) + tuple(q2.pairing[b]) for b in range(r2)
    )
    structure = {}
    for (a, b), vec in q1.structure.items():
        structure[(a, b)] = pad1(vec)
    for (a, b), vec in q2.structure.items():
        structure[(r1 + a, r1 + b)] = pad2(vec)
    return CourantData(chart, r1 + r2, anchor, coanchor, pairing, structure)


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


def generator_defects(q: CourantData) -> tuple[list[list[Poly]], list[VField]]:
    """M[a][j] = <e_a, coanchor[j]> - anchor(e_a)^j and N[j] =
    anchor(coanchor[j]): the eq5 and eq1 defects on generators (L5)."""
    n = q.chart.dim
    M = [
        [q.pairing_of(q.gen(a), q.coanchor[j]) - q.anchor[a][j] for j in range(n)]
        for a in range(q.rank)
    ]
    return M, [q.anchor_of(row) for row in q.coanchor]


# The verdicts that, with the anchor on generators, make the jacobiator
# function-linear in every slot (L10-L12).
TENSORIAL_WHEN = (
    "eq1_anchor_coanchor",
    "eq3_pairing_invariance",
    "eq4_coanchor_ideal",
    "eq5_adjunction",
    "eq6_symmetrization",
)


def check_courant(
    q: CourantData,
    samples: int = 100,
    seed: int = 0,
) -> Report:
    """Verify the Courant axioms: six pointwise compatibilities and the
    Jacobi identity in Leibniz form, each decided exactly by the lemmas
    below on generators and probe sections x_k*e_a. No verdict draws
    random sections: samples and seed are accepted and unused.

    g is the pairing and c(alpha) = sum_j alpha_j coanchor[j]. The eq5 and
    eq1 generator defects M[a][j] = <e_a, coanchor[j]> - anchor(e_a)^j and
    N[j] = anchor(coanchor[j]) are computed once. The lemmas use L1
    (algebroids.anchored), by which eq2_leibniz_rule passes by
    construction, and [f u, v] = f [u, v] - anchor(v)(f) u + <u, v> c(df).
    L5: anchor(c alpha) and E5(u, alpha) = <u, c alpha> - alpha(anchor u)
    are function-linear in every slot, so N and M decide eq1 and eq5.
    L6: [u, v] + [v, u] - c(d<u, v>) = sum_ab u_a v_b times the (a, b)
    generator defect: the Leibniz terms cancel, and the coanchor terms sum
    to c(d<u, v>) - sum_ab u_a v_b c(dg_ab).
    L7: E3(u, v, w) = anchor(u)<v, w> - <[u, v], w> - <v, [u, w]> is linear
    in v and w, and E3(f u, v, w) = f E3(u, v, w) - <u, v> E5(w, df)
    - <u, w> E5(v, df). Past the generator cases, eq3 is decided by the
    probes E3(x_k e_c, e_a, e_b) = -(g_ca M[b][k] + g_cb M[a][k]); they
    are symmetric in a and b, so only nonzero M[b][k] are visited.
    L8: E4(u, alpha) = [u, c alpha] - c(L_{anchor u} alpha) is linear in
    alpha, and E4(f u, alpha) = f E4(u, alpha) - anchor(c alpha)(f) u
    + E5(u, alpha) c(df). Past the generator cases, eq4 is decided by the
    probes E4(x_k e_a, dx_j) = M[a][j] coanchor[k] - N[j]^k e_a.

    leibniz_identity is J(u, v, w) = [u, [v, w]] - [[u, v], w] - [v, [u, w]]
    = 0. Write A(u, v) = anchor([u, v]) - [anchor u, anchor v] and E6(u, v)
    = [u, v] + [v, u] - c(d<u, v>). The slot formulas below follow from L1
    and its left-slot twin, so they hold for every table.
    L10 (w slot): J(u, v, f w) = f J(u, v, w) - A(u, v)(f) w, A(u, f v)
    = f A(u, v) and A(f u, v) = f A(u, v) + <u, v> N(df). So J is
    function-linear in w iff A(e_a, e_b) = 0 and g_ab N[m] = 0 for all
    a, b, m. Past the generator triples, A(e_a, e_b)^k != 0 makes
    J(e_a, e_b, x_k e_0) = -A(e_a, e_b)^k e_0, and g_ab N[m]^k != 0 makes
    J(x_m e_a, e_b, x_k e_0) = x_k J(x_m e_a, e_b, e_0) - g_ab N[m]^k e_0,
    so one of those two sections is a counterexample.
    L11 (v slot): J(u, f v, w) = f J(u, v, w) + A(u, w)(f) v
    + <v, w> E4(u, df) + E3(u, v, w) c(df). With A = 0 the correction is
    sum_k d_k(f) K_k(u, v, w), K_k(u, v, w) = <v, w> E4(u, dx_k)
    + E3(u, v, w) coanchor[k], which is linear in v and w. By L7 and L8,
    K_k(f u, e_b, e_c) - f K_k(u, e_b, e_c) is first order in f; for
    u = e_a and f = x_m it is g_bc (M[a][k] coanchor[m] - N[k]^m e_a)
    - (g_ab M[c][m] + g_ac M[b][m]) coanchor[k]. So J is function-linear
    in v iff K_k(e_a, e_b, e_c) and that correction vanish; they show at
    (e_a, x_k e_b, e_c) and at (x_m e_a, x_k e_b, e_c) unless
    J(x_m e_a, e_b, e_c) is already nonzero.
    L12 (u slot): each bracket is a differential operator of order at most
    one in the coefficients of either argument, and J nests two of them,
    so D(f) = J(f u, v, w) - f J(u, v, w) is a differential operator of
    order at most two in f with D(1) = 0: D(f) = sum_k D_k d_k(f)
    + sum_{k<=l} D_kl d_k d_l(f). As D(x_k) = D_k and D(x_k x_l) =
    x_l D_k + x_k D_l + (1 + delta_kl) D_kl, J(u, e_b, e_c) vanishes for
    every u iff it does on the probes x_k e_a and x_k x_l e_a. In closed
    form, with [c(df), w] = -E4(w, df) + c(d E5(w, df)) + E6(c(df), w),
    J(f u, v, w) = f J - A(v, w)(f) u - [E3(v, u, w) + <E6(u, v), w>
    + E5(w, d<u, v>)] c(df) + anchor(w)(f) E6(u, v) - E5(w, df) c(d<u, v>)
    - <u, w> E4(v, df) - <u, v> [c(df), w].
    So once eq1, eq3-eq6 and A(e_a, e_b) = 0 hold, J is function-linear in
    every slot and the generator triples decide leibniz_identity.
    Otherwise it goes on through the closed forms of L10 and L11 and then
    the direct probes of L12, and stops at the first failure; each
    counterexample names sections on which J is evaluated directly."""
    rep = Report()
    chart = q.chart
    coords = chart.coords
    r = q.rank
    n = chart.dim
    g = q.pairing
    gen = [q.gen(a) for a in range(r)]
    M, N = generator_defects(q)
    @cache
    def e3_row(c: int) -> list[list[Poly]]:
        """E3(e_c, e_a, e_b) for every (a, b), built on first use."""
        rho = q.anchor_of(gen[c])
        paired = [  # <[e_c, e_a], e_b>
            [q.pairing_of(q.bracket_gen(c, a), gen[b]) for b in range(r)]
            for a in range(r)
        ]
        return [
            [rho.apply(g[a][b]) - paired[a][b] - paired[b][a] for b in range(r)]
            for a in range(r)
        ]

    @cache
    def e4_gen(a: int, j: int) -> Vec:
        """E4(e_a, dx_j), built on first use."""
        rhs = q.coanchor_of(KForm.dx(chart, j).lie(q.anchor_of(gen[a])))
        return vec_sub(q.bracket(gen[a], q.coanchor[j]), rhs)

    def combination(*terms: tuple[Poly, Vec]) -> Vec:
        """The sum of coefficient * section, zero terms skipped."""
        coeffs, sections = zip(*terms)
        return apply_matrix(sections, coeffs, r, chart)

    def anchor_coanchor():
        for j, got in enumerate(N):
            if not got.is_zero:
                yield f"coordinate {coords[j]}: anchor image {got}"

    def pairing_invariance():
        for c in range(r):
            row = e3_row(c)
            for a, b in product(range(r), repeat=2):
                if not row[a][b].is_zero:
                    yield f"generators ({c},{a},{b})"
        nonzero = [(b, k) for b in range(r) for k in range(n) if not M[b][k].is_zero]
        for (b, k), c, a in product(nonzero, range(r), range(r)):
            if not (g[c][a] * M[b][k] + g[c][b] * M[a][k]).is_zero:
                yield f"sections ({coords[k]}*e{c}, e{a}, e{b})"

    def coanchor_ideal():
        for a, j in product(range(r), range(n)):
            if not vec_is_zero(e4_gen(a, j)):
                yield f"generator {a}, coordinate {coords[j]}"
        for a, j, k in product(range(r), range(n), range(n)):
            lhs = vec_scale(M[a][j], q.coanchor[k])
            if not linalg.vec_eq(lhs, vec_scale(N[j].comps[k], gen[a])):
                yield f"section {coords[k]}*e{a}, coordinate {coords[j]}"

    def adjunction():
        for a, j in product(range(r), range(n)):
            if not M[a][j].is_zero:
                yield f"generator {a}, coordinate {coords[j]}"

    def symmetrization():
        for a, b in product(range(r), repeat=2):
            lhs = vec_add(q.bracket_gen(a, b), q.bracket_gen(b, a))
            rhs = q.coanchor_of(KForm.from_poly(q.pairing[a][b]).d())
            if not vec_is_zero(vec_sub(lhs, tuple(rhs))):
                yield f"generators ({a},{b})"

    def leibniz_identity():
        yield from jacobi_generator_failures(q)
        e = [probe(q, a) for a in range(r)]
        # L10, the anchor on generators
        for a, b in product(range(r), repeat=2):
            for k, comp in enumerate(anchor_defect(q, a, b).comps):
                if not comp.is_zero:
                    yield jacobi_counterexample(q, (e[a], e[b], probe(q, 0, k)))
        if all(rep[name].passed for name in TENSORIAL_WHEN):
            return
        # L10, g_ab N[m]
        for a, b, m in product(range(r), range(r), range(n)):
            if g[a][b].is_zero:
                continue
            for k, comp in enumerate(N[m].comps):
                if not comp.is_zero:
                    xa = probe(q, a, m)
                    yield jacobi_counterexample(
                        q, (xa, e[b], e[0]), (xa, e[b], probe(q, 0, k))
                    )
        # L11, K_k on generators, then its correction at x_m e_a
        for a, b, c, k in product(range(r), range(r), range(r), range(n)):
            k_gen = combination(
                (g[b][c], e4_gen(a, k)), (e3_row(a)[b][c], q.coanchor[k])
            )
            if not vec_is_zero(k_gen):
                yield jacobi_counterexample(q, (e[a], probe(q, b, k), e[c]))
        for a, m, k in product(range(r), range(n), range(n)):
            x_part = combination((M[a][k], q.coanchor[m]), (-N[k].comps[m], gen[a]))
            if vec_is_zero(x_part) and all(M[c][m].is_zero for c in range(r)):
                continue
            for b, c in product(range(r), repeat=2):
                scalar = -(g[a][b] * M[c][m] + g[a][c] * M[b][m])
                correction = combination((g[b][c], x_part), (scalar, q.coanchor[k]))
                if not vec_is_zero(correction):
                    xa = probe(q, a, m)
                    yield jacobi_counterexample(
                        q, (xa, e[b], e[c]), (xa, probe(q, b, k), e[c])
                    )
        # L12, first-order probes, then second-order ones
        yield from jacobi_left_probe_failures(
            q, (probe(q, a, k) for a, k in product(range(r), range(n)))
        )
        yield from jacobi_left_probe_failures(
            q,
            (
                probe(q, a, k, l)
                for a in range(r)
                for k, l in combinations_with_replacement(range(n), 2)
            ),
        )

    rep.check("eq1_anchor_coanchor", anchor_coanchor())
    rep.add("eq2_leibniz_rule", True)
    rep.check("eq3_pairing_invariance", pairing_invariance())
    rep.check("eq4_coanchor_ideal", coanchor_ideal())
    rep.check("eq5_adjunction", adjunction())
    rep.check("eq6_symmetrization", symmetrization())
    rep.check("leibniz_identity", leibniz_identity())
    return rep


def check_courant_morphism(
    src: CourantData, dst: CourantData, matrix: Sequence[Vec]
) -> Report:
    """matrix[a] is the image of the a-th source generator; the checks are
    exact on generators (the four structure maps are all O-bilinear or
    handled by the section bracket)."""
    rep = Report()
    if src.chart != dst.chart:
        raise ChartMismatchError("morphism checks need a common chart")
    chart = src.chart

    def coanchor():
        for j in range(chart.dim):
            got = apply_matrix(matrix, src.coanchor[j], dst.rank, chart)
            if not linalg.vec_eq(got, dst.coanchor[j]):
                yield f"coordinate {chart.coords[j]}"

    def pairing():
        for a, b in product(range(src.rank), repeat=2):
            if dst.pairing_of(matrix[a], matrix[b]) != src.pairing[a][b]:
                yield f"generators ({a},{b})"

    rep.check("morphism_anchor", anchor_failures(src, dst, matrix))
    rep.check("morphism_coanchor", coanchor())
    rep.check("morphism_pairing", pairing())
    rep.check("morphism_bracket", bracket_failures(src, dst, matrix))
    return rep


# ---------------------------------------------------------------------------
# Connections and curvature
# ---------------------------------------------------------------------------


@dataclass
class Connection:
    """An isotropic right inverse of the anchor, one section per coordinate."""

    courant: CourantData
    columns: tuple[Vec, ...]

    def __post_init__(self):
        self.columns = tuple(tuple(c) for c in self.columns)
        q = self.courant
        if len(self.columns) != q.chart.dim:
            raise ValidationError("connection needs one section per coordinate")
        for i, col in enumerate(self.columns):
            if len(col) != q.rank:
                raise ValidationError("connection column has wrong length")
            if q.anchor_of(col) != VField.basis(q.chart, i):
                raise ValidationError(
                    f"connection column {i} does not anchor to the "
                    f"coordinate field"
                )
        for i in range(q.chart.dim):
            for j in range(i, q.chart.dim):
                if not q.pairing_of(self.columns[i], self.columns[j]).is_zero:
                    raise ValidationError(
                        f"connection columns ({i},{j}) are not isotropic"
                    )


def coordinate_connection(q: CourantData) -> Connection:
    """First-dim generators as the connection (valid for standard form)."""
    return Connection(
        q, tuple(q.gen(i) for i in range(q.chart.dim))
    )


def curvature(conn: Connection) -> KForm:
    """Three-form measuring the bracket defect of the connection.

    Components are read off with the pairing against the connection itself;
    the defect sections are then confirmed to be coanchor images of exactly
    those components, and the component array to be totally antisymmetric.
    """
    q = conn.courant
    chart = q.chart
    n = chart.dim
    comps: dict[tuple[int, int, int], Poly] = {}
    defects: dict[tuple[int, int], Vec] = {}
    for i in range(n):
        for j in range(n):
            defects[(i, j)] = q.bracket(conn.columns[i], conn.columns[j])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                comps[(i, j, k)] = q.pairing_of(defects[(i, j)], conn.columns[k])
    for (i, j, k), c in comps.items():
        if not (c + comps[(j, i, k)]).is_zero or not (c + comps[(i, k, j)]).is_zero:
            raise ValidationError(
                "curvature components are not totally antisymmetric; the "
                "connection data is inconsistent"
            )
    for i in range(n):
        for j in range(n):
            alpha = tuple(comps[(i, j, k)] for k in range(n))
            if not linalg.vec_eq(q._coanchor_vec(alpha), defects[(i, j)]):
                raise ValidationError(
                    f"bracket defect at ({i},{j}) is not a coanchor image "
                    f"of its pairing components"
                )
    return KForm(
        chart,
        3,
        {
            (i, j, k): comps[(i, j, k)]
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
        },
    )


def connection_shift(conn: Connection, b: KForm) -> Connection:
    """Shift by a two-form: each column picks up coanchor(i_{coord} b)."""
    if b.degree != 2:
        raise ValidationError("connection shifts use two-forms")
    q = conn.courant
    cols = []
    for i in range(q.chart.dim):
        shift = q.coanchor_of(b.iota(VField.basis(q.chart, i)))
        cols.append(vec_add(conn.columns[i], shift))
    return Connection(q, tuple(cols))


# ---------------------------------------------------------------------------
# Quotient to the underlying Lie algebroid
# ---------------------------------------------------------------------------


def associated_lie_algebroid(q: CourantData) -> tuple[LieData, tuple[Vec, ...]]:
    """Quotient by the coanchor image (requires constant coanchor rows).

    Returns the quotient Lie algebroid and the projection of each generator.
    The bracket descends because both bracket ideals land in the coanchor
    image; antisymmetry of the quotient is verified on the way.
    """
    rows = [[p.as_constant() for p in row] for row in q.coanchor]
    if any(c is None for row in rows for c in row):
        raise ValidationError("quotient needs constant coanchor rows in this basis")
    got = constant_quotient(q, [rows[j] for j in linalg.independent_rows(rows)])
    if got is None:
        raise ValidationError("coanchor image has no constant complement")
    anchor, structure, projection = got
    return LieData(q.chart, len(anchor), anchor, structure), projection


# ---------------------------------------------------------------------------
# Baer-type combinations of exact structures
# ---------------------------------------------------------------------------


class CourantCombination(Combination):
    """Weighted combination of exact structures: the anchored.Combination
    lifting the base through each summand's connection columns, with the
    coanchor rows as lines read by pairing with those columns and the
    anchor of summand 0 as base reader. result holds the weighted pairings
    of the basis and its basis_bracket table: generators 0..n-1 are the
    diagonal connection lifts, n..2n-1 the glued coanchor lines.
    """

    def __init__(
        self,
        parts: tuple[CourantData, ...],
        weights: tuple[Fraction, ...],
        connections: tuple[Connection, ...],
    ):
        chart = parts[0].chart
        self.connections = connections
        readers = [
            linalg.transpose(
                [apply_matrix(q.pairing, col, q.rank, chart) for col in conn.columns]
            )
            for q, conn in zip(parts, connections)
        ]
        super().__init__(
            parts,
            weights,
            [conn.columns for conn in connections],
            [q.coanchor for q in parts],
            readers,
            parts[0].anchor,
        )
        gens = self.basis

        def weighted(x: tuple[Vec, ...], y: tuple[Vec, ...]) -> Poly:
            terms = zip(parts, weights, x, y)
            products = (w * q.pairing_of(u, v) for q, w, u, v in terms if w)
            return sum(products, Poly.zero(chart))

        r = len(gens)
        pairing = tuple(tuple(weighted(x, y) for y in gens) for x in gens)
        structure = {
            (a, b): self.basis_bracket(a, b) for a, b in product(range(r), repeat=2)
        }
        anchor, coanchor = _exact_frame(chart)
        self.result = CourantData(chart, r, anchor, coanchor, pairing, structure)


def baer_combination(
    parts: Sequence[CourantData],
    weights: Sequence,
    connections: Sequence[Connection],
) -> CourantCombination:
    """Weighted fiber-product combination of exact structures.

    Each summand must have rank twice the chart dimension and come with an
    isotropic connection. The result is presented on diagonal lifts and
    glued coanchor lines; its structure functions are computed by reducing
    componentwise brackets of lifted tuples, so curvature classes combine
    with the given weights.
    """
    if not parts:
        raise ValidationError("need at least one summand")
    chart = parts[0].chart
    n = chart.dim
    weights = tuple(Fraction(w) for w in weights)
    if len(weights) != len(parts) or len(connections) != len(parts):
        raise ValidationError("need one weight and one connection per summand")
    if not any(weights):
        raise ValidationError(
            "all-zero weights give a degenerate pairing; not a valid "
            "combination"
        )
    for qi, conn in zip(parts, connections):
        if qi.chart != chart:
            raise ChartMismatchError("summands must share the chart")
        if qi.rank != 2 * n:
            raise ValidationError(
                "combination is implemented for exact structures "
                "(rank = twice the chart dimension)"
            )
        if conn.courant is not qi and conn.courant != qi:
            raise ValidationError("connection does not belong to its summand")
    return CourantCombination(tuple(parts), weights, tuple(connections))


def baer_sum(
    q1: CourantData,
    q2: CourantData,
    conn1: Connection,
    conn2: Connection,
) -> CourantCombination:
    return baer_combination([q1, q2], [1, 1], [conn1, conn2])


def scalar_multiple(weight, q: CourantData) -> CourantData:
    """Scale the pairing by the weight and the coanchor by its inverse.

    This is the single-summand combination in closed form, valid for any
    structure (not just exact ones)."""
    w = Fraction(weight)
    if w == 0:
        raise ValidationError("scalar multiple needs a nonzero weight")
    w_inv = 1 / w
    pairing = tuple(
        tuple(w * p for p in row) for row in q.pairing
    )
    coanchor = tuple(
        tuple(w_inv * p for p in row) for row in q.coanchor
    )
    return CourantData(
        q.chart, q.rank, q.anchor, coanchor, pairing, dict(q.structure)
    )
