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

CourantData.pairing_entries is the pairing half of the two table
operations of algebroids.anchored, AnchoredModule.bracket_entries the
bracket half, and pairing_table and bracket_table their dicts: curvature
and the Baer combination read their tables of section pairs through them,
check_courant_morphism walks the entries as it checks the pairs, and Lemma
L14 leaves out the zero entries. check_courant's generator cases, built
lazily, and the isotropy check of a Connection, on the pairs i <= j, keep
their own masks.

The Baer-type combination is implemented for exact structures (rank twice
the chart dimension, with an isotropic connection supplied per summand).
CourantCombination is the anchored.Presentation of the summands over the
common anchor, glued along their coanchor lines by the weights, which is
where the curvature classes combine linearly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, product
from typing import Iterator, Mapping, Sequence

from algebroids import linalg
from algebroids.anchored import (
    AnchoredModule,
    Presentation,
    Support,
    anchor_defects,
    anchor_failures,
    bracket_failures,
    every_pair,
    jacobi_counterexample,
    jacobi_generator_failures,
    jacobi_left_probe_failures,
    mask,
    pairings,
    probe,
    pruned_entries,
    require_chart,
    support,
)
from algebroids.errors import ChartMismatchError, ValidationError
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


@dataclass(frozen=True)
class CourantData(AnchoredModule):
    """Structure data of a Courant algebroid on a free module basis.

    anchor[a] is the vector field image of generator a; coanchor[j] is the
    section hit by the j-th coordinate differential; pairing is the full
    symmetric matrix; structure maps ordered generator pairs to bracket
    coefficient vectors (no antisymmetry is implied, so both orders are
    stored when nonzero). Frozen once validated, as AnchoredModule says:
    build a mutant with dataclasses.replace.
    """

    chart: Chart
    rank: int
    anchor: tuple[Vec, ...]
    coanchor: tuple[Vec, ...]
    pairing: tuple[Vec, ...]
    structure: Mapping[tuple[int, int], Vec] = field(default_factory=dict)

    def __post_init__(self):
        self._validate()
        coanchor = tuple(tuple(r) for r in self.coanchor)
        pairing = tuple(tuple(r) for r in self.pairing)
        if len(coanchor) != self.chart.dim:
            raise ValidationError("coanchor needs one row per coordinate")
        for row in coanchor:
            if len(row) != self.rank:
                raise ValidationError("coanchor row has wrong length")
        if len(pairing) != self.rank or any(len(row) != self.rank for row in pairing):
            raise ValidationError("pairing must be a square matrix")
        for a, b in combinations(range(self.rank), 2):
            if pairing[a][b] != pairing[b][a]:
                raise ValidationError(f"pairing is not symmetric at ({a},{b})")
        require_chart(self.chart, *coanchor, *pairing)
        object.__setattr__(self, "coanchor", coanchor)
        object.__setattr__(self, "pairing", pairing)

    # -- sections ----------------------------------------------------------

    def coanchor_of(self, alpha: KForm) -> Vec:
        if alpha.degree != 1:
            raise ValidationError("coanchor acts on one-forms")
        return self._coanchor_vec(_form_vec(alpha))

    def coanchor_d(self, p: Poly) -> Vec:
        """c(dp) = sum_j d_j(p) coanchor[j], read from the partials of p
        with no form built: coanchor_of(KForm.from_poly(p).d())."""
        return self._coanchor_vec(tuple(p.diff(j) for j in range(self.chart.dim)))

    def _coanchor_vec(self, alpha: Vec, start: Vec | None = None) -> Vec:
        """start + the coanchor image of the one-form with coefficients alpha."""
        return apply_matrix(self.coanchor, alpha, self.rank, self.chart, start)

    def pairing_of(self, u: Vec, v: Vec) -> Poly:
        return bilinear(u, self.pairing, v, self.chart)

    def _correct(self, u: Vec, v: Vec, total: Vec) -> Vec:
        """total, the anchored-module sum of nonzero sections u and v, plus
        the coanchor term: the Courant bracket (AnchoredModule.bracket)."""
        alpha = pairing_differential(self.pairing, u, v, self.chart)
        return self._coanchor_vec(alpha, total)

    @cached_property
    def pairing_masks(self) -> tuple[int, ...]:
        """One mask per pairing row: bit b of row a set when g_ab is
        nonzero."""
        return tuple(map(mask, self.pairing))

    @cached_property
    def varying_masks(self) -> tuple[int, ...]:
        """The table masks or-ed with the pairing masks, row by row: a left
        section u that is not constant reads both, as its coanchor term
        c(sum_a (sum_b g_ab v_b) du_a) needs a nonzero g_ab with a in supp u
        and b in supp v (Lemma L14), and a constant u has du_a = 0. Through
        these rows AnchoredModule.admitted and bracket_vanishes take the
        coanchor term."""
        return tuple(t | g for t, g in zip(self.table_masks, self.pairing_masks))

    def pairing_entries(
        self,
        xs: Sequence[Vec],
        ys: Sequence[Vec],
        supports: tuple[Sequence[Support], Sequence[Support]] | None = None,
    ) -> Iterator[tuple[tuple[int, int], Poly]]:
        """((i, j), pairing_of(xs[i], ys[j])) on each pair (i, j) that
        pairings allows on pairing_masks, in row order, each pairing made
        when its pair is reached (pruned_entries). supports are those of xs
        and ys, passed by a caller that holds them; None takes each list's
        once here, and one list passed as both xs and ys once."""
        if supports is None:
            sx = [support(x) for x in xs]
            supports = sx, sx if ys is xs else [support(y) for y in ys]
        admitted = pairings(self.pairing_masks, *supports)
        return pruned_entries(admitted, lambda i, j: self.pairing_of(xs[i], ys[j]))

    def pairing_table(
        self,
        xs: Sequence[Vec],
        ys: Sequence[Vec],
        supports: tuple[Sequence[Support], Sequence[Support]] | None = None,
    ) -> dict[tuple[int, int], Poly]:
        """The table of pairing_entries: a missing key is a pairing Lemma
        L14 shows to be zero."""
        return dict(self.pairing_entries(xs, ys, supports))


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


def twist(q: CourantData, h: KForm) -> CourantData:
    """Add the h-term coanchor(i_{anchor b} i_{anchor a} h) to each bracket.

    The added term is function-bilinear, so twisting the structure functions
    twists the bracket of arbitrary sections consistently. The anchor of
    generator a is anchor row a, read once. A zero anchor contracts h to
    zero, so h is contracted only along nonzero anchors, and the term is
    added only to the pairs whose two anchors are both nonzero. The skipped
    contractions need no anchor-row check: q is frozen, its rows checked
    when it was built.
    """
    if h.degree != 3:
        raise ValidationError("the twisting form must be a three-form")
    if h.chart != q.chart:
        raise ChartMismatchError("twisting form on the wrong chart")
    rho = [VField(q.chart, row) for row in q.anchor]
    iotas = [None if v.is_zero else h.iota(v) for v in rho]

    def entry(a: int, b: int) -> Vec:
        if iotas[a] is None or rho[b].is_zero:
            return q.bracket_gen(a, b)
        return vec_add(q.bracket_gen(a, b), q.coanchor_of(iotas[a].iota(rho[b])))

    structure = {(a, b): entry(a, b) for a, b in product(range(q.rank), repeat=2)}
    return CourantData(
        q.chart, q.rank, q.anchor, q.coanchor, q.pairing, structure
    )


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


def generator_defects(q: CourantData) -> tuple[list[list[Poly]], list[VField]]:
    """M[a][j] = <e_a, coanchor[j]> - anchor(e_a)^j and N[j] =
    anchor(coanchor[j]): the eq5 and eq1 defects on generators (L5).

    e_a is paired with coanchor[j] only when row a of the pairing meets the
    row's mask (Lemma L14 on pairings); elsewhere the pairing is zero. The
    skipped pairings need no row check: q is frozen, its rows checked when
    it was built."""
    zero = Poly.zero(q.chart)
    coanchor_masks = [mask(row) for row in q.coanchor]
    M = [
        [
            (q.pairing_of(q.gen(a), row) if row_mask & pairing_mask else zero)
            - q.anchor[a][j]
            for j, (row, row_mask) in enumerate(zip(q.coanchor, coanchor_masks))
        ]
        for a, pairing_mask in enumerate(q.pairing_masks)
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
    generator_defects pairs e_a with coanchor[j] only where row a of the
    pairing meets the row's mask (Lemma L14 on pairings); elsewhere
    <e_a, coanchor[j]> is zero.
    L6: [u, v] + [v, u] - c(d<u, v>) = sum_ab u_a v_b times the (a, b)
    generator defect: the Leibniz terms cancel, and the coanchor terms sum
    to c(d<u, v>) - sum_ab u_a v_b c(dg_ab).
    So the generator defects [e_a, e_b] + [e_b, e_a] - c(dg_ab) decide
    eq6; a pair with no table entry in either order and a constant g_ab is
    skipped, its defect being zero (d kills constants).
    L7: E3(u, v, w) = anchor(u)<v, w> - <[u, v], w> - <v, [u, w]> is linear
    in v and w, and E3(f u, v, w) = f E3(u, v, w) - <u, v> E5(w, df)
    - <u, w> E5(v, df). Past the generator cases, eq3 is decided by the
    probes E3(x_k e_c, e_a, e_b) = -(g_ca M[b][k] + g_cb M[a][k]); they
    are symmetric in a and b, so only nonzero M[b][k] are visited. In
    the generator cases anchor(e_c) acts only on the g_ab that are not
    constant (a derivation kills constants).
    L8: E4(u, alpha) = [u, c alpha] - c(L_{anchor u} alpha) is linear in
    alpha, and E4(f u, alpha) = f E4(u, alpha) - anchor(c alpha)(f) u
    + E5(u, alpha) c(df). Past the generator cases, eq4 is decided by the
    probes E4(x_k e_a, dx_j) = M[a][j] coanchor[k] - N[j]^k e_a; a probe
    with M[a][j] and N[j]^k both zero is skipped, both sides being the
    zero section. Both generator cases read Lemma L14 (algebroids.anchored):
    E3(e_c, e_a, e_b) pairs the table row [e_c, e_a] with e_b only where
    the row's mask meets row b of the pairing (e3_row, which forms only
    the entries where some term may be nonzero), and E4(e_a, dx_j)
    brackets e_a with coanchor[j] only where the generator x coanchor-row
    masks of q.admitted, taken once, admit it (e4_gen); what they skip is
    zero. As L_X dx_j = d(X^j), the
    right side c(L_{anchor e_a} dx_j) of E4(e_a, dx_j) is c(d anchor(e_a)^j),
    which CourantData.coanchor_d reads from the partials of the entry, with
    no form built; it is taken only when anchor row a has an entry that is
    not constant, and is zero otherwise.

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
    so one of those two sections is a counterexample. A(e_a, e_b) is
    computed only on the pairs anchored.anchor_defects keeps: with no table
    entry (a, b), anchor([e_a, e_b]) is zero, and [anchor e_a, anchor e_b]
    is zero when either row is zero or both are constant.
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
    L12' (the second-order probes are implied): take u = e_a, v = e_b and
    w = e_c. E4 and E5 are function-linear in their one-form (L8, L5), so
    of the closed form only -<u, v> [c(df), w] is of order two in f. By
    the left-slot rule of L1, [c(df), e_c] = sum_j (d_j(f) [coanchor[j],
    e_c] - anchor(e_c)(d_j f) coanchor[j] + <coanchor[j], e_c>
    c(d d_j f)); write <coanchor[j], e_c> = M[c][j] + anchor(e_c)^j, and
    the anchor terms cancel on the symmetric d_i d_j f. What is left is
    (1 + delta_kl) D_kl = -g_ab S_c, where S_x = M[x][k] coanchor[l]
    + M[x][l] coanchor[k]. Now let the generator triples, the L10 g_ab N[m]
    cases, the L11 correction and the first-order probes pass. By L10,
    g_ab N[m] = 0 for all a, b, m; Q[x] is a domain, so N = 0 unless g = 0,
    and g = 0 makes every D_kl zero. With N = 0 the L11 correction is
    X(a, b, c, m, k) = g_bc M[a][k] coanchor[m] - (g_ab M[c][m]
    + g_ac M[b][m]) coanchor[k], and X(a, b, c, l, k) + X(a, b, c, k, l) =
    g_bc S_a - g_ab S_c - g_ac S_b. Adding the same sum with a and b
    swapped gives -2 g_ab S_c, so g_ab S_c = 0. Then D is of order one:
    J(x_k x_l e_a, e_b, e_c) = x_l D_k + x_k D_l with D_k =
    J(x_k e_a, e_b, e_c), which the first-order probes showed zero. So the
    probes x_k x_l e_a cannot fail where check_courant would reach them,
    and it never builds them.
    So once eq1, eq3-eq6 and A(e_a, e_b) = 0 hold, J is function-linear in
    every slot and the generator triples decide leibniz_identity. On the
    generator triples, Lemma L14 (algebroids.anchored) skips each bracket
    of J(e_a, e_b, e_c) that the admitted masks rule out, and a triple
    whose three brackets they rule out; the triples keep their order, so
    the first failure is the one the unpruned loop finds.
    Otherwise it goes on through the closed forms of L10 and L11 and then
    the first-order probes x_k e_a of L12, which by L12' decide the u slot,
    and stops at the first failure; each counterexample names sections on
    which J is evaluated directly.
    L15: eq3-eq6 are decided before leibniz_identity; where all pass, J is
    totally skew (algebroids.anchored.jacobi_generator_failures), so the
    generator triples are walked only for a < b < c.

    A skipped term makes none of the chart checks its arithmetic would have
    made, and needs none: q is frozen once validated, so the length and
    chart of every anchor, coanchor and pairing row were checked when it
    was built, and its cached masks cannot go stale."""
    rep = Report()
    chart = q.chart
    coords = chart.coords
    r = q.rank
    n = chart.dim
    g = q.pairing
    gen = [q.gen(a) for a in range(r)]
    M, N = generator_defects(q)
    zero = Poly.zero(chart)
    gen_supports = [support(e) for e in gen]
    coanchor_supports = [support(row) for row in q.coanchor]
    anchor_supports = [support(row) for row in q.anchor]
    g_varies = [[p.as_constant() is None for p in row] for row in g]

    @cache
    def e3_row(c: int) -> list[list[Poly]]:
        """E3(e_c, e_a, e_b) for every (a, b), built on first use. The row
        [e_c, e_a] pairs with e_b only where its mask meets row b of the
        pairing (Lemma L14 on pairings); elsewhere the pairing is zero. The
        anchor of e_c acts only on the g_ab that are not constant, so an
        entry is formed only where g_ab varies or either pairing is taken;
        every other entry is zero."""
        rho = q.anchor_of(gen[c])
        rows = [q.bracket_gen(c, a) for a in range(r)]
        inner = [  # <[e_c, e_a], e_b>, None where Lemma L14 rules it out
            [
                q.pairing_of(row, gen[b]) if row_mask & q.pairing_masks[b] else None
                for b in range(r)
            ]
            for row, row_mask in zip(rows, map(mask, rows))
        ]
        out = [[zero] * r for _ in range(r)]
        for a, b in product(range(r), repeat=2):
            ab, ba = inner[a][b], inner[b][a]
            if g_varies[a][b] or ab is not None or ba is not None:
                out[a][b] = (
                    (rho.apply(g[a][b]) if g_varies[a][b] else zero)
                    - (zero if ab is None else ab)
                    - (zero if ba is None else ba)
                )
        return out

    coanchor_admitted = q.admitted(gen_supports, coanchor_supports)

    @cache
    def e4_gen(a: int, j: int) -> Vec:
        """E4(e_a, dx_j) = [e_a, coanchor[j]] - c(L_{anchor e_a} dx_j), built
        on first use. The bracket is taken only when Lemma L14 admits it
        (bit j of the generator's mask against the coanchor rows), and the
        right side, c(d anchor(e_a)^j), only when anchor row a has an entry
        that is not constant."""
        lhs = (
            q.bracket(
                gen[a],
                q.coanchor[j],
                supports=(gen_supports[a], coanchor_supports[j]),
            )
            if coanchor_admitted[a] >> j & 1
            else q.zero_section()
        )
        if anchor_supports[a].constant:
            return lhs
        return vec_sub(lhs, q.coanchor_d(q.anchor[a][j]))

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
            if M[a][j].is_zero and N[j].comps[k].is_zero:
                continue
            lhs = vec_scale(M[a][j], q.coanchor[k])
            if not linalg.vec_eq(lhs, vec_scale(N[j].comps[k], gen[a])):
                yield f"section {coords[k]}*e{a}, coordinate {coords[j]}"

    def adjunction():
        for a, j in product(range(r), range(n)):
            if not M[a][j].is_zero:
                yield f"generator {a}, coordinate {coords[j]}"

    def symmetrization():
        table = q.table_masks
        for a, b in product(range(r), repeat=2):
            if not (table[a] >> b & 1 or table[b] >> a & 1 or g_varies[a][b]):
                continue
            defect = vec_add(q.bracket_gen(a, b), q.bracket_gen(b, a))
            if g_varies[a][b]:
                defect = vec_sub(defect, q.coanchor_d(g[a][b]))
            if not vec_is_zero(defect):
                yield f"generators ({a},{b})"

    def leibniz_identity():
        yield from jacobi_generator_failures(
            q, skew=all(rep[name].passed for name in TENSORIAL_WHEN[1:])
        )
        e = [probe(q, a) for a in range(r)]
        # L10, the anchor on generators
        for (a, b), defect in anchor_defects(q).items():
            for k, comp in enumerate(defect.comps):
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
        # L12, first-order probes; by L12' the second-order ones pass
        yield from jacobi_left_probe_failures(
            q, (probe(q, a, k) for a, k in product(range(r), range(n)))
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
    handled by the section bracket).

    The matrix needs one row per source generator, each a section of dst
    (ValidationError, ChartMismatchError). The supports of the rows are
    taken once and passed to the pairings and the brackets. The pairings of
    the rows are dst.pairing_entries(matrix, matrix), walked in row order
    as the pairs are checked (every_pair, like the brackets of
    bracket_failures): a pair whose image rows are not paired (Lemma L14,
    algebroids.anchored) pairs to zero without a pairing."""
    rep = Report()
    if src.chart != dst.chart:
        raise ChartMismatchError("morphism checks need a common chart")
    chart = src.chart
    if len(matrix) != src.rank:
        raise ValidationError(
            f"morphism matrix has {len(matrix)} rows, not one per source generator"
        )
    dst.require_rank(*matrix)
    require_chart(chart, *matrix)
    supports = [support(row) for row in matrix]

    def coanchor():
        for j in range(chart.dim):
            got = apply_matrix(matrix, src.coanchor[j], dst.rank, chart)
            if not linalg.vec_eq(got, dst.coanchor[j]):
                yield f"coordinate {chart.coords[j]}"

    def pairing():
        zero = Poly.zero(chart)
        pairs = dst.pairing_entries(matrix, matrix, (supports, supports))
        for a, b, got in every_pair(pairs, src.rank):
            if (zero if got is None else got) != src.pairing[a][b]:
                yield f"generators ({a},{b})"

    rep.check("morphism_anchor", anchor_failures(src, dst, matrix))
    rep.check("morphism_coanchor", coanchor())
    rep.check("morphism_pairing", pairing())
    rep.check("morphism_bracket", bracket_failures(src, dst, matrix, supports))
    return rep


# ---------------------------------------------------------------------------
# Connections and curvature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Connection:
    """An isotropic right inverse of the anchor, one section per coordinate.

    Frozen once validated: every column has the rank's length and lies on
    the chart. Isotropy is checked on the column pairs that are paired
    (Lemma L14, algebroids.anchored, read from the pairings masks of the
    columns); the others pair to zero."""

    courant: CourantData
    columns: tuple[Vec, ...]

    def __post_init__(self):
        columns = tuple(tuple(c) for c in self.columns)
        object.__setattr__(self, "columns", columns)
        q = self.courant
        if len(columns) != q.chart.dim:
            raise ValidationError("connection needs one section per coordinate")
        q.require_rank(*columns)
        require_chart(q.chart, *columns)
        for i, col in enumerate(columns):
            if q.anchor_of(col) != VField.basis(q.chart, i):
                raise ValidationError(
                    f"connection column {i} does not anchor to the "
                    f"coordinate field"
                )
        supports = [support(col) for col in columns]
        admitted = pairings(q.pairing_masks, supports, supports)
        for i in range(q.chart.dim):
            for j in range(i, q.chart.dim):
                if not admitted[i] >> j & 1:
                    continue
                if not q.pairing_of(columns[i], columns[j]).is_zero:
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
    The defects are q.bracket_table(columns) and the components
    q.pairing_table(defects, columns), the column supports taken once for
    both: a pair of columns whose bracket Lemma L14 rules out gets the zero
    section as its defect without a bracket, and a defect and a column that
    are not paired get the chart's zero without a pairing, so both checks
    still read every defect and every component.
    """
    q = conn.courant
    chart = q.chart
    n = chart.dim
    zero = Poly.zero(chart)
    columns = conn.columns
    column_supports = [support(c) for c in columns]
    brackets = q.bracket_table(columns, column_supports)
    zero_section = q.zero_section()
    defects = {key: brackets.get(key, zero_section) for key in product(range(n), repeat=2)}
    rows = list(defects.values())
    pairs = q.pairing_table(rows, columns, ([support(d) for d in rows], column_supports))
    comps = {
        (i, j, k): pairs.get((x, k), zero)
        for x, (i, j) in enumerate(defects)
        for k in range(n)
    }
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


# ---------------------------------------------------------------------------
# Baer-type combinations of exact structures
# ---------------------------------------------------------------------------


class CourantCombination(Presentation):
    """Weighted combination of exact structures: a presentation on one
    section per part, the parts glued along their coanchor lines by the
    weights.

    With n the chart dimension and f the first part of nonzero weight, the
    basis is the diagonal lifts (connections[i].columns[x] on every part i),
    then the coanchor rows of f divided by w_f; the relations are (-w_i/w_f
    coanchor_f[j] on f, coanchor_i[j] on i) for every other part i. The
    reader takes the base b as the anchor of part 0 and, for each part i,
    the line coordinates t_i of section i less its lift of b, read by
    pairing with the connection columns; it returns (b, sum_i w_i t_i) as
    the class and the other parts' t_i as relation coefficients. result
    holds the weighted pairings of the basis and the table of the classes
    of its part by part brackets: generators 0..n-1 are the diagonal
    lifts, n..2n-1 the glued lines. Both tables are built part by part on
    that part's sections of the basis, on the supports the presentation
    holds (Lemma L14): the bracket_table of a part leaves out the pairs
    whose bracket it rules out in that part (their part is the zero
    section), and a basis pair that no part's table holds is not reduced;
    the pairing_table of a part of nonzero weight leaves out the pairs it
    does not pair, and a basis pair that no such table holds pairs to
    zero.
    """

    def __init__(
        self,
        parts: tuple[CourantData, ...],
        weights: tuple[Fraction, ...],
        connections: tuple[Connection, ...],
    ):
        self.parts, self.weights, self.connections = parts, weights, connections
        chart, sizes = parts[0].chart, tuple(q.rank for q in parts)
        n = chart.dim
        first = next(i for i, w in enumerate(weights) if w)
        others = [i for i in range(len(parts)) if i != first]
        zero = tuple(linalg.zero_vec(chart, size) for size in sizes)

        def on(i: int, vec: Vec, element: tuple[Vec, ...] = zero):
            return element[:i] + (vec,) + element[i + 1 :]

        unit = Fraction(1) / weights[first]
        lines = parts[first].coanchor
        basis = [tuple(conn.columns[x] for conn in connections) for x in range(n)]
        basis += [on(first, vec_scale(unit, line)) for line in lines]
        relations = [
            on(i, line, on(first, vec_scale(-weights[i] * unit, lines[j])))
            for i in others
            for j, line in enumerate(parts[i].coanchor)
        ]

        # readers[i], as apply_matrix rows, pairs a section of part i with
        # each of its connection columns.
        readers = [
            linalg.transpose(
                [apply_matrix(q.pairing, col, q.rank, chart) for col in conn.columns]
            )
            for q, conn in zip(parts, connections)
        ]
        scales = [Poly.const(chart, w) for w in weights]

        def read(element: tuple[Vec, ...]) -> tuple[Vec, Vec]:
            base = apply_matrix(parts[0].anchor, element[0], n, chart)
            coords = []
            for rows, conn, u in zip(readers, connections, element):
                rest = vec_sub(u, apply_matrix(conn.columns, base, len(u), chart))
                coords.append(apply_matrix(rows, rest, n, chart))
            glued = apply_matrix(coords, scales, n, chart)
            return base + glued, tuple(p for i in others for p in coords[i])

        super().__init__(chart, sizes, basis, read, relations)

        gens = self.basis
        # sections[i] lists the sections of part i of the basis, and
        # supports[i] their supports, read from the presentation.
        sections = [[element[i] for element in gens] for i in range(len(parts))]
        supports = [[element[i] for element in self.supports] for i in range(len(parts))]
        pairings_by_part = [
            (w, q.pairing_table(s, s, (sup, sup)))
            for q, w, s, sup in zip(parts, weights, sections, supports)
            if w
        ]
        zero_poly = Poly.zero(chart)
        pairing = tuple(
            tuple(
                sum((w * t[(x, y)] for w, t in pairings_by_part if (x, y) in t), zero_poly)
                for y in range(len(gens))
            )
            for x in range(len(gens))
        )

        brackets = [q.bracket_table(s, sup) for q, s, sup in zip(parts, sections, supports)]
        zeros = [q.zero_section() for q in parts]
        structure = {
            key: self.reduce(tuple(t.get(key, z) for t, z in zip(brackets, zeros)))
            for key in sorted(set().union(*brackets))
        }
        anchor, coanchor = _exact_frame(chart)
        self.result = CourantData(
            chart, len(gens), anchor, coanchor, pairing, structure
        )


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
