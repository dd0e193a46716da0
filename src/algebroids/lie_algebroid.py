"""Lie algebroids with polynomial coefficients, and their inverse images.

A Lie algebroid on a chart is described by structure data on a chosen module
basis: an anchor matrix (one tangent vector per generator) and sparse
structure functions for the generator brackets. Brackets of general sections
are produced from that data by the Leibniz rule in both slots:

    [u, v] = sum_ab u_a v_b [e_a, e_b]
           + sum_b anchor(u)(v_b) e_b - sum_a anchor(v)(u_a) e_a.

The anchored-module core (validation, sections, anchor, the table+Leibniz
bracket, the identity checks and the quotient by a constant span) is shared
with CourantData through algebroids.anchored; LieData adds only the
antisymmetric reading of its table.

Inverse images along a chart map are computed on explicit free presentations
of the fiber product  f*A  x_{f*TX}  TY. Four construction modes are
supported (identity, transitive-split, coordinate-embedding,
coordinate-submersion); a map that fits none raises UnsupportedModeError
rather than guessing. Every mode takes the basis and the coordinate reader
of the fibre product from a fibre class of algebroids.anchored as they are:
Embedding, Submersion (identity is the submersion along the identity map),
or Split for the transitive-split mode, whose splitting checks and constant
kernel frame are chosen here (Split reads the frame through a polynomial
left inverse). LiePullback is the anchored.Presentation of those pairs: an
ambient element is a pair (tangent on Y, pulled section over the generators
of A), expand and reduce act on pairs, and anchored.pair_bracket is the
ambient bracket, and result the induced algebroid. The Courant inverse
image uses the same pairs as the (u, eta) half of its triples, and both
reach the functor steps of anchored (comparison, pulled_morphism) through
pull_element. The Baer combination of line extensions is the
anchored.Combination of baer_presentation, as the Courant one is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Sequence

from algebroids import linalg
from algebroids.anchored import (
    AnchoredModule,
    Combination,
    Embedding,
    Presentation,
    Split,
    Submersion,
    anchor_defect,
    anchor_failures,
    antisymmetric_table,
    bracket_failures,
    comparison,
    constant_quotient,
    jacobi_counterexample,
    jacobi_generator_failures,
    pair_bracket,
    probe,
    pulled_entries,
    pulled_morphism,
    resolve_mode,
)
from algebroids.errors import UnsupportedModeError, ValidationError
from algebroids.linalg import (
    Vec,
    apply_matrix,
    fmt_section,
    mat_mul,
    vec_add,
    vec_is_zero,
    vec_sub,
)
from algebroids.report import Report
from algebroids.symcalc import Chart, ChartMap, Poly, VField

MODES = (
    "identity",
    "transitive-split",
    "coordinate-embedding",
    "coordinate-submersion",
)


@dataclass
class LieData(AnchoredModule):
    """Structure data of a Lie algebroid on a free module basis.

    anchor[a] lists the tangent components of the image of generator a;
    structure maps a generator pair (a, b) to the coefficient vector of
    [e_a, e_b]. Missing pairs default to zero, and a pair stored in one
    order is looked up antisymmetrically for the other.
    """

    chart: Chart
    rank: int
    anchor: tuple[Vec, ...]
    structure: dict[tuple[int, int], Vec] = field(default_factory=dict)

    def __post_init__(self):
        self._validate()

    def _entry(self, a: int, b: int) -> Vec | None:
        got = self.structure.get((a, b))
        if got is None:
            got = self.structure.get((b, a))
            if got is not None:
                got = linalg.vec_neg(got)
        return got


def tangent_algebroid(chart: Chart) -> LieData:
    """The tangent Lie algebroid: identity anchor, commuting generators."""
    anchor = tuple(linalg.unit_vec(chart, chart.dim, i) for i in range(chart.dim))
    return LieData(chart, chart.dim, anchor)


def check_lie_algebroid(
    a: LieData, samples: int = 100, seed: int = 0
) -> Report:
    """Verify the Lie algebroid axioms, each decided exactly on generators
    and probe sections x_k*e_a. No verdict draws random sections: samples
    and seed are accepted and unused.

    The Leibniz rule [u, f v] = f [u, v] + anchor(u)(f) v holds for every
    table by construction (lemma L1 in algebroids.anchored), so
    leibniz_rule is recorded as a pass without evaluation. anchor_morphism
    is A(e_i, e_j) = 0 for A(u, v) = anchor([u, v]) - [anchor u, anchor v],
    which is function-linear in both slots here (no coanchor term).
    L13: with S(u, v) = [u, v] + [v, u] = sum_ij u_i v_j S(e_i, e_j), the
    jacobiator J(u, v, w) = [u, [v, w]] - [[u, v], w] - [v, [u, w]] obeys,
    by L1 and [f u, v] = f [u, v] - anchor(v)(f) u,
        J(u, v, f w) = f J - A(u, v)(f) w,
        J(u, f v, w) = f J + A(u, w)(f) v,
        J(f u, v, w) = f J - A(v, w)(f) u + anchor(w)(f) S(u, v).
    So jacobi_identity holds iff the generator triples pass, A(e_i, e_j)
    = 0, and anchor[c][k] S(e_i, e_j) = 0 for all i, j, c, k. Past the
    generator triples, A(e_i, e_j)^k != 0 makes J(e_i, e_j, x_k e_0) =
    -A(e_i, e_j)^k e_0, and then anchor[c][k] S(e_i, e_j) != 0 makes
    J(x_k e_i, e_j, e_c) = anchor[c][k] S(e_i, e_j).
    """
    rep = Report()
    r = a.rank
    anchor_defects = {
        (i, j): anchor_defect(a, i, j) for i, j in product(range(r), repeat=2)
    }
    symmetric = {
        (i, j): vec_add(a.bracket_gen(i, j), a.bracket_gen(j, i))
        for i, j in combinations_with_replacement(range(r), 2)
    }

    def antisymmetry():
        for (i, j), defect in symmetric.items():
            if not vec_is_zero(defect):
                yield f"generators ({i},{j})"

    def anchor_morphism():
        for (i, j), defect in anchor_defects.items():
            if not defect.is_zero:
                yield f"generators ({i},{j}): anchor defect {defect}"

    def jacobi_identity():
        yield from jacobi_generator_failures(a)
        e = [probe(a, i) for i in range(r)]
        for (i, j), defect in anchor_defects.items():
            for k, comp in enumerate(defect.comps):
                if not comp.is_zero:
                    yield jacobi_counterexample(a, (e[i], e[j], probe(a, 0, k)))
        for (i, j), defect in symmetric.items():
            if vec_is_zero(defect):
                continue
            for c, k in product(range(r), range(a.chart.dim)):
                if not a.anchor[c][k].is_zero:
                    yield jacobi_counterexample(a, (probe(a, i, k), e[j], e[c]))

    rep.check("antisymmetry", antisymmetry())
    rep.check("anchor_morphism", anchor_morphism())
    rep.check("jacobi_identity", jacobi_identity())
    rep.add("leibniz_rule", True)
    return rep


# ---------------------------------------------------------------------------
# Markings and O-extensions
# ---------------------------------------------------------------------------


@dataclass
class MarkedLieData:
    """A Lie algebroid together with a distinguished central section.

    The marking generates a trivial line: it must be anchor-free and bracket
    to zero with everything (checked by check_marked).
    """

    lie: LieData
    marking: Vec

    def __post_init__(self):
        self.marking = tuple(self.marking)
        if len(self.marking) != self.lie.rank:
            raise ValidationError("marking has wrong length")


def check_marked(m: MarkedLieData) -> Report:
    """L9: [f u, m] = f [u, m] - anchor(m)(f) u (L1 in algebroids.anchored),
    so the marking m is central iff [e_i, m] = 0 for every generator and
    anchor(m) = 0; past the generator cases, [x_k e_0, m] = -anchor(m)^k e_0
    is the probe case at the first nonzero anchor(m)^k."""
    rep = Report()
    a = m.lie
    rho = a.anchor_of(m.marking)
    rep.add("marking_anchor_free", rho.is_zero, fmt_section(m.marking))

    def central():
        for i in range(a.rank):
            got = a.bracket(a.gen(i), m.marking)
            if not vec_is_zero(got):
                yield f"generator {i}: bracket {fmt_section(got)}"
        for k, comp in enumerate(rho.comps):
            if not comp.is_zero:
                yield f"section {a.chart.coords[k]}*e0"

    rep.check("marking_central", central())
    return rep


@dataclass
class OExtensionData:
    """An extension of a Lie algebroid by a trivial line.

    total.marking spans the kernel of the projection; splitting is a module
    right inverse of the projection (one total-section per base generator).
    """

    total: MarkedLieData
    base: LieData
    projection: tuple[Vec, ...]  # image of each total generator in the base
    splitting: tuple[Vec, ...]  # lift of each base generator

    def __post_init__(self):
        self.projection = tuple(tuple(v) for v in self.projection)
        self.splitting = tuple(tuple(v) for v in self.splitting)
        if len(self.projection) != self.total.lie.rank:
            raise ValidationError("projection needs one row per total generator")
        if len(self.splitting) != self.base.rank:
            raise ValidationError("splitting needs one row per base generator")

    def project(self, u: Vec) -> Vec:
        return apply_matrix(self.projection, u, self.base.rank, self.base.chart)

    def lift(self, v: Vec) -> Vec:
        total = self.total.lie
        return apply_matrix(self.splitting, v, total.rank, total.chart)


def check_extension(ext: OExtensionData) -> Report:
    rep = Report()
    total, base = ext.total.lie, ext.base
    rep.merge(check_marked(ext.total))

    ok = all(
        linalg.vec_eq(ext.project(ext.lift(base.gen(b))), base.gen(b))
        for b in range(base.rank)
    )
    rep.add("splitting_section", ok)

    ok = vec_is_zero(ext.project(ext.total.marking))
    rep.add("marking_in_kernel", ok)

    rep.check("projection_anchor", anchor_failures(total, base, ext.projection))
    rep.check("projection_bracket", bracket_failures(total, base, ext.projection))

    # Kernel of the projection is exactly the marking line (generic rank).
    mat = [list(row) for row in ext.projection]
    expected = total.rank - 1
    ok = linalg.poly_rows_rank(mat) == expected
    rep.add("kernel_is_marking_line", ok and not vec_is_zero(ext.total.marking))
    return rep


def quotient_by_marking(m: MarkedLieData) -> tuple[LieData, tuple[Vec, ...]]:
    """Quotient a marked algebroid by its marking line.

    Requires the marking to have constant coordinates so a constant
    complement basis can be selected. Returns the quotient algebroid and
    the projection (image of each original generator).
    """
    got = constant_quotient(m.lie, [_constant_marking(m)])
    if got is None:
        raise ValidationError("marking line has no constant complement")
    anchor, structure, projection = got
    return LieData(m.lie.chart, len(anchor), anchor, structure), projection


def trivial_extension(base: LieData) -> OExtensionData:
    """base + a central line with zero bracket against everything."""
    zero = Poly.zero(base.chart)
    structure = {key: tuple(vec) + (zero,) for key, vec in base.structure.items()}
    return _line_extension(base, structure)


def _line_extension(base: LieData, structure: dict) -> OExtensionData:
    """base + a line on one more generator, marked by it: the total has the
    anchor of base, no anchor on the line and the given table; projection
    and splitting are the identity on the generators of base."""
    chart, r = base.chart, base.rank
    anchor = tuple(base.anchor) + (linalg.zero_vec(chart, chart.dim),)
    total = LieData(chart, r + 1, anchor, structure)
    marking = linalg.unit_vec(chart, r + 1, r)
    projection = tuple(linalg.unit_vec(chart, r, a) for a in range(r)) + (
        linalg.zero_vec(chart, r),
    )
    splitting = tuple(linalg.unit_vec(chart, r + 1, a) for a in range(r))
    return OExtensionData(
        MarkedLieData(total, marking), base, projection, splitting
    )


def baer_combination(
    extensions: Sequence[OExtensionData], weights: Sequence
) -> OExtensionData:
    """Weighted Baer combination of line extensions of one base algebroid.

    The underlying module is the fiber product of the totals over the base,
    with the kernel lines glued by the weights: tuples of fiber offsets
    (t_1, ..., t_m) collapse to the single invariant sum_i w_i t_i, the
    anchored.Combination of baer_presentation. Brackets are computed
    componentwise on its base lifts and read back by its reduce; since the
    markings are central, dropping the fiber coordinate in the lift does not
    affect the result. All-zero weights produce the trivial extension.
    """
    if not extensions:
        raise ValidationError("need at least one extension")
    base = extensions[0].base
    weights = [Fraction(w) for w in weights]
    if len(weights) != len(extensions):
        raise ValidationError("need one weight per extension")
    if any(e.base != base for e in extensions):
        raise ValidationError("extensions must share the base algebroid")

    if not any(weights):
        return trivial_extension(base)

    comb = baer_presentation(extensions, weights)
    structure = {
        (x, y): comb.basis_bracket(x, y)
        for x, y in combinations_with_replacement(range(base.rank), 2)
    }
    return _line_extension(base, structure)


def baer_presentation(
    extensions: Sequence[OExtensionData], weights: Sequence[Fraction]
) -> Combination:
    """The fibre product of the totals over the base, with the marking
    lines glued by the weights (not all zero): each extension lifts the
    base through its splitting and reads its marking line through
    _marking_row, and the projection of the first reads the base."""
    return Combination(
        [e.total.lie for e in extensions],
        weights,
        [e.splitting for e in extensions],
        [(e.total.marking,) for e in extensions],
        [tuple((p,) for p in _marking_row(e)) for e in extensions],
        extensions[0].projection,
    )


# ---------------------------------------------------------------------------
# Inverse images
# ---------------------------------------------------------------------------


class LiePullback(Presentation):
    """Inverse image of a Lie algebroid along a chart map.

    Ambient elements are the (tangent on the source chart of map, pulled
    section) pairs of the fibre class, and basis is the fibre class's
    basis; the reader is its coords. result is the induced structure on
    that basis: the anchor of a basis pair is its tangent, and each table
    entry is the reduced pair_bracket of two basis pairs.
    """

    def __init__(
        self,
        f: ChartMap,
        source: LieData,
        mode: str,
        fibre: Embedding | Submersion | Split,
    ):
        super().__init__(
            f.source,
            (f.source.dim, source.rank),
            fibre.basis,
            lambda pair: (fibre.coords(*pair), ()),
        )
        self.map, self.mode, self.source = f, mode, source
        chart, basis = self.chart, self.basis
        pulled = pulled_entries(f, source._entry)

        def bracket(x: int, y: int) -> Vec:
            got = pair_bracket(chart, source.rank, pulled, basis[x], basis[y])
            return self.reduce(got)

        # A pair that does not reduce antisymmetrically means the source data
        # was not antisymmetric to begin with.
        structure = antisymmetric_table(
            len(basis),
            bracket,
            "pullback bracket is not antisymmetric; source structure functions "
            "are inconsistent",
        )
        anchor = tuple(tangent for tangent, _ in basis)
        self.result = LieData(chart, len(basis), anchor, structure)

    def pull_element(self, pair: tuple[Vec, Vec]) -> tuple[Vec, Vec]:
        """(0, map* section): a pair on the target chart of map pulled along it."""
        chart = self.chart
        return linalg.zero_vec(chart, chart.dim), tuple(map(self.map.pull, pair[1]))


def pullback_lie(
    f: ChartMap,
    a: LieData,
    mode: str | None = None,
    splitting: Sequence[Vec] | None = None,
) -> LiePullback:
    """Inverse image f+A with an explicit free presentation.

    mode is one of MODES or None for structural auto-detection. The
    transitive-split mode needs `splitting`: a module right inverse of the
    anchor, one section per source-chart coordinate. Every mode presents
    the fibre-product pairs of algebroids.anchored as they are; identity is
    the submersion along the identity map.
    """
    mode = resolve_mode(f, a.chart, mode, MODES)
    if mode == "transitive-split":
        if splitting is None:
            raise ValidationError("transitive-split mode requires a splitting")
        fibre = _transitive_split(f, a, tuple(tuple(v) for v in splitting))
    elif mode == "coordinate-embedding":
        fibre = Embedding(f, a.anchor)
    else:
        fibre = Submersion(f, a.anchor)
    return LiePullback(f, a, mode, fibre)


def _transitive_split(f: ChartMap, a: LieData, splitting: tuple[Vec, ...]) -> Split:
    """The fibre product along f through the splitting s of the anchor rho,
    with a constant frame of ker rho chosen from the kernel sections
    kappa_a = e_a - s(rho e_a).

    Lemma: every kappa is in the polynomial span of the frame, so none needs
    a membership test. The columns are checked to give rho s = id exactly,
    so rho is onto over Q(x) and ker rho has rank r - n there. The r - n
    selected constant kappas are independent over Q, hence over Q(x), so
    they are a basis of ker rho over Q(x): kappa = frame.a for some a over
    Q(x). Split reads the frame through a polynomial left inverse L (L
    frame = I), so a = L kappa is polynomial. A constant frame of full rank
    always has one. Presentation.reduce still checks every reduction by
    rebuilding its input.
    """
    chart_x = a.chart
    if len(splitting) != chart_x.dim:
        raise ValidationError("splitting needs one section per target coordinate")
    for j, col in enumerate(splitting):
        if len(col) != a.rank:
            raise ValidationError(
                f"splitting column {j} has {len(col)} entries, not the rank {a.rank}"
            )
        if a.anchor_of(col) != VField.basis(chart_x, j):
            raise ValidationError(
                f"splitting column {j} is not a right inverse of the anchor"
            )
    # An independent subset of the constant kernel sections.
    candidates: list[list[Fraction]] = []
    for i in range(a.rank):
        kappa = vec_sub(a.gen(i), apply_matrix(splitting, a.anchor[i], a.rank, chart_x))
        consts = [p.as_constant() for p in kappa]
        if None not in consts:
            candidates.append([Fraction(c) for c in consts])
    selected = [candidates[i] for i in linalg.independent_rows(candidates)]
    if len(selected) != a.rank - chart_x.dim:
        raise UnsupportedModeError(
            "splitting kernel is not generated by constant sections"
        )
    frame = [tuple(Poly.const(chart_x, c) for c in row) for row in selected]
    return Split(f, splitting, a.rank, frame, f.jacobian())


def canonical_splitting(pb: LiePullback) -> tuple[Vec, ...]:
    """Splitting of the pullback anchor in the transitive-split mode, whose
    basis starts with the lifts of the source coordinate fields;
    UnsupportedModeError in any other mode."""
    if pb.mode != "transitive-split":
        raise UnsupportedModeError(f"no canonical splitting in mode {pb.mode!r}")
    rank = pb.result.rank
    return tuple(linalg.unit_vec(pb.chart, rank, i) for i in range(pb.chart.dim))


def check_compose_associative(
    a: LieData,
    maps: Sequence[ChartMap],
    splitting: Sequence[Vec],
) -> Report:
    """Both composition routes through a three-map chain agree on sections.

    maps = (phi, psi, xi) with phi: Y -> X, psi: Z -> Y, xi: W -> Z and the
    algebroid on X; all pullbacks use the transitive-split mode seeded by
    `splitting` on X and the canonical splittings upstairs.

    Lemma L2: both routes are function-linear in the section e. Each
    composes expand, a generator matrix applied by apply_matrix, and
    Presentation.reduce, which is a function-linear reader followed by an
    exact reconstruction; the sections that reconstruct form a submodule.
    So the routes agree on every section exactly when they agree on the
    unit sections of the presentation over W, and a reduction that raises
    on some section raises on some unit section. So
    composition_associative compares two products of generator matrices
    row by row: xi+ of the comparison of (phi, psi) then that of
    (phi psi, xi), against the comparison of (psi, xi) then (phi, psi xi).
    """
    phi, psi, xi = maps
    rep = Report()

    p_phi = pullback_lie(phi, a, "transitive-split", splitting)
    s_phi = canonical_splitting(p_phi)
    p_psi = pullback_lie(psi, p_phi.result, "transitive-split", s_phi)
    s_psi = canonical_splitting(p_psi)
    p_xi = pullback_lie(xi, p_psi.result, "transitive-split", s_psi)

    phi_psi = phi.compose(psi)
    p_phi_psi = pullback_lie(phi_psi, a, "transitive-split", splitting)
    s_phi_psi = canonical_splitting(p_phi_psi)
    p_xi_of_composite = pullback_lie(
        xi, p_phi_psi.result, "transitive-split", s_phi_psi
    )
    psi_xi = psi.compose(xi)
    p_psi_xi = pullback_lie(psi_xi, p_phi.result, "transitive-split", s_phi)
    full = phi.compose(psi_xi)
    p_full = pullback_lie(full, a, "transitive-split", splitting)

    cmatrix = comparison(p_psi, p_phi, p_phi_psi)
    route1 = mat_mul(
        pulled_morphism(p_xi, p_xi_of_composite, cmatrix),
        comparison(p_xi_of_composite, p_phi_psi, p_full),
        xi.source,
    )
    route2 = mat_mul(
        comparison(p_xi, p_psi, p_psi_xi),
        comparison(p_psi_xi, p_phi, p_full),
        xi.source,
    )

    def associative():
        for g, (r1, r2) in enumerate(zip(route1, route2)):
            if not linalg.vec_eq(r1, r2):
                yield f"generator {g}: {fmt_section(r1)} vs {fmt_section(r2)}"

    # The comparison morphism must preserve anchors and brackets.
    middle, composite = p_psi.result, p_phi_psi.result

    rep.check("composition_associative", associative())
    anchors = anchor_failures(middle, composite, cmatrix)
    rep.check("comparison_anchor", (f"{bad}: anchor mismatch" for bad in anchors))
    rep.check("comparison_bracket", bracket_failures(middle, composite, cmatrix))
    return rep


# ---------------------------------------------------------------------------
# Marked pullbacks and extension linearity
# ---------------------------------------------------------------------------


@dataclass
class MarkedLiePullback:
    pullback: LiePullback
    marked: MarkedLieData


def pullback_marked(
    f: ChartMap,
    m: MarkedLieData,
    mode: str | None = None,
    splitting: Sequence[Vec] | None = None,
) -> MarkedLiePullback:
    pb = pullback_lie(f, m.lie, mode, splitting)
    marking = pb.reduce(pb.on_section(tuple(f.pull(p) for p in m.marking)))
    return MarkedLiePullback(pb, MarkedLieData(pb.result, marking))


def extension_pullback(
    f: ChartMap,
    ext: OExtensionData,
    base_pb: LiePullback,
    base_splitting: Sequence[Vec],
) -> tuple[OExtensionData, MarkedLiePullback]:
    """Pull a line extension back along f, over a given base presentation.

    base_splitting splits the anchor of ext.base (section per target
    coordinate); the total is pulled in transitive-split mode through the
    composite lift, and projection and splitting are pushed through
    pulled_morphism, so base_pb must be along f too.
    """
    total_split = tuple(ext.lift(col) for col in base_splitting)
    mpb = pullback_marked(f, ext.total, "transitive-split", total_split)
    projection = pulled_morphism(mpb.pullback, base_pb, ext.projection)
    splitting = pulled_morphism(base_pb, mpb.pullback, ext.splitting)
    out = OExtensionData(mpb.marked, base_pb.result, projection, splitting)
    return out, mpb


def _extension_cocycle(ext: OExtensionData) -> dict:
    """gamma(k,l) = fiber part of [s b_k, s b_l] - s [b_k, b_l], read by the
    one-summand baer_presentation of ext; ValidationError when a defect is
    off the marking line."""
    base, total = ext.base, ext.total.lie
    comb = baer_presentation([ext], [Fraction(1)])
    out = {}
    for k, l in product(range(base.rank), repeat=2):
        defect = vec_sub(
            total.bracket(ext.lift(base.gen(k)), ext.lift(base.gen(l))),
            ext.lift(base.bracket_gen(k, l)),
        )
        cls = comb.reduce((defect,))
        if not vec_is_zero(cls[:-1]):
            raise ValidationError("vector is not on the marking line")
        out[(k, l)] = cls[-1]
    return out


def _constant_marking(m: MarkedLieData) -> list[Fraction]:
    const = [p.as_constant() for p in m.marking]
    if any(c is None for c in const) or not any(const):
        raise ValidationError("marking must be a nonzero constant vector")
    return const


def _marking_row(ext: OExtensionData) -> Vec:
    """A row L with L.marking = 1, from the polynomial left inverse of the
    marking column. Needs a nonzero constant marking."""
    chart = ext.total.lie.chart
    column = [[Poly.const(chart, c)] for c in _constant_marking(ext.total)]
    lin = linalg.left_inverse(column)
    if lin is None:
        raise ValidationError("marking line admits no polynomial retraction")
    return lin[0]


def solve_coboundary(
    anchors: Sequence[VField], target: dict, chart: Chart, degree_bound: int
) -> list[Poly] | None:
    """Polynomial t with anchors[k](t_l) - anchors[l](t_k) = target[(k,l)].

    Coefficient-matching linear solve up to the degree bound; None when no
    solution exists within the bound.
    """
    n = len(anchors)
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    zero = Poly.zero(chart)

    def image(j: int, mono) -> Vec:
        x = Poly(chart, {mono: 1})
        return tuple(
            anchors[k].apply(x) if l == j else -anchors[l].apply(x) if k == j else zero
            for k, l in pairs
        )

    goal = tuple(target.get(pair, zero) for pair in pairs)
    return linalg.solve_bounded_degree(n, image, goal, chart, degree_bound)


def check_extension_pullback_linear(
    f: ChartMap,
    extensions: Sequence[OExtensionData],
    weights: Sequence,
    base_splitting: Sequence[Vec],
) -> Report:
    """Pulling back a Baer combination agrees with combining the pullbacks.

    Both routes are built as line extensions of the pulled-back base on the
    same presentation; the comparison solves for an isomorphism fixing base
    and marking (identity first, then a polynomial fiber shift).
    """
    rep = Report()
    base = extensions[0].base
    base_pb = pullback_lie(f, base, "transitive-split", base_splitting)

    comb_x = baer_combination(extensions, weights)
    lhs, _ = extension_pullback(f, comb_x, base_pb, base_splitting)

    pulled = [
        extension_pullback(f, e, base_pb, base_splitting)[0] for e in extensions
    ]
    rhs = baer_combination(pulled, weights)

    rep.add(
        "base_ranks_match",
        lhs.base.rank == rhs.base.rank
        and lhs.total.lie.rank == rhs.total.lie.rank,
    )

    gamma_l, gamma_r = _extension_cocycle(lhs), _extension_cocycle(rhs)
    diff = {
        key: gamma_l[key] - gamma_r[key] for key in gamma_l
    }
    if all(p.is_zero for p in diff.values()):
        rep.add("cocycles_match", True)
        rep.add("isomorphism_found", True)
        return rep
    rep.add("cocycles_match", False, "resolved by a fiber shift below")
    anchors = [
        base_pb.result.anchor_of(base_pb.result.gen(k))
        for k in range(base_pb.result.rank)
    ]
    bound = max(p.degree() for p in diff.values() if not p.is_zero) + 2
    t = solve_coboundary(anchors, diff, f.source, bound)
    rep.add(
        "isomorphism_found",
        t is not None,
        None
        if t is not None
        else f"no polynomial fiber shift up to degree {bound}",
    )
    return rep
