"""Lie algebroids with polynomial coefficients, and their inverse images.

A Lie algebroid on a chart is described by structure data on a chosen module
basis: an anchor matrix (one tangent vector per generator) and sparse
structure functions for the generator brackets. Brackets of general sections
are produced from that data by the Leibniz rule in both slots:

    [u, v] = sum_ab u_a v_b [e_a, e_b]
           + sum_b anchor(u)(v_b) e_b - sum_a anchor(v)(u_a) e_a.

The anchored-module core (validation, sections, anchor, the table+Leibniz
bracket and the identity checks) is shared with CourantData through
algebroids.anchored; LieData adds only the antisymmetric reading of its
table.

Inverse images along a chart map are computed on an explicit free
presentation of the fiber product  f*A  x_{f*TX}  TY, in the one mode a verb
runs, transitive-split: pullback_lie chooses the splitting checks and the
constant kernel frame here, and takes the basis and the coordinate reader
from the Split fibre class of algebroids.anchored as they are (Split reads
the frame through a polynomial left inverse). LiePullback is the
anchored.Presentation of those pairs: an ambient element is a pair (tangent
on Y, pulled section over the generators of A), its basis and reduce act
on pairs, and anchored.pair_bracket is the ambient bracket, and result the
induced algebroid. The Courant inverse image (algebroids.pullback) uses the
same pairs as the (u, eta) half of its triples, and reads the Embedding and
Submersion fibre classes in its other modes; both reach the functor steps
of anchored (comparison, pulled_morphism) through pull_element, and
check_compose_associative runs the one chain check of anchored,
check_chain_associative, on Lie inverse images. trivial_extension builds
the line extension of an algebroid by a central line, the input of the
assoc-c-plus chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Mapping, Sequence

from algebroids import linalg
from algebroids.anchored import (
    AnchoredModule,
    Columns,
    Presentation,
    Split,
    anchor_defects,
    anchor_failures,
    antisymmetric_table,
    bracket_failures,
    check_chain_associative,
    jacobi_counterexample,
    jacobi_generator_failures,
    pair_admitted,
    pair_bracket,
    probe,
    pruned_table,
    pulled_entries,
    require_chart,
)
from algebroids.errors import ChartMismatchError, UnsupportedModeError, ValidationError
from algebroids.linalg import (
    Vec,
    apply_matrix,
    vec_add,
    vec_is_zero,
    vec_sub,
)
from algebroids.report import Report
from algebroids.symcalc import Chart, ChartMap, Poly, VField

@dataclass(frozen=True)
class LieData(AnchoredModule):
    """Structure data of a Lie algebroid on a free module basis.

    anchor[a] lists the tangent components of the image of generator a;
    structure maps a generator pair (a, b) to the coefficient vector of
    [e_a, e_b]. Missing pairs default to zero, and a pair stored in one
    order is looked up antisymmetrically for the other. Frozen once
    validated, as AnchoredModule says: build a mutant with
    dataclasses.replace.
    """

    chart: Chart
    rank: int
    anchor: tuple[Vec, ...]
    structure: Mapping[tuple[int, int], Vec] = field(default_factory=dict)

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
    A(e_i, e_j) is computed only on the pairs anchored.anchor_defects keeps:
    with no table entry and an anchor row zero or both rows constant, A is
    zero (a derivation kills constants).
    L15: S(u, v) is function-bilinear, so once antisymmetry passes the
    bracket is skew on all sections, J is totally skew and the generator
    triples are walked only for a < b < c.
    """
    rep = Report()
    r = a.rank
    defects = anchor_defects(a)
    symmetric = {
        (i, j): vec_add(a.bracket_gen(i, j), a.bracket_gen(j, i))
        for i, j in combinations_with_replacement(range(r), 2)
    }

    def antisymmetry():
        for (i, j), defect in symmetric.items():
            if not vec_is_zero(defect):
                yield f"generators ({i},{j})"

    def anchor_morphism():
        for (i, j), defect in defects.items():
            if not defect.is_zero:
                yield f"generators ({i},{j}): anchor defect {defect}"

    def jacobi_identity():
        yield from jacobi_generator_failures(a, skew=rep["antisymmetry"].passed)
        e = [probe(a, i) for i in range(r)]
        for (i, j), defect in defects.items():
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
# The trivial line extension
# ---------------------------------------------------------------------------


@dataclass
class MarkedLieData:
    """A Lie algebroid together with a distinguished section that generates
    a trivial line: anchor-free, and bracketing to zero with everything."""

    lie: LieData
    marking: Vec

    def __post_init__(self):
        self.marking = tuple(self.marking)
        if len(self.marking) != self.lie.rank:
            raise ValidationError("marking has wrong length")


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


# Product callers: perfbench/workloads.py and the assoc-c-plus spec builders.
def trivial_extension(base: LieData) -> OExtensionData:
    """base + a central line on one more generator, marked by it: the total
    has the anchor and table of base, no anchor on the line and zero
    brackets against it; projection and splitting are the identity on the
    generators of base."""
    chart, r = base.chart, base.rank
    zero = Poly.zero(chart)
    structure = {key: tuple(vec) + (zero,) for key, vec in base.structure.items()}
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


# ---------------------------------------------------------------------------
# Inverse images
# ---------------------------------------------------------------------------


class LiePullback(Presentation):
    """Inverse image of a Lie algebroid along a chart map.

    Ambient elements are the (tangent on the source chart of map, pulled
    section) pairs of the Split fibre class, and basis is its basis; the
    reader is its coords. result is the induced structure on that basis:
    the anchor of a basis pair is its tangent, and each table entry is the
    reduced pair_bracket of two basis pairs, computed by pruned_table only
    when Lemma L14 admits the pair: the pair_admitted masks of the basis
    supports, taken once for the table.
    """

    def __init__(self, f: ChartMap, source: LieData, fibre: Split):
        super().__init__(
            f.source,
            (f.source.dim, source.rank),
            fibre.basis,
            lambda pair: (fibre.coords(*pair), ()),
        )
        self.map, self.source = f, source
        chart, basis, supports = self.chart, self.basis, self.supports
        pulled = pulled_entries(f, source._entry)
        tangents, sections = (Columns([s[k] for s in supports]) for k in range(2))
        table = pruned_table(
            pair_admitted(source.table_masks, supports, tangents, sections),
            lambda x, y: self.reduce(
                pair_bracket(
                    chart,
                    source.rank,
                    pulled,
                    basis[x],
                    basis[y],
                    (supports[x], supports[y]),
                )
            ),
        )
        zero = linalg.zero_vec(chart, len(basis))
        # A pair that does not reduce antisymmetrically means the source data
        # was not antisymmetric to begin with.
        structure = antisymmetric_table(
            len(basis),
            lambda x, y: table.get((x, y), zero),
            "pullback bracket is not antisymmetric; source structure functions "
            "are inconsistent",
        )
        anchor = tuple(tangent for tangent, _ in basis)
        self.result = LieData(chart, len(basis), anchor, structure)

    def pull_element(self, pair: tuple[Vec, Vec]) -> tuple[Vec, Vec]:
        """(0, map* section): a pair on the target chart of map pulled along it."""
        chart = self.chart
        return linalg.zero_vec(chart, chart.dim), self.map.pull_vec(pair[1])


def pullback_lie(f: ChartMap, a: LieData, splitting: Sequence[Vec]) -> LiePullback:
    """Inverse image f+A with an explicit free presentation, in the
    transitive-split mode: `splitting` is a module right inverse of the
    anchor, one section per coordinate of the chart of a."""
    if f.target != a.chart:
        raise ChartMismatchError("map target is not the chart of the structure")
    splitting = tuple(tuple(v) for v in splitting)
    return LiePullback(f, a, _transitive_split(f, a, splitting))


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
    """Splitting of the pullback anchor: the basis of every LiePullback
    starts with the lifts of the source coordinate fields."""
    rank = pb.result.rank
    return tuple(linalg.unit_vec(pb.chart, rank, i) for i in range(pb.chart.dim))


def _comparison_checks(middle: LieData, composite: LieData, matrix: list[Vec]) -> Report:
    """The comparison morphism preserves anchors and brackets. Its rows are
    checked once, for the rank and chart of composite, before either check:
    bracket_failures does not check them."""
    composite.require_rank(*matrix)
    require_chart(composite.chart, *matrix)
    rep = Report()
    anchors = anchor_failures(middle, composite, matrix)
    rep.check("comparison_anchor", (f"{bad}: anchor mismatch" for bad in anchors))
    rep.check("comparison_bracket", bracket_failures(middle, composite, matrix))
    return rep


def check_compose_associative(
    a: LieData,
    maps: Sequence[ChartMap],
    splitting: Sequence[Vec],
) -> Report:
    """anchored.check_chain_associative on the Lie inverse images: maps =
    (phi, psi, xi) with the algebroid on the target of phi, the pullbacks
    split by `splitting` on X and by the canonical splittings upstairs."""
    return check_chain_associative(
        pullback_lie,
        lambda pb, _: canonical_splitting(pb),
        a,
        splitting,
        maps,
        _comparison_checks,
    )
