"""Dirac structures: isotropic involutive subbundles, possibly supported on
a coordinate subspace.

A Dirac datum lists generators over the functions of the support locus,
where the support coordinates vanish. support_inclusion is the inclusion
of that locus, a chart of the other coordinates, into the chart: a
polynomial restricts to the locus by pulling along it, and lifts back by
pulling along the coordinate retraction. check_dirac verifies isotropy,
maximality, tangency of the anchor images to the support, and bracket
closure. Lemma L14 (algebroids.anchored) skips the pairs it shows to be
zero: the closure brackets are CourantData.bracket_table of the lifts, and
isotropy, on the pairs i <= j, reads its own masks of the restricted
pairing. Closure uses one of two routes:

* with a nondegenerate restricted pairing ("full" mode) the defect brackets
  only need to be orthogonal to the generators, since a maximal isotropic
  is its own orthogonal complement;
* otherwise ("rank-only") membership of the defects in the generator span
  is solved degree-bounded, and a failure reports the bound that was tried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement, product

from algebroids import linalg
from algebroids.anchored import mask, pairings, support
from algebroids.courant import CourantData
from algebroids.errors import ValidationError
from algebroids.linalg import Vec, fmt_section, vec_is_zero
from algebroids.report import Report
from algebroids.symcalc import Chart, ChartMap, Poly


def support_inclusion(chart: Chart, support: tuple[str, ...]) -> ChartMap:
    """The inclusion of the locus where the support coordinates vanish.

    Its source is the chart of the other coordinates, named after the
    sorted support (X|x3 for support x3 of X); an empty support gives the
    identity of chart. Every support name must be a coordinate of chart,
    named once.
    """
    for i, name in enumerate(support):
        if name not in chart.coords:
            raise ValidationError(f"{name!r} is not a coordinate of {chart.name}")
        if name in support[:i]:
            raise ValidationError(f"support names {name!r} twice")
    if not support:
        return ChartMap.identity(chart)
    kept = tuple(c for c in chart.coords if c not in support)
    sub = Chart(f"{chart.name}|{','.join(sorted(support))}", kept)
    comps = (Poly.zero(sub) if c in support else Poly.coord(sub, c) for c in chart.coords)
    return ChartMap(sub, chart, tuple(comps))


@dataclass(frozen=True)
class DiracData:
    """Generators of a candidate Dirac structure.

    support names the coordinates that cut out the locus (empty tuple:
    everything); inclusion is the locus's support_inclusion, and generator
    entries are polynomials on its source chart. Frozen once validated:
    every generator has the rank's length and lies on the locus chart, so
    its lifts are sections of the structure; build a mutant with
    dataclasses.replace.
    """

    courant: CourantData
    generators: tuple[Vec, ...]
    support: tuple[str, ...] = ()
    inclusion: ChartMap = field(init=False)

    def __post_init__(self):
        support = tuple(self.support)
        inclusion = support_inclusion(self.courant.chart, support)
        generators = tuple(tuple(g) for g in self.generators)
        for g in generators:
            if len(g) != self.courant.rank:
                raise ValidationError("generator has wrong length")
            if any(p.chart != inclusion.source for p in g):
                raise ValidationError("generator entries must live on the restricted chart")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "inclusion", inclusion)
        object.__setattr__(self, "generators", generators)

    @cached_property
    def _retraction(self) -> ChartMap:
        """The coordinate projection onto the locus, a left inverse of the
        inclusion."""
        chart, sub = self.courant.chart, self.inclusion.source
        return ChartMap(chart, sub, tuple(Poly.coord(chart, c) for c in sub.coords))

    def lift_generator(self, idx: int) -> Vec:
        """Canonical lift of generator idx: its locus polynomials read on
        the full chart."""
        return self._retraction.pull_vec(self.generators[idx])

    def restricted_pairing(self) -> list[Vec]:
        """The pairing matrix on the locus, one restricted row per row."""
        return list(map(self.inclusion.pull_vec, self.courant.pairing))

    def pair_restricted(self, u: Vec, v: Vec, g: list[Vec]) -> Poly:
        """<u, v> on the locus, g being restricted_pairing()."""
        return linalg.bilinear(u, g, v, self.inclusion.source)


def check_dirac(d: DiracData, maximality: str = "full") -> Report:
    """Isotropy, maximality, anchor tangency, and closure.

    maximality="full" requires the restricted pairing to be nondegenerate
    at the generic point and uses the orthogonality route for closure;
    "rank-only" drops that requirement and falls back to degree-bounded
    span membership for the closure check.

    Lemma L14 (algebroids.anchored) prunes both pair loops: isotropy, on
    the pairs i <= j, skips generator pairs that the restricted pairing
    does not pair (anchored.pairings on its own masks), and closure reads
    q.bracket_table of the lifts, taking the zero defect for a lifted pair
    the table leaves out, and pairs no zero defect. The skipped brackets
    need no check of the lifts: d and its structure are frozen once
    validated, so the lifts of its generators are sections of the
    structure.
    """
    if maximality not in ("full", "rank-only"):
        raise ValidationError(f"unknown maximality mode {maximality!r}")
    rep = Report()
    q = d.courant
    sub = d.inclusion.source
    g = d.restricted_pairing()
    m = len(d.generators)

    g_masks = tuple(map(mask, g))
    supports = [support(gen) for gen in d.generators]

    def isotropy():
        admitted = pairings(g_masks, supports, supports)
        for i, j in combinations_with_replacement(range(m), 2):
            if not admitted[i] >> j & 1:
                continue
            got = d.pair_restricted(d.generators[i], d.generators[j], g)
            if not got.is_zero:
                yield f"generators ({i},{j}): pairing {got}"

    def maximality_failures():
        if q.rank % 2 or m != q.rank // 2:
            yield f"{m} generators for rank {q.rank}"
        elif linalg.poly_rows_rank(d.generators) != m:
            yield "generators are generically dependent"
        elif maximality == "full" and linalg.poly_rows_rank(g) != q.rank:
            yield "restricted pairing is degenerate; use rank-only mode"

    def anchor_tangency():
        support_idx = [q.chart.index(name) for name in d.support]
        # The j-th anchor component of every generator of the module.
        columns = {
            j: d.inclusion.pull_vec([row[j] for row in q.anchor]) for j in support_idx
        }
        for i, j in product(range(m), support_idx):
            acc = linalg.dot(d.generators[i], columns[j], sub)
            if not acc.is_zero:
                yield (
                    f"generator {i} anchors across {q.chart.coords[j]}: "
                    f"{acc}"
                )

    def closure():
        brackets = q.bracket_table([d.lift_generator(i) for i in range(m)])
        zero = linalg.zero_vec(sub, q.rank)
        defects = {
            key: d.inclusion.pull_vec(brackets[key]) if key in brackets else zero
            for key in product(range(m), repeat=2)
        }
        if maximality == "full":
            for (i, j), defect in sorted(defects.items()):
                if vec_is_zero(defect):
                    continue
                for l in range(m):
                    got = d.pair_restricted(defect, d.generators[l], g)
                    if not got.is_zero:
                        yield f"generators ({i},{j}) against {l}: pairing {got}"
            return
        bound = 2 + max(
            [p.degree() for v in defects.values() for p in v if not p.is_zero]
            + [p.degree() for v in d.generators for p in v if not p.is_zero]
            + [0]
        )
        for (i, j), defect in sorted(defects.items()):
            if vec_is_zero(defect):
                continue
            witness = linalg.membership_witness(
                d.generators, defect, sub, bound
            )
            if witness is None:
                yield (
                    f"bracket of generators ({i},{j}) has no span witness up "
                    f"to degree {bound}: {fmt_section(defect)}"
                )

    rep.check("isotropy", isotropy())
    rep.check("maximality", maximality_failures())
    rep.check("anchor_tangency", anchor_tangency())
    rep.check("closure", closure())
    return rep
