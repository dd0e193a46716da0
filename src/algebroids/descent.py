"""Gluing data for Courant structures over a self-cover.

A cover here is a family of invertible coordinate endomorphisms of one
chart, together with a composition table for the pairs whose composites are
also in the family. A descent datum assigns to each map an isomorphism from
the pulled-back structure onto the structure itself; check_cocycle verifies
three layers:

  * the table is honest (the named composites really compose),
  * every matrix preserves the four structure maps,
  * the triple identity c_u . C == t*(c_s) . c_t for every table entry
    (s, t) -> u, as maps out of the iterated image t+(s+q) (row convention:
    the left factor first). C: t+(s+q) -> u+q is anchored.comparison, so
    invertible, and t*(c_s) the entrywise pull of c_s, defined even when
    c_s is not a morphism.

tautological_datum builds the canonical matrices for a standard-form
structure whose twist the cover preserves, and keeps the presentation of
each cover map it built them on, so check_cocycle presents each map once.
A triple whose outer image s+q equals q takes the presentation of t as
its inner image t+(s+q), since the mode depends on the map alone.
two_form_transform produces the shear automorphisms used to perturb such a
datum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from algebroids import linalg
from algebroids.anchored import comparison
from algebroids.courant import (
    Connection,
    CourantData,
    check_courant_morphism,
    coordinate_connection,
)
from algebroids.errors import ChartMismatchError, ValidationError
from algebroids.linalg import Vec, mat_mul, vec_eq
from algebroids.pullback import (
    CourantPullback,
    pullback_connection,
    pullback_courant,
)
from algebroids.report import Report
from algebroids.symcalc import Chart, ChartMap, KForm

Matrix = tuple[Vec, ...]


def pullback_matrix(f: ChartMap, matrix: Matrix) -> Matrix:
    return tuple(map(f.pull_vec, matrix))


def two_form_transform(q: CourantData, b: KForm) -> Matrix:
    """The shear e |-> e + coanchor(i_{anchor(e)} b).

    An automorphism of an exact structure exactly when b is closed; with db
    nonzero the bracket rows detect the failure.
    """
    if b.chart != q.chart or b.degree != 2:
        raise ValidationError("transform needs a two-form on the chart")
    rows = []
    for a in range(q.rank):
        alpha = b.iota(q.anchor_of(q.gen(a)))
        shift = q.coanchor_of(alpha)
        rows.append(tuple(p + s for p, s in zip(q.gen(a), shift)))
    return tuple(rows)


def frame_matrix(conn: Connection) -> Matrix:
    """Rows: the connection columns, then the coanchor images.

    As a map this sends the standard-form generators for the connection's
    curvature onto the given structure; it is invertible for any exact
    structure presented over a polynomially invertible frame.
    """
    q = conn.courant
    return tuple(conn.columns) + tuple(tuple(row) for row in q.coanchor)


@dataclass
class CoverData:
    """Named invertible endomorphisms of one chart plus a composition table.

    table[(s, t)] = u declares maps[u] == maps[s] after maps[t]; the
    declaration itself is verified by check_cocycle, not here.
    """

    chart: Chart
    maps: dict[str, ChartMap]
    table: dict[tuple[str, str], str] = field(default_factory=dict)

    def __post_init__(self):
        for name, f in self.maps.items():
            if f.source != self.chart or f.target != self.chart:
                raise ChartMismatchError(
                    f"cover map {name!r} is not an endomorphism of the chart"
                )
        for (s, t), u in self.table.items():
            for name in (s, t, u):
                if name not in self.maps:
                    raise ValidationError(
                        f"composition table mentions unknown map {name!r}"
                    )


@dataclass
class DescentDatum:
    """One matrix per cover map.

    pulls is not an argument: tautological_datum fills it with the default
    presentation of the structure along each cover map, which check_cocycle
    reuses; a datum built any other way starts with none, and check_cocycle
    presents every map itself.
    """

    cover: CoverData
    structure: CourantData
    matrices: dict[str, Matrix]
    pulls: dict[str, CourantPullback] = field(
        init=False, default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self):
        if self.structure.chart != self.cover.chart:
            raise ChartMismatchError("structure must live on the cover chart")
        if set(self.matrices) != set(self.cover.maps):
            raise ValidationError("need exactly one matrix per cover map")
        for name, m in self.matrices.items():
            if len(m) != self.structure.rank:
                raise ValidationError(
                    f"matrix {name!r} must have one row per generator"
                )


def tautological_datum(
    cover: CoverData,
    structure: CourantData,
    connection: Connection | None = None,
) -> DescentDatum:
    """The canonical matrices c_s = (pulled frame)^(-1) for each cover map.

    Each pulled connection frames the inverse image over the standard form
    of the pulled twist; inverting it lands back on the structure whenever
    the cover preserves the twist (check_cocycle reports it if not).
    """
    conn = connection if connection is not None else coordinate_connection(
        structure
    )
    matrices, pulls = {}, {}
    for name, f in cover.maps.items():
        pb = pulls[name] = pullback_courant(f, structure)
        inverse = linalg.left_inverse(frame_matrix(pullback_connection(pb, conn)))
        if inverse is None:
            raise ValidationError(
                f"the pulled frame of cover map {name!r} has no polynomial inverse"
            )
        matrices[name] = tuple(tuple(row) for row in inverse)
    datum = DescentDatum(cover, structure, matrices)
    datum.pulls = pulls
    return datum


def check_cocycle(datum: DescentDatum) -> Report:
    rep = Report()
    cover = datum.cover
    q = datum.structure
    pulls = {
        name: datum.pulls[name] if name in datum.pulls else pullback_courant(f, q)
        for name, f in sorted(cover.maps.items())
    }

    def composition():
        for (s, t), u in sorted(cover.table.items()):
            got = cover.maps[s].compose(cover.maps[t])
            if got.comps != cover.maps[u].comps:
                yield f"({s},{t}) -> {u}"

    def preservation():
        for name in sorted(cover.maps):
            sub = check_courant_morphism(
                pulls[name].result, q, datum.matrices[name]
            )
            for failure in sub.failures():
                yield f"element {name}: {failure.name}"

    def triple():
        for (s, t), u in sorted(cover.table.items()):
            inner = (
                pulls[t]
                if pulls[s].result == q
                else pullback_courant(cover.maps[t], pulls[s].result)
            )
            through = comparison(inner, pulls[s], pulls[u])
            lhs = mat_mul(through, datum.matrices[u], cover.chart)
            rhs = mat_mul(
                pullback_matrix(cover.maps[t], datum.matrices[s]),
                datum.matrices[t],
                cover.chart,
            )
            for a, (got, want) in enumerate(zip(lhs, rhs)):
                if not vec_eq(got, want):
                    yield f"triple ({s},{t}) -> {u}: generator {a}"

    rep.check("cover_composition", composition())
    rep.check("element_preservation", preservation())
    if not rep["cover_composition"].passed:
        rep.add(
            "triple_identity",
            False,
            "not checked: the composition table is dishonest",
        )
        return rep
    rep.check("triple_identity", triple())
    return rep
