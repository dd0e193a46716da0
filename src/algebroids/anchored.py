"""Anchored modules, and the chart-map analysis their inverse images share.

An anchored module is a free module of rank r on a chart with an anchor (one
tangent vector per generator) and a sparse table of generator brackets.
LieData and CourantData are both anchored modules, and the bracket of two
sections starts, for both, from the table-plus-Leibniz sum

    sum_ab u_a v_b T(a, b) + anchor(u)(v_k) - anchor(v)(u_k),

which Lie reads through an antisymmetric table and Courant corrects by its
coanchor term. The inverse image of either along f: Y -> X is a fibre
product over f*TX (Liu-Weinstein-Xu, dg-ga/9508013); its ambient bracket is
the same sum over the pulled table, with tangent vectors on Y standing in for
the anchors (leibniz_sum, pulled_entries).

The second half analyses a chart map for the presentation modes that both
inverse images support. resolve_mode picks the mode (classify_map when none
is given) and checks the identity mode; Embedding and Submersion check the
shape their mode needs, raise UnsupportedModeError when the map does not
have it, and hold what a presentation is built from: kept and cut
coordinate slots with the constant solve of the anchor constraints, or the
tangent lifts through a coordinate projection or an inverse Jacobian.
constant_complement,
apply_constant and apply_matrix are the constant linear algebra both
presentations reduce with.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from algebroids import linalg
from algebroids.errors import (
    ChartMismatchError,
    UnsupportedModeError,
    ValidationError,
)
from algebroids.linalg import Vec, vec_is_zero
from algebroids.symcalc import Chart, ChartMap, Poly, VField

Entry = Callable[[int, int], "Vec | None"]


def leibniz_sum(
    rank: int, entry: Entry, u: Vec, w: Vec, xi: VField, eta: VField
) -> list[Poly]:
    """sum_ab u_a w_b entry(a, b) + xi(w_k) - eta(u_k), one entry per generator.

    entry(a, b) is the table vector of a generator pair, None when it is
    zero; xi and eta stand for the anchors of u and w.
    """
    out = [xi.apply(w[k]) - eta.apply(u[k]) for k in range(rank)]
    for a in range(rank):
        if u[a].is_zero:
            continue
        for b in range(rank):
            if w[b].is_zero:
                continue
            gen = entry(a, b)
            if gen is None:
                continue
            coeff = u[a] * w[b]
            for k in range(rank):
                if not gen[k].is_zero:
                    out[k] = out[k] + coeff * gen[k]
    return out


def pulled_entries(f: ChartMap, entry: Entry) -> Entry:
    """The table entry pulled back along f, each pair pulled on first use."""
    cache: dict[tuple[int, int], Vec | None] = {}

    def pulled(a: int, b: int) -> Vec | None:
        key = (a, b)
        if key not in cache:
            got = entry(a, b)
            cache[key] = None if got is None else tuple(f.pull(p) for p in got)
        return cache[key]

    return pulled


class AnchoredModule:
    """What LieData and CourantData share: chart, rank, anchor, structure.

    Subclasses are dataclasses declaring those four fields; they call
    _validate from __post_init__. structure maps a generator pair to its
    bracket vector; _entry reads it (None for zero), and a subclass that
    stores its table differently overrides _entry.
    """

    chart: Chart
    rank: int
    anchor: tuple[Vec, ...]
    structure: dict[tuple[int, int], Vec]

    def _validate(self) -> None:
        """Check the anchor and the table, and drop zero table entries."""
        self.anchor = tuple(tuple(row) for row in self.anchor)
        if len(self.anchor) != self.rank:
            raise ValidationError("anchor needs one row per generator")
        for row in self.anchor:
            if len(row) != self.chart.dim:
                raise ValidationError("anchor row has wrong length")
            for p in row:
                if p.chart != self.chart:
                    raise ChartMismatchError("anchor entry on wrong chart")
        clean = {}
        for (a, b), vec in self.structure.items():
            vec = tuple(vec)
            if not (0 <= a < self.rank and 0 <= b < self.rank):
                raise ValidationError(f"structure key {(a, b)} out of range")
            if len(vec) != self.rank:
                raise ValidationError("structure vector has wrong length")
            for p in vec:
                if p.chart != self.chart:
                    raise ChartMismatchError("structure entry on wrong chart")
            if not vec_is_zero(vec):
                clean[(a, b)] = vec
        self.structure = clean

    def zero_section(self) -> Vec:
        return linalg.zero_vec(self.chart, self.rank)

    def gen(self, a: int) -> Vec:
        return linalg.unit_vec(self.chart, self.rank, a)

    def anchor_of(self, u: Vec) -> VField:
        comps = []
        for i in range(self.chart.dim):
            acc = Poly.zero(self.chart)
            for a in range(self.rank):
                if not u[a].is_zero:
                    acc = acc + u[a] * self.anchor[a][i]
            comps.append(acc)
        return VField(self.chart, comps)

    def _entry(self, a: int, b: int) -> Vec | None:
        return self.structure.get((a, b))

    def bracket_gen(self, a: int, b: int) -> Vec:
        got = self._entry(a, b)
        return self.zero_section() if got is None else got

    def bracket(self, u: Vec, v: Vec) -> Vec:
        return tuple(
            leibniz_sum(
                self.rank, self._entry, u, v, self.anchor_of(u), self.anchor_of(v)
            )
        )


# ---------------------------------------------------------------------------
# Constant linear algebra
# ---------------------------------------------------------------------------


def apply_matrix(matrix: Sequence[Vec], u: Vec, rank_out: int, chart: Chart) -> Vec:
    """sum_a u_a matrix[a]: the image of u under a generator matrix."""
    out = list(linalg.zero_vec(chart, rank_out))
    for a, coeff in enumerate(u):
        if coeff.is_zero:
            continue
        for k in range(rank_out):
            img = matrix[a][k]
            if not img.is_zero:
                out[k] = out[k] + coeff * img
    return tuple(out)


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


def constant_complement(
    span: Sequence[Sequence[Fraction]], n: int
) -> tuple[list[int], list[list[Fraction]] | None]:
    """Unit vectors completing independent constant rows to a basis of Q^n.

    Returns the chosen unit indices (greedy, in index order) and the inverse
    of the matrix whose columns are the span rows followed by those units,
    so row r of the inverse reads off the r-th coordinate in that basis. The
    inverse is None when the span rows are dependent.
    """
    rows = [list(r) for r in span]
    complement: list[int] = []
    for i in range(n):
        cand = rows + [[Fraction(j == i) for j in range(n)]]
        if linalg.qq_rank(cand) > len(rows):
            rows = cand
            complement.append(i)
    return complement, linalg.qq_inverse(linalg.transpose(rows))


# ---------------------------------------------------------------------------
# Chart-map analysis
# ---------------------------------------------------------------------------


def _coordinate_of(p: Poly) -> int | None:
    """The index i when p is exactly the coordinate x_i, else None."""
    if len(p.terms) != 1:
        return None
    exps, c = next(iter(p.terms.items()))
    if c != 1 or sum(exps) != 1:
        return None
    return exps.index(1)


def classify_map(f: ChartMap) -> str:
    """Best-effort structural classification used by the auto modes."""
    if f.source == f.target and f.comps == ChartMap.identity(f.source).comps:
        return "identity"
    comp_coords = [_coordinate_of(c) for c in f.comps]
    used = [c for c in comp_coords if c is not None]
    distinct = len(set(used)) == len(used)
    if (
        all(c is not None for c in comp_coords)
        and distinct
        and f.source.dim >= f.target.dim
    ):
        return "coordinate-submersion"
    zero_or_coord = all(
        f.comps[j].is_zero or comp_coords[j] is not None
        for j in range(len(f.comps))
    )
    if (
        zero_or_coord
        and distinct
        and set(used) == set(range(f.source.dim))
        and f.source.dim <= f.target.dim
    ):
        return "coordinate-embedding"
    if f.source.dim == f.target.dim and f.source.dim > 0:
        det = linalg.poly_det(f.jacobian())
        c = det.as_constant()
        if c is not None and c != 0:
            return "coordinate-submersion"
    raise UnsupportedModeError(
        f"map {f} fits no supported pullback mode"
    )


def resolve_mode(
    f: ChartMap, chart: Chart, mode: str | None, modes: Sequence[str]
) -> str:
    """The presentation mode for pulling a structure on chart back along f.

    The identity mode is checked here; Embedding and Submersion check the
    shape of the other map-driven modes.
    """
    if f.target != chart:
        raise ChartMismatchError("map target is not the chart of the structure")
    if mode is None:
        mode = classify_map(f)
    if mode not in modes:
        raise UnsupportedModeError(f"unknown pullback mode {mode!r}")
    if mode == "identity" and (
        f.source != f.target or f.comps != ChartMap.identity(f.source).comps
    ):
        raise UnsupportedModeError("identity mode requires the identity map")
    return mode


def embedding_layout(f: ChartMap) -> tuple[dict[int, int], list[int]]:
    """(source coordinate of each kept target slot, cut target slots).

    Every component must be zero or a source coordinate, and every source
    coordinate must be used exactly once.
    """
    kept: dict[int, int] = {}
    zeroed: list[int] = []
    for j, c in enumerate(f.comps):
        if c.is_zero:
            zeroed.append(j)
            continue
        i = _coordinate_of(c)
        if i is None or i in kept.values():
            raise UnsupportedModeError(
                "coordinate-embedding mode needs components that are distinct "
                "coordinates or zero"
            )
        kept[j] = i
    if sorted(kept.values()) != list(range(f.source.dim)):
        raise UnsupportedModeError(
            "coordinate-embedding mode must use every source coordinate once"
        )
    return kept, zeroed


class Embedding:
    """A coordinate embedding f and an anchor pulled back along it.

    A pulled section u lies in the fibre product when its pulled anchor
    vanishes along every cut slot. solve() needs constant pivot columns in
    those constraints and returns, per free generator b, the constrained
    section with u_b = 1 and zero on the other free generators.
    """

    def __init__(self, f: ChartMap, anchor: Sequence[Vec]):
        self.kept, self.zeroed = embedding_layout(f)
        self.chart = f.source
        self.pulled_anchor = [[f.pull(p) for p in row] for row in anchor]

    def tangent(self, u: Vec) -> Vec:
        """The source vector whose push-forward is the pulled anchor of u."""
        eta = list(linalg.zero_vec(self.chart, self.chart.dim))
        for k, j in self.kept.items():
            acc = Poly.zero(self.chart)
            for a, row in enumerate(self.pulled_anchor):
                if not u[a].is_zero and not row[k].is_zero:
                    acc = acc + u[a] * row[k]
            eta[j] = acc
        return tuple(eta)

    def solve(self) -> tuple[list[int], dict[int, Vec]]:
        """(free generators, constrained section of each free generator)."""
        rank = len(self.pulled_anchor)
        m = [[row[s] for row in self.pulled_anchor] for s in self.zeroed]
        m0 = [[p.constant_term() for p in row] for row in m]
        _, pivots = linalg.qq_rref(m0)
        if len(pivots) != len(self.zeroed) or any(
            row[c].as_constant() is None for row in m for c in pivots
        ):
            raise UnsupportedModeError(
                "anchor constraints along the embedding are not "
                "constant-solvable"
            )
        pivot_inv = linalg.qq_inverse([[row[c] for c in pivots] for row in m0])
        free = [c for c in range(rank) if c not in pivots]
        members = {}
        for b in free:
            u = [Poly.zero(self.chart) for _ in range(rank)]
            u[b] = Poly.one(self.chart)
            corr = apply_constant(pivot_inv, [row[b] for row in m], self.chart)
            for t, c in enumerate(pivots):
                u[c] = -corr[t]
            members[b] = tuple(u)
        return free, members


class Submersion:
    """Tangent lifts of the target coordinate fields through f.

    A coordinate projection (components distinct source coordinates) lifts
    each target field to its slot, and the unused source coordinates are
    vertical. A square map with constant nonzero Jacobian determinant lifts
    through the columns of J^-1, with nothing vertical.
    """

    def __init__(self, f: ChartMap):
        chart = self.chart = f.source
        slots = [_coordinate_of(c) for c in f.comps]
        if None not in slots and len(set(slots)) == len(slots):
            self.slots: list[int] | None = slots
            self.lifts = [linalg.unit_vec(chart, chart.dim, s) for s in slots]
            self.vertical = [i for i in range(chart.dim) if i not in slots]
            return
        if chart.dim != f.target.dim:
            raise UnsupportedModeError(
                "coordinate-submersion mode needs a coordinate projection or "
                "an invertible polynomial map"
            )
        try:
            self.inverse = linalg.poly_inverse_unit_det(f.jacobian())
        except ValidationError as exc:
            raise UnsupportedModeError(
                f"coordinate-submersion mode needs an invertible map: {exc}"
            ) from None
        self.slots = None
        self.lifts = [tuple(col) for col in zip(*self.inverse)]
        self.vertical = []

    def lift(self, v: Vec) -> Vec:
        """Horizontal lift sum_k v_k lifts[k] of a pulled target vector."""
        return apply_matrix(self.lifts, v, self.chart.dim, self.chart)

    def coefficients(self, beta: Vec) -> Vec:
        """beta(lifts[k]) for each k: the df_k-coefficients of a one-form's
        horizontal part."""
        if self.slots is not None:
            return tuple(beta[s] for s in self.slots)
        return apply_matrix(self.inverse, beta, len(self.lifts), self.chart)
