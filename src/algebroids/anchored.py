"""Anchored modules, and the fibre products their inverse images share.

An anchored module is a free module of rank r on a chart with an anchor (one
tangent vector per generator) and a sparse table of generator brackets.
LieData and CourantData are both anchored modules, and the bracket of two
sections starts, for both, from the table-plus-Leibniz sum

    sum_ab u_a v_b T(a, b) + anchor(u)(v_k) - anchor(v)(u_k),

which Lie reads through an antisymmetric table and Courant corrects by its
coanchor term. The inverse image of either along f: Y -> X is built on the
fibre product f*A x_{f*TX} TY of pairs (tangent on Y, pulled section)
(Liu-Weinstein-Xu, dg-ga/9508013); its ambient bracket is the same sum over
the pulled table, with tangent vectors on Y standing in for the anchors
(leibniz_sum, pulled_entries).

Lemma L1: [u, f v] = f [u, v] + anchor(u)(f) v holds for every table. In
leibniz_sum(u, f v) the table term scales by f, xi(f v_k) = f xi(v_k) +
xi(f) v_k, and anchor(f v) = f anchor(v); the Courant coanchor term
sum_a (sum_b g_ab v_b) coanchor(du_a) is function-linear in v. The left
slot gives [f u, v] = f [u, v] - anchor(v)(f) u (+ <u, v> coanchor(df) for
Courant data). So the Leibniz rule verdicts are passes by construction.

The identity checks the Lie and Courant verdicts share live here once: the
jacobiator (the Jacobi identity in Leibniz form, which a Courant structure
satisfies as a Lie algebroid does) and its generator cases, and the
generator-matrix checks that a morphism preserves anchor and bracket. So
does the quotient by a constant span of sections (constant_quotient) behind
both the marking quotient and the Courant structure's associated Lie
algebroid, with its antisymmetric table.

The second half presents that fibre product along a chart map, once for
both inverse images. resolve_mode picks the mode (classify_map when none is
given), rejects a mode that is not a mode name as a bad spec, and checks the
identity mode. Three fibre classes present it: Embedding and Submersion
check the shape their mode needs and raise UnsupportedModeError when the
map does not have it, and Split lifts through a splitting of the anchor
(split_lifts) and reads the rest through a constant frame of its kernel.
Each holds one basis of (tangent, section) pairs and one coordinate reader,
coords(tangent, section). The Lie inverse image stacks those pairs as they
are; the Courant one uses them as the (u, eta) half of its triples. The
identity mode is the submersion along the identity map, and
constant_complement picks constant complements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from algebroids import linalg
from algebroids.errors import (
    ChartMismatchError,
    UnsupportedModeError,
    ValidationError,
)
from algebroids.linalg import (
    Vec,
    apply_constant,
    apply_matrix,
    fmt_section,
    unit_vec,
    vec_add,
    vec_eq,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)
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
        return zero_vec(self.chart, self.rank)

    def gen(self, a: int) -> Vec:
        return unit_vec(self.chart, self.rank, a)

    def anchor_of(self, u: Vec) -> VField:
        return VField(
            self.chart, apply_matrix(self.anchor, u, self.chart.dim, self.chart)
        )

    def _entry(self, a: int, b: int) -> Vec | None:
        return self.structure.get((a, b))

    def bracket_gen(self, a: int, b: int) -> Vec:
        got = self._entry(a, b)
        return self.zero_section() if got is None else got

    def _either_zero(self, u: Vec, v: Vec) -> bool:
        """Whether u or v is the zero section, so that their bracket is.

        ValidationError when either has a length other than the rank. The
        zero bracket skips the arithmetic that would have refused a section
        of another chart, so before it is returned both are checked for
        that too (ChartMismatchError)."""
        for s in (u, v):
            if len(s) != self.rank:
                raise ValidationError(f"section of length {len(s)}, not rank {self.rank}")
        if not (vec_is_zero(u) or vec_is_zero(v)):
            return False
        for s in (u, v):
            for p in s:
                if p.chart is not self.chart and p.chart != self.chart:
                    raise ChartMismatchError("section entry on wrong chart")
        return True

    def bracket(self, u: Vec, v: Vec) -> Vec:
        if self._either_zero(u, v):
            return self.zero_section()
        return tuple(
            leibniz_sum(
                self.rank, self._entry, u, v, self.anchor_of(u), self.anchor_of(v)
            )
        )


# ---------------------------------------------------------------------------
# Identities both verdicts check
# ---------------------------------------------------------------------------


def jacobiator(m: AnchoredModule, u: Vec, v: Vec, w: Vec) -> Vec:
    """[u, [v, w]] - [[u, v], w] - [v, [u, w]], the defect of the Jacobi
    identity in Leibniz form."""
    return vec_sub(
        m.bracket(u, m.bracket(v, w)),
        vec_add(m.bracket(m.bracket(u, v), w), m.bracket(v, m.bracket(u, w))),
    )


def jacobi_generator_failures(m: AnchoredModule) -> Iterator[str]:
    """The jacobiator on every generator triple, inner brackets read from
    the table. [e_a, row(b, c)] and [e_b, row(a, c)] range over the same
    brackets [e_x, row(y, z)], so each is computed once, on first use; a
    table built up front would defeat the early exit at the first failure."""
    gen = [m.gen(a) for a in range(m.rank)]
    row = {
        (a, b): m.bracket_gen(a, b)
        for a, b in product(range(m.rank), repeat=2)
    }
    @cache
    def gen_row(x: int, y: int, z: int) -> Vec:
        return m.bracket(gen[x], row[(y, z)])

    for a, b, c in product(range(m.rank), repeat=3):
        defect = vec_sub(
            gen_row(a, b, c),
            vec_add(m.bracket(row[(a, b)], gen[c]), gen_row(b, a, c)),
        )
        if not vec_is_zero(defect):
            yield f"generators ({a},{b},{c}): defect {fmt_section(defect)}"


Probe = tuple[str, Vec]


def probe(m: AnchoredModule, a: int, *coords: int) -> Probe:
    """The section x_k * ... * e_a for the coordinate indices k given,
    with its label (e.g. "x1*x2*e0")."""
    chart = m.chart
    coeff = Poly.one(chart)
    for k in coords:
        coeff = coeff * Poly.coord(chart, k)
    label = "*".join([chart.coords[k] for k in coords] + [f"e{a}"])
    return label, vec_scale(coeff, m.gen(a))


def jacobi_counterexample(
    m: AnchoredModule, *triples: tuple[Probe, Probe, Probe]
) -> str:
    """The label of the first probe triple whose jacobiator is nonzero.

    Callers pass triples on which a lemma proves the jacobiator nonzero
    (for the second of two, when the first vanishes), so running out of
    triples means the lemma does not hold for this table."""
    for (lu, u), (lv, v), (lw, w) in triples:
        defect = jacobiator(m, u, v, w)
        if not vec_is_zero(defect):
            return f"sections ({lu}, {lv}, {lw}): defect {fmt_section(defect)}"
    labels = [tuple(label for label, _ in t) for t in triples]
    raise AssertionError(f"no nonzero jacobiator among {labels}")


def jacobi_left_probe_failures(
    m: AnchoredModule, probes: Iterable[Probe]
) -> Iterator[str]:
    """The jacobiator J(u, e_b, e_c) of each probe u against every pair of
    generators, with [u, e_b] computed once per probe and generator."""
    r = m.rank
    gen = [m.gen(a) for a in range(r)]
    row = {(b, c): m.bracket_gen(b, c) for b, c in product(range(r), repeat=2)}
    for label, u in probes:
        with_gen = [m.bracket(u, gen[b]) for b in range(r)]
        for b, c in product(range(r), repeat=2):
            defect = vec_sub(
                m.bracket(u, row[(b, c)]),
                vec_add(
                    m.bracket(with_gen[b], gen[c]),
                    m.bracket(gen[b], with_gen[c]),
                ),
            )
            if not vec_is_zero(defect):
                yield (
                    f"sections ({label}, e{b}, e{c}): "
                    f"defect {fmt_section(defect)}"
                )


def anchor_defect(m: AnchoredModule, a: int, b: int) -> VField:
    """A(e_a, e_b) = anchor([e_a, e_b]) - [anchor(e_a), anchor(e_b)]."""
    lhs = m.anchor_of(m.bracket_gen(a, b))
    return lhs - m.anchor_of(m.gen(a)).bracket(m.anchor_of(m.gen(b)))


def anchor_failures(
    src: AnchoredModule, dst: AnchoredModule, matrix: Sequence[Vec]
) -> Iterator[str]:
    """Generators a of src whose anchor is not the dst anchor of matrix[a]."""
    for a in range(src.rank):
        if src.anchor_of(src.gen(a)) != dst.anchor_of(matrix[a]):
            yield f"generator {a}"


def bracket_failures(
    src: AnchoredModule, dst: AnchoredModule, matrix: Sequence[Vec]
) -> Iterator[str]:
    """Generator pairs of src whose table bracket, mapped through matrix, is
    not the dst bracket of their images."""
    for a, b in product(range(src.rank), repeat=2):
        lhs = apply_matrix(matrix, src.bracket_gen(a, b), dst.rank, dst.chart)
        if not vec_eq(lhs, dst.bracket(matrix[a], matrix[b])):
            yield f"generators ({a},{b})"


# ---------------------------------------------------------------------------
# Constant linear algebra
# ---------------------------------------------------------------------------


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


def constant_quotient(
    m: AnchoredModule, span: Sequence[Sequence[Fraction]]
) -> tuple[tuple[Vec, ...], dict[tuple[int, int], Vec], tuple[Vec, ...]] | None:
    """m modulo the constant sections with the independent rows of span as
    coefficients, on the unit generators completing them.

    Returns (anchor rows, bracket table on pairs x <= y, projection of each
    generator of m), or None when the span has no constant complement.
    Raises ValidationError when the table does not descend antisymmetrically.
    """
    complement, inv = constant_complement(span, m.rank)
    if inv is None:
        return None

    def reduce(vec: Vec) -> Vec:
        # Coordinates along the complement generators; the span part drops.
        return apply_constant(inv[len(span):], vec, m.chart)

    structure = antisymmetric_table(
        len(complement),
        lambda x, y: reduce(m.bracket_gen(complement[x], complement[y])),
        "bracket does not descend antisymmetrically; the input violates the "
        "symmetrization identity",
    )
    anchor = tuple(m.anchor[i] for i in complement)
    return anchor, structure, tuple(reduce(m.gen(i)) for i in range(m.rank))


def antisymmetric_table(
    n: int, bracket: Callable[[int, int], Vec], error: str
) -> dict[tuple[int, int], Vec]:
    """The nonzero bracket(x, y) on pairs x <= y of n generators; raises
    ValidationError(error) where bracket(y, x) is not their negation."""
    structure = {}
    for x in range(n):
        for y in range(x, n):
            got = bracket(x, y)
            if not vec_is_zero(vec_add(got, bracket(y, x))):
                raise ValidationError(error)
            if not vec_is_zero(got):
                structure[(x, y)] = got
    return structure


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

    A mode that is not one of modes is a ValidationError naming the field
    mode. The identity mode is checked here; Embedding and Submersion check
    the shape of the other map-driven modes.
    """
    if f.target != chart:
        raise ChartMismatchError("map target is not the chart of the structure")
    if mode is None:
        mode = classify_map(f)
    if mode not in modes:
        raise ValidationError(
            f"mode must be one of {', '.join(modes)}, got {mode!r}"
        )
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
    """The fibre product of an anchored module along a coordinate embedding.

    A pulled section u lies in the fibre product when its pulled anchor
    vanishes along every cut slot; its tangent is then the pulled anchor
    read on the kept slots. The constraints need constant pivot columns.
    Each free generator b gives one basis pair (tangent, section): the
    constrained section with u_b = 1 and zero on the other free generators.
    coords reads a fibre-product pair by the free entries of its section;
    the tangent adds nothing, being the pulled anchor of the section.
    """

    def __init__(self, f: ChartMap, anchor: Sequence[Vec]):
        self.kept, self.zeroed = embedding_layout(f)
        self.chart = f.source
        self.pulled_anchor = [[f.pull(p) for p in row] for row in anchor]
        # Every source coordinate is kept exactly once, so the tangent reads
        # the pulled anchor on the kept slots in source-coordinate order.
        order = sorted(self.kept, key=self.kept.get)
        self._tangent_rows = [[row[k] for k in order] for row in self.pulled_anchor]
        self.free, sections = self._solve()
        self.basis = [(self.tangent(u), u) for u in sections]

    def tangent(self, u: Vec) -> Vec:
        """The source vector whose push-forward is the pulled anchor of u."""
        return apply_matrix(self._tangent_rows, u, self.chart.dim, self.chart)

    def coords(self, tangent: Vec, section: Vec) -> Vec:
        return tuple(section[b] for b in self.free)

    def _solve(self) -> tuple[list[int], list[Vec]]:
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
        sections = []
        for b in free:
            u = [Poly.zero(self.chart) for _ in range(rank)]
            u[b] = Poly.one(self.chart)
            corr = apply_constant(pivot_inv, [row[b] for row in m], self.chart)
            for t, c in enumerate(pivots):
                u[c] = -corr[t]
            sections.append(tuple(u))
        return free, sections


class Submersion:
    """The fibre product of an anchored module along a submersion.

    Target coordinate fields lift through f. A coordinate projection
    (components distinct source coordinates) lifts each to its slot, and the
    unused source coordinates are vertical; the identity map is the
    projection with unit lifts and nothing vertical. A square map with
    constant nonzero Jacobian determinant lifts through the columns of J^-1,
    with nothing vertical. The basis pairs are (horizontal lift of the pulled
    anchor of e_a, e_a) per generator a, then (d_v, 0) per vertical v.
    """

    def __init__(self, f: ChartMap, anchor: Sequence[Vec]):
        chart = self.chart = f.source
        slots = [_coordinate_of(c) for c in f.comps]
        if None not in slots and len(set(slots)) == len(slots):
            self.slots: list[int] | None = slots
            self.lifts = [unit_vec(chart, chart.dim, s) for s in slots]
            self.vertical = [i for i in range(chart.dim) if i not in slots]
        elif chart.dim != f.target.dim:
            raise UnsupportedModeError(
                "coordinate-submersion mode needs a coordinate projection or "
                "an invertible polynomial map"
            )
        else:
            try:
                self.inverse = linalg.poly_inverse_unit_det(f.jacobian())
            except ValidationError as exc:
                raise UnsupportedModeError(
                    f"coordinate-submersion mode needs an invertible map: {exc}"
                ) from None
            self.slots = None
            self.lifts = [tuple(col) for col in zip(*self.inverse)]
            self.vertical = []
        rank = len(anchor)
        self.basis = [
            (self.lift(tuple(f.pull(p) for p in row)), unit_vec(chart, rank, a))
            for a, row in enumerate(anchor)
        ] + [
            (unit_vec(chart, chart.dim, v), zero_vec(chart, rank))
            for v in self.vertical
        ]

    def lift(self, v: Vec) -> Vec:
        """Horizontal lift sum_k v_k lifts[k] of a pulled target vector."""
        return apply_matrix(self.lifts, v, self.chart.dim, self.chart)

    def coords(self, tangent: Vec, section: Vec) -> Vec:
        """The section, then the vertical slots of the tangent: horizontal
        lifts vanish there, so the section's lift takes nothing away."""
        return tuple(section) + tuple(tangent[v] for v in self.vertical)

    def coefficients(self, beta: Vec) -> Vec:
        """beta(lifts[k]) for each k: the df_k-coefficients of a one-form's
        horizontal part."""
        if self.slots is not None:
            return tuple(beta[s] for s in self.slots)
        return apply_matrix(self.inverse, beta, len(self.lifts), self.chart)


class Split:
    """The fibre product of an anchored module along any map, through a
    splitting of the anchor and a frame of the anchor's kernel.

    columns give the splitting s, one section per target coordinate; frame
    lists sections on the target chart that span the kernel of the anchor,
    and jac is the Jacobian of f. The basis pairs are (d_i, lifts[i]) per
    source coordinate i, with lifts[i] = f*(s(df(d_i))), then (0, pulled
    frame row) per frame row. A fibre-product pair (tangent, section) leaves
    section - lifts.tangent in the pulled kernel; kernel_coords reads it off
    through a constant left inverse of the frame, and the frame must have
    one.
    """

    def __init__(
        self,
        f: ChartMap,
        columns: Sequence[Vec],
        rank: int,
        frame: Sequence[Vec],
        jac: Sequence[Vec],
    ):
        left = linalg.constant_left_inverse(linalg.transpose(frame)) if frame else []
        if left is None:
            raise UnsupportedModeError(
                "the kernel frame has no constant left inverse in this basis"
            )
        self.left = left
        chart = self.chart = f.source
        self.rank = rank
        self.lifts = split_lifts(f, columns, rank, jac)
        self.basis = [
            (unit_vec(chart, chart.dim, i), lift) for i, lift in enumerate(self.lifts)
        ] + [(zero_vec(chart, chart.dim), tuple(map(f.pull, row))) for row in frame]

    def kernel_coords(self, tangent: Vec, section: Vec) -> Vec:
        """L.(section - lifts.tangent), L the constant left inverse of the
        frame: the frame coordinates of a pair's kernel part."""
        lifted = apply_matrix(self.lifts, tangent, self.rank, self.chart)
        return apply_constant(self.left, vec_sub(section, lifted), self.chart)

    def coords(self, tangent: Vec, section: Vec) -> Vec:
        return tuple(tangent) + self.kernel_coords(tangent, section)


def split_lifts(
    f: ChartMap, columns: Sequence[Vec], rank: int, jac: Sequence[Vec]
) -> list[Vec]:
    """Section part f*(s(df(d_i))) of the lift of each source coordinate
    field d_i through a splitting s of the anchor, given by one column per
    target coordinate; jac is the Jacobian of f. Split lifts through it, and
    so does the pulled Courant connection."""
    pulled = [[f.pull(p) for p in col] for col in columns]
    n = f.target.dim
    return [
        apply_matrix(pulled, tuple(jac[k][i] for k in range(n)), rank, f.source)
        for i in range(f.source.dim)
    ]
