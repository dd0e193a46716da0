"""Anchored modules, and the fibre products their inverse images share.

An anchored module is a free module of rank r on a chart with an anchor (one
tangent vector per generator) and a sparse table of generator brackets.
LieData and CourantData are both anchored modules, and the bracket of two
sections starts, for both, from the table-plus-Leibniz sum

    sum_ab u_a v_b T(a, b) + anchor(u)(v_k) - anchor(v)(u_k),

which Lie reads through an antisymmetric table and Courant corrects by its
coanchor term. The inverse image of either along f: Y -> X is built on the
fibre product f*A x_{f*TX} TY of pairs (tangent on Y, pulled section)
(Liu-Weinstein-Xu, dg-ga/9508013); pair_bracket is its ambient bracket, the
same sum over the pulled table with tangent vectors on Y standing in for
the anchors (leibniz_sum, pulled_entries).

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

The second half presents fibre products, once for both inverse images and
both Baer combinations. resolve_mode picks the mode of an inverse image
(classify_map when none is given), rejects a mode that is not a mode name
as a bad spec, and checks the identity mode. The shape questions read
ChartMap.slots: the identity, a coordinate projection and a coordinate
embedding have as slots the source coordinates in order, distinct source
coordinates, and every source coordinate once with the rest zero. Three fibre classes present
the inverse image's fibre product, each with one basis of (tangent,
section) pairs and one reader, coords(tangent, section): Embedding and
Submersion check the shape their mode needs and raise UnsupportedModeError
when the map does not have it, and Split lifts through a splitting of the
anchor (split_lifts) and reads the rest through a frame of its kernel.
Submersion reads a square Jacobian, and Split its kernel frame, through the
one polynomial left inverse linalg.left_inverse. classify_map asks the same
shape questions before its unit-determinant test. Presentation is a basis
of slot tuples, the relations it divides by, a reader, and the one reduce
that checks every reading by rebuilding its input: both inverse images are
Presentations ((tangent, section) pairs for Lie, (beta, u, eta) triples for
Courant), and Combination, summands over one base whose lines are glued by
weights, presents both Baer combinations. constant_complement picks
constant complements.

Last, the inverse image as a functor, once for both stacks: comparison
(psi+(phi+A) -> (phi psi)+A) and pulled_morphism (f+M) are generator
matrices built on Presentation.push; only pull_element is stack-specific.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
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


def pair_bracket(
    chart: Chart, rank: int, entry: Entry, x: tuple[Vec, Vec], y: tuple[Vec, Vec]
) -> tuple[Vec, Vec]:
    """The bracket of two fibre-product pairs (tangent, section) over chart:
    the tangent bracket, and leibniz_sum with the tangents as anchors; entry
    reads the pulled table."""
    xi, eta = VField(chart, x[0]), VField(chart, y[0])
    section = leibniz_sum(rank, entry, x[1], y[1], xi, eta)
    return xi.bracket(eta).comps, tuple(section)


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
    rows += [[Fraction(j == i) for j in range(n)] for i in range(n)]
    keep = linalg.independent_rows(rows)
    complement = [i - len(span) for i in keep if i >= len(span)]
    if len(keep) - len(complement) != len(span):
        return complement, None
    return complement, linalg.qq_inverse(linalg.transpose([rows[i] for i in keep]))


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
    """bracket(x, y) on pairs x <= y of n generators; raises
    ValidationError(error) where bracket(y, x) is not their negation."""
    structure = {}
    for x in range(n):
        for y in range(x, n):
            structure[(x, y)] = got = bracket(x, y)
            if not vec_is_zero(vec_add(got, bracket(y, x))):
                raise ValidationError(error)
    return structure


# ---------------------------------------------------------------------------
# Chart-map analysis
# ---------------------------------------------------------------------------


def _projection_slots(f: ChartMap) -> tuple[int, ...] | None:
    """The source coordinate of each component when f is a coordinate
    projection (its components are distinct source coordinates), else None."""
    slots = f.slots
    if slots is None or None in slots or len(set(slots)) != len(slots):
        return None
    return slots


def classify_map(f: ChartMap) -> str:
    """The first mode whose fibre class takes f: identity, a coordinate
    projection, a coordinate embedding, then a square map whose Jacobian
    has a constant nonzero determinant (a polynomial inverse)."""
    if f.is_identity:
        return "identity"
    if _projection_slots(f) is not None:
        return "coordinate-submersion"
    try:
        embedding_layout(f)
        return "coordinate-embedding"
    except UnsupportedModeError:
        pass
    if f.source.dim == f.target.dim and f.source.dim > 0:
        c = linalg.poly_det(f.jacobian()).as_constant()
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
    if mode == "identity" and not f.is_identity:
        raise UnsupportedModeError("identity mode requires the identity map")
    return mode


def embedding_layout(f: ChartMap) -> tuple[dict[int, int], list[int]]:
    """(source coordinate of each kept target slot, cut target slots).

    Every component must be zero or a source coordinate, and every source
    coordinate must be used exactly once.
    """
    slots = f.slots
    kept = {j: i for j, i in enumerate(slots or ()) if i is not None}
    if slots is None or len(set(kept.values())) != len(kept):
        raise UnsupportedModeError(
            "coordinate-embedding mode needs components that are distinct "
            "coordinates or zero"
        )
    zeroed = [j for j, i in enumerate(slots) if i is None]
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
        self.slots = slots = _projection_slots(f)
        if slots is not None:
            self.lifts = [unit_vec(chart, chart.dim, s) for s in slots]
            self.vertical = [i for i in range(chart.dim) if i not in slots]
        elif chart.dim != f.target.dim:
            raise UnsupportedModeError(
                "coordinate-submersion mode needs a coordinate projection or "
                "an invertible polynomial map"
            )
        else:
            self.inverse = linalg.left_inverse(f.jacobian())
            if self.inverse is None:
                raise UnsupportedModeError(
                    "coordinate-submersion mode needs an invertible map: the "
                    "Jacobian has no polynomial inverse"
                )
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
    frame row) per frame row; the frame rows are pulled when basis is first
    read. A fibre-product pair (tangent, section) leaves
    section - lifts.tangent in the pulled kernel; kernel_coords reads it off
    through the pulled polynomial left inverse L of the frame
    (linalg.left_inverse), and the frame must have one.
    """

    def __init__(
        self,
        f: ChartMap,
        columns: Sequence[Vec],
        rank: int,
        frame: Sequence[Vec],
        jac: Sequence[Vec],
    ):
        left = linalg.left_inverse(linalg.transpose(frame)) if frame else []
        if left is None:
            raise UnsupportedModeError("the kernel frame has no polynomial left inverse")
        self.map, self.frame = f, frame
        # L as apply_matrix reads it: row a is column a of L.
        self.left = [tuple(f.pull(row[a]) for row in left) for a in range(rank)]
        self.chart = f.source
        self.rank = rank
        self.lifts = split_lifts(f, columns, rank, jac)

    @cached_property
    def basis(self) -> list[tuple[Vec, Vec]]:
        chart, dim = self.chart, self.chart.dim
        zero = zero_vec(chart, dim)
        return [(unit_vec(chart, dim, i), lift) for i, lift in enumerate(self.lifts)] + [
            (zero, tuple(map(self.map.pull, row))) for row in self.frame
        ]

    def kernel_coords(self, tangent: Vec, section: Vec) -> Vec:
        """L.(section - lifts.tangent), L the pulled left inverse of the
        frame: the frame coordinates of a pair's kernel part."""
        lifted = apply_matrix(self.lifts, tangent, self.rank, self.chart)
        return apply_matrix(
            self.left, vec_sub(section, lifted), len(self.frame), self.chart
        )

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


class Presentation:
    """A module presented on a basis of slot tuples over chart.

    An ambient element is a tuple of vectors over chart, slot s of length
    sizes[s]: the Lie inverse image uses the (tangent, section) pairs of the
    fibre classes, the Courant one (beta, u, eta) triples, and a Combination
    one section per summand. basis holds one element per class generator,
    relations the elements the class module divides by (none unless a
    subclass sets them), and read(element) returns (class coordinates,
    relation coefficients). reduce checks every reading by rebuilding its
    input, so a reader never has to prove that an element lies in the fibre
    product.
    """

    relations: tuple[tuple[Vec, ...], ...] = ()

    def __init__(
        self,
        chart: Chart,
        sizes: tuple[int, ...],
        basis: Sequence[tuple[Vec, ...]],
        read: Callable[[tuple[Vec, ...]], tuple[Vec, Vec]],
    ):
        self.chart, self.sizes = chart, sizes
        self.basis = tuple(basis)
        self._read = read

    def _combine(
        self,
        coeffs: Vec,
        elements: Sequence[tuple[Vec, ...]],
        start: tuple[Vec, ...] | None = None,
    ) -> tuple[Vec, ...]:
        """start + sum_c coeffs[c] elements[c], slot by slot."""
        return tuple(
            apply_matrix(
                [e[s] for e in elements],
                coeffs,
                size,
                self.chart,
                None if start is None else start[s],
            )
            for s, size in enumerate(self.sizes)
        )

    def expand(self, cls: Vec) -> tuple[Vec, ...]:
        """The ambient element sum_c cls[c] basis[c]."""
        return self._combine(cls, self.basis)

    def reduce(self, element: tuple[Vec, ...]) -> Vec:
        """The class coordinates of element; ValidationError when the
        reading does not rebuild it, the element being outside the fibre
        product."""
        cls, rel = self._read(element)
        got = self.expand(cls)
        if self.relations:
            got = self._combine(rel, self.relations, got)
        if not all(map(vec_eq, got, element)):
            raise ValidationError("element is not in the fiber product")
        return cls

    def on_section(self, u: Vec) -> tuple[Vec, ...]:
        """The ambient element with section slot (slot 1) u, the rest zero."""
        zero = tuple(zero_vec(self.chart, size) for size in self.sizes)
        return zero[:1] + (u,) + zero[2:]

    def push(self, element: tuple[Vec, ...], rows: Sequence[tuple[Vec, ...]]) -> Vec:
        """The class of element with its section slot read as coefficients
        against rows, ambient elements here, and its other slots kept."""
        kept = element[:1] + (zero_vec(self.chart, self.sizes[1]),) + element[2:]
        return self.reduce(self._combine(element[1], rows, kept))


class Combination(Presentation):
    """Summands over one base whose lines are glued by weights; an element
    holds one section per summand.

    Summand i gives, as apply_matrix rows, lifts[i] (base -> section),
    lines[i] (its line sections) and readers[i] (section -> line
    coordinates); base_reader reads the base off summand 0. With f the
    first summand of nonzero weight, the basis is the base lifts, then the
    lines of f divided by w_f, and the relations are (-w_i/w_f lines_f[j]
    on f, lines_i[j] on i) for every other summand i. The reader returns
    (base b, sum_i w_i t_i) as the class, t_i the line coordinates of
    section i less its lift of b, and the other summands' t_i as relation
    coefficients.
    """

    def __init__(
        self,
        summands: Sequence[AnchoredModule],
        weights: Sequence[Fraction],
        lifts: Sequence[Sequence[Vec]],
        lines: Sequence[Sequence[Vec]],
        readers: Sequence[Sequence[Vec]],
        base_reader: Sequence[Vec],
    ):
        self.summands, self.weights = summands, weights
        chart, sizes = summands[0].chart, tuple(m.rank for m in summands)
        dim, count = len(lifts[0]), len(lines[0])
        first = next(i for i, w in enumerate(weights) if w)
        others = [i for i in range(len(sizes)) if i != first]
        zero = tuple(zero_vec(chart, n) for n in sizes)

        def on(i: int, vec: Vec, element: tuple[Vec, ...] = zero):
            return element[:i] + (vec,) + element[i + 1 :]

        unit = Fraction(1) / weights[first]
        basis = [tuple(rows[x] for rows in lifts) for x in range(dim)]
        basis += [on(first, vec_scale(unit, line)) for line in lines[first]]
        self.relations = tuple(
            on(i, line, on(first, vec_scale(-weights[i] * unit, lines[first][j])))
            for i in others
            for j, line in enumerate(lines[i])
        )

        scales = [Poly.const(chart, w) for w in weights]

        def read(element: tuple[Vec, ...]) -> tuple[Vec, Vec]:
            base = apply_matrix(base_reader, element[0], dim, chart)
            coords = []
            for rows, lift, u in zip(readers, lifts, element):
                rest = vec_sub(u, apply_matrix(lift, base, len(u), chart))
                coords.append(apply_matrix(rows, rest, count, chart))
            glued = apply_matrix(coords, scales, count, chart)
            return base + glued, tuple(p for i in others for p in coords[i])

        super().__init__(chart, sizes, basis, read)

    def basis_bracket(self, x: int, y: int) -> Vec:
        """The class of the summand by summand bracket of basis x and y."""
        pairs = zip(self.summands, self.basis[x], self.basis[y])
        return self.reduce(tuple(m.bracket(u, v) for m, u, v in pairs))


# ---------------------------------------------------------------------------
# The inverse image as a functor
# ---------------------------------------------------------------------------


def comparison(inner, outer, target) -> list[Vec]:
    """The generator matrix of psi+(phi+A) -> (phi psi)+A, for inverse
    images of one stack: outer presents phi+A, inner psi+(outer.result) and
    target (phi psi)+A. Row c pushes inner basis c into target against the
    outer basis pulled once along psi (pull_element); the tangent carries
    over, as d psi(eta') = sum_c u'_c psi*(eta_c). reduce verifies each row.
    """
    if inner.source is not outer.result and inner.source != outer.result:
        raise ValidationError("inner pullback must act on the outer algebroid")
    if outer.map.compose(inner.map).comps != target.map.comps:
        raise ValidationError("target presentation is for a different map")
    rows = [inner.pull_element(b) for b in outer.basis]
    return [target.push(b, rows) for b in inner.basis]


def pulled_morphism(pb_a, pb_b, matrix: Sequence[Vec]) -> list[Vec]:
    """The generator matrix of f+M: f+A -> f+B, pb_a and pb_b presenting
    A and B (on one chart) along one map f, and matrix[g] the image of
    generator g of A in B. An incompatible matrix leaves the fibre product,
    and reduce raises."""
    if pb_a.map.comps != pb_b.map.comps or pb_a.chart != pb_b.chart:
        raise ValidationError("presentations must be along the same map")
    rows = [pb_b.on_section(tuple(map(pb_a.map.pull, row))) for row in matrix]
    return [pb_b.push(b, rows) for b in pb_a.basis]
