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

Lemma L14 (support test), on sections: each term of the bracket of u and
v is zero unless its condition on the supports of u and v holds. The table
term sum u_a v_b T(a, b) needs some a in supp u and b in supp v with a
nonzero entry (a, b); anchor(u)(v_k) needs some a in supp u with a nonzero
anchor row, and v not constant; anchor(v)(u_k) likewise; the Courant
coanchor term c(sum_a (sum_b g_ab v_b) du_a) needs u not constant and some
nonzero g_ab with a in supp u and b in supp v. Derivations kill
constants, and each remaining term is a product with a zero factor. On
pairings: a bilinear form sum_ab u_a g_ab v_b is zero unless some nonzero
g_ab has a in supp u and b in supp v, since every product it would form
has a zero factor.

The lemma reads a Support (the bit mask of a vector's nonzero entries, and
whether all are constant) and the sparsity patterns each module computes
once per instance, on first use, with no module-level cache:
AnchoredModule.anchor_mask, the generators with a nonzero anchor row;
AnchoredModule.table_masks, one mask per table row of the b with a nonzero
entry (a, b); CourantData.pairing_masks, one per pairing row; and
varying_masks, the rows a section that is not constant reads (the table
rows, or-ed with the pairing rows for Courant data). Structure data is
frozen once validated: LieData and CourantData are frozen dataclasses with
a read-only table, so the cached masks cannot go stale and no check
validates the rows again; a mutant is a new instance, built with
dataclasses.replace.

In mask form, a table of pairs takes one admission step: from the row
supports and the column supports it indexes each slot of the columns once
(Columns: index[b] has bit y set when column y's support has bit b, and
the masks of the nonzero and of the varying, not constant, columns), and
returns one mask per row, the columns admitted for it. With spread(rows,
m) the union of rows[a] over a in m, and meeting(m) the columns whose
support meets m, each term of the lemma is a union of masks computed in
advance, for a row u:
  - the table term, with the coanchor term of Courant data:
    meeting(spread(table_masks, supp u)), or meeting(spread(varying_masks,
    supp u)) when u is not constant;
  - anchor(u)(v_k): the varying columns, when supp u meets anchor_mask;
  - anchor(v)(u_k): meeting(anchor_mask), when u is not constant;
  - a pairing: meeting(spread(the matrix's row masks, supp u)).
AnchoredModule.admitted is the bracket step and pairings the pairing one.
On the fibre product, pair_admitted is the step of pair_bracket: its
section is leibniz_sum with the tangents eta1, eta2 as anchors (the table
term on the sections; the varying sections when eta1 is nonzero; the
nonzero tangents when u1 is not constant), plus the tangent bracket
[eta1, eta2], which admits the nonzero tangents when eta1 is nonzero and
not constant and the varying tangents when it is constant; the Courant
inverse image adds its one-form terms (pullback). The test of one pair
is the admission step on one column, read from the same masks: paired is
pairings and AnchoredModule.bracket_vanishes is admitted, each on the one
column v; they serve the single pairs of transgression.TauModule.bracket.

pruned_entries makes only the admitted entries of a table, in row order,
each when its pair is reached, and pruned_table is their dict. Every full
ordered table of a list of sections goes through one of two table
operations: AnchoredModule.bracket_entries, the bracket on each pair that
admitted allows (each section's support taken once, or passed by a caller
that holds it, its anchor once on its first bracket), and
courant.CourantData.pairing_entries, the pairing on each pair that
pairings allows on its pairing masks (one list passed as both sides has
its supports taken once); bracket_table and pairing_table are their
dicts, where a missing key is a zero entry. courant.curvature,
courant.CourantCombination and the closure check of dirac.check_dirac
read the tables; bracket_failures and the pairing check of
courant.check_courant_morphism walk the entries along the pairs they
check (every_pair), so a refuted check stops at its first counterexample
with at most one entry made past it. The sites that keep their own
masks are lazy, run over the pairs i <= j, or work on presentation
tuples: jacobi_generator_failures, the generator triples of the Jacobi
identity for both verdicts, skips each of the three brackets of J(e_a,
e_b, e_c) that the generator x table-row or row x generator masks rule
out, and the whole triple when they rule out all three; check_courant's
generator cases (courant); anchor_defects, the anchor defects A(e_a, e_b)
of both verdicts, leaves out a pair with no table entry whose anchor
bracket the lemma rules out (an anchor row zero, or both rows constant);
the isotropy checks of courant.Connection and dirac.check_dirac; both
inverse images, whose ambient pairing needs, for each one-form term
beta(eta), an index where both are nonzero, with the isotropy and
closure checks of their relations (pullback.check_relation_absorption);
transgression.check_tau_rules, lazy, on its degree-0 elements against the
odd generators in both orders; and transgression.TauModule.bracket, on
single pairs. A ruled-out bracket
or pairing is zero, and computing it would have formed no product of
positive degree, so it made no chart check; the structure rows it reads
were checked when the frozen structure was built.

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
does antisymmetric_table, which reads the bracket table of the Lie inverse
image and refuses one that is not antisymmetric.

The second half presents fibre products, once for both inverse images.
The shape questions read ChartMap.slots: the identity, a coordinate
projection and a coordinate embedding have as slots the source coordinates
in order, distinct source coordinates, and every source coordinate once
with the rest zero. Three fibre classes present the inverse image's fibre
product, each with one basis of (tangent, section) pairs and one reader,
coords(tangent, section): Embedding and Submersion check the shape their
mode needs and raise UnsupportedModeError when the map does not have it,
and Split lifts through a splitting of the anchor (split_lifts) and reads
the rest through a frame of its kernel. Submersion reads a square Jacobian,
and Split its kernel frame, through the one polynomial left inverse
linalg.left_inverse; both take the Jacobian their caller holds, the one
ChartMap.jacobian builds once per map. The Lie inverse image reads Split only (its
transitive-split mode); the Courant inverse image reads Embedding,
Submersion (for the identity too) and, in its exact-split mode, Split.
classify_map picks the Courant mode when none is given, asking the same
shape questions before its unit-determinant test. Presentation is a basis
of slot tuples, the relations it divides by (both fixed when it is made),
a reader, and the one reduce that checks every reading by rebuilding its
input from nonzero entries only (the zero element needs no reading, so
the zero brackets that fill most pulled tables cost no reader call): both
inverse images are
Presentations ((tangent, section) pairs for Lie, (beta, u, eta) triples for
Courant), and so is the Courant Baer combination
(courant.CourantCombination, one section per summand). constant_complement
picks constant complements.

Last, the inverse image as a functor, once for both stacks: comparison
(psi+(phi+A) -> (phi psi)+A) and pulled_morphism (f+M) are generator
matrices built on Presentation.push; only pull_element is stack-specific.
check_chain_associative compares the two routes of comparisons through a
three-map chain (Lemma L2); each stack passes how it pulls and lifts a
frame, and its morphism checks (lie_algebroid.check_compose_associative,
pullback.check_courant_compose_associative).
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, product
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

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
    mat_mul,
    unit_vec,
    vec_add,
    vec_eq,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)
from algebroids.report import Report
from algebroids.symcalc import Chart, ChartMap, Poly, VField

Entry = Callable[[int, int], "Vec | None"]
T = TypeVar("T")
Frame = TypeVar("Frame")


def require_chart(chart: Chart, *vecs: Sequence[Poly]) -> None:
    """ChartMismatchError unless every entry of vecs lies on chart.

    Structure data checks its rows with it once, when it is built. A
    shortcut that skips a zero or constant entry of an argument also skips
    the arithmetic that would have refused it for lying on another chart,
    so it makes this check instead."""
    for vec in vecs:
        for p in vec:
            if p.chart is not chart and p.chart != chart:
                raise ChartMismatchError("entry on wrong chart")


def bits(m: int) -> list[int]:
    """The set bits of the mask m, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def leibniz_sum(
    rank: int,
    entry: Entry,
    u: Vec,
    w: Vec,
    xi: VField,
    eta: VField,
    supports: tuple[Support, Support] | None = None,
) -> list[Poly]:
    """sum_ab u_a w_b entry(a, b) + xi(w_k) - eta(u_k), one entry per generator.

    entry(a, b) is the table vector of a generator pair, None when it is
    zero; xi and eta, on one chart, stand for the anchors of u and w.
    supports is (support(u), support(w)), passed by a caller that holds
    them (a presentation's basis supports); None computes both here. Every
    loop runs over the set bits of a mask: xi(w_k) is computed only when xi
    is nonzero and w_k is not constant, since a derivation kills constants
    and the zero field kills everything, so a constant w skips the loop;
    likewise eta(u_k); and the table term reads only a in supp u and b in
    supp w. The chart check those skipped calls of VField.apply would have
    made on u and w is made up front by require_chart.
    """
    chart = xi.chart
    require_chart(chart, u, w)
    su, sw = (support(u), support(w)) if supports is None else supports
    u_bits, w_bits = bits(su.mask), bits(sw.mask)
    out = [Poly.zero(chart)] * rank
    if not (sw.constant or xi.is_zero):
        for k in w_bits:
            if w[k].as_constant() is None:
                out[k] = xi.apply(w[k])
    if not (su.constant or eta.is_zero):
        for k in u_bits:
            if u[k].as_constant() is None:
                out[k] = out[k] - eta.apply(u[k])
    for a in u_bits:
        for b in w_bits:
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
            cache[key] = None if got is None else f.pull_vec(got)
        return cache[key]

    return pulled


def pair_bracket(
    chart: Chart,
    rank: int,
    entry: Entry,
    x: tuple[Vec, Vec],
    y: tuple[Vec, Vec],
    supports: tuple[tuple[Support, Support], tuple[Support, Support]] | None = None,
) -> tuple[Vec, Vec]:
    """The bracket of two fibre-product pairs (tangent, section) over chart:
    the tangent bracket, and leibniz_sum with the tangents as anchors; entry
    reads the pulled table. supports, the supports of the slots of x and y
    when the caller holds them, pass on to leibniz_sum; None computes them
    there. The tangent bracket is computed only when both tangents are
    nonzero, being zero otherwise. pair_admitted tells from the supports
    of a table's pairs which brackets may be nonzero."""
    xi, eta = VField(chart, x[0]), VField(chart, y[0])
    sections = None if supports is None else (supports[0][1], supports[1][1])
    section = tuple(leibniz_sum(rank, entry, x[1], y[1], xi, eta, sections))
    if xi.is_zero or eta.is_zero:
        return zero_vec(chart, chart.dim), section
    return xi.bracket(eta).comps, section


class Support(NamedTuple):
    """What Lemma L14 reads of a vector: the bit mask of its nonzero
    entries (bit i for entry i), and whether every entry is constant (zero
    is constant)."""

    mask: int
    constant: bool


def mask(vec: Vec) -> int:
    """The bit mask of the nonzero entries of vec, bit i for entry i."""
    return sum(1 << i for i, p in enumerate(vec) if not p.is_zero)


def support(vec: Vec) -> Support:
    """The Support of vec, in one pass: a zero entry is constant."""
    bit, m, constant = 1, 0, True
    for p in vec:
        if not p.is_zero:
            m |= bit
            constant = constant and p.as_constant() is not None
        bit <<= 1
    return Support(m, constant)


def paired(rows: Sequence[int], u: Support, v: Support) -> bool:
    """Whether some a in supp u has rows[a] meeting supp v: pairings on the
    one column v. With rows the masks of a matrix's rows (mask), this asks
    for a nonzero g_ab with a in supp u and b in supp v: without one,
    sum_ab u_a g_ab v_b and every sum_b g_ab v_b vanish (Lemma L14 on
    pairings)."""
    return bool(spread(rows, u.mask) & v.mask)


def spread(rows: Sequence[int], m: int) -> int:
    """The union of rows[a] over the set bits a of the mask m: with rows
    the table masks of a module, the b with a nonzero entry (a, b) for some
    a in m."""
    out = 0
    while m:
        low = m & -m
        out |= rows[low.bit_length() - 1]
        m ^= low
    return out


class Columns:
    """One slot of the columns of a table, as Lemma L14 reads it, built once
    per table from the column supports: index[b] has bit y set when column
    y's support has bit b, and nonzero and varying are the masks of the
    columns whose support is nonzero, and not constant (a varying column is
    nonzero)."""

    def __init__(self, supports: Sequence[Support]):
        width = max((s.mask.bit_length() for s in supports), default=0)
        index = [0] * width
        nonzero = varying = 0
        for y, s in enumerate(supports):
            bit = 1 << y
            if s.mask:
                nonzero |= bit
            if not s.constant:
                varying |= bit
            m = s.mask
            while m:
                low = m & -m
                index[low.bit_length() - 1] |= bit
                m ^= low
        self.index, self.nonzero, self.varying = index, nonzero, varying

    def meeting(self, m: int) -> int:
        """The columns whose support meets the mask m."""
        return spread(self.index, m & ((1 << len(self.index)) - 1))


def pairings(rows: Sequence[int], xs: Sequence[Support], ys: Sequence[Support]) -> list[int]:
    """Lemma L14 on pairings over a table, rows being the row masks of the
    matrix: for each row support x of xs, the mask of the columns y with
    paired(rows, x, ys[y]), the columns meeting the rows over supp x."""
    cols = Columns(ys)
    return [cols.meeting(spread(rows, x.mask)) for x in xs]


def pair_admitted(
    table: Sequence[int],
    xs: Sequence[tuple[Support, Support]],
    tangents: Columns,
    sections: Columns,
) -> list[int]:
    """Lemma L14 on pair_bracket over a table: for each row (eta1, u1) of
    xs, the mask of the columns (eta2, u2) whose bracket it admits; table
    is the source module's table masks (a pulled entry is zero where its
    source entry is), and tangents and sections are the two slots of the
    columns. The table term admits the sections meeting the table rows over
    supp u1; eta1(u2) the varying sections when eta1 is nonzero; eta2(u1)
    the nonzero tangents when u1 is not constant; and [eta1, eta2] the
    nonzero tangents when eta1 is nonzero and not constant, the varying
    ones when it is constant."""
    out = []
    for eta, u in xs:
        m = sections.meeting(spread(table, u.mask))
        if eta.mask:
            m |= sections.varying | (tangents.varying if eta.constant else tangents.nonzero)
        if not u.constant:
            m |= tangents.nonzero
        out.append(m)
    return out


def pruned_entries(
    admitted: Sequence[int], bracket: Callable[[int, int], T]
) -> Iterator[tuple[tuple[int, int], T]]:
    """((x, y), bracket(x, y)) on each ordered pair (x, y) of basis indices
    that Lemma L14 admits: bit y of admitted[x] set, the masks of one
    admission step (pairings, pair_admitted, AnchoredModule.admitted, and
    the presentations' own). A ruled-out pair is left out, as a zero table
    entry would be dropped; every admitted pair is bracketed, in both
    orders when both are admitted, in row order, each when its pair is
    reached."""
    for x, row in enumerate(admitted):
        for y in bits(row):
            yield (x, y), bracket(x, y)


def pruned_table(
    admitted: Sequence[int], bracket: Callable[[int, int], T]
) -> dict[tuple[int, int], T]:
    """The table of pruned_entries: a missing key is a ruled-out pair."""
    return dict(pruned_entries(admitted, bracket))


def every_pair(
    entries: Iterator[tuple[tuple[int, int], T]], n: int
) -> Iterator[tuple[int, int, T | None]]:
    """(a, b, entry) for each ordered pair of range(n) in row order, entry
    None for a pair that entries, row-ordered pairs of range(n) such as
    pruned_entries yields, leaves out. entries is read one entry ahead, so
    a reader that stops early has made at most one entry past its stop."""
    key, value = next(entries, (None, None))
    for pair in product(range(n), repeat=2):
        if pair == key:
            yield *pair, value
            key, value = next(entries, (None, None))
        else:
            yield *pair, None


class AnchoredModule:
    """What LieData and CourantData share: chart, rank, anchor, structure.

    Subclasses are frozen dataclasses declaring those four fields; they
    call _validate from __post_init__. structure maps a generator pair to
    its bracket vector, read-only; _entry reads it (None for zero), and a
    subclass that stores its table differently overrides _entry. The data
    are validated once, when the instance is built, and cannot change
    after, so the cached masks cannot go stale; a mutant is a new instance
    (dataclasses.replace).
    """

    chart: Chart
    rank: int
    anchor: tuple[Vec, ...]
    structure: Mapping[tuple[int, int], Vec]

    def _validate(self) -> None:
        """Check the anchor and the table, and store them normalised: the
        anchor as tuples, the table read-only and without zero entries."""
        anchor = tuple(tuple(row) for row in self.anchor)
        if len(anchor) != self.rank:
            raise ValidationError("anchor needs one row per generator")
        for row in anchor:
            if len(row) != self.chart.dim:
                raise ValidationError("anchor row has wrong length")
            require_chart(self.chart, row)
        clean = {}
        for (a, b), vec in self.structure.items():
            vec = tuple(vec)
            if not (0 <= a < self.rank and 0 <= b < self.rank):
                raise ValidationError(f"structure key {(a, b)} out of range")
            if len(vec) != self.rank:
                raise ValidationError("structure vector has wrong length")
            require_chart(self.chart, vec)
            if not vec_is_zero(vec):
                clean[(a, b)] = vec
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "structure", MappingProxyType(clean))

    def __reduce__(self):
        """Copy and pickle through the constructor, the table as a dict (a
        read-only mapping does not pickle), so a copy is validated again."""
        return type(self), tuple(
            dict(self.structure) if f.name == "structure" else getattr(self, f.name)
            for f in fields(self)
        )

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

    def require_rank(self, *vecs: Sequence[Poly]) -> None:
        """ValidationError unless every vector has the rank's length."""
        for s in vecs:
            if len(s) != self.rank:
                raise ValidationError(f"section of length {len(s)}, not rank {self.rank}")

    def _either_zero(self, u: Vec, v: Vec) -> bool:
        """Whether u or v is the zero section, so that their bracket is.

        ValidationError when either has a length other than the rank. The
        zero bracket skips the arithmetic that would have refused a section
        of another chart, so before it is returned both are checked for
        that too (ChartMismatchError)."""
        self.require_rank(u, v)
        if not (vec_is_zero(u) or vec_is_zero(v)):
            return False
        require_chart(self.chart, u, v)
        return True

    @cached_property
    def anchor_mask(self) -> int:
        """Bit a set when generator a has a nonzero anchor row."""
        return sum(1 << a for a, row in enumerate(self.anchor) if not vec_is_zero(row))

    @cached_property
    def table_masks(self) -> tuple[int, ...]:
        """One mask per table row: bit b of row a set when _entry(a, b) is
        not None."""
        r = self.rank
        return tuple(
            sum(1 << b for b in range(r) if self._entry(a, b) is not None)
            for a in range(r)
        )

    @cached_property
    def varying_masks(self) -> tuple[int, ...]:
        """The rows Lemma L14 reads over the support of a left section that
        is not constant: the table masks; CourantData adds its pairing rows
        (the coanchor term)."""
        return self.table_masks

    def bracket_vanishes(self, su: Support, sv: Support) -> bool:
        """Whether Lemma L14 shows bracket to be zero on sections with the
        supports su and sv: admitted on the one column sv, read from the
        same masks. It serves the single pairs of
        transgression.TauModule.bracket; a table reads admitted."""
        rows = self.table_masks if su.constant else self.varying_masks
        return not (
            spread(rows, su.mask) & sv.mask
            or (su.mask & self.anchor_mask and not sv.constant)
            or (sv.mask & self.anchor_mask and not su.constant)
        )

    def admitted(self, xs: Sequence[Support], ys: Sequence[Support]) -> list[int]:
        """Lemma L14 on bracket over a table: for each row support u of xs,
        the mask of the columns v of ys whose bracket with u it admits, bit
        y set unless bracket_vanishes(u, ys[y]). The table term (and the
        coanchor term of Courant data) admits the columns meeting the rows
        over supp u, varying_masks when u is not constant; anchor(u)(v_k)
        the varying columns when u is anchored; anchor(v)(u_k) the anchored
        columns when u is not constant."""
        cols = Columns(ys)
        anchored = cols.meeting(self.anchor_mask)
        out = []
        for s in xs:
            if s.constant:
                m = cols.meeting(spread(self.table_masks, s.mask))
            else:
                m = cols.meeting(spread(self.varying_masks, s.mask)) | anchored
            if s.mask & self.anchor_mask:
                m |= cols.varying
            out.append(m)
        return out

    def bracket(
        self,
        u: Vec,
        v: Vec,
        anchors: tuple[VField, VField] | None = None,
        supports: tuple[Support, Support] | None = None,
    ) -> Vec:
        """The bracket of sections u and v. anchors is (anchor_of(u),
        anchor_of(v)), passed by a caller that brackets the same sections
        many times and computes each anchor once (bracket_table), and
        supports is (support(u), support(v)), passed by a caller that holds
        them; None computes them here (in leibniz_sum for supports). A zero
        section is answered here, the one _either_zero test of a bracket;
        two nonzero sections get the table-plus-Leibniz sum and the
        subclass's correction (_correct)."""
        if self._either_zero(u, v):
            return self.zero_section()
        if anchors is None:
            anchors = self.anchor_of(u), self.anchor_of(v)
        return self._correct(
            u, v, tuple(leibniz_sum(self.rank, self._entry, u, v, *anchors, supports))
        )

    def _correct(self, u: Vec, v: Vec, total: Vec) -> Vec:
        """total, the table-plus-Leibniz sum of nonzero sections u and v, as
        the bracket reads it: unchanged here; CourantData adds its coanchor
        term."""
        return total

    def bracket_entries(
        self, sections: Sequence[Vec], supports: Sequence[Support] | None = None
    ) -> Iterator[tuple[tuple[int, int], Vec]]:
        """((i, j), bracket(sections[i], sections[j])) on each ordered pair
        (i, j) that admitted allows on the supports of sections, in row
        order, each bracket made when its pair is reached (pruned_entries).
        supports are those of sections, passed by a caller that holds
        them; None takes each once here. Each section's anchor is taken
        once, on the first bracket it enters; a zero section enters none."""
        if supports is None:
            supports = [support(s) for s in sections]

        @cache
        def anchor(i: int) -> VField:
            return self.anchor_of(sections[i])

        def bracket(i: int, j: int) -> Vec:
            u, v = sections[i], sections[j]
            return self.bracket(u, v, (anchor(i), anchor(j)), (supports[i], supports[j]))

        return pruned_entries(self.admitted(supports, supports), bracket)

    def bracket_table(
        self, sections: Sequence[Vec], supports: Sequence[Support] | None = None
    ) -> dict[tuple[int, int], Vec]:
        """The table of bracket_entries: a missing key is a bracket Lemma
        L14 shows to be zero."""
        return dict(self.bracket_entries(sections, supports))


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


def jacobi_generator_failures(m: AnchoredModule, *, skew: bool = False) -> Iterator[str]:
    """The jacobiator on every generator triple, inner brackets read from
    the table. [e_a, row(b, c)] and [e_b, row(a, c)] range over the same
    brackets [e_x, row(y, z)], so each is computed once, on first use; a
    table built up front would defeat the early exit at the first failure.

    Lemma L14 prunes each of the three brackets: one that m.admitted rules
    out on the supports of the generator and the table row is zero and is
    not computed, and a triple whose three brackets are all ruled out has a
    zero jacobiator and is skipped. The generator x row masks (column y r +
    z for row (y, z)) and the row x generator masks are taken once, up
    front, as the supports are. The triples keep their order, so the
    failures and their labels are those of the unpruned loop.

    Lemma L15: where the caller's verdicts make the bracket skew up to
    c(d<u, v>) on all sections (eq3-eq6 for Courant data, antisymmetry
    for Lie data), J(u,v,w) + J(v,u,w) and J(u,v,w) + J(u,w,v) vanish, so
    J is totally skew and J(e_a, e_a, e_b) = 0. The first failing triple
    in lexicographic order is then strictly increasing, and skew=True walks
    only a < b < c: same first failure, defect included."""
    r = m.rank
    gen = [m.gen(a) for a in range(r)]
    gen_supports = [support(e) for e in gen]
    row = [m.bracket_gen(a, b) for a, b in product(range(r), repeat=2)]
    row_supports = [support(vec) for vec in row]
    gen_row_masks = m.admitted(gen_supports, row_supports)
    row_gen_masks = m.admitted(row_supports, gen_supports)
    zero = m.zero_section()

    @cache
    def gen_row(x: int, y: int, z: int) -> Vec | None:
        k = y * r + z
        if not gen_row_masks[x] >> k & 1:
            return None
        return m.bracket(gen[x], row[k], supports=(gen_supports[x], row_supports[k]))

    def row_gen(x: int, y: int, z: int) -> Vec | None:
        k = x * r + y
        if not row_gen_masks[k] >> z & 1:
            return None
        return m.bracket(row[k], gen[z], supports=(row_supports[k], gen_supports[z]))

    for a, b, c in combinations(range(r), 3) if skew else product(range(r), repeat=3):
        terms = gen_row(a, b, c), row_gen(a, b, c), gen_row(b, a, c)
        if terms == (None, None, None):
            continue
        inner, left, outer = (zero if t is None else t for t in terms)
        defect = vec_sub(inner, vec_add(left, outer))
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


def anchor_defects(m: AnchoredModule) -> dict[tuple[int, int], VField]:
    """A(e_a, e_b) on the generator pairs, in order, that may give a nonzero
    defect. A pair with no table entry whose anchor bracket is ruled out,
    an anchor row being zero or both rows constant, has A = 0 and is left
    out (Lemma L14: a derivation kills constants, and the zero field kills
    everything). The skipped brackets need no anchor-row check: m is
    frozen, its rows checked when it was built."""
    row_supports = [support(row) for row in m.anchor]
    table = m.table_masks
    return {
        (a, b): anchor_defect(m, a, b)
        for (a, sa), (b, sb) in product(enumerate(row_supports), repeat=2)
        if table[a] >> b & 1
        or (sa.mask and sb.mask and not (sa.constant and sb.constant))
    }


def anchor_failures(
    src: AnchoredModule, dst: AnchoredModule, matrix: Sequence[Vec]
) -> Iterator[str]:
    """Generators a of src whose anchor, anchor row a, is not the dst anchor
    of matrix[a]."""
    for a in range(src.rank):
        if VField(src.chart, src.anchor[a]) != dst.anchor_of(matrix[a]):
            yield f"generator {a}"


def bracket_failures(
    src: AnchoredModule,
    dst: AnchoredModule,
    matrix: Sequence[Vec],
    supports: Sequence[Support] | None = None,
) -> Iterator[str]:
    """Generator pairs of src whose table bracket, mapped through matrix, is
    not the dst bracket of their images.

    The dst brackets of the rows are dst.bracket_entries(matrix, supports),
    supports being those of the rows, passed by a caller that holds them
    (None takes them there). They are walked in row order as the pairs are
    checked (every_pair), so a check that
    stops at its first counterexample brackets at most one pair past it; a
    pair with no table entry maps to zero and holds without a bracket when
    Lemma L14 rules out the bracket of its images. The rank and chart
    checks that such a skipped dst.bracket would have made on the rows are
    the caller's, made once on the matrix before any of its checks
    (check_courant_morphism, and the Lie comparison checks of
    lie_algebroid.check_compose_associative)."""
    table = src.table_masks
    zero = dst.zero_section()
    for a, b, got in every_pair(dst.bracket_entries(matrix, supports), src.rank):
        if got is None:
            if not table[a] >> b & 1:
                continue
            got = zero
        lhs = apply_matrix(matrix, src.bracket_gen(a, b), dst.rank, dst.chart)
        if not vec_eq(lhs, got):
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


def antisymmetric_table(
    n: int, bracket: Callable[[int, int], Vec], error: str
) -> dict[tuple[int, int], Vec]:
    """bracket(x, y) on pairs x <= y of n generators; raises
    ValidationError(error) where bracket(y, x) is not their negation, so on
    the diagonal where bracket(x, x) is not zero."""
    structure = {}
    for x in range(n):
        for y in range(x, n):
            structure[(x, y)] = got = bracket(x, y)
            if x < y:
                got = vec_add(got, bracket(y, x))
            if not vec_is_zero(got):
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
        self.pulled_anchor = [f.pull_vec(row) for row in anchor]
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
    with nothing vertical; jac is the Jacobian of f, read only then. The
    basis pairs are (horizontal lift of the pulled anchor of e_a, e_a) per
    generator a, then (d_v, 0) per vertical v.
    """

    def __init__(self, f: ChartMap, anchor: Sequence[Vec], jac: Sequence[Vec]):
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
            self.inverse = linalg.left_inverse(jac)
            if self.inverse is None:
                raise UnsupportedModeError(
                    "coordinate-submersion mode needs an invertible map: the "
                    "Jacobian has no polynomial inverse"
                )
            self.lifts = [tuple(col) for col in zip(*self.inverse)]
            self.vertical = []
        rank = len(anchor)
        self.basis = [
            (self.lift(f.pull_vec(row)), unit_vec(chart, rank, a))
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
        self.left = [f.pull_vec([row[a] for row in left]) for a in range(rank)]
        self.chart = f.source
        self.rank = rank
        self.lifts = split_lifts(f, columns, rank, jac)

    @cached_property
    def basis(self) -> list[tuple[Vec, Vec]]:
        chart, dim = self.chart, self.chart.dim
        zero = zero_vec(chart, dim)
        return [(unit_vec(chart, dim, i), lift) for i, lift in enumerate(self.lifts)] + [
            (zero, self.map.pull_vec(row)) for row in self.frame
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
    pulled = [f.pull_vec(col) for col in columns]
    n = f.target.dim
    return [
        apply_matrix(pulled, tuple(jac[k][i] for k in range(n)), rank, f.source)
        for i in range(f.source.dim)
    ]


Keyed = tuple[tuple[tuple[int, int], Poly], ...]


def _nonzero_entries(element: tuple[Vec, ...]) -> Keyed:
    """((slot, index), entry) for each nonzero entry of element."""
    return tuple(
        ((s, i), p)
        for s, vec in enumerate(element)
        for i, p in enumerate(vec)
        if not p.is_zero
    )


def _rebuild(got: dict[tuple[int, int], Poly], coeffs: Vec, entries: Sequence[Keyed]) -> None:
    """Add sum_c coeffs[c] element_c into got, element_c given by its
    nonzero entries (_nonzero_entries): one product per nonzero coefficient
    and nonzero entry. A reading of another length than entries raises."""
    for coeff, row in zip(coeffs, entries, strict=True):
        if coeff.is_zero:
            continue
        for key, img in row:
            term = coeff * img
            got[key] = got[key] + term if key in got else term


class Presentation:
    """A module presented on a basis of slot tuples over chart.

    An ambient element is a tuple of vectors over chart, slot s of length
    sizes[s]: the Lie inverse image uses the (tangent, section) pairs of the
    fibre classes, the Courant one (beta, u, eta) triples, and the Courant
    Baer combination one section per summand. basis holds one element per
    class generator, relations the elements the class module divides by
    (none by default), both fixed when the presentation is made, and
    read(element) returns (class coordinates, relation coefficients).
    reduce checks every reading by rebuilding its input, so a reader never
    has to prove that an element lies in the fibre product. The rebuild
    reads only nonzero entries: the nonzero entries of each basis element
    and each relation, keyed by (slot, index), are taken once here, and
    nothing changes basis or relations after.
    """

    def __init__(
        self,
        chart: Chart,
        sizes: tuple[int, ...],
        basis: Sequence[tuple[Vec, ...]],
        read: Callable[[tuple[Vec, ...]], tuple[Vec, Vec]],
        relations: Sequence[tuple[Vec, ...]] = (),
    ):
        self.chart, self.sizes = chart, sizes
        self.basis = tuple(basis)
        self.relations = tuple(relations)
        self._read = read
        self._basis_entries = tuple(map(_nonzero_entries, self.basis))
        self._relation_entries = tuple(map(_nonzero_entries, self.relations))

    @cached_property
    def supports(self) -> tuple[tuple[Support, ...], ...]:
        """One Support per slot of each basis element, taken once for every
        table and check that Lemma L14 prunes."""
        return tuple(tuple(map(support, element)) for element in self.basis)

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

    def reduce(self, element: tuple[Vec, ...]) -> Vec:
        """The class coordinates of element; ValidationError when the
        reading does not rebuild it, the element being outside the fibre
        product.

        An element whose slot lengths are not sizes is refused before it is
        read. One scan of the element counts its nonzero entries and finds
        any zero entry on another chart. The zero element, every entry zero
        on chart, is answered with the zero class without the reader: zero
        lies in every fibre product, and the zero class with no relation
        rebuilds it. An element with a zero entry on another chart is
        refused unread, as its rebuild, on chart, could not equal it. Every
        other element is read, and the reading (cls, rel) is rebuilt as
        sum_c cls_c basis_c + sum_k rel_k relations_k from the nonzero
        coefficients and the nonzero entries of each basis element and
        relation, forming every product a dense rebuild forms, and no
        other. The reading is accepted only when each nonzero rebuilt entry
        equals the element's entry at the same (slot, index) and the
        element has as many nonzero entries as the rebuild: the rebuilt
        keys are then exactly the element's nonzero entries, and every
        other entry of both is zero on chart, so the rebuild is the
        element.
        """
        lengths = tuple(map(len, element))
        if lengths != self.sizes:
            raise ValidationError(
                f"element has slot lengths {lengths}, not {self.sizes}"
            )
        chart = self.chart
        nonzero = 0
        for vec in element:
            for p in vec:
                if not p.is_zero:
                    nonzero += 1
                elif p.chart is not chart and p.chart != chart:
                    raise ValidationError("element is not in the fiber product")
        if not nonzero:
            return zero_vec(chart, len(self.basis))
        cls, rel = self._read(element)
        got: dict[tuple[int, int], Poly] = {}
        _rebuild(got, cls, self._basis_entries)
        _rebuild(got, rel, self._relation_entries)
        rebuilt = [(key, p) for key, p in got.items() if not p.is_zero]
        if len(rebuilt) != nonzero or not all(
            element[s][i] == p for (s, i), p in rebuilt
        ):
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
    rows = [pb_b.on_section(pb_a.map.pull_vec(row)) for row in matrix]
    return [pb_b.push(b, rows) for b in pb_a.basis]


def check_chain_associative(
    pull: Callable[[ChartMap, T, Frame], Presentation],
    lift: Callable[[Presentation, Frame], Frame],
    structure: T,
    frame: Frame,
    maps: Sequence[ChartMap],
    comparison_checks: Callable[[T, T, list[Vec]], Report],
    prefix: str | None = None,
) -> Report:
    """Both composition routes through a three-map chain agree on sections,
    and the comparison of the first two maps passes its stack's morphism
    checks.

    maps = (phi, psi, xi) with phi: Y -> X, psi: Z -> Y, xi: W -> Z and
    structure on X. pull(f, s, frame) presents the inverse image of s
    along f through frame (a splitting of the anchor of s for Lie data, a
    connection for Courant data); frame is that of structure. lift(pb,
    frame) is the frame of pb.result, pb pulled through frame. It is taken
    only for the images along phi, psi and phi psi, the three that are
    pulled back again.

    Lemma L2: both routes are function-linear in the section e. Each
    composes sums over a basis, generator matrices applied by apply_matrix,
    and Presentation.reduce, which is a function-linear reader followed by
    an exact reconstruction; the sections that reconstruct form a submodule.
    So the routes agree on every section exactly when they agree on the
    unit sections of the presentation over W, and a reduction that raises
    on some section raises on some unit section. So
    composition_associative compares two products of generator matrices
    row by row: xi+ of the comparison of (phi, psi) then that of
    (phi psi, xi), against the comparison of (psi, xi) then (phi, psi xi).
    Each route must have one row per generator over W, or a short route
    would compare fewer rows.

    comparison_checks(middle, composite, matrix) is the stack's report on
    the comparison psi+(phi+A) -> (phi psi)+A, middle and composite the
    structures it maps between; it is merged under prefix.
    """
    phi, psi, xi = maps
    p_phi = pull(phi, structure, frame)
    f_phi = lift(p_phi, frame)
    p_psi = pull(psi, p_phi.result, f_phi)
    p_xi = pull(xi, p_psi.result, lift(p_psi, f_phi))

    phi_psi = phi.compose(psi)
    p_phi_psi = pull(phi_psi, structure, frame)
    p_xi_of_composite = pull(xi, p_phi_psi.result, lift(p_phi_psi, frame))
    psi_xi = psi.compose(xi)
    p_psi_xi = pull(psi_xi, p_phi.result, f_phi)
    p_full = pull(phi.compose(psi_xi), structure, frame)

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
        rank = len(p_xi.basis)
        for name, route in (("route 1", route1), ("route 2", route2)):
            if len(route) != rank:
                yield f"{name}: rows for {len(route)} of {rank} generators"
        for g, (r1, r2) in enumerate(zip(route1, route2)):
            if not vec_eq(r1, r2):
                yield f"generator {g}: {fmt_section(r1)} vs {fmt_section(r2)}"

    rep = Report()
    rep.check("composition_associative", associative())
    rep.merge(comparison_checks(p_psi.result, p_phi_psi.result, cmatrix), prefix)
    return rep
