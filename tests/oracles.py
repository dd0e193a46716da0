"""Constructions the tests build inputs from, and reference oracles they
compare the package against. No verb reaches these, so they live with the
tests rather than in the package.

Fixtures: opposite, direct_sum and scalar_multiple build Courant structures
from others, connection_shift shifts a connection by a two-form,
graph_of_two_form is the Dirac structure of that shift, and expand is the
element of a presentation with given class coordinates. Oracles:
associated_lie_algebroid is the Lie algebroid of a Courant structure, the
quotient by its coanchor image (constant_quotient), against which the
inverse image of an exact structure is checked to stay exact; and
courant_from_transgression reads the structure data back out of the public
operations of a transgression, which is how the round trip of tau-roundtrip
is checked; unpruned_tau_bracket is TauModule.bracket on the four
branches that Lemma L14 prunes, with every part computed, and
unpruned_tau_rules is check_tau_rules with every case bracketed through
it; unpruned_generator_cases and unpruned_first_labels are the generator
terms and first labels of check_courant with no term skipped on its
supports, masks or constant entries; and unpruned_twist is courant.twist
with the twist term computed on every generator pair, zero anchors
included.
scanned_constant is Poly.as_constant as it read the term dictionary before
a chart held the exponent tuple of its constant term. check_names lists
the names of a report's checks in order.

The algebra only tests use, as functions: kform_neg, kform_sub and
kform_scale on forms; vfield_zero, vfield_scale, vfield_add and vfield_neg
on vector fields; tau_is_zero and tau_add on elements of a transgression.

Lemma L14 one pair at a time, the references the admitted masks of a whole
table are tested against: pair_bracket_vanishes on two (tangent, section)
pairs, through leibniz_vanishes, the test of leibniz_sum with any fields
standing for the anchors; pullback_bracket_vanishes and pullback_pairing_vanishes on two
triples of a CourantPullback, with share, the shared-index test of a
one-form against a tangent; and combination_vanishes and
combination_unpaired on two basis elements of a CourantCombination.
predicate_masks turns such a test into the masks of a table. And the
whole tables those masks prune: unpruned_bracket_table and
unpruned_pairing_table take every ordered pair and drop the zero entries,
the references of AnchoredModule.bracket_table and
CourantData.pairing_table.

build_parser is the argparse parser of the command line, written apart
from cli._parser: the reference cli.parse_argv is tested against.
"""

import argparse
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from typing import Sequence

from algebroids import linalg
from algebroids.cli import VERBS
from algebroids.anchored import (
    AnchoredModule,
    Presentation,
    Support,
    antisymmetric_table,
    constant_complement,
    jacobi_counterexample,
    jacobi_left_probe_failures,
    jacobiator,
    paired,
    probe,
)
from algebroids.courant import (
    Connection,
    CourantCombination,
    CourantData,
    generator_defects,
)
from algebroids.dirac import DiracData
from algebroids.errors import ChartMismatchError, ValidationError
from algebroids.lie_algebroid import LieData
from algebroids.linalg import Vec, apply_constant, unit_vec, vec_add, vec_is_zero, vec_sub
from algebroids.pullback import CourantPullback
from algebroids.report import Report
from algebroids.symcalc import Chart, KForm, Poly, VField, _require_same_chart
from algebroids.transgression import TauElement, TauModule

# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def scanned_constant(p: Poly) -> int | Fraction | None:
    """The value of p if it is constant, else None, read by scanning its
    terms: 0 for none, and the coefficient of a single term whose
    exponents are all zero."""
    if not p.terms:
        return 0
    if len(p.terms) == 1:
        exps, c = next(iter(p.terms.items()))
        if not any(exps):
            return c
    return None


def check_names(rep: Report) -> list[str]:
    return [c.name for c in rep.checks]


def kform_neg(w: KForm) -> KForm:
    result = KForm(w.chart, w.degree)
    result.comps = {idx: -p for idx, p in w.comps.items()}
    return result


def kform_sub(a: KForm, b: KForm) -> KForm:
    return a + kform_neg(b)


def kform_scale(w: KForm, f) -> KForm:
    if isinstance(f, (int, Fraction)):
        f = Poly.const(w.chart, f)
    _require_same_chart(w, f)
    result = KForm(w.chart, w.degree)
    for idx, p in w.comps.items():
        q = f * p
        if not q.is_zero:
            result.comps[idx] = q
    return result


def vfield_zero(chart: Chart) -> VField:
    return VField(chart, (chart.zero,) * chart.dim)


def vfield_scale(v: VField, f) -> VField:
    if isinstance(f, (int, Fraction)):
        f = Poly.const(v.chart, f)
    _require_same_chart(v, f)
    return VField(v.chart, tuple(f * c for c in v.comps))


def vfield_add(u: VField, v: VField) -> VField:
    _require_same_chart(u, v)
    return VField(u.chart, tuple(a + b for a, b in zip(u.comps, v.comps)))


def vfield_neg(v: VField) -> VField:
    return VField(v.chart, tuple(-c for c in v.comps))


def tau_is_zero(x: TauElement) -> bool:
    return x.c_part.is_zero and vec_is_zero(x.section) and x.form.is_zero


def tau_add(x: TauElement, y: TauElement) -> TauElement:
    if x.module != y.module or x.degree != y.degree:
        raise ValidationError("can only add elements of equal degree")
    return TauElement(
        x.module,
        x.degree,
        x.c_part + y.c_part,
        vec_add(x.section, y.section),
        x.form + y.form,
    )


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


def graph_of_two_form(conn: Connection, b: KForm) -> DiracData:
    """Graph of a two-form over a connection: the shifted columns.

    Closed forms give Dirac structures; the closure defect of a non-closed
    form is exactly its exterior derivative evaluated on coordinate triples.
    """
    shifted = connection_shift(conn, b)
    return DiracData(conn.courant, tuple(shifted.columns), ())


def expand(pres: Presentation, cls: Vec) -> tuple[Vec, ...]:
    """The ambient element sum_c cls[c] basis[c] of a presentation, slot by
    slot: the element whose class Presentation.reduce reads back as cls.
    No verb builds one, a generator's element being its basis entry."""
    return tuple(
        linalg.apply_matrix([e[s] for e in pres.basis], cls, size, pres.chart)
        for s, size in enumerate(pres.sizes)
    )


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


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


def courant_from_transgression(tau: TauModule) -> CourantData:
    """Rebuild the structure data from the public bracket operations."""
    chart = tau.chart
    r = tau.rank
    n = chart.dim
    eps = [tau.section_eps(unit_vec(chart, r, a)) for a in range(r)]
    flat = [tau.pair(unit_vec(chart, r, a)) for a in range(r)]
    anchor = tuple(
        tuple(tau.bracket(flat[a], tau.coordinate_c(j)).c_part for j in range(n))
        for a in range(r)
    )
    coanchor = tuple(
        tau.one_form_c(KForm.dx(chart, j)).section for j in range(n)
    )
    pairing = tuple(
        tuple(tau.bracket(eps[a], eps[b]).c_part for b in range(r))
        for a in range(r)
    )
    structure = {
        (a, b): tau.bracket(flat[a], eps[b]).section
        for a, b in product(range(r), repeat=2)
    }
    return CourantData(chart, r, anchor, coanchor, pairing, structure)


def unpruned_tau_bracket(tau: TauModule, x: TauElement, y: TauElement) -> TauElement:
    """The (0,-2), (-1,-1), (0,-1) and (-1,0) branches of TauModule.bracket
    with no support test: the anchor action, the pairing, the section
    bracket and the pairing differential are computed whatever the supports
    of the two sections, and so is the two-form correction when there is a
    two-form."""
    q = tau.courant
    degrees = x.degree, y.degree
    if degrees == (0, -2):
        return tau.function_c(q.anchor_of(x.section).apply(y.c_part))
    if degrees == (-1, -1):
        return tau.function_c(q.pairing_of(x.section, y.section))
    sec = q.bracket(x.section, y.section)
    if degrees == (0, -1):
        if not x.form.is_zero:
            sec = vec_sub(sec, q.coanchor_of(x.form.iota(q.anchor_of(y.section))))
        return tau.section_eps(sec)
    if degrees == (-1, 0):
        d_pairing = KForm.from_poly(q.pairing_of(x.section, y.section)).d()
        sec = vec_sub(sec, q.coanchor_of(d_pairing))
        if not y.form.is_zero:
            sec = vec_add(sec, q.coanchor_of(y.form.iota(q.anchor_of(x.section))))
        return tau.section_eps(sec)
    raise ValueError(f"no pruned branch in degrees {degrees}")


def unpruned_tau_rules(q: CourantData) -> Report:
    """check_tau_rules with no admission mask: the four evaluated rules
    run every case through unpruned_tau_bracket, graded antisymmetry on
    every (x, e_b) and graded Jacobi on every pair b <= c with all three of
    its terms. The probes are those of check_tau_rules, chosen by the
    generator defects M and N, not by supports."""
    tau = TauModule(q)
    chart = q.chart
    coords = chart.coords
    r, n = q.rank, chart.dim
    gens = [q.gen(a) for a in range(r)]
    M, N = generator_defects(q)
    eps = [tau.section_eps(e) for e in gens]
    dx = [KForm.dx(chart, j) for j in range(n)]
    degree_zero = [(f"e{a}", tau.pair(e)) for a, e in enumerate(gens)]
    for i, j in combinations(range(n), 2):
        omega = KForm(chart, 2, {(i, j): Poly.one(chart)})
        degree_zero.append((f"d{coords[i]}^d{coords[j]}", tau.two_form_c(omega)))

    def bracket(x: TauElement, y: TauElement) -> TauElement:
        return unpruned_tau_bracket(tau, x, y)

    def interior_action():
        for a, j in product(range(r), range(n)):
            got = bracket(eps[a], tau.one_form_c(dx[j]))
            if got.c_part != dx[j].iota(q.anchor_of(gens[a])).as_poly():
                yield f"against a dressed one-form: e{a}, d{coords[j]}"

    def lie_action():
        cases = [(f"e{a}", gens[a], j) for a, j in product(range(r), range(n))]
        for a, j, k in product(range(r), range(n), range(n)):
            if not (M[a][j].is_zero and N[j].comps[k].is_zero):
                cases.append((*probe(q, a, k), j))
        for label, u, j in cases:
            got = bracket(tau.pair(u), tau.one_form_c(dx[j]))
            if got != tau.one_form_c(dx[j].lie(q.anchor_of(u))):
                yield f"against a dressed one-form: {label}, d{coords[j]}"

    def graded_antisymmetry():
        for (label, x), b in product(degree_zero, range(r)):
            total = vec_add(bracket(x, eps[b]).section, bracket(eps[b], x).section)
            if not vec_is_zero(total):
                yield f"degrees (0,-1): {label}, e{b}"

    def graded_jacobi():
        cases = list(degree_zero)
        for k in range(n):
            if any(not M[b][k].is_zero for b in range(r)):
                for a in range(r):
                    label, u = probe(q, a, k)
                    cases.append((label, tau.pair(u)))
        for label, x in cases:
            x_eps = [bracket(x, e) for e in eps]
            for b, c in combinations_with_replacement(range(r), 2):
                lhs = bracket(x, bracket(eps[b], eps[c])).c_part
                rhs = bracket(x_eps[b], eps[c]).c_part + bracket(eps[b], x_eps[c]).c_part
                if lhs != rhs:
                    yield f"degrees (0,-1,-1): {label}, e{b}, e{c}"

    rep = Report()
    rep.add("rule_c_central", True)
    rep.add("rule_one_form_rewrite", True)
    rep.check("rule_interior_action", interior_action())
    rep.check("rule_lie_action", lie_action())
    rep.add("rule_odd_pairing", True)
    rep.add("rule_mixed_bracket", True)
    rep.check("graded_antisymmetry", graded_antisymmetry())
    rep.check("graded_jacobi", graded_jacobi())
    rep.add("truncation_guard", True)
    return rep


def unpruned_twist(q: CourantData, h: KForm) -> CourantData:
    """courant.twist with h contracted along the anchor of every generator,
    each anchor computed by anchor_of, and the term added to every pair."""
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


def unpruned_generator_cases(q: CourantData) -> dict:
    """The generator terms of check_courant, each computed on every index
    with nothing skipped: M[a][j] = <e_a, coanchor[j]> - anchor(e_a)^j and
    N[j] = anchor(coanchor[j]); E3[c][a][b] = anchor(e_c)(g_ab)
    - <[e_c, e_a], e_b> - <e_a, [e_c, e_b]>; E4[a, j] = [e_a, coanchor[j]]
    - c(L_{anchor e_a} dx_j); E6[a, b] = [e_a, e_b] + [e_b, e_a] - c(dg_ab);
    and A[a, b] = anchor([e_a, e_b]) - [anchor e_a, anchor e_b]."""
    chart, r, n = q.chart, q.rank, q.chart.dim
    gen = [q.gen(a) for a in range(r)]
    rho = [q.anchor_of(e) for e in gen]
    pairs = list(product(range(r), repeat=2))
    return {
        "M": [
            [q.pairing_of(gen[a], q.coanchor[j]) - q.anchor[a][j] for j in range(n)]
            for a in range(r)
        ],
        "N": [q.anchor_of(row) for row in q.coanchor],
        "E3": [
            [
                [
                    rho[c].apply(q.pairing[a][b])
                    - q.pairing_of(q.bracket(gen[c], gen[a]), gen[b])
                    - q.pairing_of(gen[a], q.bracket(gen[c], gen[b]))
                    for b in range(r)
                ]
                for a in range(r)
            ]
            for c in range(r)
        ],
        "E4": {
            (a, j): vec_sub(
                q.bracket(gen[a], q.coanchor[j]),
                q.coanchor_of(KForm.dx(chart, j).lie(rho[a])),
            )
            for a, j in product(range(r), range(n))
        },
        "E6": {
            (a, b): vec_sub(
                vec_add(q.bracket(gen[a], gen[b]), q.bracket(gen[b], gen[a])),
                q.coanchor_of(KForm.from_poly(q.pairing[a][b]).d()),
            )
            for a, b in pairs
        },
        "A": {
            (a, b): q.anchor_of(q.bracket(gen[a], gen[b])) - rho[a].bracket(rho[b])
            for a, b in pairs
        },
    }


def unpruned_first_labels(q: CourantData, terms: dict) -> dict[str, str | None]:
    """The first counterexample label, None for a pass, of eq3, eq4, eq6 and
    leibniz_identity, read as check_courant reads them (same stages, same
    order, the same probes past the generator cases) but from terms, the
    unpruned_generator_cases of q, and the unpruned jacobiator. It keeps the
    second-order probes x_k*x_l*e_a that check_courant leaves out by its
    Lemma L12', as the reference that lemma is checked against: where the
    earlier stages pass, these must pass too."""
    M, N, E3, E4, E6, A = (terms[k] for k in ("M", "N", "E3", "E4", "E6", "A"))
    chart, r, n, g = q.chart, q.rank, q.chart.dim, q.pairing
    coords = chart.coords
    gen = [q.gen(a) for a in range(r)]

    def nonzero(vec):
        return not linalg.vec_is_zero(vec)

    def eq3():
        for c, a, b in product(range(r), repeat=3):
            if not E3[c][a][b].is_zero:
                yield f"generators ({c},{a},{b})"
        for b, k, c, a in product(range(r), range(n), range(r), range(r)):
            if not M[b][k].is_zero and not (g[c][a] * M[b][k] + g[c][b] * M[a][k]).is_zero:
                yield f"sections ({coords[k]}*e{c}, e{a}, e{b})"

    def eq4():
        for a, j in product(range(r), range(n)):
            if nonzero(E4[(a, j)]):
                yield f"generator {a}, coordinate {coords[j]}"
        for a, j, k in product(range(r), range(n), range(n)):
            lhs = linalg.vec_scale(M[a][j], q.coanchor[k])
            if not linalg.vec_eq(lhs, linalg.vec_scale(N[j].comps[k], gen[a])):
                yield f"section {coords[k]}*e{a}, coordinate {coords[j]}"

    def eq6():
        for a, b in product(range(r), repeat=2):
            if nonzero(E6[(a, b)]):
                yield f"generators ({a},{b})"

    first = {"eq3_pairing_invariance": eq3(), "eq4_coanchor_ideal": eq4()}
    first["eq6_symmetrization"] = eq6()
    first = {name: next(labels, None) for name, labels in first.items()}
    tensorial = (
        all(v.is_zero for v in N)
        and all(p.is_zero for row in M for p in row)
        and all(label is None for label in first.values())
    )

    def combination(*terms):
        out = linalg.zero_vec(chart, r)
        for coeff, vec in terms:
            out = vec_add(out, linalg.vec_scale(coeff, vec))
        return out

    def leibniz():
        for a, b, c in product(range(r), repeat=3):
            defect = jacobiator(q, gen[a], gen[b], gen[c])
            if nonzero(defect):
                yield f"generators ({a},{b},{c}): defect {linalg.fmt_section(defect)}"
        e = [probe(q, a) for a in range(r)]
        for (a, b), defect in A.items():
            for k, comp in enumerate(defect.comps):
                if not comp.is_zero:
                    yield jacobi_counterexample(q, (e[a], e[b], probe(q, 0, k)))
        if tensorial:
            return
        for a, b, m in product(range(r), range(r), range(n)):
            for k, comp in enumerate(N[m].comps):
                if not g[a][b].is_zero and not comp.is_zero:
                    xa = probe(q, a, m)
                    yield jacobi_counterexample(
                        q, (xa, e[b], e[0]), (xa, e[b], probe(q, 0, k))
                    )
        for a, b, c, k in product(range(r), range(r), range(r), range(n)):
            if nonzero(combination((g[b][c], E4[(a, k)]), (E3[a][b][c], q.coanchor[k]))):
                yield jacobi_counterexample(q, (e[a], probe(q, b, k), e[c]))
        for a, m, k in product(range(r), range(n), range(n)):
            x_part = combination((M[a][k], q.coanchor[m]), (-N[k].comps[m], gen[a]))
            for b, c in product(range(r), repeat=2):
                scalar = -(g[a][b] * M[c][m] + g[a][c] * M[b][m])
                if nonzero(combination((g[b][c], x_part), (scalar, q.coanchor[k]))):
                    xa = probe(q, a, m)
                    yield jacobi_counterexample(
                        q, (xa, e[b], e[c]), (xa, probe(q, b, k), e[c])
                    )
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

    first["leibniz_identity"] = next(leibniz(), None)
    return first


# ---------------------------------------------------------------------------
# Lemma L14 on single pairs
# ---------------------------------------------------------------------------


def leibniz_vanishes(
    rows: Sequence[int], u: Support, v: Support, xi: bool, eta: bool
) -> bool:
    """Whether Lemma L14 shows leibniz_sum to be zero on sections with the
    supports u and v, rows being the table masks of its entries (bit b of
    rows[a] set when entry (a, b) is not None); xi and eta say whether the
    fields standing for their anchors may be nonzero. The table term needs
    some a in supp u and b in supp v with a nonzero entry (paired on rows),
    xi(v_k) needs xi and v not constant, and eta(u_k) needs eta and u not
    constant.
    """
    return not (
        (xi and not v.constant)
        or (eta and not u.constant)
        or paired(rows, u, v)
    )


def pair_bracket_vanishes(
    rows: Sequence[int], x: tuple[Support, Support], y: tuple[Support, Support]
) -> bool:
    """Whether Lemma L14 shows pair_bracket to be zero on pairs (eta1, u1)
    and (eta2, u2) with the supports x and y; rows are the table masks of
    the source module, and a pulled entry is zero where its source entry
    is. The section is leibniz_sum with the tangents as anchors
    (leibniz_vanishes); the tangent bracket [eta1, eta2] needs both
    tangents nonzero and not both constant, a derivation killing
    constants."""
    (eta1, u1), (eta2, u2) = x, y
    xi, eta = bool(eta1.mask), bool(eta2.mask)
    return not (
        xi and eta and not (eta1.constant and eta2.constant)
    ) and leibniz_vanishes(rows, u1, u2, xi, eta)


def pullback_bracket_vanishes(
    pb: CourantPullback, x: tuple[Support, ...], y: tuple[Support, ...]
) -> bool:
    """Whether Lemma L14 shows pb.ambient_bracket to be zero on triples
    with the slot supports x and y."""
    (beta1, u1, eta1), (beta2, u2, eta2) = x, y
    lie = eta1.mask and beta2.mask
    return pair_bracket_vanishes(
        pb.source.table_masks, (eta1, u1), (eta2, u2)
    ) and not (
        (not u1.constant and paired(pb.pairing_masks, u1, u2))
        or (lie and not (eta1.constant and beta2.constant))
        or (eta2.mask and not beta1.constant)
    )


def pullback_pairing_vanishes(
    pb: CourantPullback, x: tuple[Support, ...], y: tuple[Support, ...]
) -> bool:
    """Whether Lemma L14 shows pb.ambient_pairing to be zero on triples
    with the slot supports x and y: beta1(eta2) needs an index where both
    are nonzero, beta2(eta1) likewise, and f*<u1, u2> needs the pulled
    pairing paired on supp u1 and supp u2."""
    (beta1, u1, eta1), (beta2, u2, eta2) = x, y
    return not (
        share(beta1, eta2)
        or share(beta2, eta1)
        or paired(pb.pairing_masks, u1, u2)
    )


def share(s: Support, t: Support) -> bool:
    """Whether some index is nonzero in both supports: without one, sum_j
    s_j t_j is zero (Lemma L14 on pairings, with the identity matrix)."""
    return bool(s.mask & t.mask)


def combination_vanishes(
    comb: CourantCombination, x: tuple[Support, ...], y: tuple[Support, ...]
) -> bool:
    """Whether Lemma L14 rules out the part by part bracket of two elements
    of comb with the part supports x and y: it does in every part."""
    return all(q.bracket_vanishes(su, sv) for q, su, sv in zip(comb.parts, x, y))


def combination_unpaired(
    comb: CourantCombination, x: tuple[Support, ...], y: tuple[Support, ...]
) -> bool:
    """Whether Lemma L14 rules out the weighted pairing of two elements of
    comb with the part supports x and y: no part of nonzero weight pairs
    them."""
    terms = zip(comb.parts, comb.weights, x, y)
    return not any(w and paired(q.pairing_masks, su, sv) for q, w, su, sv in terms)


def predicate_masks(admits, xs: Sequence, ys: Sequence) -> list[int]:
    """The masks of a table by a test of one pair: bit y of mask x set when
    admits(xs[x], ys[y])."""
    return [sum(1 << y for y, sy in enumerate(ys) if admits(sx, sy)) for sx in xs]


def unpruned_bracket_table(m: AnchoredModule, sections: Sequence[Vec]) -> dict:
    """m.bracket on every ordered pair of sections, keyed by their indices,
    the zero brackets dropped."""
    table = {
        (i, j): m.bracket(u, v)
        for (i, u), (j, v) in product(enumerate(sections), repeat=2)
    }
    return {key: vec for key, vec in table.items() if not vec_is_zero(vec)}


def unpruned_pairing_table(q: CourantData, xs: Sequence[Vec], ys: Sequence[Vec]) -> dict:
    """q.pairing_of on every pair of a section of xs and one of ys, keyed
    by their indices, the zero pairings dropped."""
    table = {
        (i, j): q.pairing_of(u, v) for (i, u), (j, v) in product(enumerate(xs), enumerate(ys))
    }
    return {key: p for key, p in table.items() if not p.is_zero}


def build_parser() -> argparse.ArgumentParser:
    """The flat parser of the positional verb and the four options."""
    parser = argparse.ArgumentParser(
        prog="algebroids",
        description="Exact checks for Courant structures on polynomial charts.",
    )
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("--spec", required=True, help="path to the JSON job")
    parser.add_argument("--out", help="report path (default: stdout)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=100)
    return parser
