"""Constructions the tests build inputs from, and reference oracles they
compare the package against. No verb reaches these, so they live with the
tests rather than in the package.

Fixtures: opposite, direct_sum and scalar_multiple build Courant structures
from others, connection_shift shifts a connection by a two-form, and
graph_of_two_form is the Dirac structure of that shift. Oracles:
associated_lie_algebroid is the Lie algebroid of a Courant structure, the
quotient by its coanchor image (constant_quotient), against which the
inverse image of an exact structure is checked to stay exact; and
courant_from_transgression reads the structure data back out of the public
operations of a transgression, which is how the round trip of tau-roundtrip
is checked; and unpruned_tau_bracket is TauModule.bracket on the four
branches that Lemma L14 prunes, with every part computed.
"""

from fractions import Fraction
from itertools import product
from typing import Sequence

from algebroids import linalg
from algebroids.anchored import (
    AnchoredModule,
    antisymmetric_table,
    constant_complement,
)
from algebroids.courant import Connection, CourantData
from algebroids.dirac import DiracData
from algebroids.errors import ChartMismatchError, ValidationError
from algebroids.lie_algebroid import LieData
from algebroids.linalg import Vec, apply_constant, unit_vec, vec_add, vec_sub
from algebroids.symcalc import KForm, Poly, VField
from algebroids.transgression import TauElement, TauModule

# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


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
