"""Inverse images of Courant structures along chart maps.

The ambient model of the inverse image along f: Y -> X holds triples
(beta, u, eta) with beta a one-form on Y, u a pulled section (coefficients
on Y against the generators of the structure on X), and eta a vector field
on Y, constrained by the fiber product f*(anchor)(u) = df(eta). The class
module divides by one relation generator per X-coordinate,

    R_k = (d f_k, -f*(coanchor dx_k), 0),

which is isotropic and bracket-closed against everything (checkable with
check_relation_absorption). Pairing and bracket of triples:

    <x1, x2>  = f*<u1, u2> + beta1(eta2) + beta2(eta1)
    {x1, x2}  = ( -i_{eta2} d beta1 + L_{eta1} beta2 + sum u2_b f*(g_ab) du1_a,
                  sum u1_a u2_b f*(structure^k_ab) + eta1(u2_k) - eta2(u1_k),
                  [eta1, eta2] )

Lemma L14 (support test) is stated on sections in algebroids.anchored:
each term above is zero unless its condition on the supports of the slots
holds. The (eta, u) terms are those of anchored.pair_admitted, and the
pairing differential the coanchor term of CourantData, read on the pulled
pairing through the masks of its rows (pairing_masks, taken once per
presentation). The one-form terms add two conditions: L_{eta1} beta2
needs eta1 and beta2 nonzero and not both constant, and i_{eta2} d beta1
needs eta2 nonzero and beta1 not constant. The pairing is Lemma L14 on
pairings (anchored) three times: beta1(eta2) = sum_j beta1_j eta2_j needs
an index j where beta1 and eta2 are both nonzero, beta2(eta1) likewise,
and f*<u1, u2> some nonzero f*(g_ab) with a in supp u1 and b in supp u2.
CourantPullback.bracket_admitted and pairing_admitted state these terms
as unions of column masks, one admission step per table, and
CourantPullback.result builds its table and pairing with
anchored.pruned_table on those masks, so it brackets, pairs and reduces
only the pairs the lemma admits; the others are zero, and computing them
formed no product of positive degree, so no result changes and no degree
cap can fire on them. check_relation_absorption reads the masks of its
relation and basis supports.

Four presentations are supported: an exact split presentation over a chosen
connection (basis: connection lifts of the coordinate fields plus the
coordinate one-form lines), coordinate embeddings, coordinate submersions
including invertible coordinate changes, and identity, which is the
submersion along the identity map; these are MODES, and resolve_mode picks
one (anchored.classify_map when none is given), rejects a name that is not
a mode as a bad spec, and checks the identity mode. CourantPullback is the
anchored.Presentation of the triples, with the R_k as its relations: the
one verified reduce is the one the Lie inverse image uses. The
(u, eta) half of a triple is the fibre-product pair the Lie inverse image
presents, and its basis and coordinates come from algebroids.anchored
(Embedding, Submersion, and for the exact split a Split whose kernel frame
is the coanchor, read through a polynomial left inverse, so a structure
that is itself a pullback presents too), together with pair_bracket, the
(eta, u) half of the ambient bracket. Each mode here adds only its own
part: the cotangent directions (vertical ones for a submersion), the
relation coefficients, and for an embedding the division by the pulled
conormal directions. The coanchor, pairing, structure table and Jacobian
are pulled once per presentation. Every reduction is verified by exhibiting
the exact relation combination; failures raise ValidationError. The induced
structure, result, is built on first read. For the functor steps of
anchored (comparison, pulled_morphism), a triple is pulled as (f*beta . J,
f*u, 0), J the Jacobian (pull_element).

dirac_pushdown presents a supported Dirac structure along the inclusion of
its support locus (dirac.support_inclusion) in coordinate-embedding mode,
and morphism_graph restricts its generators along such an inclusion.
check_courant_compose_associative runs the chain check of anchored,
check_chain_associative, on exact-split inverse images.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

from algebroids import linalg
from algebroids.anchored import (
    Columns,
    Embedding,
    Presentation,
    Split,
    Submersion,
    Support,
    check_chain_associative,
    classify_map,
    constant_complement,
    mask,
    pair_admitted,
    pair_bracket,
    pruned_table,
    pulled_entries,
    require_chart,
    split_lifts,
    spread,
    support,
)
from algebroids.courant import (
    Connection,
    CourantData,
    _form_vec,
    baer_combination,
    check_courant_morphism,
    coordinate_connection,
    curvature,
    twist,
)
from algebroids.dirac import DiracData, support_inclusion
from algebroids.errors import ChartMismatchError, UnsupportedModeError, ValidationError
from algebroids.linalg import (
    Vec,
    apply_constant,
    apply_matrix,
    bilinear,
    dot,
    pairing_differential,
    unit_vec,
    vec_add,
    vec_eq,
    vec_is_zero,
    vec_sub,
    zero_vec,
)
from algebroids.report import Report
from algebroids.symcalc import Chart, ChartMap, KForm, Poly, VField

MODES = (
    "identity",
    "exact-split",
    "coordinate-embedding",
    "coordinate-submersion",
)

Triple = tuple[Vec, Vec, Vec]


def _one_form(chart: Chart, coeffs: Vec) -> KForm:
    return KForm(chart, 1, {(j,): coeffs[j] for j in range(chart.dim)})


def _cotangent(chart: Chart, rank: int, j: int) -> Triple:
    """The triple (dy_j, 0, 0)."""
    dim = chart.dim
    return (unit_vec(chart, dim, j), zero_vec(chart, rank), zero_vec(chart, dim))


class CourantPullback(Presentation):
    """A presented inverse image: an anchored.Presentation on triples.

    The coanchor, the pairing, the structure table (each pair on first use)
    and the Jacobian of the map are pulled once, when the presentation is
    made, and every mode and ambient operation reads those copies; the
    relation generators R_k are built from them once, into relations. The
    mode builders return a basis and a reader that do not hold the
    presentation, so no reference cycle keeps it alive. The
    coordinate-embedding mode keeps its fibre product in embedding, for
    dirac_pushdown to reuse. result, the induced structure on the basis,
    is built on first read (a comparison's inner image never reads it).
    """

    def __init__(
        self, f: ChartMap, q: CourantData, mode: str, connection: Connection | None
    ):
        chart = f.source
        self.source = q
        self.pulled_coanchor = [f.pull_vec(row) for row in q.coanchor]
        self.pulled_pairing = [f.pull_vec(row) for row in q.pairing]
        self.pairing_masks = tuple(map(mask, self.pulled_pairing))
        self.pulled_structure = pulled_entries(f, q._entry)
        self.jacobian = f.jacobian()
        self.embedding = None
        if mode == "exact-split":
            basis, read = _exact_split(f, q, self.jacobian, connection)
        elif mode == "coordinate-embedding":
            self.embedding = Embedding(f, q.anchor)
            basis, read = _embedding(self.embedding, q, self.pulled_coanchor)
        else:
            basis, read = _submersion(f, q, self.jacobian, self.pulled_coanchor)
        self.map, self.mode = f, mode
        relations = [self.relation(k) for k in range(q.chart.dim)]
        super().__init__(chart, (chart.dim, q.rank, chart.dim), basis, read, relations)

    @cached_property
    def result(self) -> CourantData:
        """The induced structure on the basis.

        pruned_table reads the admitted masks of the basis supports, one
        Support per slot of each basis triple (pairing_admitted and
        bracket_admitted, one admission step per table), and a pair that
        they rule out gets no ambient operation: its table entry is left
        out, as a zero entry would be dropped, and its pairing entry is the
        chart's zero."""
        chart, rank = self.chart, self.source.rank
        basis, r = self.basis, len(self.basis)
        anchor = tuple(eta for _, _, eta in basis)
        coanchor = tuple(
            self.reduce(_cotangent(chart, rank, j)) for j in range(chart.dim)
        )
        zero = Poly.zero(chart)
        supports = self.supports
        paired_basis = pruned_table(
            self.pairing_admitted(supports, supports),
            lambda x, y: self.ambient_pairing(basis[x], basis[y]),
        )
        pairing = tuple(
            tuple(paired_basis.get((x, y), zero) for y in range(r)) for x in range(r)
        )
        structure = pruned_table(
            self.bracket_admitted(supports, supports),
            lambda x, y: self.reduce(
                self.ambient_bracket(basis[x], basis[y], (supports[x], supports[y]))
            ),
        )
        return CourantData(chart, r, anchor, coanchor, pairing, structure)

    # -- ambient operations ---------------------------------------------------

    def pull_element(self, t: Triple) -> Triple:
        """(map* beta . J, map* u, 0): a triple on the target chart of map
        pulled along it, its one-form through the Jacobian J."""
        beta, u, _ = t
        chart, pull_vec = self.chart, self.map.pull_vec
        form = apply_matrix(self.jacobian, pull_vec(beta), chart.dim, chart)
        return form, pull_vec(u), zero_vec(chart, chart.dim)

    def relation(self, k: int) -> Triple:
        """(d f_k, -pulled coanchor row k, 0)."""
        chart = self.map.source
        beta = tuple(self.jacobian[k][j] for j in range(chart.dim))
        u = tuple(-p for p in self.pulled_coanchor[k])
        return (beta, u, zero_vec(chart, chart.dim))

    def ambient_pairing(self, t1: Triple, t2: Triple) -> Poly:
        """<t1, t2> = f*<u1, u2> + beta1(eta2) + beta2(eta1).

        Lemma L14, pairing: <t1, t2> is zero unless beta1 and eta2 are
        nonzero at a common index, or beta2 and eta1 are, or some pulled
        g_ab is nonzero with a in supp u1 and b in supp u2
        (pairing_admitted)."""
        beta1, u1, eta1 = t1
        beta2, u2, eta2 = t2
        chart = self.chart
        return (
            bilinear(u1, self.pulled_pairing, u2, chart)
            + dot(beta1, eta2, chart)
            + dot(beta2, eta1, chart)
        )

    def ambient_bracket(
        self,
        t1: Triple,
        t2: Triple,
        supports: tuple[tuple[Support, ...], tuple[Support, ...]] | None = None,
    ) -> Triple:
        """{t1, t2}, the bracket of the module docstring.

        supports holds one Support per slot of t1 and of t2, passed by a
        caller that has them (result and check_relation_absorption read the
        basis supports); None computes them here. Each one-form term is
        built only when both slots it reads are nonzero: L_{eta1} beta2
        needs beta2 and eta1, i_{eta2} d beta1 needs beta1 and eta2, and the
        pairing differential needs u2 nonzero and u1 not constant (constant
        u1_a add nothing to it). Each term vanishes when either condition
        fails, so a skipped term is zero. The one-form slots are
        chart-checked up front, as the skipped KForm would have done;
        pair_bracket checks the others.

        Lemma L14, bracket: each term is zero unless its condition holds.
          - [eta1, eta2], the table term and eta1(u2) - eta2(u1): as
            anchored.pair_admitted states them.
          - The pairing differential needs u1 not constant and a nonzero
            pulled g_ab with a in supp u1 and b in supp u2.
          - L_{eta1} beta2 needs eta1 and beta2 nonzero and not both
            constant.
          - i_{eta2} d beta1 needs eta2 nonzero and beta1 not constant.
        bracket_admitted is this test on the supports of a table."""
        chart = self.chart
        beta1, u1, eta1 = t1
        beta2, u2, eta2 = t2
        require_chart(chart, beta1, beta2)
        if supports is None:
            supports = tuple(map(support, t1)), tuple(map(support, t2))
        (sb1, su1, se1), (sb2, su2, se2) = supports
        tangent, tensor = pair_bracket(
            chart,
            self.source.rank,
            self.pulled_structure,
            (eta1, u1),
            (eta2, u2),
            ((se1, su1), (se2, su2)),
        )
        beta = zero_vec(chart, chart.dim)
        if su2.mask and not su1.constant:
            beta = pairing_differential(self.pulled_pairing, u1, u2, chart)
        if sb2.mask and se1.mask:
            lie = _one_form(chart, beta2).lie(VField(chart, eta1))
            beta = vec_add(beta, _form_vec(lie))
        if sb1.mask and se2.mask:
            db1 = _one_form(chart, beta1).d().iota(VField(chart, eta2))
            beta = vec_sub(beta, _form_vec(db1))
        return (beta, tensor, tangent)

    def bracket_admitted(
        self, xs: Sequence[tuple[Support, ...]], ys: Sequence[tuple[Support, ...]]
    ) -> list[int]:
        """Lemma L14 on ambient_bracket over a table of triples: for each
        row (beta1, u1, eta1) of xs, the mask of the columns (beta2, u2,
        eta2) of ys whose bracket it admits. The (eta, u) terms are
        anchored.pair_admitted; the pairing differential admits the
        sections meeting the pulled pairing rows over supp u1 when u1 is
        not constant; L_{eta1} beta2 the nonzero one-forms when eta1 is
        nonzero and not constant, the varying ones when it is constant; and
        i_{eta2} d beta1 the nonzero tangents when beta1 is not constant."""
        forms, sections, tangents = (Columns([y[k] for y in ys]) for k in range(3))
        pairs = pair_admitted(
            self.source.table_masks, [(e, u) for _, u, e in xs], tangents, sections
        )
        out = []
        for m, (beta1, u1, eta1) in zip(pairs, xs):
            if not u1.constant:
                m |= sections.meeting(spread(self.pairing_masks, u1.mask))
            if eta1.mask:
                m |= forms.varying if eta1.constant else forms.nonzero
            if not beta1.constant:
                m |= tangents.nonzero
            out.append(m)
        return out

    def pairing_admitted(
        self, xs: Sequence[tuple[Support, ...]], ys: Sequence[tuple[Support, ...]]
    ) -> list[int]:
        """Lemma L14 on ambient_pairing over a table of triples: for each
        row (beta1, u1, eta1) of xs, the mask of the columns it admits:
        beta1(eta2) admits the tangents meeting supp beta1, beta2(eta1) the
        one-forms meeting supp eta1, and f*<u1, u2> the sections meeting
        the pulled pairing rows over supp u1."""
        forms, sections, tangents = (Columns([y[k] for y in ys]) for k in range(3))
        return [
            tangents.meeting(beta1.mask)
            | forms.meeting(eta1.mask)
            | sections.meeting(spread(self.pairing_masks, u1.mask))
            for beta1, u1, eta1 in xs
        ]


# ---------------------------------------------------------------------------
# Mode constructions
# ---------------------------------------------------------------------------


def _exact_split(f: ChartMap, q: CourantData, jac, conn: Connection):
    """The connection lifts of the source coordinate fields, from the Split
    whose kernel frame is the coanchor, then the cotangent lines. The Split's
    frame pairs are never read: the cotangent lines stand in for them."""
    chart = f.source
    n = q.chart.dim
    m = chart.dim
    if q.rank != 2 * n:
        raise UnsupportedModeError(
            "exact-split mode needs rank twice the target dimension"
        )
    if conn.courant != q:
        raise ValidationError("connection does not belong to the structure")
    split = Split(f, conn.columns, q.rank, q.coanchor, jac)
    zero_form = zero_vec(chart, m)
    basis = [
        (zero_form, u, unit_vec(chart, m, i)) for i, u in enumerate(split.lifts)
    ] + [
        _cotangent(chart, q.rank, j) for j in range(m)
    ]

    def read(t: Triple):
        beta, u, eta = t
        alpha = split.kernel_coords(eta, u)
        omega = apply_matrix(jac, alpha, m, chart, start=beta)
        cls = tuple(eta) + omega
        return cls, tuple(-a for a in alpha)

    return basis, read


def _submersion(f: ChartMap, q: CourantData, jac, coanchor):
    """The fibre-product pairs of the submersion, then the cotangent lines
    of its vertical coordinates."""
    chart = f.source
    sub = Submersion(f, q.anchor, jac)
    zero_form = zero_vec(chart, chart.dim)
    basis = [(zero_form, u, eta) for eta, u in sub.basis] + [
        _cotangent(chart, q.rank, v) for v in sub.vertical
    ]

    def read(t: Triple):
        beta, u, eta = t
        p = sub.coefficients(beta)
        prime = apply_matrix(coanchor, p, q.rank, chart, start=u)
        cls = sub.coords(eta, prime) + tuple(beta[v] for v in sub.vertical)
        return cls, tuple(p)

    return basis, read


def _embedding(emb: Embedding, q: CourantData, coanchor):
    """The fibre-product pairs of the embedding, divided by the pulled
    conormal directions."""
    chart = emb.chart
    n = q.chart.dim
    z = len(emb.zeroed)
    sections = [u for _, u in emb.basis]
    zero_form = zero_vec(chart, chart.dim)

    conormal_rows = []
    for k in emb.zeroed:
        # Along a cut slot df_k = 0, so R_k = (0, -vec, 0): the conormal
        # direction is a fibre-product section with zero tangent.
        vec = coanchor[k]
        row = []
        for entry in emb.coords(zero_form, vec):
            c = entry.as_constant()
            if c is None:
                raise UnsupportedModeError(
                    "pulled conormal directions must be constant in the "
                    "free coordinates"
                )
            row.append(Fraction(c))
        # The conormal must coincide with the member it determines.
        combo = apply_matrix(
            sections, tuple(Poly.const(chart, c) for c in row), q.rank, chart
        )
        if not vec_eq(tuple(vec), combo):
            raise UnsupportedModeError(
                "pulled conormal directions escape the constraint solve"
            )
        conormal_rows.append(row)
    complement, inv = constant_complement(conormal_rows, len(emb.free))
    if inv is None:
        raise UnsupportedModeError("pulled conormal directions are dependent")

    basis = [(zero_form, emb.basis[i][1], emb.basis[i][0]) for i in complement]

    def read(t: Triple):
        beta, u, eta = t
        p = [Poly.zero(chart)] * n
        for k, j in emb.kept.items():
            p[k] = beta[j]
        prime = apply_matrix(coanchor, p, q.rank, chart, start=u)
        # Split into conormal span + complement through the constant inverse.
        cls = apply_constant(inv, emb.coords(eta, prime), chart)
        for s, k in enumerate(emb.zeroed):
            p[k] = -cls[s]
        return cls[z:], tuple(p)

    return basis, read


def resolve_mode(f: ChartMap, chart: Chart, mode: str | None) -> str:
    """The presentation mode for pulling a structure on chart back along f.

    A mode that is not one of MODES is a ValidationError naming the field
    mode. The identity mode is checked here; Embedding and Submersion check
    the shape of the other map-driven modes.
    """
    if f.target != chart:
        raise ChartMismatchError("map target is not the chart of the structure")
    if mode is None:
        mode = classify_map(f)
    if mode not in MODES:
        raise ValidationError(
            f"mode must be one of {', '.join(MODES)}, got {mode!r}"
        )
    if mode == "identity" and not f.is_identity:
        raise UnsupportedModeError("identity mode requires the identity map")
    return mode


def pullback_courant(
    f: ChartMap,
    q: CourantData,
    mode: str | None = None,
    connection: Connection | None = None,
) -> CourantPullback:
    """Present the inverse image of q along f.

    mode=None auto-classifies the map; pass "exact-split" together with a
    connection to use the split presentation of an exact structure. The
    identity mode is the submersion along the identity map.
    """
    if connection is not None and mode is None:
        mode = "exact-split"
    mode = resolve_mode(f, q.chart, mode)
    if mode == "exact-split" and connection is None:
        raise ValidationError("exact-split mode needs a connection")
    return CourantPullback(f, q, mode, connection)


# ---------------------------------------------------------------------------
# Checks on presentations
# ---------------------------------------------------------------------------


def check_relation_absorption(pb: CourantPullback) -> Report:
    """The relation generators pair to zero with everything and bracket back
    into the relation span (class zero), on all basis elements. Both checks
    read one Support per slot of each relation and of each basis triple
    (supports), and the admitted masks of relation rows against basis and
    relation columns, and of basis rows against relation columns: a pair
    that pairing_admitted rules out pairs to zero and is not paired, and an
    order of a pair that bracket_admitted rules out brackets to zero and is
    not bracketed (Lemma L14)."""
    rep = Report()
    n = pb.source.chart.dim
    rels = pb.relations
    rel_supports = [tuple(map(support, t)) for t in rels]
    basis_supports = pb.supports

    def isotropic():
        with_basis = pb.pairing_admitted(rel_supports, basis_supports)
        with_rels = pb.pairing_admitted(rel_supports, rel_supports)
        for k in range(n):
            for c, b in enumerate(pb.basis):
                if not with_basis[k] >> c & 1:
                    continue
                got = pb.ambient_pairing(rels[k], b)
                if not got.is_zero:
                    yield f"relation {k} against basis {c}: {got}"
            for l in range(n):
                if not with_rels[k] >> l & 1:
                    continue
                got = pb.ambient_pairing(rels[k], rels[l])
                if not got.is_zero:
                    yield f"relations ({k},{l}): {got}"

    def closed(
        admitted: int,
        t1: Triple,
        s1: tuple[Support, ...],
        t2: Triple,
        s2: tuple[Support, ...],
    ) -> bool:
        return not admitted or vec_is_zero(
            pb.reduce(pb.ambient_bracket(t1, t2, (s1, s2)))
        )

    def bracket_closed():
        rel_basis = pb.bracket_admitted(rel_supports, basis_supports)
        basis_rel = pb.bracket_admitted(basis_supports, rel_supports)
        rel_rel = pb.bracket_admitted(rel_supports, rel_supports)
        for k in range(n):
            rel, sr = rels[k], rel_supports[k]
            for c, b in enumerate(pb.basis):
                sb = basis_supports[c]
                left = closed(rel_basis[k] >> c & 1, rel, sr, b, sb)
                right = closed(basis_rel[c] >> k & 1, b, sb, rel, sr)
                if not left:
                    yield f"relation {k} bracket basis {c}"
                if not right:
                    yield f"basis {c} bracket relation {k}"
            for l in range(n):
                if not closed(rel_rel[k] >> l & 1, rel, sr, rels[l], rel_supports[l]):
                    yield f"relations ({k},{l})"

    rep.check("relations_isotropic", isotropic())
    rep.check("relations_bracket_closed", bracket_closed())
    return rep


def pullback_connection(pb: CourantPullback, conn: Connection) -> Connection:
    """The pulled connection: classes of (0, f*(conn(df d_i)), d_i)."""
    if conn.courant != pb.source:
        raise ValidationError("connection does not belong to the structure")
    chart = pb.chart
    lifts = split_lifts(pb.map, conn.columns, pb.source.rank, pb.jacobian)
    cols = [
        pb.reduce((zero_vec(chart, chart.dim), u, unit_vec(chart, chart.dim, i)))
        for i, u in enumerate(lifts)
    ]
    return Connection(pb.result, tuple(cols))


def check_courant_compose_associative(
    q: CourantData, maps: Sequence[ChartMap], connection: Connection
) -> Report:
    """anchored.check_chain_associative on the exact-split inverse images of
    q: maps = (phi, psi, xi) with q on the target of phi, presented through
    connection on X and the pulled connections upstairs. The comparison is
    checked as a Courant morphism (check_courant_morphism), its checks
    prefixed "comparison"."""
    return check_chain_associative(
        lambda f, q, conn: pullback_courant(f, q, "exact-split", conn),
        pullback_connection,
        q,
        connection,
        maps,
        check_courant_morphism,
        "comparison",
    )


def check_twist_commute(
    f: ChartMap,
    q: CourantData,
    h: KForm,
    mode: str | None = None,
    connection: Connection | None = None,
) -> Report:
    """Pulling back then twisting by the pulled form equals twisting first.

    Both routes are presented in the same basis, so the comparison is plain
    data equality (frame fields, then structure functions)."""
    rep = Report()
    pb_plain = pullback_courant(f, q, mode, connection)
    route1 = twist(pb_plain.result, f.pullback_form(h))
    twisted = twist(q, h)
    conn2 = None
    if connection is not None:
        conn2 = Connection(twisted, connection.columns)
    pb_twisted = pullback_courant(f, twisted, mode, conn2)
    route2 = pb_twisted.result

    def frame():
        for table in ("anchor", "coanchor", "pairing"):
            if getattr(route1, table) != getattr(route2, table):
                yield f"{table} tables differ"

    def structure():
        for key in sorted(set(route1.structure) | set(route2.structure)):
            lhs = route1.structure.get(key, route1.zero_section())
            rhs = route2.structure.get(key, route2.zero_section())
            if not vec_eq(lhs, rhs):
                yield f"generators {key}"

    rep.check("twist_commute_frame", frame())
    rep.check("twist_commute_structure", structure())
    return rep


def check_curvature_pullback(
    pb: CourantPullback, conn: Connection
) -> Report:
    """curvature(pulled connection) equals the pulled curvature form."""
    rep = Report()
    pulled = pullback_connection(pb, conn)
    lhs = curvature(pulled)
    rhs = pb.map.pullback_form(curvature(conn))
    ok = lhs == rhs
    rep.add(
        "curvature_pullback_matches",
        ok,
        None if ok else f"got {lhs}, expected {rhs}",
    )
    return rep


# ---------------------------------------------------------------------------
# Supported Dirac structures through a presentation
# ---------------------------------------------------------------------------


def dirac_pushdown(d: DiracData) -> DiracData:
    """Push a supported Dirac structure down to its locus.

    The structure is presented along the inclusion of the locus, in
    coordinate-embedding mode, and the result lives on that presentation.
    Requires a nonempty support and the conormal coanchor directions to lie
    in the span (checked through the pairing, the span being maximal
    isotropic); generators are reduced through the presentation and an
    independent subset is returned.
    """
    if not d.support:
        raise ValidationError("pushdown needs a nonempty support")
    q = d.courant
    pb = pullback_courant(d.inclusion, q, "coordinate-embedding")
    emb = pb.embedding
    # pb is presented along d.inclusion, so its pulled pairing is the
    # restricted pairing and its pulled coanchor rows the conormals.
    g = pb.pulled_pairing
    for k in emb.zeroed:
        conormal = pb.pulled_coanchor[k]
        for l, gen in enumerate(d.generators):
            got = d.pair_restricted(conormal, gen, g)
            if not got.is_zero:
                raise ValidationError(
                    f"conormal direction {q.chart.coords[k]} is not in the "
                    f"span (pairs to {got} with generator {l})"
                )
    chart = pb.chart
    classes = [
        pb.reduce((zero_vec(chart, chart.dim), tuple(gen), emb.tangent(gen)))
        for gen in d.generators
    ]
    keep = linalg.select_independent(classes)
    selected = tuple(classes[i] for i in keep)
    needed = pb.result.rank // 2
    if len(selected) != needed:
        raise ValidationError(
            f"pushdown produced {len(selected)} independent generators, "
            f"needed {needed}"
        )
    return DiracData(pb.result, selected, ())


def morphism_graph(
    f: ChartMap, q: CourantData, connection: Connection
) -> DiracData:
    """The graph of the inverse-image relation as a supported Dirac structure.

    Lives on a product chart (source coordinates first, target coordinates
    renamed with a w_ prefix) carrying the weighted (1, -1) combination of
    the two projected inverse images, sheared so the graph of f becomes the
    locus where the renamed coordinates vanish. Generators: connection lifts
    of the graph tangents plus the conormal coanchor directions. check_dirac
    on the output doubles as a test that the two routes around f agree."""
    ychart, xchart = f.source, f.target
    m, n = ychart.dim, xchart.dim
    w_names = tuple("w_" + c for c in xchart.coords)
    prod = Chart(f"{ychart.name}*{xchart.name}", ychart.coords + w_names)
    pr_y = ChartMap(prod, ychart, tuple(Poly.coord(prod, j) for j in range(m)))
    pr_x = ChartMap(
        prod, xchart, tuple(Poly.coord(prod, m + k) for k in range(n))
    )

    pb_f = pullback_courant(f, q, "exact-split", connection)
    conn_a = pullback_connection(pb_f, connection)
    pb_ay = pullback_courant(pr_y, pb_f.result)
    pb_qx = pullback_courant(pr_x, q)
    comb = baer_combination(
        [pb_ay.result, pb_qx.result],
        [1, -1],
        [
            pullback_connection(pb_ay, conn_a),
            pullback_connection(pb_qx, connection),
        ],
    )

    shear = ChartMap(
        prod,
        prod,
        tuple(Poly.coord(prod, j) for j in range(m))
        + tuple(
            Poly.coord(prod, m + k) + comp
            for k, comp in enumerate(pr_y.pull_vec(f.comps))
        ),
    )
    pb_m = pullback_courant(shear, comb.result)
    sheared = pb_m.result
    lifts = pullback_connection(pb_m, coordinate_connection(comb.result))

    locus = support_inclusion(prod, w_names)
    rows = (*lifts.columns[:m], *sheared.coanchor[m:])
    gens = tuple(map(locus.pull_vec, rows))
    return DiracData(sheared, gens, w_names)
