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

Four presentations are supported: an exact split presentation over a
chosen connection (basis: connection lifts of the coordinate fields plus
the coordinate one-form lines), coordinate embeddings, coordinate
submersions including invertible coordinate changes, and identity, which is
the submersion along the identity map. CourantPullback is the
anchored.Presentation of the triples, with the R_k as its relations: expand
and the one verified reduce are the ones the Lie inverse image uses. The
(u, eta) half of a triple is the fibre-product pair the Lie inverse image
presents, and its basis and coordinates come from algebroids.anchored
(Embedding, Submersion, and for the exact split a Split whose kernel frame
is the coanchor, read through a polynomial left inverse, so a structure
that is itself a pullback presents too), together with mode resolution and
pair_bracket, the (eta, u) half of the ambient bracket. Each mode here adds
only its own part: the cotangent directions (vertical ones for a
submersion), the relation coefficients, and for an embedding the division
by the pulled conormal directions. The coanchor, pairing, structure table
and Jacobian are pulled once per presentation. Every reduction is verified
by exhibiting the exact relation combination; failures raise
ValidationError. The induced structure, result, is built on first read.
For the functor steps of anchored (comparison, pulled_morphism), a triple
is pulled as (f*beta . J, f*u, 0), J the Jacobian (pull_element).

dirac_pushdown presents a supported Dirac structure along the inclusion of
its support locus (dirac.support_inclusion) in coordinate-embedding mode,
and morphism_graph restricts its generators along such an inclusion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product

from algebroids import linalg
from algebroids.anchored import (
    Embedding,
    Presentation,
    Split,
    Submersion,
    constant_complement,
    pair_bracket,
    pulled_entries,
    resolve_mode,
    split_lifts,
)
from algebroids.courant import (
    Connection,
    CourantData,
    _form_vec,
    baer_combination,
    coordinate_connection,
    curvature,
    twist,
)
from algebroids.dirac import DiracData, support_inclusion
from algebroids.errors import UnsupportedModeError, ValidationError
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
        self.pulled_coanchor = [[f.pull(p) for p in row] for row in q.coanchor]
        self.pulled_pairing = [[f.pull(p) for p in row] for row in q.pairing]
        self.pulled_structure = pulled_entries(f, q._entry)
        self.jacobian = f.jacobian()
        self.embedding = None
        if mode == "exact-split":
            basis, read = _exact_split(f, q, self.jacobian, connection)
        elif mode == "coordinate-embedding":
            self.embedding = Embedding(f, q.anchor)
            basis, read = _embedding(self.embedding, q, self.pulled_coanchor)
        else:
            basis, read = _submersion(f, q, self.pulled_coanchor)
        super().__init__(chart, (chart.dim, q.rank, chart.dim), basis, read)
        self.map, self.mode = f, mode
        self.relations = tuple(self.relation(k) for k in range(q.chart.dim))

    @cached_property
    def result(self) -> CourantData:
        """The induced structure on the basis."""
        chart, rank = self.chart, self.source.rank
        basis, r = self.basis, len(self.basis)
        anchor = tuple(eta for _, _, eta in basis)
        coanchor = tuple(
            self.reduce(_cotangent(chart, rank, j)) for j in range(chart.dim)
        )
        pairing = tuple(tuple(self.ambient_pairing(x, y) for y in basis) for x in basis)
        structure = {
            (x, y): self.reduce(self.ambient_bracket(basis[x], basis[y]))
            for x, y in product(range(r), repeat=2)
        }
        return CourantData(chart, r, anchor, coanchor, pairing, structure)

    # -- ambient operations ---------------------------------------------------

    def pull_element(self, t: Triple) -> Triple:
        """(map* beta . J, map* u, 0): a triple on the target chart of map
        pulled along it, its one-form through the Jacobian J."""
        beta, u, _ = t
        chart, pull = self.chart, self.map.pull
        form = apply_matrix(self.jacobian, tuple(map(pull, beta)), chart.dim, chart)
        return form, tuple(map(pull, u)), zero_vec(chart, chart.dim)

    def relation(self, k: int) -> Triple:
        """(d f_k, -pulled coanchor row k, 0)."""
        chart = self.chart
        beta = tuple(self.jacobian[k][j] for j in range(chart.dim))
        u = tuple(-p for p in self.pulled_coanchor[k])
        return (beta, u, zero_vec(chart, chart.dim))

    def ambient_pairing(self, t1: Triple, t2: Triple) -> Poly:
        beta1, u1, eta1 = t1
        beta2, u2, eta2 = t2
        chart = self.chart
        return (
            bilinear(u1, self.pulled_pairing, u2, chart)
            + dot(beta1, eta2, chart)
            + dot(beta2, eta1, chart)
        )

    def ambient_bracket(self, t1: Triple, t2: Triple) -> Triple:
        chart = self.chart
        beta1, u1, eta1 = t1
        beta2, u2, eta2 = t2
        tangent, tensor = pair_bracket(
            chart, self.source.rank, self.pulled_structure, (eta1, u1), (eta2, u2)
        )
        form = _one_form(chart, beta2).lie(VField(chart, eta1))
        db1 = _one_form(chart, beta1).d().iota(VField(chart, eta2))
        form = form + KForm(chart, 1, {(j,): -p for (j,), p in db1.comps.items()})
        beta = vec_add(
            _form_vec(form),
            pairing_differential(self.pulled_pairing, u1, u2, chart),
        )
        return (beta, tensor, tangent)


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


def _submersion(f: ChartMap, q: CourantData, coanchor):
    """The fibre-product pairs of the submersion, then the cotangent lines
    of its vertical coordinates."""
    chart = f.source
    sub = Submersion(f, q.anchor)
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
    mode = resolve_mode(f, q.chart, mode, MODES)
    if mode == "exact-split" and connection is None:
        raise ValidationError("exact-split mode needs a connection")
    return CourantPullback(f, q, mode, connection)


# ---------------------------------------------------------------------------
# Checks on presentations
# ---------------------------------------------------------------------------


def check_relation_absorption(pb: CourantPullback) -> Report:
    """The relation generators pair to zero with everything and bracket back
    into the relation span (class zero), on all basis elements."""
    rep = Report()
    n = pb.source.chart.dim
    rels = pb.relations

    def isotropic():
        for k in range(n):
            for c, b in enumerate(pb.basis):
                got = pb.ambient_pairing(rels[k], b)
                if not got.is_zero:
                    yield f"relation {k} against basis {c}: {got}"
            for l in range(n):
                got = pb.ambient_pairing(rels[k], rels[l])
                if not got.is_zero:
                    yield f"relations ({k},{l}): {got}"

    def bracket_closed():
        for k in range(n):
            for c, b in enumerate(pb.basis):
                left = pb.reduce(pb.ambient_bracket(rels[k], b))
                right = pb.reduce(pb.ambient_bracket(b, rels[k]))
                if not vec_is_zero(left):
                    yield f"relation {k} bracket basis {c}"
                if not vec_is_zero(right):
                    yield f"basis {c} bracket relation {k}"
            for l in range(n):
                got = pb.reduce(pb.ambient_bracket(rels[k], rels[l]))
                if not vec_is_zero(got):
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
    g = d.restricted_pairing()
    for k in emb.zeroed:
        conormal = tuple(d.restrict(p) for p in q.coanchor[k])
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
            Poly.coord(prod, m + k) + pr_y.pull(f.comps[k]) for k in range(n)
        ),
    )
    pb_m = pullback_courant(shear, comb.result)
    sheared = pb_m.result
    lifts = pullback_connection(pb_m, coordinate_connection(comb.result))

    locus = support_inclusion(prod, w_names)
    rows = (*lifts.columns[:m], *sheared.coanchor[m:])
    gens = tuple(tuple(map(locus.pull, row)) for row in rows)
    return DiracData(sheared, gens, w_names)
