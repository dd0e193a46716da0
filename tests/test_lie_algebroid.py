"""Lie algebroid data, axiom checks, and inverse images."""

import dataclasses
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from algebroids.anchored import (
    Columns,
    antisymmetric_table,
    classify_map,
    comparison,
    jacobiator,
    pair_admitted,
    pair_bracket,
    pulled_entries,
    support,
)
from algebroids.courant import standard_exact
from algebroids.errors import ChartMismatchError, UnsupportedModeError, ValidationError
from algebroids import anchored, lie_algebroid as lie_module, linalg
from algebroids.lie_algebroid import (
    LieData,
    canonical_splitting,
    check_compose_associative,
    check_lie_algebroid,
    pullback_lie,
    tangent_algebroid,
    trivial_extension,
)
from algebroids.pullback import pullback_courant
from algebroids.symcalc import (
    Chart,
    ChartMap,
    Poly,
    coordinate_chart,
    parse_poly,
)

from oracles import (
    check_names,
    expand,
    pair_bracket_vanishes,
    predicate_masks,
    vfield_scale,
)
from test_symcalc import polys

PT = Chart("PT", ())
R1 = coordinate_chart("Z", 1, prefix="z")
R2 = coordinate_chart("Y", 2, prefix="y")
R3 = coordinate_chart("X", 3)


def sec(chart, *exprs):
    return tuple(parse_poly(e, chart) for e in exprs)


def so3():
    u = lambda i: linalg.unit_vec(PT, 3, i)
    z = linalg.zero_vec(PT, 0)
    anchor = tuple(z for _ in range(3))
    structure = {(0, 1): u(2), (1, 2): u(0), (2, 0): u(1)}
    return LieData(PT, 3, anchor, structure)


def test_so3_is_a_lie_algebroid():
    rep = check_lie_algebroid(so3(), samples=20, seed=1)
    assert rep.ok, str(rep)
    assert check_names(rep) == [
        "antisymmetry",
        "anchor_morphism",
        "jacobi_identity",
        "leibniz_rule",
    ]


def test_broken_jacobi_is_caught():
    a = so3()
    # Perturb [e1, e2] by e1: the cyclic sum over (e1, e2, e3) becomes -e2.
    bad = LieData(
        PT,
        3,
        a.anchor,
        {
            (0, 1): linalg.vec_add(
                linalg.unit_vec(PT, 3, 2), linalg.unit_vec(PT, 3, 0)
            ),
            (1, 2): linalg.unit_vec(PT, 3, 0),
            (2, 0): linalg.unit_vec(PT, 3, 1),
        },
    )
    rep = check_lie_algebroid(bad, samples=5, seed=0)
    assert not rep.ok
    assert not rep["jacobi_identity"].passed
    assert rep["antisymmetry"].passed
    assert rep["jacobi_identity"].counterexample


def test_non_antisymmetric_structure_is_caught():
    u2 = linalg.unit_vec(PT, 3, 2)
    z = linalg.zero_vec(PT, 0)
    bad = LieData(PT, 3, (z, z, z), {(0, 1): u2, (1, 0): u2})
    rep = check_lie_algebroid(bad, samples=5, seed=0)
    assert not rep["antisymmetry"].passed


def test_tangent_algebroid_axioms():
    rep = check_lie_algebroid(tangent_algebroid(R3), samples=30, seed=2)
    assert rep.ok, str(rep)


def test_a_checked_lie_structure_cannot_change():
    """A pass stays a proof about the data it checked: LieData is frozen
    once validated, so the masks a check caches cannot go stale. Assigning
    a field raises FrozenInstanceError and the table is read-only; a mutant
    is a new instance (dataclasses.replace), validated and checked afresh.
    The table [e_0, e_1] = y1 e_0 breaks the anchor morphism and the Jacobi
    identity of the tangent algebroid."""
    a = tangent_algebroid(R2)
    assert check_lie_algebroid(a).ok
    table = {(0, 1): sec(R2, "y1", "0")}
    for name, value in (("structure", table), ("anchor", a.anchor[::-1])):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, value)
    with pytest.raises(TypeError):
        a.structure[(0, 1)] = table[(0, 1)]
    assert check_lie_algebroid(a).ok
    mutant = dataclasses.replace(a, structure=table)
    assert dict(mutant.structure) == table and mutant.anchor == a.anchor
    rep = check_lie_algebroid(mutant)
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {"anchor_morphism", "jacobi_identity"}, str(rep)


def flag_algebroid():
    # Generators d/dy1, y1 * d/dy2, d/dy2 on the plane.
    anchor = (sec(R2, "1", "0"), sec(R2, "0", "y1"), sec(R2, "0", "1"))
    structure = {(0, 1): sec(R2, "0", "0", "1")}
    return LieData(R2, 3, anchor, structure)


def test_flag_algebroid_axioms():
    rep = check_lie_algebroid(flag_algebroid(), samples=40, seed=3)
    assert rep.ok, str(rep)


def test_section_bracket_matches_vector_fields():
    t = tangent_algebroid(R2)
    got = t.bracket(sec(R2, "y2", "0"), sec(R2, "0", "1"))
    assert got == sec(R2, "-1", "0")
    # Leibniz in the right slot: [e1, y1 e2] = e2 picked up from the anchor.
    got = t.bracket(sec(R2, "1", "0"), sec(R2, "0", "y1"))
    assert got == sec(R2, "0", "1")


# ---------------------------------------------------------------------------
# inverse images
# ---------------------------------------------------------------------------


def test_classify_map():
    ident = ChartMap.identity(R2)
    assert classify_map(ident) == "identity"
    axis = ChartMap(R1, R2, sec(R1, "z1", "0"))
    assert classify_map(axis) == "coordinate-embedding"
    proj = ChartMap(R3, R2, sec(R3, "x1", "x2"))
    assert classify_map(proj) == "coordinate-submersion"
    shear = ChartMap(R2, R2, sec(R2, "y1", "y2 + y1^2"))
    assert classify_map(shear) == "coordinate-submersion"
    curve = ChartMap(R1, R2, sec(R1, "z1", "z1^2"))
    with pytest.raises(UnsupportedModeError):
        classify_map(curve)


@pytest.mark.parametrize(
    "source, target, comps",
    [
        (R2, R2, ("y1", "y2")),
        (R1, R2, ("z1", "0")),
        (R3, R2, ("x1", "x2")),
        (R2, R2, ("y1", "y2 + y1^2")),
        (R1, R2, ("z1", "z1^2")),
        (R2, R2, ("y2", "y1")),
        (R2, R2, ("y1", "y1*y2")),
    ],
    ids=["identity", "axis", "projection", "shear", "curve", "swap", "singular"],
)
def test_classify_map_is_the_first_mode_whose_fibre_takes_the_map(
    source, target, comps
):
    f = ChartMap(source, target, sec(source, *comps))
    q = standard_exact(target)
    taken = []
    for mode in ("identity", "coordinate-submersion", "coordinate-embedding"):
        try:
            pullback_courant(f, q, mode)
        except UnsupportedModeError:
            continue
        taken.append(mode)
    if taken:
        assert classify_map(f) == taken[0]
    else:
        with pytest.raises(UnsupportedModeError):
            classify_map(f)


def tangent_split(chart):
    """The splitting of the tangent algebroid of chart by its generators."""
    return tuple(linalg.unit_vec(chart, chart.dim, j) for j in range(chart.dim))


def line_extension(coefficient):
    """The tangent algebroid of the plane extended by a line, with
    [e0, e1] = coefficient * e2, and its splitting by e0 and e1."""
    z, one = Poly.zero(R2), Poly.one(R2)
    anchor = ((one, z), (z, one), (z, z))
    total = LieData(R2, 3, anchor, {(0, 1): (z, z, parse_poly(coefficient, R2))})
    return total, (linalg.unit_vec(R2, 3, 0), linalg.unit_vec(R2, 3, 1))


def test_identity_pullback_is_the_algebroid():
    a, splitting = line_extension("y1")
    pb = pullback_lie(ChartMap.identity(R2), a, splitting)
    assert pb.result.rank == a.rank
    assert pb.result.anchor == a.anchor
    assert pb.result.structure == a.structure


def test_identity_mode_is_the_submersion_along_the_identity():
    # The Lie inverse image has one presentation, the transitive split; along
    # the identity it gives what the identity and submersion modes gave, the
    # algebroid itself, rewritten in the frame its splitting picks. Here the
    # tangent algebroid of R3 in the frame d1 + x2 d3, d2, d3.
    frame = LieData(
        R3,
        3,
        (sec(R3, "1", "0", "x2"), sec(R3, "0", "1", "0"), sec(R3, "0", "0", "1")),
        {(0, 1): sec(R3, "0", "0", "-1")},
    )
    splitting = (sec(R3, "1", "0", "-x2"), sec(R3, "0", "1", "0"), tangent_split(R3)[2])
    ident = ChartMap.identity(R3)
    pb = pullback_lie(ident, frame, splitting)
    assert pb.basis == tuple(zip(tangent_split(R3), splitting))
    assert pb.result == tangent_algebroid(R3)
    assert (pb.map, pb.source) == (ident, frame)
    # the split presentation has a canonical splitting, and pulling back
    # along the identity through it gives the presentation back
    again = pullback_lie(ident, pb.result, canonical_splitting(pb))
    assert again.result == pb.result
    assert again.basis == tuple(zip(tangent_split(R3), tangent_split(R3)))


def test_axis_embedding_pullback_of_tangent():
    f = ChartMap(R1, R2, sec(R1, "z1", "0"))
    pb = pullback_lie(f, tangent_algebroid(R2), tangent_split(R2))
    assert pb.result.rank == 1
    assert pb.result.anchor == (sec(R1, "1"),)
    assert pb.result.structure == {}
    # d/dy2 does not restrict to the axis.
    outside = ((Poly.zero(R1),), (Poly.zero(R1), Poly.one(R1)))
    with pytest.raises(ValidationError):
        pb.reduce(outside)


def test_projection_pullback_of_tangent():
    f = ChartMap(R3, R2, sec(R3, "x1", "x2"))
    pb = pullback_lie(f, tangent_algebroid(R2), tangent_split(R2))
    assert pb.result.rank == 3
    assert pb.result.structure == {}
    assert pb.result.anchor_of(pb.result.gen(0)).comps == tuple(
        sec(R3, "1", "0", "0")
    )
    # The vertical generator is anchored along x3.
    assert pb.result.anchor_of(pb.result.gen(2)).comps == tuple(
        sec(R3, "0", "0", "1")
    )


def test_invertible_shear_pullback():
    f = ChartMap(R2, R2, sec(R2, "y1", "y2 + y1^2"))
    pb = pullback_lie(f, tangent_algebroid(R2), tangent_split(R2))
    assert pb.result.rank == 2
    assert pb.result.structure == {}
    # The lift of d/dy1 carries the Jacobian of the shear: e0 + 2 y1 e1.
    assert pb.basis[0] == (sec(R2, "1", "0"), sec(R2, "1", "2*y1"))
    # A pair is read by its tangent.
    coeffs = pb.reduce((sec(R2, "1", "-2*y1 + 3"), sec(R2, "1", "3")))
    assert coeffs == sec(R2, "1", "-2*y1 + 3")


def test_transitive_split_pullback_of_extension():
    total, splitting = line_extension("y1")
    f = ChartMap(R1, R2, sec(R1, "z1", "z1^2"))
    pb = pullback_lie(f, total, splitting)
    assert pb.result.rank == 2
    # Tangent lift carries the Jacobian of the curve.
    assert pb.basis[0] == (sec(R1, "1"), sec(R1, "1", "2*z1", "0"))
    assert pb.basis[1] == (sec(R1, "0"), sec(R1, "0", "0", "1"))
    # Any line extension pulled to a one-dimensional base flattens out.
    assert pb.result.structure == {}
    rep = check_lie_algebroid(pb.result, samples=10, seed=8)
    assert rep.ok, str(rep)


def test_transitive_split_needs_constant_kernel():
    a = flag_algebroid()
    splitting = (linalg.unit_vec(R2, 3, 0), linalg.unit_vec(R2, 3, 2))
    f = ChartMap.identity(R2)
    with pytest.raises(UnsupportedModeError):
        pullback_lie(f, a, splitting)


def test_transitive_split_rejects_bad_splitting():
    t = tangent_algebroid(R2)
    bad = (linalg.unit_vec(R2, 2, 0), linalg.unit_vec(R2, 2, 0))
    with pytest.raises(ValidationError):
        pullback_lie(ChartMap.identity(R2), t, bad)


def test_pullback_axioms_hold():
    # The induced structure on each presentation is itself a Lie algebroid.
    # The last input extends the tangent algebroid of the plane by a line,
    # [e0, e1] = y2 e2, split by e0 and e1.
    total, splitting = line_extension("y2")
    cases = [
        pullback_lie(
            ChartMap(R3, R2, sec(R3, "x1", "x2")),
            tangent_algebroid(R2),
            tangent_split(R2),
        ),
        pullback_lie(ChartMap(R1, R2, sec(R1, "z1", "z1^3")), total, splitting),
    ]
    for pb in cases:
        rep = check_lie_algebroid(pb.result, samples=15, seed=10)
        assert rep.ok, f"{pb.map}: {rep}"


def test_comparison_on_a_curve_chain():
    # Z --g--> Y --f--> X with a line extension of the tangent upstairs.
    f = ChartMap(R2, R3, sec(R2, "y1", "y2", "y1*y2"))
    g = ChartMap(R1, R2, sec(R1, "z1", "z1^2"))
    a = trivial_extension(tangent_algebroid(R3)).total.lie
    splitting = tuple(linalg.unit_vec(R3, 4, j) for j in range(3))
    p_f = pullback_lie(f, a, splitting)
    s_f = canonical_splitting(p_f)
    p_g = pullback_lie(g, p_f.result, s_f)
    p_fg = pullback_lie(f.compose(g), a, splitting)
    e = sec(R1, "z1", "1 + z1")
    cmatrix = comparison(p_g, p_f, p_fg)
    got = linalg.apply_matrix(cmatrix, e, p_fg.result.rank, R1)
    assert len(got) == p_fg.result.rank
    # The comparison reaches the composite presentation exactly; spot-check
    # by expanding both sides to ambient section coordinates over X.
    tangent, coeffs = expand(p_g, e)
    flat = list(linalg.zero_vec(R1, 4))
    for alpha, c in enumerate(coeffs):
        u_part = p_f.basis[alpha][1]
        for k in range(4):
            flat[k] = flat[k] + c * g.pull(u_part[k])
    assert expand(p_fg, got) == (tuple(tangent), tuple(flat))


def assoc_chain():
    """The assoc-c-plus chain: an algebroid, three maps and a splitting."""
    phi = ChartMap(R2, R3, sec(R2, "y1", "y2", "y1*y2"))
    psi = ChartMap(R1, R2, sec(R1, "z1", "z1^2"))
    w_chart = coordinate_chart("W", 1, prefix="w")
    xi = ChartMap(w_chart, R1, (parse_poly("w1^2", w_chart),))
    a = trivial_extension(tangent_algebroid(R3)).total.lie
    splitting = tuple(linalg.unit_vec(R3, 4, j) for j in range(3))
    return a, (phi, psi, xi), splitting


def assoc_pullbacks():
    """The seven Lie inverse images check_compose_associative builds on the
    assoc-c-plus chain, each with the masks its table handed to
    pruned_table."""
    built, tables = [], []
    pruned_table = lie_module.pruned_table

    def recorded_table(admitted, bracket):
        tables.append(list(admitted))
        return pruned_table(admitted, bracket)

    def recorded(*args):
        pb = pullback_lie(*args)
        built.append((pb, tables[-1]))
        return pb

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lie_module, "pullback_lie", recorded)
        mp.setattr(lie_module, "pruned_table", recorded_table)
        check_compose_associative(*assoc_chain())
    return built


ASSOC_PULLBACKS = assoc_pullbacks()


@st.composite
def fibre_pairs(draw, pb):
    """A basis pair of pb, or a (tangent, section) pair on its chart whose
    slots are each zero, constant or of degree at most 2."""
    if draw(st.booleans()):
        return draw(st.sampled_from(pb.basis))
    zero = st.just(Poly.zero(pb.chart))
    slots = []
    for size in pb.sizes:
        degree = draw(st.sampled_from((None, 0, 2)))
        if degree is not None:
            entry = st.one_of(zero, polys(pb.chart, max_degree=degree, max_terms=2))
        slots.append(tuple(draw(zero if degree is None else entry) for _ in range(size)))
    return tuple(slots)


@pytest.mark.parametrize("index", range(len(ASSOC_PULLBACKS)))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_lie_pullback_masks_match_the_pair_test(index, data):
    """pair_admitted sets bit y of row x exactly when pair_bracket_vanishes
    does not rule out the pair (x, y), on rows and columns drawn from the
    basis of each inverse image of the assoc-c-plus chain and from random
    pairs; and the masks the table of each handed to pruned_table are those
    of its basis."""
    pb, table = ASSOC_PULLBACKS[index]
    rows = data.draw(st.lists(fibre_pairs(pb), max_size=4))
    cols = data.draw(st.lists(fibre_pairs(pb), max_size=6))
    xs, ys = ([tuple(map(support, p)) for p in ps] for ps in (rows, cols))
    tangents, sections = (Columns([y[k] for y in ys]) for k in range(2))
    rows_masks = pb.source.table_masks

    def admits(x, y):
        return not pair_bracket_vanishes(rows_masks, x, y)

    assert pair_admitted(rows_masks, xs, tangents, sections) == predicate_masks(admits, xs, ys)
    assert table == predicate_masks(admits, pb.supports, pb.supports)


def test_compose_associativity_check():
    rep = check_compose_associative(*assoc_chain())
    assert rep.ok, str(rep)


def test_compose_check_splits_only_the_images_pulled_back_again(monkeypatch):
    """The images along phi, psi and phi psi are pulled back again; only
    their canonical splittings are taken."""
    split = []
    original = lie_module.canonical_splitting

    def counted(pb):
        split.append(pb.map)
        return original(pb)

    monkeypatch.setattr(lie_module, "canonical_splitting", counted)
    a, (phi, psi, xi), splitting = assoc_chain()
    assert check_compose_associative(a, (phi, psi, xi), splitting).ok
    assert [f.comps for f in split] == [
        f.comps for f in (phi, psi, phi.compose(psi))
    ]


@pytest.mark.parametrize(
    "bad, error", [("short", ValidationError), ("chart", ChartMismatchError)]
)
def test_compose_check_refuses_a_comparison_row_of_another_length_or_chart(
    monkeypatch, bad, error
):
    """A comparison row one entry short, or with a zero entry on another
    chart, raises: bracket_failures does not check the rows, and
    check_compose_associative checks them once, before its anchor and
    bracket checks (pulled_morphism, which reads them first, refuses them
    too)."""
    w4 = coordinate_chart("V", 4, prefix="v")
    made = []

    def corrupted(*args):
        rows = comparison(*args)
        if not made:
            row = rows[-1]
            k = next(i for i, p in enumerate(row) if p.is_zero)
            rows[-1] = row[:k] + row[k + 1 :] if bad == "short" else (
                row[:k] + (Poly.zero(w4),) + row[k + 1 :]
            )
        made.append(rows)
        return rows

    monkeypatch.setattr(anchored, "comparison", corrupted)
    with pytest.raises(error):
        check_compose_associative(*assoc_chain())


def test_antisymmetric_table_brackets_each_diagonal_pair_once():
    lie = so3()
    calls = []

    def bracket(x, y, bad=None):
        calls.append((x, y))
        if (x, y) == bad:
            return lie.gen(0)
        return lie.bracket_gen(x, y)

    got = antisymmetric_table(3, bracket, "not antisymmetric")
    assert sorted(calls) == sorted(product(range(3), repeat=2))
    assert {k: v for k, v in got.items() if not linalg.vec_is_zero(v)} == {
        (0, 1): lie.gen(2),
        (1, 2): lie.gen(0),
        (0, 2): linalg.vec_neg(lie.gen(1)),
    }
    for bad in ((1, 1), (0, 2)):
        with pytest.raises(ValidationError, match="not antisymmetric"):
            antisymmetric_table(
                3, lambda x, y: bracket(x, y, bad), "not antisymmetric"
            )


def test_pruned_tables_equal_the_unpruned_tables_on_the_assoc_chain(monkeypatch):
    """Every inverse image check_compose_associative builds has the table
    of antisymmetric_table with every pair bracketed and reduced."""
    built = []

    def recorded(*args):
        built.append(pullback_lie(*args))
        return built[-1]

    monkeypatch.setattr(lie_module, "pullback_lie", recorded)
    check_compose_associative(*assoc_chain())
    monkeypatch.undo()
    assert len(built) == 7
    for pb in built:
        pulled = pulled_entries(pb.map, pb.source._entry)

        def bracket(x, y, pb=pb, pulled=pulled):
            pairs = pb.basis[x], pb.basis[y]
            return pb.reduce(pair_bracket(pb.chart, pb.source.rank, pulled, *pairs))

        r = len(pb.basis)
        structure = antisymmetric_table(r, bracket, "not antisymmetric")
        anchor = tuple(tangent for tangent, _ in pb.basis)
        assert pb.result == LieData(pb.chart, r, anchor, structure)


def test_shape_failures_are_unsupported_modes():
    # A map of the wrong shape is an unsupported mode of the Courant inverse
    # image; the Lie inverse image reads no shape, so the same maps pull the
    # tangent algebroid back to a Lie algebroid.
    flatten = ChartMap(R2, R2, sec(R2, "y1", "0"))
    diagonal = ChartMap(R1, R2, sec(R1, "z1", "z1"))
    fold = ChartMap(R1, R1, sec(R1, "z1^2 + z1"))
    cases = (
        (flatten, "coordinate-embedding"),
        (diagonal, "coordinate-embedding"),
        (fold, "coordinate-submersion"),
    )
    for f, mode in cases:
        with pytest.raises(UnsupportedModeError):
            pullback_courant(f, standard_exact(f.target), mode)
        pb = pullback_lie(f, tangent_algebroid(f.target), tangent_split(f.target))
        assert pb.result.rank == f.source.dim
        rep = check_lie_algebroid(pb.result, samples=10, seed=3)
        assert rep.ok, f"{f}: {rep}"


@st.composite
def lie_data(draw):
    """LieData on R2 of rank 1-3 with an arbitrary anchor and table; most
    of them break the axioms."""
    r = draw(st.integers(1, 3))
    entry = polys(R2, max_degree=1, max_terms=2)
    keys = st.tuples(st.integers(0, r - 1), st.integers(0, r - 1))
    anchor = draw(st.tuples(*[st.tuples(entry, entry)] * r))
    table = st.dictionaries(keys, st.tuples(*[entry] * r), max_size=4)
    return LieData(R2, r, anchor, draw(table))


@given(lie_data(), st.data())
@settings(max_examples=30, deadline=None)
def test_bracket_leibniz_rules_hold_for_any_table(a, data):
    """[u, f v] = f [u, v] + anchor(u)(f) v and [f u, v] = f [u, v] -
    anchor(v)(f) u, with no coanchor term, whatever the table: why
    leibniz_rule is a pass by construction."""
    section = st.tuples(*[polys(R2)] * a.rank)
    u, v, f = data.draw(section), data.draw(section), data.draw(polys(R2))
    uv = a.bracket(u, v)
    scale, add, sub = linalg.vec_scale, linalg.vec_add, linalg.vec_sub
    right = add(scale(f, uv), scale(a.anchor_of(u).apply(f), v))
    assert linalg.vec_eq(a.bracket(u, scale(f, v)), right)
    left = sub(scale(f, uv), scale(a.anchor_of(v).apply(f), u))
    assert linalg.vec_eq(a.bracket(scale(f, u), v), left)


@given(lie_data(), st.data())
@settings(max_examples=30, deadline=None)
def test_bracket_with_a_marking_is_decided_by_generators_and_its_anchor(a, data):
    """[u, m] = sum_i u_i [e_i, m] - anchor(m)(u_i) e_i for an arbitrary
    section m (L1 in the left slot), so m is central, as the marking of a
    line extension is, iff [e_i, m] = 0 for every i and anchor(m) = 0."""
    section = st.tuples(*[polys(R2)] * a.rank)
    u, m = data.draw(section), data.draw(section)
    rho_m = a.anchor_of(m)
    scale, add, sub = linalg.vec_scale, linalg.vec_add, linalg.vec_sub
    expected = a.zero_section()
    for i in range(a.rank):
        gen_term = scale(u[i], a.bracket(a.gen(i), m))
        expected = add(expected, sub(gen_term, scale(rho_m.apply(u[i]), a.gen(i))))
    assert linalg.vec_eq(a.bracket(u, m), expected)


@given(lie_data(), st.data())
@settings(max_examples=25, deadline=None)
def test_jacobiator_slots_obey_l13(a, data):
    """L13: with A(u, v) = anchor([u, v]) - [anchor u, anchor v], function-
    linear in both slots, J(u, v, f w) = f J - A(u, v)(f) w, J(u, f v, w)
    = f J + A(u, w)(f) v and J(f u, v, w) = f J - A(v, w)(f) u
    + anchor(w)(f) ([u, v] + [v, u])."""
    section = st.tuples(*[polys(R2)] * a.rank)
    u, v, w = (data.draw(section) for _ in range(3))
    f = data.draw(polys(R2))
    scale, add, sub = linalg.vec_scale, linalg.vec_add, linalg.vec_sub

    def anchor_defect(x, y):
        return a.anchor_of(a.bracket(x, y)) - a.anchor_of(x).bracket(a.anchor_of(y))

    base = scale(f, jacobiator(a, u, v, w))
    assert anchor_defect(scale(f, u), v) == vfield_scale(anchor_defect(u, v), f)
    assert anchor_defect(u, scale(f, v)) == vfield_scale(anchor_defect(u, v), f)
    expected = sub(base, scale(anchor_defect(u, v).apply(f), w))
    assert linalg.vec_eq(jacobiator(a, u, v, scale(f, w)), expected)
    expected = add(base, scale(anchor_defect(u, w).apply(f), v))
    assert linalg.vec_eq(jacobiator(a, u, scale(f, v), w), expected)
    symmetric = add(a.bracket(u, v), a.bracket(v, u))
    expected = sub(base, scale(anchor_defect(v, w).apply(f), u))
    expected = add(expected, scale(a.anchor_of(w).apply(f), symmetric))
    assert linalg.vec_eq(jacobiator(a, scale(f, u), v, w), expected)


def test_exact_verdicts_on_every_tangent_r3_mutant():
    """+1 and +x1 on one anchor or table entry of the tangent algebroid of
    R3. The survivors are the anchor shifts whose vector fields still
    commute; every other mutant breaks anchor_morphism, which by L13 also
    breaks jacobi_identity."""
    from test_acceptance import _perturbed_lie

    a = tangent_algebroid(R3)
    one, x1 = Poly.one(R3), Poly.coord(R3, 0)
    mutants = [("anchor", (i, j)) for i in range(3) for j in range(3)]
    mutants += [("structure", idx) for idx in product(range(3), repeat=3)]
    survivors = []
    for (where, idx), delta in product(mutants, (one, x1)):
        rep = check_lie_algebroid(_perturbed_lie(a, where, idx, delta))
        if rep.ok:
            survivors.append((where, idx, str(delta)))
        else:
            assert not rep["anchor_morphism"].passed
            assert not rep["jacobi_identity"].passed
    commuting = [("anchor", (0, j), "x1") for j in range(3)]
    shifts = [("anchor", (i, j), "1") for i in range(3) for j in range(3)]
    assert sorted(survivors) == sorted(shifts + commuting)


def test_jacobi_identity_catches_a_symmetric_entry_past_the_generators():
    """[e0, e0] = e2 on the magnetic line extension of the plane: e2 is
    central and anchor-free, so every generator triple and the anchor hold,
    but J(x1 e0, e0, e0) = anchor(e0)(x1) ([e0, e0] + [e0, e0]) = 2 e2."""
    from test_acceptance import A2, _magnetic_total, _perturbed_lie

    a = _perturbed_lie(_magnetic_total(A2), "structure", (0, 0, 2), 1)
    rep = check_lie_algebroid(a)
    assert [c.name for c in rep.failures()] == ["antisymmetry", "jacobi_identity"]
    label = rep["jacobi_identity"].counterexample
    assert label == "sections (x1*e0, e0, e0): defect (0, 0, 2)"
    u = (Poly.coord(A2, 0), Poly.zero(A2), Poly.zero(A2))
    e0 = a.gen(0)
    assert linalg.vec_eq(jacobiator(a, u, e0, e0), linalg.vec_scale(2, a.gen(2)))
