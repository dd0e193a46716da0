"""Courant structure data: axioms, twists, connections, combinations."""

from collections import Counter
import copy
import dataclasses
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
import pickle
import random
import re
import sys
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from algebroids.anchored import (
    anchor_defects,
    jacobi_generator_failures,
    jacobiator,
    paired,
    pairings,
    support,
)
from algebroids.courant import (
    Connection,
    CourantData,
    baer_combination,
    baer_sum,
    check_courant,
    check_courant_morphism,
    coordinate_connection,
    curvature,
    generator_defects,
    standard_exact,
    twist,
)
from algebroids.descent import two_form_transform
from algebroids.dirac import DiracData, support_inclusion
from algebroids.errors import ChartMismatchError, ValidationError
from algebroids.lie_algebroid import LieData, check_lie_algebroid, tangent_algebroid
from algebroids.linalg import (
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
from algebroids import anchored as anchored_module
from algebroids import pullback as pullback_module
from algebroids.pullback import morphism_graph
from algebroids.symcalc import (
    Chart,
    ChartMap,
    KForm,
    Poly,
    coordinate_chart,
    parse_poly,
)

from oracles import (
    associated_lie_algebroid,
    check_names,
    combination_unpaired,
    combination_vanishes,
    connection_shift,
    direct_sum,
    expand,
    kform_scale,
    opposite,
    predicate_masks,
    scalar_multiple,
    unpruned_bracket_table,
    unpruned_first_labels,
    unpruned_generator_cases,
    unpruned_pairing_table,
    unpruned_twist,
    vfield_add,
    vfield_scale,
    vfield_zero,
)
from test_acceptance import A2, _perturbed, _perturbed_lie, first_order_probe_witness
from test_lie_algebroid import lie_data
from test_symcalc import kforms, polys, triangular_maps, vfields

R1 = coordinate_chart("L", 1)
R2 = coordinate_chart("P", 2)
R3 = coordinate_chart("X", 3)
R4 = coordinate_chart("W", 4)

CHECK_NAMES = [
    "eq1_anchor_coanchor",
    "eq2_leibniz_rule",
    "eq3_pairing_invariance",
    "eq4_coanchor_ideal",
    "eq5_adjunction",
    "eq6_symmetrization",
    "leibniz_identity",
]


def sec(chart, *exprs):
    return tuple(parse_poly(e, chart) for e in exprs)


def vol3(scale="1"):
    return KForm(R3, 3, {(0, 1, 2): parse_poly(scale, R3)})


def test_standard_passes_small_dims():
    for chart in (R1, R2, R3):
        rep = check_courant(standard_exact(chart), samples=8, seed=3)
        assert rep.ok, str(rep)
        assert check_names(rep) == CHECK_NAMES


@pytest.mark.parametrize("m", [standard_exact(R2), tangent_algebroid(R2)], ids=["courant", "lie"])
def test_bracket_with_a_zero_side_checks_chart_and_length(m):
    u = unit_vec(R2, m.rank, 0)
    assert vec_eq(m.bracket(u, m.zero_section()), m.zero_section())
    # leibniz_sum skips the zero and constant entries of a nonzero section,
    # and with them the chart check of VField.apply; the check is kept.
    x1, rest = Poly.coord(R2, 0), zero_vec(R2, m.rank - 2)
    for bad, error in (
        (zero_vec(R3, m.rank), ChartMismatchError),
        ((x1, Poly.zero(R3)) + rest, ChartMismatchError),
        ((x1, Poly.one(R3)) + rest, ChartMismatchError),
        (zero_vec(R2, m.rank - 1), ValidationError),
        (zero_vec(R2, m.rank + 1), ValidationError),
        (unit_vec(R2, m.rank - 1, 0), ValidationError),
        (unit_vec(R2, m.rank + 1, m.rank), ValidationError),
    ):
        for pair in ((bad, u), (u, bad), (bad, m.zero_section())):
            with pytest.raises(error):
                m.bracket(*pair)


def test_ruled_out_e4_brackets_check_the_coanchor_chart():
    """check_courant skips [e_a, coanchor[j]] when bracket_vanishes rules it
    out, so the skip makes no chart check of the coanchor row, and needs
    none: an all-zero row on another chart, ruled out against every
    generator, is refused when CourantData is built, and a built structure
    is frozen, so the row cannot be assigned after construction either."""
    q = standard_exact(R2)
    foreign = (zero_vec(R3, q.rank),) + q.coanchor[1:]
    assert all(q.bracket_vanishes(support(q.gen(a)), support(foreign[0])) for a in range(q.rank))
    with pytest.raises(ChartMismatchError):
        dataclasses.replace(q, coanchor=foreign)
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.coanchor = foreign
    assert check_courant(q).ok


def _on_r3(p):
    return Poly.const(R3, p.as_constant())


@pytest.mark.parametrize(
    "where, index",
    [("anchor", 0), ("anchor", 2), ("pairing", 0), ("pairing", 3)],
    ids=["unit-anchor-row", "zero-anchor-row", "pairing-row-0", "pairing-row-3"],
)
def test_skipped_constant_terms_check_the_row_charts(where, index):
    """check_courant skips the terms that constant anchor and pairing rows
    make zero (the E4 right sides, the anchor defects, the anchor action
    on g_ab in E3 and E6, and the generator defects whose pairing is not
    paired), and the skips need no row check. A row with entries on
    another chart is refused by CourantData, and a built structure is
    frozen, so it cannot be assigned after construction either: an anchor
    row moved to R3 whole, and a pairing row (with its mirrored column)
    whose zero entries are moved to R3, which no pairing multiplies. With
    the anchor row as its first, LieData refuses it the same way."""
    q = standard_exact(R2)
    if where == "anchor":
        row = tuple(map(_on_r3, q.anchor[index]))
        moved = q.anchor[:index] + (row,) + q.anchor[index + 1 :]
    else:
        moved = tuple(
            tuple(
                _on_r3(p) if index in (a, b) and p.is_zero else p
                for b, p in enumerate(row)
            )
            for a, row in enumerate(q.pairing)
        )
    assert support(moved[index]).constant
    with pytest.raises(ChartMismatchError):
        dataclasses.replace(q, **{where: moved})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(q, where, moved)
    assert check_courant(q).ok
    if where == "anchor":
        lie = tangent_algebroid(R2)
        lie_moved = (moved[index],) + lie.anchor[1:]
        with pytest.raises(ChartMismatchError):
            dataclasses.replace(lie, anchor=lie_moved)
        with pytest.raises(dataclasses.FrozenInstanceError):
            lie.anchor = lie_moved


def test_a_checked_courant_structure_cannot_change():
    """A pass stays a proof about the data it checked: CourantData and
    Connection are frozen once validated, so the masks a check caches
    cannot go stale. Assigning a field raises FrozenInstanceError and the
    table is read-only; a mutant is a new instance (dataclasses.replace),
    validated and checked afresh. The table [e_0, e_1] = x1 e_0 breaks
    pairing invariance, symmetrization and the Jacobi identity of the
    standard structure."""
    q = standard_exact(R2)
    conn = coordinate_connection(q)
    assert check_courant(q).ok
    x1 = Poly.coord(R2, 0)
    table = {(0, 1): vec_scale(x1, q.gen(0))}
    for target, name, value in (
        (q, "structure", table),
        (q, "anchor", q.anchor[::-1]),
        (q, "pairing", q.pairing[::-1]),
        (conn, "columns", conn.columns[::-1]),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, name, value)
    with pytest.raises(TypeError):
        q.structure[(0, 1)] = table[(0, 1)]
    assert check_courant(q).ok
    mutant = dataclasses.replace(q, structure=table)
    assert dict(mutant.structure) == table and mutant.pairing == q.pairing
    rep = check_courant(mutant)
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {
        "eq3_pairing_invariance",
        "eq6_symmetrization",
        "leibniz_identity",
    }, str(rep)


def test_frozen_structure_data_copies_and_pickles_to_an_equal_frozen_copy():
    """Deep copies and pickle round trips of frozen structure data: the
    read-only table of CourantData and LieData is rebuilt through the
    constructor, and Connection and DiracData carry their structure along.
    Each copy equals its original, is another object, and is frozen. A
    chart is copied through its constructor too, so the zero and unit of a
    copy lie on the copy."""
    q = standard_exact(R3, vol3("x1 + x2"))
    sub = support_inclusion(R2, ("x2",)).source
    dirac = DiracData(
        standard_exact(R2), (unit_vec(sub, 4, 0), unit_vec(sub, 4, 3)), ("x2",)
    )
    chart = Chart("C", ("x1", "x2"))
    assert (Poly.zero(chart), Poly.one(chart)) == (chart.zero, chart.one)
    for original in (q, tangent_algebroid(R3), coordinate_connection(q), dirac, chart):
        for got in (copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
            assert got == original and got is not original
            name = dataclasses.fields(got)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, name, getattr(got, name))
            if original is chart:
                assert Poly.zero(got).chart is got and Poly.one(got).chart is got
                assert got.zero is not chart.zero and got.zero == chart.zero
            else:
                assert isinstance(getattr(got, "courant", got).structure, MappingProxyType)


def test_twisted_standard_passes():
    for h in (vol3(), vol3("x1 + x2")):
        rep = check_courant(standard_exact(R3, h), samples=6, seed=5)
        assert rep.ok, str(rep)


def test_nonclosed_twist_fails_leibniz_only():
    h = KForm(R4, 3, {(1, 2, 3): Poly.coord(R4, 0)})
    assert not h.d().is_zero
    rep = check_courant(standard_exact(R4, h), samples=4, seed=7)
    assert [c.name for c in rep.failures()] == ["leibniz_identity"]
    assert "defect" in rep["leibniz_identity"].counterexample


def test_twist_matches_twisted_standard():
    for h in (vol3(), vol3("x1*x3")):
        assert twist(standard_exact(R3), h) == standard_exact(R3, h)


def test_twists_compose_additively():
    h1, h2 = vol3("x1"), vol3("x2 - 2*x3")
    assert twist(twist(standard_exact(R3), h1), h2) == standard_exact(
        R3, h1 + h2
    )


@given(st.sampled_from([R2, R3]), st.data())
@settings(max_examples=25, deadline=None)
def test_pruned_twist_is_the_unpruned_twist_on_standard_structures(chart, data):
    """twist contracts h only along nonzero anchors and adds the term only
    where both anchors are nonzero; a zero anchor contracts to zero."""
    forms = kforms(chart, 3, max_degree=2) if chart.dim == 3 else st.just(KForm.zero(chart, 3))
    q = standard_exact(chart, data.draw(forms))
    h = data.draw(forms)
    assert twist(q, h) == unpruned_twist(q, h)


@given(triangular_maps(), st.data())
@settings(max_examples=10, deadline=None)
def test_pruned_twist_is_the_unpruned_twist_on_pulled_structures(f, data):
    """On the inverse image of twisted R3 along a triangular map, whose
    anchor rows are polynomial or zero."""
    chart = f.target
    twisted = standard_exact(chart, KForm(chart, 3, {(0, 1, 2): Poly.coord(chart, 0)}))
    q = pullback_module.pullback_courant(f, twisted).result
    h = data.draw(kforms(f.source, 3, max_degree=1))
    assert twist(q, h) == unpruned_twist(q, h)


def test_twist_reads_each_anchor_row_and_contracts_only_nonzero_anchors(monkeypatch):
    """Op-count gate on one twist of standard R3: 3 contractions of h along
    the nonzero anchors, 9 more on the pairs of nonzero anchors, and no
    anchor_of call (42 of each without the pruning)."""
    calls = Counter()

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    q = standard_exact(R3)
    counting(KForm, "iota")
    counting(anchored_module.AnchoredModule, "anchor_of")
    assert twist(q, vol3("x1 + x2")) == standard_exact(R3, vol3("x1 + x2"))
    assert (calls["iota"], calls["anchor_of"]) == (12, 0)


def test_section_bracket_values():
    q = standard_exact(R2)
    # {x2 d1, d2} = -d1 and {x1 d1, dx1} picks up the coanchor correction.
    u = sec(R2, "x2", "0", "0", "0")
    assert q.bracket(u, q.gen(1)) == sec(R2, "-1", "0", "0", "0")
    v = sec(R2, "x1", "0", "0", "0")
    assert q.bracket(v, q.gen(2)) == sec(R2, "0", "0", "1", "0")


def test_opposite_is_involutive_and_valid():
    q = standard_exact(R2)
    assert opposite(opposite(q)) == q
    assert check_courant(opposite(q), samples=6, seed=11).ok


def test_direct_sum_valid():
    q = direct_sum(standard_exact(R2), opposite(standard_exact(R2)))
    assert q.rank == 8
    rep = check_courant(q, samples=4, seed=13)
    assert rep.ok, str(rep)


def test_nonsymmetric_pairing_rejected():
    q = standard_exact(R1)
    bad = (sec(R1, "0", "1"), sec(R1, "0", "0"))
    with pytest.raises(ValidationError):
        CourantData(R1, 2, q.anchor, q.coanchor, bad, {})


def test_asymmetric_pairing_names_its_first_pair_in_row_order():
    """The symmetry check compares each pair a < b once; of the asymmetric
    pairs (0,2) and (1,2), the message names (0,2)."""
    q = standard_exact(R2)
    bad = [list(row) for row in q.pairing]
    bad[0][2] = parse_poly("x1", R2)
    bad[1][2] = Poly.one(R2)
    with pytest.raises(ValidationError, match=re.escape("pairing is not symmetric at (0,2)")):
        CourantData(R2, 4, q.anchor, q.coanchor, bad, {})


def test_connection_validation():
    q = standard_exact(R2)
    coordinate_connection(q)
    # Wrong anchor image.
    with pytest.raises(ValidationError):
        Connection(q, (q.gen(0), q.gen(0)))
    # Anchored correctly but not isotropic.
    cols = (
        sec(R2, "1", "0", "1", "0"),
        q.gen(1),
    )
    with pytest.raises(ValidationError):
        Connection(q, cols)
    # Zero entries on another chart, which no anchor or pairing multiplies.
    foreign = tuple(
        tuple(Poly.zero(R3) if p.is_zero else p for p in col)
        for col in coordinate_connection(q).columns
    )
    with pytest.raises(ChartMismatchError):
        Connection(q, foreign)


def test_curvature_recovers_twist():
    for h in (vol3(), vol3("x1 + x2"), vol3("x2*x3")):
        q = standard_exact(R3, h)
        assert curvature(coordinate_connection(q)) == h


def test_curvature_shift_is_torsor_action():
    h = vol3("x1")
    q = standard_exact(R3, h)
    conn = coordinate_connection(q)
    b = KForm(R3, 2, {(0, 1): Poly.coord(R3, 2)})
    shifted = connection_shift(conn, b)
    assert shifted.columns[0] == sec(R3, "1", "0", "0", "0", "x3", "0")
    assert curvature(shifted) == h + b.d()


def test_curvature_shift_seeded_two_forms():
    from algebroids.sampling import sample_kform
    import random

    rng = random.Random(20)
    q = standard_exact(R3, vol3("x1*x2"))
    conn = coordinate_connection(q)
    base = curvature(conn)
    for _ in range(5):
        b = sample_kform(rng, R3, 2)
        assert curvature(connection_shift(conn, b)) == base + b.d()


def _unpruned_curvature(conn):
    """The curvature components, every defect paired with every column."""
    q, cols = conn.courant, conn.columns
    n = q.chart.dim
    return KForm(
        q.chart,
        3,
        {
            (i, j, k): q.pairing_of(q.bracket(cols[i], cols[j]), cols[k])
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
        },
    )


@given(st.sampled_from([R2, R3]), st.data())
@settings(max_examples=25, deadline=None)
def test_pruned_curvature_is_the_unpruned_curvature(chart, data):
    """curvature skips the column brackets that bracket_vanishes rules out
    and the defect/column pairs that are not paired, on twisted structures
    whose connections are shifted by two-forms (so their columns carry
    coanchor terms); every skipped bracket is zero."""
    h = data.draw(kforms(chart, 3, max_degree=1)) if chart.dim == 3 else None
    q = standard_exact(chart, h)
    b = data.draw(kforms(chart, 2, max_degree=2))
    conn = connection_shift(coordinate_connection(q), b)
    cols = conn.columns
    for x, y in product(cols, repeat=2):
        if q.bracket_vanishes(support(x), support(y)):
            assert vec_is_zero(q.bracket(x, y))
    got = curvature(conn)
    assert got == _unpruned_curvature(conn)
    if h is not None:
        assert got == h + b.d()


def test_curvature_brackets_only_admitted_column_pairs(monkeypatch):
    """Op-count gate: the coordinate connection of twisted R3 has constant
    columns with no table entry on the diagonal, so curvature brackets 6
    of its 9 column pairs."""
    q = standard_exact(R3, vol3("x1 + x2"))
    calls = []
    original = CourantData.bracket

    def counted(self, u, v, *args, **kwargs):
        calls.append(1)
        return original(self, u, v, *args, **kwargs)

    monkeypatch.setattr(CourantData, "bracket", counted)
    assert curvature(coordinate_connection(q)) == vol3("x1 + x2")
    assert len(calls) == 6


def test_a_courant_bracket_checks_for_zero_sections_once(monkeypatch):
    """Op-count gate: one Courant bracket of two nonzero sections asks
    _either_zero once (the coanchor term is added to the anchored-module
    sum, which is not guarded again)."""
    q = standard_exact(R3, vol3("x1 + x2"))
    calls = []
    original = anchored_module.AnchoredModule._either_zero

    def counted(self, u, v):
        calls.append(1)
        return original(self, u, v)

    monkeypatch.setattr(anchored_module.AnchoredModule, "_either_zero", counted)
    x1 = Poly.coord(R3, 0)
    u = vec_scale(x1, q.gen(0))
    got = q.bracket(u, q.gen(3))
    assert len(calls) == 1
    assert not vec_is_zero(got)


def test_associated_lie_algebroid_of_standard():
    q = standard_exact(R2)
    lie, projection = associated_lie_algebroid(q)
    assert lie == tangent_algebroid(R2)
    assert projection[0] == unit_vec(R2, 2, 0)
    assert projection[3] == zero_vec(R2, 2)


def test_associated_lie_algebroid_drops_twist():
    q = standard_exact(R3, vol3("x1"))
    lie, _ = associated_lie_algebroid(q)
    assert lie == tangent_algebroid(R3)


def test_baer_sum_of_standards_is_standard():
    h1, h2 = vol3(), vol3("x1 + x2")
    q1, q2 = standard_exact(R3, h1), standard_exact(R3, h2)
    comb = baer_sum(q1, q2, coordinate_connection(q1), coordinate_connection(q2))
    assert comb.result == standard_exact(R3, h1 + h2)
    identity = tuple(comb.result.gen(a) for a in range(comb.result.rank))
    rep = check_courant_morphism(
        comb.result, standard_exact(R3, h1 + h2), identity
    )
    assert rep.ok, str(rep)


def test_weighted_combination_scales_curvatures():
    h1, h2 = vol3("x3"), vol3("x1*x1")
    q1, q2 = standard_exact(R3, h1), standard_exact(R3, h2)
    comb = baer_combination(
        [q1, q2],
        [3, -2],
        [coordinate_connection(q1), coordinate_connection(q2)],
    )
    expected = KForm(
        R3, 3, {(0, 1, 2): parse_poly("3*x3 - 2*x1*x1", R3)}
    )
    assert comb.result == standard_exact(R3, expected)
    assert check_courant(comb.result, samples=4, seed=17).ok


def test_combination_lift_reduce_round_trip():
    h1, h2 = vol3("x2"), vol3()
    q1, q2 = standard_exact(R3, h1), standard_exact(R3, h2)
    comb = baer_combination(
        [q1, q2],
        [2, 1],
        [coordinate_connection(q1), coordinate_connection(q2)],
    )
    cls = sec(R3, "x1", "0", "1", "x2*x3", "0", "2")
    lifted = expand(comb, cls)
    assert q1.anchor_of(lifted[0]) == q2.anchor_of(lifted[1])
    assert comb.reduce(lifted) == cls


def test_combination_input_validation():
    q = standard_exact(R2)
    conn = coordinate_connection(q)
    with pytest.raises(ValidationError):
        baer_combination([q, q], [0, 0], [conn, conn])
    fat = direct_sum(q, opposite(q))
    with pytest.raises(ValidationError):
        baer_combination([fat], [1], [coordinate_connection(fat)])


WEIGHTS = st.lists(
    st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
    min_size=1,
    max_size=3,
).filter(any)


@given(WEIGHTS, st.data())
@settings(max_examples=20, deadline=None)
def test_combination_reduce_inverts_expand(weights, data):
    """reduce(expand(c) + any combination of relations) = c, on summands of
    standard R2 whose connections are shifted by polynomial two-forms, so
    each lift carries coanchor terms."""
    q = standard_exact(R2)
    shifts = [data.draw(kforms(R2, 2, max_degree=1)) for _ in weights]
    conns = [connection_shift(coordinate_connection(q), b) for b in shifts]
    comb = baer_combination([q] * len(weights), weights, conns)
    cls = tuple(data.draw(polys(R2, max_degree=2)) for _ in range(comb.result.rank))
    assert comb.reduce(expand(comb, cls)) == cls
    rel = tuple(data.draw(polys(R2, max_degree=1)) for _ in comb.relations)
    shifted = tuple(
        apply_matrix([r[i] for r in comb.relations], rel, len(e), R2, e)
        for i, e in enumerate(expand(comb, cls))
    )
    assert comb.reduce(shifted) == cls


def test_combination_refuses_summands_with_different_anchors():
    q = standard_exact(R2)
    comb = baer_combination([q, q], [1, 1], [coordinate_connection(q)] * 2)
    with pytest.raises(ValidationError, match="not in the fiber product"):
        comb.reduce((q.gen(0), q.gen(1)))


def test_scalar_multiple_matches_combination():
    h = vol3("x1 + 2*x2")
    q = standard_exact(R3, h)
    comb = baer_combination([q], [5], [coordinate_connection(q)])
    assert comb.result == standard_exact(R3, KForm(R3, 3, {(0, 1, 2): 5 * h.component((0, 1, 2))}))
    sm = scalar_multiple(5, q)
    assert check_courant(sm, samples=4, seed=19).ok
    # sm is the same object presented on unscaled generators; the diagonal
    # rescaling of the coanchor directions maps it onto the combination.
    matrix = tuple(sm.gen(a) for a in range(3)) + tuple(
        tuple(Fraction(5) * p for p in sm.gen(a)) for a in range(3, 6)
    )
    rep = check_courant_morphism(sm, comb.result, matrix)
    assert rep.ok, str(rep)
    with pytest.raises(ValidationError):
        scalar_multiple(0, q)


def test_integer_structures_multiply_on_ints(monkeypatch):
    # An integer structure keeps every coefficient an int through the whole
    # axiom suite; a stray Fraction literal would send every product down
    # the Fraction path. A product with the chart's unit returns the other
    # side, and one with another constant side scales it (scale_terms), so
    # the twist runs along the anchors of the standard structure pulled
    # back by an integer shear, whose entries -x1 and -x2 reach mul_terms:
    # both kernels are watched.
    from algebroids import symcalc

    x1, x2, x3 = (Poly.coord(R3, i) for i in range(3))
    shear = ChartMap(R3, R3, (x1, x2, x3 + x1 * x2))
    seen = []
    real_mul, real_scale = symcalc.mul_terms, symcalc.scale_terms

    def mul_spy(a, b):
        out = real_mul(a, b)
        seen.extend(type(c) for terms in (a, b, out) for c in terms.values())
        return out

    def scale_spy(a, c):
        out = real_scale(a, c)
        seen.extend(type(x) for x in (*a.values(), c, *out.values()))
        return out

    monkeypatch.setattr(symcalc, "mul_terms", mul_spy)
    monkeypatch.setattr(symcalc, "scale_terms", scale_spy)
    sheared = pullback_module.pullback_courant(shear, standard_exact(R3)).result
    rep = check_courant(twist(sheared, vol3("x1")), samples=8, seed=0)
    assert rep.ok, str(rep)
    assert seen and set(seen) == {int}


def _coeff_types(polys):
    return {type(c) for p in polys for c in p.terms.values()}


def _table_polys(q):
    for table in (q.anchor, q.coanchor, q.pairing):
        for row in table:
            yield from row
    for vec in q.structure.values():
        yield from vec


def test_rational_weights_and_solves_never_yield_floats():
    from algebroids.linalg import left_inverse, qq_solve

    x1 = Poly.coord(R2, 0)
    inv = left_inverse([[Poly.const(R2, 2), x1], [Poly.zero(R2), Poly.one(R2)]])
    assert inv == [
        [Poly.const(R2, Fraction(1, 2)), x1 * Fraction(-1, 2)],
        [Poly.zero(R2), Poly.one(R2)],
    ]
    assert float not in _coeff_types(p for row in inv for p in row)
    x = qq_solve([[2, 1], [0, 4]], [1, 3])
    assert x == [Fraction(1, 8), Fraction(3, 4)]
    assert {type(c) for c in x} == {Fraction}

    q = standard_exact(R3, vol3("x1 + 2*x2"))
    half = scalar_multiple(Fraction(1, 2), q)
    assert Fraction in _coeff_types(_table_polys(half))
    assert float not in _coeff_types(_table_polys(half))
    comb = baer_combination(
        [q, q], [Fraction(1, 3), Fraction(2, 3)], [coordinate_connection(q)] * 2
    )
    assert float not in _coeff_types(_table_polys(comb.result))


def test_morphism_check_flags_wrong_twist():
    h1, h2 = vol3(), vol3("x3")
    q1, q2 = standard_exact(R3, h1), standard_exact(R3, h2)
    identity = tuple(q1.gen(a) for a in range(q1.rank))
    rep = check_courant_morphism(q1, q2, identity)
    assert [c.name for c in rep.failures()] == ["morphism_bracket"]


@pytest.mark.parametrize(
    "q, matrix, count",
    [
        (standard_exact(R2), lambda q: [q.gen(a) for a in range(q.rank)], 4),
        (standard_exact(R3, vol3()), lambda q: [q.gen(a) for a in range(q.rank)], 9),
        (
            standard_exact(R3, vol3()),
            lambda q: two_form_transform(q, KForm(R3, 2, {(0, 1): Poly.coord(R3, 0)})),
            11,
        ),
    ],
    ids=["standard-R2-identity", "twisted-R3-identity", "twisted-R3-closed-two-form"],
)
def test_morphism_check_computes_each_anchor_at_most_once(monkeypatch, q, matrix, count):
    """Op-count gate on the anchor_of calls of one check_courant_morphism:
    the anchor check reads the source anchor rows, and the bracket check
    computes each image row's anchor once, on its first bracket, and none
    for a row it never brackets (8, 24 and 32 calls when every anchor was
    computed per comparison and per bracket)."""
    matrix = matrix(q)
    calls = []
    original = anchored_module.AnchoredModule.anchor_of

    def counted(self, u):
        calls.append(1)
        return original(self, u)

    monkeypatch.setattr(anchored_module.AnchoredModule, "anchor_of", counted)
    assert check_courant_morphism(q, q, matrix).ok
    assert len(calls) == count


def test_morphism_check_takes_the_row_supports_once(monkeypatch):
    """Op-count gate on the support calls of one check_courant_morphism of
    standard R3 with the identity matrix: the supports of the six rows are
    taken once and passed to both the pairing and the bracket check, 6
    calls where each check taking its own made 12."""
    q = standard_exact(R3)
    calls = []
    support_of = anchored_module.support

    def counted_support(vec):
        calls.append(1)
        return support_of(vec)

    for name, module in list(sys.modules.items()):
        if name.startswith("algebroids.") and getattr(module, "support", None) is support_of:
            monkeypatch.setattr(module, "support", counted_support)
    assert check_courant_morphism(q, q, [q.gen(a) for a in range(q.rank)]).ok
    assert len(calls) == 6


def test_a_refuted_morphism_stops_at_its_first_counterexample(monkeypatch):
    """Op-count gate on one check_courant_morphism of standard R3 with
    every generator scaled by 1 + x1, which refutes all four checks: the
    pairing and bracket checks walk the row-order entries of the image
    rows as they check the pairs, so each stops at its first failing pair.
    When both built their whole table first, the run made 27 brackets and
    6 pairings; it makes 2 and 1."""
    q = standard_exact(R3)
    scale = Poly.one(R3) + Poly.coord(R3, 0)
    matrix = tuple(vec_scale(scale, q.gen(a)) for a in range(q.rank))
    calls = Counter()
    bracket, pairing_of = CourantData.bracket, CourantData.pairing_of

    def counted_bracket(self, *args):
        calls["bracket"] += 1
        return bracket(self, *args)

    def counted_pairing(self, *args):
        calls["pairing_of"] += 1
        return pairing_of(self, *args)

    monkeypatch.setattr(CourantData, "bracket", counted_bracket)
    monkeypatch.setattr(CourantData, "pairing_of", counted_pairing)
    rep = check_courant_morphism(q, q, matrix)
    assert [c.passed for c in rep.checks] == [False] * 4
    assert calls == Counter(bracket=2, pairing_of=1)


def _rows(count, length):
    """count rows of length polynomials on R2 of degree at most 1."""
    entry = polys(R2, max_degree=1, max_terms=2)
    return st.tuples(*[st.tuples(*[entry] * length) for _ in range(count)])


@st.composite
def courant_data(draw, min_rank=1):
    """CourantData on R2 of rank min_rank-3 with an arbitrary anchor,
    coanchor, symmetric pairing and table; most of them break the axioms."""
    r = draw(st.integers(min_rank, 3))
    upper = draw(_rows(r, r))
    pairing = tuple(
        tuple(upper[min(a, b)][max(a, b)] for b in range(r)) for a in range(r)
    )
    keys = st.tuples(st.integers(0, r - 1), st.integers(0, r - 1))
    table = st.dictionaries(keys, _rows(1, r).map(lambda m: m[0]), max_size=4)
    return CourantData(
        R2, r, draw(_rows(r, 2)), draw(_rows(2, r)), pairing, draw(table)
    )


@given(courant_data(), st.data())
@settings(max_examples=30, deadline=None)
def test_bracket_leibniz_rules_hold_for_any_table(q, data):
    """[u, f v] = f [u, v] + anchor(u)(f) v, and in the left slot
    [f u, v] = f [u, v] - anchor(v)(f) u + <u, v> coanchor(df), whatever
    the structure data: why eq2_leibniz_rule is a pass by construction."""
    section = st.tuples(*[polys(R2)] * q.rank)
    u, v, f = data.draw(section), data.draw(section), data.draw(polys(R2))
    uv = q.bracket(u, v)
    right = vec_add(vec_scale(f, uv), vec_scale(q.anchor_of(u).apply(f), v))
    assert vec_eq(q.bracket(u, vec_scale(f, v)), right)
    left = vec_sub(vec_scale(f, uv), vec_scale(q.anchor_of(v).apply(f), u))
    df = q.coanchor_of(KForm.from_poly(f).d())
    left = vec_add(left, vec_scale(q.pairing_of(u, v), df))
    assert vec_eq(q.bracket(vec_scale(f, u), v), left)


@given(st.sampled_from([R2, R3, R4]), st.data())
@settings(max_examples=30, deadline=None)
def test_cartans_formulas_on_coordinate_differentials(chart, data):
    """i_X dx_j = X^j and L_X dx_j = d X^j for polynomial fields X: the
    closed right sides of rule_interior_action and rule_lie_action
    (check_tau_rules), and of E4(e_a, dx_j) in check_courant."""
    x = data.draw(vfields(chart, max_degree=2, max_terms=2))
    for j in range(chart.dim):
        dx = KForm.dx(chart, j)
        assert dx.iota(x).as_poly() == x.comps[j]
        assert dx.lie(x) == KForm.from_poly(x.comps[j]).d()


@given(courant_data(), st.data())
@settings(max_examples=30, deadline=None)
def test_coanchor_d_is_the_coanchor_of_the_differential(q, data):
    """CourantData.coanchor_d reads c(dp) from the partials of p."""
    p = data.draw(polys(R2, max_den=3))
    assert q.coanchor_d(p) == q.coanchor_of(KForm.from_poly(p).d())


# Constant shifts of the tangent block of the pairing keep standard R2 a
# Courant structure: the axioms do not ask for a nondegenerate pairing.
R2_SURVIVORS = [
    ("pairing", idx, delta)
    for idx in ((0, 0), (0, 1), (1, 1))
    for delta in ("1", "-1")
]


def _mutants(q, site_deltas, table_deltas):
    """Each delta on one anchor, coanchor or pairing entry (the pairing kept
    symmetric) and each table delta on one structure entry of q."""
    r, n = q.rank, q.chart.dim
    sites = [("anchor", (a, j)) for a in range(r) for j in range(n)]
    sites += [("coanchor", (j, a)) for j in range(n) for a in range(r)]
    sites += [("pairing", (a, b)) for a in range(r) for b in range(a, r)]
    mutants = [(w, i, d) for w, i in sites for d in site_deltas]
    return mutants + [
        ("structure", idx, d)
        for idx in product(range(r), repeat=3)
        for d in table_deltas
    ]


def _survivors(q, mutants):
    """The mutants that pass check_courant without samples."""
    survivors = []
    for where, idx, delta in mutants:
        rep = check_courant(_perturbed(q, where, idx, delta), samples=0)
        assert rep["eq2_leibniz_rule"].passed
        if rep.ok:
            survivors.append((where, idx, str(delta)))
    return survivors


def test_generator_cases_refute_every_r2_mutant_but_pairing_shifts():
    """Every +-1/+-x_i shift of one anchor, coanchor or pairing entry and
    every +1/-1/+x1 shift of one table entry of standard R2."""
    q = standard_exact(R2)
    one, x1, x2 = Poly.one(R2), Poly.coord(R2, 0), Poly.coord(R2, 1)
    mutants = _mutants(q, (one, -one, x1, -x1, x2, -x2), (one, -one, x1))
    assert len(mutants) == 348
    assert _survivors(q, mutants) == R2_SURVIVORS


def test_generator_cases_refute_every_r3_mutant_but_pairing_shifts():
    """+1 and +x1 on one anchor, coanchor or pairing entry and +1 on one
    table entry of R3 twisted by (x1 + x2) dx1 dx2 dx3. Only the constant
    shifts of the tangent block of the pairing survive, as on R2."""
    q = standard_exact(R3, vol3("x1 + x2"))
    one, x1 = Poly.one(R3), Poly.coord(R3, 0)
    mutants = _mutants(q, (one, x1), (one,))
    assert len(mutants) == 330
    survivors = [("pairing", (a, b), "1") for a in range(3) for b in range(a, 3)]
    assert _survivors(q, mutants) == survivors


# Defects of eq3-eq6 on arbitrary sections; check_courant decides each on
# generators plus the first-order probe cases of lemmas L5-L8.


def e3(q, u, v, w):
    """anchor(u)<v, w> - <[u, v], w> - <v, [u, w]>."""
    lhs = q.anchor_of(u).apply(q.pairing_of(v, w))
    return lhs - q.pairing_of(q.bracket(u, v), w) - q.pairing_of(v, q.bracket(u, w))


def e4(q, u, alpha):
    """[u, coanchor(alpha)] - coanchor(L_{anchor(u)} alpha)."""
    lhs = q.bracket(u, q.coanchor_of(alpha))
    return vec_sub(lhs, q.coanchor_of(alpha.lie(q.anchor_of(u))))


def e5(q, u, alpha):
    """<u, coanchor(alpha)> - alpha(anchor(u))."""
    lhs = q.pairing_of(u, q.coanchor_of(alpha))
    return lhs - alpha.iota(q.anchor_of(u)).as_poly()


def e6(q, u, v):
    """[u, v] + [v, u] - coanchor(d<u, v>)."""
    lhs = vec_add(q.bracket(u, v), q.bracket(v, u))
    return vec_sub(lhs, q.coanchor_of(KForm.from_poly(q.pairing_of(u, v)).d()))


def _draw_sections(q, data, count, **kw):
    section = st.tuples(*[polys(R2, **kw)] * q.rank)
    return [data.draw(section) for _ in range(count)]


@given(courant_data(), st.data())
@settings(max_examples=25, deadline=None)
def test_adjunction_and_symmetrization_defects_are_function_linear(q, data):
    """L5 and L6: the eq5 and eq6 defects are function-linear in every
    argument, whatever the structure data."""
    u, v = _draw_sections(q, data, 2)
    f = data.draw(polys(R2))
    alpha = data.draw(kforms(R2, 1))
    fu, fv = vec_scale(f, u), vec_scale(f, v)
    assert e5(q, fu, alpha) == f * e5(q, u, alpha)
    assert e5(q, u, kform_scale(alpha, f)) == f * e5(q, u, alpha)
    assert vec_eq(e6(q, fu, v), vec_scale(f, e6(q, u, v)))
    assert vec_eq(e6(q, u, fv), vec_scale(f, e6(q, u, v)))


@given(courant_data(), st.data())
@settings(max_examples=25, deadline=None)
def test_pairing_invariance_defect_obeys_l7(q, data):
    """E3 is function-linear in v and w, and E3(f u, v, w) = f E3(u, v, w)
    - <u, v> E5(w, df) - <u, w> E5(v, df)."""
    u, v, w = _draw_sections(q, data, 3)
    f = data.draw(polys(R2))
    df = KForm.from_poly(f).d()
    base = e3(q, u, v, w)
    assert e3(q, u, vec_scale(f, v), w) == f * base
    assert e3(q, u, v, vec_scale(f, w)) == f * base
    expected = (
        f * base
        - q.pairing_of(u, v) * e5(q, w, df)
        - q.pairing_of(u, w) * e5(q, v, df)
    )
    assert e3(q, vec_scale(f, u), v, w) == expected


@given(courant_data(), st.data())
@settings(max_examples=25, deadline=None)
def test_coanchor_ideal_defect_obeys_l8(q, data):
    """E4 is function-linear in alpha, and E4(f u, alpha) = f E4(u, alpha)
    - anchor(coanchor(alpha))(f) u + E5(u, alpha) coanchor(df)."""
    (u,) = _draw_sections(q, data, 1)
    f = data.draw(polys(R2))
    alpha = data.draw(kforms(R2, 1))
    base = e4(q, u, alpha)
    falpha = kform_scale(alpha, f)
    assert vec_eq(e4(q, u, falpha), vec_scale(f, base))
    n_alpha = q.anchor_of(q.coanchor_of(alpha))
    expected = vec_sub(vec_scale(f, base), vec_scale(n_alpha.apply(f), u))
    df = q.coanchor_of(KForm.from_poly(f).d())
    expected = vec_add(expected, vec_scale(e5(q, u, alpha), df))
    assert vec_eq(e4(q, vec_scale(f, u), alpha), expected)


# The slot formulas of the jacobiator J (L10-L12 in check_courant), each
# against direct jacobiator calls on tables that break the axioms.


def anchor_defect(q, u, v):
    """anchor([u, v]) - [anchor(u), anchor(v)]."""
    return q.anchor_of(q.bracket(u, v)) - q.anchor_of(u).bracket(q.anchor_of(v))


def c_d(q, f):
    """coanchor(df)."""
    return q.coanchor_of(KForm.from_poly(f).d())


def _combine(q, *terms):
    """The sum of coefficient * section over (coefficient, section) pairs."""
    out = zero_vec(q.chart, q.rank)
    for coeff, vec in terms:
        out = vec_add(out, vec_scale(coeff, vec))
    return out


@given(courant_data(min_rank=2), st.data())
@settings(max_examples=15, deadline=None)
def test_jacobiator_w_slot_obeys_l10(q, data):
    """J(u, v, f w) = f J(u, v, w) - A(u, v)(f) w; A(u, f v) = f A(u, v)
    and A(f u, v) = f A(u, v) + <u, v> anchor(coanchor(df))."""
    u, v, w = _draw_sections(q, data, 3)
    f = data.draw(polys(R2))
    a_uv = anchor_defect(q, u, v)
    expected = _combine(q, (f, jacobiator(q, u, v, w)), (-a_uv.apply(f), w))
    assert vec_eq(jacobiator(q, u, v, vec_scale(f, w)), expected)
    assert anchor_defect(q, u, vec_scale(f, v)) == vfield_scale(a_uv, f)
    n_df = vfield_scale(q.anchor_of(c_d(q, f)), q.pairing_of(u, v))
    assert anchor_defect(q, vec_scale(f, u), v) == vfield_add(vfield_scale(a_uv, f), n_df)


@given(courant_data(min_rank=2), st.data())
@settings(max_examples=15, deadline=None)
def test_jacobiator_v_slot_obeys_l11(q, data):
    """J(u, f v, w) = f J + A(u, w)(f) v + <v, w> E4(u, df)
    + E3(u, v, w) coanchor(df), and K_k(u, e_b, e_c) = g_bc E4(u, dx_k)
    + E3(u, e_b, e_c) coanchor[k] picks up the closed-form correction of
    L11 at u = x_m e_a."""
    u, v, w = _draw_sections(q, data, 3)
    f = data.draw(polys(R2))
    df = KForm.from_poly(f).d()
    expected = _combine(
        q,
        (f, jacobiator(q, u, v, w)),
        (anchor_defect(q, u, w).apply(f), v),
        (q.pairing_of(v, w), e4(q, u, df)),
        (e3(q, u, v, w), c_d(q, f)),
    )
    assert vec_eq(jacobiator(q, u, vec_scale(f, v), w), expected)

    a, b, c = (data.draw(st.integers(0, q.rank - 1)) for _ in range(3))
    k, m = (data.draw(st.integers(0, 1)) for _ in range(2))
    e = [unit_vec(R2, q.rank, i) for i in range(q.rank)]
    g = q.pairing

    def big_m(i, j):
        return q.pairing_of(e[i], q.coanchor[j]) - q.anchor[i][j]

    def k_defect(u):
        dx_k = KForm.dx(R2, k)
        return _combine(
            q, (g[b][c], e4(q, u, dx_k)), (e3(q, u, e[b], e[c]), q.coanchor[k])
        )

    x_m = Poly.coord(R2, m)
    n_k = q.anchor_of(q.coanchor[k])
    closed = _combine(
        q,
        (g[b][c] * big_m(a, k), q.coanchor[m]),
        (-(g[b][c] * n_k.comps[m]), e[a]),
        (-(g[a][b] * big_m(c, m) + g[a][c] * big_m(b, m)), q.coanchor[k]),
    )
    got = vec_sub(k_defect(vec_scale(x_m, e[a])), vec_scale(x_m, k_defect(e[a])))
    assert vec_eq(got, closed)


@given(courant_data(min_rank=2), st.data())
@settings(max_examples=15, deadline=None)
def test_jacobiator_u_slot_obeys_l12(q, data):
    """The closed forms of J(f u, v, w) and [coanchor(df), w] in L12."""
    u, v, w = _draw_sections(q, data, 3)
    f = data.draw(polys(R2))
    df = KForm.from_poly(f).d()
    cdf = c_d(q, f)
    uv = q.pairing_of(u, v)
    cdf_w = _combine(
        q, (-1, e4(q, w, df)), (1, c_d(q, e5(q, w, df))), (1, e6(q, cdf, w))
    )
    assert vec_eq(q.bracket(cdf, w), cdf_w)
    scalar = (
        e3(q, v, u, w)
        + q.pairing_of(e6(q, u, v), w)
        + e5(q, w, KForm.from_poly(uv).d())
    )
    expected = _combine(
        q,
        (f, jacobiator(q, u, v, w)),
        (-anchor_defect(q, v, w).apply(f), u),
        (-scalar, cdf),
        (q.anchor_of(w).apply(f), e6(q, u, v)),
        (-e5(q, w, df), c_d(q, uv)),
        (-q.pairing_of(u, w), e4(q, v, df)),
        (-uv, cdf_w),
    )
    assert vec_eq(jacobiator(q, vec_scale(f, u), v, w), expected)


@given(courant_data(min_rank=2), st.data())
@settings(max_examples=12, deadline=None)
def test_jacobiator_u_slot_is_second_order(q, data):
    """L12: D(f) = J(f u, v, w) - f J(u, v, w) is the order-two operator
    that D(x_k) and D(x_k x_l) fix, so those probes decide the u slot."""
    u, v, w = _draw_sections(q, data, 3, max_degree=1)
    f = data.draw(polys(R2, max_degree=3))
    base = jacobiator(q, u, v, w)

    def big_d(p):
        return vec_sub(jacobiator(q, vec_scale(p, u), v, w), vec_scale(p, base))

    x = [Poly.coord(R2, k) for k in range(2)]
    first = [big_d(x[k]) for k in range(2)]
    expected = _combine(q, *[(f.diff(k), first[k]) for k in range(2)])
    for k, l in combinations_with_replacement(range(2), 2):
        # (1 + delta_kl) D_kl
        cross = _combine(q, (x[l], first[k]), (x[k], first[l]))
        d_kl = vec_sub(big_d(x[k] * x[l]), cross)
        weight = f.diff(k).diff(l) * Fraction(1, 1 + (k == l))
        expected = vec_add(expected, vec_scale(weight, d_kl))
    assert vec_eq(big_d(f), expected)


@given(courant_data(), st.data())
@settings(max_examples=25, deadline=None)
def test_jacobiator_u_slot_second_order_part_is_closed_form(q, data):
    """L12': on generators, whatever the table, the order-two part of
    D(f) = J(f e_a, e_b, e_c) - f J(e_a, e_b, e_c) is (1 + delta_kl) D_kl
    = -g_ab (M[c][k] coanchor[l] + M[c][l] coanchor[k]), M[c][j] being
    <e_c, coanchor[j]> - anchor(e_c)^j."""
    a, b, c = (data.draw(st.integers(0, q.rank - 1)) for _ in range(3))
    e = [unit_vec(R2, q.rank, i) for i in range(q.rank)]
    base = jacobiator(q, e[a], e[b], e[c])

    def big_d(p):
        return vec_sub(jacobiator(q, vec_scale(p, e[a]), e[b], e[c]), vec_scale(p, base))

    def big_m(j):
        return q.pairing_of(e[c], q.coanchor[j]) - q.anchor[c][j]

    g_ab = q.pairing[a][b]
    x = [Poly.coord(R2, k) for k in range(2)]
    first = [big_d(x[k]) for k in range(2)]
    for k, l in combinations_with_replacement(range(2), 2):
        cross = _combine(q, (x[l], first[k]), (x[k], first[l]))
        closed = _combine(
            q, (-g_ab * big_m(k), q.coanchor[l]), (-g_ab * big_m(l), q.coanchor[k])
        )
        assert vec_eq(vec_sub(big_d(x[k] * x[l]), cross), closed)


def _named_sections(label, chart, rank):
    """The sections x_k*...*e_a a counterexample label names, in order; a
    defect after the colon is not read."""
    out = []
    for coeff, a in re.findall(r"((?:x\d+\*)*)e(\d+)", label.split(":")[0]):
        poly = parse_poly(coeff.rstrip("*") or "1", chart)
        out.append(vec_scale(poly, unit_vec(chart, rank, int(a))))
    return out


def test_probe_cases_name_failing_sections():
    """On the courant-anchor input of the failing-report pins, eq3, eq4
    and leibniz_identity hold on generators and fail on a probe case; the
    identity is nonzero on the sections each one names."""
    q = _perturbed(standard_exact(A2), "anchor", (0, 0), 1)
    rep = check_courant(q, samples=0)
    label = rep["eq3_pairing_invariance"].counterexample
    assert label.startswith("sections (")
    u, v, w = _named_sections(label, A2, q.rank)
    assert not e3(q, u, v, w).is_zero
    label = rep["eq4_coanchor_ideal"].counterexample
    assert label.startswith("section ")
    (u,) = _named_sections(label, A2, q.rank)
    alpha = KForm.dx(A2, A2.coords.index(label.rsplit(" ", 1)[1]))
    assert not vec_eq(e4(q, u, alpha), zero_vec(A2, q.rank))

    label = rep["leibniz_identity"].counterexample
    assert label.startswith("sections (")
    u, v, w = _named_sections(label, A2, q.rank)
    assert not vec_eq(jacobiator(q, u, v, w), zero_vec(A2, q.rank))


def _zero_coanchor(chart):
    """The tangent table with a zero coanchor and the identity pairing. The
    bracket is the bracket of vector fields, so J = 0, but the pairing is
    not invariant (eq3) and the coanchor not adjoint to the anchor (eq5)."""
    n = chart.dim
    frame = tuple(unit_vec(chart, n, i) for i in range(n))
    return CourantData(chart, n, frame, (zero_vec(chart, n),) * n, frame, {})


@pytest.mark.parametrize("chart", [R2, R3])
def test_leibniz_identity_runs_every_probe_when_prerequisites_fail(chart, monkeypatch):
    """The worst case of leibniz_identity: eq3 and eq5 fail, so J is not
    known to be tensorial, yet J = 0, so every stage of L10-L12 runs and
    passes, including all first-order probes."""
    from algebroids import courant

    probes = []
    real = courant.jacobi_left_probe_failures

    def spy(q, batch):
        batch = list(batch)
        probes.extend(label for label, _ in batch)
        return real(q, batch)

    monkeypatch.setattr(courant, "jacobi_left_probe_failures", spy)
    q = _zero_coanchor(chart)
    rep = check_courant(q)
    assert [c.name for c in rep.failures()] == [
        "eq3_pairing_invariance",
        "eq5_adjunction",
    ]
    n = chart.dim
    assert len(probes) == n * n
    assert rep["leibniz_identity"].passed


def test_leibniz_identity_fails_first_on_a_first_order_probe(monkeypatch):
    """The witness of the first-order L12 stage: eq5 and eq6 fail, J
    vanishes on the generator triples and on every L10 and L11 case, and
    the first batch of probes x_k*e_a names the counterexample."""
    from algebroids import courant

    batches = []
    real = courant.jacobi_left_probe_failures

    def spy(q, batch):
        batch = list(batch)
        batches.append([label for label, _ in batch])
        return real(q, batch)

    monkeypatch.setattr(courant, "jacobi_left_probe_failures", spy)
    q = first_order_probe_witness()
    rep = check_courant(q)
    assert [c.name for c in rep.failures()] == [
        "eq5_adjunction",
        "eq6_symmetrization",
        "leibniz_identity",
    ]
    assert not any(jacobi_generator_failures(q))
    assert rep["leibniz_identity"].counterexample == (
        "sections (x1*e1, e1, e0): defect (0, 0, 2)"
    )
    assert batches == [["x1*e0", "x1*e1", "x1*e2"]]


# One witness per closed-form stage of leibniz_identity: the input, the
# candidate triples that stage hands to jacobi_counterexample, and the first
# counterexample. S4 and S5 are the courant-pairing and courant-anchor inputs
# of the failing-report pins; S2 and S3 are one-entry mutants of standard R1.
# S1 (generator triples) is the courant-structure input, S6 (first-order
# probes) first_order_probe_witness.
STAGE_WITNESSES = {
    "S2-anchor-on-generators": (
        lambda: _perturbed(standard_exact(R1), "anchor", (1, 0), Poly.coord(R1, 0)),
        [[("e0", "e1", "x1*e0")]],
        "sections (e0, e1, x1*e0): defect (1, 0)",
    ),
    "S3-pairing-times-N": (
        lambda: _perturbed(standard_exact(R1), "coanchor", (0, 0), Poly.one(R1)),
        [[("x1*e0", "e1", "e0"), ("x1*e0", "e1", "x1*e0")]],
        "sections (x1*e0, e1, x1*e0): defect (-1, 0)",
    ),
    "S4-K-on-generators": (
        lambda: _perturbed(standard_exact(A2), "pairing", (0, 2), Poly.coord(A2, 0)),
        [[("e0", "x1*e0", "e2")]],
        "sections (e0, x1*e0, e2): defect (0, 0, 1, 0)",
    ),
    "S5-L11-correction": (
        lambda: _perturbed(standard_exact(A2), "anchor", (0, 0), 1),
        [[("x1*e0", "e1", "e3"), ("x1*e0", "x1*e1", "e3")]],
        "sections (x1*e0, x1*e1, e3): defect (0, 0, -1, 0)",
    ),
}


@pytest.mark.parametrize("name", list(STAGE_WITNESSES))
def test_leibniz_identity_stage_witnesses(name, monkeypatch):
    """Each closed-form stage of L10 and L11 is the one that refutes some
    input: the earlier stages pass, the stage passes its own candidate
    triples (told apart by where the probe x_k sits) to
    jacobi_counterexample, and its label is the report's counterexample."""
    from algebroids import courant

    build, triples, label = STAGE_WITNESSES[name]
    calls = []
    real = courant.jacobi_counterexample

    def spy(q, *candidates):
        calls.append([tuple(lab for lab, _ in t) for t in candidates])
        return real(q, *candidates)

    monkeypatch.setattr(courant, "jacobi_counterexample", spy)
    rep = check_courant(build())
    assert calls == triples
    assert rep["leibniz_identity"].counterexample == label


def test_leibniz_identity_names_a_probe_past_the_generator_triples():
    """R3 twisted by (x1 + x2) dx1 dx2 dx3 with anchor[0][2] + 1: every
    generator triple and the anchor on generators hold, and leibniz_identity
    fails on probe sections, where J is nonzero."""
    q = _perturbed(standard_exact(R3, vol3("x1 + x2")), "anchor", (0, 2), 1)
    assert not any(jacobi_generator_failures(q))
    label = check_courant(q)["leibniz_identity"].counterexample
    assert label.startswith("sections (")
    u, v, w = _named_sections(label, R3, q.rank)
    assert not vec_eq(jacobiator(q, u, v, w), zero_vec(R3, q.rank))


# ---------------------------------------------------------------------------
# Lemma L14 on sections, and the tables it prunes
# ---------------------------------------------------------------------------

X1_R2, X2_R3 = Poly.coord(R2, 0), Poly.coord(R3, 1)
SUPPORT_MODULES = {
    "R2": standard_exact(R2),
    "R3": standard_exact(R3),
    "R3-twisted": standard_exact(R3, vol3("x1 + x2*x3")),
    # a cotangent generator anchored to x1 d/dx1, a table entry on two
    # cotangent generators, and a nonconstant pairing entry
    "anchor-mutant": _perturbed(standard_exact(R2), "anchor", (2, 0), X1_R2),
    "table-mutant": _perturbed(standard_exact(R2), "structure", (2, 3, 1), X1_R2),
    "pairing-mutant": _perturbed(standard_exact(R3, vol3()), "pairing", (0, 4), X2_R3),
    "lie-mutant": _perturbed_lie(tangent_algebroid(R2), "structure", (0, 1, 1), X1_R2),
}


@st.composite
def sparse_sections(draw, m):
    """A section whose entries are each zero or a polynomial of degree at
    most a cap drawn per section: 0 (constant) or 2."""
    degree = draw(st.sampled_from((0, 2)))
    entry = st.one_of(st.just(Poly.zero(m.chart)), polys(m.chart, max_degree=degree, max_terms=2))
    return tuple(draw(entry) for _ in range(m.rank))


@pytest.mark.parametrize("name", sorted(SUPPORT_MODULES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_section_support_test_rules_out_only_zero_brackets(name, data):
    """Lemma L14 on sections is sound: a pair that bracket_vanishes rules
    out has a zero bracket, on standard and twisted structures and on
    anchor, table and pairing mutants (the pairing one exercises the
    coanchor term of CourantData)."""
    m = SUPPORT_MODULES[name]
    u, v = data.draw(sparse_sections(m)), data.draw(sparse_sections(m))
    if m.bracket_vanishes(support(u), support(v)):
        assert vec_is_zero(m.bracket(u, v))


@pytest.mark.parametrize(
    "name", sorted(n for n, m in SUPPORT_MODULES.items() if isinstance(m, CourantData))
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pairing_support_test_rules_out_only_zero_pairings(name, data):
    """Lemma L14 on pairings is sound: a pair of sections that paired
    rules out has a zero pairing_of."""
    q = SUPPORT_MODULES[name]
    u, v = data.draw(sparse_sections(q)), data.draw(sparse_sections(q))
    if not paired(q.pairing_masks, support(u), support(v)):
        assert q.pairing_of(u, v).is_zero


def nonzero_indices(vec):
    """The indices of the nonzero entries of vec, as a set."""
    return {i for i, p in enumerate(vec) if not p.is_zero}


def is_constant(vec):
    return all(p.as_constant() is not None for p in vec)


def meets(matrix_entry, left, right):
    """Whether matrix_entry(a, b) is nonzero for some a in left and b in
    right."""
    return any(not vec_is_zero(matrix_entry(a, b)) for a in left for b in right)


def restated_bracket_vanishes(m, u, v):
    """Lemma L14 on sections, on index sets read from m's fields: the table
    term, the two anchor terms and, for Courant data, the coanchor term."""
    su, sv = nonzero_indices(u), nonzero_indices(v)
    cu, cv = is_constant(u), is_constant(v)

    def anchored(s):
        return any(not vec_is_zero(m.anchor[a]) for a in s)

    live = (
        meets(m.bracket_gen, su, sv)
        or (anchored(su) and not cv)
        or (anchored(sv) and not cu)
    )
    if isinstance(m, CourantData):
        live = live or (not cu and meets(lambda a, b: (m.pairing[a][b],), su, sv))
    return not live


@pytest.mark.parametrize("name", sorted(SUPPORT_MODULES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_support_tests_answer_as_lemma_l14_on_index_sets(name, data):
    """bracket_vanishes and paired, read from masks, give the answers of
    Lemma L14 restated here on index sets: the same pairs are ruled out,
    not only a subset of them."""
    m = SUPPORT_MODULES[name]
    u, v = data.draw(sparse_sections(m)), data.draw(sparse_sections(m))
    assert m.bracket_vanishes(support(u), support(v)) == restated_bracket_vanishes(m, u, v)
    if isinstance(m, CourantData):
        expected = meets(lambda a, b: (m.pairing[a][b],), nonzero_indices(u), nonzero_indices(v))
        assert paired(m.pairing_masks, support(u), support(v)) == expected


@st.composite
def random_tables(draw, lie):
    """Structure data on P of rank 1 to 4 whose anchor, table, coanchor
    and symmetric pairing entries are each zero, a constant or a
    polynomial of degree 1, on a random set of table keys: LieData when
    lie, else CourantData. Nothing asks the axioms of either."""
    chart = R2
    r = draw(st.integers(1, 4))
    entry = st.one_of(
        st.just(Poly.zero(chart)),
        polys(chart, max_degree=0, max_terms=1),
        polys(chart, max_degree=1, max_terms=2),
    )

    def vec(n):
        return tuple(draw(entry) for _ in range(n))

    anchor = tuple(vec(chart.dim) for _ in range(r))
    keys = draw(st.sets(st.tuples(st.integers(0, r - 1), st.integers(0, r - 1))))
    structure = {key: vec(r) for key in sorted(keys)}
    if lie:
        return LieData(chart, r, anchor, structure)
    upper = {(a, b): draw(entry) for a in range(r) for b in range(a, r)}
    pairing = tuple(tuple(upper[min(a, b), max(a, b)] for b in range(r)) for a in range(r))
    coanchor = tuple(vec(r) for _ in range(chart.dim))
    return CourantData(chart, r, anchor, coanchor, pairing, structure)


def coanchor_only_pair():
    """Courant data on P with no anchor and no table and g_01 = 1, and the
    pair (x1*e0, e1): a non-constant u, a nonzero g_ab off the table and no
    anchor on either side, so only the coanchor term admits it."""
    z, one = Poly.zero(R2), Poly.one(R2)
    q = CourantData(R2, 2, ((z, z),) * 2, ((z, z),) * 2, ((z, one), (one, z)), {})
    return q, [(Poly.coord(R2, 0), z)], [(z, one)]


def assert_admission_matches(m, rows, cols):
    """admitted (and pairings on Courant data) against the one-pair tests
    and against Lemma L14 restated on index sets, on rows x cols."""
    xs, ys = [support(u) for u in rows], [support(v) for v in cols]
    admitted = m.admitted(xs, ys)
    assert admitted == predicate_masks(lambda x, y: not m.bracket_vanishes(x, y), xs, ys)
    assert admitted == predicate_masks(
        lambda u, v: not restated_bracket_vanishes(m, u, v), rows, cols
    )
    if isinstance(m, CourantData):
        admitted = pairings(m.pairing_masks, xs, ys)
        assert admitted == predicate_masks(
            lambda x, y: paired(m.pairing_masks, x, y), xs, ys
        )
        assert admitted == predicate_masks(
            lambda u, v: meets(
                lambda a, b: (m.pairing[a][b],), nonzero_indices(u), nonzero_indices(v)
            ),
            rows,
            cols,
        )


@pytest.mark.parametrize("lie", [False, True], ids=["courant", "lie"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_admitted_masks_match_the_pair_tests_on_random_tables(lie, data):
    """The admission step of a table, AnchoredModule.admitted (and
    anchored.pairings on the pairing of Courant data), sets bit y of row x
    exactly when bracket_vanishes (paired) admits the pair (x, y), on
    random structure data and rows and columns drawn from its generators
    and from random sections. Both read the same masks, so each is also
    checked against Lemma L14 restated on index sets, which reads none
    (restated_bracket_vanishes, meets). random_tables rarely draws a pair
    that only the coanchor term admits, so every Courant run also checks
    coanchor_only_pair."""
    if not lie:
        assert_admission_matches(*coanchor_only_pair())
    m = data.draw(random_tables(lie))
    sections = st.one_of(st.sampled_from([m.gen(a) for a in range(m.rank)]), sparse_sections(m))
    rows = data.draw(st.lists(sections, min_size=1, max_size=4))
    cols = data.draw(st.lists(sections, min_size=1, max_size=5))
    assert_admission_matches(m, rows, cols)


TABLE_STRUCTURES = {
    "courant": random_tables(False),
    "lie": random_tables(True),
    "lie-data": lie_data(),
}


@pytest.mark.parametrize("kind", sorted(TABLE_STRUCTURES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pruned_tables_equal_the_unpruned_tables_on_random_structures(kind, data):
    """AnchoredModule.bracket_table (and CourantData.pairing_table) hold
    the nonzero bracket (pairing) of every ordered pair of sections, as the
    unpruned references of oracles compute them, on random structure data
    and sections drawn from its generators and from sparse sections; what
    they leave out is zero."""
    m = data.draw(TABLE_STRUCTURES[kind])
    sections = st.one_of(st.sampled_from([m.gen(a) for a in range(m.rank)]), sparse_sections(m))
    xs = data.draw(st.lists(sections, max_size=4))
    brackets = m.bracket_table(xs)
    assert {k: v for k, v in brackets.items() if not vec_is_zero(v)} == unpruned_bracket_table(
        m, xs
    )
    if isinstance(m, CourantData):
        ys = data.draw(st.lists(sections, max_size=4))
        pairs = m.pairing_table(xs, ys)
        assert {k: p for k, p in pairs.items() if not p.is_zero} == unpruned_pairing_table(
            m, xs, ys
        )


def unpruned_first_generator_failure(m):
    """The first label of the jacobiator on generator triples, each
    computed by jacobiator on whole sections with nothing skipped."""
    gen = [m.gen(a) for a in range(m.rank)]
    for a, b, c in product(range(m.rank), repeat=3):
        defect = jacobiator(m, gen[a], gen[b], gen[c])
        if not vec_is_zero(defect):
            return f"generators ({a},{b},{c}): defect {fmt_section(defect)}"
    return None


# [e0, e2] = e0 on standard R2: at its first failing triple (0, 2, 2) only
# the middle term [[e0, e2], e2] of the jacobiator is nonzero.
ONE_TERM_MUTANT = _perturbed(standard_exact(R2), "structure", (0, 2, 0), Poly.one(R2))


# Standard R2 with [e0, e1] = x1 e2 and <e2, e3> = 1: the varying table row
# [e0, e1] brackets e3 through the coanchor term alone, and the first
# failing triple, (0,1,3), has that bracket as its only nonzero term.
COANCHOR_ROW_MUTANT = _perturbed(
    _perturbed(standard_exact(R2), "structure", (0, 1, 2), X1_R2),
    "pairing",
    (2, 3),
    Poly.one(R2),
)

# Rank 3 on a line with no anchor, [e0, e1] = x1 e1 and [e1, e2] = e0: the
# varying table row [e0, e1] brackets e2 through the table term alone, the
# only nonzero term of the first failing triple, (0,1,2).
TABLE_ROW_LIE = LieData(
    R1,
    3,
    ((Poly.zero(R1),),) * 3,
    {
        (0, 1): (Poly.zero(R1), Poly.coord(R1, 0), Poly.zero(R1)),
        (1, 2): (Poly.one(R1), Poly.zero(R1), Poly.zero(R1)),
    },
)


# Standard R4 twisted by the non-closed x4 dx1^dx2^dx3, the shape of the
# axioms refutations: eq3-eq6 pass and the first failing triple is (0,1,2).
NONCLOSED_TWIST_R4 = standard_exact(R4, KForm(R4, 3, {(0, 1, 2): parse_poly("x4", R4)}))


EQ3_TO_EQ6 = CHECK_NAMES[2:6]


def skew_prerequisites_pass(m):
    """The verdicts from which Lemma L15 proves the jacobiator totally
    skew: eq3-eq6 for Courant data, antisymmetry for Lie data."""
    if isinstance(m, CourantData):
        rep = check_courant(m)
        return all(rep[name].passed for name in EQ3_TO_EQ6)
    return check_lie_algebroid(m)["antisymmetry"].passed


@pytest.mark.parametrize(
    "m, skew",
    [
        *((m, False) for m in SUPPORT_MODULES.values()),
        (ONE_TERM_MUTANT, False),
        (COANCHOR_ROW_MUTANT, False),
        (TABLE_ROW_LIE, False),
        (TABLE_ROW_LIE, True),
        (NONCLOSED_TWIST_R4, True),
    ],
    ids=[
        *SUPPORT_MODULES,
        "one-term-mutant",
        "coanchor-row-mutant",
        "table-row-lie",
        "table-row-lie-skew",
        "nonclosed-twist-R4-skew",
    ],
)
def test_pruned_generator_triples_name_the_unpruned_first_failure(m, skew):
    """With skew, on modules that pass the prerequisites of Lemma L15 and
    fail Jacobi, the walk over a < b < c names the same first failure,
    defect included."""
    first = unpruned_first_generator_failure(m)
    if skew:
        assert skew_prerequisites_pass(m) and first is not None
    assert next(jacobi_generator_failures(m, skew=skew), None) == first


def twisted_standard():
    """Standard R3 or R4 twisted by a nonzero random 3-form: eq3-eq6 pass
    by construction. Every 3-form on R3 is closed, and R2 has none, so
    only the R4 draws can fail Jacobi; two in three draws are on R4."""

    def twisted(chart):
        slots = st.sampled_from(list(combinations(range(chart.dim), 3)))
        varying = polys(chart).filter(lambda p: p.degree() >= 1)
        comps = st.dictionaries(slots, varying, min_size=1)
        return comps.map(lambda c: standard_exact(chart, KForm(chart, 3, c)))

    return st.sampled_from([R3, R4, R4]).flatmap(twisted)


@st.composite
def antisymmetric_lie_data(draw):
    """LieData on P of rank 3 or 4 with an arbitrary anchor and a nonempty
    table on pairs i < j only: [e_j, e_i] is read as -[e_i, e_j], so
    antisymmetry passes and the triples a < b < c can fail."""
    r = draw(st.integers(3, 4))
    entry = polys(R2, max_degree=1, max_terms=2)
    anchor = draw(st.tuples(*[st.tuples(entry, entry)] * r))
    keys = st.sampled_from(list(combinations(range(r), 2)))
    table = draw(st.dictionaries(keys, st.tuples(*[entry] * r), min_size=1))
    return LieData(R2, r, anchor, table)


SKEW_STRUCTURES = {"courant": twisted_standard(), "lie": antisymmetric_lie_data()}


@pytest.mark.parametrize("kind", sorted(SKEW_STRUCTURES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_skew_generator_triples_name_the_unpruned_first_failure_on_draws(kind, data):
    m = data.draw(SKEW_STRUCTURES[kind])
    assert skew_prerequisites_pass(m)
    first = unpruned_first_generator_failure(m)
    assert next(jacobi_generator_failures(m, skew=True), None) == first


@pytest.mark.parametrize("kind", sorted(SKEW_STRUCTURES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_jacobiator_is_totally_skew_where_lemma_l15_applies(kind, data):
    """Lemma L15 on whole sections: on structures that pass eq3-eq6
    (Courant) or antisymmetry (Lie), J(e_a, e_b, e_c) changes sign under
    every transposition, and J(e_a, e_a, e_b) = 0."""
    m = data.draw(SKEW_STRUCTURES[kind])
    assert skew_prerequisites_pass(m)
    gen = [m.gen(a) for a in range(m.rank)]
    J = {t: jacobiator(m, *(gen[i] for i in t)) for t in product(range(m.rank), repeat=3)}
    for (a, b, c), defect in J.items():
        for swapped in ((b, a, c), (a, c, b), (c, b, a)):
            assert vec_is_zero(vec_add(defect, J[swapped]))
        if a == b:
            assert vec_is_zero(defect)


def test_the_one_term_mutant_fails_on_one_nonzero_term():
    m = ONE_TERM_MUTANT
    e0, e2 = m.gen(0), m.gen(2)
    terms = [
        m.bracket(e0, m.bracket(e2, e2)),
        m.bracket(m.bracket(e0, e2), e2),
        m.bracket(e2, m.bracket(e0, e2)),
    ]
    assert [not vec_is_zero(t) for t in terms] == [False, True, False]
    assert unpruned_first_generator_failure(m).startswith("generators (0,2,2):")


def test_the_skew_walk_waits_for_its_prerequisites():
    """Why check_courant walks a < b < c only once eq3-eq6 pass: the one
    term mutant fails eq3, eq4 and eq6, its first failing triple repeats
    an index and no triple a < b < c fails, so the skew walk would find
    no failure at all. On the non-closed twist, where they pass, both
    walks and check_courant name (0,1,2)."""
    m = ONE_TERM_MUTANT
    rep = check_courant(m)
    assert [rep[name].passed for name in EQ3_TO_EQ6] == [False, False, True, False]
    assert next(jacobi_generator_failures(m)).startswith("generators (0,2,2):")
    assert next(jacobi_generator_failures(m, skew=True), None) is None
    assert rep["leibniz_identity"].counterexample.startswith("generators (0,2,2):")
    first = check_courant(NONCLOSED_TWIST_R4)["leibniz_identity"].counterexample
    assert first.startswith("generators (0,1,2):")
    assert first == unpruned_first_generator_failure(NONCLOSED_TWIST_R4)


CLOSED_TWIST_R4 = standard_exact(
    R4, KForm(R4, 3, {(0, 1, 2): parse_poly("x1*x2 + 1", R4)})
)


@pytest.mark.parametrize(
    "q, count",
    [(standard_exact(R3, vol3()), 0), (CLOSED_TWIST_R4, 6)],
    ids=["twisted-R3", "closed-twist-R4"],
)
def test_check_courant_brackets_only_what_lemma_l14_admits(monkeypatch, q, count):
    """Op-count gate on one check_courant: the generator triples and the
    E4(e_a, dx_j) cases bracket only what bracket_vanishes admits, and on
    these structures that leaves the triples of the closed twist alone.
    Calls with a zero argument count too (450 and 1,056 calls without the
    pruning)."""
    calls = []
    original = CourantData.bracket

    def counted(self, u, v, *args, **kwargs):
        calls.append(1)
        return original(self, u, v, *args, **kwargs)

    monkeypatch.setattr(CourantData, "bracket", counted)
    assert check_courant(q).ok
    assert len(calls) == count


def _caller_name():
    """The name of the function that called the counted method, read from
    inside its wrapper; comprehension frames are skipped."""
    frame = sys._getframe(2)
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


@pytest.mark.parametrize(
    "q, counts",
    [
        (standard_exact(R3, vol3()), (0, 3, 0, 6)),
        (CLOSED_TWIST_R4, (0, 4, 0, 6)),
    ],
    ids=["twisted-R3", "closed-twist-R4"],
)
def test_check_courant_skips_the_zero_terms_of_constant_data(monkeypatch, q, counts):
    """Op-count gate on one check_courant: the KForm.lie calls, the
    pairing_of calls of generator_defects, the coanchor_of calls of the
    symmetrization cases and the anchor_defect calls."""
    calls = Counter()

    def counting(owner, name, caller=None):
        original = getattr(owner, name)

        def counted(*args):
            if caller is None or _caller_name() == caller:
                calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    counting(KForm, "lie")
    counting(CourantData, "pairing_of", "generator_defects")
    counting(CourantData, "coanchor_of", "symmetrization")
    counting(anchored_module, "anchor_defect")
    assert check_courant(q).ok
    names = ("lie", "pairing_of", "coanchor_of", "anchor_defect")
    assert tuple(calls[name] for name in names) == counts


def r2_mutants_with_varying_deltas():
    """The mutants of standard R2 whose delta is not constant: +-x1 and
    +-x2 on one anchor, coanchor or pairing entry, +x1 on one table entry."""
    q = standard_exact(R2)
    one, x1, x2 = Poly.one(R2), Poly.coord(R2, 0), Poly.coord(R2, 1)
    mutants = _mutants(q, (one, -one, x1, -x1, x2, -x2), (one, -one, x1))
    return [_perturbed(q, *m) for m in mutants if m[2].as_constant() is None]


def r2_seeded_mutants():
    """150 seeded perturbations of one or two anchor, coanchor or pairing
    entries of standard R2 by +-1, +-x1 or +-x2, two in three of them made
    after zeroing the coanchor. With the coanchor zeroed J often vanishes
    while eq5 fails, so these reach the last stages of leibniz_identity;
    no single table perturbation of standard R2 does, so the table is left
    alone."""
    rng = random.Random(0)
    q = standard_exact(R2)
    r, n = q.rank, R2.dim
    flat = dataclasses.replace(q, coanchor=(zero_vec(R2, r),) * n)
    one, x1, x2 = Poly.one(R2), Poly.coord(R2, 0), Poly.coord(R2, 1)
    deltas = (one, -one, x1, -x1, x2, -x2)
    sites = {
        "anchor": list(product(range(r), range(n))),
        "coanchor": list(product(range(n), range(r))),
        "pairing": [(a, b) for a in range(r) for b in range(a, r)],
    }
    out = []
    for _ in range(150):
        m = rng.choice((q, flat, flat))
        for _ in range(rng.randint(1, 2)):
            where = rng.choice(sorted(sites))
            m = _perturbed(m, where, rng.choice(sites[where]), rng.choice(deltas))
        out.append(m)
    return out


SOUNDNESS_STRUCTURES = {
    "standard-R2": lambda: [standard_exact(R2)],
    "twisted-R3": lambda: [standard_exact(R3, vol3("x1 + x2"))],
    "closed-twist-R4": lambda: [CLOSED_TWIST_R4],
    "R2-mutants": r2_mutants_with_varying_deltas,
    "R2-seeded-mutants": r2_seeded_mutants,
}


@pytest.mark.parametrize("name", list(SOUNDNESS_STRUCTURES))
def test_check_courant_matches_the_unpruned_reference(name, monkeypatch):
    """The skips of generator_defects, anchor_defects and check_courant drop
    only zero terms: generator_defects and every anchor defect equal the
    unpruned reference (a pair anchor_defects leaves out has A = 0), and
    eq3, eq4, eq6 and leibniz_identity have the verdicts and first labels
    that the reference reads. The reference still runs the second-order
    probes x_k*x_l*e_a; a spy counts the structures that reach them, so
    the seeded family keeps checking Lemma L12'."""
    import oracles

    reached = set()
    real = oracles.jacobi_left_probe_failures

    def spy(q, batch):
        batch = list(batch)
        if any(label.count("*") == 2 for label, _ in batch):
            reached.add(id(q))
        return real(q, batch)

    monkeypatch.setattr(oracles, "jacobi_left_probe_failures", spy)
    structures = SOUNDNESS_STRUCTURES[name]()
    assert len(structures) == {"R2-mutants": 168, "R2-seeded-mutants": 150}.get(name, 1)
    for q in structures:
        terms = unpruned_generator_cases(q)
        assert generator_defects(q) == (terms["M"], terms["N"])
        kept = anchor_defects(q)
        zero = vfield_zero(q.chart)
        assert {pair: kept.get(pair, zero) for pair in terms["A"]} == terms["A"]
        rep = check_courant(q)
        for check, label in unpruned_first_labels(q, terms).items():
            assert (rep[check].passed, rep[check].counterexample) == (label is None, label)
    if name == "R2-seeded-mutants":
        assert len(reached) >= 30


def test_a_replaced_structure_has_its_own_masks():
    """The masks are read once per instance: dataclasses.replace makes a
    new instance, which reads its own table, anchor and pairing."""
    q = standard_exact(R2)
    assert q.table_masks == (0, 0, 0, 0)
    assert q.anchor_mask == 0b0011
    assert q.pairing_masks == (0b0100, 0b1000, 0b0001, 0b0010)
    x1 = Poly.coord(R2, 0)
    moved = dataclasses.replace(q, structure={(2, 3): (x1,) + (Poly.zero(R2),) * 3})
    assert moved.table_masks == (0, 0, 0b1000, 0)
    assert q.table_masks == (0, 0, 0, 0)
    bent = dataclasses.replace(q, pairing=_perturbed(q, "pairing", (0, 0), x1).pairing)
    assert bent.pairing_masks == (0b0101, 0b1000, 0b0001, 0b0010)
    assert q.pairing_masks == (0b0100, 0b1000, 0b0001, 0b0010)


def unpruned_pairing(comb):
    """The pairing of comb.result with every one of the r^2 basis pairs
    paired part by part and weighted."""
    def weighted(x, y):
        out = Poly.zero(comb.chart)
        for q, w, u, v in zip(comb.parts, comb.weights, x, y):
            out = out + w * q.pairing_of(u, v)
        return out

    return tuple(tuple(weighted(x, y) for y in comb.basis) for x in comb.basis)


def unpruned_table(comb):
    """The table of comb.result with every one of the r^2 basis pairs
    bracketed part by part and reduced."""
    basis = comb.basis
    return {
        (x, y): comb.reduce(
            tuple(q.bracket(u, v) for q, u, v in zip(comb.parts, basis[x], basis[y]))
        )
        for x, y in product(range(len(basis)), repeat=2)
    }


def graph_combination():
    """The combination morphism_graph builds on the battery's line spec:
    the standard structure of a line along y1 -> y1^2."""
    line, target = coordinate_chart("L", 1, prefix="y"), coordinate_chart("T", 1)
    q = standard_exact(target)
    built = []

    def recorded(*args):
        built.append(baer_combination(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pullback_module, "baer_combination", recorded)
        morphism_graph(
            ChartMap(line, target, (parse_poly("y1^2", line),)),
            q,
            coordinate_connection(q),
        )
    (comb,) = built
    return comb


def baer_specs():
    """name -> the Baer combinations this module builds, and the one inside
    morphism_graph."""
    def comb(hs, weights, shift=None):
        qs = [standard_exact(R3, vol3(h)) for h in hs]
        conns = [coordinate_connection(q) for q in qs]
        if shift is not None:
            conns = [connection_shift(c, shift) for c in conns]
        return baer_combination(qs, weights, conns)

    bent = KForm(R3, 2, {(0, 2): parse_poly("x2 + 1", R3), (1, 2): parse_poly("x1*x2", R3)})
    return {
        "sum": comb(("1", "x1 + x2"), (1, 1)),
        "weighted": comb(("x3", "x1*x1"), (3, -2)),
        "lift": comb(("x2", "1"), (2, 1)),
        "scalar": comb(("x1 + 2*x2",), (5,)),
        "rational": comb(("x1 + 2*x2", "x1 + 2*x2"), (Fraction(1, 3), Fraction(2, 3))),
        "shifted": comb(
            ("x1", "x2 - 2*x3"), (1, -1), KForm(R3, 2, {(0, 1): Poly.coord(R3, 2)})
        ),
        "untwisted-first": comb(("0", "x1"), (1, 1)),
        "zero-weight": comb(("x2", "x1*x3"), (0, 3), bent),
        "half": comb(("x2", "x1*x3"), (Fraction(1, 2), -2), bent),
        "graph": graph_combination(),
    }


BAER_SPECS = baer_specs()


@pytest.mark.parametrize("name", sorted(BAER_SPECS))
def test_pruned_combination_table_equals_the_unpruned_table(name):
    comb = BAER_SPECS[name]
    r = comb.result
    unpruned = CourantData(
        r.chart,
        r.rank,
        r.anchor,
        r.coanchor,
        unpruned_pairing(comb),
        unpruned_table(comb),
    )
    assert r == unpruned


@st.composite
def random_combinations(draw):
    """A Baer combination of one to three standard structures on X with
    twists of degree at most 1, integer weights not all zero, and
    coordinate connections, shifted by one two-form when one is drawn."""
    k = draw(st.integers(1, 3))
    hs = [draw(polys(R3, max_degree=1, max_terms=2)) for _ in range(k)]
    weights = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k).filter(any))
    qs = [standard_exact(R3, KForm(R3, 3, {(0, 1, 2): h})) for h in hs]
    conns = [coordinate_connection(q) for q in qs]
    if draw(st.booleans()):
        b = draw(kforms(R3, 2, max_degree=1, max_terms=2))
        conns = [connection_shift(c, b) for c in conns]
    return qs, weights, conns


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_combination_masks_match_the_pair_tests(data):
    """The keys of the part tables CourantCombination builds, pairing_table
    on the parts of nonzero weight and bracket_table on every part, hold
    the basis pair (x, y) in some part exactly when combination_unpaired
    (combination_vanishes) does not rule it out."""
    qs, weights, conns = data.draw(random_combinations())
    keys = {"pairing_table": set(), "bracket_table": set()}

    def recorded(name):
        table = getattr(CourantData, name)

        def record(self, *args):
            got = table(self, *args)
            keys[name].update(got)
            return got

        return record

    with pytest.MonkeyPatch.context() as mp:
        for name in keys:
            mp.setattr(CourantData, name, recorded(name))
        comb = baer_combination(qs, weights, conns)
    supports = comb.supports

    def masks(found):
        return predicate_masks(
            lambda x, y: (x, y) in found, range(len(supports)), range(len(supports))
        )

    assert masks(keys["pairing_table"]) == predicate_masks(
        lambda x, y: not combination_unpaired(comb, x, y), supports, supports
    )
    assert masks(keys["bracket_table"]) == predicate_masks(
        lambda x, y: not combination_vanishes(comb, x, y), supports, supports
    )


def test_baer_sum_brackets_only_the_admitted_basis_pairs(monkeypatch):
    """Op-count gate on the table of the Baer sum of two R3 standards, on
    the 36 pairs of its 6 basis elements. Only the 6 pairs of distinct
    diagonal lifts have a nonzero table entry (the twist); the sections
    are constant, so Lemma L14 rules out every other pair in both parts.
    An admitted pair is bracketed only in the parts whose own support test
    admits it: once per part when both are twisted (12 calls), and only in
    the twisted part when the other is untwisted (6 calls)."""
    calls = []
    bracket = CourantData.bracket

    def counted(self, u, v, *args, **kwargs):
        calls.append((u, v))
        return bracket(self, u, v, *args, **kwargs)

    for h1, expected in ((vol3(), 12), (None, 6)):
        q1, q2 = standard_exact(R3, h1), standard_exact(R3, vol3("x1 + x2"))
        conn1, conn2 = coordinate_connection(q1), coordinate_connection(q2)
        calls.clear()
        monkeypatch.setattr(CourantData, "bracket", counted)
        comb = baer_sum(q1, q2, conn1, conn2)
        monkeypatch.undo()
        assert len(calls) == expected
        assert sorted(comb.result.structure) == [
            (x, y) for x, y in product(range(3), repeat=2) if x != y
        ]


def test_baer_sum_pairs_only_the_paired_basis_pairs(monkeypatch):
    """Op-count gate on the pairing of the Baer sum of two twisted R3
    standards, on the 36 pairs of its 6 basis elements. Only a diagonal
    lift and the glued line of the same coordinate pair (6 ordered pairs);
    Lemma L14 rules out the other 30 in both parts. Each admitted pair is
    paired only in the first part, where the glued line lives: in the
    second part the line is zero, so its two sections are not paired: 6
    calls."""
    q1, q2 = standard_exact(R3, vol3()), standard_exact(R3, vol3("x1 + x2"))
    conn1, conn2 = coordinate_connection(q1), coordinate_connection(q2)
    calls = []
    pairing_of = CourantData.pairing_of

    def counted(self, u, v):
        calls.append((u, v))
        return pairing_of(self, u, v)

    monkeypatch.setattr(CourantData, "pairing_of", counted)
    comb = baer_sum(q1, q2, conn1, conn2)
    monkeypatch.undo()
    assert len(calls) == 6
    pairing = comb.result.pairing
    assert [(x, y) for x, y in product(range(6), repeat=2) if not pairing[x][y].is_zero] == [
        (x, y) for x, y in product(range(6), repeat=2) if abs(x - y) == 3
    ]


def _identity_rows(q):
    return tuple(q.gen(a) for a in range(q.rank))


@pytest.mark.parametrize(
    "rows",
    [
        lambda q: _identity_rows(q)[:-1],
        lambda q: _identity_rows(q) + (q.gen(0),),
        lambda q: _identity_rows(q)[:-1] + (q.gen(0)[:-1],),
        lambda q: _identity_rows(q)[:-1] + (q.gen(0) + (Poly.zero(q.chart),),),
    ],
    ids=["missing", "extra", "short", "long"],
)
def test_morphism_check_refuses_a_matrix_of_the_wrong_shape(rows):
    """One row per source generator, each of length dst.rank: anything
    else is a bad input (ValidationError), found before any check runs."""
    q = standard_exact(R2)
    with pytest.raises(ValidationError):
        check_courant_morphism(q, q, rows(q))


def test_morphism_check_refuses_a_zero_row_entry_on_another_chart():
    """The rows are chart-checked once, by check_courant_morphism, so a
    zero entry that no check's arithmetic reads still raises."""
    q = standard_exact(R2)
    rows = _identity_rows(q)
    bad = rows[:-1] + ((Poly.zero(R4),) + rows[-1][1:],)
    with pytest.raises(ChartMismatchError):
        check_courant_morphism(q, q, bad)
