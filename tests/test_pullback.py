"""Inverse images: the four presentation modes, twist/curvature naturality,
supported pushdowns and morphism graphs."""

from collections import Counter
import dataclasses
import importlib
from itertools import product
from pathlib import Path
import sys

import pytest
from hypothesis import given, settings, strategies as st

from algebroids import jsonio
from algebroids.cli import main
from algebroids.courant import (
    CourantCombination,
    CourantData,
    baer_combination,
    check_courant,
    check_courant_morphism,
    coordinate_connection,
    standard_exact,
)
from algebroids.dirac import (
    DiracData,
    check_dirac,
    support_inclusion,
)
from algebroids.errors import (
    ChartMismatchError,
    UnsupportedModeError,
    ValidationError,
)
from algebroids.lie_algebroid import pullback_lie, tangent_algebroid
from algebroids import anchored as anchored_module, linalg as linalg_module
from algebroids import courant as courant_module, dirac as dirac_module
from algebroids import lie_algebroid as lie_module
from algebroids import pullback as pullback_module
from algebroids import transgression as transgression_module
from algebroids.anchored import (
    comparison,
    embedding_layout,
    pair_bracket,
    support,
)
from algebroids.linalg import (
    apply_matrix,
    left_inverse,
    pairing_differential,
    unit_vec,
    vec_add,
    vec_eq,
    vec_is_zero,
    vec_scale,
    zero_vec,
)
from algebroids.report import Report
from algebroids.pullback import (
    CourantPullback,
    _cotangent,
    check_courant_compose_associative,
    check_curvature_pullback,
    check_relation_absorption,
    check_twist_commute,
    dirac_pushdown,
    morphism_graph,
    pullback_connection,
    pullback_courant,
)
from algebroids.symcalc import (
    ChartMap,
    KForm,
    Poly,
    VField,
    coordinate_chart,
    parse_poly,
)

from oracles import (
    associated_lie_algebroid,
    check_names,
    connection_shift,
    direct_sum,
    expand,
    graph_of_two_form,
    kform_sub,
    opposite,
    pair_bracket_vanishes,
    predicate_masks,
    pullback_bracket_vanishes,
    pullback_pairing_vanishes,
    scalar_multiple,
)
from test_acceptance import _battery_jobs, _perturbed
from test_lie_algebroid import assoc_chain
from test_courant import is_constant, meets, nonzero_indices
from test_symcalc import polys

R1 = coordinate_chart("L", 1, prefix="y")
R2 = coordinate_chart("P", 2)
R3 = coordinate_chart("X", 3)
R4 = coordinate_chart("B", 4)


def vol3(scale="1"):
    return KForm(R3, 3, {(0, 1, 2): parse_poly(scale, R3)})


def projection_32():
    return ChartMap(R3, R2, (Poly.coord(R3, 0), Poly.coord(R3, 1)))


def inclusion_23():
    return ChartMap(
        R2, R3, (Poly.coord(R2, 0), Poly.coord(R2, 1), Poly.zero(R2))
    )


def shear_33():
    x1, x2, x3 = (Poly.coord(R3, i) for i in range(3))
    return ChartMap(R3, R3, (x1, x2, x3 + x1 * x2))


def test_identity_mode_returns_the_structure():
    q = standard_exact(R2)
    pb = pullback_courant(ChartMap.identity(R2), q)
    assert pb.mode == "identity"
    assert pb.result == q
    rep = check_relation_absorption(pb)
    assert rep.ok
    assert check_names(rep) == [
        "relations_isotropic",
        "relations_bracket_closed",
    ]


def test_identity_mode_is_the_submersion_along_the_identity():
    q = standard_exact(R3, vol3("x1 + x2"))
    ident = ChartMap.identity(R3)
    pb_id = pullback_courant(ident, q, "identity")
    pb_sub = pullback_courant(ident, q, "coordinate-submersion")
    assert (pb_id.mode, pb_sub.mode) == ("identity", "coordinate-submersion")
    assert pb_id.basis == pb_sub.basis
    assert pb_id.result == pb_sub.result
    assert (pb_id.map, pb_id.source) == (pb_sub.map, pb_sub.source)


def test_projection_pullback_is_a_courant_structure():
    pb = pullback_courant(projection_32(), standard_exact(R2))
    assert pb.mode == "coordinate-submersion"
    assert pb.result.rank == 6
    assert check_courant(pb.result).ok
    assert check_relation_absorption(pb).ok
    # pulled generators keep their anchors, the verticals pair as a point
    assert pb.result.anchor[0] == (Poly.one(R3), Poly.zero(R3), Poly.zero(R3))
    assert pb.result.pairing[4][5] == Poly.one(R3)


def test_relations_are_built_once_per_presentation(monkeypatch):
    """reduce and check_relation_absorption read the relation generators
    the presentation built, one call of relation per target coordinate."""
    calls = []
    original = CourantPullback.relation

    def counted(self, k):
        calls.append(k)
        return original(self, k)

    monkeypatch.setattr(CourantPullback, "relation", counted)
    q = standard_exact(R3, vol3("x1 + x2"))
    pb = pullback_courant(shear_33(), q)
    assert check_relation_absorption(pb).ok
    assert calls == list(range(q.chart.dim))


def _unpruned_isotropy_failures(pb):
    """Every failure of relations_isotropic, each pair paired in turn."""
    n, rels, out = pb.source.chart.dim, pb.relations, []
    for k in range(n):
        for c, b in enumerate(pb.basis):
            got = pb.ambient_pairing(rels[k], b)
            if not got.is_zero:
                out.append(f"relation {k} against basis {c}: {got}")
        for l in range(n):
            got = pb.ambient_pairing(rels[k], rels[l])
            if not got.is_zero:
                out.append(f"relations ({k},{l}): {got}")
    return out


@pytest.mark.parametrize(
    "where, idx, delta",
    [
        ("coanchor", (0, 4), "x1"),
        ("coanchor", (1, 3), "1"),
        ("coanchor", (2, 5), "x2"),
        ("pairing", (3, 4), "x1"),
    ],
)
def test_isotropy_skips_only_pairs_that_pair_to_zero(monkeypatch, where, idx, delta):
    """A mutant whose relations are not isotropic: relations_isotropic,
    which skips the pairs pairing_admitted rules out, names every failure
    of the unpruned loop, with the same text and in the same order."""
    q = _perturbed(standard_exact(R3), where, idx, parse_poly(delta, R3))
    pb = pullback_courant(shear_33(), q)
    rep, streams = _absorption_streams(monkeypatch, pb)
    want = _unpruned_isotropy_failures(pb)
    assert want and streams["relations_isotropic"] == want
    assert rep["relations_isotropic"].counterexample == want[0]


def _absorption_streams(monkeypatch, pb):
    """check_relation_absorption(pb) and every failure each of its checks
    yields, in order."""
    streams = {}
    original = Report.check

    def listed(self, name, failures):
        streams[name] = list(failures)
        original(self, name, iter(streams[name]))

    monkeypatch.setattr(Report, "check", listed)
    rep = check_relation_absorption(pb)
    monkeypatch.undo()
    return rep, streams


def _unpruned_bracket_failures(pb):
    """Every failure of relations_bracket_closed, each order bracketed."""
    n, rels, out = pb.source.chart.dim, pb.relations, []
    for k in range(n):
        for c, b in enumerate(pb.basis):
            left = pb.reduce(pb.ambient_bracket(rels[k], b))
            right = pb.reduce(pb.ambient_bracket(b, rels[k]))
            if not vec_is_zero(left):
                out.append(f"relation {k} bracket basis {c}")
            if not vec_is_zero(right):
                out.append(f"basis {c} bracket relation {k}")
        for l in range(n):
            if not vec_is_zero(pb.reduce(pb.ambient_bracket(rels[k], rels[l]))):
                out.append(f"relations ({k},{l})")
    return out


@pytest.mark.parametrize(
    "where, idx, delta",
    [
        ("coanchor", (0, 4), "x1"),
        ("coanchor", (2, 5), "x2"),
        ("structure", (0, 3, 4), "x2"),
        ("anchor", (0, 1), "x3"),
        ("anchor", (1, 2), "x1"),
    ],
)
def test_bracket_closure_skips_only_orders_that_bracket_to_zero(
    monkeypatch, where, idx, delta
):
    """A mutant whose relations do not bracket into their span:
    relations_bracket_closed, which skips the orders bracket_admitted rules
    out, names every failure of the unpruned loop, in the same order."""
    q = _perturbed(standard_exact(R3), where, idx, parse_poly(delta, R3))
    pb = pullback_courant(shear_33(), q)
    rep, streams = _absorption_streams(monkeypatch, pb)
    want = _unpruned_bracket_failures(pb)
    assert want and streams["relations_bracket_closed"] == want
    assert rep["relations_bracket_closed"].counterexample == want[0]


@pytest.mark.parametrize(
    "split, brackets", [(False, 10), (True, 8)], ids=["auto", "exact-split"]
)
def test_bracket_closure_brackets_only_admitted_orders(monkeypatch, split, brackets):
    """Op-count gate: on a twisted shear (6 basis triples, 3 relations)
    relations_bracket_closed has 45 ordered pairs, and Lemma L14 admits
    only these to ambient_bracket."""
    q = standard_exact(R3, vol3("x1 + x2"))
    pb = pullback_courant(
        shear_33(), q, connection=coordinate_connection(q) if split else None
    )
    pb.result
    calls = []
    original = CourantPullback.ambient_bracket

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(CourantPullback, "ambient_bracket", counted)
    assert check_relation_absorption(pb).ok
    assert len(calls) == brackets


def test_embedding_restricts_the_twist():
    """Pulling std(X, x1 vol) back along {x3=0} kills the volume twist."""
    q = standard_exact(R3, vol3("x1"))
    pb = pullback_courant(inclusion_23(), q)
    assert pb.mode == "coordinate-embedding"
    assert pb.result == standard_exact(R2)
    assert check_relation_absorption(pb).ok


def test_embedding_of_a_nonexact_structure():
    big = direct_sum(standard_exact(R3), opposite(standard_exact(R3)))
    pb = pullback_courant(inclusion_23(), big)
    assert pb.result.rank == 10
    assert check_courant(pb.result).ok
    assert check_relation_absorption(pb).ok


def test_invertible_shear_both_presentations():
    q = standard_exact(R3, vol3())
    auto = pullback_courant(shear_33(), q)
    assert auto.mode == "coordinate-submersion"
    assert check_courant(auto.result).ok
    assert check_relation_absorption(auto).ok

    split = pullback_courant(shear_33(), q, connection=coordinate_connection(q))
    assert split.mode == "exact-split"
    assert check_courant(split.result).ok
    assert check_relation_absorption(split).ok


def _unit_classes(pb):
    r = len(pb.basis)
    return [pb.reduce(t) for t in pb.basis] == [
        unit_vec(pb.chart, r, k) for k in range(r)
    ]


@pytest.mark.parametrize("weight", [2, -3])
def test_exact_split_reads_a_scaled_coanchor_frame(weight):
    """A scalar multiple scales the coanchor by 1/weight, so the kernel
    frame of the split presentation has a left inverse that is not the
    identity."""
    q = scalar_multiple(weight, standard_exact(R3, vol3()))
    pb = pullback_courant(shear_33(), q, "exact-split", coordinate_connection(q))
    assert check_courant(pb.result).ok
    assert check_relation_absorption(pb).ok
    assert _unit_classes(pb)


def _pullback_job(tmp_path, q, f, conn):
    spec = {
        "structure": jsonio.courant_to_json(q),
        "map": jsonio.map_to_json(f),
        "mode": "exact-split",
        "connection": jsonio.matrix_to_json(conn.columns),
    }
    path = tmp_path / "job.json"
    path.write_text(jsonio.dump_json(spec), encoding="utf-8")
    return ["pullback", "--spec", str(path)]


def test_exact_split_presents_a_pulled_back_structure(tmp_path):
    """The submersion pullback along a curved automorphism has a coanchor
    with polynomial entries. Its kernel frame has no constant left inverse,
    but a polynomial one, so the exact-split pullback of that pullback
    presents."""
    x1, x2, x3 = (Poly.coord(R3, i) for i in range(3))
    f = ChartMap(R3, R3, (x1, x2, x3 + x1 * x1))
    q = standard_exact(R3)
    sub = pullback_courant(f, q, "coordinate-submersion")
    p = sub.result
    assert any(c.as_constant() is None for row in p.coanchor for c in row)
    conn = pullback_connection(sub, coordinate_connection(q))
    pb = pullback_courant(f, p, "exact-split", conn)
    assert check_courant(pb.result).ok
    assert check_relation_absorption(pb).ok
    assert _unit_classes(pb)
    assert main(_pullback_job(tmp_path, p, f, conn)) == 0


def test_exact_split_refuses_a_frame_with_no_left_inverse(tmp_path, capsys):
    """Coanchor rows scaled by x1 leave a kernel frame whose only maximal
    minor is x1^2: no polynomial left inverse reads it."""
    x1 = Poly.coord(R2, 0)
    q = standard_exact(R2)
    q = dataclasses.replace(
        q, coanchor=tuple(tuple(x1 * c for c in row) for row in q.coanchor)
    )
    ident = ChartMap.identity(R2)
    conn = coordinate_connection(q)
    with pytest.raises(UnsupportedModeError):
        pullback_courant(ident, q, "exact-split", conn)
    assert main(_pullback_job(tmp_path, q, ident, conn)) == 3
    assert "no polynomial left inverse" in capsys.readouterr().err


def test_point_target_gives_the_standard_structure():
    R0 = coordinate_chart("O", 0)
    pb = pullback_courant(ChartMap(R3, R0, ()), standard_exact(R0))
    assert pb.result == standard_exact(R3)


def projection_43():
    return ChartMap(R4, R3, tuple(Poly.coord(R4, j) for j in range(3)))


def test_pullback_composition_agrees_up_to_reordering():
    """The composite in one step vs two steps differs only by the order the
    generators come out in; match them by their anchor/coanchor signature
    and the permutation is a verified isomorphism."""
    f = projection_43()
    g = projection_32()
    q = standard_exact(R2)
    once = pullback_courant(g.compose(f), q).result
    twice = pullback_courant(f, pullback_courant(g, q).result).result
    assert once.chart == twice.chart
    assert once.rank == twice.rank

    def signature(qq, a):
        return (
            tuple(str(p) for p in qq.anchor[a]),
            tuple(str(qq.coanchor[j][a]) for j in range(qq.chart.dim)),
        )

    slot = {signature(once, a): a for a in range(once.rank)}
    assert len(slot) == once.rank
    perm = [slot[signature(twice, a)] for a in range(twice.rank)]
    assert sorted(perm) == list(range(once.rank))
    matrix = [
        tuple(
            Poly.one(R4) if j == perm[a] else Poly.zero(R4)
            for j in range(once.rank)
        )
        for a in range(twice.rank)
    ]
    assert check_courant_morphism(twice, once, matrix).ok


def test_pullback_of_exact_stays_exact():
    """Quotienting the inverse image by its coanchor gives the tangent
    algebroid of the source, twist or not."""
    pb = pullback_courant(projection_43(), standard_exact(R3, vol3()))
    lie, _ = associated_lie_algebroid(pb.result)
    expected = tangent_algebroid(R4)
    assert lie.chart == expected.chart
    assert lie.rank == expected.rank
    assert lie.anchor == expected.anchor
    for a in range(lie.rank):
        for b in range(lie.rank):
            assert vec_eq(lie.bracket_gen(a, b), expected.bracket_gen(a, b))


def test_reduce_rejects_triples_off_the_fiber_product():
    q = standard_exact(R2)
    pb = pullback_courant(ChartMap.identity(R2), q)
    beta = (Poly.zero(R2), Poly.zero(R2))
    u = q.gen(0)
    eta = (Poly.zero(R2), Poly.zero(R2))  # should be the anchor of gen 0
    with pytest.raises(ValidationError):
        pb.reduce((beta, u, eta))


def presentations():
    """One presentation of each map-driven mode, by name."""
    q3 = standard_exact(R3, vol3("x1 + x2"))
    return {
        "shear": pullback_courant(shear_33(), q3),
        "projection": pullback_courant(projection_32(), standard_exact(R2)),
        "embedding": pullback_courant(inclusion_23(), q3),
        "exact-split": pullback_courant(
            shear_33(), q3, connection=coordinate_connection(q3)
        ),
    }


PRESENTATIONS = presentations()


def zero_element(pb, chart=None, sizes=None):
    return tuple(zero_vec(chart or pb.chart, n) for n in sizes or pb.sizes)


@pytest.mark.parametrize("pb", PRESENTATIONS.values(), ids=list(PRESENTATIONS))
def test_reduce_answers_the_zero_element_without_the_reader(monkeypatch, pb):
    read = pb._read

    def refuse(element):
        raise AssertionError("the reader was called")

    monkeypatch.setattr(pb, "_read", refuse)
    zero_class = zero_vec(pb.chart, len(pb.basis))
    assert pb.reduce(zero_element(pb)) == zero_class
    # The reading the shortcut stands for.
    assert read(zero_element(pb))[0] == zero_class


@pytest.mark.parametrize("pb", PRESENTATIONS.values(), ids=list(PRESENTATIONS))
def test_reduce_refuses_a_zero_element_of_another_shape_or_chart(pb):
    for s in range(len(pb.sizes)):
        for step in (-1, 1):
            sizes = list(pb.sizes)
            sizes[s] += step
            with pytest.raises(ValidationError, match="slot lengths"):
                pb.reduce(zero_element(pb, sizes=sizes))
    with pytest.raises((ValidationError, ChartMismatchError)):
        pb.reduce(zero_element(pb, R4))


def sound_presentations():
    """The presentations the sparse rebuild is checked on: one of each
    pullback mode, a Baer combination, and a Lie inverse image through its
    splitting."""
    q3 = standard_exact(R3, vol3("x1 + x2"))
    q3b = standard_exact(R3, vol3("x2"))
    lie, (phi, _, _), splitting = assoc_chain()
    return {
        **PRESENTATIONS,
        "identity": pullback_courant(ChartMap.identity(R2), standard_exact(R2)),
        "combination": baer_combination(
            [q3, q3b], [2, -1], [coordinate_connection(q3), coordinate_connection(q3b)]
        ),
        "lie-split": pullback_lie(phi, lie, splitting),
    }


SOUND_PRESENTATIONS = sound_presentations()


def in_fibre_product(pres, element):
    """Whether element lies in the fibre product pres presents, read off
    the definition: every part of a combination has one anchor, and an
    inverse image's pulled section anchors to the push-forward of its
    tangent."""
    if isinstance(pres, CourantCombination):
        first, *rest = (q.anchor_of(u) for q, u in zip(pres.parts, element))
        return all(v == first for v in rest)
    if isinstance(pres, CourantPullback):
        _, section, tangent = element
    else:
        tangent, section = element
    f, chart, n = pres.map, pres.chart, pres.map.target.dim
    anchor = [tuple(map(f.pull, row)) for row in pres.source.anchor]
    pushed = [tuple(col) for col in zip(*f.jacobian())]
    return vec_eq(
        apply_matrix(anchor, section, n, chart), apply_matrix(pushed, tangent, n, chart)
    )


def with_entry(element, s, i, p):
    """element with entry i of slot s replaced by p."""
    vec = element[s]
    return element[:s] + (vec[:i] + (p,) + vec[i + 1 :],) + element[s + 1 :]


@pytest.mark.parametrize("name", sorted(SOUND_PRESENTATIONS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sparse_rebuild_accepts_exactly_the_fibre_product(name, data):
    """reduce reads expand(cls) + sum_k rel_k R_k back as cls. A monomial
    added to one entry leaves the fibre product, and reduce refuses the
    element, unless the entry is free there (a one-form entry, or a
    tangent entry the push-forward does not see); and an element with one
    zero entry on another chart is refused."""
    pres = SOUND_PRESENTATIONS[name]
    chart = pres.chart
    coeff = st.one_of(st.just(Poly.zero(chart)), polys(chart, max_degree=1, max_terms=2))
    cls = tuple(data.draw(coeff) for _ in pres.basis)
    element = expand(pres, cls)
    for relation in pres.relations:
        c = data.draw(coeff)
        element = tuple(vec_add(e, vec_scale(c, r)) for e, r in zip(element, relation))
    assert pres.reduce(element) == cls

    s = data.draw(st.integers(0, len(pres.sizes) - 1))
    i = data.draw(st.integers(0, pres.sizes[s] - 1))
    monomial = data.draw(polys(chart, max_terms=1).filter(lambda p: not p.is_zero))
    bumped = with_entry(element, s, i, element[s][i] + monomial)
    if in_fibre_product(pres, bumped):
        pres.reduce(bumped)
    else:
        with pytest.raises(ValidationError):
            pres.reduce(bumped)

    zeros = [(s, i) for s, vec in enumerate(element) for i, p in enumerate(vec) if p.is_zero]
    if zeros:
        s, i = data.draw(st.sampled_from(zeros))
        with pytest.raises(ValidationError):
            pres.reduce(with_entry(element, s, i, Poly.zero(R4)))


def test_ambient_bracket_refuses_a_zero_or_constant_entry_on_another_chart():
    """The skipped one-form terms and derivations made chart checks; an
    entry of another chart in any slot still raises."""
    pb = PRESENTATIONS["shear"]
    rank = pb.source.rank
    elements = [pb.basis[0], pb.basis[-1], zero_element(pb)]
    for foreign in (Poly.zero(R4), Poly.one(R4)):
        for t, s in product(elements, range(3)):
            bad = list(t)
            bad[s] = (foreign,) + tuple(t[s][1:])
            for other in (pb.basis[0], _cotangent(R3, rank, 1), zero_element(pb)):
                for pair in ((bad, other), (other, bad)):
                    with pytest.raises(ChartMismatchError):
                        pb.ambient_bracket(*pair)


HYP_PRESENTATIONS = {
    "R2": pullback_courant(ChartMap.identity(R2), standard_exact(R2)),
    "R3": PRESENTATIONS["shear"],
}


@st.composite
def triples(draw, pb):
    """A triple whose slots are each zero, constant or polynomial."""
    slots = []
    for size in pb.sizes:
        degree = draw(st.sampled_from((None, 0, 2)))
        if degree is None:
            slots.append(zero_vec(pb.chart, size))
        else:
            entries = polys(pb.chart, max_degree=degree, max_terms=2)
            slots.append(tuple(draw(entries) for _ in range(size)))
    return tuple(slots)


def full_bracket(pb, t1, t2):
    """The ambient bracket computed term by term from the module formula."""
    chart, rank, dim = pb.chart, pb.source.rank, pb.chart.dim
    (b1, u1, e1), (b2, u2, e2) = t1, t2
    x1, x2 = VField(chart, e1), VField(chart, e2)

    def one_form(c):
        return KForm(chart, 1, {(j,): c[j] for j in range(dim)})

    form = kform_sub(one_form(b2).lie(x1), one_form(b1).d().iota(x2))
    beta = vec_add(
        tuple(form.component((j,)) for j in range(dim)),
        pairing_differential(pb.pulled_pairing, u1, u2, chart),
    )
    section = []
    for k in range(rank):
        s = x1.apply(u2[k]) - x2.apply(u1[k])
        for a, b in product(range(rank), repeat=2):
            entry = pb.pulled_structure(a, b)
            if entry is not None:
                s = s + u1[a] * u2[b] * entry[k]
        section.append(s)
    return beta, tuple(section), x1.bracket(x2).comps


def full_pairing(pb, t1, t2):
    """The ambient pairing computed term by term from the module formula."""
    chart, rank = pb.chart, pb.source.rank
    (b1, u1, e1), (b2, u2, e2) = t1, t2
    out = Poly.zero(chart)
    for a, b in product(range(rank), repeat=2):
        out = out + u1[a] * pb.pulled_pairing[a][b] * u2[b]
    for j in range(chart.dim):
        out = out + b1[j] * e2[j] + b2[j] * e1[j]
    return out


@pytest.mark.parametrize("name", sorted(HYP_PRESENTATIONS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_ambient_bracket_is_the_full_formula(name, data):
    pb = HYP_PRESENTATIONS[name]
    t1, t2 = data.draw(triples(pb)), data.draw(triples(pb))
    got = pb.ambient_bracket(t1, t2)
    assert all(map(vec_eq, got, full_bracket(pb, t1, t2)))


@pytest.mark.parametrize("name", sorted(HYP_PRESENTATIONS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_support_test_rules_out_only_zero_brackets_and_pairings(name, data):
    """Lemma L14 is sound: a pair it rules out brackets and pairs to zero,
    by the formulas term by term and, for the (tangent, section) half, by
    pair_bracket."""
    pb = HYP_PRESENTATIONS[name]
    t1, t2 = data.draw(triples(pb)), data.draw(triples(pb))
    s1, s2 = tuple(map(support, t1)), tuple(map(support, t2))
    if pullback_bracket_vanishes(pb, s1, s2):
        assert all(map(vec_is_zero, full_bracket(pb, t1, t2)))
    if pullback_pairing_vanishes(pb, s1, s2):
        assert full_pairing(pb, t1, t2).is_zero
    if pair_bracket_vanishes(pb.source.table_masks, (s1[2], s1[1]), (s2[2], s2[1])):
        x, y = (t1[2], t1[1]), (t2[2], t2[1])
        got = pair_bracket(pb.chart, pb.source.rank, pb.pulled_structure, x, y)
        assert all(map(vec_is_zero, got))


@st.composite
def sparse_triples(draw, pb):
    """A triple whose entries are each zero or a polynomial of degree at
    most 1, so that one-forms and tangents often miss each other."""
    entry = st.one_of(st.just(Poly.zero(pb.chart)), polys(pb.chart, max_degree=1, max_terms=2))
    return tuple(tuple(draw(entry) for _ in range(size)) for size in pb.sizes)


@pytest.mark.parametrize("name", sorted(HYP_PRESENTATIONS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pairing_support_test_needs_a_shared_index(name, data):
    """Lemma L14 on the ambient pairing is sound with its shared-index
    clauses: a pair that pullback_pairing_vanishes rules out pairs to zero, term by
    term, although beta1 and eta2 (or beta2 and eta1) may both be
    nonzero."""
    pb = HYP_PRESENTATIONS[name]
    t1, t2 = data.draw(sparse_triples(pb)), data.draw(sparse_triples(pb))
    if pullback_pairing_vanishes(pb, tuple(map(support, t1)), tuple(map(support, t2))):
        assert full_pairing(pb, t1, t2).is_zero


def restated_vanishes(pb, t1, t2):
    """(bracket, pairing) verdicts of Lemma L14 on two triples, restated
    on index sets read from the pulled pairing and the source table."""
    (b1, u1, e1), (b2, u2, e2) = [tuple(map(nonzero_indices, t)) for t in (t1, t2)]
    (cb1, cu1, ce1), (cb2, cu2, ce2) = [tuple(map(is_constant, t)) for t in (t1, t2)]
    pulled = meets(lambda a, b: (pb.pulled_pairing[a][b],), u1, u2)
    bracket_live = (
        (e1 and e2 and not (ce1 and ce2))
        or meets(pb.source.bracket_gen, u1, u2)
        or (e1 and not cu2)
        or (e2 and not cu1)
        or (not cu1 and pulled)
        or (e1 and b2 and not (ce1 and cb2))
        or (e2 and not cb1)
    )
    pairing_live = bool(b1 & e2) or bool(b2 & e1) or pulled
    return not bracket_live, not pairing_live


@pytest.mark.parametrize("name", sorted(HYP_PRESENTATIONS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_support_tests_answer_as_lemma_l14_on_index_sets(name, data):
    """pullback_bracket_vanishes and pullback_pairing_vanishes, read from
    masks, give the answers of Lemma L14 restated here on index sets, on
    triples of every slot shape."""
    pb = HYP_PRESENTATIONS[name]
    draw = triples if data.draw(st.booleans()) else sparse_triples
    t1, t2 = data.draw(draw(pb)), data.draw(draw(pb))
    s1, s2 = tuple(map(support, t1)), tuple(map(support, t2))
    assert (
        pullback_bracket_vanishes(pb, s1, s2),
        pullback_pairing_vanishes(pb, s1, s2),
    ) == restated_vanishes(pb, t1, t2)


def unpruned_result(pb):
    """pb.result with every one of the r^2 basis pairs bracketed, paired
    and reduced."""
    chart, rank, basis = pb.chart, pb.source.rank, pb.basis
    r = len(basis)
    return CourantData(
        chart,
        r,
        tuple(eta for _, _, eta in basis),
        tuple(pb.reduce(_cotangent(chart, rank, j)) for j in range(chart.dim)),
        tuple(tuple(pb.ambient_pairing(x, y) for y in basis) for x in basis),
        {
            (x, y): pb.reduce(pb.ambient_bracket(basis[x], basis[y]))
            for x, y in product(range(r), repeat=2)
        },
    )


def morphism_graph_presentations():
    """The four presentations morphism_graph builds on the standard
    structure of a line along y1 -> y1^2: along the map, along the two
    projections of the product chart (y first), and along its shear."""
    t_chart = coordinate_chart("T", 1)
    q = standard_exact(t_chart)
    f = ChartMap(R1, t_chart, (parse_poly("y1^2", R1),))
    built = []

    def recorded(*args, **kwargs):
        built.append(pullback_courant(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pullback_module, "pullback_courant", recorded)
        morphism_graph(f, q, coordinate_connection(q))
    names = ("graph-f", "graph-y", "graph-x", "graph-shear")
    return dict(zip(names, built, strict=True))


def isolating_presentations():
    """Two presentations whose tables each hold a nonzero entry that one
    term of Lemma L14 alone admits: along the projection of B onto X, the
    constant lifts and sections of the constant twist are admitted by the
    table term only; along the identity of X in exact-split mode, over the
    coordinate connection shifted by x1 dx2^dx3, the constant lift of d1
    and the varying lift of d2 are admitted by d1(u2), and in the other
    order by the same term with the tangents swapped, only."""
    projection = ChartMap(R4, R3, tuple(Poly.coord(R4, i) for i in range(3)))
    q = standard_exact(R3)
    b = KForm(R3, 2, {(1, 2): Poly.coord(R3, 0)})
    return {
        "projection-twisted": pullback_courant(projection, standard_exact(R3, vol3())),
        "identity-shifted": pullback_courant(
            ChartMap.identity(R3), q, "exact-split", connection_shift(coordinate_connection(q), b)
        ),
    }


TABLE_PRESENTATIONS = {
    **PRESENTATIONS,
    **morphism_graph_presentations(),
    **isolating_presentations(),
}


@pytest.mark.parametrize("name", sorted(TABLE_PRESENTATIONS))
def test_pruned_table_equals_the_unpruned_table(name):
    pb = TABLE_PRESENTATIONS[name]
    assert pb.result == unpruned_result(pb)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_pullback_masks_match_the_pair_tests(name, data):
    """bracket_admitted and pairing_admitted set bit y of row x exactly when
    pullback_bracket_vanishes (pullback_pairing_vanishes) does not rule out
    the pair (x, y), on rows and columns drawn from the basis and the
    relations of each presentation mode and from random triples."""
    pb = PRESENTATIONS[name]
    elements = st.one_of(
        st.sampled_from(pb.basis + pb.relations), triples(pb), sparse_triples(pb)
    )
    rows = data.draw(st.lists(elements, max_size=4))
    cols = data.draw(st.lists(elements, max_size=6))
    xs, ys = ([tuple(map(support, t)) for t in ts] for ts in (rows, cols))
    assert pb.bracket_admitted(xs, ys) == predicate_masks(
        lambda x, y: not pullback_bracket_vanishes(pb, x, y), xs, ys
    )
    assert pb.pairing_admitted(xs, ys) == predicate_masks(
        lambda x, y: not pullback_pairing_vanishes(pb, x, y), xs, ys
    )


PAIR_TESTS = ("paired", "bracket_vanishes")


def count_pair_tests(monkeypatch) -> Counter:
    """Count the calls of every per-pair Lemma L14 test the package has,
    module functions (wherever imported) and methods alike, by name. Each
    name of PAIR_TESTS must patch at least one definition, so a name the
    package no longer defines fails here instead of counting nothing."""
    calls = Counter()
    patched = set()

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return call

    modules = (
        anchored_module,
        courant_module,
        pullback_module,
        lie_module,
        dirac_module,
        transgression_module,
    )
    for module in modules:
        for name in PAIR_TESTS:
            if callable(getattr(module, name, None)):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
                patched.add(name)
        for cls in list(vars(module).values()):
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for name in PAIR_TESTS:
                    if name in vars(cls):
                        label = f"{cls.__name__}.{name}"
                        monkeypatch.setattr(cls, name, counted(label, vars(cls)[name]))
                        patched.add(name)
    assert patched == set(PAIR_TESTS)
    return calls


def test_tables_make_no_per_pair_support_test(monkeypatch):
    """Op-count gate: the tables of a Courant inverse image in each mode
    (pb.result), a Baer combination and a Lie inverse image read the masks
    of one admission step per table and make no call of a per-pair Lemma
    L14 test, where each basis pair took one to four nested calls. The
    counter itself counts: one test of a single pair is seen."""
    q = standard_exact(R3, vol3("x1 + x2"))
    conn = coordinate_connection(q)
    lie, (phi, _, _), splitting = assoc_chain()
    calls = count_pair_tests(monkeypatch)
    for pb in (
        pullback_courant(shear_33(), q),
        pullback_courant(shear_33(), q, connection=conn),
        pullback_courant(inclusion_23(), q),
        pullback_courant(projection_32(), standard_exact(R2)),
    ):
        assert pb.result.rank == len(pb.basis)
    assert baer_combination([q, q], [1, 2], [conn, conn]).result.rank == 6
    assert pullback_lie(phi, lie, splitting).result.rank == 3
    assert calls == Counter()
    q.bracket_vanishes(support(q.gen(0)), support(q.gen(1)))
    assert calls["AnchoredModule.bracket_vanishes"] == 1


def test_section_brackets_take_no_support_inside_leibniz_sum(monkeypatch):
    """Op-count gate on one pass of the benchmark's constructions jobs
    (pass 0, seed 11): (leibniz_sum calls, support calls inside it) per
    caller of leibniz_sum. Every section bracket receives the supports its
    caller holds, so leibniz_sum takes none; when AnchoredModule.bracket
    took no supports, its 625 leibniz_sum calls took 1,250."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    sums, supports = Counter(), Counter()
    leibniz_sum, support_of = anchored_module.leibniz_sum, anchored_module.support

    def counted_sum(*args):
        sums[sys._getframe(1).f_code.co_name] += 1
        return leibniz_sum(*args)

    def counted_support(vec):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "leibniz_sum":
            supports[frame.f_back.f_back.f_code.co_name] += 1
        return support_of(vec)

    monkeypatch.setattr(anchored_module, "leibniz_sum", counted_sum)
    monkeypatch.setattr(anchored_module, "support", counted_support)
    for job in workloads.constructions_jobs(11, 0):
        checks, code = job.verdict(job.run())
        assert workloads.verdict_matches(job.expected, checks, code), job.kind
    monkeypatch.undo()
    assert (sums, supports) == (Counter(bracket=625, pair_bracket=650), Counter())


def test_each_table_takes_its_supports_once(monkeypatch):
    """Op-count gate on one pass of the benchmark's constructions jobs
    (pass 0, seed 11): the support calls of every module. A table takes
    the supports of one list passed as both sides once, the combination
    reads its parts' supports from Presentation.supports, and curvature
    takes its column supports once for its brackets and pairings: 2,646
    calls, where the table operations took them on every call and read
    3,222."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    calls = []
    support_of = anchored_module.support

    def counted_support(vec):
        calls.append(1)
        return support_of(vec)

    for name, module in list(sys.modules.items()):
        if name.startswith("algebroids.") and getattr(module, "support", None) is support_of:
            monkeypatch.setattr(module, "support", counted_support)
    for job in workloads.constructions_jobs(11, 0):
        checks, code = job.verdict(job.run())
        assert workloads.verdict_matches(job.expected, checks, code), job.kind
    monkeypatch.undo()
    assert len(calls) <= 2646


def test_one_pullback_verb_run_builds_few_polys(monkeypatch, tmp_path):
    """Op-count gate on one in-process run of the pullback verb on its
    battery spec (the twisted R3 along the shear), spec read and report
    written: the Polys it builds, through Poly.__init__ or Poly._raw. A
    chart holds one zero and one unit, which every zero or unit result is;
    when each zero or unit was built afresh, the run built 1,398. A bare
    integer entry of the spec ("0", "1", "-1") reads as one constant, where
    the parser built a Poly per term and per partial sum: the run built 186
    before that literal path, 81 with it. A product with the chart's unit
    returns the other side itself, where one * c scaled the unit's terms
    into a fresh constant: 65 with that."""
    spec_path = tmp_path / "pullback.json"
    spec_path.write_text(jsonio.dump_json(_battery_jobs()["pullback"]), encoding="utf-8")
    argv = ["pullback", "--spec", str(spec_path), "--out", str(tmp_path / "out.json")]
    built = []
    init, raw = Poly.__init__, Poly._raw

    def counted_init(self, *args):
        built.append(1)
        init(self, *args)

    def counted_raw(cls, chart, *args):
        p = raw(chart, *args)
        if p is not chart.zero:
            built.append(1)
        return p

    monkeypatch.setattr(Poly, "__init__", counted_init)
    monkeypatch.setattr(Poly, "_raw", classmethod(counted_raw))
    assert main(argv + ["--seed", "7", "--samples", "10"]) == 0
    monkeypatch.undo()
    assert len(built) == 65


def test_one_pullback_verb_run_pulls_only_nonzero_entries(monkeypatch, tmp_path):
    """Op-count gate on the ChartMap.pull calls of one in-process run of the
    pullback verb on its battery spec (the twisted R3 along the shear). The
    coanchor, the pairing and the table entries are pulled a vector at a
    time by ChartMap.pull_vec, which checks every entry's chart and answers
    a zero entry without a pull, and almost every entry is zero: the run
    makes 18 pulls, where pulling entry by entry made 108."""
    spec_path = tmp_path / "pullback.json"
    spec_path.write_text(jsonio.dump_json(_battery_jobs()["pullback"]), encoding="utf-8")
    argv = ["pullback", "--spec", str(spec_path), "--out", str(tmp_path / "out.json")]
    calls = []
    pull = ChartMap.pull

    def counted(self, f):
        calls.append(1)
        return pull(self, f)

    monkeypatch.setattr(ChartMap, "pull", counted)
    assert main(argv + ["--seed", "7", "--samples", "10"]) == 0
    monkeypatch.undo()
    assert len(calls) == 18


def test_a_map_builds_its_jacobian_once(monkeypatch):
    """One Jacobian per map: ChartMap.jacobian builds a matrix of tuples on
    first use and keeps it, and classify_map, CourantPullback and
    Submersion read that one matrix. Presenting a fresh shear twice in its
    automatic (submersion) mode differentiates its 3 components 9 times,
    where building the Jacobian on every read took 54 derivatives."""
    calls = []
    diff = Poly.diff

    def counted(self, i):
        calls.append(i)
        return diff(self, i)

    f, q = shear_33(), standard_exact(R3, vol3("x1 + x2"))
    monkeypatch.setattr(Poly, "diff", counted)
    first = pullback_courant(f, q)
    second = pullback_courant(f, q)
    monkeypatch.undo()
    assert first.mode == second.mode == "coordinate-submersion"
    assert len(calls) == 9
    jac = f.jacobian()
    assert jac is f.jacobian() is first.jacobian
    assert isinstance(jac, tuple) and all(isinstance(row, tuple) for row in jac)


@pytest.mark.parametrize(
    "split, counts",
    [(False, (9, 0, 6, 8, 6)), (True, (9, 0, 6, 8, 6))],
    ids=["auto", "exact-split"],
)
def test_pulled_table_reads_only_nonzero_brackets(monkeypatch, split, counts):
    """Op-count gate on the pulled table of a twisted shear, whose basis has
    6 triples: (readings, KForm builds, table entries, ambient brackets,
    ambient pairings) while result is built. Lemma L14 admits 8 of the 36
    pairs to ambient_bracket, and the reader sees the 6 nonzero brackets
    among them and the 3 cotangents of the coanchor. It admits 6 of the
    36 pairs to ambient_pairing in both modes: in exact-split, the lifts
    carry tangents and the lines one-forms, and beta(eta) needs a common
    index. No one-form is built: no admitted pair has a nonzero beta
    against a nonzero eta."""
    q = standard_exact(R3, vol3("x1 + x2"))
    pb = pullback_courant(
        shear_33(), q, connection=coordinate_connection(q) if split else None
    )
    reads, forms, calls = [], [], {"ambient_bracket": 0, "ambient_pairing": 0}
    read = pb._read

    def counted_read(element):
        reads.append(element)
        return read(element)

    original = KForm.__init__

    def counted_form(self, *args, **kwargs):
        forms.append(args)
        original(self, *args, **kwargs)

    def counted(name):
        method = getattr(CourantPullback, name)

        def call(self, *args):
            calls[name] += 1
            return method(self, *args)

        return call

    pb._read = counted_read
    monkeypatch.setattr(KForm, "__init__", counted_form)
    for name in calls:
        monkeypatch.setattr(CourantPullback, name, counted(name))
    table = pb.result.structure
    monkeypatch.undo()
    assert not any(all(map(vec_is_zero, element)) for element in reads)
    assert len(reads) == len(table) + R3.dim
    got = (len(reads), len(forms), len(table), *calls.values())
    assert got == counts


@pytest.mark.parametrize(
    "split, counts", [(False, (9, 0, 9)), (True, (9, 0, 13))], ids=["auto", "exact-split"]
)
def test_reduce_rebuilds_from_nonzero_entries_only(monkeypatch, split, counts):
    """Op-count gate on the rebuild in reduce while the pulled table of a
    twisted shear is built: (readings, apply_matrix calls, Poly.__eq__
    calls) made by reduce outside its reader. The rebuild forms its
    products from nonzero entries, with no apply_matrix, and compares once
    per nonzero rebuilt entry, which for an accepted reading is once per
    nonzero entry of the element read. The dense rebuild made 54
    apply_matrix calls and 108 comparisons in both modes."""
    q = standard_exact(R3, vol3("x1 + x2"))
    pb = pullback_courant(
        shear_33(), q, connection=coordinate_connection(q) if split else None
    )
    inside, entries, calls = [], [], {"apply_matrix": 0, "__eq__": 0}
    read, reduce = pb._read, pb.reduce

    def counted_reduce(element):
        inside.append(True)
        try:
            return reduce(element)
        finally:
            inside.pop()

    def counted_read(element):
        entries.append(sum(not p.is_zero for vec in element for p in vec))
        inside.append(False)
        try:
            return read(element)
        finally:
            inside.pop()

    def counted(name, function):
        def call(*args, **kwargs):
            if inside and inside[-1]:
                calls[name] += 1
            return function(*args, **kwargs)

        return call

    pb._read, pb.reduce = counted_read, counted_reduce
    monkeypatch.setattr(Poly, "__eq__", counted("__eq__", Poly.__eq__))
    for module in (anchored_module, linalg_module):
        monkeypatch.setattr(
            module, "apply_matrix", counted("apply_matrix", module.apply_matrix)
        )
    pb.result
    monkeypatch.undo()
    assert calls["__eq__"] == sum(entries)
    assert (len(entries), *calls.values()) == counts


def test_morphism_graph_multiplies_only_non_constant_pairs(monkeypatch):
    """Op-count gate on the term kernel: morphism_graph of a twisted R3
    along the shear, then check_dirac, calls mul_terms 29 times: a product
    with a constant side scales the other side instead."""
    from algebroids import symcalc

    calls = []
    original = symcalc.mul_terms

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(symcalc, "mul_terms", counted)
    q = standard_exact(R3, vol3("x1 + x2"))
    d = morphism_graph(shear_33(), q, coordinate_connection(q))
    assert check_dirac(d).ok
    assert len(calls) == 29


def test_presenting_along_a_shear_pulls_no_fresh_constant(monkeypatch):
    """Op-count gate on ChartMap.pull: along an endomorphism a constant
    entry, zero included, is its own pull, so presenting standard R3 along
    the shear, with its table and relation checks, builds no Poly.const
    inside pull."""
    from algebroids import symcalc

    depth, fresh = [0], []
    pull, const = symcalc.ChartMap.pull, symcalc.Poly.const.__func__

    def counted_pull(self, p):
        depth[0] += 1
        try:
            return pull(self, p)
        finally:
            depth[0] -= 1

    def counted_const(cls, chart, value):
        if depth[0]:
            fresh.append(value)
        return const(cls, chart, value)

    monkeypatch.setattr(symcalc.ChartMap, "pull", counted_pull)
    monkeypatch.setattr(symcalc.Poly, "const", classmethod(counted_const))
    pb = pullback_courant(shear_33(), standard_exact(R3))
    assert check_courant(pb.result).ok
    assert check_relation_absorption(pb).ok
    assert depth == [0] and fresh == []


def test_exact_split_needs_a_connection_and_an_exact_structure():
    q = standard_exact(R3)
    with pytest.raises(ValidationError):
        pullback_courant(shear_33(), q, "exact-split")
    big = direct_sum(q, opposite(q))
    with pytest.raises(UnsupportedModeError):
        pullback_courant(
            shear_33(), big, "exact-split", coordinate_connection(q)
        )


def test_mode_dispatch_guards():
    q = standard_exact(R2)
    # a Lie-only mode name is a bad argument, not an unsupported presentation
    with pytest.raises(ValidationError, match="mode"):
        pullback_courant(ChartMap.identity(R2), q, "transitive-split")
    # a genuinely curved map has no automatic presentation
    y = Poly.coord(R1, 0)
    parab = ChartMap(R1, R2, (y, y * y))
    with pytest.raises(UnsupportedModeError):
        pullback_courant(parab, q)
    # but the split presentation applies to any map into an exact structure
    pb = pullback_courant(parab, q, "exact-split", coordinate_connection(q))
    assert pb.result.rank == 2
    assert check_courant(pb.result).ok
    assert check_relation_absorption(pb).ok


def test_twist_commute_along_the_shear():
    rep = check_twist_commute(shear_33(), standard_exact(R3), vol3())
    assert rep.ok
    assert check_names(rep) == [
        "twist_commute_frame",
        "twist_commute_structure",
    ]


def test_twist_commute_when_the_pulled_form_vanishes():
    # the embedding pulls the volume form back to zero, yet both routes agree
    f = inclusion_23()
    assert f.pullback_form(vol3()) == KForm.zero(R2, 3)
    rep = check_twist_commute(f, standard_exact(R3), vol3())
    assert rep.ok


def test_twist_commute_in_the_split_presentation():
    q = standard_exact(R3)
    rep = check_twist_commute(
        shear_33(), q, vol3("x2"), connection=coordinate_connection(q)
    )
    assert rep.ok


def test_curvature_commutes_with_pullback():
    q = standard_exact(R3, vol3())
    conn = coordinate_connection(q)
    pb = pullback_courant(shear_33(), q, connection=conn)
    assert check_curvature_pullback(pb, conn).ok

    # a shifted connection rides through the same presentation
    b = KForm(R3, 2, {(0, 2): Poly.coord(R3, 1)})
    assert check_curvature_pullback(pb, connection_shift(conn, b)).ok


def test_pullback_connection_validates_ownership():
    q = standard_exact(R3)
    other = standard_exact(R3, vol3())
    pb = pullback_courant(shear_33(), q, connection=coordinate_connection(q))
    with pytest.raises(ValidationError):
        pullback_connection(pb, coordinate_connection(other))


def test_embedding_layout_lists_the_cut_slots():
    half = support_inclusion(R2, ("x2",))
    assert embedding_layout(half) == ({0: 0}, [1])
    assert embedding_layout(ChartMap.identity(R2)) == ({0: 0, 1: 1}, [])
    point = coordinate_chart("O", 0)
    origin = ChartMap(point, R2, (Poly.zero(point), Poly.zero(point)))
    assert embedding_layout(origin) == ({}, [0, 1])


def test_embedding_layout_refuses_non_embeddings():
    with pytest.raises(UnsupportedModeError, match="coordinate-embedding"):
        embedding_layout(projection_32())
    y = Poly.coord(R1, 0)
    with pytest.raises(UnsupportedModeError, match="coordinate-embedding"):
        embedding_layout(ChartMap(R1, R2, (y, y * y)))


def _map(source, target, *comps):
    return ChartMap(source, target, tuple(parse_poly(c, source) for c in comps))


def _split(f, q, conn):
    """The exact-split inverse image of q along f, and its pulled connection."""
    pb = pullback_courant(f, q, connection=conn)
    return pb, pullback_connection(pb, conn)


def _chain(phi, psi, q, conn=None):
    """(inner, outer, target): psi+(phi+q), phi+q and (phi psi)+q, in
    exact-split mode through conn and its pulled connection when conn is
    given, else in the mode each map classifies to."""
    if conn is None:
        outer = pullback_courant(phi, q)
        inner = pullback_courant(psi, outer.result)
        return inner, outer, pullback_courant(phi.compose(psi), q)
    outer, pulled = _split(phi, q, conn)
    inner, _ = _split(psi, outer.result, pulled)
    return inner, outer, pullback_courant(phi.compose(psi), q, connection=conn)


def _courant_chain(name):
    """The inner, outer and target presentations of one chain of two maps.

    In "shear" the inner map is an invertible shear of an exact-split
    outer image, so the comparison reaches the outer cotangent lines and
    pulls their one-forms through a Jacobian that is not constant."""
    twisted = standard_exact(R3, vol3("x1 + x2"))
    surface = _map(R2, R3, "x1", "x2", "x1*x2")
    if name == "exact-split":
        return _chain(
            surface,
            _map(R1, R2, "y1", "y1^2"),
            twisted,
            coordinate_connection(twisted),
        )
    if name == "shear":
        conn = coordinate_connection(twisted)
        outer = pullback_courant(surface, twisted, connection=conn)
        shear = _map(R2, R2, "x1", "x2 + x1^2")
        inner = pullback_courant(shear, outer.result)
        target = pullback_courant(surface.compose(shear), twisted, connection=conn)
        return inner, outer, target
    if name == "projections":
        return _chain(_map(R2, R1, "x1"), projection_32(), standard_exact(R1))
    return _chain(inclusion_23(), _map(R1, R2, "y1", "0"), standard_exact(R3))


@pytest.mark.parametrize(
    "name", ["exact-split", "shear", "projections", "embeddings"]
)
def test_courant_comparison_is_an_invertible_morphism(name):
    inner, outer, target = _courant_chain(name)
    matrix = comparison(inner, outer, target)
    assert check_courant_morphism(inner.result, target.result, matrix).ok
    assert left_inverse(matrix) is not None


def test_courant_comparison_checks_its_chain():
    inner, outer, target = _courant_chain("projections")
    with pytest.raises(ValidationError, match="outer algebroid"):
        comparison(inner, target, target)
    with pytest.raises(ValidationError, match="different map"):
        comparison(inner, outer, outer)


def exact_split_chain():
    """A twisted std(R3), its coordinate connection and the chain
    R2 -> R3, R1 -> R2, W -> R1."""
    w = coordinate_chart("W", 1, prefix="w")
    phi = _map(R2, R3, "x1", "x2", "x1*x2")
    psi = _map(R1, R2, "y1", "y1^2")
    xi = _map(w, R1, "w1^2 + w1")
    q = standard_exact(R3, vol3("x1 + x2"))
    return q, (phi, psi, xi), coordinate_connection(q)


def test_courant_comparison_is_associative_on_an_exact_split_chain():
    """xi+(C(phi, psi)) then C(phi psi, xi) equals C(psi, xi) then
    C(phi, psi xi), row by row on the unit sections over W, and C(phi, psi)
    is a Courant morphism."""
    rep = check_courant_compose_associative(*exact_split_chain())
    assert check_names(rep) == ["composition_associative"] + [
        f"comparison.morphism_{name}"
        for name in ("anchor", "coanchor", "pairing", "bracket")
    ]
    assert rep.ok, str(rep)


def test_the_chain_check_pulls_a_connection_only_where_it_is_read(monkeypatch):
    """Of the seven images, only those along phi, psi and phi psi are
    pulled back again, so only their connections are built."""
    pulled = []
    original = pullback_module.pullback_connection

    def counted(pb, conn):
        pulled.append(pb.map)
        return original(pb, conn)

    monkeypatch.setattr(pullback_module, "pullback_connection", counted)
    q, (phi, psi, xi), conn = exact_split_chain()
    assert check_courant_compose_associative(q, (phi, psi, xi), conn).ok
    assert [f.comps for f in pulled] == [
        f.comps for f in (phi, psi, phi.compose(psi))
    ]


def test_the_chain_check_fails_a_route_short_of_a_row(monkeypatch):
    """Routes that agree on every row they have but miss the last
    generator over W fail composition_associative: zip alone would compare
    the rows both routes have and pass."""
    original = anchored_module.mat_mul
    monkeypatch.setattr(
        anchored_module, "mat_mul", lambda *args: original(*args)[:-1]
    )
    rep = check_courant_compose_associative(*exact_split_chain())
    got = rep["composition_associative"]
    assert not got.passed
    assert got.counterexample == "route 1: rows for 1 of 2 generators"


def graph_on_axis(form_scale="x1"):
    """The graph of form_scale dx1^dx2 over {x3=0} in std(R3)."""
    q = standard_exact(R3)
    inc = support_inclusion(R3, ("x3",))
    shifted = connection_shift(
        coordinate_connection(q),
        KForm(R3, 2, {(0, 1): parse_poly(form_scale, R3)}),
    )
    rows = (shifted.columns[0], shifted.columns[1], q.coanchor[2])
    return DiracData(q, tuple(tuple(map(inc.pull, row)) for row in rows), ("x3",))


def test_dirac_pushdown_recovers_the_restricted_graph():
    d = graph_on_axis("x1")
    assert check_dirac(d).ok
    down = dirac_pushdown(d)
    sub = down.courant.chart
    expected = graph_of_two_form(
        coordinate_connection(down.courant),
        KForm(sub, 2, {(0, 1): Poly.coord(sub, 0)}),
    )
    assert down.generators == expected.generators
    assert check_dirac(down).ok


def test_dirac_pushdown_reuses_the_presentations_embedding(monkeypatch):
    from algebroids import pullback

    built = []

    class CountingEmbedding(pullback.Embedding):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(pullback, "Embedding", CountingEmbedding)
    d = graph_on_axis("x1")
    dirac_pushdown(d)
    assert len(built) == 1


def test_dirac_pushdown_refuses_an_empty_support():
    q = standard_exact(R2)
    d = DiracData(q, (unit_vec(R2, 4, 0), unit_vec(R2, 4, 1)), ())
    assert check_dirac(d).ok
    with pytest.raises(ValidationError, match="nonempty support"):
        dirac_pushdown(d)


def test_dirac_pushdown_requires_conormal_membership():
    q = standard_exact(R3)
    sub = support_inclusion(R3, ("x3",)).source
    gens = tuple(
        tuple(
            Poly.one(sub) if b == a else Poly.zero(sub) for b in range(6)
        )
        for a in (0, 1, 2)
    )
    bad = DiracData(q, gens, ("x3",))
    with pytest.raises(ValidationError, match="conormal"):
        dirac_pushdown(bad)


def test_plane_pushdown_gives_the_tangent_dirac_structure():
    """span{(d/dx1, 0), (0, dx2)} over {x2=0} pushes down to the tangent
    directions of the line."""
    q = standard_exact(R2)
    sub = support_inclusion(R2, ("x2",)).source
    one, zero = Poly.one(sub), Poly.zero(sub)
    d = DiracData(
        q, ((one, zero, zero, zero), (zero, zero, zero, one)), ("x2",)
    )
    assert check_dirac(d).ok
    down = dirac_pushdown(d)
    assert down.courant.rank == 2
    assert down.generators == ((one, zero),)
    assert check_dirac(down).ok


def test_morphism_graph_is_a_dirac_structure():
    Y = coordinate_chart("Y", 1, prefix="y")
    X1 = coordinate_chart("Z", 1, prefix="z")
    f = ChartMap(Y, X1, (2 * Poly.coord(Y, 0),))
    q = standard_exact(X1)
    d = morphism_graph(f, q, coordinate_connection(q))
    assert d.courant.rank == 4
    assert len(d.generators) == 2
    assert check_dirac(d).ok


def test_morphism_graph_of_a_curved_map_with_twist():
    Y = coordinate_chart("Y", 2, prefix="y")
    y1, y2 = Poly.coord(Y, 0), Poly.coord(Y, 1)
    f = ChartMap(Y, R3, (y1, y2, y1 * y2))
    q = standard_exact(R3, vol3())
    d = morphism_graph(f, q, coordinate_connection(q))
    assert d.courant.chart.dim == 5
    assert len(d.generators) == 5
    assert check_dirac(d).ok


def test_morphism_graph_of_the_identity_is_the_diagonal():
    q = standard_exact(R2)
    d = morphism_graph(ChartMap.identity(R2), q, coordinate_connection(q))
    prod = d.courant.chart
    assert prod.name == "P*P"
    assert prod.coords == ("x1", "x2", "w_x1", "w_x2")
    assert d.support == ("w_x1", "w_x2")
    assert d.courant.rank == 8
    rows = tuple(tuple(str(p) for p in row) for row in d.generators)
    assert rows == (
        ("1", "0", "1", "0", "0", "0", "0", "0"),
        ("0", "1", "0", "1", "0", "0", "0", "0"),
        ("0", "0", "0", "0", "-1", "0", "1", "0"),
        ("0", "0", "0", "0", "0", "-1", "0", "1"),
    )
    assert check_dirac(d).ok


def test_morphism_graph_to_a_point_keeps_only_source_tangents():
    point = coordinate_chart("O", 0)
    q = standard_exact(point)
    d = morphism_graph(ChartMap(R2, point, ()), q, coordinate_connection(q))
    assert d.courant.chart.coords == ("x1", "x2")
    assert d.support == ()
    assert d.courant.rank == 4
    rows = tuple(tuple(str(p) for p in row) for row in d.generators)
    assert rows == (("1", "0", "0", "0"), ("0", "1", "0", "0"))
    assert check_dirac(d).ok


def test_shape_failures_are_unsupported_modes():
    q = standard_exact(R2)
    y = coordinate_chart("Y", 2, prefix="y")
    flatten = ChartMap(y, R2, (Poly.coord(y, 0), Poly.zero(y)))
    t = Poly.coord(R1, 0)
    diagonal = ChartMap(R1, R2, (t, t))
    for f in (flatten, diagonal):
        with pytest.raises(UnsupportedModeError):
            pullback_courant(f, q, "coordinate-embedding")
    line = coordinate_chart("Z", 1, prefix="z")
    z = Poly.coord(line, 0)
    fold = ChartMap(line, line, (z * z + z,))
    with pytest.raises(UnsupportedModeError):
        pullback_courant(fold, standard_exact(line), "coordinate-submersion")
    # the identity presentation needs the identity map, not just equal charts
    with pytest.raises(UnsupportedModeError):
        pullback_courant(shear_33(), standard_exact(R3), "identity")
