"""Transgressed bracket tables of a Courant structure.

The transgression packages the structure data as a graded bracket on three
degrees:

* degree -2 holds functions dressed with a central generator (written f*c),
* degree -1 holds sections dressed with the odd shift (written q*eps); a
  one-form dressed with c lands here too and is rewritten through the
  coanchor, alpha*c -> coanchor(alpha)*eps,
* degree 0 holds pairs of a section and a two-form dressed with c.

Brackets with both arguments in degree 0 leave the truncation window and
raise TruncationError; everything else is given by a short table: the c
generator is central, degree -1 elements act on dressed forms by interior
product along the anchor, degree 0 elements act by Lie derivative, two odd
elements pair into f*c, and mixed section brackets reduce to the Courant
bracket with coanchor corrections. The structure data can be read back
out of the public operations (the tests do so, with an oracle in their
helper module), and the combination checker compares the transgression of
a weighted combination against the degree-wise combination of the summand
tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement, product

from algebroids.anchored import (
    Support,
    bits,
    paired,
    pairings,
    probe,
    require_chart,
    spread,
    support,
)
from algebroids.courant import (
    CourantCombination,
    CourantData,
    baer_combination,
    generator_defects,
)
from algebroids.errors import ChartMismatchError, TruncationError, ValidationError
from algebroids.linalg import (
    Vec,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_sub,
    zero_vec,
)
from algebroids.report import Report
from algebroids.symcalc import KForm, Poly


@dataclass(frozen=True)
class TauModule:
    """The transgressed module of one Courant structure."""

    courant: CourantData

    @property
    def chart(self):
        return self.courant.chart

    @property
    def rank(self) -> int:
        return self.courant.rank

    # -- element constructors ------------------------------------------------

    @cached_property
    def _zeros(self) -> tuple[Poly, Vec, KForm]:
        """The zero function, section and two-form, shared by every element."""
        chart = self.chart
        return Poly.zero(chart), zero_vec(chart, self.rank), KForm.zero(chart, 2)

    @cached_property
    def _zero_elements(self) -> dict[int, "TauElement"]:
        """The zero element of each degree, shared by every zero bracket."""
        return {d: TauElement(self, d, *self._zeros) for d in (-2, -1, 0)}

    def zero(self, degree: int) -> "TauElement":
        return self._zero_elements[degree]

    def function_c(self, f: Poly) -> "TauElement":
        _, section, form = self._zeros
        return TauElement(self, -2, f, section, form)

    def section_eps(self, q: Vec) -> "TauElement":
        c_part, _, form = self._zeros
        return TauElement(self, -1, c_part, tuple(q), form)

    def one_form_c(self, alpha: KForm) -> "TauElement":
        """A one-form dressed with c, rewritten through the coanchor."""
        return self.section_eps(self.courant.coanchor_of(alpha))

    def pair(self, q: Vec, omega: KForm | None = None) -> "TauElement":
        c_part, _, form = self._zeros
        return TauElement(self, 0, c_part, tuple(q), form if omega is None else omega)

    def two_form_c(self, omega: KForm) -> "TauElement":
        return self.pair(self._zeros[1], omega)

    def coordinate_c(self, j: int) -> "TauElement":
        return self.function_c(Poly.coord(self.chart, j))

    def _result(self, degree: int, value) -> "TauElement":
        """A nonzero bracket result, unvalidated (TauElement._raw): value
        is the c part in degree -2 and the section in degree -1. It is
        built from validated elements and the frozen structure's rows, so
        its slots have the rank's length and lie on the chart."""
        c_part, section, form = self._zeros
        if degree == -2:
            return TauElement._raw(self, -2, value, section, form)
        return TauElement._raw(self, -1, c_part, value, form)

    # -- the bracket ---------------------------------------------------------

    def bracket(self, x: "TauElement", y: "TauElement") -> "TauElement":
        """The transgressed bracket, by degrees. Lemma L14
        (algebroids.anchored) rules out, on the supports of the two
        sections, the parts that are zero, and they are not computed:

        * (-1,-1): the pairing, unless the sections are paired on the
          pairing masks (L14 on pairings);
        * (0,-1) and (-1,0): the section bracket when bracket_vanishes
          holds (admitted on one column); for (-1,0) the
          pairing differential c(d<u, v>) unless the sections are paired
          and their pairing is not constant (d kills constants); and the
          two-form correction along the anchor of the odd section unless
          its support meets the anchor mask (the anchor term);
        * (0,-2): the anchor action on a constant function (a derivation
          kills constants).

        A ruled-out part is zero. The length and chart of each section were
        checked when its element was built (TauElement), so a skip needs no
        check of its own, and a result is built unvalidated (_result)."""
        if x.module != self or y.module != self:
            raise ValidationError("bracket arguments from a different module")
        q = self.courant
        dx, dy = x.degree, y.degree
        if dx == 0 and dy == 0:
            raise TruncationError(
                "bracket of two degree-zero elements leaves the window"
            )
        if dx == -2 and dy == -2:
            return self.zero(-2)
        if dy == -2:
            # [x, f*c] = act_x(f)*c; interior product kills functions.
            if dx == -1:
                return self.zero(-2)
            if y.c_part.as_constant() is not None:
                return self.zero(-2)
            return self._result(-2, q.anchor_of(x.section).apply(y.c_part))
        if dx == -2:
            got = self.bracket(y, x)
            return got if got.c_part.is_zero else self._result(-2, -got.c_part)
        su, sv = x.section_support, y.section_support
        if dx == -1 and dy == -1:
            if not paired(q.pairing_masks, su, sv):
                return self.zero(-2)
            return self._result(-2, q.pairing_of(x.section, y.section))
        # (0,-1): [u, v] - c(i_{anchor v} omega); (-1,0): the dressed
        # one-forms collect the pairing differential and the interior
        # product of the two-form part, [u, v] - c(d<u, v>)
        # + c(i_{anchor u} omega).
        odd, even = (y, x) if dx == 0 else (x, y)
        zero = self._zeros[1]
        sec = (
            zero
            if q.bracket_vanishes(su, sv)
            else q.bracket(x.section, y.section, supports=(su, sv))
        )
        if dx == -1 and paired(q.pairing_masks, su, sv):
            g = q.pairing_of(x.section, y.section)
            if g.as_constant() is None:
                sec = vec_sub(sec, q.coanchor_d(g))
        if not even.form.is_zero and odd.section_support.mask & q.anchor_mask:
            corr = q.coanchor_of(even.form.iota(q.anchor_of(odd.section)))
            sec = vec_add(sec, corr) if dx == -1 else vec_sub(sec, corr)
        # sec is still the shared zero when every part was ruled out
        return self.zero(-1) if sec is zero else self._result(-1, sec)


@dataclass(frozen=True)
class TauElement:
    """One homogeneous element; unused slots are kept at canonical zeros.

    An element built from caller data (the constructors of TauModule:
    function_c, section_eps, pair, two_form_c and those built on them) is
    validated: its section slot has the rank's length (ValidationError)
    and every entry lies on the module's chart (ChartMismatchError), so the
    parts of TauModule.bracket that Lemma L14 rules out need no check of
    their own. A result of TauModule.bracket is built from such elements
    and the frozen structure's rows, and is not validated again (_raw)."""

    module: TauModule = field(compare=False)
    degree: int
    c_part: Poly
    section: Vec
    form: KForm

    @cached_property
    def section_support(self) -> Support:
        """The support of the section slot, read once per element."""
        return support(self.section)

    @classmethod
    def _raw(cls, module, degree, c_part, section, form) -> "TauElement":
        """An element on slots that already hold, unchecked, as Poly._raw."""
        el = cls.__new__(cls)
        el.__dict__.update(
            module=module, degree=degree, c_part=c_part, section=section, form=form
        )
        return el

    def __post_init__(self):
        if self.degree not in (-2, -1, 0):
            raise ValidationError("degree outside the truncation window")
        chart = self.module.chart
        if self.c_part.chart != chart or self.form.chart != chart:
            raise ChartMismatchError("element data on the wrong chart")
        if len(self.section) != self.module.rank:
            raise ValidationError("section slot has wrong length")
        require_chart(chart, self.section)
        if self.form.degree != 2:
            raise ValidationError("the dressed form slot holds two-forms")
        if self.degree != -2 and not self.c_part.is_zero:
            raise ValidationError("c coefficient only lives in degree -2")
        if self.degree == -2 and not vec_is_zero(self.section):
            raise ValidationError("degree -2 has no section slot")
        if self.degree != 0 and not self.form.is_zero:
            raise ValidationError("two-form slot only lives in degree 0")


def transgress(q: CourantData) -> TauModule:
    return TauModule(q)


def check_tau_rules(
    q: CourantData,
    samples: int = 10,
    seed: int = 0,
) -> Report:
    """The bracket table on generator elements: the six defining rules plus
    centrality, graded antisymmetry, the Jacobi identity in the window, and
    the truncation guard. No rule draws random elements: samples and seed
    are accepted and unused.

    The evaluated rules run through TauModule on the generator elements
    e_a (in pair(e_a) and e_a*eps), dx_j*c and (dx_i^dx_j)*c, which name
    their counterexamples. The bracket is additive in each argument, and
    the branch of TauModule.bracket that computes a rule turns its defect
    into a Courant defect (check_courant names E3-E6 and M, N):

        rule                   case         defect                 lemma
        rule_c_central         all orders   none                   definition
        rule_one_form_rewrite  alpha*c      none                   definition
        rule_interior_action   one-form     E5(u, alpha)           L5
        rule_lie_action        one-form     E4(u, alpha)           L8
        rule_odd_pairing       (-1,-1)      none                   definition
        rule_mixed_bracket     both orders  none                   definition
        graded_antisymmetry    (0,-1) a<=b  E6(e_a, e_b)           L6, L16
        graded_jacobi          (0,-1,-1)    E3(u, v, w)            L7, L17
                                            + E5(w, i_{anchor v} omega)
                                            + E5(v, i_{anchor w} omega)
        truncation_guard       (0,0)        none                   definition

    Both right sides of the one-form rules follow from Cartan's formulas,
    with no form built: i_X dx_j = X^j, so rule_interior_action compares
    [e_a*eps, dx_j*c] with anchor row a at j (q.anchor[a][j]); and
    L_X dx_j = d(i_X dx_j) + i_X d(dx_j) = d X^j, so rule_lie_action
    compares [x, dx_j*c] with c(d X^j), X the anchor of x
    (CourantData.coanchor_d). The bracket results are not validated again:
    TauModule.bracket builds them from validated elements and the frozen
    structure's rows (TauModule._result).

    A "definition" rule restates the branch of TauModule.bracket that
    computes it, so it holds for every structure and is recorded as a pass
    without evaluation, as check_courant records eq2_leibniz_rule:
    rule_c_central, because [x, c] applies an anchor to the constant 1,
    the (-1,-2) branch returns zero and [f*c, x] negates [x, f*c];
    rule_one_form_rewrite, because one_form_c is section_eps of coanchor_of;
    rule_odd_pairing, because the (-1,-1) branch returns pairing_of;
    rule_mixed_bracket, because on generators the (0,-1) branch returns the
    table row and the (-1,0) branch that row minus c(dg_ab);
    truncation_guard, because the (0,0) branch always raises. The same
    holds for the cases the evaluated rules leave out: the two-form cases
    of rule_interior_action, the dressed-function cases of rule_lie_action
    and graded antisymmetry in degrees (-1,-1) and (0,-2) and on the
    two-forms (L16). The test suite evaluates every one of these cases
    through TauModule.bracket (tests/test_transgression.py,
    test_definitional_rules_hold).

    L5 and L6 are function-linear, so the generator elements decide them.
    L16: the case (pair(e_a), e_b) is E6(e_a, e_b), symmetric in a and b
    as the pairing is (CourantData checks it), so the first failing pair
    in walk order has a <= b and only b >= a are walked. On omega*c both
    orders bracket no section, and the correction c(i_{anchor e_b} omega)
    one order adds the other subtracts: zero by definition.
    For L7 and L8 the generator cases come first; then the probes x_k*e_a
    decide, and only those whose correction can be nonzero are visited:
    E4(x_k e_a, dx_j) - x_k E4(e_a, dx_j) = M[a][j] coanchor[k] - N[j]^k e_a,
    and E3(x_k e_a, e_b, e_c) - x_k E3(e_a, e_b, e_c)
    = -(g_ab M[c][k] + g_ac M[b][k]). Each dressed element is built once:
    dx_j*c once per j, and pair(u) once per section u.
    L17: on a two-form x = (dx_i^dx_j)*c the section u is 0, so the E3
    term drops out, and by L5 (E5(e_b, dx_k) = M[b][k], function-linear in
    the one-form) with i_X(dx_i^dx_j) = X^i dx_j - X^j dx_i the case
    (e_b, e_c) is A[b][i] M[c][j] - A[b][j] M[c][i] + A[c][i] M[b][j]
    - A[c][j] M[b][i], A the anchor rows; the two terms
    omega(anchor e_b, anchor e_c) of E5 cancel, omega being antisymmetric.
    So a two-form is built and walked only when column i or column j of M
    has a nonzero entry, the column test that admits the probes x_k*e_a;
    the two-forms feed graded_jacobi alone, and evens keeps its order, so
    the first failure cannot change. The failing report tau-anchor
    (tests/test_acceptance.py) witnesses the stage: graded_jacobi first
    fails there at dx1^dx2, e0, e1.

    Admission (Lemma L14 over the tables of the check). The rules bracket
    a degree-0 element x = pair(u, omega) (the elements pair(e_a), the
    two-forms (dx_i^dx_j)*c that L17 keeps and the Jacobi probes) with
    e_b*eps, and pair(e_a) also in the other order; each order is
    admitted for all its cases in one q.admitted step, on the supports of
    u and e_b.
    [x, e_b*eps] has the section bracket [u, e_b] and the two-form
    correction, which needs omega nonzero and e_b anchored; [e_b*eps, x]
    adds the pairing term c(d<e_b, u>), which needs g_ba nonzero for some
    a in supp u (pairing_masks[b] meeting supp u). A case with every term
    ruled out is zero, so it is not bracketed: a skipped [x, e_b*eps] is
    the module's zero element, which the bracket returns there, and
    graded_antisymmetry skips a case (e_a, e_b) whose two orders are both
    ruled out. The one-form rules take one step each: [e_a*eps, dx_j*c] is
    the pairing <e_a, coanchor[j]>, admitted by pairings on the pairing
    masks, and [x, dx_j*c], for x = pair(u) with no two-form, the section
    bracket [u, coanchor[j]], admitted by q.admitted; a ruled-out case
    takes the zero element and its right side is still compared.
    graded_jacobi builds [x, e_b*eps] once per degree-0 element
    x and generator b, so it takes r brackets of sections per element, not
    r^2; its defect is symmetric in the two odd elements, as the pairing
    is, so it visits the pairs b <= c only. Of its three terms on (b, c),
    [x, <e_b, e_c>*c] needs <e_b, e_c> not constant (a derivation kills
    constants), and <[x, e_b*eps], e_c> needs bit c of reach[b], where
    reach[b] = spread(pairing_masks, supp [x, e_b*eps]); <e_b, [x,
    e_c*eps]> needs bit b of reach[c], the pairing masks being symmetric.
    A ruled-out term is zero and is not bracketed, and a pair with all
    three ruled out is not visited. No counterexample can change: every
    skipped bracket is zero. The brackets that are made read the
    support tests of TauModule.bracket one pair at a time, and a zero
    result is the module's shared zero element.
    """
    rep = Report()
    tau = transgress(q)
    chart = q.chart
    coords = chart.coords
    r, n = q.rank, chart.dim
    gens = [q.gen(a) for a in range(r)]
    M, N = generator_defects(q)
    # defective[k]: column k of M has a nonzero entry (L7, L17)
    defective = [any(not M[b][k].is_zero for b in range(r)) for k in range(n)]
    eps = [tau.section_eps(e) for e in gens]
    dx = [KForm.dx(chart, j) for j in range(n)]
    dx_c = [tau.one_form_c(alpha) for alpha in dx]
    degree_zero = [(f"e{a}", tau.pair(e)) for a, e in enumerate(gens)]
    for i, j in combinations(range(n), 2):
        if defective[i] or defective[j]:  # Lemma L17
            omega = KForm(chart, 2, {(i, j): Poly.one(chart)})
            degree_zero.append((f"d{coords[i]}^d{coords[j]}", tau.two_form_c(omega)))

    @cache
    def probe_pair(a: int, k: int) -> tuple[str, TauElement]:
        label, u = probe(q, a, k)
        return label, tau.pair(u)

    # the degree-0 elements of graded_jacobi: degree_zero, then the probes
    evens = degree_zero + [
        probe_pair(a, k) for k in range(n) if defective[k] for a in range(r)
    ]
    supports = [x.section_support for _, x in evens]
    gen_supports = [e.section_support for e in eps]
    # the two-form correction: omega nonzero, e_b anchored
    corrected = [0 if x.form.is_zero else q.anchor_mask for _, x in evens]
    # fore[i]: the b admitted for [x_i, e_b*eps]; aft[a]: those admitted
    # for [e_b*eps, pair(e_a)], which has no two-form
    fore = [m | t for m, t in zip(q.admitted(supports, gen_supports), corrected)]
    columns = q.admitted(gen_supports, gen_supports)
    aft = [
        sum(1 << b for b, m in enumerate(columns) if m >> a & 1)
        | spread(q.pairing_masks, s.mask)
        for a, s in enumerate(gen_supports)
    ]

    # the one-form rules' cases: e_a*eps against dx_j*c is the pairing
    # <e_a, coanchor[j]>, and x against dx_j*c the section bracket
    one_form_supports = [d.section_support for d in dx_c]
    interior = pairings(q.pairing_masks, gen_supports, one_form_supports)
    lie_cases = [(*degree_zero[a], j) for a, j in product(range(r), range(n))]
    for a, j, k in product(range(r), range(n), range(n)):
        if not (M[a][j].is_zero and N[j].comps[k].is_zero):
            lie_cases.append((*probe_pair(a, k), j))
    lie = q.admitted([x.section_support for _, x, _ in lie_cases], one_form_supports)

    @cache
    def with_eps(i: int, b: int) -> TauElement:
        """[x, e_b*eps] for the i-th element x of evens; pair(e_a) is x_a."""
        if not fore[i] >> b & 1:
            return tau.zero(-1)
        return tau.bracket(evens[i][1], eps[b])

    def interior_action():
        for a, j in product(range(r), range(n)):
            got = tau.bracket(eps[a], dx_c[j]) if interior[a] >> j & 1 else tau.zero(-2)
            if got.c_part != q.anchor[a][j]:
                yield f"against a dressed one-form: e{a}, d{coords[j]}"

    def lie_action():
        for (label, x, j), admitted in zip(lie_cases, lie):
            got = tau.bracket(x, dx_c[j]) if admitted >> j & 1 else tau.zero(-1)
            if got.section != q.coanchor_d(q.anchor_of(x.section).comps[j]):
                yield f"against a dressed one-form: {label}, d{coords[j]}"

    def graded_antisymmetry():
        # Lemma L16: pair(e_a) against e_b for b >= a only
        for a, (label, x) in enumerate(degree_zero[:r]):
            for b in bits((fore[a] | aft[a]) >> a << a):
                got = tau.bracket(eps[b], x) if aft[a] >> b & 1 else tau.zero(-1)
                if not vec_is_zero(vec_add(with_eps(a, b).section, got.section)):
                    yield f"degrees (0,-1): {label}, e{b}"

    def graded_jacobi():
        zero = tau.zero(-2).c_part
        varying = [
            sum(1 << c for c, g in enumerate(row) if g.as_constant() is None)
            for row in q.pairing
        ]

        @cache
        def pairing_c(b: int, c: int) -> TauElement:
            return tau.bracket(eps[b], eps[c])

        for i, (label, x) in enumerate(evens):
            x_eps = [with_eps(i, b) for b in range(r)]
            reach = [spread(q.pairing_masks, y.section_support.mask) for y in x_eps]
            for b, c in combinations_with_replacement(range(r), 2):
                inner = varying[b] >> c & 1
                left, right = reach[b] >> c & 1, reach[c] >> b & 1
                if not (inner or left or right):
                    continue
                lhs = tau.bracket(x, pairing_c(b, c)).c_part if inner else zero
                rhs = (tau.bracket(x_eps[b], eps[c]).c_part if left else zero) + (
                    tau.bracket(eps[b], x_eps[c]).c_part if right else zero
                )
                if lhs != rhs:
                    yield f"degrees (0,-1,-1): {label}, e{b}, e{c}"

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


def check_transgression_linear(parts, weights, connections) -> Report:
    """Transgressing a weighted combination matches combining the
    transgressions degree-wise, decided on the generators e_x of the
    combined structure C.

    Route one transgresses C; route two evaluates the summand tables on the
    fiber-product representatives expand_i (weight w_i), expand_i e_x being
    part i of comb.basis[x], and reduces: weighted c parts for the odd
    pairing, reduce for the section brackets.
    L3: expand is function-linear, so both pairing routes are bilinear over
    functions and generator pairs decide tau_pairing_combines.
    L4: expand u = sum u_x e_x, v = sum v_y e_y on both bracket routes with
    [f a, g b] = f g [a, b] + f rho(a)(g) b - g rho(b)(f) a
    + g <a, b> coanchor(df) (L1 in algebroids.anchored, both slots).
    reduce is function-linear on the submodule of tuples it accepts,
    so the difference D of the routes is sum u_x v_y D(e_x, e_y) once these
    facts hold:
      H1  the pairing combines on generator pairs;
      H2  rho_i(expand_i e_x) = rho_C(e_x), the cases of
          tau_function_action_matches;
      H4  each summand's coanchor rows are anchor-free and pair with its
          connection columns to delta_jk;
      H5  row j of the combined coanchor is e_{n+j}.
    H2 takes the Leibniz coefficients out of reduce. H4 and the
    anchors of the connection columns give reduce(expand e_x) = e_x
    (H3, so no case of its own). H4 and H1 reduce the coanchor terms of
    route two to (0, <e_x, e_y>_C v_y du_x), which H5 makes the coanchor
    term of route one. tau_bracket_combines yields H1, H2, H4 and H5 as
    labelled cases before its generator pairs.
    """
    rep = Report()
    comb: CourantCombination = baer_combination(parts, weights, connections)
    result = comb.result
    tau_c = transgress(result)
    taus = [transgress(qi) for qi in comb.parts]
    chart = result.chart
    n, r = chart.dim, result.rank
    gens = [unit_vec(chart, r, a) for a in range(r)]
    # e_x dressed once on C, and expand_i e_x once per summand i
    eps_c = [tau_c.section_eps(e) for e in gens]
    pair_c = [tau_c.pair(e) for e in gens]
    lift_eps = [[t.section_eps(u) for t, u in zip(taus, lift)] for lift in comb.basis]
    lift_pairs = [[t.pair(u) for t, u in zip(taus, lift)] for lift in comb.basis]

    def pairing_combines(x: int, y: int) -> bool:
        route1 = tau_c.bracket(eps_c[x], eps_c[y]).c_part
        route2 = Poly.zero(chart)
        for ti, w, u, v in zip(taus, comb.weights, lift_eps[x], lift_eps[y]):
            route2 = route2 + w * ti.bracket(u, v).c_part
        return route1 == route2

    def bracket_combines(x: int, y: int) -> bool:
        route1 = tau_c.bracket(pair_c[x], eps_c[y]).section
        comps = tuple(
            ti.bracket(u, v).section for ti, u, v in zip(taus, lift_pairs[x], lift_eps[y])
        )
        return vec_is_zero(vec_sub(route1, comb.reduce(comps)))

    def on_generators(identity):
        for x, y in product(range(r), repeat=2):
            if not identity(x, y):
                yield f"generators ({x},{y})"

    def function_action_matches():
        coords_c = [[t.coordinate_c(j) for j in range(n)] for t in (tau_c, *taus)]
        for x in range(r):
            for j in range(n):
                route1 = tau_c.bracket(pair_c[x], coords_c[0][j]).c_part
                for i, (ti, lift) in enumerate(zip(taus, lift_pairs[x])):
                    got = ti.bracket(lift, coords_c[i + 1][j]).c_part
                    if got != route1:
                        yield (
                            f"generator {x}, coordinate {chart.coords[j]}, "
                            f"summand {i}"
                        )

    def coanchor_frames():
        for i, (qi, conn) in enumerate(zip(comb.parts, comb.connections)):
            for j, row in enumerate(qi.coanchor):
                dual = [qi.pairing_of(row, c).as_constant() for c in conn.columns]
                free = qi.anchor_of(row).is_zero
                if not free or dual != [int(j == k) for k in range(n)]:
                    yield f"summand {i}: coanchor row {j}"
        for j, row in enumerate(result.coanchor):
            if row != gens[n + j]:
                yield f"combined coanchor row {j}"

    # H1 and H2 are the generator cases of the other two verdicts.
    pairing_failures = list(on_generators(pairing_combines))
    anchor_failures = list(function_action_matches())

    def bracket_combines_on_generators():
        for bad in pairing_failures:
            yield f"pairing does not combine: {bad}"
        for bad in anchor_failures:
            yield f"lift changes the anchor: {bad}"
        yield from coanchor_frames()
        yield from on_generators(bracket_combines)

    rep.check("tau_pairing_combines", pairing_failures)
    rep.check("tau_bracket_combines", bracket_combines_on_generators())
    rep.check("tau_function_action_matches", anchor_failures)
    return rep
