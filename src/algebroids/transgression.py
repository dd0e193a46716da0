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
bracket with coanchor corrections. courant_from_transgression reads the
structure data back out of the public operations, and the combination
checker compares the transgression of a weighted combination against the
degree-wise combination of the summand tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement, product

from algebroids.anchored import probe
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
    vec_eq,
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

    def zero(self, degree: int) -> "TauElement":
        return TauElement(self, degree, *self._zeros)

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

    # -- the bracket ---------------------------------------------------------

    def bracket(self, x: "TauElement", y: "TauElement") -> "TauElement":
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
            return self.function_c(q.anchor_of(x.section).apply(y.c_part))
        if dx == -2:
            got = self.bracket(y, x)
            return self.function_c(-got.c_part)
        if dx == -1 and dy == -1:
            return self.function_c(q.pairing_of(x.section, y.section))
        if dx == 0 and dy == -1:
            sec = q.bracket(x.section, y.section)
            if not x.form.is_zero:
                correction = x.form.iota(q.anchor_of(y.section))
                sec = vec_sub(sec, q.coanchor_of(correction))
            return self.section_eps(sec)
        # dx == -1 and dy == 0: the dressed one-forms collect the pairing
        # differential and the interior product of the two-form part.
        sec = q.bracket(x.section, y.section)
        g = q.pairing_of(x.section, y.section)
        sec = vec_sub(sec, q.coanchor_of(KForm.from_poly(g).d()))
        if not y.form.is_zero:
            sec = vec_add(
                sec, q.coanchor_of(y.form.iota(q.anchor_of(x.section)))
            )
        return self.section_eps(sec)


@dataclass(frozen=True)
class TauElement:
    """One homogeneous element; unused slots are kept at canonical zeros."""

    module: TauModule = field(compare=False)
    degree: int
    c_part: Poly
    section: Vec
    form: KForm

    def __post_init__(self):
        if self.degree not in (-2, -1, 0):
            raise ValidationError("degree outside the truncation window")
        chart = self.module.chart
        if self.c_part.chart != chart or self.form.chart != chart:
            raise ChartMismatchError("element data on the wrong chart")
        if len(self.section) != self.module.rank:
            raise ValidationError("section slot has wrong length")
        if self.form.degree != 2:
            raise ValidationError("the dressed form slot holds two-forms")
        if self.degree != -2 and not self.c_part.is_zero:
            raise ValidationError("c coefficient only lives in degree -2")
        if self.degree == -2 and not vec_is_zero(self.section):
            raise ValidationError("degree -2 has no section slot")
        if self.degree != 0 and not self.form.is_zero:
            raise ValidationError("two-form slot only lives in degree 0")

    @property
    def is_zero(self) -> bool:
        return (
            self.c_part.is_zero
            and vec_is_zero(self.section)
            and self.form.is_zero
        )

    def __add__(self, other: "TauElement") -> "TauElement":
        if self.module != other.module or self.degree != other.degree:
            raise ValidationError("can only add elements of equal degree")
        return TauElement(
            self.module,
            self.degree,
            self.c_part + other.c_part,
            vec_add(self.section, other.section),
            self.form + other.form,
        )


def transgress(q: CourantData) -> TauModule:
    return TauModule(q)


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


def check_tau_rules(
    q: CourantData,
    samples: int = 10,
    seed: int = 0,
) -> Report:
    """The bracket table on generator elements: the six defining rules plus
    centrality, graded antisymmetry, the Jacobi identity in the window, and
    the truncation guard. No rule draws random elements: samples and seed
    are accepted and unused.

    Every rule is evaluated through TauModule on the generator elements
    e_a (in pair(e_a) and e_a*eps), dx_j*c, (dx_i^dx_j)*c and x_k*c, which
    name its counterexamples. The bracket is additive in each argument, and
    the branch of TauModule.bracket that computes a rule turns its defect
    into a Courant defect (check_courant names E3-E6 and M, N):

        rule                   case         defect                 lemma
        rule_c_central         [x, c]       anchor(x)(1) = 0       linear
        rule_one_form_rewrite  alpha*c      c(alpha) - c(alpha)    linear
        rule_interior_action   one-form     E5(u, alpha)           L5
                               two-form     0                      linear
        rule_lie_action        function     0, a derivation in f   linear
                               one-form     E4(u, alpha)           L8
        rule_odd_pairing       (-1,-1)      0                      linear
        rule_mixed_bracket     both orders  0                      linear
        graded_antisymmetry    (0,-1)       E6(u, v), omega drops  L6
                               (-1,-1)      <u, v> - <v, u>        linear
                               (0,-2)       0, a derivation in f   linear
        graded_jacobi          (0,-1,-1)    E3(u, v, w)            L7
                                            + E5(w, i_{anchor v} omega)
                                            + E5(v, i_{anchor w} omega)

    "linear" means function-linear in each element and a derivation in a
    dressed function f, so the generator elements decide the case. L5 and
    L6 are function-linear too. For L7 and L8 the generator cases come
    first; then the probes x_k*e_a decide, and only those whose correction
    can be nonzero are visited: E4(x_k e_a, dx_j) - x_k E4(e_a, dx_j)
    = M[a][j] coanchor[k] - N[j]^k e_a, and E3(x_k e_a, e_b, e_c)
    - x_k E3(e_a, e_b, e_c) = -(g_ab M[c][k] + g_ac M[b][k]). graded_jacobi
    builds [x, e_b*eps] once per degree-0 element x and generator b, so it
    takes r brackets of sections per element, not r^2; its defect is
    symmetric in the two odd elements, as the pairing is, so it visits the
    pairs b <= c only.
    """
    rep = Report()
    tau = transgress(q)
    chart = q.chart
    coords = chart.coords
    r, n = q.rank, chart.dim
    gens = [q.gen(a) for a in range(r)]
    M, N = generator_defects(q)
    one = tau.function_c(Poly.one(chart))
    eps = [tau.section_eps(e) for e in gens]
    dx = [KForm.dx(chart, j) for j in range(n)]
    two_forms = [
        (f"d{coords[i]}^d{coords[j]}", KForm(chart, 2, {(i, j): Poly.one(chart)}))
        for i, j in combinations(range(n), 2)
    ]
    degree_zero = [(f"e{a}", tau.pair(e)) for a, e in enumerate(gens)]
    degree_zero += [(label, tau.two_form_c(omega)) for label, omega in two_forms]

    @cache
    def with_eps(i: int, b: int) -> TauElement:
        """[x, e_b*eps] for the i-th degree-0 element x; pair(e_a) is x_a."""
        return tau.bracket(degree_zero[i][1], eps[b])

    @cache
    def eps_with(b: int, i: int) -> TauElement:
        """[e_b*eps, x] for the i-th degree-0 element x."""
        return tau.bracket(eps[b], degree_zero[i][1])

    def c_central():
        for label, x in degree_zero:
            if not tau.bracket(x, one).is_zero:
                yield f"degree 0 against c: {label}"
        for a in range(r):
            if not tau.bracket(eps[a], one).is_zero:
                yield f"degree -1 against c: e{a}"
        for label, x in degree_zero:
            if not tau.bracket(one, x).is_zero:
                yield f"c against degree 0: {label}"

    def one_form_rewrite():
        for j in range(n):
            if not vec_eq(tau.one_form_c(dx[j]).section, q.coanchor_of(dx[j])):
                yield f"one-form rewrite: d{coords[j]}"

    def interior_action():
        for a, j in product(range(r), range(n)):
            got = tau.bracket(eps[a], tau.one_form_c(dx[j]))
            if got.c_part != dx[j].iota(q.anchor_of(gens[a])).as_poly():
                yield f"against a dressed one-form: e{a}, d{coords[j]}"
        for a, (label, omega) in product(range(r), two_forms):
            got = tau.bracket(eps[a], tau.two_form_c(omega))
            if got != tau.one_form_c(omega.iota(q.anchor_of(gens[a]))):
                yield f"against a dressed two-form: e{a}, {label}"

    def lie_action():
        for a, k in product(range(r), range(n)):
            got = tau.bracket(tau.pair(gens[a]), tau.coordinate_c(k))
            if got.c_part != q.anchor_of(gens[a]).apply(Poly.coord(chart, k)):
                yield f"against a dressed function: e{a}, {coords[k]}"
        cases = [(f"e{a}", gens[a], j) for a, j in product(range(r), range(n))]
        for a, j, k in product(range(r), range(n), range(n)):
            if not (M[a][j].is_zero and N[j].comps[k].is_zero):
                cases.append((*probe(q, a, k), j))
        for label, u, j in cases:
            got = tau.bracket(tau.pair(u), tau.one_form_c(dx[j]))
            if got != tau.one_form_c(dx[j].lie(q.anchor_of(u))):
                yield f"against a dressed one-form: {label}, d{coords[j]}"

    def odd_pairing():
        for a, b in product(range(r), repeat=2):
            if tau.bracket(eps[a], eps[b]).c_part != q.pairing_of(gens[a], gens[b]):
                yield f"e{a}, e{b}"

    def mixed_bracket():
        for a, b in product(range(r), repeat=2):
            expected = q.bracket_gen(a, b)
            if not vec_eq(with_eps(a, b).section, expected):
                yield f"e{a}, e{b}"
            d_pairing = KForm.from_poly(-q.pairing[a][b]).d()
            if eps_with(a, b) != tau.one_form_c(d_pairing) + tau.section_eps(expected):
                yield f"opposite order: e{a}, e{b}"

    def graded_antisymmetry():
        for (i, (label, _)), b in product(enumerate(degree_zero), range(r)):
            if not vec_is_zero(vec_add(with_eps(i, b).section, eps_with(b, i).section)):
                yield f"degrees (0,-1): {label}, e{b}"
        for a, b in product(range(r), repeat=2):
            if tau.bracket(eps[a], eps[b]).c_part != tau.bracket(eps[b], eps[a]).c_part:
                yield f"degrees (-1,-1): e{a}, e{b}"
        for (label, x), k in product(degree_zero, range(n)):
            fc = tau.coordinate_c(k)
            if tau.bracket(x, fc).c_part != -tau.bracket(fc, x).c_part:
                yield f"degrees (0,-2): {label}, {coords[k]}"

    def graded_jacobi():
        paired = {
            (b, c): tau.bracket(eps[b], eps[c])
            for b, c in combinations_with_replacement(range(r), 2)
        }
        cases = [
            (label, x, [with_eps(i, b) for b in range(r)])
            for i, (label, x) in enumerate(degree_zero)
        ]
        for k in range(n):
            if any(not M[b][k].is_zero for b in range(r)):
                for a in range(r):
                    label, u = probe(q, a, k)
                    x = tau.pair(u)
                    cases.append((label, x, [tau.bracket(x, y) for y in eps]))
        for label, x, x_eps in cases:
            for b, c in combinations_with_replacement(range(r), 2):
                lhs = tau.bracket(x, paired[(b, c)]).c_part
                rhs = (
                    tau.bracket(x_eps[b], eps[c]).c_part
                    + tau.bracket(eps[b], x_eps[c]).c_part
                )
                if lhs != rhs:
                    yield f"degrees (0,-1,-1): {label}, e{b}, e{c}"

    def truncation_guard():
        try:
            tau.bracket(tau.pair(q.gen(0)), tau.pair(q.gen(0)))
        except TruncationError:
            return
        yield "degree (0,0) bracket did not raise"

    rep.check("rule_c_central", c_central())
    rep.check("rule_one_form_rewrite", one_form_rewrite())
    rep.check("rule_interior_action", interior_action())
    rep.check("rule_lie_action", lie_action())
    rep.check("rule_odd_pairing", odd_pairing())
    rep.check("rule_mixed_bracket", mixed_bracket())
    rep.check("graded_antisymmetry", graded_antisymmetry())
    rep.check("graded_jacobi", graded_jacobi())
    rep.check("truncation_guard", truncation_guard())
    return rep


def check_transgression_linear(parts, weights, connections) -> Report:
    """Transgressing a weighted combination matches combining the
    transgressions degree-wise, decided on the generators e_x of the
    combined structure C.

    Route one transgresses C; route two evaluates the summand tables on the
    fiber-product representatives expand_i (weight w_i) and reduces: weighted
    c parts for the odd pairing, reduce for the section brackets.
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
    taus = [transgress(qi) for qi in comb.summands]
    chart = result.chart
    n, r = chart.dim, result.rank
    gens = [unit_vec(chart, r, a) for a in range(r)]

    def pairing_combines(u: Vec, v: Vec) -> bool:
        route1 = tau_c.bracket(tau_c.section_eps(u), tau_c.section_eps(v)).c_part
        lifts_u, lifts_v = comb.expand(u), comb.expand(v)
        route2 = Poly.zero(chart)
        for i, ti in enumerate(taus):
            got = ti.bracket(
                ti.section_eps(lifts_u[i]), ti.section_eps(lifts_v[i])
            ).c_part
            route2 = route2 + comb.weights[i] * got
        return route1 == route2

    def bracket_combines(u: Vec, v: Vec) -> bool:
        route1 = tau_c.bracket(tau_c.pair(u), tau_c.section_eps(v)).section
        lifts_u, lifts_v = comb.expand(u), comb.expand(v)
        comps = tuple(
            ti.bracket(ti.pair(lifts_u[i]), ti.section_eps(lifts_v[i])).section
            for i, ti in enumerate(taus)
        )
        return vec_is_zero(vec_sub(route1, comb.reduce(comps)))

    def on_generators(identity):
        for x, y in product(range(r), repeat=2):
            if not identity(gens[x], gens[y]):
                yield f"generators ({x},{y})"

    def function_action_matches():
        for x, j in product(range(r), range(n)):
            route1 = tau_c.bracket(
                tau_c.pair(gens[x]), tau_c.coordinate_c(j)
            ).c_part
            lifts_x = comb.expand(gens[x])
            for i, ti in enumerate(taus):
                got = ti.bracket(ti.pair(lifts_x[i]), ti.coordinate_c(j)).c_part
                if got != route1:
                    yield (
                        f"generator {x}, coordinate {chart.coords[j]}, "
                        f"summand {i}"
                    )

    def coanchor_frames():
        for i, (qi, conn) in enumerate(zip(comb.summands, comb.connections)):
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
