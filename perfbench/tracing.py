"""In-memory tracing of the algebroids package for the per-layer metrics.

``Tracer.install`` wraps public names of the package where they are looked
up: class attributes of ``Poly``, ``VField``, ``KForm``, ``ChartMap`` and
``CourantData``, module functions together with every ``from``-import of
them inside ``algebroids.*`` (so ``cli.check_courant`` is wrapped as well as
``courant.check_courant``), and ``sampling.sample_poly`` itself, which
``sample_section`` looks up in its own module. ``uninstall`` puts every
original back. Nothing on disk changes.

Each layer is a span name. A span's self time is its duration minus the
durations of the wrapped calls it made. Calls are aggregated into counters
keyed by (enclosing checker span, layer), so the ~7e4 multiplies of one
``check_courant`` cost two dict updates each and no span object.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction
from types import FunctionType

_METHOD, _FUNC = "method", "func"

# (layer, hot, home workload, targets). A hot layer reports .calls and
# .self_s and leaves the enclosing checker span alone; every other layer is
# a checker span: it reports .self_s and becomes the scope of the hot
# counters below it. The home workload is the one whose wall_s the layer's
# metrics should move; there they must not read zero.
_POLY_ADDSUB = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")
_PULLBACK_CHECKS = ("check_relation_absorption", "check_twist_commute", "check_curvature_pullback")
LAYERS = (
    ("symcalc.poly_mul", True, "axioms",
     [(_METHOD, "symcalc", "Poly", a) for a in ("__mul__", "__rmul__")]),
    ("symcalc.poly_addsub", True, "axioms",
     [(_METHOD, "symcalc", "Poly", a) for a in _POLY_ADDSUB]),
    ("symcalc.vfield_apply", True, "axioms", [(_METHOD, "symcalc", "VField", "apply")]),
    ("symcalc.diff", True, "axioms", [(_METHOD, "symcalc", "Poly", "diff")]),
    ("symcalc.kform", True, "axioms",
     [(_METHOD, "symcalc", "KForm", a) for a in ("d", "iota", "lie", "wedge")]),
    ("symcalc.chartmap", True, "constructions",
     [(_METHOD, "symcalc", "ChartMap", a) for a in ("pull", "pullback_form", "jacobian", "compose")]),
    ("symcalc.parse", True, "battery", [(_FUNC, "symcalc", "parse_expr")]),
    ("sampling.sample_poly", True, "axioms", [(_FUNC, "sampling", "sample_poly")]),
    ("linalg", True, "constructions", [(_FUNC, "linalg", "*")]),
    ("courant.bracket", True, "axioms", [(_METHOD, "courant", "CourantData", "bracket")]),
    ("courant.check_courant", False, "axioms", [(_FUNC, "courant", "check_courant")]),
    ("courant.baer_combination", False, "constructions",
     [(_FUNC, "courant", "baer_combination")]),
    ("transgression.check_tau_rules", False, "axioms",
     [(_FUNC, "transgression", "check_tau_rules")]),
    ("lie_algebroid.check_lie_algebroid", False, "axioms",
     [(_FUNC, "lie_algebroid", "check_lie_algebroid")]),
    ("lie_algebroid.check_compose_associative", False, "battery",
     [(_FUNC, "lie_algebroid", "check_compose_associative")]),
    ("pullback.pullback_courant", False, "constructions",
     [(_FUNC, "pullback", "pullback_courant")]),
    ("pullback.checks", False, "constructions", [(_FUNC, "pullback", n) for n in _PULLBACK_CHECKS]),
    ("pullback.morphism_graph", False, "constructions", [(_FUNC, "pullback", "morphism_graph")]),
    ("pullback.dirac_pushdown", False, "battery", [(_FUNC, "pullback", "dirac_pushdown")]),
    ("dirac.check_dirac", False, "constructions", [(_FUNC, "dirac", "check_dirac")]),
    ("descent.check_cocycle", False, "constructions", [(_FUNC, "descent", "check_cocycle")]),
    ("jsonio.load", False, "battery", [(_FUNC, "jsonio", "load_json")]),
    ("jsonio.dump", False, "battery", [(_FUNC, "jsonio", "dump_json")]),
)

MUL_COUNTERS = ("term_products", "terms_out", "max_degree", "fraction_coeff_share")


def layer_metrics_by_home() -> dict[str, str]:
    """Every per-layer metric the tracer reports -> its home workload."""
    out = {}
    for layer, hot, home, _ in LAYERS:
        if hot:
            out[f"{layer}.calls"] = home
        out[f"{layer}.self_s"] = home
        if layer == "symcalc.poly_mul":
            out.update((f"{layer}.{c}", home) for c in MUL_COUNTERS)
    return out


def _package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "algebroids" or name.startswith("algebroids."))
    ]


class Tracer:
    """Wraps the package in memory; counters live on this object."""

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}
        # per scope: [term products, terms out, max degree, Fraction coeffs, coeffs]
        self.mul: dict[str, list] = {}
        self.scope = "job"
        self.missing: list[str] = []
        self._children = [0.0]
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, hot: bool, fn):
        children = self._children
        stats = self.stats
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            outer = self.scope
            if not hot:
                self.scope = layer
            children.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self.scope = outer
                st = stats.get((outer, layer))
                if st is None:
                    st = stats[(outer, layer)] = [0, 0.0]
                st[0] += 1
                st[1] += dt - children.pop()
                children[-1] += dt

        return functools.wraps(fn)(wrapper)

    def _wrap_mul(self, fn):
        inner = self._wrap("symcalc.poly_mul", True, fn)
        children = self._children
        perf = time.perf_counter

        def wrapper(a, b):
            out = inner(a, b)
            if out is NotImplemented:
                return out
            t0 = perf()
            terms = out.terms
            m = self.mul.get(self.scope)
            if m is None:
                m = self.mul[self.scope] = [0, 0, -1, 0, 0]
            m[0] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
            m[1] += len(terms)
            deg = out.degree()
            if deg > m[2]:
                m[2] = deg
            m[3] += sum(1 for c in terms.values() if isinstance(c, Fraction))
            m[4] += len(terms)
            # bookkeeping is tracer overhead, not the caller's self time
            children[-1] += perf() - t0
            return out

        return functools.wraps(fn)(wrapper)

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr, value):
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        by_name = {m.__name__: m for m in modules}
        for layer, hot, _, targets in LAYERS:
            for kind, mod_name, *rest in targets:
                module = by_name.get(f"algebroids.{mod_name}")
                if module is None:
                    self.missing.append(f"{mod_name}")
                    continue
                if kind == _METHOD:
                    cls_name, attr = rest
                    cls = getattr(module, cls_name, None)
                    fn = getattr(cls, attr, None) if cls is not None else None
                    if not isinstance(fn, FunctionType):
                        self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                        continue
                    if layer == "symcalc.poly_mul":
                        self._set(cls, attr, self._wrap_mul(fn))
                    else:
                        self._set(cls, attr, self._wrap(layer, hot, fn))
                    continue
                (name,) = rest
                if name == "*":
                    names = [
                        n for n, v in vars(module).items()
                        if not n.startswith("_") and isinstance(v, FunctionType)
                        and v.__module__ == module.__name__
                    ]
                else:
                    names = [name]
                for n in names:
                    fn = vars(module).get(n)
                    if not isinstance(fn, FunctionType):
                        self.missing.append(f"{mod_name}.{n}")
                        continue
                    wrapper = self._wrap(layer, hot, fn)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                self._set(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (_, layer), (n, t) in self.stats.items():
            calls[layer] = calls.get(layer, 0) + n
            self_s[layer] = self_s.get(layer, 0.0) + t
        out = {}
        for layer, hot, _, _ in LAYERS:
            if hot:
                out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        products = sum(m[0] for m in self.mul.values())
        terms_out = sum(m[1] for m in self.mul.values())
        coeffs = sum(m[4] for m in self.mul.values())
        out["symcalc.poly_mul.term_products"] = products
        out["symcalc.poly_mul.terms_out"] = terms_out
        out["symcalc.poly_mul.max_degree"] = max((m[2] for m in self.mul.values()), default=-1)
        out["symcalc.poly_mul.fraction_coeff_share"] = (
            sum(m[3] for m in self.mul.values()) / coeffs if coeffs else 0.0
        )
        return out

    def by_scope(self) -> list[tuple[str, str, int, float]]:
        """(checker span, layer, calls, self_s), largest self time first."""
        rows = [(scope, layer, n, t) for (scope, layer), (n, t) in self.stats.items()]
        return sorted(rows, key=lambda r: -r[3])
