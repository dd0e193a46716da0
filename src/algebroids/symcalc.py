"""Exact symbolic calculus on polynomial coordinate charts.

Everything is computed over the rationals: an integer coefficient is a
Python `int`, and a `fractions.Fraction` appears only where a value is not
an integer. Integer structures thus never pay for Fraction normalisation,
and every identity checked downstream stays exact, never approximate. The
objects are deliberately small and closed:

* `Chart` — a named list of coordinate labels (dimension may be zero).
* `Poly` — polynomial in the chart coordinates, stored as a dict mapping
  exponent tuples to nonzero coefficients.
* `VField` — polynomial vector field, one `Poly` per coordinate.
* `KForm` — polynomial differential k-form, components indexed by strictly
  increasing coordinate index tuples.
* `ChartMap` — polynomial map between charts, with pullback/pushforward
  helpers. A map whose components are source coordinates or zero (an
  inclusion, projection, relabelling or their mixtures; `ChartMap.slots`)
  pulls a polynomial back by moving its exponents (along the identity it
  returns the polynomial itself); any other map substitutes its
  components.

A fixed total-degree cap, `MAX_DEGREE` = 16, aborts runaway products early
with `DegreeOverflowError`.

Expression grammar (used by `parse_expr` and the printers)::

    rational    ::= int | int "/" posint
    monomial    ::= rational ("*" coordfactor)* | coordfactor ("*" coordfactor)*
    coordfactor ::= name ("^" posint)?

Form generators are written ``dx1`` and joined with ``^`` (``dx1^dx2``);
vector field generators are written ``d/dx1``; sums use ``+`` and ``-``;
whitespace is insignificant. Printing is canonical (graded-lexicographic
term order, components in increasing index order), so ``parse ∘ print`` is
the identity and ``print ∘ parse`` canonicalizes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Iterable, Sequence

from algebroids.errors import (
    ChartMismatchError,
    DegreeOverflowError,
    ParseError,
    ValidationError,
)

MAX_DEGREE = 16

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _frac(x) -> int | Fraction:
    """A rational scalar as a coefficient: an int when it is an integer."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise ValidationError(f"expected a rational scalar, got {type(x).__name__}")


@dataclass(frozen=True)
class Chart:
    """A polynomial coordinate chart: a name plus ordered coordinate labels.

    Coordinate labels must be identifiers and must not start with "d" (that
    prefix is reserved for the dx / d-slash-dx generator tokens of the
    expression grammar).
    """

    name: str
    coords: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        seen = set()
        for c in self.coords:
            if not _NAME_RE.match(c):
                raise ValidationError(f"bad coordinate name {c!r}")
            if c.startswith("d"):
                raise ValidationError(
                    f"coordinate name {c!r} may not start with 'd'"
                )
            if c in seen:
                raise ValidationError(f"duplicate coordinate name {c!r}")
            seen.add(c)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, coord: str) -> int:
        try:
            return self.coords.index(coord)
        except ValueError:
            raise ValidationError(
                f"chart {self.name!r} has no coordinate {coord!r}"
            ) from None

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.coords)})"


def coordinate_chart(name: str, n: int, prefix: str = "x") -> Chart:
    """Convenience constructor: chart with coordinates prefix1..prefixn."""
    return Chart(name, tuple(f"{prefix}{i + 1}" for i in range(n)))


def _require_same_chart(a, b) -> None:
    if a.chart is not b.chart and a.chart != b.chart:
        raise ChartMismatchError(
            f"operands live on different charts: {a.chart.name!r} vs {b.chart.name!r}"
        )


_TERMS = dict  # dict[tuple[int, ...], int | Fraction]


# -- term arithmetic ----------------------------------------------------------
# The four operations below act on term dictionaries. Each returns a fresh
# dictionary without zero coefficients and never mutates its arguments. A
# sum or product with a Fraction operand may be an integer stored as a
# Fraction, and all four store such a result as an int. add_terms and
# sub_terms test each sum of two colliding terms once. scale_terms and
# mul_terms look at the products only when an operand holds a Fraction, so a
# product of integer operands costs one type test per operand coefficient,
# not one per product term.


def _has_fraction(a: _TERMS) -> bool:
    for v in a.values():
        if type(v) is Fraction:
            return True
    return False


def _integral_to_int(out: _TERMS) -> None:
    for k, v in out.items():
        if type(v) is Fraction and v.denominator == 1:
            out[k] = v.numerator


def add_terms(a: _TERMS, b: _TERMS) -> _TERMS:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        if s is None:
            out[k] = v
        else:
            s = s + v
            if not s:
                del out[k]
            elif type(s) is Fraction and s.denominator == 1:
                out[k] = s.numerator
            else:
                out[k] = s
    return out


def sub_terms(a: _TERMS, b: _TERMS) -> _TERMS:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        if s is None:
            out[k] = -v
        else:
            s = s - v
            if not s:
                del out[k]
            elif type(s) is Fraction and s.denominator == 1:
                out[k] = s.numerator
            else:
                out[k] = s
    return out


def scale_terms(a: _TERMS, c) -> _TERMS:
    if not c:
        return {}
    out = {k: v * c for k, v in a.items()}
    if type(c) is Fraction or _has_fraction(a):
        _integral_to_int(out)
    return out


def mul_terms(a: _TERMS, b: _TERMS) -> _TERMS:
    if not a or not b:
        return {}
    out: _TERMS = {}
    get = out.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(map(add, ka, kb))
            s = get(k)
            if s is None:
                out[k] = va * vb
            else:
                s = s + va * vb
                if s:
                    out[k] = s
                else:
                    del out[k]
    if _has_fraction(a) or _has_fraction(b):
        _integral_to_int(out)
    return out


class Poly:
    """Exact polynomial over Q in the coordinates of a chart.

    Terms are stored sparsely as exponent-tuple -> coefficient, an int for
    an integer and a Fraction otherwise; zero coefficients are never kept.
    Equality is coefficient-wise; printing uses the graded-lexicographic
    order (highest first). A Poly is never changed after it is built, and
    the code relies on that: its total degree is computed at most once, and
    a sum or difference with a zero side returns the other operand itself,
    so a result may be the very object passed in.
    """

    __slots__ = ("chart", "terms", "_degree")

    def __init__(self, chart: Chart, terms: dict | None = None):
        self.chart = chart
        self._degree = None
        clean: _TERMS = {}
        if terms:
            dim = chart.dim
            for exps, coeff in terms.items():
                c = _frac(coeff)
                if not c:
                    continue
                exps = tuple(exps)
                if len(exps) != dim or any(
                    (not isinstance(e, int)) or e < 0 for e in exps
                ):
                    raise ValidationError(
                        f"bad exponent tuple {exps!r} for chart {chart.name!r}"
                    )
                clean[exps] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "Poly":
        return cls(chart)

    @classmethod
    def const(cls, chart: Chart, value) -> "Poly":
        c = _frac(value)
        p = cls(chart)
        if c:
            p.terms[(0,) * chart.dim] = c
        return p

    @classmethod
    def one(cls, chart: Chart) -> "Poly":
        return cls.const(chart, 1)

    @classmethod
    def coord(cls, chart: Chart, which) -> "Poly":
        i = which if isinstance(which, int) else chart.index(which)
        if not 0 <= i < chart.dim:
            raise ValidationError(f"coordinate index {i} out of range")
        exps = tuple(1 if j == i else 0 for j in range(chart.dim))
        p = cls(chart)
        p.terms[exps] = 1
        return p

    @classmethod
    def _raw(cls, chart: Chart, terms: _TERMS, degree: int | None = None) -> "Poly":
        p = cls.__new__(cls)
        p.chart = chart
        p.terms = terms
        p._degree = degree
        return p

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        d = self._degree
        if d is None:
            d = self._degree = max(map(sum, self.terms), default=-1)
        return d

    def constant_term(self) -> int | Fraction:
        return self.terms.get((0,) * self.chart.dim, 0)

    def as_constant(self) -> int | Fraction | None:
        """The value if this polynomial is constant, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            exps, c = next(iter(self.terms.items()))
            if not any(exps):
                return c
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(self.chart, other)
        _require_same_chart(self, other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return Poly._raw(self.chart, add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(self.chart, other)
        _require_same_chart(self, other)
        if not other.terms:
            return self
        if not self.terms:
            return -other
        return Poly._raw(self.chart, sub_terms(self.terms, other.terms))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        # Negation keeps every coefficient's type, so nothing to normalise.
        return Poly._raw(
            self.chart, {k: -v for k, v in self.terms.items()}, self._degree
        )

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _frac(other)
            return Poly._raw(
                self.chart, scale_terms(self.terms, c), self._degree if c else -1
            )
        _require_same_chart(self, other)
        if not self.terms or not other.terms:
            return Poly._raw(self.chart, {}, -1)
        da, db = self.degree(), other.degree()
        if da + db > MAX_DEGREE:
            raise DegreeOverflowError(
                f"product degree {da + db} exceeds cap {MAX_DEGREE}"
            )
        # Q[x] is a domain: the top homogeneous parts multiply to a nonzero
        # part of degree da + db, so the product's degree is known.
        return Poly._raw(self.chart, mul_terms(self.terms, other.terms), da + db)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValidationError("polynomial powers must be nonnegative integers")
        result = Poly.one(self.chart)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.chart is other.chart or self.chart == other.chart
        ) and self.terms == other.terms

    __hash__ = None  # compared by value, like the dict it wraps; not hashable

    # -- calculus ----------------------------------------------------------

    def diff(self, which) -> "Poly":
        """Partial derivative with respect to a coordinate (index or name)."""
        i = which if isinstance(which, int) else self.chart.index(which)
        # Lowering exponent i is one-to-one on the terms it keeps, and
        # coeff * e is not zero, so the terms neither collide nor cancel.
        out: _TERMS = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e:
                out[exps[:i] + (e - 1,) + exps[i + 1 :]] = coeff * e
        _integral_to_int(out)
        return Poly._raw(self.chart, out)

    def subs(self, values: Sequence["Poly"]) -> "Poly":
        """Substitute values[i] for the i-th coordinate.

        All values must share one chart; the result lives on that chart.
        Useful mainly through ChartMap.pull.
        """
        if len(values) != self.chart.dim:
            raise ValidationError("substitution needs one value per coordinate")
        if self.chart.dim == 0:
            raise ValidationError("cannot substitute into a 0-dimensional chart")
        target = values[0].chart
        for v in values:
            if v.chart != target:
                raise ChartMismatchError("substitution values on mixed charts")
        result = Poly.zero(target)
        for exps, coeff in self.terms.items():
            term = Poly.const(target, coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * values[i] ** e
            result = result + term
        return result

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_str(self)!r} on {self.chart.name})"


def _term_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


def _sorted_terms(terms: _TERMS):
    return sorted(terms.items(), key=lambda kv: _term_key(kv[0]), reverse=True)


def _monomial_body(chart: Chart, exps: tuple[int, ...], mag: int | Fraction) -> str:
    factors = []
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(chart.coords[i])
        elif e > 1:
            factors.append(f"{chart.coords[i]}^{e}")
    if not factors:
        return str(mag)
    if mag == 1:
        return "*".join(factors)
    return "*".join([str(mag)] + factors)


def _join_signed(parts: list[tuple[bool, str]]) -> str:
    if not parts:
        return "0"
    neg, body = parts[0]
    out = ("-" if neg else "") + body
    for neg, body in parts[1:]:
        out += f" {'-' if neg else '+'} {body}"
    return out


def poly_str(p: Poly) -> str:
    parts = [
        (coeff < 0, _monomial_body(p.chart, exps, abs(coeff)))
        for exps, coeff in _sorted_terms(p.terms)
    ]
    return _join_signed(parts)


class VField:
    """Polynomial vector field: one component per chart coordinate."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: Chart, comps: Sequence[Poly]):
        comps = tuple(comps)
        if len(comps) != chart.dim:
            raise ValidationError("vector field needs one component per coordinate")
        for c in comps:
            if c.chart is not chart and c.chart != chart:
                raise ChartMismatchError("vector field component on wrong chart")
        self.chart = chart
        self.comps = comps

    @classmethod
    def zero(cls, chart: Chart) -> "VField":
        return cls(chart, tuple(Poly.zero(chart) for _ in range(chart.dim)))

    @classmethod
    def basis(cls, chart: Chart, which) -> "VField":
        i = which if isinstance(which, int) else chart.index(which)
        return cls(
            chart,
            tuple(
                Poly.one(chart) if j == i else Poly.zero(chart)
                for j in range(chart.dim)
            ),
        )

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.comps)

    def apply(self, f: Poly) -> Poly:
        """Derivation action on a function: sum_i comps[i] * df/dx_i."""
        _require_same_chart(self, f)
        if f.as_constant() is not None:
            return Poly.zero(self.chart)
        out = Poly.zero(self.chart)
        for i, c in enumerate(self.comps):
            if not c.is_zero:
                out = out + c * f.diff(i)
        return out

    def bracket(self, other: "VField") -> "VField":
        """Lie bracket of vector fields, [X, Y] = X(Y_j) - Y(X_j) per slot."""
        _require_same_chart(self, other)
        return VField(
            self.chart,
            tuple(
                self.apply(other.comps[j]) - other.apply(self.comps[j])
                for j in range(self.chart.dim)
            ),
        )

    def scale(self, f) -> "VField":
        if isinstance(f, (int, Fraction)):
            f = Poly.const(self.chart, f)
        _require_same_chart(self, f)
        return VField(self.chart, tuple(f * c for c in self.comps))

    def __add__(self, other):
        if not isinstance(other, VField):
            return NotImplemented
        _require_same_chart(self, other)
        return VField(
            self.chart,
            tuple(a + b for a, b in zip(self.comps, other.comps)),
        )

    def __sub__(self, other):
        if not isinstance(other, VField):
            return NotImplemented
        _require_same_chart(self, other)
        return VField(
            self.chart,
            tuple(a - b for a, b in zip(self.comps, other.comps)),
        )

    def __neg__(self):
        return VField(self.chart, tuple(-c for c in self.comps))

    def __eq__(self, other):
        if not isinstance(other, VField):
            return NotImplemented
        return self.chart == other.chart and self.comps == other.comps

    __hash__ = None

    def __str__(self) -> str:
        return vfield_str(self)

    def __repr__(self) -> str:
        return f"VField({vfield_str(self)!r} on {self.chart.name})"


def _generator_terms_str(chart: Chart, terms: Iterable[tuple[str, Poly]]) -> str:
    """Signed sum of coefficient*generator terms, for each (generator
    label, coefficient) pair in order; a unit constant drops to the label."""
    parts: list[tuple[bool, str]] = []
    for gen, comp in terms:
        for exps, coeff in _sorted_terms(comp.terms):
            mag = abs(coeff)
            if mag == 1 and not any(exps):
                body = gen
            else:
                body = f"{_monomial_body(chart, exps, mag)}*{gen}"
            parts.append((coeff < 0, body))
    return _join_signed(parts)


def vfield_str(v: VField) -> str:
    return _generator_terms_str(
        v.chart, ((f"d/d{x}", comp) for x, comp in zip(v.chart.coords, v.comps))
    )


def _normalize_indices(indices: Sequence[int]) -> tuple[tuple[int, ...] | None, int]:
    """Sort a tuple of coordinate indices, tracking the permutation sign.

    Returns (sorted_tuple, sign); (None, 0) when an index repeats.
    """
    if len(indices) < 2:
        return tuple(indices), 1
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None, 0
    return tuple(idx), sign


def _form_comps(pairs, start: dict | None = None) -> dict[tuple[int, ...], Poly]:
    """Form components from (index tuple, Poly) pairs added to the
    components start: each tuple is sorted with its sign, repeated indices
    and zero polys are skipped, pairs on one sorted tuple add up, and zero
    sums are dropped."""
    acc: dict[tuple[int, ...], Poly] = dict(start or {})
    for idx, p in pairs:
        if p.is_zero:
            continue
        norm, sign = _normalize_indices(idx)
        if norm is None:
            continue
        q = p if sign == 1 else -p
        prev = acc.get(norm)
        q = q if prev is None else prev + q
        if q.is_zero:
            acc.pop(norm, None)
        else:
            acc[norm] = q
    return acc


class KForm:
    """Polynomial differential k-form.

    Components are stored against strictly increasing coordinate index
    tuples; a 0-form has the single key (). Arbitrary index tuples are
    accepted at construction and normalized with the right sign (repeated
    indices contribute nothing).
    """

    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart: Chart, degree: int, comps: dict | None = None):
        if degree < 0:
            raise ValidationError("form degree must be nonnegative")
        self.chart = chart
        self.degree = degree
        pairs = []
        for idx, p in (comps or {}).items():
            if isinstance(p, (int, Fraction)):
                p = Poly.const(chart, p)
            if p.chart is not chart and p.chart != chart:
                raise ChartMismatchError("form component on wrong chart")
            if len(idx) != degree:
                raise ValidationError(
                    f"index tuple {idx!r} has wrong length for a {degree}-form"
                )
            if any((not isinstance(i, int)) or not 0 <= i < chart.dim for i in idx):
                raise ValidationError(f"index tuple {idx!r} out of range")
            pairs.append((idx, p))
        self.comps = _form_comps(pairs)

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "KForm":
        return cls(chart, degree)

    @classmethod
    def from_poly(cls, p: Poly) -> "KForm":
        return cls(p.chart, 0, {(): p})

    @classmethod
    def dx(cls, chart: Chart, which) -> "KForm":
        i = which if isinstance(which, int) else chart.index(which)
        return cls(chart, 1, {(i,): Poly.one(chart)})

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def component(self, idx: Sequence[int]) -> Poly:
        norm, sign = _normalize_indices(idx)
        if norm is None:
            return Poly.zero(self.chart)
        p = self.comps.get(norm)
        if p is None:
            return Poly.zero(self.chart)
        return p if sign == 1 else -p

    def as_poly(self) -> Poly:
        if self.degree != 0:
            raise ValidationError("only a 0-form converts to a polynomial")
        return self.comps.get((), Poly.zero(self.chart))

    def __add__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        _require_same_chart(self, other)
        if self.degree != other.degree:
            raise ValidationError(
                f"cannot add a {self.degree}-form and a {other.degree}-form"
            )
        result = KForm(self.chart, self.degree)
        result.comps = _form_comps(other.comps.items(), self.comps)
        return result

    def __sub__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        result = KForm(self.chart, self.degree)
        result.comps = {idx: -p for idx, p in self.comps.items()}
        return result

    def scale(self, f) -> "KForm":
        if isinstance(f, (int, Fraction)):
            f = Poly.const(self.chart, f)
        _require_same_chart(self, f)
        result = KForm(self.chart, self.degree)
        for idx, p in self.comps.items():
            q = f * p
            if not q.is_zero:
                result.comps[idx] = q
        return result

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def wedge(self, other: "KForm") -> "KForm":
        _require_same_chart(self, other)
        result = KForm(self.chart, self.degree + other.degree)
        # A pair with a shared index is skipped before it multiplies.
        result.comps = _form_comps(
            (ia + ib, pa * pb)
            for ia, pa in self.comps.items()
            for ib, pb in other.comps.items()
            if set(ia).isdisjoint(ib)
        )
        return result

    def d(self) -> "KForm":
        """Exterior derivative."""
        result = KForm(self.chart, self.degree + 1)
        result.comps = _form_comps(
            ((i,) + idx, p.diff(i))
            for idx, p in self.comps.items()
            for i in range(self.chart.dim)
        )
        return result

    def iota(self, v: VField) -> "KForm":
        """Interior product (contraction in the first slot)."""
        _require_same_chart(self, v)
        if self.degree == 0:
            raise ValidationError("cannot contract a 0-form")
        result = KForm(self.chart, self.degree - 1)
        result.comps = _form_comps(
            (idx[:t] + idx[t + 1 :], c * p if t % 2 == 0 else -(c * p))
            for idx, p in self.comps.items()
            for t, i in enumerate(idx)
            if not (c := v.comps[i]).is_zero
        )
        return result

    def lie(self, v: VField) -> "KForm":
        """Lie derivative via the Cartan formula d(iota) + iota(d)."""
        dself = self.d()
        out = dself.iota(v)
        if self.degree > 0:
            out = out + self.iota(v).d()
        return out

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.degree == other.degree
            and self.comps == other.comps
        )

    __hash__ = None

    def __str__(self) -> str:
        return kform_str(self)

    def __repr__(self) -> str:
        return f"KForm({kform_str(self)!r}, degree {self.degree} on {self.chart.name})"


def kform_str(w: KForm) -> str:
    if w.degree == 0:
        return poly_str(w.as_poly())
    return _generator_terms_str(
        w.chart,
        (
            ("^".join(f"d{w.chart.coords[i]}" for i in idx), w.comps[idx])
            for idx in sorted(w.comps)
        ),
    )


def _move_exponents(terms: _TERMS, slots: tuple[int | None, ...], dim: int) -> _TERMS:
    """The terms of a polynomial pulled along a map with these slots: each
    exponent moves to its slot, and a term with a positive exponent on a
    zero slot drops. Only a repeated slot makes two terms collide; those
    are summed, and a sum may be zero or an integer held as a Fraction."""
    out: _TERMS = {}
    collided = False
    for exps, c in terms.items():
        moved = [0] * dim
        for s, e in zip(slots, exps):
            if e:
                if s is None:
                    break
                moved[s] += e
        else:
            key = tuple(moved)
            collided = collided or key in out
            out[key] = out.get(key, 0) + c
    if collided:
        out = {k: v for k, v in out.items() if v}
        _integral_to_int(out)
    return out


@dataclass(frozen=True)
class ChartMap:
    """Polynomial map between charts, given by target components.

    comps[j] is the polynomial (on the source chart) giving the j-th target
    coordinate of the image point.
    """

    source: Chart
    target: Chart
    comps: tuple[Poly, ...]

    def __post_init__(self):
        object.__setattr__(self, "comps", tuple(self.comps))
        if len(self.comps) != self.target.dim:
            raise ValidationError("chart map needs one component per target coordinate")
        for c in self.comps:
            if c.chart != self.source:
                raise ChartMismatchError("chart map component on wrong chart")

    @classmethod
    def identity(cls, chart: Chart) -> "ChartMap":
        return cls(
            chart, chart, tuple(Poly.coord(chart, i) for i in range(chart.dim))
        )

    @cached_property
    def slots(self) -> tuple[int | None, ...] | None:
        """The source coordinate index of each component, None for a zero
        component; None overall when some component is neither a source
        coordinate nor zero."""
        out = []
        for c in self.comps:
            if c.is_zero:
                out.append(None)
                continue
            if len(c.terms) != 1:
                return None
            exps, coeff = next(iter(c.terms.items()))
            if coeff != 1 or sum(exps) != 1:
                return None
            out.append(exps.index(1))
        return tuple(out)

    @cached_property
    def is_identity(self) -> bool:
        return self.source == self.target and self.slots == tuple(range(self.source.dim))

    def compose(self, inner: "ChartMap") -> "ChartMap":
        """self after inner: (self . inner)(z) = self(inner(z))."""
        if inner.target != self.source:
            raise ChartMismatchError("chart maps do not compose")
        return ChartMap(inner.source, self.target, tuple(map(inner.pull, self.comps)))

    def pull(self, f: Poly) -> Poly:
        """Pull a function on the target back to the source; along the
        identity that is f itself."""
        if f.chart != self.target:
            raise ChartMismatchError("pulling a function from the wrong chart")
        if self.is_identity:
            return f
        slots = self.slots
        if slots is not None:
            return Poly._raw(self.source, _move_exponents(f.terms, slots, self.source.dim))
        c = f.as_constant()
        if c is not None:
            return Poly.const(self.source, c)
        return f.subs(list(self.comps))

    def jacobian(self) -> list[list[Poly]]:
        """Matrix J[j][i] = d(comps[j]) / d(source coord i)."""
        return [
            [c.diff(i) for i in range(self.source.dim)] for c in self.comps
        ]

    def dmap(self, v: VField) -> tuple[Poly, ...]:
        """Pushforward along the map: component j is v applied to comps[j].

        The result is a tangent vector along the map — a tuple of source
        polynomials, one per target coordinate.
        """
        if v.chart != self.source:
            raise ChartMismatchError("dmap argument on wrong chart")
        return tuple(v.apply(c) for c in self.comps)

    def dmap_dual(self, coeffs: Sequence[Poly]) -> KForm:
        """Dual of dmap on a fiberwise covector along the map.

        coeffs[j] (a source polynomial) is the coefficient of the j-th target
        coordinate differential; the result is sum_j coeffs[j] * d(comps[j]),
        a 1-form on the source.
        """
        if len(coeffs) != self.target.dim:
            raise ValidationError("dmap_dual needs one coefficient per target coordinate")
        out = KForm.zero(self.source, 1)
        for j, a in enumerate(coeffs):
            if a.chart != self.source:
                raise ChartMismatchError("dmap_dual coefficient on wrong chart")
            if a.is_zero:
                continue
            df = KForm(
                self.source,
                1,
                {
                    (i,): self.comps[j].diff(i)
                    for i in range(self.source.dim)
                },
            )
            out = out + df.scale(a)
        return out

    def pullback_form(self, w: KForm) -> KForm:
        """Pull a differential form on the target back to the source."""
        if w.chart != self.target:
            raise ChartMismatchError("pulling a form from the wrong chart")
        if w.degree == 0:
            return KForm.from_poly(self.pull(w.as_poly()))
        out = KForm.zero(self.source, w.degree)
        if w.degree > self.source.dim:
            return out
        dcomps = [
            KForm(
                self.source,
                1,
                {(i,): c.diff(i) for i in range(self.source.dim)},
            )
            for c in self.comps
        ]
        for idx, p in w.comps.items():
            piece = KForm.from_poly(self.pull(p))
            for j in idx:
                piece = piece.wedge(dcomps[j])
            out = out + piece
        return out

    def __str__(self) -> str:
        body = ", ".join(poly_str(c) for c in self.comps)
        return f"{self.source.name} -> {self.target.name}: ({body})"


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[*^+/-])"
)


@dataclass
class _Token:
    kind: str  # "int" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


@dataclass
class _Term:
    coeff: int | Fraction
    exps: dict  # coord index -> power
    gen: tuple | None  # ("form", [indices]) | ("vec", index)
    pos: int


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect_int(self, what: str) -> int:
        tok = self.advance()
        if tok.kind != "int":
            raise ParseError(f"expected {what}", tok.pos)
        return int(tok.text)

    def parse(self) -> list[_Term]:
        terms = []
        negate = False
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            negate = True
        if self.peek().kind == "end":
            raise ParseError("empty expression", self.peek().pos)
        while True:
            terms.append(self.parse_term(negate))
            tok = self.advance()
            if tok.kind == "end":
                return terms
            if tok.kind == "op" and tok.text in "+-":
                negate = tok.text == "-"
                continue
            raise ParseError(f"expected '+' or '-', got {tok.text!r}", tok.pos)

    def parse_term(self, negate: bool) -> _Term:
        coeff = -1 if negate else 1
        exps: dict = {}
        gen = None
        start = self.peek().pos
        while True:
            tok = self.advance()
            if tok.kind == "int":
                val = int(tok.text)
                nxt = self.peek()
                if nxt.kind == "op" and nxt.text == "/":
                    self.advance()
                    den = self.expect_int("a positive denominator")
                    if den == 0:
                        raise ParseError("zero denominator", nxt.pos)
                    val = Fraction(int(tok.text), den)
                coeff *= val
            elif tok.kind == "name":
                name = tok.text
                nxt = self.peek()
                if name == "d" and nxt.kind == "op" and nxt.text == "/":
                    self.advance()
                    gtok = self.advance()
                    if not (
                        gtok.kind == "name"
                        and gtok.text.startswith("d")
                        and gtok.text[1:] in self.chart.coords
                    ):
                        raise ParseError(
                            "expected a coordinate generator after 'd/'", gtok.pos
                        )
                    if gen is not None:
                        raise ParseError("more than one generator in a term", tok.pos)
                    gen = ("vec", self.chart.index(gtok.text[1:]))
                elif name in self.chart.coords:
                    idx = self.chart.index(name)
                    power = 1
                    if nxt.kind == "op" and nxt.text == "^":
                        self.advance()
                        power = self.expect_int("a positive integer exponent")
                        if power == 0:
                            raise ParseError("exponent must be positive", nxt.pos)
                    exps[idx] = exps.get(idx, 0) + power
                elif name.startswith("d") and name[1:] in self.chart.coords:
                    if gen is not None:
                        raise ParseError("more than one generator in a term", tok.pos)
                    indices = [self.chart.index(name[1:])]
                    while True:
                        nxt = self.peek()
                        after = self.tokens[self.i + 1] if nxt.kind == "op" else None
                        if (
                            nxt.kind == "op"
                            and nxt.text == "^"
                            and after is not None
                            and after.kind == "name"
                            and after.text.startswith("d")
                            and after.text[1:] in self.chart.coords
                        ):
                            self.advance()
                            gtok = self.advance()
                            indices.append(self.chart.index(gtok.text[1:]))
                        else:
                            break
                    gen = ("form", indices)
                else:
                    raise ParseError(f"unknown name {name!r}", tok.pos)
            else:
                raise ParseError(
                    f"expected a factor, got {tok.text!r}" if tok.text else "unexpected end of input",
                    tok.pos,
                )
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "*":
                self.advance()
                continue
            return _Term(coeff, exps, gen, start)


def _term_monomial(chart: Chart, term: _Term) -> Poly:
    exps = tuple(term.exps.get(i, 0) for i in range(chart.dim))
    return Poly(chart, {exps: term.coeff})


def parse_expr(text: str, chart: Chart):
    """Parse an expression into a Poly, VField, or KForm on the chart.

    The result type is inferred from the generators present: d/dx-terms give
    a vector field, dx-terms a form (all terms must agree in degree), and
    plain terms a polynomial. Raises ParseError with a position on bad input.
    """
    terms = _Parser(text, chart).parse()
    kinds = {t.gen[0] for t in terms if t.gen is not None}
    if not kinds:
        out = Poly.zero(chart)
        for t in terms:
            out = out + _term_monomial(chart, t)
        return out
    if len(kinds) > 1:
        raise ParseError("cannot mix vector and form generators", terms[0].pos)
    if "vec" in kinds:
        comps = [Poly.zero(chart) for _ in range(chart.dim)]
        for t in terms:
            if t.gen is None:
                raise ParseError("scalar term in a vector field expression", t.pos)
            comps[t.gen[1]] = comps[t.gen[1]] + _term_monomial(chart, t)
        return VField(chart, comps)
    degrees = set()
    for t in terms:
        if t.gen is None:
            raise ParseError("scalar term in a form expression", t.pos)
        degrees.add(len(t.gen[1]))
    if len(degrees) > 1:
        raise ParseError("mixed form degrees in one expression", terms[0].pos)
    out = KForm(chart, degrees.pop())
    out.comps = _form_comps((tuple(t.gen[1]), _term_monomial(chart, t)) for t in terms)
    return out


def parse_poly(text: str, chart: Chart) -> Poly:
    out = parse_expr(text, chart)
    if isinstance(out, Poly):
        return out
    raise ParseError("expected a polynomial expression", 0)


def parse_vfield(text: str, chart: Chart) -> VField:
    out = parse_expr(text, chart)
    if isinstance(out, VField):
        return out
    if isinstance(out, Poly) and out.is_zero:
        return VField.zero(chart)
    raise ParseError("expected a vector field expression", 0)


def parse_kform(text: str, chart: Chart, degree: int | None = None) -> KForm:
    out = parse_expr(text, chart)
    if isinstance(out, Poly):
        if degree is None or degree == 0:
            return KForm.from_poly(out)
        if out.is_zero:
            return KForm.zero(chart, degree)
        raise ParseError(f"expected a {degree}-form", 0)
    if isinstance(out, KForm):
        if degree is not None and out.degree != degree:
            raise ParseError(
                f"expected a {degree}-form, got a {out.degree}-form", 0
            )
        return out
    raise ParseError("expected a form expression", 0)
