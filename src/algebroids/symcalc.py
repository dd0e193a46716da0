"""Exact symbolic calculus on polynomial coordinate charts.

Everything is computed over the rationals: an integer coefficient is a
Python `int`, and a `fractions.Fraction` appears only where a value is not
an integer. Integer structures thus never pay for Fraction normalisation,
and every identity checked downstream stays exact, never approximate. The
objects are deliberately small and closed:

* `Chart` — a named list of coordinate labels (dimension may be zero),
  holding one zero and one unit polynomial and the exponent tuple of its
  constant term (`origin`).
* `Poly` — polynomial in the chart coordinates, stored as a dict mapping
  exponent tuples to nonzero coefficients, with an `is_zero` flag bound
  with it. No Poly is changed after it is built, so every zero on a chart
  is the chart's one zero and every unit constant its one unit, and a
  product with that unit is the other side itself.
* `VField` — polynomial vector field, one `Poly` per coordinate.
* `KForm` — polynomial differential k-form, components indexed by strictly
  increasing coordinate index tuples.
* `ChartMap` — polynomial map between charts, with pullbacks and a
  Jacobian. A map whose components are source coordinates or zero (an
  inclusion, projection, relabelling or their mixtures; `ChartMap.slots`)
  pulls a polynomial back by moving its exponents (along the identity it
  returns the polynomial itself); any other map substitutes its
  components. `ChartMap.pull_vec` pulls a whole vector: it checks every
  entry's chart, and pulls only the nonzero entries of a vector off the
  identity, so a vector of zeros costs no pull.

A fixed total-degree cap, `MAX_DEGREE` = 16, aborts runaway products early
with `DegreeOverflowError`.

Polynomial grammar (read by `parse_expr`, written by `poly_str`)::

    polynomial  ::= "-"? monomial (("+" | "-") monomial)*
    monomial    ::= factor ("*" factor)*
    factor      ::= int ("/" posint)? | name ("^" posint)?

A name is a chart coordinate; whitespace is insignificant. Printing is
canonical (graded-lexicographic term order), so ``parse ∘ print`` is the
identity on polynomials and ``print ∘ parse`` canonicalizes. Vector fields
and forms are only printed, never parsed: a field as a sum of
``coefficient*d/dx1`` terms, a form as one of ``coefficient*dx1^dx2``
terms, components in increasing index order.
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

    Coordinate labels must be identifiers and must not start with "d", so
    that a printed field (``d/dx1``) or form (``dx1^dx2``) never reads as
    a coordinate.

    Each chart also holds its dimension ``dim``, the exponent tuple
    ``origin`` = (0,) * dim of a constant term, its one zero polynomial
    ``zero`` and its one unit polynomial ``one``, built with the chart.
    They are not dataclass fields, so equality, hashing and the printed
    form read the name and coordinates only.
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
        dim = len(self.coords)
        origin = (0,) * dim
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "origin", origin)
        zero, one = Poly(self), Poly(self, {origin: 1})
        zero._degree, one._degree = -1, 0
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "one", one)

    def __reduce__(self):
        """Copy and pickle through the constructor, so a copy holds
        constants of its own."""
        return Chart, (self.name, self.coords)

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
# not one per product term. Poly.__mul__ returns the other side itself when
# one side is the chart's unit (after the degree cap), scales by another
# constant side with scale_terms (no exponent tuple is built), and so
# mul_terms multiplies only two non-constant operands.


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
    is_zero is a slot, not a property: Poly.__init__ and Poly._raw, the
    only code that binds the terms (const and coord go through _raw), set
    it with them, so reading it costs no call. Equality is coefficient-wise;
    printing uses the graded-lexicographic order (highest first). No Poly
    is changed after it is built, and the code relies on that: its total
    degree is computed at most once; a sum or difference with a zero side,
    or a product with the chart's unit or the scalar 1, returns the other
    operand itself, and ChartMap.pull returns a constant along an
    endomorphism as it is, so a result may be the very object passed in;
    and a chart holds one zero and one unit, which every zero or unit
    constant on it is (`zero`, `one`, `const` of 0 or 1, and each operation
    whose result has no terms), so one write to them would change every
    zero on the chart. The arithmetic tests `other.chart is self.chart`
    before anything else, and compares charts by value only when that
    fails.
    """

    __slots__ = ("chart", "terms", "is_zero", "_degree")

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
        self.is_zero = not clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "Poly":
        return chart.zero

    @classmethod
    def const(cls, chart: Chart, value) -> "Poly":
        c = _frac(value)
        if not c:
            return chart.zero
        if c == 1:
            return chart.one
        return cls._raw(chart, {chart.origin: c}, 0)

    @classmethod
    def one(cls, chart: Chart) -> "Poly":
        return chart.one

    @classmethod
    def coord(cls, chart: Chart, which) -> "Poly":
        i = which if isinstance(which, int) else chart.index(which)
        if not 0 <= i < chart.dim:
            raise ValidationError(f"coordinate index {i} out of range")
        exps = tuple(1 if j == i else 0 for j in range(chart.dim))
        return cls._raw(chart, {exps: 1}, 1)

    @classmethod
    def _raw(cls, chart: Chart, terms: _TERMS, degree: int | None = None) -> "Poly":
        """A Poly on clean terms, unchecked; the chart's zero for none."""
        if not terms:
            return chart.zero
        p = cls.__new__(cls)
        p.chart = chart
        p.terms = terms
        p.is_zero = False
        p._degree = degree
        return p

    # -- queries ---------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        d = self._degree
        if d is None:
            d = self._degree = max(map(sum, self.terms), default=-1)
        return d

    def constant_term(self) -> int | Fraction:
        return self.terms.get(self.chart.origin, 0)

    def as_constant(self) -> int | Fraction | None:
        """The value if this polynomial is constant, else None: 0 for the
        zero polynomial, and for one term the coefficient stored at the
        chart's origin, which is None when that term is not constant."""
        terms = self.terms
        if len(terms) == 1:
            return terms.get(self.chart.origin)
        return None if terms else 0

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(self.chart, other)
        if other.chart is not self.chart:
            _require_same_chart(self, other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return Poly._raw(self.chart, add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(self.chart, other)
        if other.chart is not self.chart:
            _require_same_chart(self, other)
        if other.is_zero:
            return self
        if self.is_zero:
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
            return self._scaled(c) if c else self.chart.zero
        if other.chart is not self.chart:
            _require_same_chart(self, other)
        if self.is_zero or other.is_zero:
            return self.chart.zero
        da, db = self._degree, other._degree
        if da is None:
            da = self.degree()
        if db is None:
            db = other.degree()
        if da + db > MAX_DEGREE:
            raise DegreeOverflowError(
                f"product degree {da + db} exceeds cap {MAX_DEGREE}"
            )
        # A side that is the chart's unit leaves the other side itself.
        one = self.chart.one
        if other is one:
            return self
        if self is one:
            return other
        # A side of degree 0 is a nonzero constant, its one term the
        # coefficient: the product only scales the other side's terms.
        if not db:
            return self._scaled(next(iter(other.terms.values())))
        if not da:
            return other._scaled(next(iter(self.terms.values())))
        # Q[x] is a domain: the top homogeneous parts multiply to a nonzero
        # part of degree da + db, so the product's degree is known.
        return Poly._raw(self.chart, mul_terms(self.terms, other.terms), da + db)

    __rmul__ = __mul__

    def _scaled(self, c) -> "Poly":
        """self * c for a nonzero int or Fraction c: self itself when c is
        1, else its terms scaled, of the same degree."""
        if c == 1:
            return self
        return Poly._raw(self.chart, scale_terms(self.terms, c), self._degree)

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
        Each power values[i] ** e is computed once per call, however many
        terms read it. Useful mainly through ChartMap.pull.
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
        powers: dict[tuple[int, int], Poly] = {}
        for exps, coeff in self.terms.items():
            term = Poly.const(target, coeff)
            for i, e in enumerate(exps):
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[i, e] = values[i] ** e
                    term = term * power
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
        """Derivation action on a function: sum_i comps[i] * df/dx_i, a
        term made only when comps[i] and df/dx_i are both nonzero, and the
        first term taken as it is."""
        _require_same_chart(self, f)
        if f.as_constant() is not None:
            return Poly.zero(self.chart)
        out = Poly.zero(self.chart)
        for i, c in enumerate(self.comps):
            if not c.is_zero:
                df = f.diff(i)
                if not df.is_zero:
                    term = c * df
                    out = term if out.is_zero else out + term
        return out

    def bracket(self, other: "VField") -> "VField":
        """Lie bracket of vector fields, [X, Y] = X(Y_j) - Y(X_j) per slot.
        A field kills a constant, so each field is applied only to the
        other's non-constant components, and a zero side of a slot is
        answered without a subtraction."""
        _require_same_chart(self, other)
        zero = self.chart.zero
        comps = []
        for x, y in zip(self.comps, other.comps):
            xy = zero if y.as_constant() is not None else self.apply(y)
            yx = zero if x.as_constant() is not None else other.apply(x)
            comps.append(xy if yx.is_zero else -yx if xy.is_zero else xy - yx)
        return VField(self.chart, comps)

    def __sub__(self, other):
        if not isinstance(other, VField):
            return NotImplemented
        _require_same_chart(self, other)
        return VField(
            self.chart,
            tuple(a - b for a, b in zip(self.comps, other.comps)),
        )

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
        return ChartMap(inner.source, self.target, inner.pull_vec(self.comps))

    def pull(self, f: Poly) -> Poly:
        """Pull a function on the target back to the source. Along the
        identity that is f itself, and so is a constant (zero included)
        along any endomorphism; a zero along another map is the source
        chart's zero. A zero is answered before the constant test."""
        if f.chart is not self.target and f.chart != self.target:
            raise ChartMismatchError("pulling a function from the wrong chart")
        if self.is_identity:
            return f
        if f.is_zero:
            return f if self.source is self.target else self.source.zero
        c = f.as_constant()
        if c is not None and self.source is self.target:
            return f
        slots = self.slots
        if slots is not None:
            return Poly._raw(self.source, _move_exponents(f.terms, slots, self.source.dim))
        if c is not None:
            return Poly.const(self.source, c)
        return f.subs(list(self.comps))

    def pull_vec(self, vec: Sequence[Poly]) -> tuple[Poly, ...]:
        """The entries of vec pulled back to the source, as a tuple: each
        is what pull returns for it. Every entry's chart is checked, zeros
        included, as pull checks it. Along the identity that is vec itself
        as a tuple, and off it only the nonzero entries go through pull: a
        zero entry is itself along an endomorphism and the source chart's
        zero otherwise."""
        target = self.target
        for f in vec:
            if f.chart is not target and f.chart != target:
                raise ChartMismatchError("pulling a function from the wrong chart")
        if self.is_identity:
            return tuple(vec)
        pull = self.pull
        if self.source is target:
            return tuple(f if f.is_zero else pull(f) for f in vec)
        zero = self.source.zero
        return tuple(zero if f.is_zero else pull(f) for f in vec)

    @cached_property
    def _jacobian(self) -> tuple[tuple[Poly, ...], ...]:
        return tuple(
            tuple(c.diff(i) for i in range(self.source.dim)) for c in self.comps
        )

    def jacobian(self) -> tuple[tuple[Poly, ...], ...]:
        """Matrix J[j][i] = d(comps[j]) / d(source coord i), built on first
        use and kept, as immutable tuples, for the life of the map."""
        return self._jacobian

    def pullback_form(self, w: KForm) -> KForm:
        """Pull a differential form on the target back to the source."""
        if w.chart != self.target:
            raise ChartMismatchError("pulling a form from the wrong chart")
        if w.degree == 0:
            return KForm.from_poly(self.pull(w.as_poly()))
        out = KForm.zero(self.source, w.degree)
        if w.degree > self.source.dim:
            return out
        dcomps = [KForm.from_poly(c).d() for c in self.comps]
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


def _int_literal(digits: str, pos: int) -> int:
    """The value of the decimal literal at pos; one too long for int() to
    convert is a ParseError there, as any other malformed input."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too long", pos) from None


class _Parser:
    def __init__(self, text: str, chart: Chart):
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
        return _int_literal(tok.text, tok.pos)

    def parse(self) -> Poly:
        out = Poly.zero(self.chart)
        negate = False
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            negate = True
        if self.peek().kind == "end":
            raise ParseError("empty expression", self.peek().pos)
        while True:
            out = out + self.parse_term(negate)
            tok = self.advance()
            if tok.kind == "end":
                return out
            if tok.kind == "op" and tok.text in "+-":
                negate = tok.text == "-"
                continue
            raise ParseError(f"expected '+' or '-', got {tok.text!r}", tok.pos)

    def parse_term(self, negate: bool) -> Poly:
        coeff = -1 if negate else 1
        exps = [0] * self.chart.dim
        while True:
            tok = self.advance()
            if tok.kind == "int":
                val = _int_literal(tok.text, tok.pos)
                nxt = self.peek()
                if nxt.kind == "op" and nxt.text == "/":
                    self.advance()
                    den = self.expect_int("a positive denominator")
                    if den == 0:
                        raise ParseError("zero denominator", nxt.pos)
                    val = Fraction(val, den)
                coeff *= val
            elif tok.kind == "name":
                if tok.text not in self.chart.coords:
                    raise ParseError(f"unknown name {tok.text!r}", tok.pos)
                power = 1
                nxt = self.peek()
                if nxt.kind == "op" and nxt.text == "^":
                    self.advance()
                    power = self.expect_int("a positive integer exponent")
                    if power == 0:
                        raise ParseError("exponent must be positive", nxt.pos)
                exps[self.chart.index(tok.text)] += power
            else:
                raise ParseError(
                    f"expected a factor, got {tok.text!r}" if tok.text else "unexpected end of input",
                    tok.pos,
                )
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "*":
                self.advance()
                continue
            return Poly(self.chart, {tuple(exps): coeff})


def parse_expr(text: str, chart: Chart) -> Poly:
    """Parse a polynomial on the chart.

    A bare integer literal (an optional "-", then decimal digits, the
    characters the tokenizer reads as ``int``) is the constant it names,
    read without the tokenizer; most spec entries are "0" or "1". Every
    other text goes through the parser. Raises ParseError with a position
    on bad input; a field or form generator such as ``dx1`` or ``d/dx1`` is
    an unknown name.
    """
    digits = text.removeprefix("-")
    if digits.isdecimal():
        pos = len(text) - len(digits)
        value = _int_literal(digits, pos)
        return Poly.const(chart, -value if pos else value)
    return _Parser(text, chart).parse()


def parse_poly(text: str, chart: Chart) -> Poly:
    """The polynomial a spec writes as text (see parse_expr)."""
    return parse_expr(text, chart)
