"""JSON encoding of charts, maps, structures, and check reports.

Polynomials travel as text in the same syntax parse_poly accepts, so specs
are hand-writable and reports round-trip exactly. Most entries of a spec
are bare integers ("0", "1", "-1"), which parse_poly reads as constants
without running the tokenizer. Pair-indexed tables
(structure functions, form components) use comma-joined index keys.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from algebroids import __version__
from algebroids.anchored import AnchoredModule
from algebroids.courant import Connection, CourantData
from algebroids.descent import CoverData, DescentDatum, tautological_datum
from algebroids.dirac import DiracData, support_inclusion
from algebroids.errors import ValidationError
from algebroids.lie_algebroid import LieData
from algebroids.report import Report
from algebroids.symcalc import Chart, ChartMap, KForm, Poly, parse_poly


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"{where} needs a {key!r} field")
    return obj[key]


def _require_int(obj: dict, key: str, where: str) -> int:
    """A field that must be a JSON integer: no float, string or boolean."""
    value = _require(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"{where} field {key!r} must be an integer, got {value!r}"
        )
    return value


def _require_list(obj: dict, key: str, where: str) -> list:
    """A field that must be a JSON list: a string or an object is not
    iterated in its place."""
    value = _require(obj, key, where)
    if not isinstance(value, list):
        raise ValidationError(
            f"{where} field {key!r} must be a list, got {type(value).__name__}"
        )
    return value


def _require_object(obj: dict, key: str, where: str, optional: bool = False) -> dict:
    """A field that must be a JSON object: a list or a string is not read
    with .items() in its place. An optional field may be absent ({})."""
    if optional and isinstance(obj, dict) and key not in obj:
        return {}
    value = _require(obj, key, where)
    if not isinstance(value, dict):
        raise ValidationError(
            f"{where} field {key!r} must be an object, got {type(value).__name__}"
        )
    return value


def rational_from_json(value: Any, where: str) -> Fraction:
    """A JSON integer, or a string holding a rational such as "-2" or "1/3"."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(
        f"{where} must be an integer or a rational string such as \"1/2\", "
        f"got {value!r}"
    )


# -- charts and maps --------------------------------------------------------


def chart_to_json(chart: Chart) -> dict:
    return {"name": chart.name, "coords": list(chart.coords)}


def chart_from_json(obj: Any) -> Chart:
    name = _require(obj, "name", "chart")
    coords = _require_list(obj, "coords", "chart")
    return Chart(str(name), tuple(str(c) for c in coords))


def vec_to_json(v) -> list[str]:
    return [str(p) for p in v]


def vec_from_json(items: Any, chart: Chart) -> tuple[Poly, ...]:
    if not isinstance(items, list):
        raise ValidationError("expected a list of polynomial strings")
    return tuple(parse_poly(str(s), chart) for s in items)


def matrix_from_json(rows: Any, chart: Chart) -> tuple[tuple[Poly, ...], ...]:
    if not isinstance(rows, list):
        raise ValidationError("expected a list of rows")
    return tuple(vec_from_json(row, chart) for row in rows)


def matrix_to_json(rows) -> list[list[str]]:
    return [vec_to_json(row) for row in rows]


def map_to_json(f: ChartMap) -> dict:
    return {
        "source": chart_to_json(f.source),
        "target": chart_to_json(f.target),
        "comps": vec_to_json(f.comps),
    }


def map_from_json(obj: Any) -> ChartMap:
    source = chart_from_json(_require(obj, "source", "map"))
    target = chart_from_json(_require(obj, "target", "map"))
    comps = vec_from_json(_require(obj, "comps", "map"), source)
    return ChartMap(source, target, comps)


# -- pair-keyed tables ------------------------------------------------------


def _pair_key(key: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in key)


def _pair_from_key(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad index key {text!r}") from exc


def kform_to_json(w: KForm) -> dict:
    comps = {
        _pair_key(idx): str(p) for idx, p in sorted(w.comps.items())
    }
    return {"degree": w.degree, "comps": comps}


def kform_from_json(obj: Any, chart: Chart) -> KForm:
    degree = _require_int(obj, "degree", "form")
    comps = {
        _pair_from_key(key): parse_poly(str(text), chart)
        for key, text in _require_object(obj, "comps", "form").items()
    }
    return KForm(chart, degree, comps)


def _structure_to_json(structure: dict) -> dict:
    out = {}
    for (a, b), vec in sorted(structure.items()):
        out[_pair_key((a, b))] = vec_to_json(vec)
    return out


def _structure_from_json(obj: Any, chart: Chart, where: str) -> dict:
    """The optional pair-keyed `bracket` table of a structure object."""
    out = {}
    for key, vec in _require_object(obj, "bracket", where, optional=True).items():
        pair = _pair_from_key(key)
        if len(pair) != 2:
            raise ValidationError(f"bracket key {key!r} is not a pair")
        out[pair] = vec_from_json(vec, chart)
    return out


# -- structures -------------------------------------------------------------


def lie_to_json(a: AnchoredModule) -> dict:
    """Chart, rank, anchor and bracket table: all of a Lie algebroid, and
    what a Courant structure shares with one."""
    return {
        "chart": chart_to_json(a.chart),
        "rank": a.rank,
        "anchor": matrix_to_json(a.anchor),
        "bracket": _structure_to_json(a.structure),
    }


def lie_from_json(obj: Any) -> LieData:
    chart = chart_from_json(_require(obj, "chart", "algebroid"))
    rank = _require_int(obj, "rank", "algebroid")
    anchor = matrix_from_json(_require(obj, "anchor", "algebroid"), chart)
    bracket = _structure_from_json(obj, chart, "algebroid")
    return LieData(chart, rank, anchor, bracket)


def courant_to_json(q: CourantData) -> dict:
    return {
        **lie_to_json(q),
        "coanchor": matrix_to_json(q.coanchor),
        "pairing": matrix_to_json(q.pairing),
    }


def courant_from_json(obj: Any) -> CourantData:
    chart = chart_from_json(_require(obj, "chart", "structure"))
    rank = _require_int(obj, "rank", "structure")
    anchor = matrix_from_json(_require(obj, "anchor", "structure"), chart)
    coanchor = matrix_from_json(_require(obj, "coanchor", "structure"), chart)
    pairing = matrix_from_json(_require(obj, "pairing", "structure"), chart)
    bracket = _structure_from_json(obj, chart, "structure")
    return CourantData(chart, rank, anchor, coanchor, pairing, bracket)


def connection_from_json(obj: Any, q: CourantData) -> Connection:
    return Connection(q, matrix_from_json(obj, q.chart))


def optional_connection(
    spec: Any, q: CourantData, key: str = "connection"
) -> Connection | None:
    """The connection a spec gives under key, None when it gives none."""
    return connection_from_json(spec[key], q) if key in spec else None


def dirac_to_json(d: DiracData) -> dict:
    return {
        "support": list(d.support),
        "generators": matrix_to_json(d.generators),
    }


def dirac_from_json(obj: Any, q: CourantData) -> DiracData:
    support = tuple(str(s) for s in _require_list(obj, "support", "dirac"))
    sub = support_inclusion(q.chart, support).source
    gens = matrix_from_json(_require(obj, "generators", "dirac"), sub)
    return DiracData(q, gens, support)


# -- descent ----------------------------------------------------------------


def cover_from_json(obj: Any, chart: Chart) -> CoverData:
    """Named maps (component lists) and an optional "s,t" -> u table."""
    maps = {
        str(name): ChartMap(chart, chart, vec_from_json(comps, chart))
        for name, comps in _require_object(obj, "maps", "cover").items()
    }
    table = {}
    for key, value in _require_object(obj, "table", "cover", optional=True).items():
        parts = key.split(",")
        if len(parts) != 2:
            raise ValidationError(f"table key {key!r} is not a pair of names")
        table[(parts[0], parts[1])] = str(value)
    return CoverData(chart, maps, table)


def descent_from_json(spec: Any, q: CourantData) -> DescentDatum:
    """The spec's `matrices` over its `cover`; without matrices, the
    tautological ones of its connection (coordinate when it gives none)."""
    cover = cover_from_json(_require(spec, "cover", "spec"), q.chart)
    if "matrices" not in spec:
        return tautological_datum(cover, q, optional_connection(spec, q))
    matrices = {
        str(name): matrix_from_json(rows, q.chart)
        for name, rows in _require_object(spec, "matrices", "spec").items()
    }
    return DescentDatum(cover, q, matrices)


# -- reports ----------------------------------------------------------------


def report_to_json(report: Report, verb: str, params: dict) -> dict:
    return {
        "tool_version": __version__,
        "job": {"verb": verb, **params},
        "checks": report.to_json_dict(),
    }


def dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
