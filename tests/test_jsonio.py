"""Round trips through the JSON encoding, plus its validation errors."""

import pytest

from algebroids import jsonio
from algebroids.courant import coordinate_connection, standard_exact
from algebroids.errors import ValidationError
from algebroids.lie_algebroid import LieData
from algebroids.report import Report
from algebroids.symcalc import (
    ChartMap,
    KForm,
    Poly,
    coordinate_chart,
    parse_poly,
)

R2 = coordinate_chart("P", 2)
R3 = coordinate_chart("X", 3)
VOL = KForm(R3, 3, {(0, 1, 2): Poly.const(R3, 1)})


def test_chart_round_trip():
    obj = jsonio.chart_to_json(R3)
    assert obj == {"name": "X", "coords": ["x1", "x2", "x3"]}
    assert jsonio.chart_from_json(obj) == R3


def test_map_round_trip():
    f = ChartMap(
        R3,
        R3,
        (
            Poly.coord(R3, 0),
            Poly.coord(R3, 1),
            parse_poly("x3 + x1*x2", R3),
        ),
    )
    g = jsonio.map_from_json(jsonio.map_to_json(f))
    assert g.source == f.source
    assert g.target == f.target
    assert g.comps == f.comps


def test_courant_round_trip():
    q = standard_exact(R3, VOL)
    assert jsonio.courant_from_json(jsonio.courant_to_json(q)) == q


def test_courant_bracket_keeps_both_orders():
    q = standard_exact(R3, VOL)
    bracket = jsonio.courant_to_json(q)["bracket"]
    # the bracket table is not antisymmetrised on disk, so both orders
    # of every twisted pair must be present
    assert "0,1" in bracket and "1,0" in bracket
    assert bracket["0,1"][5] == "1"
    assert bracket["1,0"][5] == "-1"


def test_kform_round_trip():
    w = KForm(
        R3,
        2,
        {(0, 1): parse_poly("x3^2", R3), (1, 2): parse_poly("-x1", R3)},
    )
    assert jsonio.kform_from_json(jsonio.kform_to_json(w), R3) == w


def test_kform_unsorted_key_normalises_with_sign():
    w = jsonio.kform_from_json(
        {"degree": 2, "comps": {"1,0": "x1"}}, R2
    )
    assert w == KForm(R2, 2, {(0, 1): parse_poly("-x1", R2)})


def test_lie_round_trip():
    a = LieData(
        R2,
        2,
        (
            (Poly.one(R2), Poly.zero(R2)),
            (Poly.zero(R2), Poly.coord(R2, 0)),
        ),
        {(0, 1): (Poly.zero(R2), Poly.one(R2))},
    )
    b = jsonio.lie_from_json(jsonio.lie_to_json(a))
    assert b.chart == a.chart
    assert b.rank == a.rank
    assert b.anchor == a.anchor
    assert b.structure == a.structure


def test_dirac_round_trip():
    q = standard_exact(R3, KForm.zero(R3, 3))
    obj = {
        "support": ["x3"],
        "generators": [
            ["1", "0", "0", "0", "x1", "0"],
            ["0", "1", "0", "-x1", "0", "0"],
            ["0", "0", "0", "0", "0", "1"],
        ],
    }
    d = jsonio.dirac_from_json(obj, q)
    assert d.support == ("x3",)
    assert d.inclusion.source.coords == ("x1", "x2")
    assert jsonio.dirac_to_json(d) == obj


def test_connection_round_trip():
    q = standard_exact(R2, KForm.zero(R2, 3))
    conn = coordinate_connection(q)
    rebuilt = jsonio.connection_from_json(
        jsonio.matrix_to_json(conn.columns), q
    )
    assert rebuilt.columns == conn.columns


def test_missing_field_raises():
    with pytest.raises(ValidationError, match="chart"):
        jsonio.courant_from_json({"rank": 2})
    with pytest.raises(ValidationError, match="comps"):
        jsonio.map_from_json(
            {"source": jsonio.chart_to_json(R2), "target": jsonio.chart_to_json(R2)}
        )


def test_vec_from_json_rejects_non_list():
    with pytest.raises(ValidationError):
        jsonio.vec_from_json("x1", R2)
    with pytest.raises(ValidationError):
        jsonio.matrix_from_json({"0": ["x1"]}, R2)


def test_bad_index_key():
    with pytest.raises(ValidationError, match="bad index key"):
        jsonio.kform_from_json({"degree": 2, "comps": {"a,b": "x1"}}, R2)


def test_bracket_key_must_be_a_pair():
    base = jsonio.courant_to_json(standard_exact(R2, KForm.zero(R2, 3)))
    base["bracket"] = {"0,1,2": [["0"] * 4]}
    with pytest.raises(ValidationError, match="not a pair"):
        jsonio.courant_from_json(base)


def test_dump_json_is_stable():
    payload = {"b": 1, "a": {"d": 2, "c": 3}}
    text = jsonio.dump_json(payload)
    assert text == jsonio.dump_json(payload)
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_report_to_json_shape():
    rep = Report()
    rep.add("beta", True)
    rep.add("alpha", False, "witness")
    out = jsonio.report_to_json(rep, "demo", {"seed": 7})
    assert out["tool_version"]
    assert out["job"] == {"verb": "demo", "seed": 7}
    assert out["checks"] == [
        {"name": "alpha", "status": "fail", "counterexample": "witness"},
        {"name": "beta", "status": "pass"},
    ]
