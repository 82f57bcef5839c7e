import json
import pathlib

import jsonschema
import pytest

from mixbound import geometry
from mixbound.fieldpoly import FpPoly
from mixbound.mixing import order_bounds, sequence_diagnostics
from mixbound.newton import Valuation, newton_polygon
from mixbound.render import render_polygon
from mixbound.report import build_report, diagnostics_json

from conftest import L

GOLDEN = pathlib.Path(__file__).parent / "golden"

RATIONAL = {
    "type": "object",
    "properties": {"num": {"type": "integer"}, "den": {"type": "integer", "minimum": 1}},
    "required": ["num", "den"],
    "additionalProperties": False,
}
POINT2 = {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2}

REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "prime", "poly", "support", "hull_vertices", "faces", "newton",
        "bounds", "irreducibility", "notes",
    ],
    "properties": {
        "prime": {"type": "integer"},
        "poly": {"type": "string"},
        "support": {"type": "array", "items": POINT2},
        "hull_vertices": {"type": "array", "items": POINT2},
        "degeneracy": {"enum": ["point", "segment", "polygon"]},
        "faces": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["start", "end", "direction", "normal", "lattice_length"],
                "properties": {
                    "start": POINT2,
                    "end": POINT2,
                    "direction": POINT2,
                    "normal": POINT2,
                    "lattice_length": {"type": "integer", "minimum": 1},
                },
            },
        },
        "newton": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["valuation", "points", "segments", "extended_norm"],
                "properties": {
                    "valuation": {"type": "object"},
                    "points": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "prefixItems": [
                                {"type": "integer"},
                                {"anyOf": [RATIONAL, {"const": "inf"}]},
                            ],
                            "minItems": 2,
                            "maxItems": 2,
                        },
                    },
                    "segments": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["slope", "start", "end"],
                            "properties": {
                                "slope": RATIONAL,
                                "start": {"type": "integer"},
                                "end": {"type": "integer"},
                            },
                        },
                    },
                    "extended_norm": {
                        "type": "object",
                        "required": ["log_u1", "log_u2"],
                        "properties": {"log_u1": RATIONAL, "log_u2": RATIONAL},
                    },
                },
            },
        },
        "bounds": {
            "type": "object",
            "required": ["lower", "upper", "exact", "conditional"],
            "properties": {
                "lower": {"type": ["integer", "null"]},
                "upper": {"type": ["integer", "null"]},
                "exact": {"type": ["integer", "null"]},
                "conditional": {"type": "boolean"},
            },
        },
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}


def _rationals_reduced(obj):
    import math

    if isinstance(obj, dict):
        if set(obj) == {"num", "den"}:
            assert obj["den"] > 0
            assert math.gcd(obj["num"], obj["den"]) == 1
        else:
            for v in obj.values():
                _rationals_reduced(v)
    elif isinstance(obj, list):
        for v in obj:
            _rationals_reduced(v)


CORPUS = [
    "u2+u1+u1^3u2",
    "u1^2+u1u2^2+u2^3+u2",
    "u1^6+u1^5u2+u1^3u2^2+u2+u2^3",
    "1+u1+u2+u2^2",
    "1+u1+u2",
]


class TestReportJSON:
    @pytest.mark.parametrize("poly", CORPUS)
    def test_schema_valid(self, poly):
        out = build_report(order_bounds(L(poly)))
        jsonschema.validate(out, REPORT_SCHEMA)
        _rationals_reduced(out)
        json.dumps(out)  # serializable

    def test_segment_report(self):
        out = build_report(order_bounds(L("1+u1")))
        assert out["degeneracy"] == "segment"
        assert out["newton"] == []
        assert out["verdict"] == "not mixing"
        json.dumps(out)

    def test_canonical_poly_string(self):
        out = build_report(order_bounds(L("u1^3u2 + u2 + u1")))
        assert out["poly"] == "u2+u1+u1^3*u2"

    def test_newton_matches_face_count(self):
        out = build_report(order_bounds(L("u2+u1+u1^3u2")))
        assert len(out["newton"]) == len(out["faces"]) == 3
        assert out["newton"][0]["points"][2] == [2, "inf"]
        assert out["newton"][1]["extended_norm"]["log_u1"] == {"num": 1, "den": 2}

    def test_diagnostics_json_shape(self):
        f = L("1+u1+u2")
        entries = sequence_diagnostics(f, [(1, [(0, 0), (1, 0), (0, 1)])])
        out = diagnostics_json(entries)
        json.dumps(out)
        assert out[0]["alignments"][0]["offset"] == 0

    def test_shape_verdicts_key_when_requested(self):
        from mixbound.mixing import shape_witness_search
        from mixbound.report import verdict_json

        f = L("1+u1+u2")
        shape = [(0, 0), (1, 0), (0, 1)]
        v = shape_witness_search(f, shape, kmax=1, windows=(0,))
        out = build_report(order_bounds(f), shape_verdicts=[verdict_json(v, shape)])
        assert out["shape_verdicts"][0]["kind"] == "certified_non_mixing"
        assert out["shape_verdicts"][0]["witness"]["quotient"] == "1"
        json.dumps(out)
        plain = build_report(order_bounds(f))
        assert "shape_verdicts" not in plain


class TestRender:
    def _fig(self, poly):
        f = L(poly)
        return geometry.convex_hull(f.support()), f.support()

    def test_figure1_matches_golden(self):
        hull, support = self._fig("u2+u1+u1^3u2")
        assert render_polygon(hull, support) == (GOLDEN / "figure1.svg").read_text()

    def test_figure4_matches_golden(self):
        hull, support = self._fig("u1^6+u1^5u2+u1^3u2^2+u2+u2^3")
        assert render_polygon(hull, support) == (GOLDEN / "figure4.svg").read_text()

    def test_byte_determinism(self):
        hull, support = self._fig("1+u1+u2+u2^2")
        a = render_polygon(hull, support)
        b = render_polygon(hull, support)
        assert a == b
        ta = render_polygon(hull, support, fmt="tikz")
        assert ta == render_polygon(hull, support, fmt="tikz")

    def test_face_labels_and_dots(self):
        hull, support = self._fig("u1^6+u1^5u2+u1^3u2^2+u2+u2^3")
        svg = render_polygon(hull, support)
        assert svg.count("<circle") == 5
        for i in range(1, 6):
            assert f">F{i}</text>" in svg

    def test_newton_figure(self):
        f = L("u2+u1+u1^3u2")
        np1 = newton_polygon(f, Valuation.finite_at(FpPoly.x(2)))[1]
        hull = geometry.convex_hull(f.support())
        svg = render_polygon(hull, f.support(), newton=np1)
        assert svg.count("<circle") == 3  # the infinite point is omitted
        assert 'stroke-width="2"' in svg

    @pytest.mark.parametrize("name, poly, which", [
        ("triangle_ord", "u2+u1+u1^3u2", "ord"),
        ("pentagon_deg", "u1^6+u1^5u2+u1^3u2^2+u2+u2^3", "deg"),
    ])
    @pytest.mark.parametrize("fmt, ext", [("svg", "svg"), ("tikz", "tex")])
    def test_newton_figure_matches_golden(self, name, poly, which, fmt, ext):
        hull, support = self._fig(poly)
        val = Valuation.finite_at(FpPoly.x(2)) if which == "ord" else Valuation.infinity_deg()
        np1 = newton_polygon(L(poly), val)[1]
        text = render_polygon(hull, support, newton=np1, fmt=fmt)
        assert text == (GOLDEN / f"newton_{name}.{ext}").read_text()

    def test_degenerate_hull_rejected(self):
        f = L("1+u1")
        hull = geometry.convex_hull(f.support())
        with pytest.raises(ValueError):
            render_polygon(hull, f.support())
        with pytest.raises(ValueError):
            render_polygon(geometry.convex_hull({(1, 1)}), {(1, 1)}, fmt="tikz")

    def test_unknown_format_rejected(self):
        hull, support = self._fig("1+u1+u2")
        with pytest.raises(ValueError):
            render_polygon(hull, support, fmt="png")

    def test_tikz_contains_nodes(self):
        hull, support = self._fig("u2+u1+u1^3u2")
        tikz = render_polygon(hull, support, fmt="tikz")
        assert tikz.startswith("\\begin{tikzpicture}")
        assert tikz.count("\\fill") == 3
        assert "$F3$" in tikz
