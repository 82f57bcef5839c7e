import hashlib
import json
import pathlib
from collections import Counter

import jsonschema
import pytest

from mixbound import geometry
from mixbound.mixing import order_bounds, sequence_diagnostics
from mixbound.newton import Valuation, newton_polygon
from mixbound.parse import parse_poly
from mixbound.render import render_polygon
from mixbound.report import build_report, diagnostics_json

from conftest import L, load_perfbench

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

    @staticmethod
    def _count_hulls(monkeypatch):
        calls = Counter()
        for name in ("convex_hull", "faces"):
            fn = getattr(geometry, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(geometry, name, counted)
        return calls

    def test_one_hull_per_report(self, monkeypatch):
        # counts, not a clock: build_report takes its faces from the hull
        # order_bounds built, and order_bounds counts R from its vertices
        calls = self._count_hulls(monkeypatch)
        out = build_report(order_bounds(L("u1^6+u1^5u2+u1^3u2^2+u2+u2^3")))
        assert len(out["faces"]) == len(out["newton"]) == 5
        assert calls == {"convex_hull": 1, "faces": 1}

    def test_brute_force_takes_the_report_hull(self, monkeypatch):
        # brute force reaches its hull test on the hull order_bounds built
        calls = self._count_hulls(monkeypatch)
        out = build_report(order_bounds(L("1+u1^2+u2^2+u1^2*u2^2+u1*u2")))
        assert out["irreducibility"]["method"] == "brute_force"
        assert len(out["faces"]) == len(out["newton"]) == 4
        assert calls == {"convex_hull": 1, "faces": 1}

    def test_corpus_reports_match_recorded_digest(self):
        # the JSON report of every corpus input at seeds 1-3, one line
        # each, hashes to the digest recorded before the exponent decision
        # in eisenstein_certify and the slope index of the Newton faces
        workloads = load_perfbench("workloads")
        digest = hashlib.sha256()
        for seed in (1, 2, 3):
            for p, text in workloads.corpus_inputs(seed):
                out = build_report(order_bounds(parse_poly(text, p)))
                digest.update(json.dumps(out).encode() + b"\n")
        recorded = (GOLDEN / "corpus_reports.sha256").read_text().strip()
        assert digest.hexdigest() == recorded

    def test_diagnostics_json_shape(self):
        f = L("1+u1+u2")
        entries = sequence_diagnostics(f, [(1, [(0, 0), (1, 0), (0, 1)])])
        out = diagnostics_json(entries)
        json.dumps(out)
        assert out[0]["alignments"][0]["offset"] == 0

    def test_verdict_json_of_a_certified_witness(self):
        from mixbound.mixing import shape_witness_search
        from mixbound.cli import verdict_json

        f = L("1+u1+u2")
        shape = [(0, 0), (1, 0), (0, 1)]
        v = shape_witness_search(f, shape, kmax=1, windows=(0,))
        out = verdict_json(v, shape)
        assert out["kind"] == "certified_non_mixing"
        assert out["witness"]["quotient"] == "1"
        json.dumps(out)


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
        np1 = newton_polygon(f, Valuation.finite_at())[1]
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
        val = Valuation.finite_at() if which == "ord" else Valuation.infinity_deg()
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
