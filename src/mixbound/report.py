"""JSON report assembly.

Every rational crosses the interface as a reduced {"num", "den"} pair
with a positive denominator; infinite Newton ordinates serialize as the
string "inf"; polynomials as their canonical strings.  No floating point
appears anywhere in a report.
"""

from __future__ import annotations

from . import geometry
from .fieldpoly import INFINITE
from .mixing import METHODS, MixingReport
from .newton import FINITE, face_newton_data


def rational(x):
    # ints and Fractions both carry a reduced numerator and denominator
    return {"num": x.numerator, "den": x.denominator}


def ordinate(x):
    return "inf" if x == INFINITE else rational(x)


def face_json(face: geometry.Face):
    return {
        "start": list(face.start),
        "end": list(face.end),
        "direction": list(face.direction),
        "normal": list(face.normal),
        "lattice_length": face.lattice_length,
    }


def valuation_json(val):
    out = {"kind": val.kind, "coeff_axis": val.coeff_axis, "inverted": val.inverted}
    if val.kind == FINITE:
        out["g"] = "u2" if val.coeff_axis == 2 else "u1"
    return out


def change_json(data):
    """The part of a face's Newton record that its coordinate change fixes."""
    return {
        "valuation": valuation_json(data.valuation),
        "points": [[pt.index, ordinate(pt.ordinate)] for pt in data.points],
        "segments": [
            {"slope": rational(s.slope), "start": s.start, "end": s.end}
            for s in data.polygon.segments
        ],
    }


def build_report(report: MixingReport, extra_notes=()):
    f = report.f
    hull = report.hull
    out = {
        "prime": report.p,
        "poly": f.to_string(),
        "support": [list(e) for e in sorted(f.support())],
        "hull_vertices": [list(v) for v in hull.vertices],
        "degeneracy": hull.degeneracy,
    }
    # a polygon's Newton records carry its faces, in geometry.faces order
    newton = face_newton_data(f, hull) if hull.degeneracy == geometry.POLYGON else []
    faces = [data.face for data in newton] if newton else geometry.faces(hull)
    out["faces"] = [face_json(fc) for fc in faces]
    # the faces of one coordinate change share its Newton points and polygon,
    # so their JSON is built once and every such record refers to it; the
    # encoder writes shared objects out in full each time, so the bytes are
    # those of one JSON per face
    changes = {}
    for data in newton:
        if data.valuation not in changes:
            changes[data.valuation] = change_json(data)
    out["newton"] = [
        {**changes[data.valuation], "extended_norm": {
            "log_u1": rational(data.norm.log_u1), "log_u2": rational(data.norm.log_u2)}}
        for data in newton
    ]
    out["bounds"] = {
        "lower": report.lower_bound,
        "upper": report.upper_bound,
        "exact": report.exact_order,
        "conditional": report.conditional,
    }
    cert = report.irreducibility
    out["irreducibility"] = {"method": cert.method, **METHODS[cert.method].fields(cert)}
    if report.degenerate_verdict is not None:
        out["verdict"] = report.degenerate_verdict
    out["notes"] = list(report.notes) + list(extra_notes)
    return out


def diagnostics_json(entries):
    out = []
    for entry in entries:
        out.append(
            {
                "label": entry.label,
                "points": [list(pt) for pt in entry.points],
                "alignments": [
                    {
                        "face": a.face_index,
                        "maximizer": list(a.maximizer),
                        "runner_up": list(a.runner_up),
                        "gap": rational(a.gap),
                        "offset": a.offset,
                    }
                    for a in entry.alignments
                ],
                "face_lengths": list(entry.face_lengths),
                "length_ratios": [rational(r) for r in entry.length_ratios],
            }
        )
    return out
