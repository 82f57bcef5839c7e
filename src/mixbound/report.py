"""JSON report assembly.

Every rational crosses the interface as a reduced {"num", "den"} pair
with a positive denominator; infinite Newton ordinates serialize as the
string "inf"; polynomials as their canonical strings.  No floating point
appears anywhere in a report.
"""

from __future__ import annotations

from . import geometry
from .fieldpoly import INFINITE
from .mixing import MixingReport, ShapeVerdict, Witness
from .newton import face_newton_data


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
    if val.g is not None:
        out["g"] = val.g.to_string("u2" if val.coeff_axis == 2 else "u1")
    return out


def newton_json(data):
    return {
        "valuation": valuation_json(data.valuation),
        "points": [[pt.index, ordinate(pt.ordinate)] for pt in data.points],
        "segments": [
            {"slope": rational(s.slope), "start": s.start, "end": s.end}
            for s in data.polygon.segments
        ],
        "extended_norm": {
            "log_u1": rational(data.norm.log_u1),
            "log_u2": rational(data.norm.log_u2),
        },
    }


def witness_json(w: Witness):
    return {
        "k": w.k,
        "coefficients": [m.to_string() for m in w.coefficients],
        "constant": w.constant_flag,
        "quotient": w.quotient.to_string() if w.quotient is not None else None,
    }


def verdict_json(v: ShapeVerdict, shape=None):
    out = {"kind": v.kind}
    if shape is not None:
        out["shape"] = [list(pt) for pt in shape]
    if v.witness is not None:
        out["witness"] = witness_json(v.witness)
    if v.reason is not None:
        out["reason"] = v.reason
    if v.searched is not None:
        out["searched"] = {
            "kmax": v.searched["kmax"],
            "windows": list(v.searched["windows"]),
        }
    if v.note is not None:
        out["note"] = v.note
    return out


def build_report(report: MixingReport, shape_verdicts=None, extra_notes=()):
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
    newton = face_newton_data(f) if hull.degeneracy == geometry.POLYGON else []
    faces = [data.face for data in newton] if newton else geometry.faces(hull)
    out["faces"] = [face_json(fc) for fc in faces]
    out["newton"] = [newton_json(data) for data in newton]
    out["bounds"] = {
        "lower": report.lower_bound,
        "upper": report.upper_bound,
        "exact": report.exact_order,
        "conditional": report.conditional,
    }
    out["irreducibility"] = _cert_json(report.irreducibility)
    if report.degenerate_verdict is not None:
        out["verdict"] = report.degenerate_verdict
    if shape_verdicts is not None:
        out["shape_verdicts"] = shape_verdicts
    out["notes"] = list(report.notes) + list(extra_notes)
    return out


def _cert_json(cert):
    out = {"method": cert.method}
    if cert.method == "eisenstein":
        out["main_axis"] = cert.main_axis
        out["inverted"] = cert.inverted
        out["g"] = cert.g.to_string("u2")
    elif cert.method == "brute_force":
        out["searched_bidegree"] = list(cert.searched_bidegree)
    elif cert.method == "reducible":
        out["factor"] = cert.factor.to_string()
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
