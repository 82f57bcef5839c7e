"""Command-line interface.

Subcommands: analyze, shape-test, seq-diagnose, voloch-scan,
verify-paper, render.  All numeric output is exact (integers or
{num, den} pairs).  Exit codes: 0 success, 1 verification mismatch,
2 parse error, 3 degenerate input (zero, monomial, or collinear
support).

Modules that only some commands run are imported inside those
commands: `report` in analyze and seq-diagnose, `refexamples` in
analyze and verify-paper, `render` in analyze and render, and `newton`
in render (the others reach it through those modules).  shape-test and
voloch-scan write their JSON here, so they compile none of the four,
nor the `fractions` module that Newton data and figures need.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import geometry
from .mixing import (
    DegenerateInput,
    KMAX_DEFAULT,
    WINDOWS_DEFAULT,
    order_bounds,
    sequence_diagnostics,
    shape_witness_search,
    voloch_identity_scan,
)
from .parse import ParseError, parse_family_line, parse_points, parse_poly, parse_windows

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3

EPILOG = """exit codes:
  0  success
  1  verification mismatch (verify-paper)
  2  parse error
  3  degenerate input (zero, monomial, or support on a line)
"""


def _emit(obj):
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _fail(code, message):
    sys.stderr.write(message.rstrip() + "\n")
    return code


def _load_poly(args):
    f = parse_poly(args.poly, args.prime)
    if f.is_zero():
        raise DegenerateInput("polynomial is zero after reduction mod p")
    return f


def _cmd_analyze(args):
    from . import refexamples
    from .render import render_polygon
    from .report import build_report

    f = _load_poly(args)
    rep = order_bounds(f)
    extra = refexamples.notes_for(f)
    out = build_report(rep, extra_notes=extra)
    if args.pretty:
        _print_pretty(out)
    else:
        _emit(out)
    degenerate = rep.degenerate_verdict is not None
    if not degenerate:
        if args.svg:
            with open(args.svg, "w") as fh:
                fh.write(render_polygon(rep.hull, f.support()))
        if args.tikz:
            with open(args.tikz, "w") as fh:
                fh.write(render_polygon(rep.hull, f.support(), fmt="tikz"))
    return EXIT_DEGENERATE if degenerate else EXIT_OK


def _print_pretty(out):
    w = sys.stdout.write
    w(f"prime        : {out['prime']}\n")
    w(f"polynomial   : {out['poly']}\n")
    w(f"support      : {', '.join(str(tuple(e)) for e in out['support'])}\n")
    w(f"hull         : {', '.join(str(tuple(v)) for v in out['hull_vertices'])}"
      f" ({out['degeneracy']})\n")
    for i, face in enumerate(out["faces"]):
        w(f"  F{i + 1}: {tuple(face['start'])} -> {tuple(face['end'])}"
          f"  normal {tuple(face['normal'])}  length {face['lattice_length']}\n")
    b = out["bounds"]
    w(f"bounds       : lower {b['lower']}  upper {b['upper']}  exact {b['exact']}"
      f"{'  (conditional)' if b['conditional'] else ''}\n")
    w(f"irreducible  : {out['irreducibility']['method']}\n")
    if "verdict" in out:
        w(f"verdict      : {out['verdict']}\n")
    for note in out["notes"]:
        w(f"note         : {note}\n")


def witness_json(w):
    return {
        "k": w.k,
        "coefficients": [m.to_string() for m in w.coefficients],
        "constant": w.constant_flag,
        "quotient": w.quotient.to_string() if w.quotient is not None else None,
    }


def verdict_json(v, shape=None):
    """The JSON of a `ShapeVerdict`, as shape-test prints it."""
    out = {"kind": v.kind}
    if shape is not None:
        out["shape"] = [list(pt) for pt in shape]
    if v.witness is not None:
        out["witness"] = witness_json(v.witness)
    if v.reason is not None:
        out["reason"] = v.reason
    if v.conditional:
        out["conditional"] = True
    if v.searched is not None:
        out["searched"] = {
            "kmax": v.searched["kmax"],
            "windows": list(v.searched["windows"]),
        }
    if v.note is not None:
        out["note"] = v.note
    return out


def _cmd_shape_test(args):
    f = _load_poly(args)
    shape = parse_points(args.shape)
    windows = parse_windows(args.windows)
    verdict = shape_witness_search(f, shape, kmax=args.kmax, windows=windows)
    out = verdict_json(verdict, shape=shape)
    out["budget"] = {"kmax": args.kmax, "windows": list(windows)}
    _emit(out)
    return EXIT_OK


def _cmd_seq_diagnose(args):
    from .report import diagnostics_json

    f = _load_poly(args)
    entries = []
    if args.file:
        with open(args.file) as fh:
            for number, line in enumerate(fh, start=1):
                if line.strip():
                    entries.append(parse_family_line(line.rstrip("\n"), number))
    for i, text in enumerate(args.tuple or (), start=1):
        entries.append((i, parse_points(text)))
    if not entries:
        raise ParseError("no tuples given (use --tuple or --file)", 1, 1)
    diag = sequence_diagnostics(f, entries)
    _emit(diagnostics_json(diag))
    return EXIT_OK


def _cmd_voloch(args):
    scan = voloch_identity_scan(args.mmax)
    _emit(
        {
            "mmax": scan.mmax,
            "solutions": list(scan.solutions),
            "frobenius_checked": list(scan.frobenius_checked),
            "frobenius_failures": list(scan.frobenius_failures),
        }
    )
    return EXIT_OK


def _cmd_verify_paper(args):
    from . import refexamples

    checks = refexamples.verify_paper_checks()
    out = [
        {"check": c.name, "expected": c.expected, "got": c.got, "pass": c.ok}
        for c in checks
    ]
    _emit({"checks": out, "passed": sum(c.ok for c in checks), "total": len(checks)})
    return EXIT_OK if all(c.ok for c in checks) else EXIT_MISMATCH


def _cmd_render(args):
    from .newton import Valuation, newton_polygon
    from .render import render_polygon

    f = _load_poly(args)
    hull = geometry.convex_hull(f.support())
    if hull.degeneracy != geometry.POLYGON:
        raise DegenerateInput("figure rendering needs a non-degenerate hull")
    newton = None
    if args.newton:
        val = (
            Valuation.finite_at()
            if args.newton == "ord"
            else Valuation.infinity_deg()
        )
        newton = newton_polygon(f, val)[1]
    text = render_polygon(hull, f.support(), newton=newton, fmt=args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mixbound",
        description="Exact mixing-order analysis of Z^2-actions defined by a "
        "Laurent polynomial over F_p.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poly_args(sp):
        sp.add_argument("--prime", type=int, required=True, help="prime modulus p")
        sp.add_argument("--poly", required=True, help="polynomial in u1, u2")

    sp = sub.add_parser("analyze", help="hull, Newton data and mixing bounds")
    add_poly_args(sp)
    sp.add_argument("--pretty", action="store_true", help="human-readable output")
    sp.add_argument("--svg", metavar="PATH", help="also write the hull figure as SVG")
    sp.add_argument("--tikz", metavar="PATH", help="also write the hull figure as TikZ")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("shape-test", help="classify a shape of lattice points")
    add_poly_args(sp)
    sp.add_argument("--shape", required=True, help='points "(a,b);(c,d);..."')
    sp.add_argument("--kmax", type=int, default=KMAX_DEFAULT)
    sp.add_argument("--windows", default=",".join(str(w) for w in WINDOWS_DEFAULT),
                    help='coefficient window schedule, e.g. "0,1,2"')
    sp.set_defaults(func=_cmd_shape_test)

    sp = sub.add_parser("seq-diagnose", help="face-alignment diagnostics for tuples")
    add_poly_args(sp)
    sp.add_argument("--tuple", action="append", metavar="POINTS",
                    help='one tuple "(a,b);(c,d);..." (repeatable)')
    sp.add_argument("--file", help='file of lines "j: (a,b);(c,d);..."')
    sp.set_defaults(func=_cmd_seq_diagnose)

    sp = sub.add_parser("voloch-scan", help="scan (1+t+t^2)^m = 1+t^(2m) over F_2")
    sp.add_argument("--mmax", type=int, default=4096)
    sp.set_defaults(func=_cmd_voloch)

    sp = sub.add_parser("verify-paper", help="replay the built-in worked examples")
    sp.set_defaults(func=_cmd_verify_paper)

    sp = sub.add_parser("render", help="write the hull or Newton figure")
    add_poly_args(sp)
    sp.add_argument("--format", choices=("svg", "tikz"), default="svg")
    sp.add_argument("--newton", choices=("ord", "deg"),
                    help="draw the Newton polygon for ord(u2) or the degree norm")
    sp.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    sp.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail(EXIT_PARSE, f"parse error: {exc}")
    except DegenerateInput as exc:
        return _fail(EXIT_DEGENERATE, f"degenerate input: {exc}")
    except ValueError as exc:
        return _fail(EXIT_PARSE, f"invalid input: {exc}")
    except OSError as exc:
        return _fail(EXIT_PARSE, f"file error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
