"""Re-check the relation witness of a printed `shape-test` report, and the
`eisenstein` or `reducible` certificate and the face norms of a printed
`analyze` report, with code that shares nothing with mixbound.

A report prints its witness as k, the coefficients m_i and the quotient
q, each a polynomial string.  This module reads those strings, and the
command's `--poly`, with its own reader, and multiplies with its own
arithmetic: a polynomial over F_p is a dict {(e1, e2): c} of its nonzero
terms.  It imports only the standard library, so a fault in mixbound's
arithmetic or printing cannot also hide itself here.

For the shape n_1, ..., n_r of the report it checks
  - `relation_found`: q * f = sum m_i u^(k n_i), with the m_i not all 0;
  - `certified_non_mixing`: the same, and every m_i a constant.
The printed `constant` flag must agree with the coefficients.  The other
verdicts carry no witness and have nothing to re-check.

An `analyze` report carries its own `poly` and `prime`.  When its
`irreducibility` method is `eisenstein`, f is read as sum q_i(u2) u1^i in
the printed orientation (u1 and u2 exchanged when `main_axis` is 2, then
u2 inverted when `inverted`, then shifted to exponents from 0), each q_i
a coefficient list over F_p with its own remainder and gcd, and it checks
  - g has degree 1 or 2, and no root in F_p when its degree is 2;
  - the content of the q_i is 1;
  - g divides every q_i below q_n, g does not divide q_n, and g^2 does
    not divide q_0.
When the method is `reducible`, f and the printed `factor` are shifted to
exponents from 0 and f is divided by the factor's lex-leading term, and
it checks
  - the remainder is 0 and the quotient times the factor is f;
  - neither the factor nor the quotient is a monomial.
A `brute_force` certificate can only be checked by repeating the search;
`unverified` ones carry nothing to check.

Every `analyze` report of a polygon also prints one Newton record per
face.  For each face it recomputes the primitive outward normal from the
printed `start` and `end` (the hull is counterclockwise, so the interior
lies on the left), scales it so that the entry of the record's
`coeff_axis` is +-1, and checks
  - the scaled normal is the printed `extended_norm`;
  - its other entry is the slope of one printed segment of the record.

Run it on a saved report:

    python tests/recheck.py --prime 2 --poly "1+u1+u2" < shape_report.json
    python tests/recheck.py < analyze_report.json

It prints each problem found and exits 1 if there is one, else 0.
"""

import argparse
import json
import math
import re
import sys
from fractions import Fraction

WITNESS_KINDS = ("certified_non_mixing", "relation_found")
OTHER_KINDS = ("geometrically_mixing", "unresolved")
OTHER_METHODS = ("brute_force", "reducible", "unverified")

# an integer, a variable with an optional exponent, or an operator
_TOKEN = re.compile(r"\s*(?:(\d+)|(u1|u2|t)(?:\s*\^\s*(-?)\s*(\d+))?|([-+*]))")
_AXIS = {"u1": 0, "t": 0, "u2": 1}


def read_poly(text, p):
    """{(e1, e2): c} with 0 < c < p for a polynomial over F_p written as
    the CLI reads and prints it: terms joined by '+' or '-', each an
    optional integer times factors u1^e, u2^e or t^e (t is u1), with
    '*' between factors optional and e possibly negative."""
    poly, pos, end, first = {}, 0, len(text.rstrip()), True
    sign, coeff, exps, empty = 1, 1, [0, 0], True
    while pos < end:
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text!r} at offset {pos}")
        pos = m.end()
        number, var, minus, exp, op = m.groups()
        if number is not None:
            coeff, empty = coeff * int(number), False
        elif var is not None:
            e = int(exp) if exp is not None else 1
            exps[_AXIS[var]] += -e if minus else e
            empty = False
        elif op == "*":
            if empty:
                raise ValueError(f"'*' without a left factor in {text!r}")
        else:
            if not empty:
                _add_term(poly, tuple(exps), sign * coeff, p)
            elif not first or op == "+":
                raise ValueError(f"empty term in {text!r}")
            sign, coeff, exps, empty = (-1 if op == "-" else 1), 1, [0, 0], True
            first = False
    if empty:
        raise ValueError(f"missing term at the end of {text!r}")
    _add_term(poly, tuple(exps), sign * coeff, p)
    return poly


def _add_term(poly, e, c, p):
    c = (poly.get(e, 0) + c) % p
    if c:
        poly[e] = c
    else:
        poly.pop(e, None)


def mul(a, b, p):
    out = {}
    for (a1, a2), ca in a.items():
        for (b1, b2), cb in b.items():
            _add_term(out, (a1 + b1, a2 + b2), ca * cb, p)
    return out


def relation(shape, k, ms, p):
    """sum m_i u^(k n_i)."""
    out = {}
    for (n1, n2), m in zip(shape, ms):
        for (e1, e2), c in m.items():
            _add_term(out, (e1 + k * n1, e2 + k * n2), c, p)
    return out


def witness_problems(report, poly, prime):
    """The problems found in a `shape-test` report (a parsed JSON object)
    for the command's --poly and --prime; [] when its witness checks."""
    kind = report.get("kind")
    if kind in OTHER_KINDS:
        return [] if "witness" not in report else [f"a {kind} verdict carries a witness"]
    if kind not in WITNESS_KINDS:
        return [f"unknown verdict {kind!r}"]
    w = report.get("witness")
    if w is None:
        return [f"a {kind} verdict without a witness"]
    shape = [tuple(pt) for pt in report["shape"]]
    k = w["k"]
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        return [f"k = {k!r} is not a positive integer"]
    if len(w["coefficients"]) != len(shape):
        return [f"{len(w['coefficients'])} coefficients for {len(shape)} points"]
    if w["quotient"] is None:
        return ["no quotient"]
    f = read_poly(poly, prime)
    ms = [read_poly(m, prime) for m in w["coefficients"]]
    q = read_poly(w["quotient"], prime)
    problems = []
    if not any(ms):
        problems.append("every coefficient is zero")
    constant = all(set(m) <= {(0, 0)} for m in ms)
    if w["constant"] is not constant:
        problems.append(f"printed constant flag {w['constant']} disagrees with the coefficients")
    if kind == "certified_non_mixing" and not constant:
        problems.append("a certifying witness has a non-constant coefficient")
    if mul(q, f, prime) != relation(shape, k, ms, prime):
        problems.append("quotient * f differs from sum m_i u^(k n_i)")
    return problems


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def poly_rem(a, b, p):
    """The remainder of a by b over F_p, both coefficient lists with the
    constant first, b without trailing zeros and not empty."""
    a = _trim([x % p for x in a])
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c, off = a[-1] * inv % p, len(a) - len(b)
        for j, y in enumerate(b):
            a[off + j] = (a[off + j] - c * y) % p
        _trim(a)
    return a


def poly_product(a, b, p):
    """a times b over F_p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def poly_gcd(a, b, p):
    """A greatest common divisor of a and b over F_p, not made monic."""
    while b:
        a, b = b, poly_rem(a, b, p)
    return a


def shifted(f):
    """f times the monomial that makes its least exponents 0."""
    lo1 = min(e1 for e1, _ in f)
    lo2 = min(e2 for _, e2 in f)
    return {(e1 - lo1, e2 - lo2): c for (e1, e2), c in f.items()}


def lex_divmod(a, b, p):
    """(q, r) with a = q b + r over F_p, for a and b with exponents from 0
    and b not 0: each step cancels the lex-leading term of what is left
    of a by a multiple of b's, or moves it to r when b's leading term does
    not divide it.  r is 0 exactly when b divides a, since one polynomial
    is a Groebner basis of the ideal it generates."""
    a, q, r = dict(a), {}, {}
    (l1, l2), lead = max(b.items())
    inv = pow(lead, -1, p)
    while a:
        (e1, e2), c = max(a.items())
        if e1 < l1 or e2 < l2:
            r[e1, e2] = a.pop((e1, e2))
            continue
        t, s = (e1 - l1, e2 - l2), c * inv % p
        _add_term(q, t, s, p)
        for (b1, b2), cb in b.items():
            _add_term(a, (b1 + t[0], b2 + t[1]), -s * cb, p)
    return q, r


def reducible_problems(report):
    """The problems found in the `reducible` certificate of an `analyze`
    report (a parsed JSON object), read against the report's own `poly`
    and `prime`; [] when the factor and its quotient, neither a monomial,
    multiply to f."""
    p = report["prime"]
    f = shifted(read_poly(report["poly"], p))
    factor = read_poly(report["irreducibility"]["factor"], p)
    if not factor:
        return ["the factor is 0"]
    factor = shifted(factor)
    q, r = lex_divmod(f, factor, p)
    if r:
        return ["the factor does not divide f"]
    problems = [] if mul(q, factor, p) == f else ["quotient * factor differs from f"]
    if len(factor) == 1:
        problems.append("the factor is a monomial")
    if len(q) == 1:
        problems.append("the quotient is a monomial")
    return problems


def eisenstein_view(f, main_axis, inverted):
    """{i: q_i} for the nonzero q_i of f = sum q_i u1^i in the printed
    orientation, each q_i a coefficient list with the constant first."""
    mapped = {}
    for (e1, e2), c in f.items():
        a, b = (e2, e1) if main_axis == 2 else (e1, e2)
        mapped[a, -b if inverted else b] = c
    rows = {}
    for (a, b), c in shifted(mapped).items():
        rows.setdefault(a, {})[b] = c
    return {i: [row.get(j, 0) for j in range(max(row) + 1)] for i, row in rows.items()}


def eisenstein_problems(report):
    """The problems found in the irreducibility certificate of an
    `analyze` report (a parsed JSON object), read against the report's
    own `poly` and `prime`; [] when it checks or is not `eisenstein`."""
    cert = report["irreducibility"]
    if cert["method"] != "eisenstein":
        return [] if cert["method"] in OTHER_METHODS else [f"unknown method {cert['method']!r}"]
    p = report["prime"]
    axis, inverted = cert["main_axis"], cert["inverted"]
    if axis not in (1, 2) or isinstance(axis, bool) or not isinstance(inverted, bool):
        return [f"main_axis {axis!r}, inverted {inverted!r} names no orientation"]
    g_terms = read_poly(cert["g"], p)
    if any(e1 or e2 < 0 for e1, e2 in g_terms):
        return [f"g = {cert['g']} is not a polynomial in u2"]
    degree = max((e2 for _, e2 in g_terms), default=0)
    if degree not in (1, 2):
        return [f"g = {cert['g']} does not have degree 1 or 2"]
    g = [g_terms.get((0, j), 0) for j in range(degree + 1)]
    problems = []
    if degree == 2 and any((g[0] + g[1] * x + g[2] * x * x) % p == 0 for x in range(p)):
        problems.append(f"g = {cert['g']} has a root in F_{p}")
    cols = eisenstein_view(read_poly(report["poly"], p), axis, inverted)
    n = max(cols)
    if n < 1:
        return problems + ["the orientation has main degree 0"]
    content = []
    for q in cols.values():
        content = poly_gcd(q, content, p)
    if len(content) != 1:
        problems.append("the content of the q_i is not 1")
    if any(poly_rem(q, g, p) for i, q in cols.items() if i != n):
        problems.append("g does not divide every q_i below q_n")
    if not poly_rem(cols[n], g, p):
        problems.append("g divides q_n")
    if not poly_rem(cols[0], poly_product(g, g, p), p):
        problems.append("g^2 divides q_0")
    return problems


def _fraction(x):
    return Fraction(x["num"], x["den"])


def norm_problems(report):
    """The problems found in the face norms of an `analyze` report (a
    parsed JSON object); [] when each Newton record's `extended_norm` is
    its face's scaled outward normal and a segment has the other entry as
    its slope."""
    faces, records = report["faces"], report["newton"]
    if records and len(records) != len(faces):
        return [f"{len(records)} Newton records for {len(faces)} faces"]
    problems = []
    for i, (face, record) in enumerate(zip(faces, records)):
        (x0, y0), (x1, y1) = face["start"], face["end"]
        g = math.gcd(x1 - x0, y1 - y0)
        normal = ((y1 - y0) // g, (x0 - x1) // g)
        axis = record["valuation"]["coeff_axis"]
        if axis not in (1, 2) or isinstance(axis, bool) or normal[axis - 1] == 0:
            problems.append(f"face {i}: coeff_axis {axis!r} does not fit normal {normal}")
            continue
        k = abs(normal[axis - 1])
        want = (Fraction(normal[0], k), Fraction(normal[1], k))
        norm = record["extended_norm"]
        if (_fraction(norm["log_u1"]), _fraction(norm["log_u2"])) != want:
            problems.append(f"face {i}: extended_norm is not the scaled normal "
                            f"({want[0]}, {want[1]})")
        if all(_fraction(s["slope"]) != want[2 - axis] for s in record["segments"]):
            problems.append(f"face {i}: no segment has slope {want[2 - axis]}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--prime", type=int, help="the shape-test's --prime")
    parser.add_argument("--poly", help="the shape-test's --poly")
    args = parser.parse_args(argv)
    report = json.load(sys.stdin)
    if "irreducibility" in report:
        reducible = report["irreducibility"]["method"] == "reducible"
        problems = (reducible_problems if reducible else eisenstein_problems)(report)
        problems += norm_problems(report)
    elif args.prime is None or args.poly is None:
        parser.error("a shape-test report needs --prime and --poly")
    else:
        problems = witness_problems(report, args.poly, args.prime)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
