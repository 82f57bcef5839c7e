"""Re-check the relation witness of a printed `shape-test` report with code
that shares nothing with mixbound.

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

Run it on a saved report:

    python tests/recheck.py --prime 2 --poly "1+u1+u2" < report.json

It prints each problem found and exits 1 if there is one, else 0.
"""

import argparse
import json
import re
import sys

WITNESS_KINDS = ("certified_non_mixing", "relation_found")
OTHER_KINDS = ("geometrically_mixing", "unresolved")

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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--prime", type=int, required=True)
    parser.add_argument("--poly", required=True)
    args = parser.parse_args(argv)
    problems = witness_problems(json.load(sys.stdin), args.poly, args.prime)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
