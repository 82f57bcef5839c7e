"""Surface syntax for Laurent polynomials, lattice-point lists and window lists.

Grammar (whitespace-insensitive)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := [int] ('*'? factor)*
    factor := var ('^' '-'? int)?
    var    := 'u1' | 'u2' | 't'
    int    := decimal digits (those int() reads; '²' is not one)

't' names the same axis as 'u1' (the one-variable view used for
identity scans).  Coefficients are reduced mod p, like terms merge and
zero terms drop, so parsing the canonical string of a polynomial always
round-trips.  Exponents are capped at |e| <= 2^20, for each factor and
for each variable's running total within a term, to keep the geometry
in a safe range.  Every polynomial parse error is a ParseError naming
the line and column of the offending character; tokens are (kind, value,
offset) triples, and line and column are computed from the offset only
when an error is raised.
"""

from __future__ import annotations

from .geometry import COORD_LIMIT
from .laurent import LaurentPoly

VAR_AXIS = {"u1": 0, "u2": 1, "t": 0}


class ParseError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        i = 0
        while i < len(text):
            ch = text[i]
            j = i + 1
            if ch.isspace():
                pass
            elif ch.isdecimal():
                # the digits int() accepts; '²' is a digit but not decimal
                while j < len(text) and text[j].isdecimal():
                    j += 1
                self.tokens.append(("int", int(text[i:j]), i))
            elif ch.isalpha():
                # variable names are fixed, so match them greedily; this is
                # what lets '*' be optional in products like "u1^3u2"
                name = next((n for n in VAR_AXIS if text.startswith(n, i)), None)
                if name is not None:
                    j = i + len(name)
                else:
                    while j < len(text) and text[j].isalnum():
                        j += 1
                self.tokens.append(("name", text[i:j], i))
            elif ch in "+-*^":
                self.tokens.append((ch, ch, i))
            else:
                self.error(f"unexpected character {ch!r}", i)
            i = j
        self.tokens.append(("end", None, len(text)))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, at=None):
        """Raise a ParseError at offset `at`, by default the next token's."""
        i = self.peek()[2] if at is None else at
        raise ParseError(message, *_position(self.text, i))


def _position(text, i, line=1):
    # 1-based (line, column) of offset i in text, whose first line is `line`
    return line + text.count("\n", 0, i), i - text.rfind("\n", 0, i)


def parse_poly(text: str, p: int) -> LaurentPoly:
    """Parse a polynomial expression into a LaurentPoly over F_p."""
    toks = _Tokens(text)
    terms = {}
    sign = 1
    if toks.peek()[0] == "-":
        toks.next()
        sign = -1
    while True:
        coeff, exp = _parse_term(toks)
        terms[exp] = terms.get(exp, 0) + sign * coeff
        kind = toks.peek()[0]
        if kind == "end":
            break
        if kind == "+":
            sign = 1
        elif kind == "-":
            sign = -1
        else:
            toks.error(f"expected '+' or '-' between terms, got {toks.peek()[1]!r}")
        toks.next()
    return LaurentPoly(terms, p)


def _parse_term(toks):
    coeff = 1
    exps = [0, 0]
    saw_anything = False
    if toks.peek()[0] == "int":
        coeff = toks.next()[1]
        saw_anything = True
    while True:
        kind = toks.peek()[0]
        if kind == "*":
            toks.next()
            kind = toks.peek()[0]
            if kind != "name":
                toks.error("expected a variable after '*'")
        if kind != "name":
            break
        at = toks.peek()[2]
        axis, exp = _parse_factor(toks)
        exps[axis] += exp
        if abs(exps[axis]) > COORD_LIMIT:
            toks.error(f"term exponent {exps[axis]} out of range (|e| <= 2^20)", at)
        saw_anything = True
    if not saw_anything:
        toks.error("expected a term")
    return coeff, tuple(exps)


def _parse_factor(toks):
    _, name, at = toks.next()
    if name not in VAR_AXIS:
        toks.error(f"unknown variable {name!r}", at)
    exp = 1
    if toks.peek()[0] == "^":
        toks.next()
        sign = 1
        if toks.peek()[0] == "-":
            toks.next()
            sign = -1
        if toks.peek()[0] != "int":
            toks.error("expected an integer exponent after '^'")
        exp = sign * toks.next()[1]
    if abs(exp) > COORD_LIMIT:
        toks.error(f"exponent {exp} out of range (|e| <= 2^20)", at)
    return VAR_AXIS[name], exp


def parse_points(text: str):
    """Parse a shape or tuple list like "(0,0);(1,0);(0,2)".

    A ParseError points at the first character of the chunk at fault.
    """
    return _points(text, 0, 1)


def parse_family_line(text: str, line: int = 1):
    """Parse one family-file line of the form "j: (a,b);(c,d);...".

    `line` is the line's number in its file, for the ParseError position.
    """
    label, colon, _ = text.partition(":")
    if not colon:
        raise ParseError(f"expected 'label: points' in {text!r}", line, 1)
    try:
        j = int(label.strip())
    except ValueError:
        at = len(label) - len(label.lstrip())
        raise ParseError(f"non-integer label in {text!r}", *_position(text, at, line)) from None
    return j, _points(text, len(label) + 1, line)


def parse_windows(text: str):
    """Parse a window list like "0,1,2": integers >= 0 between commas,
    empty entries skipped, at least one given.

    A ParseError points at the first character of the entry at fault, or
    at column 1 when there is no entry.
    """
    windows = []
    at = 0  # the offset of raw in text
    for raw in text.split(","):
        first = at + len(raw) - len(raw.lstrip())
        at += len(raw) + 1
        if not raw.strip():
            continue
        try:
            w = int(raw)
        except ValueError:
            w = -1
        if w < 0:
            raise ParseError(f"bad window list {text!r}", *_position(text, first))
        windows.append(w)
    if not windows:
        raise ParseError(f"bad window list {text!r}", 1, 1)
    return tuple(windows)


def _points(text, start, line):
    # the points of the ';'-separated chunks of text[start:]; text's first
    # line is `line` in its source
    pts = []
    at = start  # the offset of raw in text
    for raw in text[start:].split(";"):
        chunk, first = raw.strip(), at + len(raw) - len(raw.lstrip())
        at += len(raw) + 1
        if not chunk:
            continue
        where = _position(text, first, line)
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ParseError(f"expected '(a,b)', got {chunk!r}", *where)
        parts = chunk[1:-1].split(",")
        if len(parts) != 2:
            raise ParseError(f"expected two coordinates in {chunk!r}", *where)
        try:
            pt = (int(parts[0].strip()), int(parts[1].strip()))
        except ValueError:
            raise ParseError(f"non-integer coordinate in {chunk!r}", *where) from None
        if abs(pt[0]) > COORD_LIMIT or abs(pt[1]) > COORD_LIMIT:
            raise ParseError(f"coordinate out of range in {chunk!r}", *where)
        pts.append(pt)
    if not pts:
        raise ParseError("empty point list", *_position(text, start, line))
    return pts
