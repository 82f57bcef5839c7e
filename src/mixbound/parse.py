"""Surface syntax for Laurent polynomials, lattice-point lists, family-file
lines and window lists.

Grammar (whitespace-insensitive)::

    expr    := ['-'] term (('+'|'-') term)*
    term    := [int] ('*'? factor)*
    factor  := var ('^' '-'? int)?
    var     := 'u1' | 'u2' | 't'
    int     := decimal digits (those int() reads; '²' is not one)

    points  := [point] (';' [point])*        at least one point
    point   := '(' integer ',' integer ')'
    line    := integer ':' points
    windows := [integer] (',' [integer])*    at least one entry, none < 0
    integer := ['+'|'-'] int

't' names the same axis as 'u1' (the one-variable view used for
identity scans).  Coefficients are reduced mod p, like terms merge and
zero terms drop, so parsing the canonical string of a polynomial always
round-trips.  Exponents, for each factor and for each variable's running
total within a term, and coordinates are capped at |e| <= 2^20 to keep
the geometry in a safe range.  Every parse error is a ParseError naming
the line and column of the token at fault, or of the end of the text
when something is missing.

parse_poly checks the modulus before the text: a p that is not a prime
below 2^16 is a plain ValueError, not a ParseError.  LaurentPoly and
FpPoly trust p, so a polynomial built from text is over the field F_p.
"""

from __future__ import annotations

from .fieldpoly import MAX_PRIME, is_prime
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
    """(kind, value, offset) tokens of `text`, which starts on line `line`,
    in a grammar whose punctuation is `punct`.  A character outside it ends
    them as a '?' token, for the grammar to name; else an 'end' token does."""

    def __init__(self, text, punct, line=1):
        self.text = text
        self.line = line
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
                try:
                    self.tokens.append(("int", int(text[i:j]), i))
                except ValueError:  # past sys.get_int_max_str_digits()
                    self.error(f"integer too long ({j - i} digits)", i)
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
            elif ch in punct:
                self.tokens.append((ch, ch, i))
            else:
                self.tokens.append(("?", ch, i))
                break
            i = j
        else:
            self.tokens.append(("end", None, len(text)))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, message):
        if self.peek()[0] != kind:
            self.error(message)
        return self.next()

    def error(self, message, at=None):
        """Raise a ParseError at offset `at`, by default the next token's."""
        i = self.peek()[2] if at is None else at
        line = self.line + self.text.count("\n", 0, i)
        raise ParseError(message, line, i - self.text.rfind("\n", 0, i))


def parse_poly(text: str, p: int) -> LaurentPoly:
    """Parse a polynomial expression into a LaurentPoly over F_p.

    Raises ValueError unless p is a prime below 2^16, before any
    ParseError in the text."""
    if not 2 <= p < MAX_PRIME:
        raise ValueError(f"prime modulus must lie in [2, 2^16), got {p}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    toks = _Tokens(text, "+-*^")
    kind, ch, at = toks.tokens[-1]
    if kind == "?":
        toks.error(f"unexpected character {ch!r}", at)
    terms = {}
    sign = -1 if toks.peek()[0] == "-" else 1
    if sign < 0:
        toks.next()
    while True:
        coeff, exp = _parse_term(toks)
        terms[exp] = terms.get(exp, 0) + sign * coeff
        kind = toks.peek()[0]
        if kind == "end":
            break
        if kind not in ("+", "-"):
            toks.error(f"expected '+' or '-' between terms, got {toks.peek()[1]!r}")
        sign = -1 if toks.next()[0] == "-" else 1
    return LaurentPoly(terms, p)


def _parse_term(toks):
    if toks.peek()[0] not in ("int", "name", "*"):
        toks.error("expected a term")
    coeff = toks.next()[1] if toks.peek()[0] == "int" else 1
    exps = [0, 0]
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
    return coeff, tuple(exps)


def _parse_factor(toks):
    _, name, at = toks.next()
    if name not in VAR_AXIS:
        toks.error(f"unknown variable {name!r}", at)
    exp = 1
    if toks.peek()[0] == "^":
        toks.next()
        sign = -1 if toks.peek()[0] == "-" else 1
        if sign < 0:
            toks.next()
        exp = sign * toks.expect("int", "expected an integer exponent after '^'")[1]
    if abs(exp) > COORD_LIMIT:
        toks.error(f"exponent {exp} out of range (|e| <= 2^20)", at)
    return VAR_AXIS[name], exp


def parse_points(text: str):
    """Parse a shape or tuple list like "(0,0);(1,0);(0,2)"."""
    return _entries(_Tokens(text, "+-(),;"), ";", _point, "empty point list")


def parse_family_line(text: str, line: int = 1):
    """Parse "j: (a,b);(c,d);...", which is line `line` of a family file."""
    toks = _Tokens(text, "+-(),;:", line)
    j = _integer(toks, f"non-integer label in {text!r}")
    toks.expect(":", f"expected 'label: points' in {text!r}")
    return j, _entries(toks, ";", _point, "empty point list")


def parse_windows(text: str):
    """Parse a window list like "0,1,2" of integers >= 0."""
    bad = f"bad window list {text!r}"

    def window(toks):
        at = toks.peek()[2]
        w = _integer(toks, bad)
        if w < 0 or toks.peek()[0] not in (",", "end"):
            toks.error(bad, at if w < 0 else None)
        return w

    return tuple(_entries(_Tokens(text, "+-,"), ",", window, bad))


def _entries(toks, sep, entry, empty):
    # [entry] (sep [entry])*, at least one entry; `empty` says there is none
    first = toks.peek()[2]
    values = []
    while toks.peek()[0] != "end":
        if toks.peek()[0] == sep:
            toks.next()
        else:
            values.append(entry(toks))
    if not values:
        toks.error(empty, first)
    return values


def _integer(toks, message):
    # ['+'|'-'] int at the cursor; `message` names a fault in it
    sign = -1 if toks.peek()[0] == "-" else 1
    if toks.peek()[0] in ("+", "-"):
        toks.next()
    return sign * toks.expect("int", message)[1]


def _point(toks):
    # '(' integer ',' integer ')', then ';' or the end; messages quote the
    # point's chunk, the text from its first token up to the next ';'
    start = toks.peek()[2]
    end = toks.text.find(";", start)
    chunk = repr(toks.text[start : end if end >= 0 else None].rstrip())
    toks.expect("(", f"expected '(a,b)', got {chunk}")
    pt = []
    for closer in (",", ")"):
        at = toks.peek()[2]
        pt.append(_integer(toks, f"non-integer coordinate in {chunk}"))
        if abs(pt[-1]) > COORD_LIMIT:
            toks.error(f"coordinate out of range in {chunk}", at)
        if toks.peek()[0] not in (",", ")", ";", "end"):
            toks.error(f"non-integer coordinate in {chunk}")
        toks.expect(closer, f"expected two coordinates in {chunk}")
    if toks.peek()[0] not in (";", "end"):
        toks.error(f"expected '(a,b)', got {chunk}")
    return tuple(pt)
