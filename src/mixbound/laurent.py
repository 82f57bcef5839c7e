"""Bivariate Laurent polynomials over F_p and the ideal machinery for a
single principal ideal <f>.

A LaurentPoly is a finite map from exponent vectors (e1, e2) in Z^2 to
nonzero residues mod p.  Monomials are units, so divisibility questions
are settled on the normalized polynomial parts: exact division runs in
(F_p[u2])[u1] after a content / primitive-part split, which keeps every
coefficient step inside F_p[u2].

`combination_solve` searches for module relations
    m_1 u^{a_1} + ... + m_r u^{a_r} = q f
by solving one homogeneous linear system over F_p whose unknowns are the
coefficients of the m_i (over a square window) and of the cofactor q
(over the smallest provably sufficient support box).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import geometry, linalg
from .fieldpoly import FpPoly, content as fp_content


class LaurentPoly:
    """Immutable Laurent polynomial in u1, u2 over F_p."""

    __slots__ = ("_terms", "_key", "p")

    def __init__(self, terms, p):
        clean = {}
        for (e1, e2), c in terms.items():
            c %= p
            if c:
                clean[(int(e1), int(e2))] = c
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_key", tuple(sorted(clean.items())))
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls, p):
        return cls({}, p)

    @classmethod
    def one(cls, p):
        return cls({(0, 0): 1}, p)

    @classmethod
    def monomial(cls, e, p, c=1):
        return cls({tuple(e): c}, p)

    def terms(self):
        """Terms in lexicographic (e1, e2) order."""
        return self._key

    def coeff(self, e):
        return self._terms.get(tuple(e), 0)

    def support(self):
        """Exponent vectors with nonzero coefficient."""
        return set(self._terms)

    def is_zero(self):
        return not self._terms

    def is_monomial(self):
        return len(self._terms) == 1

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.p == other.p
            and self._key == other._key
        )

    def __hash__(self):
        return hash((self.p, self._key))

    def __add__(self, other):
        self._check(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out, self.p)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self._terms.items()}, self.p)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for (a1, a2), ca in self._terms.items():
            for (b1, b2), cb in other._terms.items():
                e = (a1 + b1, a2 + b2)
                out[e] = out.get(e, 0) + ca * cb
        return LaurentPoly(out, self.p)

    def _check(self, other):
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"expected LaurentPoly, got {type(other).__name__}")
        if other.p != self.p:
            raise ValueError("mixed moduli")

    def scale(self, c):
        return LaurentPoly({e: c * v for e, v in self._terms.items()}, self.p)

    def shift(self, e):
        """Multiply by the monomial u^e (a unit)."""
        d1, d2 = e
        return LaurentPoly(
            {(e1 + d1, e2 + d2): c for (e1, e2), c in self._terms.items()}, self.p
        )

    def map_exponents(self, mat):
        """Apply an integer-linear change of exponents ((a,b),(c,d))."""
        (a, b), (c, d) = mat
        return LaurentPoly(
            {(a * e1 + b * e2, c * e1 + d * e2): v for (e1, e2), v in self._terms.items()},
            self.p,
        )

    def swap_vars(self):
        """Exchange u1 and u2."""
        return self.map_exponents(((0, 1), (1, 0)))

    def invert_u2(self):
        """Substitute u2 -> u2^(-1)."""
        return self.map_exponents(((1, 0), (0, -1)))

    def __repr__(self):
        return f"LaurentPoly({self.to_string()!r}, p={self.p})"

    def to_string(self):
        """Canonical string: lex-ordered terms, coefficients in [1, p)."""
        if not self._key:
            return "0"
        parts = []
        for (e1, e2), c in self._key:
            factors = []
            if c != 1 or (e1 == 0 and e2 == 0):
                factors.append(str(c))
            if e1:
                factors.append("u1" if e1 == 1 else f"u1^{e1}")
            if e2:
                factors.append("u2" if e2 == 1 else f"u2^{e2}")
            parts.append("*".join(factors))
        return "+".join(parts)


@dataclass(frozen=True)
class PolyInU1:
    """f written as sum q_i(u2) u1^i after clearing negative exponents.

    `shift` is the monomial multiplier that was divided out, so that
    u^shift * (this polynomial) reproduces the source exactly; the first
    and last coefficients are nonzero.
    """

    coeffs: tuple
    shift: tuple
    p: int

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0].is_zero() or self.coeffs[-1].is_zero():
            raise ValueError("PolyInU1 requires nonzero first and last coefficients")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def to_laurent(self) -> LaurentPoly:
        terms = {}
        s1, s2 = self.shift
        for i, q in enumerate(self.coeffs):
            for j, c in enumerate(q.coeffs):
                if c:
                    terms[(i + s1, j + s2)] = c
        return LaurentPoly(terms, self.p)


def normalize(f: LaurentPoly):
    """Split f = u^shift * f2 with every exponent of f2 nonnegative and
    exponent 0 attained in each variable.  Errors on f = 0."""
    if f.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    s1 = min(e1 for e1, _ in f.support())
    s2 = min(e2 for _, e2 in f.support())
    return (s1, s2), f.shift((-s1, -s2))


def as_poly_in_u1(f: LaurentPoly) -> PolyInU1:
    """Normalized view of f as a polynomial in u1 over F_p[u2]."""
    shift, g = normalize(f)
    n = max(e1 for e1, _ in g.support())
    cols = [{} for _ in range(n + 1)]
    for (e1, e2), c in g.terms():
        cols[e1][e2] = c
    coeffs = []
    for col in cols:
        if col:
            deg = max(col)
            coeffs.append(FpPoly([col.get(i, 0) for i in range(deg + 1)], f.p))
        else:
            coeffs.append(FpPoly.zero(f.p))
    return PolyInU1(tuple(coeffs), shift, f.p)


def _divide_in_polyring(num_coeffs, den_coeffs, p):
    # exact division of polynomials in (F_p[u2])[u1]; None when not exact.
    # When den | num every intermediate leading coefficient divides exactly,
    # so a failed coefficient division proves non-divisibility.
    rem = list(num_coeffs)
    dn = len(den_coeffs) - 1
    lead = den_coeffs[-1]
    if len(rem) - 1 < dn:
        return None
    qlen = len(rem) - dn
    quotient = [FpPoly.zero(p)] * qlen
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c.is_zero():
            continue
        qc, r = divmod(c, lead)
        if not r.is_zero():
            return None
        quotient[i - dn] = qc
        for j, dc in enumerate(den_coeffs):
            rem[i - dn + j] = rem[i - dn + j] - qc * dc
    if any(not r.is_zero() for r in rem):
        return None
    return quotient


def exact_divides(f: LaurentPoly, g: LaurentPoly):
    """Quotient q with g = f * q in the Laurent ring, or None.

    Both operands are normalized to polynomial form; the polynomial parts
    are split into content (monic gcd of the u2-coefficients) and
    primitive part, and both splits must divide exactly (Gauss's lemma).
    The monomial shifts recombine into the quotient afterwards.
    """
    if f.is_zero():
        raise ValueError("division by the zero polynomial")
    if g.is_zero():
        return LaurentPoly.zero(f.p)
    fu = as_poly_in_u1(f)
    gu = as_poly_in_u1(g)
    fshift, gshift = fu.shift, gu.shift
    if gu.degree < fu.degree:
        return None
    cf = fp_content(fu.coeffs)
    cg = fp_content(gu.coeffs)
    cq, crem = divmod(cg, cf)
    if not crem.is_zero():
        return None
    fprim = [q // cf for q in fu.coeffs]
    gprim = [q // cg for q in gu.coeffs]
    qprim = _divide_in_polyring(gprim, fprim, f.p)
    if qprim is None:
        return None
    terms = {}
    for i, qc in enumerate(qprim):
        prod = qc * cq
        for j, c in enumerate(prod.coeffs):
            if c:
                terms[(i, j)] = c
    quotient = LaurentPoly(terms, f.p)
    return quotient.shift((gshift[0] - fshift[0], gshift[1] - fshift[1]))


def in_ideal(g: LaurentPoly, f: LaurentPoly) -> bool:
    """Membership of g in the principal Laurent ideal <f>.

    f must not be a monomial (monomials are units, the quotient ring is
    trivial and membership is vacuous)."""
    if f.is_zero():
        raise ValueError("the zero ideal needs no membership test")
    if f.is_monomial():
        raise ValueError("monomial generator: <f> is the unit ideal")
    if g.is_zero():
        return True
    return exact_divides(f, g) is not None


def _window_box(w):
    return [(e1, e2) for e1 in range(-w, w + 1) for e2 in range(-w, w + 1)]


def _cofactor_box(f, points, box):
    # support(q) is contained in hull(points + box) - hull(S(f)): the hull
    # of q f is the Minkowski sum of the factor hulls, and it must fit
    # inside the hull of the allowed relation support.
    outer_pts = geometry.minkowski_sum_points(points, box)
    outer = geometry.convex_hull(outer_pts)
    inner = geometry.convex_hull(f.support())
    return geometry.lattice_points_of_difference(outer, inner)


def combination_solve(f: LaurentPoly, points, window):
    """Find m_i, not all zero, with sum_i m_i u^{points[i]} in <f>.

    Each m_i ranges over the window box [-W, W]^2.  W = 0 is the
    constant cell: every m_i is a constant, the only kind of relation
    that certifies a non-mixing shape, and shape_witness_search solves
    it first at every dilation.  The homogeneous system
    sum m_i u^{a_i} - q f = 0  is solved over F_p with a deterministic
    unknown order (m_1 block lex first, then m_2, ..., then q lex);
    among the reduced-echelon kernel basis the lexicographically
    smallest coefficient vector wins.

    Basis vectors in which some m_i vanishes in the quotient module
    (the literal zero, or a nonzero multiple of f) are discarded; if
    that empties the kernel the solve is repeated with the offending
    block removed, so a returned zero m_i only ever means "this point
    does not participate in the relation".  The winning tuple is then
    normalized by a unit: all m_i are shifted and scaled so the first
    nonzero one has its lexicographically smallest term equal to 1,
    which makes witnesses reproducible across runs.

    Returns the list of m_i or None.  The result is re-verified by
    expansion and ideal membership before being returned.
    """
    if f.is_zero() or f.is_monomial():
        raise ValueError("relation search needs a non-monomial, nonzero f")
    pts = [tuple(pt) for pt in points]
    if len(set(pts)) != len(pts):
        raise ValueError("relation points must be distinct")
    if window < 0:
        raise ValueError("window must be nonnegative")
    ms = _solve_blocks(f, pts, _window_box(window), active=tuple(range(len(pts))))
    if ms is None:
        return None
    combo = LaurentPoly.zero(f.p)
    for m, a in zip(ms, pts):
        combo = combo + m.shift(a)
    if not in_ideal(combo, f):
        raise RuntimeError("solver returned a vector that fails re-verification")
    return ms


def _solve_blocks(f, pts, box, active):
    p = f.p
    qbox = _cofactor_box(f, [pts[i] for i in active], box)
    columns = []  # (kind, payload): ('m', i, w) or ('q', v)
    for i in active:
        for w in box:
            columns.append(("m", i, w))
    for v in qbox:
        columns.append(("q", v))
    if not columns:
        return None
    row_exps = set()
    for i in active:
        a1, a2 = pts[i]
        for w1, w2 in box:
            row_exps.add((a1 + w1, a2 + w2))
    fterms = f.terms()
    for v1, v2 in qbox:
        for (s1, s2), _ in fterms:
            row_exps.add((v1 + s1, v2 + s2))
    row_index = {e: r for r, e in enumerate(sorted(row_exps))}
    rows = [[0] * len(columns) for _ in row_exps]
    for col, spec in enumerate(columns):
        if spec[0] == "m":
            _, i, (w1, w2) = spec
            a1, a2 = pts[i]
            rows[row_index[(a1 + w1, a2 + w2)]][col] = 1
        else:
            _, (v1, v2) = spec
            for (s1, s2), c in fterms:
                rows[row_index[(v1 + s1, v2 + s2)]][col] = (-c) % p
    basis = linalg.nullspace(rows, len(columns), p)
    survivors = []
    offenders = set()
    for vec in basis:
        ms = _extract_ms(vec, columns, pts, p)
        bad = [
            i
            for i in active
            if ms[i].is_zero() or exact_divides(f, ms[i]) is not None
        ]
        if bad:
            offenders.update(bad)
        else:
            survivors.append((vec, ms))
    if survivors:
        return _unit_canonicalize(min(survivors, key=lambda pair: pair[0])[1])
    for bad in sorted(offenders):
        remaining = tuple(i for i in active if i != bad)
        if len(remaining) < 2:
            continue
        ms = _solve_blocks(f, pts, box, remaining)
        if ms is not None:
            return ms
    return None


def _unit_canonicalize(ms):
    # divide the whole tuple by the unit c*u^e, where c*u^e is the
    # lex-smallest term of the first nonzero entry
    for m in ms:
        if not m.is_zero():
            (e1, e2), c = m.terms()[0]
            cinv = pow(c, -1, m.p)
            return [mi.shift((-e1, -e2)).scale(cinv) for mi in ms]
    return ms


def _extract_ms(vec, columns, pts, p):
    ms_terms = [dict() for _ in pts]
    for val, spec in zip(vec, columns):
        if val and spec[0] == "m":
            _, i, w = spec
            ms_terms[i][w] = val
    return [LaurentPoly(t, p) for t in ms_terms]
