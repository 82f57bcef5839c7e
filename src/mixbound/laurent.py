"""Bivariate Laurent polynomials over F_p and the ideal machinery for a
single principal ideal <f>.

A LaurentPoly is a finite map from exponent vectors (e1, e2) in Z^2 to
nonzero residues mod p.

Every division modulo f goes through `NormalForm`.  After a unimodular
change of exponents the quotient F_p[u^±]/<f> is a free F_p[u2'^±]-module
of finite rank, and `NormalForm` reduces every element to its unique
representative (its normal form, NF).  It has two entries:
`NormalForm.divmod` returns NF(g) with the quotient q, the sum of the
multiples of f the reduction subtracted, and `NormalForm.shift` takes a
normal form to that of its product with a monomial, with no quotient.  g
lies in <f> exactly when NF(g) is empty; that is how `exact_divides` and
`in_ideal` are answered.

`combination_solve` searches for module relations
    m_1 u^{a_1} + ... + m_r u^{a_r} = q f.
A relation is a linear dependence among the NFs of the monomials
u^{a_i + w}, so a cell whose m_i range over the window [-W, W]^2 is one
homogeneous system over F_p with r (2W+1)^2 columns and no cofactor
unknowns; the reduction records q only when a relation exists.

Multiplying by a monomial commutes with reduction: NF(u^e g) is
`NormalForm.shift(NF(g), e)`.  So column (i, w) is the base NF(u^{a_i})
shifted by w, and along a dilation ray a_i = k n_i the bases satisfy
NF(u^{(k+1) n_i}) = shift(NF(u^{k n_i}), n_i).  A search over k carries
its r bases from k to k+1 with one shift each and hands them to
`combination_solve`, instead of reducing u^{k n_i} from 1 in every cell
(about k^2 work per cell, kmax^3 per grid).
"""

from __future__ import annotations

from . import linalg
from .fieldpoly import FpPoly


class LaurentPoly:
    """Immutable Laurent polynomial in u1, u2 over F_p.

    p is trusted to be a prime below 2^16: `parse.parse_poly` checks it,
    and every arithmetic result is built from an already checked p."""

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


def normalize(f: LaurentPoly):
    """Split f = u^shift * f2 with every exponent of f2 nonnegative and
    exponent 0 attained in each variable.  Errors on f = 0."""
    if f.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    s1 = min(e1 for e1, _ in f.support())
    s2 = min(e2 for _, e2 in f.support())
    return (s1, s2), f.shift((-s1, -s2))


def exponent_columns(f: LaurentPoly, swap=False):
    """{i: increasing u2-exponents of the u1^i terms of f} for the
    nonzero columns, after exchanging u1 and u2 when `swap`.  One pass
    over f's terms, which come sorted by (e1, e2), and no rewrite."""
    cols = {}
    for (a, b), _ in f.terms():
        cols.setdefault(b if swap else a, []).append(a if swap else b)
    return cols


def columns(f: LaurentPoly, swap=False):
    """{i: q_i} for the nonzero q_i of f read as sum q_i(u2) u1^i over
    F_p[u2], in increasing i, after exchanging u1 and u2 when `swap`.

    The view is normalized: the least i is 0 and every u2-exponent is
    shifted by the least one.  f's terms are read once: each exponent is
    mapped, the minima give the shift, and the shifted terms fill the
    coefficient lists of their columns; no zero column is built.  Errors
    on f = 0.
    """
    if f.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    terms = [(b, a, c) if swap else (a, b, c) for (a, b), c in f.terms()]
    s1 = min(t[0] for t in terms)
    s2 = min(t[1] for t in terms)
    cols = {}
    for e1, e2, c in terms:
        col, j = cols.setdefault(e1 - s1, []), e2 - s2
        col += [0] * (j + 1 - len(col))
        col[j] = c
    return {i: FpPoly(cols[i], f.p) for i in sorted(cols)}


def exact_divides(f: LaurentPoly, g: LaurentPoly):
    """Quotient q with g = f * q in the Laurent ring, or None.

    `NormalForm.divmod` reduces g modulo f and records the multiples of f
    it subtracts: f divides g exactly when the normal form is empty, and
    the recorded multiples then sum to q.  A monomial f = c u^e is a
    unit: its width is 0, every term is cancelled, and q = c^-1 u^-e g.
    """
    if f.is_zero():
        raise ValueError("division by the zero polynomial")
    q, r = NormalForm(f).divmod(g)
    return None if r else q


def in_ideal(g: LaurentPoly, f: LaurentPoly) -> bool:
    """Membership of g in the principal Laurent ideal <f>: the normal form
    of g modulo f is empty.

    f must not be a monomial (monomials are units, the quotient ring is
    trivial and membership is vacuous)."""
    if f.is_zero():
        raise ValueError("the zero ideal needs no membership test")
    if f.is_monomial():
        raise ValueError("monomial generator: <f> is the unit ideal")
    return not NormalForm(f).divmod(g)[1]


def relation_sum(f: LaurentPoly, shape, k, ms) -> LaurentPoly:
    """The relation sum m_i u^(k n_i) over the points n_i of shape."""
    combo = LaurentPoly.zero(f.p)
    for m, n in zip(ms, shape):
        combo = combo + m.shift((k * n[0], k * n[1]))
    return combo


class NormalForm:
    """Normal forms of Laurent polynomials modulo <f>.

    The exponent map (e1, e2) -> (e1 + t e2, e2) is unimodular; t is the
    first of 0, 1, -1, 2, -2, ... for which e1 + t e2 attains its maximum
    and its minimum over support(f) exactly once.  In the new variables
    the extreme u1'-coefficients of f are monomials, which are units of
    F_p[u2'^±], so dividing by f leaves a unique remainder whose
    u1'-degrees lie in [0, width): the quotient ring is free over
    F_p[u2'^±] with basis 1, u1', ..., u1'^(width-1).

    A normal form is a dict {(u1'-degree, u2'-exponent): residue}; it is
    empty exactly when the element lies in <f>.  `divmod` returns it with
    the quotient, the sum of the multiples of f the reduction subtracted;
    `shift` multiplies an element given by its normal form by a monomial.
    A monomial f has width 0: it is a unit and every NF is empty.
    """

    def __init__(self, f: LaurentPoly):
        if f.is_zero():
            raise ValueError("normal forms need a nonzero f")
        # a t fails only when (1, t) is normal to an edge of the hull of
        # support(f), and the hull has finitely many edges
        t = 0
        while True:
            levels = [e1 + t * e2 for e1, e2 in f.support()]
            lo, hi = min(levels), max(levels)
            if levels.count(lo) == 1 and levels.count(hi) == 1:
                break
            t = -t if t > 0 else 1 - t
        self.p = f.p
        self.t = t
        self.width = hi - lo
        self._lo = lo
        gen = [(e1 + t * e2 - lo, e2, c) for (e1, e2), c in f.terms()]
        (_, self._lead_e2, lead), = [g for g in gen if g[0] == self.width]
        (_, self._trail_e2, trail), = [g for g in gen if g[0] == 0]
        self._lead_inv = pow(lead, -1, f.p)
        self._trail_inv = pow(trail, -1, f.p)
        self._below_lead = [g for g in gen if g[0] != self.width]
        self._above_trail = [g for g in gen if g[0] != 0]

    def shift(self, nf, e):
        """NF of u^e times the element whose normal form is nf."""
        d1, d2 = e[0] + self.t * e[1], e[1]
        return self._reduce({(j + d1, k + d2): c for (j, k), c in nf.items()})

    def divmod(self, g: LaurentPoly):
        """(q, NF(g)) with g - q f the element whose normal form is NF(g)."""
        t = self.t
        quotient = {}
        nf = self._reduce({(e1 + t * e2, e2): c for (e1, e2), c in g.terms()},
                          quotient)
        q = LaurentPoly({(j - t * k, k): c for (j, k), c in quotient.items()}, self.p)
        return q, nf

    def _reduce(self, terms, quotient=None):
        p, width, lo = self.p, self.width, self._lo
        rows = {}
        for (j, k), c in terms.items():
            rows.setdefault(j, {})[k] = c

        def subtract(scale, shift, body, offset):
            # rows -= scale * u1'^offset u2'^shift * body, which removes the
            # multiple scale * u1'^(offset - lo) u2'^shift * f (f in the
            # sheared exponents); `divmod` records it in quotient
            if quotient is not None:
                quotient[(offset - lo, shift)] = scale
            for gj, gk, gc in body:
                target = rows.setdefault(offset + gj, {})
                key = gk + shift
                v = (target.get(key, 0) - scale * gc) % p
                if v:
                    target[key] = v
                else:
                    target.pop(key, None)

        # degrees >= width: cancel against the lead monomial of f, which
        # only writes to lower degrees that stay >= 0
        for j in range(max(rows, default=0), width - 1, -1):
            for k, c in rows.pop(j, {}).items():
                subtract(c * self._lead_inv, k - self._lead_e2,
                         self._below_lead, j - width)
        # degrees < 0: cancel against the trail monomial, which only
        # writes to higher degrees that stay < width
        for j in range(min(rows, default=0), 0):
            for k, c in rows.pop(j, {}).items():
                subtract(c * self._trail_inv, k - self._trail_e2,
                         self._above_trail, j)
        return {(j, k): c for j, row in rows.items() for k, c in row.items()}


def _window_box(w):
    return [(e1, e2) for e1 in range(-w, w + 1) for e2 in range(-w, w + 1)]


def combination_solve(f: LaurentPoly, points, window, *, bases=None):
    """Find m_i, not all zero, with sum_i m_i u^{points[i]} in <f>.

    Each m_i ranges over the window box [-W, W]^2.  W = 0 is the
    constant cell: every m_i is a constant, the only kind of relation
    that certifies a non-mixing shape, and shape_witness_search solves
    it first at every dilation.  The unknowns are the coefficients of
    the m_i (m_1 block lex first, then m_2, ...), and column (i, w) of
    the system is NF(u^{a_i + w}) flattened over its (u1'-degree,
    u2'-exponent) keys: r (2W+1)^2 columns, r for the constant cell.
    Its nullspace is the space V of valid m-tuples.

    The witness is fixed by V alone: append the cofactor q of each
    relation (from `NormalForm.divmod`) in lex order after the m blocks,
    and take the basis of these (m, q) vectors in which each vector's
    last nonzero entry is a 1 that no other vector has.  Among that
    basis the lexicographically smallest vector wins.

    Basis vectors in which some m_i vanishes in the quotient module
    (the literal zero, or a nonzero multiple of f: NF(m_i) is empty)
    are discarded; if that empties the basis the solve is repeated with
    the offending block removed, so a returned zero m_i only ever means
    "this point does not participate in the relation".  The winning
    tuple is then normalized by a unit: all m_i are shifted and scaled
    so the first nonzero one has its lexicographically smallest term
    equal to 1, which makes witnesses reproducible across runs.

    `bases`, when given, holds NF(u^{points[i]}) for every point, as
    `NormalForm.shift` or `NormalForm.divmod` returns it (the normal form
    is unique, so any dict equal to it will do); each column is then that
    base shifted by its window offset, and the constant cell shifts nothing.
    shape_witness_search carries them along the dilation ray.  Without
    it each base is reduced from the monomial 1.

    Returns the list of m_i or None.  Each canonical basis vector is
    checked against the cell's own rows, or RuntimeError is raised; those
    rows are the normal forms that built the system, so the check
    catches a wrong kernel or basis vector, not a fault in the reduction.
    The check independent of it is `mixing.make_witness`, which
    multiplies the quotient back; direct callers re-check with `in_ideal`.
    """
    if f.is_zero() or f.is_monomial():
        raise ValueError("relation search needs a non-monomial, nonzero f")
    pts = [tuple(pt) for pt in points]
    if len(set(pts)) != len(pts):
        raise ValueError("relation points must be distinct")
    if window < 0:
        raise ValueError("window must be nonnegative")
    nf = NormalForm(f)
    if bases is None:
        bases = [nf.shift({(0, 0): 1}, pt) for pt in pts]
    elif len(bases) != len(pts):
        raise ValueError("one normal form per relation point is needed")
    return _solve_blocks(nf, pts, bases, _window_box(window),
                         active=tuple(range(len(pts))))


def _solve_blocks(nf, pts, bases, box, active):
    p = nf.p
    columns = [(i, w) for i in active for w in box]
    images = [bases[i] if w == (0, 0) else nf.shift(bases[i], w)
              for i, w in columns]
    row_index = {key: r for r, key in enumerate(sorted(set().union(*images)))}
    rows = [[0] * len(columns) for _ in row_index]
    for col, image in enumerate(images):
        for key, c in image.items():
            rows[row_index[key]][col] = c
    relations = linalg.nullspace(rows, len(columns), p)
    survivors = []
    offenders = set()
    for vec in _canonical_basis(nf, pts, columns, relations):
        if any(sum(a * b for a, b in zip(row, vec)) % p for row in rows):
            raise RuntimeError("kernel vector is not a relation")
        ms = _extract_ms(vec, columns, pts, p)
        bad = [i for i in active if not nf.divmod(ms[i])[1]]
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
        ms = _solve_blocks(nf, pts, bases, box, remaining)
        if ms is not None:
            return ms
    return None


def _canonical_basis(nf, pts, columns, relations):
    # the basis of {(m, q) : sum m_i u^{a_i} = q f} with q's coefficients
    # in lex order after the m blocks, reduced so that each vector's last
    # nonzero entry is a 1 that no other vector has: the row-reduced
    # echelon form taken over the reversed column order
    p = nf.p
    graphs = []
    for rel in relations:
        combo = sum((m.shift(a) for m, a in zip(_extract_ms(rel, columns, pts, p), pts)),
                    LaurentPoly.zero(p))
        graphs.append((rel, nf.divmod(combo)[0]))
    qcols = sorted(set().union(*(q.support() for _, q in graphs)))
    rows = [list(rel) + [q.coeff(v) for v in qcols] for rel, q in graphs]
    ncols = len(columns) + len(qcols)
    reduced = linalg.row_reduce([row[::-1] for row in rows], ncols, p)
    return [tuple(row[::-1]) for row in reduced]


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
    for val, (i, w) in zip(vec, columns):
        if val:
            ms_terms[i][w] = val
    return [LaurentPoly(t, p) for t in ms_terms]
