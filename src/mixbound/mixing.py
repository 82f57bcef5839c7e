"""Mixing analysis of the Z^2-action attached to F_p[u1^±1, u2^±1]/<f>.

The geometry of the hull of f bounds the order of mixing: an R-gon hull
with f irreducible gives R-1 <= order < |S(f)|, so support = hull
vertices pins the order exactly.  The same hull bears on the
irreducibility the window needs: by Ostrowski's theorem the Newton
polygon of g h is the Minkowski sum of those of g and h, so a hull that
does not split into two polygons of positive width in both coordinates
leaves the brute-force factor search nothing to find.  Eisenstein's
criterion often needs no rewrite of f: when a u1-coefficient below the
top one is a monomial, the gcd c of those coefficients is a power of
u2, so u2 is the only candidate prime and f's exponents decide it.
Shapes of lattice points are classified by one geometric test, which
peels off the points that uniquely maximize a hull face's outward
normal, and then by an explicit search for module relations
sum m_i u^{k n_i} = 0 mod f.  The geometric test needs f irreducible:
it gives no verdict for a reducible f, and a conditional one when
irreducibility is not certified.  Only relations with constant m_i
certify non-mixing.  A certified witness is checked by multiplying its
quotient back to the constant relation at k; the p-th power map fixes
constants, so that relation carries over to every dilation k p^j.
"""

from __future__ import annotations

from typing import NamedTuple

from . import geometry
from .fieldpoly import (
    FpPoly,
    content as fp_content,
    factor_monic,
    gcd as fp_gcd,
    irreducible_factors,
    is_irreducible,
    monic_divisors,
)
from .laurent import (
    LaurentPoly,
    NormalForm,
    columns,
    combination_solve,
    exact_divides,
    exponent_columns,
    relation_sum,
)

KMAX_DEFAULT = 16
WINDOWS_DEFAULT = (0, 1, 2)
BRUTE_FORCE_BIDEGREE = (4, 4)
BRUTE_FORCE_PRIMES = (2, 3)
VOLOCH_MMAX = 1 << 16
KMAX_LIMIT = 512

CERTIFIED_NON_MIXING = "certified_non_mixing"
GEOMETRICALLY_MIXING = "geometrically_mixing"
RELATION_FOUND = "relation_found"
UNRESOLVED = "unresolved"


class DegenerateInput(ValueError):
    """Zero or monomial input: the quotient ring is trivial."""


class WitnessError(RuntimeError):
    """A relation witness or an irreducibility certificate failed its
    independent re-verification."""


# ---------------------------------------------------------------------------
# irreducibility certification


class IrreducibilityCertificate(NamedTuple):
    """How (or whether) irreducibility of f was established.

    method is a key of `METHODS`.  Eisenstein certificates record the
    orientation (which variable was the main one, whether the coefficient
    variable was inverted) and the prime g; brute-force certificates
    record the factor bidegree that was exhausted, which only a repeated
    search can check; 'reducible' carries a witness factor.
    """

    method: str
    main_axis: int | None = None
    inverted: bool = False
    g: FpPoly | None = None
    searched_bidegree: tuple | None = None
    factor: LaurentPoly | None = None

    @property
    def certifies_irreducible(self):
        return METHODS[self.method].proves_irreducible


def eisenstein_certify(f: LaurentPoly):
    """Try Eisenstein's criterion in all four orientations.

    In each orientation f is read as sum_{i<=n} q_i(u2) u1^i, and c is
    gcd(q_0, ..., q_{n-1}).  The criterion needs a prime g with g | c and
    g^2 not dividing q_0, and gcd(c, q_n) = 1 (so no coefficient factor
    hides a non-unit); g | c already gives g | q_i for i < n and, with
    gcd(c, q_n) = 1, g not dividing q_n.  The candidates g are the monic
    irreducible factors of c of degree at most 2, found by trial division
    of c, degree 1 first.  Returns the first success in the order
    (main_axis, inverted) = (1, False), (1, True), (2, False), (2, True).

    `laurent.exponent_columns` gives, per main axis, the u2-exponents of
    each nonzero q_i, as f has them.  When some q_i below q_n is a
    monomial a u2^k, c divides u2^k, so c is a power of u2 and g = u2 is
    the one candidate.  It certifies exactly when q_n holds f's least
    u2-exponent, q_0 one more, and no q_i below q_n fewer than q_0: in the
    normalized view that is u2 | c, u2 not dividing q_n and u2^2 not
    dividing q_0.  Only the other plain orientations are read by
    `laurent.columns`; there a constant c takes no gcd.

    The inverted orientation, u2 -> 1/u2, needs no view.  It turns each
    q_i into u2^(D - deg q_i) times its reversal, D the largest degree of
    the q_i.  Reversal maps the candidates prime to u2, and the parts of c
    and q_n prime to u2, onto each other with every condition kept, and
    normalization leaves c or q_n prime to u2; so a prime other than u2
    certifies the inverted orientation only where the plain one, tried
    first, is certified.  Left is g = u2 at infinity, the place of the
    degree norm: once the plain orientation has gcd(c, q_n) = 1 (as it
    has when c is a power of u2), the rule above on f's greatest
    u2-exponents, with one less in place of one more, decides it.
    """
    if f.is_zero() or f.is_monomial():
        raise DegenerateInput("Eisenstein needs a non-monomial, nonzero polynomial")
    for main_axis in (1, 2):
        swap = main_axis == 2
        cols = exponent_columns(f, swap)
        first, top = min(cols), max(cols)
        if first == top:
            continue
        q0, qn = cols[first], cols.pop(top)
        # g = u2 at u2 = 0, then at u2 = infinity, on f's u2-exponents
        at_zero = min(es[0] for es in cols.values()) == q0[0] == qn[0] + 1
        at_infinity = max(es[-1] for es in cols.values()) == q0[-1] == qn[-1] - 1
        if any(len(es) == 1 for es in cols.values()):
            g, coprime = FpPoly.x(f.p) if at_zero else None, True
        else:
            g, coprime = _eisenstein_prime(columns(f, swap=swap))
        inverted = g is None and coprime
        g = FpPoly.x(f.p) if inverted and at_infinity else g
        if g is not None:
            return IrreducibilityCertificate("eisenstein", main_axis, inverted, g)
    return None


def _eisenstein_prime(cols):
    # (g, coprime) on the columns q_0, ..., q_n of a view with n >= 1: the
    # first candidate g meeting the criterion, or None, and whether
    # gcd(c, q_n) = 1.  c's part gcd(c, t^(p^2) - t), the product of its
    # distinct factors of degree <= 2, has the same candidates in the same
    # order.  From degree 3 on, c may hold a factor of degree > 2 that the
    # part leaves out, where trial division of c would draw all p linears
    # (and from degree 4 all p^2 quadratics)
    n = max(cols)
    c = fp_content(q for i, q in cols.items() if i != n)
    if c.degree == 0 or fp_gcd(c, cols[n]).degree > 0:
        return None, c.degree == 0
    if c.degree > 2:
        t = FpPoly.x(c.p)
        c = fp_gcd(c, pow(pow(t, c.p, c), c.p, c) - t)
    for g, _ in irreducible_factors(c, 2):
        if not (g * g).divides(cols[0]):
            return g, True
    return None, True


def verify_eisenstein(f: LaurentPoly, cert: IrreducibilityCertificate) -> bool:
    """Re-check every Eisenstein condition recorded in the certificate,
    the primality of g included, on the view it names; an inverted view
    first negates the coefficient variable's exponents."""
    if cert.method != "eisenstein":
        return False
    g = cert.g
    if g.degree < 1 or not is_irreducible(g):
        return False
    swap = cert.main_axis == 2
    if cert.inverted:
        f = f.map_exponents(((-1, 0), (0, 1)) if swap else ((1, 0), (0, -1)))
    cols = columns(f, swap=swap)
    n = max(cols)
    if n < 1 or fp_content(cols.values()).degree != 0:
        return False
    return (
        all(g.divides(q) for i, q in cols.items() if i != n)
        and not g.divides(cols[n])
        and not (g * g).divides(cols[0])
    )


def verify_reducible(f: LaurentPoly, cert: IrreducibilityCertificate) -> bool:
    """Multiply a 'reducible' certificate back: the exact quotient of f by
    the factor, times the factor, is f, and neither side is a monomial."""
    q = exact_divides(cert.factor, f) if cert.method == "reducible" else None
    return (q is not None and q * cert.factor == f
            and not q.is_monomial() and not cert.factor.is_monomial())


def brute_force_certify(f: LaurentPoly, hull=None):
    """Exhaustive factor search, for p in {2, 3} and bidegree <= (4, 4).

    Returns a 'brute_force' certificate, a 'reducible' certificate with a
    witness factor, or None when the input is out of range.  Inputs out
    of range return None before f is rewritten.  hull, the convex hull
    of f's support, is built here when needed and not given.

    One loop reads the u1-view, then the u2-view, and builds the
    `reducible` certificate of either.  A view of main degree 0 (d1 or d2,
    read off f's exponents) holds f as a unit times a polynomial in the
    other variable, which is factored; any other view shows a factor free
    of its main variable as its content.  With trivial content in both,
    every factor of a nontrivial factorization of the normalized f has
    degree at least 1 in both variables, so its Newton polygon has
    positive width in both coordinates.  By Ostrowski's theorem,
    Newt(g h) = Newt(g) + Newt(h), the hull of f is then the Minkowski
    sum of two such polygons; so f is irreducible, with no search, when
    its hull does not split that way (`geometry.splits_with_both_extents`).
    Widths add under Minkowski sums, so a hull of width 1 in either
    coordinate never splits.
    Otherwise one factor has u1-degree between 1 and d1//2 and another has
    u2-degree between 1 and d2//2.  `_search_factor` looks for the first
    kind in the u1-view; when d2 < d1 the swapped view, whose main degree
    is d2, is searched first, and only a factor found there sends the
    search on to the u1-view, which picks the reported factor.
    """
    if f.is_zero() or f.is_monomial():
        raise DegenerateInput("nothing to certify for a unit")
    p = f.p
    # the bidegree of the normalized polynomial is the span of the exponents
    d1, d2 = (max(e) - min(e) for e in zip(*f.support()))
    if p not in BRUTE_FORCE_PRIMES or d1 > BRUTE_FORCE_BIDEGREE[0] or d2 > BRUTE_FORCE_BIDEGREE[1]:
        return None
    # dense views q_0, ..., q_n in u1 and in u2, zero columns included
    zero = FpPoly.zero(p)
    pu, pv = ([cols.get(i, zero) for i in range(max(cols) + 1)]
              for cols in (columns(f), columns(f, swap=True)))
    irreducible = IrreducibilityCertificate("brute_force", searched_bidegree=(d1, d2))
    for view, swap, main_degree in ((pu, False, d1), (pv, True, d2)):
        if main_degree == 0:
            factors = factor_monic(view[0])
            if factors == {view[0].monic(): 1}:
                return irreducible
            c = sorted(factors, key=lambda h: h.coeffs)[0]
        else:
            # the view really involves its main variable, so content times
            # primitive part is a genuine non-unit factorization
            c = fp_content(view)
            if c.degree == 0:
                continue
        factor = _from_columns((c,), p)
        return IrreducibilityCertificate(
            "reducible", factor=factor.swap_vars() if swap else factor)
    if (
        not geometry.splits_with_both_extents(hull or geometry.convex_hull(f.support()))
        or (d2 < d1 and _search_factor(f.swap_vars(), pv) is None)
    ):
        return irreducible
    factor = _search_factor(f, pu)
    if factor is None:
        return irreducible
    return IrreducibilityCertificate("reducible", factor=factor)


def _from_columns(coeffs, p):
    # sum_i coeffs[i](u2) u1^i
    return LaurentPoly(
        {(i, j): c for i, q in enumerate(coeffs) for j, c in enumerate(q.coeffs)}, p
    )


def _search_factor(f, pu):
    p = f.p
    n = len(pu) - 1
    q0, qn = pu[0], pu[-1]
    # a divisor specializes to a divisor at every u2 = c where f stays
    # nonzero; the divisor sets and the candidates' values there are
    # computed once, so the filter only looks values up and exact_divides
    # is the final test.  pu is normalized, so u2 = 0 is always a point:
    # it rejects every candidate divisible by u2, which can divide f in
    # the Laurent ring but never in the polynomial ring searched here.
    # The same holds at u1 = c; u1 = 0 adds nothing, since g0 divides q0,
    # and f(c, u2) != 0 for c != 0, or u1 - c would divide the content of
    # the other variable order
    def divisors(fc):
        return {tuple(u * x % p for x in d.coeffs)
                for d in monic_divisors(fc) for u in range(1, p)}

    points, divisor_sets = [], []
    for c in range(p):
        fc = FpPoly([q.eval(c) for q in pu], p)
        if not fc.is_zero():
            points.append(c)
            divisor_sets.append(divisors(fc))
    u1_sets = []
    for c in range(1, p):
        fc = _at_u1([q.coeffs for q in pu], c, p)
        assert fc, "f vanishes at u1 = c though its content is 1"
        u1_sets.append((c, divisors(FpPoly(fc, p))))

    def with_values(polys):
        return [(g, tuple(g.eval(c) for c in points)) for g in polys]

    # the divisors of f(1, u2), which the middle coefficients come from
    one_divs = with_values(FpPoly(d, p) for d in u1_sets[0][1])
    lead_divs = with_values(monic_divisors(qn))
    trail_divs = with_values(d.scale(c) for d in monic_divisors(q0) for c in range(1, p))
    # n <= 4, so a factor of u1-degree a <= 2 has at most one middle
    # coefficient g1, which _middles solves for rather than enumerates
    for a in range(1, n // 2 + 1):
        for ga, va in lead_divs:
            for g0, v0 in trail_divs:
                if a == 1:
                    if any(_strip((x0, xa), p) not in divs
                           for x0, xa, divs in zip(v0, va, divisor_sets)):
                        continue
                    middles = [()]
                else:
                    # the values g1 may take at each u2 = c
                    per_point = [
                        {x for x in range(p) if _strip((x0, x, xa), p) in divs}
                        for x0, xa, divs in zip(v0, va, divisor_sets)
                    ]
                    if not all(per_point):
                        continue
                    middles = _middles(g0, v0, ga, va, per_point, one_divs)
                for middle in middles:
                    coeffs = (g0, *middle, ga)
                    columns = [q.coeffs for q in coeffs]
                    if any(_at_u1(columns, c, p) not in divs for c, divs in u1_sets):
                        continue
                    cand = _from_columns(coeffs, p)
                    if exact_divides(cand, f) is not None:
                        return cand
    return None


def _middles(g0, v0, ga, va, per_point, one_divs):
    # the middles g1 of g0 + g1 u1 + ga u1^2 that pass the filter at the
    # points u2 = c and at u1 = 1.  At u1 = 1 the candidate is g0 + g1 + ga,
    # one of the divisors D of f(1, u2), so g1 = D - g0 - ga: one middle per
    # divisor, kept when its values D(c) - g0(c) - ga(c) are ones per_point
    # allows, and sorted by their index sum_k g1_k p^k in the enumeration
    # of every polynomial of degree <= d2 (constant coefficient fastest)
    p = g0.p
    rest = g0 + ga
    found = []
    for d, dv in one_divs:
        if all((y - x0 - xa) % p in allowed
               for y, x0, xa, allowed in zip(dv, v0, va, per_point)):
            g1 = d - rest
            found.append((sum(x * p**k for k, x in enumerate(g1.coeffs)), g1))
    return [(g1,) for _, g1 in sorted(found, key=lambda item: item[0])]


def _strip(cs, p):
    # the coefficient tuple of sum_j cs[j] t^j over F_p, as FpPoly keeps it
    cs = [x % p for x in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _at_u1(columns, c, p):
    # sum_i c^i columns[i], columns the coefficient tuples of polynomials
    # in u2: the coefficient tuple of the polynomial left by setting u1 = c
    out = [0] * max(len(q) for q in columns)
    for i, q in enumerate(columns):
        for j, x in enumerate(q):
            out[j] += c**i * x
    return _strip(out, p)


# Every certificate method, with whether it proves f irreducible, the
# re-check of its certificates (a 'brute_force' one records only the
# bidegree it exhausted, and has none), and cert -> its JSON fields.
Method = NamedTuple("Method", [("proves_irreducible", bool), ("recheck", object), ("fields", object)])
METHODS = {
    "eisenstein": Method(True, verify_eisenstein, lambda c: {
        "main_axis": c.main_axis, "inverted": c.inverted, "g": c.g.to_string("u2")}),
    "brute_force": Method(True, None, lambda c: {"searched_bidegree": list(c.searched_bidegree)}),
    "reducible": Method(False, verify_reducible, lambda c: {"factor": c.factor.to_string()}),
    "unverified": Method(False, None, lambda c: {}),
}


def certify_irreducible(f: LaurentPoly, hull=None) -> IrreducibilityCertificate:
    """Eisenstein, then brute force (given the hull of f's support when
    the caller passes it), else 'unverified'.  The certificate is then
    re-checked by its row of `METHODS`; one that fails raises
    WitnessError.  Only repeating the search could check brute force.
    """
    cert = (eisenstein_certify(f) or brute_force_certify(f, hull)
            or IrreducibilityCertificate("unverified"))
    recheck = METHODS[cert.method].recheck
    if recheck is not None and not recheck(f, cert):
        raise WitnessError(f"{cert.method} certificate fails re-verification")
    return cert


# ---------------------------------------------------------------------------
# order-of-mixing bounds


class MixingReport(NamedTuple):
    f: LaurentPoly
    p: int
    irreducibility: IrreducibilityCertificate
    support_size: int
    hull: geometry.LatticePolygon
    face_count: int | None
    lower_bound: int | None
    upper_bound: int | None
    exact_order: int | None
    degenerate_verdict: str | None
    notes: tuple = ()

    @property
    def conditional(self):
        return not self.irreducibility.certifies_irreducible


def order_bounds(f: LaurentPoly) -> MixingReport:
    """Hull geometry plus the mixing-order window [R-1, |S(f)|-1].

    The window requires f irreducible; when irreducibility could not be
    certified the report carries a note and the `conditional` flag.  A
    hull that is a line segment means the action is not mixing at all;
    zero and monomial inputs are rejected.
    """
    if f.is_zero():
        raise DegenerateInput("the zero polynomial defines no action of interest")
    if f.is_monomial():
        raise DegenerateInput("monomial f is a unit: the quotient ring is trivial")
    hull = geometry.convex_hull(f.support())
    cert = certify_irreducible(f, hull)
    r = lower = upper = exact = verdict = None
    notes = []
    if hull.degeneracy == geometry.SEGMENT:
        verdict = "not mixing"
        notes.append("support lies on a line: the action is not mixing")
    elif cert.method == "reducible":
        r = len(hull.vertices)
        notes.append(
            "f is reducible (factor found); the mixing-order window assumes an "
            "irreducible polynomial and is omitted"
        )
    else:
        r = len(hull.vertices)
        lower, upper = r - 1, len(f) - 1
        if not cert.certifies_irreducible:
            notes.append(
                "irreducibility unverified: the bounds are conditional on f being "
                "irreducible"
            )
        if set(hull.vertices) == f.support():
            exact = upper
            notes.append(
                "support equals the hull vertex set, so the order of mixing is "
                f"exactly |S(f)|-1 = {exact}"
            )
    return MixingReport(
        f, f.p, cert, len(f), hull, r, lower, upper, exact, verdict, tuple(notes)
    )


# ---------------------------------------------------------------------------
# shapes and witnesses


class Witness(NamedTuple):
    """A verified relation sum_i m_i u^{k n_i} = quotient * f."""

    k: int
    coefficients: tuple
    constant_flag: bool
    quotient: LaurentPoly | None


class ShapeVerdict(NamedTuple):
    """conditional marks a geometric verdict that rests on f being
    irreducible when no certificate proves it."""

    kind: str
    witness: Witness | None = None
    reason: str | None = None
    searched: dict | None = None
    note: str | None = None
    conditional: bool = False


def make_witness(f: LaurentPoly, shape, k, ms) -> Witness:
    """Build a Witness, re-verifying the relation by direct expansion.

    The relation is expanded afresh and divided by f with `exact_divides`,
    never reusing any artifact of the linear solve, and the quotient is
    checked by multiplying it back: quotient * f must equal the expanded
    sum.  A tuple that does not satisfy the relation raises WitnessError.
    """
    ms = tuple(ms)
    if all(m.is_zero() for m in ms):
        raise WitnessError("witness coefficients are all zero")
    combo = relation_sum(f, shape, k, ms)
    quotient = exact_divides(f, combo)
    if quotient is None or quotient * f != combo:
        raise WitnessError("relation fails re-verification by expansion")
    constant = all(m.support() <= {(0, 0)} for m in ms)
    return Witness(k, ms, constant, quotient)


def _clean_shape(shape):
    pts = [tuple(n) for n in shape]
    if len(set(pts)) != len(pts):
        raise ValueError("shape points must be distinct")
    for pt in pts:
        geometry.check_coord(pt)
    return pts


def shape_prefilter(f: LaurentPoly, shape):
    """The geometric verdict that the shape mixes, or None.

    For each face F of the hull of f there is a norm on the function
    field of f = 0 whose log-vector is a positive multiple of F's
    outward normal v_F, and nonzero constants have norm 1.  A relation
    sum_{i in T} m_i u^{k n_i} = 0 with every m_i a nonzero constant
    therefore attains the largest <n_i, v_F> over T at least twice, for
    every F; for coefficients in R/(f) the same holds at every large k.
    So a point that is the unique maximizer of some <n, v_F> over the
    points still left carries no relation, and is dropped.  The peeling
    repeats until no point is dropped; if fewer than 2 points remain,
    the shape is geometrically mixing.  A unique maximizer stays unique
    in every subset that contains it, so a point that can be dropped
    stays droppable as others go, and the points left do not depend on
    the order of removal.

    The norms live on the function field, so the argument needs f
    irreducible.  f is certified first, after the degeneracy checks: a
    reducible f gets no geometric verdict, and one whose irreducibility
    is unverified gets a verdict marked conditional.

    The reason quotes the older rule that peeling extends, where one
    applies: a shape of arity at most R-1, for R the number of faces (two
    or more points left number at least R, since their hull has an edge
    with each normal v_F), a 3-point shape on a triangle hull that is no
    positive homothet of it, or a face direction missing among the
    shape's differences.
    """
    return _prefilter(f, _clean_shape(shape))[1]


def _prefilter(f, pts):
    # (f's certificate, the geometric verdict or None)
    if len(pts) < 2:
        raise ValueError("a shape needs at least two points")
    hull = geometry.convex_hull(f.support())
    if hull.degeneracy != geometry.POLYGON:
        raise DegenerateInput("prefilter needs a non-degenerate hull")
    cert = certify_irreducible(f, hull)
    if cert.method == "reducible":
        return cert, None
    faces = geometry.faces(hull)
    left = list(pts)
    while len(left) > 1:
        for a, b in (fc.normal for fc in faces):
            values = [a * x + b * y for x, y in left]
            top = max(values)
            if values.count(top) == 1:
                del left[values.index(top)]
                break
        else:
            return cert, None
    n, r = len(pts), len(faces)
    if n <= r - 1:
        reason = (
            f"R-1 = {r - 1} >= 3: all 3-shapes mix" if n == 3
            else f"arity {n} <= R-1 = {r - 1}: every such sequence mixes"
        )
    elif n == 3:
        reason = "shape differences are not positively proportional to the hull triangle's"
    else:
        shape_dirs = {
            geometry.canonical_direction((b[0] - a[0], b[1] - a[1]))
            for i, a in enumerate(pts)
            for b in pts[i + 1 :]
        }
        missing = sorted(geometry.slope_set(faces) - shape_dirs)
        reason = (
            f"face direction {missing[0]} does not occur among the shape's "
            "difference directions" if missing
            else "each point is in turn the unique maximizer of a face normal: "
            "no subset of the shape can carry a relation"
        )
    return cert, ShapeVerdict(
        GEOMETRICALLY_MIXING, reason=reason, conditional=not cert.certifies_irreducible
    )


def shape_witness_search(
    f: LaurentPoly,
    shape,
    kmax=KMAX_DEFAULT,
    windows=WINDOWS_DEFAULT,
) -> ShapeVerdict:
    """Scan dilations k = 1..kmax for relations on the shape.

    At each k the constant cell, the solve with window W = 0, runs first:
    normal forms modulo f decide exactly whether the dilated points carry
    a relation with constant coefficients, and only a constant witness
    certifies non-mixing.  Until a relation is found, the schedule's
    windows W > 0 then look for polynomial relations, which are reported
    as RELATION_FOUND without certifying (W = 0 in the schedule is the
    constant cell, already solved; having found no constant relation at
    this k, no W > 0 cell returns one).  The verdict is
    deterministic: the certified witness with smallest k wins, else the
    first relation in (k, window) order, else UNRESOLVED.

    One `NormalForm(f)` serves the whole grid.  The normal forms
    NF(u^{k n_i}) of the dilated points are carried from k to k+1 with
    one shift by n_i each, and every cell at k gets them as its bases:
    no cell reduces a dilated monomial from 1, and the cost of a grid
    grows like kmax^2 rather than kmax^3.

    kmax must lie in [1, KMAX_LIMIT]: at the limit, the constants-only
    grid of the quartic vertex triangle takes 2-3 s at p = 65521 on a
    2-vCPU VM.
    """
    pts = _clean_shape(shape)
    if kmax < 1:
        raise ValueError("kmax must be positive")
    if kmax > KMAX_LIMIT:
        raise ValueError(f"kmax must be at most {KMAX_LIMIT}")
    windows = tuple(windows)
    if not windows:
        raise ValueError("window schedule must be nonempty")
    cert, pre = _prefilter(f, pts)
    if pre is not None:
        return pre
    searched = {"kmax": kmax, "windows": windows}
    relation = None
    nf = NormalForm(f)
    bases = [{(0, 0): 1}] * len(pts)  # NF(u^{0 n_i}) = NF(1)
    for k in range(1, kmax + 1):
        dil = [(k * a, k * b) for a, b in pts]
        bases = [nf.shift(base, n) for base, n in zip(bases, pts)]
        ms = combination_solve(f, dil, 0, bases=bases)
        if ms is not None:
            return _certify(make_witness(f, pts, k, ms), searched)
        if relation is None:
            for w in windows:
                if w == 0:
                    continue
                ms = combination_solve(f, dil, w, bases=bases)
                if ms is not None:
                    relation = make_witness(f, pts, k, ms)
                    break
    if relation is not None:
        return ShapeVerdict(RELATION_FOUND, witness=relation, searched=searched,
                            note="coefficients are not constants: no certification")
    reason = "no relation found within the search budget"
    if cert.method == "reducible":
        reason += (f"; f is reducible, with factor {cert.factor.to_string()}, "
                   "so the geometric test does not apply")
    return ShapeVerdict(UNRESOLVED, searched=searched, reason=reason)


def _certify(witness, searched):
    # make_witness has checked quotient * f = combo_k = sum m_i u^{k n_i}
    # by multiplication.  The p-th power map is a ring endomorphism in
    # characteristic p that fixes constants, so with every m_i constant
    # combo_{kp} = combo_k^p = (q^p f^(p-1)) f, and induction on j
    # carries the relation to every dilation k p^j.
    if not witness.constant_flag:
        raise WitnessError("a certifying witness needs constant coefficients")
    return ShapeVerdict(CERTIFIED_NON_MIXING, witness=witness, searched=searched)


# ---------------------------------------------------------------------------
# sequence diagnostics


class FaceAlignment(NamedTuple):
    face_index: int
    maximizer: tuple
    runner_up: tuple
    gap: object  # Fraction
    offset: int


class DiagnosticsEntry(NamedTuple):
    label: int
    points: tuple
    alignments: tuple
    face_lengths: tuple
    length_ratios: tuple


def sequence_diagnostics(f: LaurentPoly, entries):
    """Face-alignment table for a family of tuples.

    For each tuple and each face F of the hull of f, the extension norm
    for F induces the inner product that the tuple must nearly maximize
    on two of its points; the table reports the maximizer, the runner-up,
    the inner-product gap and the lattice offset of the runner-up from
    the line through the maximizer parallel to F.  Offsets staying
    bounded along the family is the signature of a genuine non-mixing
    sequence; the face-length ratios of each tuple's own hull are
    reported alongside.
    """
    # imported here, so that shape-test and voloch-scan, which import this
    # module, do not load fractions
    from fractions import Fraction

    hull = geometry.convex_hull(f.support())
    if hull.degeneracy != geometry.POLYGON:
        raise DegenerateInput("diagnostics need a non-degenerate hull")
    faces = geometry.faces(hull)
    out = []
    for label, points in entries:
        pts = _clean_shape(points)
        if len(pts) < 2:
            raise ValueError("each tuple needs at least two points")
        alignments = []
        for idx, face in enumerate(faces):
            # the norm is the normal over |coeff_entry|: both rank alike
            n1, n2 = face.normal
            top, second = sorted(pts, key=lambda n: (-(n1 * n[0] + n2 * n[1]), n))[:2]
            gap = Fraction(n1 * (top[0] - second[0]) + n2 * (top[1] - second[1]),
                           abs(face.coeff_entry))
            d = face.direction
            offset = abs(d[0] * (second[1] - top[1]) - d[1] * (second[0] - top[0]))
            alignments.append(FaceAlignment(idx, top, second, gap, offset))
        # two distinct points at least, so the tuple's hull has a face
        lengths = tuple(fc.lattice_length for fc in geometry.faces(geometry.convex_hull(pts)))
        ratios = tuple(Fraction(l, lengths[0]) for l in lengths)
        out.append(
            DiagnosticsEntry(label, tuple(pts), tuple(alignments), lengths, ratios)
        )
    return out


# ---------------------------------------------------------------------------
# the univariate identity scan


class VolochScan(NamedTuple):
    mmax: int
    solutions: tuple
    frobenius_checked: tuple
    frobenius_failures: tuple


def voloch_identity_scan(mmax: int) -> VolochScan:
    """Scan (1+t+t^2)^m = 1 + t^(2m) over F_2 for m <= mmax.

    Polynomials over F_2 are packed into integers (bit i is the t^i
    coefficient), the running power is updated incrementally, and every m
    is compared exactly; the expected solution set is empty.  At each
    m = 2^e the same running power is compared with the squared form
    1 + t^(2^e) + t^(2^(e+1)), which pins down the leading behaviour
    responsible for the emptiness and checks the scan's own update.

    The scan is quadratic in mmax (0.5 s at the limit on a 2-vCPU VM), so
    mmax must lie in [1, VOLOCH_MMAX].
    """
    if mmax < 1:
        raise ValueError("mmax must be positive")
    if mmax > VOLOCH_MMAX:
        raise ValueError(f"mmax must be at most {VOLOCH_MMAX}")
    power = 1
    solutions = []
    checked = []
    failures = []
    for m in range(1, mmax + 1):
        power ^= (power << 1) ^ (power << 2)
        if power == 1 | (1 << (2 * m)):
            solutions.append(m)
        if m & (m - 1) == 0:
            squared = power == 1 | (1 << m) | (1 << (2 * m))
            (checked if squared else failures).append(m.bit_length() - 1)
    return VolochScan(mmax, tuple(solutions), tuple(checked), tuple(failures))
