"""Mixing analysis of the Z^2-action attached to F_p[u1^±1, u2^±1]/<f>.

The geometry of the hull of f bounds the order of mixing: an R-gon hull
with f irreducible gives R-1 <= order < |S(f)|, so support = hull
vertices pins the order exactly.  Shapes of lattice points are classified
by combining that bound, the face-direction prefilter, the triangle
edge-direction test, and an explicit search for module relations
sum m_i u^{k n_i} = 0 mod f.  Only relations with constant m_i certify
non-mixing.  A certified witness is checked by multiplying its quotient
back to the constant relation at k; the p-th power map fixes constants,
so that relation carries over to every dilation k p^j.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from . import geometry
from .fieldpoly import (
    FpPoly,
    content as fp_content,
    factor_monic,
    gcd as fp_gcd,
    irreducible_factors,
    monic_divisors,
)
from .laurent import (
    LaurentPoly,
    PolyInU1,
    as_poly_in_u1,
    combination_solve,
    exact_divides,
    relation_sum,
)
from .newton import face_norm_for

KMAX_DEFAULT = 16
WINDOWS_DEFAULT = (0, 1, 2)
BRUTE_FORCE_BIDEGREE = (4, 4)
BRUTE_FORCE_PRIMES = (2, 3)
VOLOCH_MMAX = 1 << 16

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

    method is one of 'eisenstein', 'brute_force', 'reducible',
    'unverified'.  Eisenstein certificates record the orientation (which
    variable was the main one, whether the coefficient variable was
    inverted) and the prime g; brute-force certificates record the factor
    bidegree that was exhausted; 'reducible' carries a witness factor.
    """

    method: str
    main_axis: int | None = None
    inverted: bool = False
    g: FpPoly | None = None
    searched_bidegree: tuple | None = None
    factor: LaurentPoly | None = None

    @property
    def certifies_irreducible(self):
        return self.method in ("eisenstein", "brute_force")


def eisenstein_certify(f: LaurentPoly):
    """Try Eisenstein's criterion in all four orientations.

    In each orientation f is rewritten as sum_{i<=n} q_i(u2) u1^i by one
    `as_poly_in_u1` call, and c is gcd(q_0, ..., q_{n-1}).  The criterion
    needs a prime g with g | c and g^2 not dividing q_0, and gcd(c, q_n)
    = 1 (so no coefficient factor hides a non-unit); g | c already gives
    g | q_i for i < n and, with gcd(c, q_n) = 1, g not dividing q_n.  A
    constant c has no prime factor and takes no gcd.  The candidates g are
    the monic irreducible factors of c of degree at most 2, found by trial
    division of c, degree 1 first.  Returns the first success in the order
    (main_axis, inverted) = (1, False), (1, True), (2, False), (2, True).

    Inverting u2 turns each q_i into u2^(D - deg q_i) times its reversal,
    D the largest degree of the q_i.  When a q_i below q_n has degree D,
    the inverted c is the reversal of c's part prime to u2, and reversal
    maps candidates prime to u2 onto each other with every condition kept
    (normalization leaves c or q_n prime to u2); so the inverted
    orientation certifies nothing new and is skipped without a rewrite.
    """
    if f.is_zero() or f.is_monomial():
        raise DegenerateInput("Eisenstein needs a non-monomial, nonzero polynomial")
    for main_axis in (1, 2):
        for inverted in (False, True):
            pu = as_poly_in_u1(f, swap=main_axis == 2, inverted=inverted)
            if pu.degree < 1:
                break
            coeffs = pu.coeffs
            c = fp_content(coeffs[:-1])
            if c.degree > 0 and fp_gcd(c, coeffs[-1]).degree == 0:
                for g, _ in irreducible_factors(c, 2):
                    if not (g * g).divides(coeffs[0]):
                        return IrreducibilityCertificate(
                            "eisenstein", main_axis=main_axis, inverted=inverted, g=g
                        )
            if max(q.degree for q in coeffs[:-1]) == max(q.degree for q in coeffs):
                break
    return None


def verify_eisenstein(f: LaurentPoly, cert: IrreducibilityCertificate) -> bool:
    """Re-check every Eisenstein condition recorded in the certificate."""
    if cert.method != "eisenstein":
        return False
    pu = as_poly_in_u1(f, swap=cert.main_axis == 2, inverted=cert.inverted)
    if pu.degree < 1 or fp_content(pu.coeffs).degree != 0:
        return False
    g = cert.g
    return (
        all(g.divides(q) for q in pu.coeffs[:-1] if not q.is_zero())
        and not g.divides(pu.coeffs[-1])
        and not (g * g).divides(pu.coeffs[0])
    )


def brute_force_certify(f: LaurentPoly):
    """Exhaustive factor-pair search, for p in {2, 3} and bidegree <= (4, 4).

    Returns a 'brute_force' certificate, a 'reducible' certificate with a
    witness factor, or None when the input is out of range.  A nontrivial
    factorization of the normalized polynomial either has a factor free of
    u1 (caught by the coefficient content in one of the two variable
    orders) or a factor of u1-degree between 1 and n//2, whose extreme
    u1-coefficients divide those of f; only such candidates are tried.
    Two filters look a candidate g up in precomputed sets of divisors:
    its values at u2 = c must divide f(c, u1), and g(c, u2) at u1 = c != 0
    must divide f(c, u2).  exact_divides is the final test.  Inputs out
    of range return None before f is rewritten.
    """
    if f.is_zero() or f.is_monomial():
        raise DegenerateInput("nothing to certify for a unit")
    p = f.p
    # the bidegree of the normalized polynomial is the span of the exponents
    d1, d2 = (max(e) - min(e) for e in zip(*f.support()))
    if p not in BRUTE_FORCE_PRIMES or d1 > BRUTE_FORCE_BIDEGREE[0] or d2 > BRUTE_FORCE_BIDEGREE[1]:
        return None
    pu, pv = as_poly_in_u1(f), as_poly_in_u1(f, swap=True)
    if d1 == 0:
        return _univariate_verdict(pu.coeffs[0], swap=False, bidegree=(d1, d2))
    if d2 == 0:
        return _univariate_verdict(pv.coeffs[0], swap=True, bidegree=(d1, d2))
    for view, swap in ((pu, False), (pv, True)):
        c = fp_content(view.coeffs)
        if c.degree != 0:
            # the view really involves its main variable, so content times
            # primitive part is a genuine non-unit factorization
            factor = PolyInU1((c,), (0, 0), p).to_laurent()
            if swap:
                factor = factor.swap_vars()
            return IrreducibilityCertificate("reducible", factor=factor)
    factor = _search_factor(f, pu)
    if factor is not None:
        return IrreducibilityCertificate("reducible", factor=factor)
    return IrreducibilityCertificate("brute_force", searched_bidegree=(d1, d2))


def _univariate_verdict(q: FpPoly, swap, bidegree):
    # f is a unit times the one-variable polynomial q, so Laurent
    # irreducibility is exactly univariate irreducibility of q
    factors = factor_monic(q)
    if factors == {q.monic(): 1}:
        return IrreducibilityCertificate("brute_force", searched_bidegree=bidegree)
    g = sorted(factors, key=lambda h: h.coeffs)[0]
    factor = PolyInU1((g,), (0, 0), q.p).to_laurent()
    if swap:
        factor = factor.swap_vars()
    return IrreducibilityCertificate("reducible", factor=factor)


def _search_factor(f, pu):
    p = f.p
    n = pu.degree
    q0, qn = pu.coeffs[0], pu.coeffs[-1]
    d2 = max(q.degree for q in pu.coeffs if not q.is_zero())
    # a divisor specializes to a divisor at every u2 = c where f stays
    # nonzero; the divisor sets and the candidates' values there are
    # computed once, so the filter only looks values up and exact_divides
    # is the final test.  pu is normalized, so u2 = 0 is always a point:
    # it rejects every candidate divisible by u2, which can divide f in
    # the Laurent ring but never in the polynomial ring searched here.
    # The same holds at u1 = c; u1 = 0 adds nothing, since g0 divides q0
    def divisors(fc):
        return {d.scale(u).coeffs for d in monic_divisors(fc) for u in range(1, p)}

    points, divisor_sets = [], []
    for c in range(p):
        fc = FpPoly([q.eval(c) for q in pu.coeffs], p)
        if not fc.is_zero():
            points.append(c)
            divisor_sets.append(divisors(fc))
    u1_points = [(c, divisors(fc)) for c in range(1, p)
                 if not (fc := _at_u1(pu.coeffs, c)).is_zero()]

    def with_values(polys):
        return [(g, tuple(g.eval(c) for c in points)) for g in polys]

    lead_divs = with_values(monic_divisors(qn))
    trail_divs = with_values(d.scale(c) for d in monic_divisors(q0) for c in range(1, p))
    # every polynomial of degree <= d2, constant coefficient varying
    # fastest; only factors of u1-degree >= 2, so n >= 4, have middles
    middles = with_values(
        FpPoly(cs[::-1], p) for cs in product(range(p), repeat=d2 + 1)
    ) if n >= 4 else []
    for a in range(1, n // 2 + 1):
        for ga, va in lead_divs:
            for g0, v0 in trail_divs:
                # the middle values each point's divisors allow; a middle
                # passes when its value vectors lie in `allowed`
                per_point = [
                    [xs for xs in product(range(p), repeat=a - 1)
                     if FpPoly((x0, *xs, xa), p).coeffs in divs]
                    for x0, xa, divs in zip(v0, va, divisor_sets)
                ]
                allowed = {tuple(zip(*combo)) for combo in product(*per_point)}
                if not allowed:
                    continue
                for middle in product(middles, repeat=a - 1):
                    if tuple(v for _, v in middle) not in allowed:
                        continue
                    coeffs = (g0, *(g for g, _ in middle), ga)
                    if any(_at_u1(coeffs, c).coeffs not in divs for c, divs in u1_points):
                        continue
                    cand = PolyInU1(coeffs, (0, 0), p).to_laurent()
                    if exact_divides(cand, f) is not None:
                        return cand
    return None


def _at_u1(coeffs, c):
    # sum_i c^i coeffs[i]: the polynomial in u2 left by setting u1 = c
    out = [0] * max(len(q.coeffs) for q in coeffs)
    for i, q in enumerate(coeffs):
        for j, x in enumerate(q.coeffs):
            out[j] += c**i * x
    return FpPoly(out, coeffs[0].p)


def certify_irreducible(f: LaurentPoly) -> IrreducibilityCertificate:
    """Eisenstein first, then the brute-force fallback, else 'unverified'.

    An Eisenstein certificate is re-checked by `verify_eisenstein`, and a
    'reducible' one by multiplying its factor by the exact quotient back
    to f, with neither side a monomial (a unit); a certificate that fails
    raises WitnessError.
    """
    cert = eisenstein_certify(f)
    if cert is not None:
        if not verify_eisenstein(f, cert):
            raise WitnessError("Eisenstein certificate fails re-verification")
        return cert
    cert = brute_force_certify(f)
    if cert is None:
        return IrreducibilityCertificate("unverified")
    if cert.method == "reducible":
        q = exact_divides(cert.factor, f)
        if q is None or q * cert.factor != f or q.is_monomial() or cert.factor.is_monomial():
            raise WitnessError("reducible certificate fails re-verification")
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
    cert = certify_irreducible(f)
    notes = []
    if hull.degeneracy == geometry.SEGMENT:
        notes.append("support lies on a line: the action is not mixing")
        return MixingReport(
            f, f.p, cert, len(f), hull, None, None, None, None, "not mixing",
            tuple(notes),
        )
    faces = geometry.faces(hull)
    r = len(faces)
    size = len(f)
    lower, upper = r - 1, size - 1
    exact = None
    if cert.method == "reducible":
        notes.append(
            "f is reducible (factor found); the mixing-order window assumes an "
            "irreducible polynomial and is omitted"
        )
        return MixingReport(
            f, f.p, cert, size, hull, r, None, None, None, None, tuple(notes)
        )
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
        f, f.p, cert, size, hull, r, lower, upper, exact, None, tuple(notes)
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
    kind: str
    witness: Witness | None = None
    reason: str | None = None
    searched: dict | None = None
    note: str | None = None


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


def frobenius_closure_holds(f, shape, witness: Witness) -> bool:
    """Whether the witness's relation holds at every dilation k p^j, j >= 0.

    Two checks suffice: every coefficient m_i is a constant, and
    quotient * f equals the relation combo_k = sum m_i u^{k n_i}.  The
    p-th power map is a ring endomorphism in characteristic p that fixes
    constants, so combo_{kp} = combo_k^p = (q^p f^(p-1)) f, and induction
    on j carries the relation to every k p^j.  Only multiplication is
    used, never a reduction modulo f, so the check shares no code with
    the solver that found the relation.
    """
    ms, q = witness.coefficients, witness.quotient
    constant = all(m.support() <= {(0, 0)} for m in ms)
    return constant and q is not None and q * f == relation_sum(f, shape, witness.k, ms)


def _clean_shape(shape):
    pts = [tuple(n) for n in shape]
    if len(set(pts)) != len(pts):
        raise ValueError("shape points must be distinct")
    return pts


def shape_prefilter(f: LaurentPoly, shape):
    """Geometric reasons the shape must be mixing, or None.

    Small shapes are mixing outright (any sequence of arity at most R-1
    is), and so is any shape whose pairwise difference directions miss
    one of the hull's face directions.
    """
    pts = _clean_shape(shape)
    if len(pts) < 2:
        raise ValueError("a shape needs at least two points")
    hull = geometry.convex_hull(f.support())
    if hull.degeneracy != geometry.POLYGON:
        raise DegenerateInput("prefilter needs a non-degenerate hull")
    faces = geometry.faces(hull)
    r = len(faces)
    if len(pts) <= r - 1:
        return ShapeVerdict(
            GEOMETRICALLY_MIXING,
            reason=f"arity {len(pts)} <= R-1 = {r - 1}: every such sequence mixes",
        )
    shape_dirs = {
        geometry.canonical_direction((b[0] - a[0], b[1] - a[1]))
        for i, a in enumerate(pts)
        for b in pts[i + 1 :]
    }
    face_dirs = geometry.slope_set(faces)
    missing = sorted(face_dirs - shape_dirs)
    if missing:
        return ShapeVerdict(
            GEOMETRICALLY_MIXING,
            reason=(
                f"face direction {missing[0]} does not occur among the shape's "
                "difference directions"
            ),
        )
    return None


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
    """
    pts = _clean_shape(shape)
    if kmax < 1:
        raise ValueError("kmax must be positive")
    windows = tuple(windows)
    if not windows:
        raise ValueError("window schedule must be nonempty")
    pre = shape_prefilter(f, pts)
    if pre is not None:
        return pre
    searched = {"kmax": kmax, "windows": windows}
    relation = None
    for k in range(1, kmax + 1):
        dil = [(k * a, k * b) for a, b in pts]
        ms = combination_solve(f, dil, 0)
        if ms is not None:
            return _certify(f, pts, make_witness(f, pts, k, ms), searched)
        if relation is None:
            for w in windows:
                if w == 0:
                    continue
                ms = combination_solve(f, dil, w)
                if ms is not None:
                    relation = make_witness(f, pts, k, ms)
                    break
    if relation is not None:
        return ShapeVerdict(RELATION_FOUND, witness=relation, searched=searched,
                            note="coefficients are not constants: no certification")
    return ShapeVerdict(UNRESOLVED, searched=searched,
                        reason="no relation found within the search budget")


def _certify(f, pts, witness, searched):
    if not frobenius_closure_holds(f, pts, witness):
        raise WitnessError("witness fails the Frobenius closure check")
    return ShapeVerdict(CERTIFIED_NON_MIXING, witness=witness, searched=searched)


def three_shape_classify(
    f: LaurentPoly, shape, kmax=KMAX_DEFAULT, windows=WINDOWS_DEFAULT
) -> ShapeVerdict:
    """Classify a 3-point shape.

    R > 3 settles it (order of mixing is at least 3).  For a triangle
    hull the shape must be a positive homothet of the vertex triangle to
    stand any chance of being non-mixing.  Two counter-clockwise
    triangles are positive homothets exactly when their edges have the
    same primitive directions, and point reflections of each other
    exactly when those directions are negated; so the shape's own hull
    is compared with f's by face directions.  Matches go to the witness
    search, point-reflected matches are left unresolved, and everything
    else is geometrically mixing.  Collinear shapes fall outside the
    triangle argument and are reported unresolved.
    """
    pts = _clean_shape(shape)
    if len(pts) != 3:
        raise ValueError("three_shape_classify expects exactly three points")
    hull = geometry.convex_hull(f.support())
    if hull.degeneracy != geometry.POLYGON:
        raise DegenerateInput("classification needs a non-degenerate hull")
    faces = geometry.faces(hull)
    r = len(faces)
    if r > 3:
        return ShapeVerdict(
            GEOMETRICALLY_MIXING, reason=f"R-1 = {r - 1} >= 3: all 3-shapes mix"
        )
    hull_dirs = {fc.direction for fc in faces}
    shape_hull = geometry.convex_hull(pts)
    if shape_hull.degeneracy != geometry.POLYGON:
        return ShapeVerdict(
            UNRESOLVED,
            note="collinear shape: the triangle similarity argument does not apply",
        )
    shape_dirs = {fc.direction for fc in geometry.faces(shape_hull)}
    if shape_dirs == {(-a, -b) for a, b in hull_dirs}:
        return ShapeVerdict(
            UNRESOLVED,
            note="point-reflected copy of the hull triangle: outside the scope "
            "of the similarity argument",
        )
    if shape_dirs != hull_dirs:
        return ShapeVerdict(
            GEOMETRICALLY_MIXING,
            reason="shape differences are not positively proportional to the "
            "hull triangle's",
        )
    return shape_witness_search(f, pts, kmax=kmax, windows=windows)


# ---------------------------------------------------------------------------
# sequence diagnostics


class FaceAlignment(NamedTuple):
    face_index: int
    maximizer: tuple
    runner_up: tuple
    gap: Fraction
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
    hull = geometry.convex_hull(f.support())
    if hull.degeneracy != geometry.POLYGON:
        raise DegenerateInput("diagnostics need a non-degenerate hull")
    faces_norms = [(face, face_norm_for(f, face).vector()) for face in geometry.faces(hull)]
    out = []
    for label, points in entries:
        pts = _clean_shape(points)
        if len(pts) < 2:
            raise ValueError("each tuple needs at least two points")
        alignments = []
        for idx, (face, (v1, v2)) in enumerate(faces_norms):
            scored = sorted(pts, key=lambda n: (-(v1 * n[0] + v2 * n[1]), n))
            top, second = scored[0], scored[1]
            gap = (v1 * top[0] + v2 * top[1]) - (v1 * second[0] + v2 * second[1])
            d = face.direction
            offset = abs(d[0] * (second[1] - top[1]) - d[1] * (second[0] - top[0]))
            alignments.append(FaceAlignment(idx, top, second, gap, offset))
        tuple_hull = geometry.convex_hull(pts)
        if tuple_hull.degeneracy == geometry.POINT:
            lengths = ()
        else:
            lengths = tuple(fc.lattice_length for fc in geometry.faces(tuple_hull))
        ratios = tuple(Fraction(l, lengths[0]) for l in lengths) if lengths else ()
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


def _gf2_mul(a, b):
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def voloch_identity_scan(mmax: int) -> VolochScan:
    """Scan (1+t+t^2)^m = 1 + t^(2m) over F_2 for m <= mmax.

    Polynomials over F_2 are packed into integers (bit i is the t^i
    coefficient), the running power is updated incrementally, and every m
    is compared exactly; the expected solution set is empty.  For each
    exponent e with 2^e <= mmax the identity
    (1+t+t^2)^(2^e) = 1 + t^(2^e) + t^(2^(e+1)), which pins down the
    leading behaviour responsible for the emptiness, is verified by
    repeated squaring.

    The scan is quadratic in mmax (about 3 s at the limit), so mmax must
    lie in [1, VOLOCH_MMAX].
    """
    if mmax < 1:
        raise ValueError("mmax must be positive")
    if mmax > VOLOCH_MMAX:
        raise ValueError(f"mmax must be at most {VOLOCH_MMAX}")
    base = 0b111
    power = 1
    solutions = []
    for m in range(1, mmax + 1):
        power ^= (power << 1) ^ (power << 2)
        if power == 1 | (1 << (2 * m)):
            solutions.append(m)
    checked = []
    failures = []
    sq = base
    e = 0
    while (1 << e) <= mmax:
        expected = 1 | (1 << (1 << e)) | (1 << (1 << (e + 1)))
        if sq == expected:
            checked.append(e)
        else:
            failures.append(e)
        sq = _gf2_mul(sq, sq)
        e += 1
    return VolochScan(mmax, tuple(solutions), tuple(checked), tuple(failures))
