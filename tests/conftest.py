import random
from fractions import Fraction
from itertools import product

import pytest

from mixbound import geometry
from mixbound.fieldpoly import (
    INFINITE,
    FpPoly,
    _monic_polys_of_degree,
    is_irreducible,
    monic_divisors,
)
from mixbound.geometry import POLYGON, cross
from mixbound.laurent import (
    LaurentPoly,
    PolyInU1,
    as_poly_in_u1,
    exact_divides,
    in_ideal,
    normalize,
    relation_sum,
)
from mixbound.newton import (
    ExtendedNorm,
    FaceNewtonData,
    NewtonPoint,
    NewtonPolygon,
    Segment,
    Valuation,
)
from mixbound.parse import parse_poly


def L(text, p=2):
    """Laurent polynomial from surface syntax."""
    return parse_poly(text, p)


def irreducibles_up_to_degree(dmax, p):
    """Monic irreducibles over F_p of degree 1..dmax, in degree-lex order."""
    return [
        g
        for d in range(1, dmax + 1)
        for g in _monic_polys_of_degree(d, p)
        if is_irreducible(g)
    ]


ORIENTATION_MATRICES = {
    # (swap, inverted) -> the exponent map: swap first, then invert u2
    (False, False): ((1, 0), (0, 1)),
    (False, True): ((1, 0), (0, -1)),
    (True, False): ((0, 1), (1, 0)),
    (True, True): ((0, 1), (-1, 0)),
}


def poly_in_u1_by_normalize(f):
    """f as a polynomial in u1 over F_p[u2], built in three steps.

    The reference for `laurent.as_poly_in_u1`, which reads f's terms once
    and applies the change of variables itself: here f (already mapped
    by the caller) is normalized into a new LaurentPoly, and its terms
    then fill one dict per u1-column.
    """
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


def long_divide(f, g):
    """Quotient q with g = f * q in the Laurent ring, or None.

    The reference for `laurent.NormalForm`, sharing no code with it: the
    normalized parts are divided by long division in (F_p[u2])[u1].  If f
    divides g, the normalized quotient is a polynomial (neither part is
    divisible by u1 or u2, which are prime), and since F_p[u2] is a domain
    every leading-coefficient division is exact; so a failed step proves
    that f does not divide g.
    """
    if g.is_zero():
        return LaurentPoly.zero(f.p)
    p = f.p
    fu, gu = as_poly_in_u1(f), as_poly_in_u1(g)
    rem, den = list(gu.coeffs), fu.coeffs
    dn = len(den) - 1
    if len(rem) - 1 < dn:
        return None
    quotient = [FpPoly.zero(p)] * (len(rem) - dn)
    for i in range(len(rem) - 1, dn - 1, -1):
        if rem[i].is_zero():
            continue
        qc, r = divmod(rem[i], den[-1])
        if not r.is_zero():
            return None
        quotient[i - dn] = qc
        for j, dc in enumerate(den):
            rem[i - dn + j] = rem[i - dn + j] - qc * dc
    if any(not r.is_zero() for r in rem):
        return None
    shift = (gu.shift[0] - fu.shift[0], gu.shift[1] - fu.shift[1])
    return PolyInU1(tuple(quotient), shift, p).to_laurent()


def _ccw_arrangement(points):
    # distinct triple -> CCW-ordered tuple, or None when collinear
    a, b, c = points
    s = cross(a, b, c)
    if s == 0:
        return None
    return (a, b, c) if s > 0 else (a, c, b)


def _ratio_of(u, v):
    # u = q * v for a single rational q, else None
    if v == (0, 0):
        return None
    q = Fraction(u[1], v[1]) if v[0] == 0 else Fraction(u[0], v[0])
    if (q * v[0], q * v[1]) != (u[0], u[1]):
        return None
    return q


def triangle_homothety(shape, poly):
    """Cyclic assignment of a 3-point shape onto a triangle's vertices with
    all corresponding vertex differences equal to a single rational multiple.

    The reference for `mixing.three_shape_classify`'s edge-direction test,
    sharing no code with it.  Returns (assignment, ratio) where
    assignment[i] maps onto vertex i and ratio may be negative (a
    point-reflected copy); None when no single ratio works or the shape is
    collinear.
    """
    if poly.degeneracy != POLYGON or len(poly.vertices) != 3:
        raise ValueError("expected a non-degenerate triangle hull")
    pts = [tuple(p) for p in shape]
    if len(set(pts)) != 3:
        return None
    arranged = _ccw_arrangement(pts)
    if arranged is None:
        return None
    d = poly.vertices
    tdiff = [
        (d[(i + 1) % 3][0] - d[i][0], d[(i + 1) % 3][1] - d[i][1]) for i in range(3)
    ]
    for r in range(3):
        rot = arranged[r:] + arranged[:r]
        sdiff = [
            (rot[(i + 1) % 3][0] - rot[i][0], rot[(i + 1) % 3][1] - rot[i][1])
            for i in range(3)
        ]
        q = _ratio_of(sdiff[0], tdiff[0])
        if q is None or q == 0:
            continue
        if all(_ratio_of(sdiff[i], tdiff[i]) == q for i in (1, 2)):
            return rot, q
    return None


def frobenius_closure_by_expansion(f, shape, witness):
    """Whether the witness's relation, expanded afresh at k p and k p^2,
    lies in <f>.

    The reference for `mixing.frobenius_closure_holds`, which checks the
    relation at k alone and lets the p-th power map carry it to every
    k p^j: here both dilations are expanded term by term and reduced
    modulo f by `in_ideal`, about (k p^2)^2 term updates.
    """
    for j in (1, 2):
        kk = witness.k * f.p**j
        if not in_ideal(relation_sum(f, shape, kk, witness.coefficients), f):
            return False
    return True


def ord_by_division(a, g):
    """Multiplicity of g in a by dividing g out one factor at a time;
    INFINITE for a = 0.  The reference for `fieldpoly.ord_at`."""
    if a.is_zero():
        return INFINITE
    m = 0
    while True:
        q, r = divmod(a, g)
        if not r.is_zero():
            return m
        a, m = q, m + 1


def lower_hull_unshared(points):
    """Lower hull of Newton points by a monotone chain of its own.

    The reference for `newton.lower_hull`, which runs the chain that
    `geometry.convex_hull` shares: here the turn test is written out.
    """
    finite = [pt for pt in points if pt.ordinate != INFINITE]
    if not finite:
        raise ValueError("no finite Newton points")
    hull = []
    for pt in finite:
        while len(hull) > 1:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop unless the chain turns strictly left at hull[-1]
            if (x2 - x1) * (pt.ordinate - y1) - (pt.index - x1) * (y2 - y1) > 0:
                break
            hull.pop()
        hull.append(pt)
    segments = tuple(
        Segment(Fraction(b.ordinate - a.ordinate, b.index - a.index), a.index, b.index)
        for a, b in zip(hull, hull[1:])
    )
    return NewtonPolygon(tuple(hull), segments)


def face_newton_data_per_face(f, face):
    """The face-to-norm reduction for a single face, from scratch.

    The reference for `newton.face_newton_data`, which shares one Newton
    polygon among the faces of a coordinate change: here the hull, the
    rewritten polynomial and its Newton polygon are rebuilt for the one
    face, every ordinate is found by `ord_by_division`, and the lower hull
    by `lower_hull_unshared`.
    """
    hull = geometry.convex_hull(f.support())
    if face not in geometry.faces(hull):
        raise ValueError("face does not belong to the hull of f")
    swap = face.direction[0] == 0
    n1 = (face.normal[1], face.normal[0]) if swap else face.normal
    inverted = n1[1] > 0
    t = FpPoly.x(f.p)
    val = Valuation.finite_at(t, coeff_axis=1 if swap else 2, inverted=inverted)
    m = ORIENTATION_MATRICES[swap, inverted]
    (a, b), (c, d) = m
    dvec = (
        a * face.direction[0] + b * face.direction[1],
        c * face.direction[0] + d * face.direction[1],
    )
    target = Fraction(dvec[1], dvec[0])
    poly = poly_in_u1_by_normalize(f.map_exponents(m))
    points = tuple(
        NewtonPoint(i, ord_by_division(q, t)) for i, q in enumerate(poly.coeffs)
    )
    np = lower_hull_unshared(points)
    coeff_log = Fraction(-ord_by_division(t, t))
    for seg in np.segments:
        if seg.slope == target:
            # log-vectors pull back through the transpose of the exponent map
            lam, cl = seg.slope, -coeff_log if inverted else coeff_log
            vec = (cl, lam) if swap else (lam, cl)
            norm = ExtendedNorm(vec[0], vec[1], (face, val))
            n = face.normal
            assert vec[0] * n[1] == vec[1] * n[0]
            assert vec[0] * n[0] + vec[1] * n[1] > 0
            return FaceNewtonData(face, val, points, np, seg, norm)
    raise AssertionError(f"no Newton segment with slope {target}")


def _search_factor(f, pu):
    """First factor of u1-degree 1..n//2 found by the brute-force search, or None.

    The reference for `mixing._search_factor`, in the same candidate
    order: each candidate's specializations at u2 = c are rebuilt as
    polynomials and f(c, u1) is divided by them, where the library looks
    precomputed values up in precomputed divisor sets and adds a second
    filter at u1 = c.
    """
    p = f.p
    n = pu.degree
    q0, qn = pu.coeffs[0], pu.coeffs[-1]
    d2 = max(q.degree for q in pu.coeffs if not q.is_zero())
    # a divisor specializes to a divisor at every u2 = c (where f stays
    # nonzero), which rejects most candidates with a few scalar divisions.
    # pu is normalized, so u2 = 0 is always one of them: it rejects every
    # candidate divisible by u2, which can divide f in the Laurent ring
    # but never in the polynomial ring the factor is searched in
    specials = []
    for c in range(p):
        fc = FpPoly([q.eval(c) for q in pu.coeffs], p)
        if not fc.is_zero():
            specials.append((c, fc))
    lead_divs = monic_divisors(qn)
    trail_divs = [d.scale(c) for d in monic_divisors(q0) for c in range(1, p)]
    # every polynomial of degree <= d2, constant coefficient varying fastest
    middles = tuple(
        FpPoly(cs[::-1], p) for cs in product(range(p), repeat=d2 + 1)
    )
    for a in range(1, n // 2 + 1):
        for ga in lead_divs:
            for g0 in trail_divs:
                for middle in product(middles, repeat=a - 1):
                    cand_coeffs = [g0, *middle, ga]
                    if not _specializations_divide(cand_coeffs, specials, p):
                        continue
                    cand = PolyInU1(tuple(cand_coeffs), (0, 0), p).to_laurent()
                    if exact_divides(cand, f) is not None:
                        return cand
    return None


def _specializations_divide(cand_coeffs, specials, p):
    for c, fc in specials:
        gc = FpPoly([q.eval(c) for q in cand_coeffs], p)
        if gc.is_zero() or not (fc % gc).is_zero():
            return False
    return True


def random_laurent(rng, p, max_terms=6, span=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = (rng.randint(-span, span), rng.randint(-span, span))
        terms[e] = rng.randint(1, p - 1) if p > 2 else 1
    return LaurentPoly(terms, p)


def random_nonmonomial(rng, p, max_terms=6, span=4):
    while True:
        f = random_laurent(rng, p, max_terms, span)
        if not f.is_zero() and not f.is_monomial():
            return f


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
