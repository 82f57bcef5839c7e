import functools
import importlib.util
import math
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from mixbound import geometry, mixing
from mixbound.fieldpoly import (
    INFINITE,
    FpPoly,
    _monic_polys_of_degree,
    content,
    gcd,
    irreducible_factors,
    is_irreducible,
    monic_divisors,
)
from mixbound.geometry import POLYGON, cross
from mixbound.laurent import (
    LaurentPoly,
    combination_solve,
    exact_divides,
    in_ideal,
    normalize,
    relation_sum,
)
from mixbound.mixing import (
    CERTIFIED_NON_MIXING,
    GEOMETRICALLY_MIXING,
    RELATION_FOUND,
    UNRESOLVED,
    DegenerateInput,
    FaceAlignment,
    IrreducibilityCertificate,
    ShapeVerdict,
    VolochScan,
    make_witness,
    shape_prefilter,
)
from mixbound.newton import (
    ExtendedNorm,
    FaceNewtonData,
    NewtonPoint,
    NewtonPolygon,
    Segment,
    Valuation,
)
from mixbound.parse import ParseError, parse_poly
from mixbound.report import ordinate, rational, valuation_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

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


def invert_coefficient(f, swap=False):
    """f with the coefficient variable of a view inverted, as
    `mixing.verify_eisenstein` builds its inverted view before
    `laurent.columns` reads it: u2 -> 1/u2, or u1 -> 1/u1 when the view
    exchanges u1 and u2."""
    return f.map_exponents(((-1, 0), (0, 1)) if swap else ((1, 0), (0, -1)))


def dense_columns_by_normalize(f):
    """(shift, [q_0, ..., q_n]) with f = u^shift sum_i q_i(u2) u1^i,
    zero q_i included, built in three steps.

    The reference for `laurent.columns`, which reads f's terms once,
    applies the change of variables itself and keeps the nonzero columns
    only: here f (already mapped by the caller) is normalized into a new
    LaurentPoly, and its terms then fill one dict per u1-column.
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
    return shift, coeffs


def dense_view(f, swap=False, inverted=False):
    """[q_0, ..., q_n] of f in one orientation: swap first, then invert u2."""
    return dense_columns_by_normalize(f.map_exponents(ORIENTATION_MATRICES[swap, inverted]))[1]


def from_dense_columns(coeffs, p, shift=(0, 0)):
    """u^shift sum_i coeffs[i](u2) u1^i."""
    s1, s2 = shift
    return LaurentPoly(
        {(i + s1, j + s2): c for i, q in enumerate(coeffs) for j, c in enumerate(q.coeffs)}, p
    )


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
    (f1, f2), den = dense_columns_by_normalize(f)
    (g1, g2), rem = dense_columns_by_normalize(g)
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
    return from_dense_columns(quotient, p, (g1 - f1, g2 - f2))


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

    The reference for what peeling in `mixing.shape_prefilter` leaves of a
    3-point shape on a triangle hull, sharing no code with it: only a
    positive homothet survives.  Returns (assignment, ratio) where
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

    The reference for certification in `mixing.shape_witness_search`,
    which checks the relation at k alone, by `make_witness`'s
    multiply-back, and lets the p-th power map carry it to every k p^j
    once its coefficients are constants: here both dilations are
    expanded term by term and reduced modulo f by `in_ideal`, about
    (k p^2)^2 term updates.
    """
    for j in (1, 2):
        kk = witness.k * f.p**j
        if not in_ideal(relation_sum(f, shape, kk, witness.coefficients), f):
            return False
    return True


def shape_search_from_scratch(f, shape, kmax, windows):
    """(verdict kind, witness) of the relation search, every cell from scratch.

    The reference for `mixing.shape_witness_search`, which carries the
    normal forms NF(u^{k n_i}) from k to k+1: here each (k, window) cell
    is `combination_solve(f, dil, w)` with nothing carried, so every cell
    reduces each u^{k n_i} from the monomial 1.  The cell order, the
    skipped W = 0 entries of the schedule and the stop rules are those
    of the search.
    """
    pts = [tuple(n) for n in shape]
    pre = shape_prefilter(f, pts)
    if pre is not None:
        return pre.kind, None
    relation = None
    for k in range(1, kmax + 1):
        dil = [(k * a, k * b) for a, b in pts]
        ms = combination_solve(f, dil, 0)
        if ms is not None:
            witness = make_witness(f, pts, k, ms)
            assert witness.constant_flag
            return CERTIFIED_NON_MIXING, witness
        if relation is None:
            for w in windows:
                if w == 0:
                    continue
                ms = combination_solve(f, dil, w)
                if ms is not None:
                    relation = make_witness(f, pts, k, ms)
                    break
    if relation is not None:
        return RELATION_FOUND, relation
    return UNRESOLVED, None


def prefilter_by_rules(f, shape):
    """Geometric reasons the shape must be mixing, or None.

    With `three_shape_by_rules`, the reference for `mixing.shape_prefilter`,
    which peels unique face-normal maximizers: here the rules peeling
    replaced.  Small shapes are mixing outright (any sequence of arity at
    most R-1 is), and so is any shape whose pairwise difference directions
    miss one of the hull's face directions.  Neither rule looks at whether
    f is irreducible.
    """
    pts = [tuple(n) for n in shape]
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


def three_shape_by_rules(f, shape):
    """The geometric verdict on a 3-point shape, or None for the search.

    The rules that `shape-test` applied to 3-point shapes before peeling.
    R > 3 settles it (order of mixing is at least 3).  For a triangle hull
    the shape must be a positive homothet of the vertex triangle to stand
    any chance of being non-mixing; two counter-clockwise triangles are
    positive homothets exactly when their edges have the same primitive
    directions, and point reflections of each other exactly when those
    directions are negated.  Collinear and point-reflected shapes were
    left UNRESOLVED; matches went to the search, which applied
    `prefilter_by_rules` first.
    """
    pts = [tuple(n) for n in shape]
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
    return prefilter_by_rules(f, pts)


def peel_in_rounds(f, shape):
    """The points of the shape left by peeling, as a set.

    The reference for the peeling in `mixing.shape_prefilter`, which drops
    one unique maximizer at a time: here each round finds the unique
    maximizer of every face normal over the points left and drops them
    all at once, and the normals are taken from the hull's vertices here.
    """
    vs = geometry.convex_hull(f.support()).vertices
    normals = [
        (b[1] - a[1], a[0] - b[0]) for a, b in zip(vs, vs[1:] + vs[:1])
    ]
    left = set(map(tuple, shape))
    while left:
        drop = set()
        for a, b in normals:
            top = max(a * x + b * y for x, y in left)
            winners = [pt for pt in left if a * pt[0] + b * pt[1] == top]
            if len(winners) == 1:
                drop.add(winners[0])
        if not drop:
            break
        left -= drop
    return left


def ord_by_division(a, g):
    """Multiplicity of g in a by dividing g out one factor at a time;
    INFINITE for a = 0.  With g = t, the reference for the ord_{u2}
    Newton points that `newton.newton_points` reads off f's exponents."""
    if a.is_zero():
        return INFINITE
    m = 0
    while True:
        q, r = divmod(a, g)
        if not r.is_zero():
            return m
        a, m = q, m + 1


def neg_degree(a):
    """-deg a from a's coefficient list; INFINITE for a = 0.  The
    reference for the degree-norm Newton points of `newton.newton_points`."""
    return INFINITE if a.is_zero() else 1 - len(a.coeffs)


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
    val = Valuation.finite_at(coeff_axis=1 if swap else 2, inverted=inverted)
    m = ORIENTATION_MATRICES[swap, inverted]
    (a, b), (c, d) = m
    dvec = (
        a * face.direction[0] + b * face.direction[1],
        c * face.direction[0] + d * face.direction[1],
    )
    target = Fraction(dvec[1], dvec[0])
    coeffs = dense_view(f, swap, inverted)
    points = tuple(
        NewtonPoint(i, ord_by_division(q, t)) for i, q in enumerate(coeffs)
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


def newton_json_per_face(data):
    """One face's Newton record as JSON, built on its own.

    The reference for `report.build_report`, which builds the valuation,
    points and segments once per coordinate change and shares them among
    that change's faces: here every face gets its own objects.
    """
    return {
        "valuation": valuation_json(data.valuation),
        "points": [[pt.index, ordinate(pt.ordinate)] for pt in data.points],
        "segments": [
            {"slope": rational(s.slope), "start": s.start, "end": s.end}
            for s in data.polygon.segments
        ],
        "extended_norm": {
            "log_u1": rational(data.norm.log_u1),
            "log_u2": rational(data.norm.log_u2),
        },
    }


def face_norm_by_direction(face):
    """The log-vector of the face's norm as two Fractions: the primitive
    outward normal over the size of its u1-entry when the face's
    direction is vertical, else of its u2-entry.

    The reference for `geometry.Face.coeff_entry`, which reads the
    choice off the normal alone.
    """
    n = face.normal
    k = abs(n[0] if face.direction[0] == 0 else n[1])
    return (Fraction(n[0], k), Fraction(n[1], k))


def diagnostics_by_face_norms(f, diag):
    """diag, a table of `mixing.sequence_diagnostics` for f, with every
    alignment scored again over each face's norm from
    `face_newton_data_per_face`.

    The reference for the diagnostics' scoring, which ranks a tuple's
    points by the integer normal and divides only the gap: here every
    inner product is a Fraction of the from-scratch norm.
    """
    faces = geometry.faces(geometry.convex_hull(f.support()))
    norms = [face_newton_data_per_face(f, face).norm.vector() for face in faces]
    out = []
    for entry in diag:
        alignments = []
        for idx, (face, (v1, v2)) in enumerate(zip(faces, norms)):
            scored = sorted(entry.points, key=lambda n: (-(v1 * n[0] + v2 * n[1]), n))
            top, second = scored[0], scored[1]
            gap = (v1 * top[0] + v2 * top[1]) - (v1 * second[0] + v2 * second[1])
            d = face.direction
            offset = abs(d[0] * (second[1] - top[1]) - d[1] * (second[0] - top[0]))
            alignments.append(FaceAlignment(idx, top, second, gap, offset))
        out.append(entry._replace(alignments=tuple(alignments)))
    return out


def _search_factor(f, pu):
    """First factor of u1-degree 1..n//2 of the u1-view pu, or None.

    The reference for `mixing._search_factor`, in the same candidate
    order, by full enumeration: every polynomial of degree <= d2 is tried
    as each middle coefficient, and each candidate's specializations at
    u2 = c are rebuilt as polynomials that f(c, u1) is divided by.  The
    library solves for the middle coefficient from the divisors of
    f(1, u2), looks precomputed values up in precomputed divisor sets,
    and adds a filter at u1 = c.  Nothing here depends on the bidegree:
    the degree argument and the swapped-view search of
    `mixing.brute_force_certify` sit outside the function this replaces.
    """
    p = f.p
    n = len(pu) - 1
    q0, qn = pu[0], pu[-1]
    d2 = max(q.degree for q in pu if not q.is_zero())
    # a divisor specializes to a divisor at every u2 = c (where f stays
    # nonzero), which rejects most candidates with a few scalar divisions.
    # pu is normalized, so u2 = 0 is always one of them: it rejects every
    # candidate divisible by u2, which can divide f in the Laurent ring
    # but never in the polynomial ring the factor is searched in
    specials = []
    for c in range(p):
        fc = FpPoly([q.eval(c) for q in pu], p)
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
                    cand = from_dense_columns(cand_coeffs, p)
                    if exact_divides(cand, f) is not None:
                        return cand
    return None


def brute_force_searching_every_hull(f):
    """The brute-force certificate with no hull test.

    The reference for `mixing.brute_force_certify`, which certifies with
    no search an input whose hull does not split into two polygons of
    positive width in both coordinates: here every input past the content
    checks and the extent argument goes to the factor search.  A
    one-variable input returns before the hull test, so it is handed to
    `mixing.brute_force_certify` itself.
    """
    p = f.p
    d1, d2 = (max(e) - min(e) for e in zip(*f.support()))
    if p not in (2, 3) or d1 > 4 or d2 > 4:
        return None
    if d1 == 0 or d2 == 0:
        return mixing.brute_force_certify(f)
    pu, pv = dense_view(f), dense_view(f, swap=True)
    for view, swap in ((pu, False), (pv, True)):
        c = content(view)
        if c.degree != 0:
            factor = from_dense_columns((c,), p)
            if swap:
                factor = factor.swap_vars()
            return IrreducibilityCertificate("reducible", factor=factor)
    irreducible = IrreducibilityCertificate("brute_force", searched_bidegree=(d1, d2))
    if min(d1, d2) <= 1 or (d2 < d1 and mixing._search_factor(f.swap_vars(), pv) is None):
        return irreducible
    factor = mixing._search_factor(f, pu)
    if factor is None:
        return irreducible
    return IrreducibilityCertificate("reducible", factor=factor)


def eisenstein_by_content(f):
    """The Eisenstein certificate found from every orientation's content.

    The reference for `mixing.eisenstein_certify`, which decides an
    orientation with a monomial coefficient below q_n from the exponents
    alone: here every orientation is rewritten in full, and
    c = gcd(q_0, ..., q_{n-1}) is computed and trial-divided.  The
    inverted orientation is skipped when a q_i below q_n has the top
    u2-degree: its c is then the reversal of the plain c's part prime to
    u2, and it certifies nothing the plain orientation does not.
    """
    for main_axis in (1, 2):
        for inverted in (False, True):
            coeffs = dense_view(f, swap=main_axis == 2, inverted=inverted)
            if len(coeffs) < 2:
                break
            c = content(coeffs[:-1])
            if c.degree > 0 and gcd(c, coeffs[-1]).degree == 0:
                for g, _ in irreducible_factors(c, 2):
                    if not (g * g).divides(coeffs[0]):
                        return IrreducibilityCertificate(
                            "eisenstein", main_axis=main_axis, inverted=inverted, g=g
                        )
            if max(q.degree for q in coeffs[:-1]) == max(q.degree for q in coeffs):
                break
    return None


def splits_by_enumeration(poly):
    """Whether some choice of sub-edge lengths closes up into a summand
    of positive width in both coordinates that leaves the same to the rest.

    The reference for `geometry.splits_with_both_extents`, which grows the
    reachable chains edge by edge and stops at the first that closes:
    here every tuple 0 <= m_i <= n_i is tried with `itertools.product`.
    A segment hull has the same edge twice, once each way.
    """
    vs = poly.vertices
    steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(vs, vs[1:] + vs[:1])]
    edges = []
    for dx, dy in steps:
        n = math.gcd(dx, dy)
        if n:
            edges.append((dx // n, dy // n, n))
    width = sum(n * vx for vx, _, n in edges if vx > 0)
    height = sum(n * vy for _, vy, n in edges if vy > 0)
    for ms in product(*(range(n + 1) for _, _, n in edges)):
        if sum(m * vx for m, (vx, _, _) in zip(ms, edges)) != 0:
            continue
        if sum(m * vy for m, (_, vy, _) in zip(ms, edges)) != 0:
            continue
        wx = sum(m * vx for m, (vx, _, _) in zip(ms, edges) if vx > 0)
        wy = sum(m * vy for m, (_, vy, _) in zip(ms, edges) if vy > 0)
        if 0 < wx < width and 0 < wy < height:
            return True
    return False


def _specializations_divide(cand_coeffs, specials, p):
    for c, fc in specials:
        gc = FpPoly([q.eval(c) for q in cand_coeffs], p)
        if gc.is_zero() or not (fc % gc).is_zero():
            return False
    return True


def _f2_terms(*exponents):
    """The sum of t^e over the given distinct exponents, over F_2."""
    coeffs = [0] * (max(exponents) + 1)
    for e in exponents:
        coeffs[e] = 1
    return FpPoly(coeffs, 2)


@functools.cache
def _trinomial_power(m):
    """(1+t+t^2)^m over F_2, by m FpPoly multiplications; each power is kept."""
    if m == 0:
        return FpPoly.one(2)
    return _trinomial_power(m - 1) * _f2_terms(0, 1, 2)


def voloch_scan_by_ring_ops(mmax):
    """The reference for `mixing.voloch_identity_scan`, in FpPoly ring operations.

    (1+t+t^2)^m comes from repeated multiplication and is compared with
    1+t^(2m); (1+t+t^2)^(2^e) comes from repeated squaring and is compared
    with 1+t^(2^e)+t^(2^(e+1)).  No packed integer is involved.
    """
    solutions = tuple(
        m for m in range(1, mmax + 1) if _trinomial_power(m) == _f2_terms(0, 2 * m)
    )
    checked, failures = [], []
    square, e = _f2_terms(0, 1, 2), 0
    while 2**e <= mmax:
        if square == _f2_terms(0, 2**e, 2 ** (e + 1)):
            checked.append(e)
        else:
            failures.append(e)
        square = square * square
        e += 1
    return VolochScan(mmax, solutions, tuple(checked), tuple(failures))


class CountingTokens:
    """The polynomial tokenizer with line and column counters.

    The reference for `parse._Tokens`, which keeps one cursor and works
    line and column out of a token's offset only when an error is raised:
    here the counters advance with every character and each token carries
    its (line, column) pair where `_Tokens` puts the offset, so the parser
    functions run unchanged on either.  Its digit run starts on
    `str.isdigit()`, so a digit such as '²' that `int()` rejects escapes as
    a bare ValueError.
    """

    def __init__(self, text, punct):
        self.tokens = []
        line, col = 1, 1
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if ch.isspace():
                col += 1
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("int", int(text[i:j]), (line, col)))
                col += j - i
                i = j
                continue
            if ch.isalpha():
                for name in ("u1", "u2", "t"):
                    if text.startswith(name, i):
                        self.tokens.append(("name", name, (line, col)))
                        col += len(name)
                        i += len(name)
                        break
                else:
                    j = i
                    while j < len(text) and text[j].isalnum():
                        j += 1
                    self.tokens.append(("name", text[i:j], (line, col)))
                    col += j - i
                    i = j
                continue
            if ch in punct:
                self.tokens.append((ch, ch, (line, col)))
                col += 1
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", line, col)
        self.tokens.append(("end", None, (line, col)))
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
        line, col = self.peek()[2] if at is None else at
        raise ParseError(message, line, col)


def _position(text, i, line=1):
    # 1-based (line, column) of offset i in text, whose first line is `line`
    return line + text.count("\n", 0, i), i - text.rfind("\n", 0, i)


def points_by_split(text, start=0, line=1):
    """The points of the ';'-separated chunks of text[start:].

    The reference for `parse.parse_points`, which parses the tokens of
    the grammar: here each chunk is split on ',' and its coordinates are
    read by `int()`, so '_' digit grouping is accepted and a sign may not
    be followed by whitespace.  A ParseError points at the first
    character of the chunk at fault; text's first line is `line`.
    """
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
        if abs(pt[0]) > geometry.COORD_LIMIT or abs(pt[1]) > geometry.COORD_LIMIT:
            raise ParseError(f"coordinate out of range in {chunk!r}", *where)
        pts.append(pt)
    if not pts:
        raise ParseError("empty point list", *_position(text, start, line))
    return pts


def family_line_by_split(text, line=1):
    """The reference for `parse.parse_family_line`: the label is `int()`
    of the text before the first ':', and the rest goes to
    `points_by_split`."""
    label, colon, _ = text.partition(":")
    if not colon:
        raise ParseError(f"expected 'label: points' in {text!r}", line, 1)
    try:
        j = int(label.strip())
    except ValueError:
        at = len(label) - len(label.lstrip())
        raise ParseError(f"non-integer label in {text!r}", *_position(text, at, line)) from None
    return j, points_by_split(text, len(label) + 1, line)


def windows_by_split(text):
    """The reference for `parse.parse_windows`: the text is split on ','
    and each nonempty entry is read by `int()`."""
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


@functools.cache
def load_perfbench(name):
    """The module perfbench/<name>.py, imported once from its file as it is."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


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
