"""Newton polygons of bivariate Laurent polynomials with respect to
non-Archimedean norms on the coefficient ring, and the norm extensions
they induce.

The base norms on F_p[u2] are |a|_g = p^(-ord_g a) for an irreducible g
and the degree norm |a| = p^(deg a).  Writing f as sum q_i(u2) u1^i, the
Newton polygon is the lower convex hull of the points (i, -log_p|q_i|),
whose ordinates are integers (+infinity for q_i = 0).  Each segment of
slope s, an exact rational, yields an extension norm with log_p|u1| = s.

`face_newton_data` runs the reduction that turns hull faces into such
norms: swap the variables when a face is vertical, replace u2 by its
inverse when it points upward, read the slope off the Newton polygon,
and map the resulting log-vector back through the recorded coordinate
changes.  The outcome is always a positive multiple of the face's
primitive outward normal.  Both coordinate changes happen inside the
one rewrite `as_poly_in_u1(f, swap, inverted)`, which reads f's terms
once.  There are at most four coordinate changes, and the reduction
runs once per change: faces that share one share its Newton polygon.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import geometry
from .fieldpoly import FpPoly, INFINITE, is_irreducible, neg_log_infinity_norm, ord_at
from .laurent import LaurentPoly, PolyInU1, as_poly_in_u1

FINITE = "finite"
INFINITY_DEG = "infinity"


class _ValuationFields(NamedTuple):
    kind: str
    g: FpPoly | None = None
    coeff_axis: int = 2
    inverted: bool = False


class Valuation(_ValuationFields):
    """A base norm on the coefficient ring, plus coordinate bookkeeping.

    kind is FINITE (p^-ord_g) or INFINITY_DEG (p^deg).  coeff_axis names
    the original variable (1 or 2) that carries the coefficient ring;
    inverted records whether that variable was replaced by its inverse
    before the polynomial was rewritten.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in (FINITE, INFINITY_DEG):
            raise ValueError(f"unknown valuation kind {self.kind!r}")
        if self.coeff_axis not in (1, 2):
            raise ValueError("coeff_axis must be 1 or 2")
        if self.kind == FINITE:
            if self.g is None or self.g.degree < 1:
                raise ValueError("finite valuation needs a non-constant g")
            if not is_irreducible(self.g):
                raise ValueError("finite valuation needs an irreducible g")
        elif self.g is not None:
            raise ValueError("degree valuation takes no polynomial")
        return self

    @classmethod
    def finite_at(cls, g, coeff_axis=2, inverted=False):
        return cls(FINITE, g, coeff_axis, inverted)

    @classmethod
    def infinity_deg(cls, coeff_axis=2, inverted=False):
        return cls(INFINITY_DEG, None, coeff_axis, inverted)

    def ordinate(self, q: FpPoly):
        """-log_p of the base norm of q (INFINITE for q = 0)."""
        if self.kind == FINITE:
            return ord_at(q, self.g)
        return neg_log_infinity_norm(q)

    def coeff_log(self):
        """log_p of the base norm of the coefficient variable itself."""
        if self.kind == INFINITY_DEG:
            return Fraction(1)
        return Fraction(-ord_at(FpPoly.x(self.g.p), self.g))


class NewtonPoint(NamedTuple):
    index: int
    ordinate: object  # int or INFINITE


class Segment(NamedTuple):
    slope: Fraction
    start: int
    end: int


class NewtonPolygon(NamedTuple):
    """Lower convex hull of Newton points: vertices where the slope
    changes, and the segments between them with strictly increasing
    slopes."""

    vertices: tuple
    segments: tuple


class _ExtendedNormFields(NamedTuple):
    log_u1: Fraction
    log_u2: Fraction
    source: tuple


class ExtendedNorm(_ExtendedNormFields):
    """Logs (base p) of |u1| and |u2| under one extension norm."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.log_u1 == 0 and self.log_u2 == 0:
            raise ValueError("trivial norm vector (0, 0)")
        return self

    def vector(self):
        return (self.log_u1, self.log_u2)


def newton_points(f: PolyInU1, val: Valuation):
    """One point (i, -log_p|q_i|) per coefficient of f."""
    return [NewtonPoint(i, val.ordinate(q)) for i, q in enumerate(f.coeffs)]


def lower_hull(points) -> NewtonPolygon:
    """Highest convex polygonal line lying on or below all finite points.

    Points with INFINITE ordinate sit above every line and are ignored.
    With fewer than two finite points the polygon degenerates to a single
    vertex and has no segments.
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


def _map_back(w, val: Valuation):
    # log-vectors pull back through the transpose of the exponent map
    lam, c = w
    if val.inverted:
        c = -c
    if val.coeff_axis == 1:
        return (c, lam)
    return (lam, c)


def extended_norms(f: LaurentPoly, val: Valuation):
    """All extensions of the base norm to the quotient by f, one per
    Newton-polygon segment, expressed in the original coordinates."""
    if f.is_zero() or f.is_monomial():
        raise ValueError("norm extensions need a non-monomial, nonzero f")
    poly = as_poly_in_u1(f, swap=val.coeff_axis == 1, inverted=val.inverted)
    np = lower_hull(newton_points(poly, val))
    coeff_log = val.coeff_log()
    out = []
    for seg in np.segments:
        vec = _map_back((seg.slope, coeff_log), val)
        out.append(ExtendedNorm(vec[0], vec[1], (seg.slope, val)))
    return out


class FaceNewtonData(NamedTuple):
    """Everything the face-to-norm reduction produced for one face."""

    face: geometry.Face
    valuation: Valuation
    points: tuple
    polygon: NewtonPolygon
    segment: Segment
    norm: ExtendedNorm


def face_newton_data(f: LaurentPoly, faces) -> list:
    """Run the face-to-norm reduction and keep the intermediate data, one
    record per face, in the order given.

    Every face must belong to the hull of the support of f.  Vertical faces
    are handled by exchanging u1 and u2; upward faces by replacing u2
    with its inverse; afterwards the face is a lower face and its slope
    appears among the Newton-polygon slopes for ord_{u2}.  The Newton
    polygon of each coordinate change is computed once, for all the faces
    that use it.
    """
    hull_faces = geometry.faces(geometry.convex_hull(f.support()))
    if any(face not in hull_faces for face in faces):
        raise ValueError("face does not belong to the hull of f")
    shared = {}
    out = []
    for face in faces:
        swap = face.direction[0] == 0
        inverted = (face.normal[0] if swap else face.normal[1]) > 0
        if (swap, inverted) not in shared:
            val = Valuation.finite_at(
                FpPoly.x(f.p), coeff_axis=1 if swap else 2, inverted=inverted
            )
            poly = as_poly_in_u1(f, swap=swap, inverted=inverted)
            points = tuple(newton_points(poly, val))
            shared[swap, inverted] = (val, points, lower_hull(points), val.coeff_log())
        val, points, np, coeff_log = shared[swap, inverted]
        # the face's slope after the same change of variables
        dx, dy = face.direction[::-1] if swap else face.direction
        target = Fraction(-dy if inverted else dy, dx)
        seg = next((seg for seg in np.segments if seg.slope == target), None)
        if seg is None:
            raise AssertionError(
                f"no Newton segment with slope {target} for face {face.start}->{face.end}"
            )
        vec = _map_back((seg.slope, coeff_log), val)
        norm = ExtendedNorm(vec[0], vec[1], (face, val))
        _assert_outward(norm, face)
        out.append(FaceNewtonData(face, val, points, np, seg, norm))
    return out


def face_norm_for(f: LaurentPoly, face: geometry.Face) -> ExtendedNorm:
    """The norm whose log-vector is an outward normal to the given face."""
    return face_newton_data(f, [face])[0].norm


def _assert_outward(norm: ExtendedNorm, face: geometry.Face):
    # the vector times the positive product of its denominators, in integers
    a, b = norm.log_u1, norm.log_u2
    x, y = a.numerator * b.denominator, b.numerator * a.denominator
    n = face.normal
    if x * n[1] != y * n[0] or x * n[0] + y * n[1] <= 0:
        raise AssertionError(
            f"norm vector {norm.vector()} is not a positive multiple of face normal {n}"
        )
