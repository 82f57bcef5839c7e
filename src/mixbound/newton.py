"""Newton polygons of bivariate Laurent polynomials with respect to
non-Archimedean norms on the coefficient ring, and the norm extensions
they induce.

The base norms on F_p[u2] are |a|_g = p^(-ord_g a) for an irreducible g
and the degree norm |a| = p^(deg a).  Writing f as sum q_i(u2) u1^i, the
Newton polygon is the lower convex hull of the points (i, -log_p|q_i|),
whose ordinates are integers (+infinity for q_i = 0).  Each segment of
slope s, an exact rational, yields an extension norm with log_p|u1| = s.

`newton_polygon` is the one place a Newton polygon is built: it rewrites
f through the coordinate changes a valuation records, in the one rewrite
`as_poly_in_u1(f, swap, inverted)` that reads f's terms once, takes the
lower hull of the Newton points with `geometry.lower_chain` (the monotone
chain of the convex hull), and maps each segment's log-vector back to the
original coordinates.  `extended_norms` keeps every segment.
`face_newton_data` runs the reduction that turns the faces of f's hull
into norms: swap the variables when a face is vertical, replace u2 by
its inverse when it points upward, and pick the segment with the face's
slope.  The outcome is always a positive multiple of the face's
primitive outward normal.  There are at most four coordinate changes;
`face_newton_data` builds the Newton polygon once per change, and faces
that share one share its polygon, while `face_norm_for` builds only the
polygon of the one face it is asked about.
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
    hull = geometry.lower_chain(finite)
    segments = tuple(
        Segment(Fraction(b.ordinate - a.ordinate, b.index - a.index), a.index, b.index)
        for a, b in zip(hull, hull[1:])
    )
    return NewtonPolygon(tuple(hull), segments)


def newton_polygon(f: LaurentPoly, val: Valuation):
    """The Newton polygon of f under val, and the norm each segment yields.

    f is rewritten as a polynomial in u1 after the coordinate changes val
    records.  Returns the Newton points, their lower hull, and one
    log-vector (log_p|u1|, log_p|u2|) per segment, pulled back to the
    original coordinates.
    """
    poly = as_poly_in_u1(f, swap=val.coeff_axis == 1, inverted=val.inverted)
    points = tuple(newton_points(poly, val))
    polygon = lower_hull(points)
    # log-vectors pull back through the transpose of the exponent map
    c = -val.coeff_log() if val.inverted else val.coeff_log()
    vectors = tuple(
        (c, seg.slope) if val.coeff_axis == 1 else (seg.slope, c)
        for seg in polygon.segments
    )
    return points, polygon, vectors


def extended_norms(f: LaurentPoly, val: Valuation):
    """All extensions of the base norm to the quotient by f, one per
    Newton-polygon segment, expressed in the original coordinates."""
    if f.is_zero() or f.is_monomial():
        raise ValueError("norm extensions need a non-monomial, nonzero f")
    _, polygon, vectors = newton_polygon(f, val)
    return [
        ExtendedNorm(a, b, (seg.slope, val)) for seg, (a, b) in zip(polygon.segments, vectors)
    ]


class FaceNewtonData(NamedTuple):
    """Everything the face-to-norm reduction produced for one face."""

    face: geometry.Face
    valuation: Valuation
    points: tuple
    polygon: NewtonPolygon
    segment: Segment
    norm: ExtendedNorm


def face_newton_data(f: LaurentPoly) -> list:
    """Run the face-to-norm reduction on every face of the hull of the
    support of f, keeping the intermediate data: one record per face, in
    `geometry.faces` order.

    Vertical faces are handled by exchanging u1 and u2; upward faces by
    replacing u2 with its inverse; afterwards the face is a lower face
    and its slope appears among the Newton-polygon slopes for ord_{u2}.
    The Newton polygon of each coordinate change is computed once, for
    all the faces that use it.
    """
    shared = {}
    return [_face_record(f, face, shared)
            for face in geometry.faces(geometry.convex_hull(f.support()))]


def face_norm_for(f: LaurentPoly, face: geometry.Face) -> ExtendedNorm:
    """The norm whose log-vector is an outward normal to the given face;
    only the Newton polygon of that face's coordinate change is built."""
    if face not in geometry.faces(geometry.convex_hull(f.support())):
        raise ValueError("face does not belong to the hull of f")
    return _face_record(f, face, {}).norm


def _face_record(f, face, shared):
    # shared maps a coordinate change to its valuation and Newton polygon
    swap = face.direction[0] == 0
    inverted = (face.normal[0] if swap else face.normal[1]) > 0
    if (swap, inverted) not in shared:
        val = Valuation.finite_at(
            FpPoly.x(f.p), coeff_axis=1 if swap else 2, inverted=inverted
        )
        shared[swap, inverted] = (val, *newton_polygon(f, val))
    val, points, np, vectors = shared[swap, inverted]
    # the face's slope after the same change of variables
    dx, dy = face.direction[::-1] if swap else face.direction
    target = Fraction(-dy if inverted else dy, dx)
    i = next((i for i, seg in enumerate(np.segments) if seg.slope == target), None)
    if i is None:
        raise AssertionError(
            f"no Newton segment with slope {target} for face {face.start}->{face.end}"
        )
    norm = ExtendedNorm(*vectors[i], (face, val))
    _assert_outward(norm, face)
    return FaceNewtonData(face, val, points, np, np.segments[i], norm)


def _assert_outward(norm: ExtendedNorm, face: geometry.Face):
    # the vector times the positive product of its denominators, in integers
    a, b = norm.log_u1, norm.log_u2
    x, y = a.numerator * b.denominator, b.numerator * a.denominator
    n = face.normal
    if x * n[1] != y * n[0] or x * n[0] + y * n[1] <= 0:
        raise AssertionError(
            f"norm vector {norm.vector()} is not a positive multiple of face normal {n}"
        )
