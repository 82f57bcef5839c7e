"""Newton polygons of bivariate Laurent polynomials with respect to
non-Archimedean norms on the coefficient ring, and the norm extensions
they induce.

The base norms on F_p[u2] are |a| = p^(-ord a), ord the order at u2,
and the degree norm |a| = p^(deg a).  Writing f as sum q_i(u2) u1^i, the
Newton polygon is the lower convex hull of the points (i, -log_p|q_i|),
whose ordinates are integers (+infinity for q_i = 0).  Each segment of
slope s, an exact rational, yields an extension norm with log_p|u1| = s.

`newton_polygon` is the one place a Newton polygon is built: it reads
the Newton points off f's exponents after the coordinate changes a
valuation records (ord q_i and deg q_i are the extreme u2-exponents of
the u1^i terms), takes their lower hull with `geometry.lower_chain` (the
monotone chain of the convex hull), and maps each segment's log-vector
back to the original coordinates.  `extended_norms` keeps every segment.
`face_newton_data` checks the face-to-norm result against f's Newton
polygons: a face of f's hull gets the norm whose log-vector is its
outward normal (n1, n2) over k = |`Face.coeff_entry`|, the normal's
entry on the coefficient variable (u2, or u1 for a vertical face).
Each face's segment is the one of its coordinate change whose
pulled-back vector (a, b) satisfies a * k == n1 and b * k == n2; the
face's norm is that vector, and a face with none raises AssertionError.
There are at most four coordinate changes; each Newton polygon is built
once, and faces that share a change share its polygon.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import geometry
from .fieldpoly import INFINITE
from .laurent import LaurentPoly, exponent_columns

FINITE = "finite"
INFINITY_DEG = "infinity"

# coeff_log's two values, log_p|u| of the coefficient variable u: -1 when
# the base norm is p^-ord at u, +1 when it is p^deg
_LOG_ORD = Fraction(-1)
_LOG_DEG = Fraction(1)


class _ValuationFields(NamedTuple):
    kind: str
    coeff_axis: int = 2
    inverted: bool = False


class Valuation(_ValuationFields):
    """A base norm on the coefficient ring, plus coordinate bookkeeping.

    kind is FINITE (p^-ord at the coefficient variable) or INFINITY_DEG
    (p^deg).  coeff_axis names the original variable (1 or 2) that
    carries the coefficient ring; inverted records whether that variable
    was replaced by its inverse before the Newton points were read.
    """

    __slots__ = ()

    def __new__(cls, kind, coeff_axis=2, inverted=False):
        if kind not in (FINITE, INFINITY_DEG):
            raise ValueError(f"unknown valuation kind {kind!r}")
        if coeff_axis not in (1, 2):
            raise ValueError("coeff_axis must be 1 or 2")
        return tuple.__new__(cls, (kind, coeff_axis, inverted))

    @classmethod
    def finite_at(cls, coeff_axis=2, inverted=False):
        return cls(FINITE, coeff_axis, inverted)

    @classmethod
    def infinity_deg(cls, coeff_axis=2, inverted=False):
        return cls(INFINITY_DEG, coeff_axis, inverted)

    def coeff_log(self):
        """log_p of the base norm of the coefficient variable itself."""
        return _LOG_DEG if self.kind == INFINITY_DEG else _LOG_ORD


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

    def __new__(cls, log_u1, log_u2, source):
        if log_u1 == 0 and log_u2 == 0:
            raise ValueError("trivial norm vector (0, 0)")
        return tuple.__new__(cls, (log_u1, log_u2, source))

    def vector(self):
        return (self.log_u1, self.log_u2)


def newton_points(f: LaurentPoly, val: Valuation):
    """One point (i, -log_p|q_i|) per u1-column i of f, counted from the
    first, after the coordinate changes val records.

    With base and peak the least and greatest u2-exponent of f, a column
    with exponents es has ord es[0] - base and degree es[-1] - base, or
    peak - es[-1] and peak - es[0] once u2 is inverted.
    """
    cols = exponent_columns(f, swap=val.coeff_axis == 1)
    base = min(es[0] for es in cols.values())
    peak = max(es[-1] for es in cols.values())
    first = min(cols)
    points = []
    for i in range(first, max(cols) + 1):
        es = cols.get(i)
        if es is None:  # q_i = 0
            y = INFINITE
        elif val.kind == FINITE:
            y = peak - es[-1] if val.inverted else es[0] - base
        else:
            y = es[0] - peak if val.inverted else base - es[-1]
        points.append(NewtonPoint(i - first, y))
    return tuple(points)


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
    # tuples from lists: tuple() of a generator over-allocates and shrinks,
    # and the shrunk tuples fill the interpreter's free lists pass by pass
    segments = tuple([
        Segment(Fraction(b.ordinate - a.ordinate, b.index - a.index), a.index, b.index)
        for a, b in zip(hull, hull[1:])
    ])
    return NewtonPolygon(tuple(hull), segments)


def newton_polygon(f: LaurentPoly, val: Valuation):
    """The Newton polygon of f under val, and the norm each segment yields.

    f is read as a polynomial in u1 after the coordinate changes val
    records.  Returns the Newton points, their lower hull, and one
    log-vector (log_p|u1|, log_p|u2|) per segment, pulled back to the
    original coordinates.
    """
    points = newton_points(f, val)
    polygon = lower_hull(points)
    # log-vectors pull back through the transpose of the exponent map
    c = -val.coeff_log() if val.inverted else val.coeff_log()
    vectors = tuple([
        (c, seg.slope) if val.coeff_axis == 1 else (seg.slope, c)
        for seg in polygon.segments
    ])
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


def face_newton_data(f: LaurentPoly, hull: geometry.LatticePolygon) -> list:
    """Run the face-to-norm reduction on every face of hull, the convex
    hull of the support of f that the caller has already built, keeping
    the intermediate data: one record per face, in `geometry.faces` order.

    Vertical faces are handled by exchanging u1 and u2; a positive
    `coeff_entry` by inverting the coefficient variable; afterwards the
    face is a lower face, and its Newton segment is the one whose
    pulled-back vector (a, b) is the normal (n1, n2) over k =
    |coeff_entry|, checked in integers: a * k == n1 and b * k == n2 over
    a's and b's denominators.  The face's norm is the matched vector.  No
    such segment means the reduction failed, and raises AssertionError.
    The Newton polygon of each coordinate change is computed once, for
    all the faces that use it.
    """
    # shared maps a coordinate change to its valuation, Newton points,
    # polygon and pulled-back vectors
    shared = {}
    out = []
    for face in geometry.faces(hull):
        n1, n2 = face.normal
        entry = face.coeff_entry
        swap = entry != n2  # the entry is u1's
        inverted = entry > 0
        if (swap, inverted) not in shared:
            val = Valuation.finite_at(1 if swap else 2, inverted)
            shared[swap, inverted] = (val, *newton_polygon(f, val))
        val, points, np, vectors = shared[swap, inverted]
        k = abs(entry)
        for seg, (a, b) in zip(np.segments, vectors):
            if a.numerator * k == n1 * a.denominator and b.numerator * k == n2 * b.denominator:
                break
        else:
            raise AssertionError(
                f"no Newton segment with norm vector ({n1}/{k}, {n2}/{k})"
                f" for face {face.start}->{face.end}"
            )
        out.append(FaceNewtonData(face, val, points, np, seg, ExtendedNorm(a, b, (face, val))))
    return out
