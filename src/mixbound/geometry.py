"""Integer convex-hull geometry for exponent vectors in Z^2.

Everything is exact: orientation predicates are integer cross products
and edge directions are primitive integer vectors (Python integers never
overflow).  Hulls are stored counter-clockwise starting at the
lexicographically smallest vertex so that face numbering is reproducible.
"""

from __future__ import annotations

import math
from typing import NamedTuple

POINT = "point"
SEGMENT = "segment"
POLYGON = "polygon"

COORD_LIMIT = 1 << 20


def cross(o, a, b):
    """Twice the signed area of triangle (o, a, b); > 0 means left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (b[0] - o[0]) * (a[1] - o[1])


def _check_coord(pt):
    if abs(pt[0]) > COORD_LIMIT or abs(pt[1]) > COORD_LIMIT:
        raise ValueError(f"coordinate out of range (|e| <= 2^20): {pt}")


def primitive(v):
    """v divided by gcd of its components; (0, 0) is rejected."""
    g = math.gcd(v[0], v[1])
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return (v[0] // g, v[1] // g)


def canonical_direction(v):
    """Primitive form of v with the first nonzero coordinate positive."""
    d = primitive(v)
    if d[0] < 0 or (d[0] == 0 and d[1] < 0):
        d = (-d[0], -d[1])
    return d


class LatticePolygon(NamedTuple):
    """Convex hull of a finite point set: extreme points only, CCW."""

    vertices: tuple
    degeneracy: str


class Face(NamedTuple):
    """One edge of a hull, with primitive direction and outward normal."""

    start: tuple
    end: tuple
    direction: tuple
    normal: tuple
    lattice_length: int


def lower_chain(points):
    """One pass of the monotone chain over points sorted by x (then y).

    Each point is kept only while the chain turns strictly left at it, so
    the result is the lower hull of the points, collinear interior points
    dropped; over the points in reverse order it is the upper hull.
    Points are indexable pairs whose coordinates may be any exact numbers.
    """
    out = []
    for pt in points:
        while len(out) > 1 and cross(out[-2], out[-1], pt) <= 0:
            out.pop()
        out.append(pt)
    return out


def convex_hull(points) -> LatticePolygon:
    """Monotone-chain hull; vertices are exactly the extreme points, CCW.

    Collinear points interior to an edge are dropped.  Degenerate inputs
    classify as POINT or SEGMENT (with the two extreme endpoints kept).
    """
    pts = sorted(set(tuple(p) for p in points))
    if not pts:
        raise ValueError("convex hull of an empty set")
    for pt in pts:
        _check_coord(pt)
    if len(pts) == 1:
        return LatticePolygon((pts[0],), POINT)
    lower = lower_chain(pts)
    upper = lower_chain(reversed(pts))
    verts = lower[:-1] + upper[:-1]
    if len(verts) == 2:
        return LatticePolygon(tuple(sorted(verts)), SEGMENT)
    start = verts.index(min(verts))
    verts = verts[start:] + verts[:start]
    return LatticePolygon(tuple(verts), POLYGON)


def _make_face(a, b):
    d = primitive((b[0] - a[0], b[1] - a[1]))
    # interior of a CCW polygon lies left of each edge, so outward is right
    normal = (d[1], -d[0])
    length = math.gcd(b[0] - a[0], b[1] - a[1])
    return Face(a, b, d, normal, length)


def faces(poly: LatticePolygon):
    """Faces in CCW order from the lexicographically smallest vertex.

    A SEGMENT hull yields exactly one face whose normal is only canonical
    (there is no interior to point away from); POINT hulls are an error.
    """
    if poly.degeneracy == POINT:
        raise ValueError("a single point has no faces")
    if poly.degeneracy == SEGMENT:
        a, b = poly.vertices
        d = canonical_direction((b[0] - a[0], b[1] - a[1]))
        normal = canonical_direction((d[1], -d[0]))
        return [Face(a, b, d, normal, math.gcd(b[0] - a[0], b[1] - a[1]))]
    vs = poly.vertices
    n = len(vs)
    return [_make_face(vs[i], vs[(i + 1) % n]) for i in range(n)]


def slope_set(face_list):
    """Face directions deduplicated up to sign (canonical primitive form)."""
    return {canonical_direction(f.direction) for f in face_list}
