import random
from fractions import Fraction

import pytest

from mixbound import geometry
from mixbound.geometry import (
    POINT,
    POLYGON,
    SEGMENT,
    canonical_direction,
    convex_hull,
    cross,
    faces,
    slope_set,
    splits_with_both_extents,
)
from mixbound.laurent import LaurentPoly

from conftest import splits_by_enumeration, triangle_homothety


def contains(poly, pt):
    """True when pt lies inside or on the boundary of the hull."""
    vs = poly.vertices
    if poly.degeneracy == POINT:
        return tuple(pt) == vs[0]
    if poly.degeneracy == SEGMENT:
        a, b = vs
        if cross(a, b, pt) != 0:
            return False
        return min(a[0], b[0]) <= pt[0] <= max(a[0], b[0]) and min(
            a[1], b[1]
        ) <= pt[1] <= max(a[1], b[1])
    n = len(vs)
    return all(cross(vs[i], vs[(i + 1) % n], pt) >= 0 for i in range(n))


class TestConvexHull:
    def test_figure1_triangle(self):
        h = convex_hull({(0, 1), (1, 0), (3, 1)})
        assert h.degeneracy == POLYGON
        assert h.vertices == ((0, 1), (1, 0), (3, 1))

    def test_edge_interior_point_dropped(self):
        h = convex_hull({(0, 0), (1, 0), (0, 1), (0, 2)})
        assert h.vertices == ((0, 0), (1, 0), (0, 2))

    def test_point(self):
        assert convex_hull({(2, 3)}).degeneracy == POINT

    def test_segment_keeps_extremes(self):
        h = convex_hull({(0, 0), (1, 0), (2, 0)})
        assert h.degeneracy == SEGMENT
        assert h.vertices == ((0, 0), (2, 0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convex_hull(set())

    def test_coordinate_limit(self):
        with pytest.raises(ValueError):
            convex_hull({(1 << 21, 0), (0, 0)})

    def test_idempotent_and_contains_all(self):
        rng = random.Random(42)
        for _ in range(200):
            pts = {
                (rng.randint(-8, 8), rng.randint(-8, 8))
                for _ in range(rng.randint(1, 12))
            }
            h = convex_hull(pts)
            assert convex_hull(h.vertices).vertices == h.vertices
            assert all(contains(h, pt) for pt in pts)

    def test_vertex_minimality(self):
        rng = random.Random(43)
        checked = 0
        while checked < 200:
            pts = {
                (rng.randint(-8, 8), rng.randint(-8, 8))
                for _ in range(rng.randint(3, 12))
            }
            h = convex_hull(pts)
            if h.degeneracy != POLYGON:
                continue
            checked += 1
            for v in h.vertices:
                rest = set(h.vertices) - {v}
                smaller = convex_hull(rest)
                assert set(smaller.vertices) != set(h.vertices)
                assert not contains(smaller, v)

    def test_strict_convexity(self):
        rng = random.Random(44)
        for _ in range(100):
            pts = {
                (rng.randint(-8, 8), rng.randint(-8, 8))
                for _ in range(rng.randint(3, 12))
            }
            h = convex_hull(pts)
            if h.degeneracy != POLYGON:
                continue
            vs = h.vertices
            n = len(vs)
            for i in range(n):
                assert cross(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) > 0


class TestFaces:
    def test_figure1_normals(self):
        h = convex_hull({(0, 1), (1, 0), (3, 1)})
        assert {f.normal for f in faces(h)} == {(-1, -1), (1, -2), (0, 1)}

    def test_face_list_starts_at_lex_smallest_vertex(self):
        h = convex_hull({(0, 1), (1, 0), (3, 1)})
        assert faces(h)[0].start == (0, 1)

    def test_pentagon_face_count(self):
        h = convex_hull({(6, 0), (5, 1), (3, 2), (0, 1), (0, 3)})
        assert len(faces(h)) == 5

    def test_segment_single_face(self):
        h = convex_hull({(0, 0), (2, 0)})
        fs = faces(h)
        assert len(fs) == 1
        assert fs[0].lattice_length == 2
        assert fs[0].direction == (1, 0)

    def test_point_rejected(self):
        with pytest.raises(ValueError):
            faces(convex_hull({(1, 1)}))

    def test_normals_primitive_and_orthogonal(self):
        rng = random.Random(45)
        for _ in range(100):
            pts = {
                (rng.randint(-8, 8), rng.randint(-8, 8))
                for _ in range(rng.randint(3, 10))
            }
            h = convex_hull(pts)
            if h.degeneracy != POLYGON:
                continue
            for f in faces(h):
                assert f.normal[0] * f.direction[0] + f.normal[1] * f.direction[1] == 0
                import math

                assert math.gcd(f.normal[0], f.normal[1]) == 1

    def test_normals_point_outward_of_centroid(self):
        rng = random.Random(46)
        for _ in range(100):
            pts = {
                (rng.randint(-8, 8), rng.randint(-8, 8))
                for _ in range(rng.randint(3, 10))
            }
            h = convex_hull(pts)
            if h.degeneracy != POLYGON:
                continue
            n = len(h.vertices)
            cx = Fraction(sum(v[0] for v in h.vertices), n)
            cy = Fraction(sum(v[1] for v in h.vertices), n)
            for f in faces(h):
                mx = Fraction(f.start[0] + f.end[0], 2)
                my = Fraction(f.start[1] + f.end[1], 2)
                assert f.normal[0] * (mx - cx) + f.normal[1] * (my - cy) > 0


class TestSlopeSet:
    def test_figure1(self):
        h = convex_hull({(0, 1), (1, 0), (3, 1)})
        assert slope_set(faces(h)) == {(1, -1), (2, 1), (1, 0)}

    def test_square_two_directions(self):
        h = convex_hull({(0, 0), (1, 0), (1, 1), (0, 1)})
        assert slope_set(faces(h)) == {(1, 0), (0, 1)}

    def test_segment_single_direction(self):
        h = convex_hull({(0, 0), (2, 4)})
        assert slope_set(faces(h)) == {(1, 2)}

    def test_canonical_direction_sign(self):
        assert canonical_direction((-2, 4)) == (1, -2)
        assert canonical_direction((0, -3)) == (0, 1)


class TestSplitsWithBothExtents:
    @pytest.mark.parametrize(
        "points, expected",
        [
            ([(0, 0)], False),
            ([(0, 0), (4, 0)], False),  # no height to share
            ([(0, 0), (2, 3)], False),  # one primitive edge
            ([(0, 4), (3, 1)], True),  # 3 (1,-1), there and back
            ([(0, 0), (1, 0), (0, 1)], False),
            ([(0, 0), (2, 0), (0, 2)], True),  # twice the unit triangle
            # the unit square is a horizontal plus a vertical segment
            ([(0, 0), (1, 0), (0, 1), (1, 1)], False),
            ([(0, 0), (2, 0), (0, 2), (2, 2)], True),
            ([(0, 0), (2, 0), (0, 1)], False),  # only a horizontal summand
            ([(0, 0), (4, 1), (1, 4)], False),
        ],
    )
    def test_known_hulls(self, points, expected):
        assert splits_with_both_extents(convex_hull(points)) is expected

    def test_matches_enumeration(self):
        # every tuple of sub-edge lengths, on the hulls of random point
        # sets in [0,4]^2
        rng = random.Random(0x05720)
        seen = {True: 0, False: 0}
        for _ in range(3000):
            pts = {(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(1, 9))}
            hull = convex_hull(pts)
            expected = splits_by_enumeration(hull)
            assert splits_with_both_extents(hull) is expected, hull
            seen[expected] += 1
        assert min(seen.values()) >= 500

    def test_products_always_split(self):
        # Ostrowski: the hull of g h is the sum of the hulls of g and h,
        # each of positive width in both coordinates here
        rng = random.Random(0x5917)

        def factor(p):
            while True:
                terms = {
                    (rng.randint(0, 2), rng.randint(0, 2)): rng.randrange(1, p)
                    for _ in range(rng.randint(2, 5))
                }
                spans = [max(e) - min(e) for e in zip(*terms)]
                if min(spans) >= 1:
                    return LaurentPoly(terms, p)

        for _ in range(2000):
            p = rng.choice((2, 3, 5))
            f = factor(p) * factor(p)
            assert splits_with_both_extents(convex_hull(f.support())), f.to_string()


class TestTriangleMatch:
    @pytest.fixture
    def tri(self):
        return convex_hull({(0, 0), (1, 0), (0, 2)})

    def test_exact_match(self, tri):
        got = triangle_homothety([(0, 0), (1, 0), (0, 2)], tri)
        assert got is not None and got[1] == 1

    def test_doubled(self, tri):
        got = triangle_homothety([(0, 0), (2, 0), (0, 4)], tri)
        assert got is not None and got[1] == 2

    def test_mismatch(self, tri):
        assert triangle_homothety([(0, 0), (1, 0), (0, 1)], tri) is None

    def test_translation_invariance(self, tri):
        got = triangle_homothety([(5, 5), (6, 5), (5, 7)], tri)
        assert got is not None and got[1] == 1

    def test_collinear_shape(self, tri):
        assert triangle_homothety([(0, 0), (1, 0), (2, 0)], tri) is None

    def test_point_reflection_detected_with_negative_ratio(self, tri):
        got = triangle_homothety([(0, 0), (-1, 0), (0, -2)], tri)
        assert got is not None and got[1] == -1

    def test_random_dilates_always_match(self):
        rng = random.Random(47)
        matched = 0
        while matched < 200:
            a, b, c = (
                (rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(3)
            )
            if cross(a, b, c) == 0:
                continue
            tri = convex_hull({a, b, c})
            if len(tri.vertices) != 3:
                continue
            q = rng.randint(1, 5)
            tx, ty = rng.randint(-9, 9), rng.randint(-9, 9)
            shape = [(q * v[0] + tx, q * v[1] + ty) for v in tri.vertices]
            rng.shuffle(shape)
            got = triangle_homothety(shape, tri)
            assert got is not None and got[1] == q > 0
            matched += 1
