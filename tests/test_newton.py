import random
from collections import Counter
from fractions import Fraction

import pytest

from mixbound import geometry, newton
from mixbound.fieldpoly import INFINITE, FpPoly, neg_log_infinity_norm, ord_at
from mixbound.laurent import LaurentPoly, as_poly_in_u1
from mixbound.mixing import order_bounds, sequence_diagnostics
from mixbound.newton import (
    ExtendedNorm,
    NewtonPoint,
    Valuation,
    extended_norms,
    face_newton_data,
    face_norm_for,
    lower_hull,
    newton_points,
)
from mixbound.report import build_report

from conftest import (
    L,
    face_newton_data_per_face,
    irreducibles_up_to_degree,
    lower_hull_unshared,
)


def ord_u2():
    return Valuation.finite_at(FpPoly.x(2))


class TestValuation:
    def test_finite_needs_irreducible(self):
        with pytest.raises(ValueError):
            Valuation.finite_at(FpPoly((1, 0, 1), 2))  # (t+1)^2
        with pytest.raises(ValueError):
            Valuation.finite_at(FpPoly.one(2))

    def test_degree_valuation_takes_no_poly(self):
        with pytest.raises(ValueError):
            Valuation("infinity", FpPoly.x(2))

    def test_coeff_log(self):
        assert ord_u2().coeff_log() == -1
        assert Valuation.infinity_deg().coeff_log() == 1
        other = Valuation.finite_at(FpPoly((1, 1, 1), 2))
        assert other.coeff_log() == 0


class TestNewtonPoints:
    def test_ringpoly_ord(self):
        pts = newton_points(as_poly_in_u1(L("u2+u1+u1^3u2")), ord_u2())
        assert [(pt.index, pt.ordinate) for pt in pts] == [
            (0, 1), (1, 0), (2, INFINITE), (3, 1),
        ]

    def test_ringpoly_degree_norm(self):
        pts = newton_points(as_poly_in_u1(L("u2+u1+u1^3u2")), Valuation.infinity_deg())
        assert [(pt.index, pt.ordinate) for pt in pts] == [
            (0, -1), (1, 0), (2, INFINITE), (3, -1),
        ]

    def test_constant_coefficients(self):
        pts = newton_points(as_poly_in_u1(L("1+u1")), ord_u2())
        assert [(pt.index, pt.ordinate) for pt in pts] == [(0, 0), (1, 0)]


class TestLowerHull:
    def test_figure2(self):
        np1 = lower_hull(
            [NewtonPoint(0, Fraction(1)), NewtonPoint(1, Fraction(0)),
             NewtonPoint(2, INFINITE), NewtonPoint(3, Fraction(1))]
        )
        assert [(s.slope, s.start, s.end) for s in np1.segments] == [
            (Fraction(-1), 0, 1), (Fraction(1, 2), 1, 3),
        ]

    def test_flat_degree_norm(self):
        np1 = lower_hull(
            [NewtonPoint(0, Fraction(-1)), NewtonPoint(1, Fraction(0)),
             NewtonPoint(2, INFINITE), NewtonPoint(3, Fraction(-1))]
        )
        assert [(s.slope, s.start, s.end) for s in np1.segments] == [
            (Fraction(0), 0, 3),
        ]

    def test_trivial_segment(self):
        np1 = lower_hull([NewtonPoint(0, Fraction(0)), NewtonPoint(2, Fraction(0))])
        assert [(s.slope, s.start, s.end) for s in np1.segments] == [(Fraction(0), 0, 2)]

    def test_single_finite_point_degenerates(self):
        np1 = lower_hull([NewtonPoint(0, Fraction(3)), NewtonPoint(1, INFINITE)])
        assert np1.segments == ()
        assert len(np1.vertices) == 1

    def test_all_infinite_rejected(self):
        with pytest.raises(ValueError):
            lower_hull([NewtonPoint(0, INFINITE)])

    def test_matches_unshared_chain(self, rng):
        # the chain shared with geometry.convex_hull against the Newton
        # polygon's own: infinite and Fraction ordinates, collinear runs,
        # single finite points
        singles = 0
        for _ in range(500):
            n = rng.randint(1, 9)
            step = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            start = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
            pts = []
            for i in range(n):
                kind = rng.random()
                if kind < 0.25:
                    y = INFINITE
                elif kind < 0.6:
                    y = start + step * i  # on one line
                else:
                    y = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                pts.append(NewtonPoint(i, y))
            if all(pt.ordinate == INFINITE for pt in pts):
                with pytest.raises(ValueError):
                    lower_hull(pts)
                with pytest.raises(ValueError):
                    lower_hull_unshared(pts)
                continue
            got, want = lower_hull(pts), lower_hull_unshared(pts)
            assert got.vertices == want.vertices and got.segments == want.segments
            singles += len(got.vertices) == 1
        assert singles > 0

    def test_hull_below_points_and_slopes_increase(self, rng):
        for _ in range(200):
            pts = [
                NewtonPoint(i, Fraction(rng.randint(-6, 6)))
                for i in range(rng.randint(2, 9))
            ]
            np1 = lower_hull(pts)
            slopes = [s.slope for s in np1.segments]
            assert all(a < b for a, b in zip(slopes, slopes[1:]))
            # every input point lies on or above every hull segment
            for seg in np1.segments:
                y0 = next(pt.ordinate for pt in np1.vertices if pt.index == seg.start)
                for pt in pts:
                    if seg.start <= pt.index <= seg.end:
                        line = y0 + seg.slope * (pt.index - seg.start)
                        assert pt.ordinate >= line


class TestExtendedNorms:
    def test_example_ord(self):
        norms = extended_norms(L("u2+u1+u1^3u2"), ord_u2())
        assert [n.vector() for n in norms] == [
            (Fraction(-1), Fraction(-1)), (Fraction(1, 2), Fraction(-1)),
        ]

    def test_example_degree(self):
        norms = extended_norms(L("u2+u1+u1^3u2"), Valuation.infinity_deg())
        assert [n.vector() for n in norms] == [(Fraction(0), Fraction(1))]

    def test_example_ledrappier(self):
        norms = extended_norms(L("1+u1+u2"), ord_u2())
        assert [n.vector() for n in norms] == [(Fraction(0), Fraction(-1))]

    def test_monomial_rejected(self):
        with pytest.raises(ValueError):
            extended_norms(L("u1u2"), ord_u2())

    def test_trivial_vector_rejected(self):
        with pytest.raises(ValueError):
            ExtendedNorm(Fraction(0), Fraction(0), ("x", None))


class TestFaceNorm:
    def test_example_faces(self):
        f = L("u2+u1+u1^3u2")
        hull = geometry.convex_hull(f.support())
        fs = geometry.faces(hull)
        assert face_norm_for(f, fs[0]).vector() == (Fraction(-1), Fraction(-1))
        assert face_norm_for(f, fs[1]).vector() == (Fraction(1, 2), Fraction(-1))
        assert face_norm_for(f, fs[2]).vector() == (Fraction(0), Fraction(1))

    def test_ledrappier_diagonal_face(self):
        f = L("1+u1+u2")
        fs = geometry.faces(geometry.convex_hull(f.support()))
        diag = next(fc for fc in fs if fc.normal == (1, 1))
        v = face_norm_for(f, diag).vector()
        assert v[0] == v[1] > 0

    def test_foreign_face_rejected(self):
        f = L("1+u1+u2")
        other = geometry.faces(geometry.convex_hull({(0, 0), (2, 0), (0, 2)}))[1]
        with pytest.raises(ValueError):
            face_norm_for(f, other)

    def test_lemma_property_200_random(self):
        # for every face of 200 random hulls, the face norm is a positive
        # rational multiple of the primitive outward normal
        rng = random.Random(9001)
        done = 0
        while done < 200:
            p = rng.choice([2, 3, 5])
            terms = {}
            for _ in range(rng.randint(3, 7)):
                terms[(rng.randint(0, 6), rng.randint(0, 6))] = rng.randint(1, p - 1)
            f = LaurentPoly(terms, p)
            if f.is_zero() or f.is_monomial():
                continue
            hull = geometry.convex_hull(f.support())
            if hull.degeneracy != geometry.POLYGON:
                continue
            done += 1
            for face in geometry.faces(hull):
                v = face_norm_for(f, face).vector()
                n = face.normal
                assert v[0] * n[1] == v[1] * n[0]
                assert v[0] * n[0] + v[1] * n[1] > 0

    def test_finite_points_lie_in_support(self, rng):
        # points (i, m_i) with finite ordinate from ord(u2) sit in S(f)
        done = 0
        while done < 100:
            p = rng.choice([2, 3])
            terms = {
                (rng.randint(0, 5), rng.randint(0, 5)): rng.randint(1, p - 1)
                for _ in range(rng.randint(2, 6))
            }
            f = LaurentPoly(terms, p)
            if f.is_zero() or f.is_monomial():
                continue
            from mixbound.laurent import normalize

            _, g = normalize(f)
            done += 1
            pts = newton_points(as_poly_in_u1(g), Valuation.finite_at(FpPoly.x(p)))
            for pt in pts:
                if pt.ordinate != INFINITE:
                    assert (pt.index, int(pt.ordinate)) in g.support()

    def test_intermediate_data_consistency(self):
        f = L("u2+u1+u1^3u2")
        fs = geometry.faces(geometry.convex_hull(f.support()))
        data = face_newton_data(f)[1]
        assert data.face == fs[1]
        assert data.segment.slope == Fraction(1, 2)
        assert data.valuation.kind == "finite"
        assert not data.valuation.inverted


class TestSharedReduction:
    """face_newton_data computes one Newton polygon per coordinate change
    and shares it among that change's faces."""

    def test_matches_per_face_oracle(self):
        rng = random.Random(20261018)
        groups, shared = set(), 0
        done = 0
        while done < 1000:
            p = rng.choice([2, 3, 5, 7])
            terms = {
                (rng.randint(-3, 6), rng.randint(-3, 6)): rng.randint(1, p - 1)
                for _ in range(rng.randint(3, 7))
            }
            f = LaurentPoly(terms, p)
            if f.is_zero() or f.is_monomial():
                continue
            hull = geometry.convex_hull(f.support())
            if hull.degeneracy != geometry.POLYGON:
                continue
            done += 1
            fs = geometry.faces(hull)  # records come back in hull order
            got = face_newton_data(f)
            want = [face_newton_data_per_face(f, face) for face in fs]
            assert got == want, f.to_string()
            assert repr(got) == repr(want), f.to_string()
            keys = [(d.valuation.coeff_axis, d.valuation.inverted) for d in got]
            groups.update(keys)
            shared += len(set(keys)) < len(keys)
        assert groups == {(1, False), (1, True), (2, False), (2, True)}
        assert shared > 0

    @pytest.mark.parametrize(
        "text, p, face_count",
        [
            ("u1^6+u1^5u2+u1^3u2^2+u2+u2^3", 2, 5),
            ("u1+u1^2+u1^3u2+u1^3u2^2+u1^2u2^3+u1u2^3+u2^2+u2", 3, 8),
        ],
    )
    def test_build_report_counts(self, monkeypatch, text, p, face_count):
        # counts, not a clock: one newton_points call per coordinate change
        # (the per-face reduction made one per face) and no division for
        # any ordinate
        rep = order_bounds(L(text, p))
        calls = Counter()
        points, div = newton.newton_points, FpPoly.__divmod__

        def counted_points(*args):
            calls["newton_points"] += 1
            return points(*args)

        def counted_divmod(a, b):
            calls["divmod"] += 1
            return div(a, b)

        monkeypatch.setattr(newton, "newton_points", counted_points)
        monkeypatch.setattr(FpPoly, "__divmod__", counted_divmod)
        out = build_report(rep)
        assert len(out["newton"]) == face_count
        changes = {(d["valuation"]["coeff_axis"], d["valuation"]["inverted"])
                   for d in out["newton"]}
        assert calls["newton_points"] == len(changes) <= 4 < face_count
        assert calls["divmod"] == 0

    def test_face_norm_for_builds_one_polygon(self, monkeypatch):
        # counts, not a clock: the octagon's eight faces share four
        # coordinate changes, and face_norm_for builds the polygon of its
        # own face's change only, so the diagnostics make one per face
        f = L("u1+u1^2+u1^3u2+u1^3u2^2+u1^2u2^3+u1u2^3+u2^2+u2", 3)
        calls = Counter()
        points = newton.newton_points

        def counted_points(*args):
            calls["newton_points"] += 1
            return points(*args)

        monkeypatch.setattr(newton, "newton_points", counted_points)
        face = geometry.faces(geometry.convex_hull(f.support()))[3]
        assert face_norm_for(f, face) == face_newton_data(f)[3].norm
        assert calls["newton_points"] == 1 + 4
        calls.clear()
        diag = sequence_diagnostics(f, [(1, [(0, 0), (3, 1), (1, 3)])])
        assert len(diag[0].alignments) == 8
        assert calls["newton_points"] == 8


class TestNormAxioms:
    def test_base_norm_axioms_sampled(self, rng):
        # |ab| = |a||b| and |a+b| <= max(|a|,|b|) for p^-ord_g and p^deg
        for _ in range(150):
            p = rng.choice([2, 3])
            a = FpPoly([rng.randrange(p) for _ in range(rng.randint(1, 7))], p)
            b = FpPoly([rng.randrange(p) for _ in range(rng.randint(1, 7))], p)
            if a.is_zero() or b.is_zero():
                continue
            for g in irreducibles_up_to_degree(2, p):
                assert ord_at(a * b, g) == ord_at(a, g) + ord_at(b, g)
                s = a + b
                if not s.is_zero():
                    assert ord_at(s, g) >= min(ord_at(a, g), ord_at(b, g))
            assert neg_log_infinity_norm(a * b) == (
                neg_log_infinity_norm(a) + neg_log_infinity_norm(b)
            )
            s = a + b
            if not s.is_zero():
                assert neg_log_infinity_norm(s) >= min(
                    neg_log_infinity_norm(a), neg_log_infinity_norm(b)
                )
