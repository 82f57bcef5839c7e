import functools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from mixbound import geometry, newton
from mixbound.fieldpoly import INFINITE, FpPoly
from mixbound.laurent import LaurentPoly
from mixbound.mixing import order_bounds, sequence_diagnostics
from mixbound.newton import (
    ExtendedNorm,
    NewtonPoint,
    Valuation,
    extended_norms,
    face_newton_data,
    lower_hull,
    newton_points,
)
from mixbound.report import build_report, diagnostics_json

from conftest import (
    L,
    dense_view,
    face_newton_data_per_face,
    irreducibles_up_to_degree,
    lower_hull_unshared,
    neg_degree,
    newton_json_per_face,
    ord_by_division,
)


def ord_u2():
    return Valuation.finite_at()


class TestValuation:
    def test_coeff_log(self):
        assert ord_u2().coeff_log() == -1
        assert Valuation.infinity_deg().coeff_log() == 1


class TestNewtonPoints:
    def test_ringpoly_ord(self):
        pts = newton_points(L("u2+u1+u1^3u2"), ord_u2())
        assert [(pt.index, pt.ordinate) for pt in pts] == [
            (0, 1), (1, 0), (2, INFINITE), (3, 1),
        ]

    def test_ringpoly_degree_norm(self):
        pts = newton_points(L("u2+u1+u1^3u2"), Valuation.infinity_deg())
        assert [(pt.index, pt.ordinate) for pt in pts] == [
            (0, -1), (1, 0), (2, INFINITE), (3, -1),
        ]

    def test_constant_coefficients(self):
        pts = newton_points(L("1+u1"), ord_u2())
        assert [(pt.index, pt.ordinate) for pt in pts] == [(0, 0), (1, 0)]

    def test_matches_division_on_views(self):
        # the points read off f's exponents against the ordinates of the
        # rewritten view: ord_{u2} by division and minus the degree, in
        # all four coordinate changes; negative exponents and monomials
        # included
        rng = random.Random(20261024)
        primes = (2, 3, 5, 7, 65521)
        monomials = 0
        for _ in range(2000):
            p = rng.choice(primes)
            terms = {
                (rng.randint(-4, 6), rng.randint(-4, 6)): rng.randint(1, p - 1)
                for _ in range(rng.randint(1, 7))
            }
            f = LaurentPoly(terms, p)
            monomials += f.is_monomial()
            t = FpPoly.x(p)
            for swap in (False, True):
                for inverted in (False, True):
                    view = dense_view(f, swap=swap, inverted=inverted)
                    axis = 1 if swap else 2
                    ords = newton_points(f, Valuation.finite_at(axis, inverted))
                    degs = newton_points(f, Valuation.infinity_deg(axis, inverted))
                    assert ords == tuple(
                        NewtonPoint(i, ord_by_division(q, t)) for i, q in enumerate(view)
                    ), (f.to_string(), swap, inverted)
                    assert degs == tuple(
                        NewtonPoint(i, neg_degree(q)) for i, q in enumerate(view)
                    ), (f.to_string(), swap, inverted)
        assert monomials > 0


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
        data = face_newton_data(f, hull)
        assert [d.face for d in data] == geometry.faces(hull)
        assert data[0].norm.vector() == (Fraction(-1), Fraction(-1))
        assert data[1].norm.vector() == (Fraction(1, 2), Fraction(-1))
        assert data[2].norm.vector() == (Fraction(0), Fraction(1))

    def test_ledrappier_diagonal_face(self):
        f = L("1+u1+u2")
        data = face_newton_data(f, geometry.convex_hull(f.support()))
        diag = next(d for d in data if d.face.normal == (1, 1))
        v = diag.norm.vector()
        assert v[0] == v[1] > 0

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
            for d in face_newton_data(f, hull):
                v = d.norm.vector()
                n = d.face.normal
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
            pts = newton_points(g, Valuation.finite_at())
            for pt in pts:
                if pt.ordinate != INFINITE:
                    assert (pt.index, int(pt.ordinate)) in g.support()

    def test_intermediate_data_consistency(self):
        f = L("u2+u1+u1^3u2")
        hull = geometry.convex_hull(f.support())
        fs = geometry.faces(hull)
        data = face_newton_data(f, hull)[1]
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
        # where the integer match could differ from Fraction equality: a
        # coefficient entry of size k > 1, and slopes below 0 or not integers
        wide_entry = negative = non_integer = 0
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
            got = face_newton_data(f, hull)
            want = [face_newton_data_per_face(f, face) for face in fs]
            assert got == want, f.to_string()
            assert repr(got) == repr(want), f.to_string()
            keys = [(d.valuation.coeff_axis, d.valuation.inverted) for d in got]
            groups.update(keys)
            shared += len(set(keys)) < len(keys)
            for d in got:
                n = d.face.normal
                wide_entry += abs(n[0] if d.valuation.coeff_axis == 1 else n[1]) > 1
                negative += d.segment.slope < 0
                non_integer += d.segment.slope.denominator > 1
        assert groups == {(1, False), (1, True), (2, False), (2, True)}
        assert shared > 0
        assert wide_entry > 0 and negative > 0 and non_integer > 0

    def test_report_matches_per_face_json_oracle(self):
        # the shared per-change JSON encodes to the same bytes as records
        # built face by face
        rng = random.Random(20261021)
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
            rep = order_bounds(f)
            if rep.hull.degeneracy != geometry.POLYGON:
                continue
            done += 1
            out = build_report(rep)
            oracle = {**out, "newton": [
                newton_json_per_face(d) for d in face_newton_data(f, rep.hull)]}
            assert json.dumps(out) == json.dumps(oracle), f.to_string()

    def test_faces_of_one_change_share_their_json(self):
        # counts, not a clock: the octagon's eight faces fall into fewer
        # coordinate changes, and each change's points, segments and
        # valuation are one object for all its faces
        out = build_report(order_bounds(L(
            "u1+u1^2+u1^3u2+u1^3u2^2+u1^2u2^3+u1u2^3+u2^2+u2", 3)))
        records = out["newton"]
        by_change = {}
        for r in records:
            by_change.setdefault((r["valuation"]["coeff_axis"], r["valuation"]["inverted"]), []).append(r)
        assert len(by_change) < len(records) == 8
        for group in by_change.values():
            for key in ("valuation", "points", "segments"):
                assert len({id(r[key]) for r in group}) == 1, key
        assert len({id(r["points"]) for r in records}) == len(by_change)

    @pytest.mark.parametrize(
        "text, p, face_count",
        [
            ("u1^6+u1^5u2+u1^3u2^2+u2+u2^3", 2, 5),
            ("u1+u1^2+u1^3u2+u1^3u2^2+u1^2u2^3+u1u2^3+u2^2+u2", 3, 8),
        ],
    )
    def test_build_report_counts(self, monkeypatch, text, p, face_count):
        # counts, not a clock: one newton_points call per coordinate change
        # (the per-face reduction made one per face), no division for any
        # ordinate, and no FpPoly at all: the points come from exponents
        rep = order_bounds(L(text, p))
        calls = Counter()
        points, div, init = newton.newton_points, FpPoly.__divmod__, FpPoly.__init__

        def counted_points(*args):
            calls["newton_points"] += 1
            return points(*args)

        def counted_divmod(a, b):
            calls["divmod"] += 1
            return div(a, b)

        def counted_init(self, *args):
            calls["FpPoly"] += 1
            init(self, *args)

        monkeypatch.setattr(newton, "newton_points", counted_points)
        monkeypatch.setattr(FpPoly, "__divmod__", counted_divmod)
        monkeypatch.setattr(FpPoly, "__init__", counted_init)
        out = build_report(rep)
        assert len(out["newton"]) == face_count
        changes = {(d["valuation"]["coeff_axis"], d["valuation"]["inverted"])
                   for d in out["newton"]}
        assert calls["newton_points"] == len(changes) <= 4 < face_count
        assert calls["divmod"] == 0
        assert calls["FpPoly"] == 0

    @pytest.mark.parametrize(
        "text, p, faces",
        [
            ("u1+u1^2+u1^3u2+u1^3u2^2+u1^2u2^3+u1u2^3+u2^2+u2", 3, 8),
            ("1+u1^1048576+u2", 2, 3),
        ],
        ids=["octagon", "wide"],
    )
    def test_diagnostics_build_two_hulls_and_no_newton_polygon(self, monkeypatch, text, p, faces):
        # counts, not a clock: the diagnostics build the hull of f and the
        # hull of the tuple once each, and read every face's norm off the
        # face itself, so the exponents' size costs nothing
        f = L(text, p)
        calls = Counter()
        points, hull_of = newton.newton_points, geometry.convex_hull

        def counted_points(*args):
            calls["newton_points"] += 1
            return points(*args)

        def counted_hull(*args):
            calls["convex_hull"] += 1
            return hull_of(*args)

        monkeypatch.setattr(newton, "newton_points", counted_points)
        monkeypatch.setattr(geometry, "convex_hull", counted_hull)
        diag = sequence_diagnostics(f, [(1, [(0, 0), (3, 1), (1, 3)])])
        assert len(diag[0].alignments) == faces
        assert calls == {"convex_hull": 2}

    def test_diagnostics_match_per_face_oracle(self, monkeypatch):
        # the alignment table is the same when every face's norm comes from
        # its own from-scratch reduction instead of the shared polygons
        rng = random.Random(20261019)
        cells = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]
        got = []
        done = 0
        while done < 300:
            p = rng.choice([2, 3, 5, 7])
            terms = {
                (rng.randint(-3, 6), rng.randint(-3, 6)): rng.randint(1, p - 1)
                for _ in range(rng.randint(3, 7))
            }
            f = LaurentPoly(terms, p)
            if f.is_zero() or f.is_monomial():
                continue
            if geometry.convex_hull(f.support()).degeneracy != geometry.POLYGON:
                continue
            done += 1
            entries = [(label, rng.sample(cells, rng.randint(2, 5))) for label in (1, 2, 3)]
            got.append((f, entries, sequence_diagnostics(f, entries)))
        for f, entries, diag in got:
            monkeypatch.setattr(
                newton, "face_norm",
                lambda fc, f=f: face_newton_data_per_face(f, fc).norm.vector(),
            )
            oracle = sequence_diagnostics(f, entries)
            assert diag == oracle, f.to_string()
            assert json.dumps(diagnostics_json(diag)) == json.dumps(diagnostics_json(oracle))


def _negated_coeff_log(monkeypatch):
    log = Valuation.coeff_log
    monkeypatch.setattr(Valuation, "coeff_log", lambda self: -log(self))


def _swapped_vectors(monkeypatch):
    polygon = newton.newton_polygon

    def swapped(f, val):
        points, np, vectors = polygon(f, val)
        return points, np, tuple([(b, a) for a, b in vectors])

    monkeypatch.setattr(newton, "newton_polygon", swapped)


def _halved_inverted_entry(monkeypatch):
    # only the non-swapped inverted change: its vectors' u2 entry, the
    # coefficient variable's, becomes 1/2, which only b's denominator
    # tells from the face normal's 1
    polygon = newton.newton_polygon

    def halved(f, val):
        points, np, vectors = polygon(f, val)
        if val.coeff_axis == 2 and val.inverted:
            vectors = tuple([(a, b / 2) for a, b in vectors])
        return points, np, vectors

    monkeypatch.setattr(newton, "newton_polygon", halved)


def _dropped_second_vertex(monkeypatch):
    # a triangle keeps its vertices: without one it would be a segment
    hull_of = geometry.convex_hull

    def dropped(points):
        hull = hull_of(points)
        vs = hull.vertices
        return hull._replace(vertices=vs[:1] + vs[2:]) if len(vs) > 3 else hull

    monkeypatch.setattr(geometry, "convex_hull", dropped)


def _negated_inverted(monkeypatch):
    monkeypatch.setattr(
        Valuation, "finite_at",
        classmethod(lambda cls, coeff_axis=2, inverted=False: cls(
            newton.FINITE, coeff_axis, not inverted)),
    )


@functools.cache
def _fault_matrix_reports():
    """(f, unfaulted report JSON) for 600 seeded polygons."""
    rng = random.Random(20261020)
    out = []
    while len(out) < 600:
        p = rng.choice([2, 3, 5, 7])
        terms = {
            (rng.randint(-3, 6), rng.randint(-3, 6)): rng.randint(1, p - 1)
            for _ in range(rng.randint(3, 7))
        }
        f = LaurentPoly(terms, p)
        if f.is_zero() or f.is_monomial():
            continue
        if geometry.convex_hull(f.support()).degeneracy != geometry.POLYGON:
            continue
        out.append((f, json.dumps(build_report(order_bounds(f)))))
    return out


@pytest.mark.parametrize(
    "fault, tally",
    [
        (_negated_coeff_log, {"raised": 600}),
        (_swapped_vectors, {"raised": 600}),
        (_dropped_second_vertex, {"raised": 406, "unchanged": 194}),
        (_negated_inverted, {"raised": 600}),
        (_halved_inverted_entry, {"raised": 600}),
    ],
    ids=["coeff-log-negated", "vector-swapped", "second-vertex-dropped", "inverted-negated",
         "inverted-entry-halved"],
)
def test_newton_fault_matrix(monkeypatch, fault, tally):
    # under each fault a report either fails the face-to-norm check or
    # comes out byte-identical; it is never a different report
    cases = _fault_matrix_reports()
    fault(monkeypatch)
    got = Counter()
    for f, want in cases:
        try:
            out = json.dumps(build_report(order_bounds(f)))
        except AssertionError:
            got["raised"] += 1
            continue
        got["unchanged" if out == want else "changed"] += 1
    assert got == tally


class TestNormAxioms:
    def test_base_norm_axioms_sampled(self, rng):
        # |ab| = |a||b| and |a+b| <= max(|a|,|b|) for p^-ord_g and p^deg,
        # on the division and degree references for the Newton ordinates
        for _ in range(150):
            p = rng.choice([2, 3])
            a = FpPoly([rng.randrange(p) for _ in range(rng.randint(1, 7))], p)
            b = FpPoly([rng.randrange(p) for _ in range(rng.randint(1, 7))], p)
            if a.is_zero() or b.is_zero():
                continue
            for g in irreducibles_up_to_degree(2, p):
                assert ord_by_division(a * b, g) == (
                    ord_by_division(a, g) + ord_by_division(b, g)
                )
                s = a + b
                if not s.is_zero():
                    assert ord_by_division(s, g) >= min(
                        ord_by_division(a, g), ord_by_division(b, g)
                    )
            assert neg_degree(a * b) == neg_degree(a) + neg_degree(b)
            s = a + b
            if not s.is_zero():
                assert neg_degree(s) >= min(neg_degree(a), neg_degree(b))
