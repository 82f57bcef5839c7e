import functools
import json
import random
from collections import Counter

import pytest

from mixbound import fieldpoly, geometry, laurent, linalg, mixing
from mixbound.cli import verdict_json
from mixbound.fieldpoly import FpPoly, content
from mixbound.laurent import LaurentPoly, columns, combination_solve, in_ideal
from mixbound.mixing import (
    CERTIFIED_NON_MIXING,
    GEOMETRICALLY_MIXING,
    RELATION_FOUND,
    UNRESOLVED,
    DegenerateInput,
    IrreducibilityCertificate,
    ShapeVerdict,
    WitnessError,
    brute_force_certify,
    certify_irreducible,
    eisenstein_certify,
    make_witness,
    order_bounds,
    sequence_diagnostics,
    shape_prefilter,
    shape_witness_search,
    verify_eisenstein,
    verify_reducible,
    voloch_identity_scan,
)
from mixbound.parse import parse_poly
from mixbound.report import build_report

import recheck
from conftest import (
    L,
    _search_factor as search_factor_by_division,
    brute_force_searching_every_hull,
    dense_view,
    eisenstein_by_content,
    frobenius_closure_by_expansion,
    irreducibles_up_to_degree,
    load_perfbench,
    peel_in_rounds,
    prefilter_by_rules,
    random_nonmonomial,
    shape_search_from_scratch,
    three_shape_by_rules,
    triangle_homothety,
    voloch_scan_by_ring_ops,
)


def _eisenstein_in(f, main_axis, inverted, candidates):
    # the first candidate g meeting the criterion in one orientation
    coeffs = dense_view(f, swap=main_axis == 2, inverted=inverted)
    if len(coeffs) < 2 or content(coeffs).degree != 0:
        return None
    for g in candidates:
        if (
            all(g.divides(q) for q in coeffs[:-1])
            and not g.divides(coeffs[-1])
            and not (g * g).divides(coeffs[0])
        ):
            return g
    return None


def _eisenstein_by_enumeration(f, candidates):
    # the criterion checked for every monic irreducible of degree <= 2
    for main_axis, inverted in ((1, False), (1, True), (2, False), (2, True)):
        g = _eisenstein_in(f, main_axis, inverted, candidates)
        if g is not None:
            return main_axis, inverted, g
    return None


class TestEisenstein:
    def test_quadrilateral_example(self):
        cert = eisenstein_certify(L("u1^2+u1u2^2+u2^3+u2"))
        assert cert.method == "eisenstein"
        assert cert.main_axis == 1 and not cert.inverted
        assert cert.g == FpPoly.x(2)
        assert verify_eisenstein(L("u1^2+u1u2^2+u2^3+u2"), cert)

    def test_verify_rejects_a_composite_g(self):
        # u1^2+u2^2 = (u1+2u2)(u1-2u2) over F_5, and g = u2^2 meets every
        # divisibility condition; only the primality of g fails
        f = L("u1^2+u2^2", 5)
        assert f == L("u1+2*u2", 5) * L("u1-2*u2", 5)
        u2 = FpPoly.x(5)
        for g in (u2 * u2, FpPoly([1], 5)):
            cert = IrreducibilityCertificate("eisenstein", main_axis=1, g=g)
            assert not verify_eisenstein(f, cert)
        assert verify_eisenstein(
            L("u1^2+u2", 5), IrreducibilityCertificate("eisenstein", main_axis=1, g=u2)
        )
        # each input below breaks one condition that f meets with the
        # prime g = 2+u2; f's q_1 is zero.  g | q_n makes g divide the
        # content too, as g divides every q_i below q_n, and a lone q_0 is
        # its own content
        f = L("2+u2+2*u1^2+u2*u1^2+u1^3", 5)
        cert = IrreducibilityCertificate("eisenstein", main_axis=1, g=FpPoly([2, 1], 5))
        assert verify_eisenstein(f, cert)
        for text in (
            "2+u2+u1^2+u1^3",  # g does not divide q_2
            "2+u2+2*u1^2+u2*u1^2+2*u1^3+u2*u1^3",  # g divides q_3
            "4+4*u2+u2^2+2*u1^2+u2*u1^2+u1^3",  # g^2 divides q_0
            # the content 1+u2
            "2+3*u2+u2^2+2*u1^2+3*u2*u1^2+u2^2*u1^2+u1^3+u2*u1^3",
            "1+u2",  # main degree 0
        ):
            assert not verify_eisenstein(L(text, 5), cert), text
        for flipped in (cert._replace(main_axis=2), cert._replace(inverted=True)):
            assert not verify_eisenstein(f, flipped), flipped

    def test_pentagon_example(self):
        cert = eisenstein_certify(L("u1^6+u1^5u2+u1^3u2^2+u2+u2^3"))
        assert cert is not None and cert.g == FpPoly.x(2)

    def test_square_has_no_certificate(self):
        assert eisenstein_certify(L("1+u1^2")) is None

    def test_monomial_rejected(self):
        with pytest.raises(DegenerateInput):
            eisenstein_certify(L("u1"))

    def test_certified_inputs_are_really_irreducible(self, rng):
        # cross-check Eisenstein against the exhaustive factor search
        done = 0
        while done < 40:
            f = random_nonmonomial(rng, rng.choice([2, 3]), max_terms=5, span=2)
            cert = eisenstein_certify(f)
            if cert is None:
                continue
            bf = brute_force_certify(f)
            if bf is None:
                continue
            done += 1
            assert bf.method == "brute_force", f.to_string()

    def test_matches_enumeration_of_irreducibles(self):
        rng = random.Random(2024)
        primes = (2, 3, 5, 7, 11, 13)
        candidates = {p: irreducibles_up_to_degree(2, p) for p in primes}
        hits = 0
        for _ in range(600):
            p = rng.choice(primes)
            f = random_nonmonomial(rng, p, max_terms=5, span=3)
            cert = eisenstein_certify(f)
            got = None if cert is None else (cert.main_axis, cert.inverted, cert.g)
            assert got == _eisenstein_by_enumeration(f, candidates[p]), f.to_string()
            hits += cert is not None
        assert hits >= 100

    def test_large_prime_needs_no_enumeration(self, monkeypatch):
        p = 65521
        drawn = 0
        enumerate_monic = fieldpoly._monic_polys_of_degree

        def counted(d, q):
            nonlocal drawn
            for g in enumerate_monic(d, q):
                drawn += 1
                if drawn > p:
                    raise AssertionError(f"more than {p} trial divisors drawn")
                yield g

        monkeypatch.setattr(fieldpoly, "_monic_polys_of_degree", counted)
        cert = eisenstein_certify(L("1+u1+u2", p))
        assert cert.g == FpPoly([1, 1], p)

    def test_quartic_content_draws_no_quadratic(self, monkeypatch):
        # c = 1+u2+u2^4 is an irreducible quartic at p = 1009: trial
        # division of c itself would draw all p^2 monic quadratics, while
        # its part of degree <= 2 factors, gcd(c, t^(p^2) - t), is 1
        p = 1009
        drawn = Counter()
        enumerate_monic = fieldpoly._monic_polys_of_degree

        def counted(d, q):
            for g in enumerate_monic(d, q):
                drawn[d] += 1
                yield g

        monkeypatch.setattr(fieldpoly, "_monic_polys_of_degree", counted)
        assert certify_irreducible(L("u1+u2^4+u2+1", p)).method == "unverified"
        assert drawn[2] == 0

    def test_verify_skips_zero_coefficients(self, monkeypatch):
        # every g divides 0: the 255 zero u1-coefficients of 1+u1^256+u2
        # below the top one cost no division
        f = L("1+u1^256+u2")
        cert = eisenstein_certify(f)
        calls = []
        divmod_original = FpPoly.__divmod__

        def counted_divmod(a, b):
            calls.append(None)
            return divmod_original(a, b)

        monkeypatch.setattr(FpPoly, "__divmod__", counted_divmod)
        assert verify_eisenstein(f, cert)
        assert len(calls) <= 8
        assert certify_irreducible(f) == cert
        # nor are they built: certifying 1+u1^1048576+u2 takes each
        # content over the nonzero u1-coefficients alone
        sizes = []

        def sized_content(polys):
            polys = list(polys)
            sizes.append(len(polys))
            return fieldpoly.content(polys)

        monkeypatch.setattr(mixing, "fp_content", sized_content)
        assert certify_irreducible(L("1+u1^1048576+u2")).method == "eisenstein"
        assert sizes and max(sizes) <= 2

    def test_constant_content_takes_no_gcd(self, monkeypatch):
        # c = gcd(q_0, ..., q_{n-1}) is a constant in all four orientations,
        # so no prime g divides it and gcd(c, q_n) is never computed; no
        # q_i below q_n is a monomial, so the plain orientations are rewritten
        f = L("1+u1+u2+u1^2*u2+u1*u2^2", 5)
        for swap in (False, True):
            for inverted in (False, True):
                coeffs = dense_view(f, swap=swap, inverted=inverted)
                assert content(coeffs[:-1]).degree == 0
        calls = []

        def counted(*args):
            calls.append(args)
            return fieldpoly.gcd(*args)

        monkeypatch.setattr(mixing, "fp_gcd", counted)
        assert eisenstein_certify(f) is None
        assert calls == []

    def test_inverted_orientation_adds_nothing_when_top_degree_is_below_q_n(self, rng):
        # when some q_i below q_n has the top u2-degree D, inverting u2 turns
        # c into the reversal of its part prime to u2, and the enumeration
        # finds an inverted certificate only where it finds a plain one
        candidates = {p: irreducibles_up_to_degree(2, p) for p in (2, 3, 5)}
        checked, inverted_hits = 0, 0
        while checked < 600:
            p = rng.choice((2, 3, 5))
            f = random_nonmonomial(rng, p, max_terms=5, span=3)
            for main_axis in (1, 2):
                coeffs = dense_view(f, swap=main_axis == 2)
                degrees = [q.degree for q in coeffs]
                if len(coeffs) < 2 or max(degrees[:-1]) < max(degrees):
                    continue
                checked += 1
                c = content(coeffs[:-1])
                v = next(i for i, x in enumerate(c.coeffs) if x)
                inverted = dense_view(f, swap=main_axis == 2, inverted=True)
                assert content(inverted[:-1]) == FpPoly(c.coeffs[v:][::-1], p).monic()
                g = _eisenstein_in(f, main_axis, True, candidates[p])
                if g is not None:
                    inverted_hits += 1
                    assert _eisenstein_in(f, main_axis, False, candidates[p]) is not None
        assert inverted_hits >= 20

    def test_inverted_orientation_adds_only_u2(self, rng):
        # with the top u2-degree anywhere, the enumeration finds an
        # inverted certificate with a g other than u2 only where it finds
        # a plain one; every inverted g = u2 is decided from the exponents
        candidates = {p: irreducibles_up_to_degree(2, p) for p in (2, 3, 5)}
        counts = Counter()
        for _ in range(600):
            p = rng.choice((2, 3, 5))
            f = random_nonmonomial(rng, p, max_terms=5, span=3)
            for main_axis in (1, 2):
                g = _eisenstein_in(f, main_axis, True, candidates[p])
                if g is None:
                    continue
                plain = _eisenstein_in(f, main_axis, False, candidates[p])
                counts["u2" if g == FpPoly.x(p) else "other"] += 1
                assert g == FpPoly.x(p) or plain is not None, f.to_string()
                cert = eisenstein_certify(f)
                assert cert is not None, f.to_string()
                if plain is None and cert.main_axis == main_axis:
                    assert cert.inverted and cert.g == FpPoly.x(p), f.to_string()
        assert counts["u2"] >= 50 and counts["other"] >= 20, counts

    def test_inverted_orientation_is_not_rewritten(self, monkeypatch):
        # q_1 = u2 is a monomial below q_n in both variable orders, so both
        # plain orientations are decided from the exponents, and so are the
        # inverted ones, at u2 = infinity.  A view of another polynomial
        # than f would be an inverted one
        f = L("1+u1^2+u2^2+u1*u2", 5)
        calls = []

        def counted(g, swap=False):
            calls.append((swap, g != f))
            return columns(g, swap=swap)

        monkeypatch.setattr(mixing, "columns", counted)
        assert eisenstein_certify(f) is None
        assert calls == []

    def test_inverted_orientation_is_not_rewritten_without_monomials(self, monkeypatch):
        # every nonzero q_i below q_n has two terms in both variable orders,
        # so the plain orientations are rewritten; the inverted ones are
        # decided from the exponents
        f = L("1+u1+u2+u1^2*u2+u1*u2^2", 5)
        calls = []

        def counted(g, swap=False):
            calls.append((swap, g != f))
            return columns(g, swap=swap)

        monkeypatch.setattr(mixing, "columns", counted)
        assert eisenstein_certify(f) is None
        assert calls == [(False, False), (True, False)]

    def test_matches_content_oracle(self):
        # the exponent decision against every orientation's content, on
        # random Laurent polynomials and on the corpus inputs; each
        # certificate must pass its independent re-check
        workloads = load_perfbench("workloads")
        rng = random.Random(19)
        inputs = [
            parse_poly(text, p) for seed in (1, 2, 3)
            for p, text in workloads.corpus_inputs(seed)
        ]
        while len(inputs) < 20900:
            p = rng.choice((2, 3, 5, 7, 11, 13, 101))
            terms = {
                (rng.randint(-2, 8), rng.randint(-2, 8)): rng.randint(1, p - 1)
                for _ in range(rng.randint(2, 8))
            }
            if len(terms) > 1:
                inputs.append(LaurentPoly(terms, p))
        certified = 0
        for f in inputs:
            cert = eisenstein_certify(f)
            assert repr(cert) == repr(eisenstein_by_content(f)), f.to_string()
            if cert is not None:
                certified += 1
                assert verify_eisenstein(f, cert), f.to_string()
        assert certified >= 3000

    def test_monomial_coefficient_builds_no_view(self, monkeypatch):
        # an orientation with a monomial q_i below q_n is decided from the
        # exponents: every view eisenstein_certify builds has none
        workloads = load_perfbench("workloads")
        views = []

        def recorded(g, swap=False):
            view = columns(g, swap=swap)
            views.append(view)
            return view

        monkeypatch.setattr(mixing, "columns", recorded)
        for p, text in workloads.corpus_inputs(1):
            eisenstein_certify(parse_poly(text, p))
        # the content-based search rewrote 649 orientations of these inputs
        assert len(views) == 37
        for view in views:
            below = [q for i, q in view.items() if i != max(view)]
            assert all(sum(1 for c in q.coeffs if c) >= 2 for q in below)

    def test_wrong_certificate_never_reaches_a_report(self, monkeypatch):
        f = L("u1^2+u1u2^2+u2^3+u2")
        wrong = eisenstein_certify(f)._replace(g=FpPoly([1, 1], 2))
        monkeypatch.setattr(mixing, "eisenstein_certify", lambda _: wrong)
        with pytest.raises(WitnessError):
            order_bounds(f)


def _hull_always_splits(monkeypatch):
    # every hull passes the Ostrowski test, so brute force searches every
    # input past the extent argument, as it did before that test
    monkeypatch.setattr(geometry, "splits_with_both_extents", lambda hull: True)


# the inputs of the search tests below, with whether their hulls split:
# the third is the sum of the triangles (0,0);(1,-3);(2,0) and
# (0,0);(2,-1);(2,0), so its search runs without the patch too
SEARCH_TEST_INPUTS = [
    (3, "u1^2*u2^4+2*u1^3*u2^3+u1^4*u2^4+u1^5+2*u1^5*u2^2+2*u1^6", False),
    (2, "u1^2*u2^6+u1^3*u2^3+u1^5*u2^3+u1^6*u2^2+u1^6*u2^4", False),
    (3, "2*u2^4+2*u1*u2+u1^2*u2^3+u1^3+2*u1^4*u2^3+2*u1^4*u2^4", True),
]


class TestBruteForce:
    def test_detects_char2_square(self):
        cert = brute_force_certify(L("1+u1^2"))
        assert cert.method == "reducible"
        assert cert.factor == L("1+u1")

    def test_detects_content_factor(self):
        f = L("1+u2") * L("1+u1+u1^2", 2)
        cert = brute_force_certify(f)
        assert cert.method == "reducible"
        f = L("1+u2") * L("1+u1+u2")
        cert = brute_force_certify(f)
        assert cert.method == "reducible" and verify_reducible(f, cert)

    def test_certifies_ledrappier(self):
        cert = brute_force_certify(L("1+u1+u2"))
        assert cert.method == "brute_force"
        assert cert.searched_bidegree == (1, 1)

    @pytest.mark.parametrize(
        "p, poly, factor",
        [
            # the content of one of the two variable orders
            (2, "1+u1*u2+u1^2*u2+u1^3+u1^3*u2", "1+u1+u1^2"),
            (2, "u2^2+u1+u1*u2^2+u1^2", "1+u1"),
            (2, "1+u2^3+u1^2+u1^2*u2+u1^2*u2^2", "1+u2+u2^2"),
            (2, "1+u2+u1+u1*u2^2", "1+u2"),
            (3, "u1^-1+1+u2+u1+u1*u2+u1^2*u2", "1+u1+u1^2"),
            (3, "1+u2+u2^2+u1*u2+u1*u2^2+u1*u2^3", "1+u2+u2^2"),
            (3, "2+2*u2^2+u1+2*u1*u2+u1*u2^2+u1^2*u2", "2+u1"),
            (3, "1+u2+u2^2+u2^3+u1+u1*u2", "1+u2"),
            # the search over factors of u1-degree 1..n//2
            (2, "1+u2+u1+u1*u2+u1*u2^2+u1^2*u2", "1+u1*u2"),
            (2, "1+u2+u1+u1*u2^2+u1^2+u1^3+u1^3*u2", "1+u1+u1*u2"),
            (2, "u2+u2^3+u1*u2^3+u1^2+u1^2*u2+u1^2*u2^2+u1^3", "1+u2^2+u1"),
            (2, "u2^2+u1*u2+u1*u2^2+u1^3", "u2+u1"),
            (3, "1+u2+2*u1+2*u1*u2+u1*u2^2+u1^2+u1^2*u2", "1+u2+u1"),
            (3, "u2+u1+u1*u2^2+u1^2*u2", "1+u1*u2"),
            (3, "1+2*u2^2+u2^4+u1+u1*u2+u1*u2^2+u1*u2^3+u1^2*u2", "1+u2^2+u1*u2"),
            (3, "u1^-1+2*u2+u1*u2^2", "1+u1*u2"),
            # u2 (1+u2+u1) divides these in the Laurent ring and comes first
            (2, "u2+u2^2+u1+u1^2+u1^2*u2+u1^2*u2^2+u1^3*u2", "1+u2+u1"),
            (3, "u2+u2^2+u1+2*u1*u2+u1^2+u1^2*u2+u1^2*u2^2+u1^3*u2", "1+u2+u1"),
            # one variable only: the smallest univariate factor
            (2, "1+u1+u1^2+u1^3", "1+u1"),
            (2, "1+u2^3", "1+u2"),
            (2, "1+u2^2+u2^4", "1+u2+u2^2"),
            (2, "1+u1+u1^3+u1^4", "1+u1"),
            (3, "2+u1+2*u1^2+u1^3", "1+u1^2"),
            (3, "2+u1^3", "2+u1"),
            (3, "1+2*u2+2*u2^2+u2^3", "1+u2"),
            (3, "1+2*u1^2+u1^4", "1+u1^2"),
        ],
    )
    def test_recorded_factors(self, p, poly, factor):
        # which factor is found first depends on the order of the search
        cert = brute_force_certify(L(poly, p))
        assert (cert.method, cert.factor.to_string()) == ("reducible", factor)

    def test_out_of_range_returns_none(self):
        assert brute_force_certify(L("1+u1^5+u2")) is None
        assert brute_force_certify(L("1+u1+u2", 5)) is None

    def test_out_of_range_input_is_not_rewritten(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("f was rewritten for an input out of range")

        monkeypatch.setattr(mixing, "columns", refuse)
        assert brute_force_certify(L("1+u1+u2+u1u2+u1^2+u2^2", 5)) is None
        assert brute_force_certify(L("u1^-1+u1^4+u2", 3)) is None
        assert brute_force_certify(L("u2^-3+u1+u2^2")) is None

    def test_certify_orchestration(self):
        # Eisenstein wins when available, brute force fills in, and inputs
        # outside the exhaustive range come back unverified
        assert certify_irreducible(L("u1^2+u1u2^2+u2^3+u2")).method == "eisenstein"
        assert certify_irreducible(L("1+u1+u2+u1u2+u1^2+u2^2")).method == "brute_force"
        assert certify_irreducible(L("1+u1^2")).method == "reducible"
        # p outside the exhaustive range and no Eisenstein prime works
        assert certify_irreducible(L("1+u1+u2+u1u2+u1^2+u2^2", 5)).method == "unverified"

    def test_products_always_detected(self, rng):
        done = 0
        while done < 25:
            p = rng.choice([2, 3])
            a = random_nonmonomial(rng, p, max_terms=3, span=1)
            b = random_nonmonomial(rng, p, max_terms=3, span=1)
            f = a * b
            if f.is_monomial():
                continue
            cert = brute_force_certify(f)
            if cert is None:
                continue
            done += 1
            assert cert.method == "reducible", f.to_string()
            q = cert.factor
            assert len(q) >= 2
            from mixbound.laurent import exact_divides

            assert exact_divides(q, f) is not None

    def test_matches_search_on_every_hull(self, monkeypatch):
        # 10,000 inputs in the box, p in {2, 3}: random supports, products
        # of two of them, and diagonal segments, on which a hull test that
        # forgot the edge's way back would certify u2^3+u1^3.  The oracle
        # searches every input the hull test now settles
        rng = random.Random(1801)
        tested = []
        split = geometry.splits_with_both_extents

        def recording(hull):
            tested.append((hull.degeneracy, split(hull)))
            return tested[-1][1]

        monkeypatch.setattr(geometry, "splits_with_both_extents", recording)

        def box(p, d1, d2, terms):
            cells = [(i, j) for i in range(d1 + 1) for j in range(d2 + 1)]
            return LaurentPoly(
                {e: rng.randrange(1, p) for e in rng.sample(cells, min(terms, len(cells)))}, p
            )

        methods = Counter()
        for i in range(10000):
            p = rng.choice((2, 3))
            if i % 5 == 1:
                vx, vy = rng.choice([(1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1)])
                n = rng.randint(2, 4 // max(vx, abs(vy)))
                ks = [0, n] + [k for k in range(1, n) if rng.random() < 0.5]
                f = LaurentPoly({(k * vx, k * vy): rng.randrange(1, p) for k in ks}, p)
            elif i % 5 == 2:
                a1, a2 = rng.randint(1, 3), rng.randint(0, 3)
                b1 = rng.randint(0, 4 - a1)
                f = box(p, a1, a2, rng.randint(2, 4)) * box(
                    p, b1, rng.randint(0 if b1 else 1, 4 - a2), rng.randint(2, 4)
                )
            else:
                d1 = rng.randint(0, 4)
                f = box(p, d1, rng.randint(0 if d1 else 1, 4), rng.randint(2, 8))
            if f.is_monomial():
                continue
            cert = brute_force_certify(f)
            assert cert == brute_force_searching_every_hull(f), f.to_string()
            methods[cert.method] += 1
        outcomes = Counter(tested)
        assert sum(methods.values()) >= 9900
        assert methods["reducible"] >= 300
        assert outcomes[geometry.POLYGON, False] >= 300  # settled by the hull
        assert outcomes[geometry.SEGMENT, True] >= 300
        assert outcomes[geometry.SEGMENT, False] >= 10  # such as 1+u1^2*u2^3

    def test_matches_division_oracle(self, rng):
        # inputs past the content checks: bidegree <= (4, 4), both extents
        # at least 1, trivial content in both variable orders; every other
        # input is a product of two such boxes.  The oracle searches the
        # u1-view in full whatever the bidegree, so the answer of the
        # degree argument and of the swapped-view search is checked too
        def box(p, d1, d2):
            while True:
                terms = {
                    (i, j): rng.randrange(p)
                    for i in range(d1 + 1) for j in range(d2 + 1) if rng.random() < 0.5
                }
                g = LaurentPoly(terms, p)
                if len(g) >= 2:
                    return g

        def past_content_checks(f):
            pu, pv = dense_view(f), dense_view(f, swap=True)
            return all(
                1 <= len(view) - 1 <= 4 and content(view).degree == 0 for view in (pu, pv)
            )

        def expected(f, bidegree):
            factor = search_factor_by_division(f, dense_view(f))
            if factor is None:
                return "brute_force", None, bidegree
            return "reducible", factor.to_string(), None

        def summary(cert):
            factor = cert.factor.to_string() if cert.factor is not None else None
            return cert.method, factor, cert.searched_bidegree

        inputs, products, reducible = 0, 0, 0
        shapes = Counter()
        while inputs < 480:
            p = rng.choice((2, 3))
            is_product = inputs % 2 == 1
            if is_product:
                a1, a2 = rng.randint(1, 3), rng.randint(0, 3)
                f = box(p, a1, a2) * box(p, rng.randint(1, 4 - a1), rng.randint(0, 4 - a2))
            else:
                f = box(p, rng.randint(1, 4), rng.randint(1, 4))
            f = f.shift((rng.randint(-2, 2), rng.randint(-2, 2)))
            if not past_content_checks(f):
                continue
            d1, d2 = (max(e) - min(e) for e in zip(*f.support()))
            cert = brute_force_certify(f)
            assert summary(cert) == expected(f, (d1, d2)), f.to_string()
            inputs += 1
            products += is_product
            reducible += cert.method == "reducible"
            shapes[(d1 > d2) - (d1 < d2), cert.method] += 1
        assert products >= 150
        assert 150 <= reducible <= inputs - 150
        assert shapes[1, "brute_force"] + shapes[1, "reducible"] >= 100  # d2 < d1
        assert shapes[-1, "brute_force"] + shapes[-1, "reducible"] >= 100  # d1 < d2
        # the swapped view found a factor, and the u1-view picked it
        assert shapes[1, "reducible"] >= 50

    @pytest.mark.parametrize(
        "p, poly",
        [
            (2, "1+u1+u2"),
            (2, "1+u1+u1^2+u1^2*u2+u1^3*u2"),
            (2, "u2^4+u1+u1*u2^2"),
            (3, "2+u1^3*u2+u1+u1^4"),
            (3, "1+2*u1+u1^2*u2+2*u1^3+u1^4*u2"),
            (3, "1+u1+u1*u2^4+2*u2^2"),
            (3, "u1^-2+u2*u1^2+u2"),
        ],
    )
    def test_degree_one_needs_no_search(self, p, poly, monkeypatch):
        # every factor has degree >= 1 in both variables once the contents
        # are trivial, so an extent of 1 leaves no room for two factors
        f = L(poly, p)
        assert 1 in {max(e) - min(e) for e in zip(*f.support())}

        def refuse(*args):
            raise AssertionError("the factor search ran for an extent of 1")

        with monkeypatch.context() as m:
            m.setattr(mixing, "_search_factor", refuse)
            cert = brute_force_certify(f)
        assert cert.method == "brute_force"
        assert search_factor_by_division(f, dense_view(f)) is None

    @pytest.mark.parametrize(
        "p, poly, built, divisions",
        [
            # the two slowest brute-force searches of the seed-1 corpus;
            # enumerating every middle polynomial of degree <= 4 built 922
            # and 383 polynomials here; gcd builds only its result, and the
            # two views share one zero column
            (3, "u1^2*u2^4+2*u1^3*u2^3+u1^4*u2^4+u1^5+2*u1^5*u2^2+2*u1^6", 227, 5),
            (2, "u1^2*u2^6+u1^3*u2^3+u1^5*u2^3+u1^6*u2^2+u1^6*u2^4", 160, 29),
        ],
    )
    def test_middles_are_solved_for(self, p, poly, built, divisions, monkeypatch):
        # every FpPoly the certification builds, the middle candidates
        # among them, and the exact divisions that end the search, which
        # runs here because the hull is taken to split
        _hull_always_splits(monkeypatch)
        f = L(poly, p)
        counts = Counter()
        init = FpPoly.__init__

        def counted_init(self, *args):
            counts["built"] += 1
            init(self, *args)

        def counted_divides(*args):
            counts["divisions"] += 1
            return laurent.exact_divides(*args)

        monkeypatch.setattr(FpPoly, "__init__", counted_init)
        monkeypatch.setattr(mixing, "exact_divides", counted_divides)
        assert brute_force_certify(f).method == "brute_force"
        assert counts == {"built": built, "divisions": divisions}

    def test_corpus_reports_match_oracle(self, monkeypatch):
        # every corpus polynomial (seeds 1-3) whose certificate needs the
        # factor search once the hull is taken to split gets the same
        # report bytes from the oracle
        _hull_always_splits(monkeypatch)
        workloads = load_perfbench("workloads")
        searched = []
        search = mixing._search_factor

        def recording(f, pu):
            searched.append(f)
            return search(f, pu)

        monkeypatch.setattr(mixing, "_search_factor", recording)
        inputs = []
        for seed in (1, 2, 3):
            for p, text in workloads.corpus_inputs(seed):
                f = parse_poly(text, p)
                del searched[:]
                brute_force_certify(f)
                if searched:
                    inputs.append(f)
        assert len(inputs) >= 60

        def reports():
            return [json.dumps(build_report(order_bounds(f))) for f in inputs]

        ours = reports()
        monkeypatch.setattr(mixing, "_search_factor", search_factor_by_division)
        assert reports() == ours

    def test_filter_does_not_divide(self, monkeypatch):
        # the division oracle divides 25682 times on this input; both the
        # full division and the remainder-only one are counted
        _hull_always_splits(monkeypatch)
        f = L("2*u2^4+2*u1*u2+u1^2*u2^3+u1^3+2*u1^4*u2^3+2*u1^4*u2^4", 3)
        calls = []
        for name in ("__divmod__", "__mod__"):
            original = getattr(FpPoly, name)

            def counted(a, b, original=original):
                calls.append(None)
                return original(a, b)

            monkeypatch.setattr(FpPoly, name, counted)
        assert brute_force_certify(f).method == "brute_force"
        assert len(calls) < 200

    def test_second_filter_spares_exact_divisions(self, monkeypatch):
        # the filter at u2 = c alone lets 146 candidates through to
        # exact_divides on this input; the filter at u1 = c stops most
        _hull_always_splits(monkeypatch)
        f = L("u1^2*u2^4+2*u1^3*u2^3+u1^4*u2^4+u1^5+2*u1^5*u2^2+2*u1^6", 3)
        with monkeypatch.context() as m:
            m.setattr(mixing, "_search_factor", search_factor_by_division)
            expected = brute_force_certify(f)
        calls = []

        def counted(*args):
            calls.append(args)
            return laurent.exact_divides(*args)

        monkeypatch.setattr(mixing, "exact_divides", counted)
        assert brute_force_certify(f) == expected
        assert len(calls) <= 10

    @pytest.mark.parametrize("p, poly, splits", SEARCH_TEST_INPUTS)
    def test_only_split_hulls_are_searched(self, p, poly, splits, monkeypatch):
        # the search tests above take every hull to split; without that,
        # an input whose hull does not split is certified with no search
        f = L(poly, p)
        assert geometry.splits_with_both_extents(geometry.convex_hull(f.support())) == splits
        searched = []
        search = mixing._search_factor

        def recording(*args):
            searched.append(args)
            return search(*args)

        monkeypatch.setattr(mixing, "_search_factor", recording)
        bidegree = tuple(max(e) - min(e) for e in zip(*f.support()))
        assert brute_force_certify(f) == IrreducibilityCertificate(
            "brute_force", searched_bidegree=bidegree
        )
        assert bool(searched) == splits

    def test_corpus_searches_only_split_hulls(self, monkeypatch):
        # of the corpus polynomials (seeds 1-3) that reach the factor
        # search when every hull is taken to split, those whose hull does
        # split are searched, and every report keeps its bytes
        workloads = load_perfbench("workloads")
        searched = []
        search = mixing._search_factor

        def recording(f, pu):
            searched.append(f)
            return search(f, pu)

        monkeypatch.setattr(mixing, "_search_factor", recording)
        split = geometry.splits_with_both_extents
        reached, ours, oracle = [], [], []
        for seed in (1, 2, 3):
            for p, text in workloads.corpus_inputs(seed):
                f = parse_poly(text, p)
                del searched[:]
                ours.append(json.dumps(build_report(order_bounds(f))))
                if searched:
                    reached.append(f)
                with monkeypatch.context() as m:
                    m.setattr(geometry, "splits_with_both_extents", lambda hull: True)
                    oracle.append(json.dumps(build_report(order_bounds(f))))
        assert ours == oracle
        assert len(reached) == 18
        assert all(split(geometry.convex_hull(f.support())) for f in reached)

    @pytest.mark.parametrize(
        "factor",
        [
            lambda f: L("1+u1"),  # not a divisor
            lambda f: L("u1"),  # a unit
            lambda f: f * L("u1^-1"),  # a unit cofactor
        ],
        ids=["non-divisor", "unit-factor", "unit-cofactor"],
    )
    def test_wrong_reducible_certificate_never_reaches_a_report(self, monkeypatch, factor):
        f = L("1+u1+u2+u1u2+u1^2+u2^2")
        wrong = IrreducibilityCertificate("reducible", factor=factor(f))
        assert verify_reducible(f, wrong) is False
        monkeypatch.setattr(mixing, "brute_force_certify", lambda f, hull=None: wrong)
        with pytest.raises(WitnessError):
            order_bounds(f)


class TestOrderBounds:
    def test_triangle(self):
        rep = order_bounds(L("u2+u1+u1^3u2"))
        assert (rep.face_count, rep.support_size) == (3, 3)
        assert (rep.lower_bound, rep.upper_bound, rep.exact_order) == (2, 2, 2)
        assert not rep.conditional

    def test_quadrilateral(self):
        rep = order_bounds(L("u1^2+u1u2^2+u2^3+u2"))
        assert rep.irreducibility.method == "eisenstein"
        assert (rep.face_count, rep.support_size, rep.exact_order) == (4, 4, 3)

    def test_pentagon(self):
        rep = order_bounds(L("u1^6+u1^5u2+u1^3u2^2+u2+u2^3"))
        assert (rep.face_count, rep.support_size, rep.exact_order) == (5, 5, 4)

    def test_quartic_window(self):
        rep = order_bounds(L("1+u1+u2+u2^2"))
        assert (rep.lower_bound, rep.upper_bound) == (2, 3)
        assert rep.exact_order is None

    def test_segment_not_mixing(self):
        rep = order_bounds(L("1+u1"))
        assert rep.degenerate_verdict == "not mixing"
        assert rep.lower_bound is None

    def test_monomial_and_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            order_bounds(L("u1^2u2"))
        with pytest.raises(DegenerateInput):
            order_bounds(LaurentPoly({}, 2))

    def test_reducible_input_suppresses_bounds(self):
        # (1+u1+u2)^2 in characteristic 2: triangle hull but reducible
        rep = order_bounds(L("1+u1^2+u2^2"))
        assert rep.irreducibility.method == "reducible"
        assert rep.lower_bound is None and rep.exact_order is None
        assert any("reducible" in note for note in rep.notes)

    def test_bounds_consistency_random(self, rng):
        done = 0
        while done < 100:
            f = random_nonmonomial(rng, rng.choice([2, 3, 5]))
            hull = geometry.convex_hull(f.support())
            if hull.degeneracy != geometry.POLYGON:
                continue
            rep = order_bounds(f)
            done += 1
            if rep.lower_bound is None:
                continue
            assert rep.face_count <= rep.support_size
            assert rep.lower_bound <= rep.upper_bound
            if set(rep.hull.vertices) == f.support():
                assert rep.exact_order == rep.lower_bound == rep.upper_bound

    @pytest.mark.parametrize("p", [2, 3, 5, 65521])
    @pytest.mark.parametrize("k", range(2, 13))
    def test_k_fold_but_not_k_plus_one_fold_family(self, k, p):
        # f_k = u1^k + sum_{i<k} u1^i u2^(1+i(2k-i)): its k+1 terms lie on
        # a concave arc above the edge (0,1)-(k,0), so all are vertices;
        # u2 divides every u1-coefficient below the top one, 1, and u2^2
        # does not divide u2, so Eisenstein certifies f at every p, and
        # R - 1 <= order < |S(f)| = R + 1 pins the order at k
        f = LaurentPoly({(k, 0): 1, **{(i, 1 + i * (2 * k - i)): 1 for i in range(k)}}, p)
        rep = order_bounds(f)
        assert (rep.face_count, rep.support_size) == (k + 1, k + 1)
        assert (rep.lower_bound, rep.upper_bound, rep.exact_order) == (k, k, k)
        assert not rep.conditional
        cert = rep.irreducibility
        assert (cert.method, cert.g) == ("eisenstein", FpPoly([0, 1], p))
        assert verify_eisenstein(f, cert)
        report = json.loads(json.dumps(build_report(rep)))
        assert report["irreducibility"]["g"] == "u2"
        assert recheck.eisenstein_problems(report) == []
        # the support itself is not mixing: f is its relation at k = 1
        support = sorted(f.support())
        v = shape_witness_search(f, support, kmax=1, windows=(0,))
        assert (v.kind, v.witness.k) == (CERTIFIED_NON_MIXING, 1)
        printed = json.loads(json.dumps(verdict_json(v, support)))
        assert recheck.witness_problems(printed, f.to_string(), p) == []
        # without (k, 0) the k points mix, as every k-shape does
        smaller = [pt for pt in support if pt != (k, 0)]
        v = shape_witness_search(f, smaller, kmax=1, windows=(0,))
        assert v.kind == GEOMETRICALLY_MIXING and not v.conditional


class TestWitness:
    def test_corrupted_witness_rejected(self):
        f = L("1+u1+u2")
        with pytest.raises(WitnessError):
            make_witness(f, [(0, 0), (1, 0), (0, 1)], 1, (L("1"), L("1"), L("u2")))

    def test_all_zero_rejected(self):
        f = L("1+u1+u2")
        zero = LaurentPoly({}, 2)
        with pytest.raises(WitnessError):
            make_witness(f, [(0, 0), (1, 0)], 1, (zero, zero))

    def test_valid_witness_carries_quotient(self):
        f = L("1+u1+u2")
        w = make_witness(f, [(0, 0), (1, 0), (0, 1)], 1, (L("1"), L("1"), L("1")))
        assert w.constant_flag
        assert w.quotient == L("1")

    def test_frobenius_closure(self):
        f, shape = L("1+u1+u2"), [(0, 0), (1, 0), (0, 1)]
        w = make_witness(f, shape, 1, (L("1"), L("1"), L("1")))
        assert w.constant_flag and frobenius_closure_by_expansion(f, shape, w)


class TestFrobeniusClosure:
    SHAPE = [(0, 0), (1, 0), (0, 1)]
    ONES = (L("1"), L("1"), L("1"))

    def test_agrees_with_expansion_on_certified_witnesses(self, rng):
        # certification rests on make_witness's multiply-back at k and on
        # constant coefficients; the relation then holds at k p and k p^2
        done = 0
        while done < 60:
            p = rng.choice([2, 3, 5, 7, 11, 13])
            f = random_nonmonomial(rng, p, max_terms=4, span=2)
            if geometry.convex_hull(f.support()).degeneracy != geometry.POLYGON:
                continue
            done += 1
            shape = sorted(f.support())
            v = shape_witness_search(f, shape, kmax=1, windows=(0,))
            assert v.kind == CERTIFIED_NON_MIXING and v.witness.constant_flag
            assert frobenius_closure_by_expansion(f, shape, v.witness), f.to_string()

    def test_non_constant_witness_rejected(self, monkeypatch):
        # a valid relation with a polynomial coefficient, returned by the
        # constant cell, is not certified
        f = L("1+u1+u2+u2^2")
        shape = [(0, 0), (1, 0), (0, 2)]
        v = shape_witness_search(f, shape)
        assert v.kind == RELATION_FOUND and not v.witness.constant_flag
        ms = list(v.witness.coefficients)
        monkeypatch.setattr(mixing, "combination_solve", lambda *args, **kwargs: ms)
        with pytest.raises(WitnessError, match="constant coefficients"):
            shape_witness_search(f, shape, kmax=1, windows=(0,))

    def test_tampered_witness_rejected(self):
        # the external re-checker reads the witness as printed
        f = L("1+u1+u2")
        w = make_witness(f, self.SHAPE, 1, self.ONES)

        def problems(witness):
            report = verdict_json(ShapeVerdict(CERTIFIED_NON_MIXING, witness=witness),
                                  shape=self.SHAPE)
            return recheck.witness_problems(report, f.to_string(), f.p)

        assert problems(w) == []
        assert problems(w._replace(quotient=L("u1")))
        assert problems(w._replace(quotient=None))
        # at k = 2 the relation is (1+u1+u2)^2, whose quotient is not 1
        assert problems(w._replace(k=2))

    def test_no_reduction_modulo_f(self, monkeypatch):
        # make_witness decides by multiplying back, so a reduction that
        # claims exact division with a wrong quotient is caught
        f = L("1+u1+u2")
        divide = laurent.NormalForm.divmod
        monkeypatch.setattr(laurent.NormalForm, "divmod",
                            lambda nf, g: (divide(nf, g)[0].shift((1, 0)), {}))
        with pytest.raises(WitnessError, match="re-verification by expansion"):
            make_witness(f, self.SHAPE, 1, self.ONES)

    def test_only_the_constant_cell_finds_constants(self, rng):
        # when the W = 0 cell finds no relation at some k, no W > 0 cell
        # at that k returns one with constant coefficients, so a relation
        # from a W > 0 cell never needs the certification path
        done, relations = 0, 0
        while done < 200:
            p = rng.choice([2, 3, 5, 7])
            f = random_nonmonomial(rng, p, max_terms=4, span=2)
            r, shape = rng.randint(2, 4), set()
            while len(shape) < r:
                shape.add((rng.randint(-2, 2), rng.randint(-2, 2)))
            k = rng.randint(1, 3)
            dil = [(k * a, k * b) for a, b in sorted(shape)]
            if combination_solve(f, dil, 0) is not None:
                continue
            done += 1
            for w in (1, 2):
                ms = combination_solve(f, dil, w)
                if ms is not None:
                    relations += 1
                    assert not all(m.support() <= {(0, 0)} for m in ms), f.to_string()
        assert relations >= 100

    def test_certification_builds_one_witness(self, monkeypatch):
        # the constant cell's relation is certified with the witness
        # already built for it: one exact division, not two
        divisions = []

        def counted(*args):
            divisions.append(args)
            return laurent.exact_divides(*args)

        monkeypatch.setattr(mixing, "combination_solve",
                            lambda f, pts, w, bases=None: None if w else self.ONES)
        monkeypatch.setattr(mixing, "exact_divides", counted)
        v = shape_witness_search(L("1+u1+u2"), self.SHAPE, kmax=1, windows=(0, 1))
        assert v.kind == CERTIFIED_NON_MIXING
        assert len(divisions) == 1


@functools.cache
def _fault_cases():
    # (f, shape, budget, unfaulted verdict): the support shapes of 40
    # random polygons, certified at k = 1, and the two paper shapes at the
    # default budget
    rng = random.Random(0xC0FFEE)
    cases = []
    while len(cases) < 40:
        p = rng.choice([2, 3, 5, 7])
        f = random_nonmonomial(rng, p, max_terms=4, span=2)
        if geometry.convex_hull(f.support()).degeneracy == geometry.POLYGON:
            cases.append((f, sorted(f.support()), {"kmax": 1, "windows": (0,)}))
    cases.append((L("1+u1+u2"), [(0, 0), (1, 0), (0, 1)], {}))
    cases.append((L("1+u1+u2+u2^2"), [(0, 0), (1, 0), (0, 2)], {}))
    return [(f, shape, budget, shape_witness_search(f, shape, **budget))
            for f, shape, budget in cases]


def _changed_kernel_entry(nullspace):
    def faulty(rows, ncols, p):
        basis = nullspace(rows, ncols, p)
        if basis:
            basis[0] = ((basis[0][0] + 1) % p, *basis[0][1:])
        return basis
    return faulty


def _dropped_product_term(mul):
    def faulty(a, b):
        out = mul(a, b)
        return LaurentPoly(dict(out.terms()[:-1]), out.p) if len(out) > 1 else out
    return faulty


def _negated_inverses(init):
    def faulty(nf, f):
        init(nf, f)
        nf._lead_inv = -nf._lead_inv % nf.p
        nf._trail_inv = -nf._trail_inv % nf.p
    return faulty


def _non_constant_first(canonicalize):
    def faulty(ms):
        ms = canonicalize(ms)
        return [ms[0] + LaurentPoly({(1, 0): 1}, ms[0].p), *ms[1:]]
    return faulty


def _changed_reduced_entry(row_reduce):
    def faulty(rows, ncols, p):
        reduced = row_reduce(rows, ncols, p)
        if reduced:
            reduced[0] = [*reduced[0][:-1], (reduced[0][-1] + 1) % p]
        return reduced
    return faulty


MAKE_WITNESS_CATCH = "relation fails re-verification by expansion"


class TestWitnessFaults:
    """One injected fault at a time over 42 seeded searches: each run
    raises, returns its unfaulted verdict or a verdict that certifies
    nothing, and never a certified witness the expansion oracle rejects.
    The tally pins which check catches each fault first."""

    @pytest.mark.parametrize("target, name, fault, tally", [
        (linalg, "nullspace", _changed_kernel_entry,
         {"kernel vector is not a relation": 42}),
        (LaurentPoly, "__mul__", _dropped_product_term,
         {MAKE_WITNESS_CATCH: 40, "reducible certificate fails re-verification": 2}),
        # -1 = 1 at p = 2, so the 11 searches over F_2 are unchanged
        (laurent.NormalForm, "__init__", _negated_inverses,
         {MAKE_WITNESS_CATCH: 31, "unchanged": 11}),
        (laurent, "_unit_canonicalize", _non_constant_first, {MAKE_WITNESS_CATCH: 42}),
        # the check of each basis vector against the cell's own rows
        (linalg, "row_reduce", _changed_reduced_entry,
         {"kernel vector is not a relation": 42}),
    ], ids=["kernel-entry", "mul-drops-term", "negated-inverses", "non-constant-m0",
            "row-reduce-entry"])
    def test_fault_is_caught_or_harmless(self, monkeypatch, target, name, fault, tally):
        cases = _fault_cases()
        monkeypatch.setattr(target, name, fault(getattr(target, name)))
        outcomes = Counter()
        for f, shape, budget, before in cases:
            try:
                v = shape_witness_search(f, shape, **budget)
            except RuntimeError as exc:  # WitnessError included
                outcomes[str(exc)] += 1
                continue
            if v.kind == CERTIFIED_NON_MIXING:
                assert v.witness.constant_flag, f.to_string()
                assert frobenius_closure_by_expansion(f, shape, v.witness), f.to_string()
            outcomes["unchanged" if v == before else v.kind] += 1
        assert dict(outcomes) == tally


@functools.cache
def _certificate_cases():
    # (f, unfaulted certificate): the seed-1 corpus and 1000 random
    # Laurent polynomials
    workloads = load_perfbench("workloads")
    inputs = [parse_poly(text, p) for p, text in workloads.corpus_inputs(1)]
    rng = random.Random(24)
    while len(inputs) < 1300:
        p = rng.choice((2, 3, 5, 7, 11, 13, 101))
        terms = {(rng.randint(-2, 5), rng.randint(-2, 5)): rng.randint(1, p - 1)
                 for _ in range(rng.randint(2, 7))}
        if len(terms) > 1:
            inputs.append(LaurentPoly(terms, p))
    return [(f, certify_irreducible(f)) for f in inputs]


@functools.cache
def _segment_cases():
    # (f, unfaulted certificate): 320 seeded inputs at p in {2, 3} whose
    # support lies on one line inside the (4, 4) box, half of them on an
    # axis (one variable) and half on a diagonal, f = u^s g(u1^a u2^b)
    # with a and b nonzero
    rng = random.Random(37)
    inputs = []
    while len(inputs) < 320:
        p = rng.choice((2, 3))
        a, b = rng.choice(((1, 0), (0, 1)) if len(inputs) % 2 else
                          ((1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1)))
        n = 4 // max(abs(a), abs(b))
        s1, s2 = rng.randint(-2, 2), rng.randint(-2, 2)
        inputs.append(LaurentPoly(
            {(s1 + j * a, s2 + j * b): rng.randint(1, p - 1)
             for j in rng.sample(range(n + 1), rng.randint(2, n + 1))}, p))
    return [(f, certify_irreducible(f)) for f in inputs]


def _lowered_tops(exponent_columns):
    def faulty(f, swap=False):
        return {i: [*es[:-1], es[-1] - 1] for i, es in exponent_columns(f, swap).items()}
    return faulty


def _swap_ignored(columns_of):
    return lambda f, swap=False: columns_of(f)


def _gcd_one(gcd):
    return lambda a, b: FpPoly([1], a.p)


def _first_column_content(content_of):
    return lambda polys: next(iter(polys))


ECERT_CATCH = "eisenstein certificate fails re-verification"


def _certificate_outcomes(cases):
    # certify every case under the installed fault, check each certificate
    # that survives, and tally how each run ended
    outcomes = Counter()
    for f, before in cases:
        try:
            cert = certify_irreducible(f)
        except RuntimeError as exc:  # WitnessError included
            outcomes[str(exc)] += 1
            continue
        except Exception as exc:
            outcomes[type(exc).__name__] += 1
            continue
        if cert.method == "eisenstein":
            report = {"prime": f.p, "poly": f.to_string(), "irreducibility": {
                "method": "eisenstein", **mixing.METHODS["eisenstein"].fields(cert)}}
            assert recheck.eisenstein_problems(report) == [], f.to_string()
        elif cert.method == "brute_force" and not before.certifies_irreducible:
            # brute force's certificate has no re-check (`METHODS`)
            outcomes["brute_force on a reducible f"] += 1
            continue
        elif cert.method == "reducible":
            assert verify_reducible(f, cert), f.to_string()
        outcomes["unchanged" if cert == before else cert.method] += 1
    return dict(outcomes)


class TestCertificateFaults:
    """One injected fault at a time in certification, over the seed-1
    corpus and 1000 random inputs: each run raises, returns its unfaulted
    certificate, 'unverified', or a certificate that holds.  An Eisenstein
    certificate must pass the outside re-checker, as `verify_eisenstein`
    reads the faulted `columns` and `fp_content` itself, and a factor must
    multiply back.  Nothing re-checks brute force, so a `brute_force`
    certificate for an f with no unfaulted proof of irreducibility is
    tallied as wrong.  The tally pins which check catches each fault first."""

    @pytest.mark.parametrize("name, fault, tally", [
        ("exponent_columns", _lowered_tops,
         {"unchanged": 1188, ECERT_CATCH: 51, "unverified": 50, "brute_force": 8,
          "eisenstein": 3}),
        # two views with a u2-degree of 0 end in an IndexError in brute force
        ("columns", _swap_ignored,
         {"unchanged": 1145, ECERT_CATCH: 121, "unverified": 28, "brute_force": 4,
          "IndexError": 2}),
        ("fp_gcd", _gcd_one,
         {"unchanged": 1265, "unverified": 27, ECERT_CATCH: 3, "eisenstein": 3,
          "brute_force": 2}),
        ("fp_content", _first_column_content,
         {"unchanged": 913, ECERT_CATCH: 349,
          "reducible certificate fails re-verification": 34, "unverified": 4}),
    ], ids=["lowered-top-exponent", "swap-ignored", "gcd-one", "first-column-content"])
    def test_fault_is_caught_or_harmless(self, monkeypatch, name, fault, tally):
        cases = _certificate_cases()
        monkeypatch.setattr(mixing, name, fault(getattr(mixing, name)))
        assert _certificate_outcomes(cases) == tally

    # segment supports, where brute force factors one view (one variable)
    # or searches a hull that is a sum of segments; the lowered-top and
    # gcd-one faults change nothing there.
    # A `columns` that ignores `swap` hands the u1-view to the swapped-first
    # search of 5 reducible diagonal inputs with d2 < d1, which finds no
    # factor there and certifies them: only a repeated search catches that
    @pytest.mark.parametrize("name, fault, tally", [
        ("exponent_columns", _lowered_tops, {"unchanged": 320}),
        ("columns", _swap_ignored,
         {"unchanged": 216, "IndexError": 83, ECERT_CATCH: 16,
          "brute_force on a reducible f": 5}),
        ("fp_gcd", _gcd_one, {"unchanged": 320}),
        ("fp_content", _first_column_content,
         {"unchanged": 234, ECERT_CATCH: 33,
          "reducible certificate fails re-verification": 53}),
    ], ids=["lowered-top-exponent", "swap-ignored", "gcd-one", "first-column-content"])
    def test_fault_on_segments_is_caught_or_harmless(self, monkeypatch, name, fault, tally):
        cases = _segment_cases()
        monkeypatch.setattr(mixing, name, fault(getattr(mixing, name)))
        assert _certificate_outcomes(cases) == tally


class TestPrefilter:
    def test_missing_direction(self):
        v = shape_prefilter(L("1+u1+u2+u2^2"), [(0, 0), (1, 0), (0, 1), (1, 1)])
        assert v is not None and v.kind == GEOMETRICALLY_MIXING
        assert "(1, -2)" in v.reason

    def test_silent_when_directions_match(self):
        assert shape_prefilter(L("1+u1+u2+u2^2"), [(0, 0), (1, 0), (0, 2)]) is None

    def test_small_arity(self):
        f = L("u1^6+u1^5u2+u1^3u2^2+u2+u2^3")
        v = shape_prefilter(f, [(0, 0), (1, 0), (0, 1), (1, 1)])
        assert v.kind == GEOMETRICALLY_MIXING and "arity 4 <= R-1 = 4" in v.reason

    def test_deleted_direction_shapes_are_flagged(self, rng):
        # build shapes walking along all but one face direction; a
        # reducible f gets no verdict, and one not certified irreducible
        # a conditional one
        done, reducible = 0, 0
        while done < 100:
            f = random_nonmonomial(rng, rng.choice([2, 3]), max_terms=6, span=3)
            hull = geometry.convex_hull(f.support())
            if hull.degeneracy != geometry.POLYGON:
                continue
            dirs = sorted(geometry.slope_set(geometry.faces(hull)))
            if len(dirs) < 3:
                continue
            dropped = dirs[rng.randrange(len(dirs))]
            kept = [d for d in dirs if d != dropped]
            shape = [(0, 0)]
            for d in kept:
                shape.append((shape[-1][0] + d[0], shape[-1][1] + d[1]))
            diffs = {
                geometry.canonical_direction((b[0] - a[0], b[1] - a[1]))
                for i, a in enumerate(shape)
                for b in shape[i + 1 :]
            }
            r = len(geometry.faces(hull))
            if dropped in diffs or len(shape) <= r - 1:
                continue  # accidental collision, or arity answers first
            done += 1
            v = shape_prefilter(f, shape)
            cert = certify_irreducible(f, hull)
            if cert.method == "reducible":
                reducible += 1
                assert v is None
                continue
            assert v is not None and v.kind == GEOMETRICALLY_MIXING
            assert v.conditional == (not cert.certifies_irreducible)
        assert reducible >= 1

    def test_newly_decided_shape_gets_the_peeling_text(self):
        # every face direction occurs and the arity exceeds R-1, so none of
        # the older rules decides it
        f, shape = L("1+u1+u2"), [(-1, -1), (-1, 0), (0, 1), (1, 0)]
        assert prefilter_by_rules(f, shape) is None
        v = shape_prefilter(f, shape)
        assert v.kind == GEOMETRICALLY_MIXING and not v.conditional
        assert v.reason == (
            "each point is in turn the unique maximizer of a face normal: "
            "no subset of the shape can carry a relation"
        )

    def test_reducible_f_gets_no_geometric_verdict(self):
        # f = (1+u1+u2)(1+u1+u1 u2^2) over F_2: R-1 = 4 >= 3 used to make
        # every 3-shape mix, yet h (1+u1^k+u2^k) lies in (f) for
        # h = 1+u1+u1 u2^2 and k = 2^j
        f = L("1+u2+u1*u2+u1*u2^2+u1*u2^3+u1^2+u1^2*u2^2")
        assert f == L("1+u1+u2") * L("1+u1+u1*u2^2")
        shape = [(0, 0), (1, 0), (0, 1)]
        assert shape_prefilter(f, shape) is None
        v = shape_witness_search(f, shape, kmax=1, windows=(0,))
        assert v.kind == UNRESOLVED
        assert "f is reducible, with factor 1+u2+u1" in v.reason

    def test_certification_follows_the_degeneracy_checks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a degenerate input was certified")

        monkeypatch.setattr(mixing, "certify_irreducible", refuse)
        with pytest.raises(DegenerateInput):
            shape_prefilter(L("1+u1"), [(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="two points"):
            shape_prefilter(L("1+u1+u2"), [(0, 0)])

    def test_unverified_f_gets_a_conditional_verdict(self):
        f = L("1+u1^2+u2^2+u1*u2^3", 5)
        assert certify_irreducible(f).method == "unverified"
        v = shape_prefilter(f, [(0, 0), (1, 0), (2, 0), (0, 1)])
        assert v.kind == GEOMETRICALLY_MIXING and v.conditional
        assert v.reason.startswith("face direction (1, -3)")
        assert json.loads(json.dumps(verdict_json(v)))["conditional"] is True
        certified = shape_prefilter(L("1+u1+u2"), [(0, 0), (2, 1)])
        assert not certified.conditional
        assert "conditional" not in verdict_json(certified)


class TestPeeling:
    @staticmethod
    def _random_pair(rng, p):
        # (f, shape), f with up to 5 terms in [-1, 1]^2.  One shape in
        # three is a translate of f's support, perhaps with one more
        # point, so that constant relations occur; the rest are 2 to 5
        # points in [-2, 2]^2
        f = random_nonmonomial(rng, p, max_terms=5, span=1)
        if rng.random() < 1 / 3:
            d = (rng.randint(-1, 1), rng.randint(-1, 1))
            shape = {(a + d[0], b + d[1]) for a, b in f.support()}
            if rng.random() < 0.5:
                shape.add((rng.randint(-2, 2), rng.randint(-2, 2)))
        else:
            shape = set()
            for _ in range(rng.randint(2, 5)):
                shape.add((rng.randint(-2, 2), rng.randint(-2, 2)))
        shape = sorted(shape)
        rng.shuffle(shape)
        return f, shape

    def test_keeps_every_old_verdict_and_every_witness(self):
        # differential against the rules peeling replaced, on pairs with f
        # certified irreducible: every old verdict and its reason are
        # kept, and no pair with a constant relation at some k <= 4 is
        # decided; such a relation's nonzero coefficients sit on points
        # that peeling leaves
        rng = random.Random(2113)
        pairs, old_decided, new_decided, witnesses = 0, 0, 0, 0
        while pairs < 2000:
            p = rng.choice((2, 3, 5))
            f, shape = self._random_pair(rng, p)
            hull = geometry.convex_hull(f.support())
            if len(shape) < 2 or hull.degeneracy != geometry.POLYGON:
                continue
            if not certify_irreducible(f, hull).certifies_irreducible:
                continue
            pairs += 1
            context = (f.to_string(), p, shape)
            old = (three_shape_by_rules if len(shape) == 3 else prefilter_by_rules)(f, shape)
            new = shape_prefilter(f, shape)
            left = peel_in_rounds(f, shape)
            assert (new is None) == (len(left) >= 2), context
            if new is not None:
                new_decided += 1
                assert new.kind == GEOMETRICALLY_MIXING and not new.conditional, context
            if old is not None and old.kind == GEOMETRICALLY_MIXING:
                old_decided += 1
                assert new is not None and new.reason == old.reason, context
            for k in range(1, 5):
                ms = combination_solve(f, [(k * a, k * b) for a, b in shape], 0)
                if ms is not None:
                    witnesses += 1
                    make_witness(f, shape, k, ms)
                    assert new is None, context
                    assert {n for n, m in zip(shape, ms) if not m.is_zero()} <= left, context
                    break
        assert old_decided >= 500 and new_decided - old_decided >= 100, (old_decided, new_decided)
        assert witnesses >= 200

    def test_products_get_no_unconditional_verdict(self):
        # f = g h with g, h non-monomials: a product certified reducible
        # gets no geometric verdict, and any other gets only a verdict
        # marked conditional.  Certification finds the factors only for
        # p in {2, 3} and bidegree <= (4, 4); other products stay
        # unverified
        rng = random.Random(1307)
        done, reducible, conditional = 0, 0, 0
        while done < 2000:
            p = rng.choice((2, 3, 5, 7, 11, 13))
            g = random_nonmonomial(rng, p, max_terms=3, span=1)
            h = random_nonmonomial(rng, p, max_terms=3, span=1)
            f = g * h
            hull = geometry.convex_hull(f.support())
            if hull.degeneracy != geometry.POLYGON:
                continue
            done += 1
            if rng.random() < 0.5:
                shape = sorted(g.support())
            else:
                shape = sorted({(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4)})
            if len(shape) < 2:
                shape.append((shape[0][0] + 1, shape[0][1]))
            cert = certify_irreducible(f, hull)
            assert not cert.certifies_irreducible, f.to_string()
            v = shape_prefilter(f, shape)
            if cert.method == "reducible":
                reducible += 1
                assert v is None, f.to_string()
            elif v is not None:
                conditional += 1
                assert v.kind == GEOMETRICALLY_MIXING and v.conditional, f.to_string()
        assert reducible >= 500, reducible


class TestWitnessSearch:
    def test_support_shape_certified(self):
        f = L("1+u1+u2")
        v = shape_witness_search(f, [(0, 0), (1, 0), (0, 1)], kmax=1, windows=(0,))
        assert v.kind == CERTIFIED_NON_MIXING
        assert v.witness.k == 1
        assert [m.to_string() for m in v.witness.coefficients] == ["1", "1", "1"]

    def test_relation_found_not_certifying(self):
        f = L("1+u1+u2+u2^2")
        v = shape_witness_search(f, [(0, 0), (1, 0), (0, 2)], kmax=4, windows=(0, 1))
        assert v.kind == RELATION_FOUND
        assert not v.witness.constant_flag
        assert [m.to_string() for m in v.witness.coefficients] == ["1", "1", "u2^-1+1"]

    def test_full_budget_still_relation_only(self):
        # no constant witness in k <= 16, W <= 2 for the vertex triangle
        f = L("1+u1+u2+u2^2")
        v = shape_witness_search(f, [(0, 0), (1, 0), (0, 2)], kmax=16, windows=(0, 1, 2))
        assert v.kind == RELATION_FOUND

    def test_bad_budgets_rejected(self):
        f = L("1+u1+u2")
        with pytest.raises(ValueError):
            shape_witness_search(f, [(0, 0), (1, 0), (0, 1)], kmax=0)
        with pytest.raises(ValueError):
            shape_witness_search(f, [(0, 0), (1, 0), (0, 1)], windows=())

    def test_kmax_is_bounded(self):
        f, shape = L("1+u1+u2"), [(0, 0), (1, 0), (0, 1)]
        v = shape_witness_search(f, shape, kmax=mixing.KMAX_LIMIT)
        assert v.kind == CERTIFIED_NON_MIXING
        for kmax in (mixing.KMAX_LIMIT + 1, 100_000_000):
            with pytest.raises(ValueError, match="kmax must be at most 512"):
                shape_witness_search(f, shape, kmax=kmax)

    def test_monotone_under_bigger_budget(self):
        f = L("1+u1+u2")
        shape = [(0, 0), (1, 0), (0, 1)]
        kinds = [
            shape_witness_search(f, shape, kmax=k, windows=w).kind
            for k, w in [(1, (0,)), (4, (0, 1)), (8, (0, 1, 2))]
        ]
        assert kinds == [CERTIFIED_NON_MIXING] * 3

    def test_each_cell_solved_once(self, monkeypatch):
        import mixbound.mixing

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return combination_solve(*args, **kwargs)

        monkeypatch.setattr(mixbound.mixing, "combination_solve", counting)
        f = L("1+u1+u2+u2^2")
        v = shape_witness_search(f, [(0, 0), (1, 0), (0, 2)], kmax=4, windows=(0,))
        assert v.kind == UNRESOLVED
        assert len(calls) == 4

    def test_system_size_is_independent_of_the_dilate(self, monkeypatch):
        # a cell's system has one column per coefficient of the m_i,
        # r (2W+1)^2 of them, however far apart the shape's points are
        import mixbound.linalg

        nullspace = mixbound.linalg.nullspace
        widths = []

        def spying(rows, ncols, p):
            widths.append(ncols)
            return nullspace(rows, ncols, p)

        monkeypatch.setattr(mixbound.linalg, "nullspace", spying)
        shape = [(0, 0), (40, 0), (0, 40), (1, 1)]
        v = shape_witness_search(L("1+u1+u2"), shape, kmax=1)
        assert v.kind == RELATION_FOUND
        assert widths and max(widths) <= 4 * (2 * 2 + 1) ** 2


class TestCarriedNormalForms:
    # shape_witness_search carries NF(u^{k n_i}) from k to k+1 and hands
    # the forms to every cell; these tests hold it to the search that
    # solves every cell from scratch

    @staticmethod
    def _random_input(rng, p):
        # (f, shape).  One in three is f = g(u^s) with the shape a
        # translate of g's support, perhaps with one more point: its
        # constant relation sits at k = s or below, so a good share
        # certify and some only after k = 1.  The rest walk once along
        # each face direction of a random f, so that the prefilter lets
        # them through; few of them certify.
        if rng.random() < 1 / 3:
            g = random_nonmonomial(rng, p, max_terms=4, span=2)
            s = rng.randint(1, 4)
            f = g.map_exponents(((s, 0), (0, s)))
            d = (rng.randint(-2, 2), rng.randint(-2, 2))
            shape = {(a + d[0], b + d[1]) for a, b in g.support()}
            if rng.random() < 0.5:
                shape.add((rng.randint(-3, 3), rng.randint(-3, 3)))
        else:
            f = random_nonmonomial(rng, p, max_terms=5, span=2)
            hull = geometry.convex_hull(f.support())
            dirs = sorted(geometry.slope_set(geometry.faces(hull)))
            rng.shuffle(dirs)
            walk = [(0, 0)]
            for d1, d2 in dirs:
                m = rng.choice([-1, 1, 2])
                walk.append((walk[-1][0] + m * d1, walk[-1][1] + m * d2))
            walk.append((rng.randint(-3, 3), rng.randint(-3, 3)))
            shape = set(walk)
        shape = sorted(shape)
        rng.shuffle(shape)
        return f, shape

    def test_matches_search_from_scratch(self):
        rng = random.Random(20121014)
        done, certified, later = 0, 0, 0
        while done < 300:
            p = rng.choice([2, 3, 5, 7])
            f, shape = self._random_input(rng, p)
            try:
                if shape_prefilter(f, shape) is not None:
                    continue
            except DegenerateInput:
                continue
            kmax = rng.randint(1, 12)
            windows = rng.choice([(0,), (0,), (0, 1), (1, 0), (0, 1, 2)])
            done += 1
            kind, witness = shape_search_from_scratch(f, shape, kmax, windows)
            v = shape_witness_search(f, shape, kmax=kmax, windows=windows)
            context = (f.to_string(), p, shape, kmax, windows)
            assert v.kind == kind, context
            if witness is None:
                assert v.witness is None, context
                continue
            assert v.witness.k == witness.k, context
            assert v.witness.coefficients == witness.coefficients, context
            assert v.witness.quotient == witness.quotient, context
            certified += kind == CERTIFIED_NON_MIXING
            later += witness.k > 1
        assert certified >= 50 and later >= 20

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_carried_forms_are_the_normal_forms(self, monkeypatch, p):
        # every cell's bases equal NF(u^{k n_i}) reduced from 1, for k <= 64
        f = L("1+u1+u2+u2^2", p)
        shape = [(0, 0), (1, 0), (0, 2)]
        nf = laurent.NormalForm(f)
        seen = []

        def checking(f, dil, w, bases=None):
            assert bases == [nf.shift({(0, 0): 1}, a) for a in dil]
            seen.append(dil)
            return combination_solve(f, dil, w, bases=bases)

        monkeypatch.setattr(mixing, "combination_solve", checking)
        v = shape_witness_search(f, shape, kmax=64, windows=(0,))
        assert v.kind == UNRESOLVED
        assert seen == [[(k * a, k * b) for a, b in shape] for k in range(1, 65)]

    @pytest.mark.parametrize("p", [2, 3])
    def test_shifts_move_by_shape_points_or_window_offsets(self, monkeypatch, p):
        # the forms move along the ray one shape point at a time and into
        # the window one offset at a time; no shift ever moves by a
        # dilated point k n_i with k > 1, and the constant cell shifts
        # nothing.  W > 0 cells report no relation here, so they run at
        # every k.
        f = L("1+u1+u2+u2^2", p)
        shape = [(0, 0), (1, 0), (0, 2)]
        kmax = 6
        moves, cells = [], []
        shift, solve = laurent.NormalForm.shift, mixing.combination_solve

        def recording(self, nf, e):
            moves.append(tuple(e))
            return shift(self, nf, e)

        def cell(f, dil, w, bases=None):
            before = len(moves)
            ms = solve(f, dil, w, bases=bases)
            cells.append((w, len(moves) - before))
            return None if w else ms

        monkeypatch.setattr(laurent.NormalForm, "shift", recording)
        monkeypatch.setattr(mixing, "combination_solve", cell)
        v = shape_witness_search(f, shape, kmax=kmax, windows=(0, 1))
        assert v.kind == UNRESOLVED
        offsets = {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)}
        assert set(moves) <= set(shape) | offsets
        dilated = {(k * a, k * b) for k in range(2, kmax + 1) for a, b in shape}
        assert not set(moves) & (dilated - {(0, 0)})
        assert cells == [(0, 0), (1, len(shape) * (len(offsets) - 1))] * kmax
        assert len(moves) - sum(n for _, n in cells) == kmax * len(shape)


class TestThreeShapeClassify:
    # 3-point shapes, which shape-test sends through the same prefilter
    # and search as every other shape

    def test_translate_of_vertex_triangle(self):
        v = shape_witness_search(L("1+u1+u2+u2^2"), [(5, 5), (6, 5), (5, 7)])
        assert v.kind == RELATION_FOUND

    def test_unit_triangle_geometrically_mixing(self):
        v = shape_witness_search(L("1+u1+u2+u2^2"), [(0, 0), (1, 0), (0, 1)])
        assert v.kind == GEOMETRICALLY_MIXING
        assert v.reason == (
            "shape differences are not positively proportional to the hull triangle's"
        )

    def test_pentagon_bound(self):
        v = shape_witness_search(
            L("u1^6+u1^5u2+u1^3u2^2+u2+u2^3"), [(0, 0), (1, 0), (0, 1)]
        )
        assert v.kind == GEOMETRICALLY_MIXING
        assert v.reason == "R-1 = 4 >= 3: all 3-shapes mix"

    def test_collinear_unresolved(self):
        # no longer unresolved: the collinear shape peels to nothing
        for f in (L("1+u1+u2+u2^2"), L("1+u1+u2")):
            v = shape_witness_search(f, [(0, 0), (1, 0), (2, 0)])
            assert v.kind == GEOMETRICALLY_MIXING and not v.conditional

    def test_reflected_unresolved(self):
        # no longer unresolved: the point-reflected triangle peels to nothing
        for f, shape in ((L("1+u1+u2+u2^2"), [(0, 0), (-1, 0), (0, -2)]),
                         (L("1+u1+u2"), [(0, 0), (-1, 0), (0, -1)])):
            v = shape_witness_search(f, shape)
            assert v.kind == GEOMETRICALLY_MIXING and not v.conditional
            assert "not positively proportional" in v.reason

    def test_matches_triangle_homothety(self):
        # peeling against the rational-ratio oracle on triangle hulls:
        # only positive homothets of the hull triangle are left for the
        # search, unless f is reducible, which gets no verdict at all
        rng = random.Random(0x3A)
        seen = {"collinear": 0, "searched": 0, "reflected": 0, "mixing": 0, "reducible": 0}
        pairs = 0
        while pairs < 2400:
            corners = {(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)}
            hull = geometry.convex_hull(corners)
            if hull.degeneracy != geometry.POLYGON:
                continue
            if rng.random() < 0.5:
                q = rng.choice((-3, -2, -1, 1, 2, 3))
                tx, ty = rng.randint(-6, 6), rng.randint(-6, 6)
                shape = [(q * a + tx, q * b + ty) for a, b in hull.vertices]
                if rng.random() < 0.3:
                    i = rng.randrange(3)
                    dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
                    shape[i] = (shape[i][0] + dx, shape[i][1] + dy)
                rng.shuffle(shape)
            else:
                shape = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
            if len(set(shape)) != 3:
                continue
            pairs += 1
            f = LaurentPoly({c: 1 for c in corners}, 2)
            v = shape_prefilter(f, shape)
            cert = certify_irreducible(f, hull)
            hom = triangle_homothety(shape, hull)
            if cert.method == "reducible":
                seen["reducible"] += 1
                assert v is None
                continue
            if hom is not None and hom[1] > 0:
                seen["searched"] += 1
                assert v is None
                continue
            seen["collinear" if hom is None and geometry.cross(*shape) == 0
                 else "mixing" if hom is None else "reflected"] += 1
            assert v.kind == GEOMETRICALLY_MIXING
            assert v.reason == (
                "shape differences are not positively proportional to the hull triangle's"
            )
            assert v.conditional == (not cert.certifies_irreducible)
        reducible = seen.pop("reducible")
        assert min(seen.values()) >= 30 and reducible >= 1, seen

    def test_shape_beyond_coordinate_cap_rejected(self):
        far = (0, geometry.COORD_LIMIT + 1)
        with pytest.raises(ValueError, match="out of range"):
            shape_witness_search(L("1+u1+u2+u2^2"), [(0, 0), (1, 0), far])

    def test_never_certifies_when_r_exceeds_3(self, rng):
        f = L("u1^6+u1^5u2+u1^3u2^2+u2+u2^3")
        for _ in range(20):
            shape = set()
            while len(shape) < 3:
                shape.add((rng.randint(-4, 4), rng.randint(-4, 4)))
            v = shape_witness_search(f, sorted(shape))
            assert v.kind == GEOMETRICALLY_MIXING


class TestSequenceDiagnostics:
    def test_dilates_align_perfectly(self):
        f = L("1+u1+u2")
        fam = [(j, [(0, 0), (j, 0), (0, j)]) for j in range(1, 11)]
        for entry in sequence_diagnostics(f, fam):
            assert all(a.offset == 0 for a in entry.alignments)

    def test_misaligned_face_offset_grows(self):
        f = L("1+u1+u2+u2^2")
        fam = [(j, [(0, 0), (j, 0), (0, j)]) for j in range(1, 11)]
        entries = sequence_diagnostics(f, fam)
        mismatched = [e.alignments[1].offset for e in entries]
        assert mismatched == sorted(mismatched)
        assert all(a < b for a, b in zip(mismatched, mismatched[1:]))

    def test_single_tuple(self):
        f = L("1+u1+u2")
        entries = sequence_diagnostics(f, [(7, [(0, 0), (5, 1)])])
        assert len(entries) == 1 and entries[0].label == 7
        assert entries[0].face_lengths

    def test_length_ratios_of_dilates_constant(self):
        f = L("1+u1+u2")
        entries = sequence_diagnostics(f, [(j, [(0, 0), (j, 0), (0, j)]) for j in (2, 4)])
        for e in entries:
            assert set(e.length_ratios) == {1}


class TestVolochScan:
    @pytest.mark.parametrize("mmax, emax", [(64, 6), (mixing.VOLOCH_MMAX, 16)])
    def test_no_solutions_small(self, mmax, emax):
        scan = voloch_identity_scan(mmax)
        assert scan.solutions == ()
        assert scan.frobenius_failures == ()
        assert scan.frobenius_checked == tuple(range(emax + 1))

    def test_matches_ring_ops_oracle(self):
        for mmax in range(1, 257):
            assert voloch_identity_scan(mmax) == voloch_scan_by_ring_ops(mmax)

    def test_m1_direct(self):
        # (1+t+t^2)^1 != 1+t^2
        a = FpPoly((1, 1, 1), 2)
        assert a != FpPoly((1, 0, 1), 2)

    def test_e3_against_ring_ops(self):
        a = FpPoly((1, 1, 1), 2)
        acc = a
        for _ in range(3):
            acc = acc * acc
        expected = FpPoly([1] + [0] * 7 + [1] + [0] * 7 + [1], 2)
        assert acc == expected  # 1 + t^8 + t^16

    def test_bad_mmax(self):
        with pytest.raises(ValueError):
            voloch_identity_scan(0)

    def test_mmax_is_bounded(self):
        with pytest.raises(ValueError, match="mmax must be at most 65536"):
            voloch_identity_scan(65537)
        with pytest.raises(ValueError, match="mmax must be at most 65536"):
            voloch_identity_scan(100_000_000)


class TestOracleEquivalence:
    def _brute_force_constants(self, f, pts, k):
        # enumerate every constant tuple, not all zero, and test membership
        p = f.p
        r = len(pts)
        dil = [(k * a, k * b) for a, b in pts]
        found = []
        for code in range(1, p**r):
            cs = []
            c = code
            for _ in range(r):
                cs.append(c % p)
                c //= p
            combo = LaurentPoly({}, p)
            for ci, a in zip(cs, dil):
                if ci:
                    combo = combo + LaurentPoly({a: ci}, p)
            if in_ideal(combo, f):
                found.append(tuple(cs))
        return found

    def test_matches_brute_force_on_100_instances(self):
        rng = random.Random(424242)
        done = 0
        while done < 100:
            p = rng.choice([2, 3])
            f = random_nonmonomial(rng, p, max_terms=4, span=2)
            r = rng.randint(2, 3)
            pts = []
            while len(pts) < r:
                pt = (rng.randint(-2, 2), rng.randint(-2, 2))
                if pt not in pts:
                    pts.append(pt)
            k = rng.randint(1, 4)
            done += 1
            oracle = self._brute_force_constants(f, pts, k)
            dil = [(k * a, k * b) for a, b in pts]
            solved = combination_solve(f, dil, 0)
            assert (solved is not None) == bool(oracle)
            if solved is not None:
                combo = LaurentPoly({}, p)
                for m, a in zip(solved, dil):
                    combo = combo + m.shift(a)
                assert in_ideal(combo, f)
