import random
from collections import Counter

import pytest

from mixbound import geometry
from mixbound.laurent import (
    LaurentPoly,
    NormalForm,
    columns,
    combination_solve,
    exact_divides,
    in_ideal,
    normalize,
)

from conftest import (
    L,
    ORIENTATION_MATRICES,
    dense_columns_by_normalize,
    invert_coefficient,
    long_divide,
    random_laurent,
    random_nonmonomial,
)


class TestLaurentBasics:
    def test_support_examples(self):
        assert L("u2+u1+u1^3u2").support() == {(0, 1), (1, 0), (3, 1)}
        assert LaurentPoly({}, 2).support() == set()
        assert L("1+u1+u2+u2^2").support() == {(0, 0), (1, 0), (0, 1), (0, 2)}

    def test_zero_coefficients_dropped(self):
        f = LaurentPoly({(0, 0): 2, (1, 1): 1}, 2)
        assert f.support() == {(1, 1)}

    def test_canonical_term_order(self):
        f = L("u1^2 + u2 + 1 + u1u2^-1", 3)
        assert [e for e, _ in f.terms()] == sorted(f.support())

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            L("u1") * L("u1", 3)


class TestNormalize:
    def test_clears_negative_powers(self):
        shift, g = normalize(L("u1^-1u2 + 1"))
        assert shift == (-1, 0)
        assert g == L("u2 + u1")

    def test_already_normalized(self):
        f = L("u2+u1+u1^3u2")
        assert normalize(f) == ((0, 0), f)

    def test_monomial(self):
        shift, g = normalize(L("u1^2u2^3"))
        assert shift == (2, 3) and g == L("1")

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize(LaurentPoly({}, 2))

    def test_roundtrip_is_identity(self, rng):
        for _ in range(100):
            f = random_laurent(rng, rng.choice([2, 3, 5]))
            if f.is_zero():
                continue
            shift, g = normalize(f)
            assert g.shift(shift) == f
            assert min(e1 for e1, _ in g.support()) == 0
            assert min(e2 for _, e2 in g.support()) == 0


def _as_strings(cols):
    return {i: q.to_string("u2") for i, q in cols.items()}


class TestColumns:
    def test_ringpoly_example(self):
        cols = columns(L("u2+u1+u1^3u2"))
        assert _as_strings(cols) == {0: "u2", 1: "1", 3: "u2"}

    def test_monomial_shift(self):
        assert _as_strings(columns(L("u1"))) == {0: "1"}
        assert _as_strings(columns(L("u1^-2*u2^3+u1^-1*u2^5"))) == {0: "1", 1: "u2^2"}

    def test_example_quadrilateral(self):
        cols = columns(L("u1^2+u1u2^2+u2^3+u2"))
        assert _as_strings(cols) == {0: "u2+u2^3", 1: "u2^2", 2: "1"}

    def test_roundtrip(self, rng):
        # the columns put back together give normalized f
        for _ in range(100):
            f = random_laurent(rng, rng.choice([2, 3, 5]))
            if f.is_zero():
                continue
            terms = {(i, j): c for i, q in columns(f).items() for j, c in enumerate(q.coeffs)}
            assert LaurentPoly(terms, f.p) == normalize(f)[1]

    def test_one_pass_rewrite_matches_oracle(self, rng):
        # exponents run over [-4, 4]; every third input is squeezed into
        # one u1-column and every third into one row.  The reader keeps
        # the oracle's nonzero columns, in increasing order; an inverted
        # view is read as the Eisenstein re-check builds it
        shapes = Counter()
        for i in range(1500):
            p = rng.choice([2, 3, 5, 7])
            f = random_laurent(rng, p)
            if i % 3 == 1:
                f = LaurentPoly({(-2, e2): c for (_, e2), c in f.terms()}, p)
            elif i % 3 == 2:
                f = LaurentPoly({(e1, -3): c for (e1, _), c in f.terms()}, p)
            views = [(columns(f), f)] + [
                (columns(invert_coefficient(f, swap) if inverted else f, swap=swap),
                 f.map_exponents(m))
                for (swap, inverted), m in ORIENTATION_MATRICES.items()
            ]
            for got, mapped in views:
                _, dense = dense_columns_by_normalize(mapped)
                want = {k: q for k, q in enumerate(dense) if not q.is_zero()}
                assert got == want, f.to_string()
                assert list(got) == list(want), f.to_string()
            exps = f.support()
            shapes["negative"] += any(min(e) < 0 for e in exps)
            shapes["column"] += len({e1 for e1, _ in exps}) == 1
            shapes["row"] += len({e2 for _, e2 in exps}) == 1
        assert min(shapes.values()) >= 375

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("inverted", [False, True])
    def test_rewrite_rejects_zero(self, swap, inverted):
        zero = LaurentPoly({}, 2)
        with pytest.raises(ValueError):
            columns(invert_coefficient(zero, swap) if inverted else zero, swap=swap)


class TestMul:
    def test_frobenius_square(self):
        assert L("1+u1") * L("1+u1") == L("1+u1^2")

    def test_identity(self):
        f = L("u2+u1+u1^3u2")
        assert f * L("1") == f

    def test_hand_expansion(self):
        assert L("1+u1+u2") * L("u1u2") == L("u1u2+u1^2u2+u1u2^2")

    def test_commutative_associative(self):
        rng = random.Random(314)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            a, b, c = (random_laurent(rng, p) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_product_hull_is_minkowski_sum(self, rng):
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            a, b = random_laurent(rng, p), random_laurent(rng, p)
            if a.is_zero() or b.is_zero():
                continue
            prod = a * b
            sums = {
                (ea[0] + eb[0], ea[1] + eb[1])
                for ea in a.support()
                for eb in b.support()
            }
            assert prod.support() <= sums
            got = geometry.convex_hull(prod.support())
            assert got.vertices == geometry.convex_hull(sums).vertices


class TestExactDivides:
    def test_char2_square(self):
        assert exact_divides(L("1+u1+u2"), L("1+u1^2+u2^2")) == L("1+u1+u2")

    def test_degree_obstruction(self):
        assert exact_divides(L("u2+u1+u1^3u2"), L("u1")) is None

    def test_zero_dividend(self):
        assert exact_divides(L("1+u1"), LaurentPoly({}, 2)) == LaurentPoly({}, 2)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ValueError):
            exact_divides(LaurentPoly({}, 2), L("1+u1"))

    def test_constructed_multiples_roundtrip(self):
        rng = random.Random(2718)
        done = 0
        while done < 200:
            p = rng.choice([2, 3, 5])
            f = random_laurent(rng, p)
            g = random_laurent(rng, p)
            if f.is_zero():
                continue
            done += 1
            q = exact_divides(f, f * g)
            assert q == g

    @pytest.mark.parametrize("p", [2, 3])
    def test_divisor_with_u2_content(self, p):
        # f = (1+u2)(1+u1+u2): its u1-coefficients share the factor 1+u2
        f = L("1+u2", p) * L("1+u1+u2", p)
        h = L("u1^-1u2^2+1+u1u2", p)
        assert exact_divides(f, f * h) == h
        assert exact_divides(f, f.shift((3, -2))) == L("u1^3u2^-2", p)
        # the primitive part divides but the content does not
        assert exact_divides(f, L("1+u1+u2", p) * L("1+u1", p)) is None
        assert exact_divides(f, L("1+u1+u2", p) * L("1+u1u2^2", p)) is None
        # the content divides but the primitive part does not
        assert exact_divides(f, L("1+u2", p) * L("1+u1", p)) is None
        assert exact_divides(f, L("1+u2", p) * L("1+u1+u2^2", p)) is None
        # a higher power of the content in the divisor
        assert exact_divides(L("1+u2", p) * f, f * L("1+u1", p)) is None

    def test_random_divisors_with_u2_content(self):
        rng = random.Random(4242)
        for _ in range(150):
            p = rng.choice([2, 3, 5])
            c = LaurentPoly({(0, j): rng.randrange(1, p) for j in (0, rng.randint(1, 3))}, p)
            f = c * random_nonmonomial(rng, p)
            g = random_laurent(rng, p)
            assert exact_divides(f, f * g) == g
            q = exact_divides(f, c * g)
            assert q is None or f * q == c * g
            q = exact_divides(f, g)
            assert q is None or f * q == g

    def test_monomial_divisor(self):
        rng = random.Random(31)
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7])
            e = (rng.randint(-4, 4), rng.randint(-4, 4))
            c = rng.randrange(1, p)
            g = random_laurent(rng, p)
            want = g.scale(pow(c, -1, p)).shift((-e[0], -e[1]))
            assert exact_divides(LaurentPoly({e: c}, p), g) == want
        assert exact_divides(L("u1^2u2^-1"), LaurentPoly({}, 2)) == LaurentPoly({}, 2)

    def test_matches_long_division(self):
        # half the pairs are products, a quarter of the divisors carry
        # u2-content, and the dividend's exponents may be negative
        rng = random.Random(1999)
        divisible = 0
        for i in range(2000):
            p = rng.choice([2, 3, 5, 7])
            f = random_nonmonomial(rng, p)
            if i % 4 == 0:
                f = f * LaurentPoly({(0, j): rng.randrange(1, p) for j in (0, rng.randint(1, 3))}, p)
            g = random_laurent(rng, p)
            if i % 2:
                g = f * g
            want = long_divide(f, g)
            assert exact_divides(f, g) == want
            assert in_ideal(g, f) == (want is not None)
            divisible += want is not None
        assert 1000 <= divisible < 2000

    def test_non_multiples_rejected(self, rng):
        rejected = 0
        while rejected < 50:
            p = rng.choice([2, 3])
            f = random_nonmonomial(rng, p)
            g = random_laurent(rng, p)
            q = exact_divides(f, g)
            if q is None:
                rejected += 1
            else:
                assert f * q == g


class TestInIdeal:
    def test_generator_in_own_ideal(self):
        f = L("1+u1+u2")
        assert in_ideal(f, f)

    def test_units_not_in_proper_ideal(self):
        assert not in_ideal(L("u1"), L("1+u1+u2"))

    def test_constructed_member(self):
        f = L("1+u1+u2")
        assert in_ideal(f * L("u1^-1+u2"), f)

    def test_zero_in_ideal(self):
        assert in_ideal(LaurentPoly({}, 2), L("1+u1+u2"))

    def test_monomial_generator_rejected(self):
        with pytest.raises(ValueError):
            in_ideal(L("1+u1"), L("u1u2"))


class TestNormalForm:
    def test_reduces_modulo_f(self, rng):
        for _ in range(150):
            p = rng.choice([2, 3, 5])
            f = random_nonmonomial(rng, p, max_terms=4, span=3)
            g, h = random_laurent(rng, p), random_laurent(rng, p)
            nf = NormalForm(f)
            assert nf.divmod(g + h * f)[1] == nf.divmod(g)[1]
            assert all(0 <= j < nf.width for j, _ in nf.divmod(g)[1])
            for elem in (g, h * f, g + h * f):
                assert (not nf.divmod(elem)[1]) == (long_divide(f, elem) is not None)

    def test_divmod_returns_the_quotient(self, rng):
        for _ in range(150):
            p = rng.choice([2, 3, 5])
            f = random_nonmonomial(rng, p, max_terms=4, span=3)
            g, h = random_laurent(rng, p), random_laurent(rng, p)
            nf = NormalForm(f)
            for elem in (g, h * f, g + h * f):
                q, r = nf.divmod(elem)
                assert r == nf.divmod(elem)[1]
                # r is written in the sheared exponents (e1 + t e2, e2)
                rest = LaurentPoly({(j - nf.t * k, k): c for (j, k), c in r.items()}, p)
                assert q * f + rest == elem
            assert nf.divmod(h * f)[0] == h == long_divide(f, h * f)

    def test_shift_multiplies_by_monomial(self, rng):
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            f = random_nonmonomial(rng, p, max_terms=4, span=3)
            g = random_laurent(rng, p)
            e = (rng.randint(-6, 6), rng.randint(-6, 6))
            nf = NormalForm(f)
            assert nf.shift(nf.divmod(g)[1], e) == nf.divmod(g.shift(e))[1]


class TestCombinationSolve:
    def test_support_shape_constants(self):
        ms = combination_solve(L("1+u1+u2"), [(0, 0), (1, 0), (0, 1)], 0)
        assert [m.to_string() for m in ms] == ["1", "1", "1"]

    def test_no_constant_pair(self):
        assert combination_solve(L("1+u1+u2"), [(0, 0), (5, 0)], 0) is None

    def test_window_witness(self):
        ms = combination_solve(
            L("1+u1+u2+u2^2"), [(0, 0), (1, 0), (0, 2)], 1
        )
        assert [m.to_string() for m in ms] == ["1", "1", "u2^-1+1"]

    @pytest.mark.parametrize(
        "p, poly, points, window, expected",
        [
            # the lex-min choice among a 16-dimensional kernel
            (3, "2+2*u1*u2^2+2*u1^2*u2", [(1, 2), (2, 2), (0, 1)], 1,
             ["1", "u2^-1", "u2^-1"]),
            # every basis vector has an offender: retry without a block
            (2, "u2^2+u1^2*u2+u1^2*u2^2", [(0, 0), (0, 1), (0, 2), (1, 1)], 1,
             ["0", "0", "1", "u1^-1*u2"]),
            # the same retry in a constant cell
            (3, "2*u2+2*u1*u2+2*u1^2*u2^2", [(0, 1), (2, 2), (1, 1), (1, 0)], 0,
             ["1", "1", "1", "0"]),
        ],
    )
    def test_recorded_witnesses(self, p, poly, points, window, expected):
        f = L(poly, p)
        ms = combination_solve(f, points, window)
        assert [m.to_string() for m in ms] == expected
        # handed the points' normal forms, the solve finds the same tuple
        nf = NormalForm(f)
        bases = [nf.divmod(LaurentPoly({a: 1}, p))[1] for a in points]
        assert combination_solve(f, points, window, bases=bases) == ms

    def test_one_base_per_point(self):
        f = L("1+u1+u2")
        nf = NormalForm(f)
        with pytest.raises(ValueError):
            combination_solve(f, [(0, 0), (1, 0), (0, 1)], 0, bases=[nf.divmod(f)[1]])

    def test_monomial_rejected(self):
        with pytest.raises(ValueError):
            combination_solve(L("u1"), [(0, 0), (1, 0)], 0)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            combination_solve(L("1+u1+u2"), [(0, 0), (0, 0)], 0)

    def test_returned_witnesses_verify(self, rng):
        done = 0
        while done < 60:
            p = rng.choice([2, 3])
            f = random_nonmonomial(rng, p, max_terms=4, span=2)
            pts = []
            while len(pts) < rng.randint(2, 3):
                pt = (rng.randint(-2, 2), rng.randint(-2, 2))
                if pt not in pts:
                    pts.append(pt)
            done += 1
            ms = combination_solve(f, pts, rng.choice([0, 1]))
            if ms is None:
                continue
            combo = LaurentPoly({}, p)
            for m, a in zip(ms, pts):
                combo = combo + m.shift(a)
            assert in_ideal(combo, f)
            assert any(not m.is_zero() for m in ms)
            for m in ms:
                if not m.is_zero():
                    assert exact_divides(f, m) is None

    def test_canonical_witness_leading_term_is_one(self, rng):
        done = 0
        while done < 40:
            p = rng.choice([2, 3])
            f = random_nonmonomial(rng, p, max_terms=4, span=2)
            pts = [(0, 0), (rng.randint(1, 3), rng.randint(0, 2))]
            if pts[1] == pts[0]:
                continue
            done += 1
            ms = combination_solve(f, pts, 1)
            if ms is None:
                continue
            first = next(m for m in ms if not m.is_zero())
            assert first.terms()[0] == ((0, 0), 1)
