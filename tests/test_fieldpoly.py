import random

import pytest
from hypothesis import given, strategies as st

from mixbound.fieldpoly import (
    NEG_INF,
    FpPoly,
    _monic_polys_of_degree,
    content,
    factor_monic,
    gcd,
    is_irreducible,
    monic_divisors,
)
from mixbound.parse import parse_poly


def P(coeffs, p=2):
    return FpPoly(coeffs, p)


class TestFieldConfig:
    # the field F_p is configured by the prime given to parse_poly
    def test_accepts_primes(self):
        for p in (2, 3, 5, 65521):
            assert parse_poly("1+u1+u2", p).p == p

    @pytest.mark.parametrize("bad", [0, 1, 4, 9, 65536, 65537, -7])
    def test_rejects_non_primes_and_range(self, bad):
        with pytest.raises(ValueError):
            parse_poly("1+u1+u2", bad)


class TestBasics:
    def test_zero_degree_marker(self):
        assert P([]).degree == NEG_INF
        assert P([0, 0]).degree == NEG_INF
        assert P([1, 2, 3], 3).degree == 1  # leading 3 = 0 mod 3 is stripped

    def test_residues_reduced(self):
        assert P([5, 7, 9], 3).coeffs == (2, 1)

    def test_gcd_example(self):
        # t^2+1 = (t+1)^2 in characteristic 2
        assert gcd(P([1, 0, 1]), P([1, 1])) == P([1, 1])

    def test_divrem_example(self):
        q, r = divmod(P([0, 1, 0, 1]), P([0, 1]))
        assert q == P([1, 0, 1])
        assert r.is_zero()

    def test_mul_example(self):
        a = P([1, 1, 1])
        assert a * a == P([1, 0, 1, 0, 1])

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P([1, 1]), P([]))

    def test_gcd_is_monic(self):
        a = P([2, 1], 5) * P([3, 0, 1], 5)
        b = P([2, 1], 5) * P([4, 1], 5)
        g = gcd(a.scale(3), b.scale(2))
        assert g.coeffs[-1] == 1
        assert g == P([2, 1], 5).monic()


class TestRingAxioms:
    def test_axioms_on_200_random_triples(self):
        rng = random.Random(2024)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            a, b, c = (
                P([rng.randrange(p) for _ in range(rng.randint(0, 13))], p)
                for _ in range(3)
            )
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    @given(st.data())
    def test_divrem_roundtrip(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        a = P(data.draw(st.lists(st.integers(0, p - 1), max_size=12)), p)
        b = P(data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8)), p)
        if b.is_zero():
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        assert (a % b, a // b) == (r, q)

    def test_remainders_build_no_quotient(self, monkeypatch):
        # %, gcd and divides take the remainder alone
        def refuse(*args):
            raise AssertionError("a remainder went through divmod")

        monkeypatch.setattr(FpPoly, "__divmod__", refuse)
        a, b = P([1, 1]) * P([1, 1, 1]), P([1, 1]) * P([0, 1])
        assert a % b == P([1, 1])
        assert gcd(a, b) == P([1, 1])
        assert P([1, 1]).divides(a) and not b.divides(a)
        with pytest.raises(ZeroDivisionError):
            a % FpPoly.zero(2)


class TestFrobenius:
    # a**(p**e) is a with t replaced by t**(p**e); pow(a, n, m) computes it
    # modulo m by square-and-multiply
    def test_squaring_char2(self):
        assert pow(P([1, 1, 1]), 2) == P([1, 0, 1, 0, 1])
        assert pow(P([1, 1, 1]), 2, P([1, 1, 0, 1])) == P([1, 0, 1, 0, 1]) % P([1, 1, 0, 1])

    def test_identity_case(self):
        a, m = P([1, 0, 1, 1, 1]), P([1, 1, 1])
        assert pow(a, 1) == a
        assert pow(a, 1, m) == a % m
        assert pow(a, 0, m) == FpPoly.one(2)
        assert pow(a, 5, P([1])).is_zero()

    def test_example_e2(self):
        assert pow(P([1, 1]), 4) == P([1, 0, 0, 0, 1])
        assert pow(P([1, 1]), 4, P([0, 0, 0, 1])) == P([1])

    def test_against_repeated_multiplication(self):
        rng = random.Random(7)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            a = P([rng.randrange(p) for _ in range(rng.randint(0, 9))], p)
            m = P([rng.randrange(p) for _ in range(rng.randint(1, 5))] + [1], p)
            n = rng.choice([0, 1, 2, p, p * p, rng.randint(3, 40)])
            expected = FpPoly.one(p)
            for _ in range(n):
                expected = expected * a
            assert pow(a, n) == expected
            assert pow(a, n, m) == expected % m
            if n in (p, p * p):
                # coefficients are fixed, exponents scale by n
                spread = [0] * (n * len(a.coeffs))
                for i, c in enumerate(a.coeffs):
                    spread[i * n] = c
                assert expected == P(spread, p)


class TestIrreducibility:
    def test_examples(self):
        assert is_irreducible(P([1, 1, 1]))
        assert not is_irreducible(P([1, 0, 1]))
        assert is_irreducible(FpPoly.x(2))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(P([1]))

    def _oracle(self, a):
        # exhaustive trial division by monic polynomials of degree <= deg/2
        from mixbound.fieldpoly import _monic_polys_of_degree

        for d in range(1, a.degree // 2 + 1):
            for g in _monic_polys_of_degree(d, a.p):
                if (a % g).is_zero():
                    return False
        return True

    def test_agrees_with_trial_division(self):
        for p in (2, 3):
            rng = random.Random(100 + p)
            seen = 0
            while seen < 150:
                coeffs = [rng.randrange(p) for _ in range(rng.randint(2, 7))]
                a = P(coeffs, p)
                if a.degree < 1:
                    continue
                seen += 1
                assert is_irreducible(a) == self._oracle(a)


    def test_large_prime_builds_no_large_operand(self, monkeypatch):
        # t^p mod a by square-and-multiply: every product stays below
        # degree 2 deg(a), where spreading t to t^p would build degree p
        p = 65521
        built = []
        init = FpPoly.__init__

        def recording(self, coeffs, q):
            init(self, coeffs, q)
            built.append(len(self.coeffs) - 1)

        monkeypatch.setattr(FpPoly, "__init__", recording)
        for c in (2, 3, 5, 7, 17):
            built.clear()
            # t^2 - c is irreducible exactly when c is a non-residue (Euler)
            a = P([-c, 0, 1], p)
            assert is_irreducible(a) == (pow(c, (p - 1) // 2, p) == p - 1)
            assert built and max(built) < 2 * a.degree
        built.clear()
        a = P([5, 0, 3, 1], p)
        is_irreducible(a)
        assert max(built) < 2 * a.degree


class TestContentAndDivisors:
    def test_examples(self):
        t = FpPoly.x(2)
        assert content([t, P([0, 0, 1]), P([0, 1, 0, 1])]) == t
        assert content([t, FpPoly.one(2), t]) == FpPoly.one(2)
        assert content([P([0, 0, 1])]) == P([0, 0, 1])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            content([P([]), P([])])

    def test_factor_monic_reassembles(self):
        rng = random.Random(5)
        for _ in range(40):
            p = rng.choice([2, 3])
            a = P([rng.randrange(p) for _ in range(rng.randint(2, 8))], p)
            if a.degree < 1:
                continue
            prod = FpPoly.one(p)
            for g, m in factor_monic(a).items():
                assert is_irreducible(g)
                prod = prod * g**m
            assert prod == a.monic()

    def test_one_division_per_trial_step(self, monkeypatch):
        # counts, not a clock: each trial divisor costs one divmod per
        # factor it strips plus the one that leaves a remainder
        t, t1 = FpPoly.x(2), P([1, 1])
        a = t**3 * t1**2
        divisors = []
        div = FpPoly.__divmod__

        def counted_divmod(x, y):
            divisors.append(y)
            return div(x, y)

        monkeypatch.setattr(FpPoly, "__divmod__", counted_divmod)
        assert factor_monic(a) == {t: 3, t1: 2}
        assert divisors == [t] * (3 + 1) + [t1] * (2 + 1)

    def test_monic_divisors_divide(self):
        a = P([0, 1, 0, 1])  # t(t+1)^2 over F_2
        divs = monic_divisors(a)
        assert FpPoly.one(2) in divs and a.monic() in divs
        assert len(divs) == len(set(divs)) == 6
        for d in divs:
            assert (a % d).is_zero()

    def test_monic_divisors_match_trial_division(self):
        # every monic divisor of a, by trial: d of degree <= deg(a)/2
        # divides a exactly when its cofactor does
        rng = random.Random(11)
        checked = 0
        while checked < 500:
            p = rng.choice([2, 3, 5, 7])
            a = P([rng.randrange(p) for _ in range(rng.randint(1, 7))], p)
            if a.is_zero():
                continue
            expected = set()
            for k in range(a.degree // 2 + 1):
                for d in _monic_polys_of_degree(k, p):
                    if d.divides(a):
                        expected |= {d, a.monic() // d}
            assert monic_divisors(a) == sorted(expected, key=lambda q: q.coeffs), a
            checked += 1

    def test_monic_divisors_take_no_powers(self, monkeypatch):
        # each divisor extends a shorter one by one multiplication
        def refuse(*args):
            raise AssertionError("monic_divisors raised a polynomial to a power")

        monkeypatch.setattr(FpPoly, "__pow__", refuse)
        a = P([0, 0, 0, 1], 3) * P([1, 2, 1], 3)  # t^3 (t+1)^2 over F_3
        assert len(monic_divisors(a)) == 4 * 3
