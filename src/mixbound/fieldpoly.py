"""Dense univariate polynomial arithmetic over the prime field F_p.

A polynomial a_0 + a_1 t + ... + a_n t^n is stored as the tuple
(a_0, ..., a_n) of residues in [0, p) with a_n != 0; the zero polynomial
is the empty tuple and reports degree NEG_INF.  All operations are pure
and return new values, so polynomials can be shared freely.

The prime p is capped below 2**16 so every scalar product fits well
inside machine integers before reduction.  `parse.parse_poly` enforces
the cap and the primality of p, where text becomes a polynomial.
"""

from __future__ import annotations

NEG_INF = float("-inf")
INFINITE = float("inf")

MAX_PRIME = 1 << 16


def is_prime(n: int) -> bool:
    """Trial-division primality check, adequate for p < 2**16."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FpPoly:
    """Immutable dense polynomial over F_p in one variable (written t).

    Supports +, -, *, divmod, //, %, ** and ==/hash.  Construction
    reduces coefficients mod p and strips trailing zeros.  p is trusted
    to be a prime below MAX_PRIME: `parse.parse_poly` checks it, and every
    arithmetic result is built from an already checked p.
    """

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p):
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        _set_coeffs(self, tuple(cs))
        _set_p(self, p)

    def __setattr__(self, name, value):
        raise AttributeError("FpPoly is immutable")

    @classmethod
    def zero(cls, p):
        return cls((), p)

    @classmethod
    def one(cls, p):
        return cls((1,), p)

    @classmethod
    def x(cls, p):
        """The polynomial t."""
        return cls((0, 1), p)

    @property
    def degree(self):
        """Degree of the polynomial; NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if not isinstance(other, FpPoly):
            raise TypeError(f"expected FpPoly, got {type(other).__name__}")
        if other.p != self.p:
            raise ValueError("mixed moduli")
        return other

    def __add__(self, other):
        other = self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return FpPoly(out, self.p)

    def __neg__(self):
        return FpPoly([-c for c in self.coeffs], self.p)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        other = self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FpPoly.zero(self.p)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return FpPoly(out, self.p)

    def scale(self, c):
        """Multiply by the scalar c."""
        return FpPoly([c * a for a in self.coeffs], self.p)

    def __divmod__(self, other):
        other = self._check(other)
        rem = list(self.coeffs)
        q = _reduce(rem, other.coeffs, self.p, quotient=True)
        return FpPoly(q, self.p), FpPoly(rem, self.p)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        # the remainder alone: no quotient polynomial is built
        other = self._check(other)
        rem = list(self.coeffs)
        _reduce(rem, other.coeffs, self.p)
        return FpPoly(rem, self.p)

    def divides(self, other):
        """True when self divides other exactly."""
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def __pow__(self, e, mod=None):
        """self**e; pow(self, e, mod) reduces modulo mod after every product,
        so no operand reaches degree 2 deg(mod)."""
        if e < 0:
            raise ValueError("negative exponent")

        def reduce(a):
            return a if mod is None else a % mod

        result = reduce(FpPoly.one(self.p))
        base = reduce(self)
        while e:
            if e & 1:
                result = reduce(result * base)
            base = reduce(base * base)
            e >>= 1
        return result

    def monic(self):
        """Scale so the leading coefficient is 1 (zero stays zero)."""
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self.scale(pow(self.coeffs[-1], -1, self.p))

    def eval(self, x):
        """Value at the scalar x (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, FpPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"FpPoly({self.to_string()!r}, p={self.p})"

    def to_string(self, var="t"):
        """Canonical string, terms by increasing degree, e.g. '1+t^2'."""
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                exp = "" if i == 1 else f"^{i}"
                parts.append(f"{head}{var}{exp}")
        return "+".join(parts)


def _reduce(rem, b, p, quotient=False):
    # long division of the coefficient list rem by the coefficients b (its
    # last one nonzero) over F_p in place, leaving the remainder in rem,
    # trailing zeros included; returns the quotient's coefficients when asked
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    lb_inv = pow(b[-1], -1, p)
    q = [0] * max(len(rem) - db, 0) if quotient else None
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % p
        if c == 0:
            continue
        factor = (c * lb_inv) % p
        if q is not None:
            q[i - db] = factor
        for j, bc in enumerate(b):
            rem[i - db + j] = (rem[i - db + j] - factor * bc) % p
    return q


# the slots' own setters: FpPoly.__setattr__ refuses every assignment, and
# these cost less per construction than object.__setattr__
_set_coeffs, _set_p = FpPoly.coeffs.__set__, FpPoly.p.__set__


def gcd(a: FpPoly, b: FpPoly) -> FpPoly:
    """Monic greatest common divisor (gcd(0, 0) = 0).

    Euclid runs on the coefficient lists; only the result is built."""
    p = a._check(b).p
    x, y = list(a.coeffs), list(b.coeffs)
    while y:
        _reduce(x, y, p)
        while x and not x[-1]:
            x.pop()
        x, y = y, x
    return FpPoly(x, p).monic()


def content(polys) -> FpPoly:
    """Monic gcd of a collection of polynomials; all-zero input is an error."""
    acc = None
    for q in polys:
        if q.is_zero():
            continue
        acc = q if acc is None else gcd(acc, q)
        if acc.degree == 0:
            return acc.monic()
    if acc is None:
        raise ValueError("content of an all-zero collection is undefined")
    return acc.monic()


def _divide_out(a, g):
    # (m, a / g^m) for the largest m with g^m | a != 0: one divmod per step
    m = 0
    while True:
        q, r = divmod(a, g)
        if not r.is_zero():
            return m, a
        a = q
        m += 1


def is_irreducible(a: FpPoly) -> bool:
    """Deterministic irreducibility test over F_p.

    A reducible polynomial of degree n has an irreducible factor of degree
    at most n//2, and t^(p^i) - t is the product of all monic irreducibles
    of degree dividing i; so a is irreducible iff gcd(a, t^(p^i) - t) is
    constant for every i <= n//2.
    """
    n = a.degree
    if n == NEG_INF or n < 1:
        raise ValueError("irreducibility is only defined for non-constant polynomials")
    if n == 1:
        return True
    t = FpPoly.x(a.p)
    h = t % a
    for _ in range(n // 2):
        h = pow(h, a.p, a)
        if gcd(a, h - t).degree >= 1:
            return False
    return True


def irreducible_factors(a: FpPoly, dmax):
    """Yield (g, m) for the monic irreducible factors g of a != 0 of degree
    at most dmax, m the multiplicity, in the order _monic_polys_of_degree
    enumerates them (degree 1 first).

    Trial division by monic polynomials of increasing degree d.  Once every
    factor of degree < d is divided out, any monic divisor of degree d is
    irreducible, and a rest of degree < 2d is irreducible itself, so it
    ends the search.
    """
    if a.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    rest = a.monic()
    d = 1
    while d <= min(dmax, rest.degree // 2):
        for g in _monic_polys_of_degree(d, rest.p):
            m, rest = _divide_out(rest, g)
            if m:
                yield g, m
                if d > rest.degree // 2:
                    break
        d += 1
    if 1 <= rest.degree <= dmax:
        yield rest, 1


def factor_monic(a: FpPoly) -> dict:
    """Factor a != 0 into monic irreducibles, {factor: multiplicity}."""
    return dict(irreducible_factors(a, a.degree))


def monic_divisors(a: FpPoly):
    """All monic divisors of a != 0, sorted by coefficient tuple."""
    # each divisor d0 found so far is extended by g, g^2, ..., g^m, one
    # multiplication each; distinct products of powers of distinct
    # irreducibles are distinct, so nothing repeats
    divisors = [FpPoly.one(a.p)]
    for g, m in factor_monic(a).items():
        extended = []
        for d in divisors:
            for _ in range(m):
                d = d * g
                extended.append(d)
        divisors += extended
    return sorted(divisors, key=lambda q: q.coeffs)


def _monic_polys_of_degree(d, p):
    # all monic polynomials of degree d over F_p, lexicographic in coefficients
    total = p**d
    for code in range(total):
        cs = []
        c = code
        for _ in range(d):
            cs.append(c % p)
            c //= p
        cs.append(1)
        yield FpPoly(cs, p)

