import random

import pytest

from mixbound.fieldpoly import FpPoly, _monic_polys_of_degree, is_irreducible
from mixbound.laurent import LaurentPoly, PolyInU1, as_poly_in_u1
from mixbound.parse import parse_poly


def L(text, p=2):
    """Laurent polynomial from surface syntax."""
    return parse_poly(text, p)


def irreducibles_up_to_degree(dmax, p):
    """Monic irreducibles over F_p of degree 1..dmax, in degree-lex order."""
    return [
        g
        for d in range(1, dmax + 1)
        for g in _monic_polys_of_degree(d, p)
        if is_irreducible(g)
    ]


def long_divide(f, g):
    """Quotient q with g = f * q in the Laurent ring, or None.

    The reference for `laurent.NormalForm`, sharing no code with it: the
    normalized parts are divided by long division in (F_p[u2])[u1].  If f
    divides g, the normalized quotient is a polynomial (neither part is
    divisible by u1 or u2, which are prime), and since F_p[u2] is a domain
    every leading-coefficient division is exact; so a failed step proves
    that f does not divide g.
    """
    if g.is_zero():
        return LaurentPoly.zero(f.p)
    p = f.p
    fu, gu = as_poly_in_u1(f), as_poly_in_u1(g)
    rem, den = list(gu.coeffs), fu.coeffs
    dn = len(den) - 1
    if len(rem) - 1 < dn:
        return None
    quotient = [FpPoly.zero(p)] * (len(rem) - dn)
    for i in range(len(rem) - 1, dn - 1, -1):
        if rem[i].is_zero():
            continue
        qc, r = divmod(rem[i], den[-1])
        if not r.is_zero():
            return None
        quotient[i - dn] = qc
        for j, dc in enumerate(den):
            rem[i - dn + j] = rem[i - dn + j] - qc * dc
    if any(not r.is_zero() for r in rem):
        return None
    shift = (gu.shift[0] - fu.shift[0], gu.shift[1] - fu.shift[1])
    return PolyInU1(tuple(quotient), shift, p).to_laurent()


def random_laurent(rng, p, max_terms=6, span=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = (rng.randint(-span, span), rng.randint(-span, span))
        terms[e] = rng.randint(1, p - 1) if p > 2 else 1
    return LaurentPoly(terms, p)


def random_nonmonomial(rng, p, max_terms=6, span=4):
    while True:
        f = random_laurent(rng, p, max_terms, span)
        if not f.is_zero() and not f.is_monomial():
            return f


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
