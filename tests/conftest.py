import random

import pytest

from mixbound.fieldpoly import _monic_polys_of_degree, is_irreducible
from mixbound.laurent import LaurentPoly
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
