"""Built-in reference systems and the verify-paper replay.

Each entry pins a classical worked example of the theory: the defining
polynomial, its expected hull/Newton/bounds data, and any annotation the
analyze command should surface when it recognizes the input (up to
normalization and the u1 <-> u2 exchange, which is a symmetry of the
whole analysis).  `verify_paper_checks` recomputes everything from these
embedded literals and reports one pass/fail record per item; no external
files are involved.
"""

from __future__ import annotations

from typing import NamedTuple

from . import geometry
from ._golden import FIGURE1_SVG, FIGURE4_SVG
from .fieldpoly import INFINITE
from .laurent import LaurentPoly, in_ideal, normalize, relation_sum
from .mixing import (
    CERTIFIED_NON_MIXING,
    GEOMETRICALLY_MIXING,
    RELATION_FOUND,
    order_bounds,
    shape_witness_search,
    voloch_identity_scan,
)
from .newton import Valuation, newton_polygon
from .render import render_polygon

PENTAGON_NOTE = (
    "the order of mixing of this system is occasionally quoted as 5, but the "
    "bounds force R-1 = |S(f)|-1 = 4 exactly (5 would violate the strict "
    "upper bound |S(f)| = 5)"
)
QUARTIC_NOTE = (
    "the order of mixing of this system is exactly 3: every 3-point shape is "
    "mixing (the identity scan over F_2[t] rules out the only candidate "
    "relation), which settles the window [2, 3] at its upper end"
)
SWAP_NOTE = (
    "input matches a built-in reference system up to the u1 <-> u2 exchange, "
    "which is a symmetry of the analysis"
)


def _poly(terms, p=2):
    return LaurentPoly(terms, p)


TRIANGLE = _poly({(0, 1): 1, (1, 0): 1, (3, 1): 1})
QUAD = _poly({(2, 0): 1, (1, 2): 1, (0, 3): 1, (0, 1): 1})
PENTAGON = _poly({(6, 0): 1, (5, 1): 1, (3, 2): 1, (0, 1): 1, (0, 3): 1})
LEDRAPPIER = _poly({(0, 0): 1, (1, 0): 1, (0, 1): 1})
QUARTIC = _poly({(0, 0): 1, (1, 0): 1, (0, 1): 1, (0, 2): 1})


class ReferenceEntry(NamedTuple):
    key: str
    p: int
    poly: LaurentPoly
    notes: tuple


REGISTRY = (
    ReferenceEntry("pentagon-order4", 2, PENTAGON, (PENTAGON_NOTE,)),
    ReferenceEntry("quartic-order3", 2, QUARTIC, (QUARTIC_NOTE,)),
)


def notes_for(f: LaurentPoly):
    """Registry annotations for f, matched up to normalization and swap."""
    if f.is_zero():
        return []
    canon = normalize(f)[1]
    swapped = normalize(f.swap_vars())[1]
    notes = []
    for entry in REGISTRY:
        if entry.p != f.p:
            continue
        if canon == entry.poly:
            notes.extend(entry.notes)
        elif swapped == entry.poly:
            notes.extend(entry.notes)
            notes.append(SWAP_NOTE)
    return notes


# ---------------------------------------------------------------------------
# the replay


class Check(NamedTuple):
    # expected and got go to the JSON writer as they are: lists, not tuples
    name: str
    expected: object
    got: object

    @property
    def ok(self):
        return self.expected == self.got


def _newton_strings(f, val):
    points, polygon, vectors = newton_polygon(f, val)
    rendered = ";".join(
        f"({pt.index},{'inf' if pt.ordinate == INFINITE else pt.ordinate})"
        for pt in points
    )
    slopes = ",".join(str(s.slope) for s in polygon.segments)
    norms = ";".join(f"({a},{b})" for a, b in vectors)
    return rendered, slopes, norms


def verify_paper_checks():
    """Recompute every built-in worked example; one Check per item."""
    checks = []
    ordv = Valuation.finite_at()
    degv = Valuation.infinity_deg()

    pts, slopes, norms = _newton_strings(TRIANGLE, ordv)
    checks.append(Check("triangle newton points (ord u2)", "(0,1);(1,0);(2,inf);(3,1)", pts))
    checks.append(Check("triangle newton slopes (ord u2)", "-1,1/2", slopes))
    checks.append(Check("triangle extended norms (ord u2)", "(-1,-1);(1/2,-1)", norms))
    pts2, slopes2, norms2 = _newton_strings(TRIANGLE, degv)
    checks.append(Check("triangle newton points (deg u2)", "(0,-1);(1,0);(2,inf);(3,-1)", pts2))
    checks.append(Check("triangle newton slopes (deg u2)", "0", slopes2))
    checks.append(Check("triangle extended norms (deg u2)", "(0,1)", norms2))

    hull = geometry.convex_hull(TRIANGLE.support())
    checks.append(
        Check("triangle hull vertices", "(0,1);(1,0);(3,1)",
              ";".join(f"({v[0]},{v[1]})" for v in hull.vertices))
    )
    checks.append(
        Check("triangle face normals", "(-1,-1);(1,-2);(0,1)",
              ";".join(f"({fc.normal[0]},{fc.normal[1]})" for fc in geometry.faces(hull)))
    )

    rep1 = order_bounds(TRIANGLE)
    checks.append(Check("triangle bounds", [3, 3, 2, 2, 2],
                        [rep1.face_count, rep1.support_size, rep1.lower_bound,
                         rep1.upper_bound, rep1.exact_order]))

    rep2 = order_bounds(QUAD)
    checks.append(Check("quadrilateral certificate", "eisenstein",
                        rep2.irreducibility.method))
    checks.append(Check("quadrilateral bounds", [4, 4, 3],
                        [rep2.face_count, rep2.support_size, rep2.exact_order]))

    rep3 = order_bounds(PENTAGON)
    checks.append(Check("pentagon certificate", "eisenstein",
                        rep3.irreducibility.method))
    checks.append(Check("pentagon bounds", [5, 5, 4, 4],
                        [rep3.face_count, rep3.support_size, rep3.lower_bound,
                         rep3.exact_order]))
    checks.append(Check("pentagon discrepancy note emitted", True,
                        PENTAGON_NOTE in notes_for(PENTAGON)))

    rep4 = order_bounds(QUARTIC)
    checks.append(Check("quartic bounds", [2, 3, None],
                        [rep4.lower_bound, rep4.upper_bound, rep4.exact_order]))

    support_shape = [(0, 0), (1, 0), (0, 1)]
    verdict = shape_witness_search(LEDRAPPIER, support_shape)
    checks.append(Check("support shape certified non-mixing", CERTIFIED_NON_MIXING,
                        verdict.kind))
    checks.append(Check("support shape witness", ["k=1", "1", "1", "1"],
                        ["k=%d" % verdict.witness.k,
                         *(m.to_string() for m in verdict.witness.coefficients)]
                        if verdict.witness else None))
    # expanded and reduced modulo f at k = 2 and 4 themselves, not by the
    # Frobenius argument the certificate rests on
    ms = verdict.witness.coefficients if verdict.witness else ()
    persists = bool(ms) and all(
        in_ideal(relation_sum(LEDRAPPIER, support_shape, k, ms), LEDRAPPIER) for k in (2, 4))
    checks.append(Check("support shape relation persists at k=2 and k=4", True, persists))

    v1 = shape_witness_search(QUARTIC, [(0, 0), (1, 0), (0, 1)])
    checks.append(Check("quartic unit-triangle shape", GEOMETRICALLY_MIXING, v1.kind))
    v2 = shape_witness_search(QUARTIC, [(0, 0), (1, 0), (0, 2)])
    checks.append(Check("quartic vertex-triangle shape", RELATION_FOUND, v2.kind))
    checks.append(Check("quartic vertex-triangle witness",
                        ["k=1", "1", "1", "u2^-1+1", "non-constant"],
                        ["k=%d" % v2.witness.k,
                         *(m.to_string() for m in v2.witness.coefficients),
                         "constant" if v2.witness.constant_flag else "non-constant"]
                        if v2.witness else None))

    scan = voloch_identity_scan(4096)
    checks.append(Check("identity scan m <= 4096 has no solutions", [], list(scan.solutions)))
    checks.append(Check("squared-form identities verified for e <= 12",
                        list(range(13)), list(scan.frobenius_checked)))
    checks.append(Check("squared-form identity failures", [], list(scan.frobenius_failures)))

    checks.append(Check("figure 1 render matches golden bytes", True,
                        _render_svg(TRIANGLE) == FIGURE1_SVG))
    checks.append(Check("figure 4 render matches golden bytes", True,
                        _render_svg(PENTAGON) == FIGURE4_SVG))
    return checks


def _render_svg(f):
    return render_polygon(geometry.convex_hull(f.support()), f.support())
