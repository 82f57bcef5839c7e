"""Exact-arithmetic analysis of mixing for algebraic Z^2-actions.

Given a prime p and a Laurent polynomial f over F_p, the package
computes the convex-hull geometry of f, Newton polygons for the
non-Archimedean norms on the coefficient ring, norm extensions aligned
with the hull faces, bounds (and where possible the exact value) of the
order of mixing, and certificates or refutations of mixing for finite
shapes of lattice points.
"""

from .fieldpoly import FpPoly, INFINITE, NEG_INF
from .geometry import Face, LatticePolygon, convex_hull, faces
from .laurent import LaurentPoly, combination_solve, in_ideal
from .mixing import (
    IrreducibilityCertificate,
    MixingReport,
    ShapeVerdict,
    Witness,
    eisenstein_certify,
    order_bounds,
    sequence_diagnostics,
    shape_prefilter,
    shape_witness_search,
    voloch_identity_scan,
)
from .newton import ExtendedNorm, NewtonPolygon, Valuation, extended_norms
from .parse import ParseError, parse_poly

__version__ = "0.1.0"

__all__ = [
    "FpPoly",
    "INFINITE",
    "NEG_INF",
    "Face",
    "LatticePolygon",
    "convex_hull",
    "faces",
    "LaurentPoly",
    "combination_solve",
    "in_ideal",
    "IrreducibilityCertificate",
    "MixingReport",
    "ShapeVerdict",
    "Witness",
    "eisenstein_certify",
    "order_bounds",
    "sequence_diagnostics",
    "shape_prefilter",
    "shape_witness_search",
    "voloch_identity_scan",
    "ExtendedNorm",
    "NewtonPolygon",
    "Valuation",
    "extended_norms",
    "ParseError",
    "parse_poly",
    "__version__",
]
