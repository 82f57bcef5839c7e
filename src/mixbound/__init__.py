"""Exact-arithmetic analysis of mixing for algebraic Z^2-actions.

Given a prime p and a Laurent polynomial f over F_p, the package
computes the convex-hull geometry of f, Newton polygons for the
non-Archimedean norms on the coefficient ring, norm extensions aligned
with the hull faces, bounds (and where possible the exact value) of the
order of mixing, and certificates or refutations of mixing for finite
shapes of lattice points.

The names in `__all__` are loaded on first use (PEP 562), so importing
the package, or one of its modules, compiles only the modules that are
asked for.  A lookup binds nothing here: it reads the defining module's
attribute each time.
"""

import importlib

# each re-exported name and the module that defines it
_EXPORTS = {
    "FpPoly": "fieldpoly",
    "INFINITE": "fieldpoly",
    "NEG_INF": "fieldpoly",
    "Face": "geometry",
    "LatticePolygon": "geometry",
    "convex_hull": "geometry",
    "faces": "geometry",
    "LaurentPoly": "laurent",
    "combination_solve": "laurent",
    "in_ideal": "laurent",
    "IrreducibilityCertificate": "mixing",
    "MixingReport": "mixing",
    "ShapeVerdict": "mixing",
    "Witness": "mixing",
    "eisenstein_certify": "mixing",
    "order_bounds": "mixing",
    "sequence_diagnostics": "mixing",
    "shape_prefilter": "mixing",
    "shape_witness_search": "mixing",
    "voloch_identity_scan": "mixing",
    "ExtendedNorm": "newton",
    "NewtonPolygon": "newton",
    "Valuation": "newton",
    "extended_norms": "newton",
    "ParseError": "parse",
    "parse_poly": "parse",
}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
