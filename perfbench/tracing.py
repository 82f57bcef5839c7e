"""Per-layer tracing from outside the package.

`Tracer.install` replaces each traced function with a timing wrapper on
every name it is reachable through: the defining module, every
`from .x import y` binding in the other mixbound modules (aliases
included), and the package's re-exports.  The wrappers keep spans
(id, layer, start, end, parent id) in memory; `layer_totals` turns them
into calls and self time, where self time is a span's duration minus the
time its child spans cover.  A few exact counters ride along.
"""

from __future__ import annotations

import functools
import importlib
import marshal
import pkgutil
import time
from array import array
from collections import Counter

# Traced layers, as module.function.
LAYERS = (
    "linalg.nullspace",
    "laurent.combination_solve",
    "laurent.exact_divides",
    "laurent.as_poly_in_u1",
    "geometry.convex_hull",
    "geometry.faces",
    "geometry.lattice_points_of_difference",
    "mixing.order_bounds",
    "mixing.eisenstein_certify",
    "mixing.brute_force_certify",
    "mixing.shape_witness_search",
    "mixing.make_witness",
    "mixing.frobenius_closure_holds",
    "mixing.voloch_identity_scan",
    "fieldpoly.irreducibles_up_to_degree",
    "fieldpoly.ord_at",
    "fieldpoly.content",
    "newton.face_newton_data",
    "newton.newton_points",
    "newton.face_norm_for",
    "report.build_report",
    "render.render_polygon",
    "refexamples.verify_paper_checks",
    "parse.parse_poly",
)

# Exact counters recorded next to the spans.
COUNTERS = (
    "linalg.nullspace.cols_sum",
    "linalg.nullspace.cols_max",
    "linalg.nullspace.rows_sum",
    "mixing.eisenstein_certify.hits",
    "mixing.brute_force_certify.hits",
    "mixing.order_bounds.certified",
    "fieldpoly.FpPoly.divmod.calls",
)

# Layers that must record calls on a workload; each should move that
# workload's end-to-end numbers (see README.md).
REQUIRED = {
    "paper": (
        "laurent.exact_divides",
        "mixing.shape_witness_search", "mixing.make_witness",
        "mixing.frobenius_closure_holds", "mixing.voloch_identity_scan",
        "newton.face_norm_for", "render.render_polygon",
        "refexamples.verify_paper_checks", "parse.parse_poly",
    ),
    "corpus": (
        "laurent.as_poly_in_u1",
        "geometry.convex_hull", "geometry.faces", "mixing.order_bounds",
        "mixing.eisenstein_certify", "mixing.brute_force_certify",
        "fieldpoly.irreducibles_up_to_degree", "fieldpoly.ord_at",
        "fieldpoly.content", "newton.face_newton_data", "newton.newton_points",
        "report.build_report",
    ),
    "search": (
        "linalg.nullspace", "laurent.combination_solve",
        "geometry.convex_hull", "geometry.faces",
        "geometry.lattice_points_of_difference", "mixing.shape_witness_search",
    ),
    "wide": (
        "laurent.as_poly_in_u1", "fieldpoly.irreducibles_up_to_degree",
        "fieldpoly.ord_at", "fieldpoly.content", "newton.face_newton_data",
        "newton.newton_points", "report.build_report",
    ),
}


def _nullspace_counts(counts, args, kwargs, result):
    rows, ncols = args[0], args[1]
    counts["linalg.nullspace.cols_sum"] += ncols
    counts["linalg.nullspace.rows_sum"] += len(rows)
    counts["linalg.nullspace.cols_max"] = max(counts["linalg.nullspace.cols_max"], ncols)


def _hit(name):
    def count(counts, args, kwargs, result):
        if result is not None and result.certifies_irreducible:
            counts[name] += 1
    return count


def _certified(counts, args, kwargs, result):
    if result.irreducibility.certifies_irreducible:
        counts["mixing.order_bounds.certified"] += 1


EXTRA = {
    "linalg.nullspace": _nullspace_counts,
    "mixing.eisenstein_certify": _hit("mixing.eisenstein_certify.hits"),
    "mixing.brute_force_certify": _hit("mixing.brute_force_certify.hits"),
    "mixing.order_bounds": _certified,
}


def package_modules():
    """Every mixbound module, imported."""
    import mixbound

    mods = [mixbound]
    for info in pkgutil.iter_modules(mixbound.__path__):
        mods.append(importlib.import_module(f"mixbound.{info.name}"))
    return mods


class Tracer:
    """Timing wrappers over the package's layers, installed from outside."""

    def __init__(self):
        self.spans = array("q")  # id, layer index, start ns, end ns, parent id
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._next_id = 0
        self._patched = []

    def _wrap(self, index, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, index, start, end, parent))
            if extra is not None:
                extra(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        mods = package_modules()
        by_name = {m.__name__.rpartition(".")[2]: m for m in mods[1:]}
        for index, layer in enumerate(LAYERS):
            mod_name, fn_name = layer.split(".")
            original = getattr(by_name.get(mod_name), fn_name, None)
            if original is None:
                self.absent.append(layer)
                continue
            wrapper = self._wrap(index, original, EXTRA.get(layer))
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        fppoly = by_name["fieldpoly"].FpPoly
        divmod_original = fppoly.__divmod__
        counts = self.counts

        def counted_divmod(a, b):
            counts["fieldpoly.FpPoly.divmod.calls"] += 1
            return divmod_original(a, b)

        self._patched.append((fppoly, "__divmod__", divmod_original))
        fppoly.__divmod__ = counted_divmod

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path):
        """Write spans and counters for the parent process to read."""
        with open(path, "wb") as fh:
            marshal.dump((self.spans.tobytes(), dict(self.counts), self.absent), fh)


def load(path):
    with open(path, "rb") as fh:
        raw, counts, absent = marshal.load(fh)
    spans = array("q")
    spans.frombytes(raw)
    return spans, Counter(counts), absent


def layer_totals(spans):
    """calls and self seconds per layer: duration minus child coverage."""
    child_ns = Counter()
    for i in range(0, len(spans), 5):
        parent = spans[i + 4]
        if parent >= 0:
            child_ns[parent] += spans[i + 3] - spans[i + 2]
    calls = Counter()
    self_ns = Counter()
    for i in range(0, len(spans), 5):
        layer = LAYERS[spans[i + 1]]
        calls[layer] += 1
        self_ns[layer] += spans[i + 3] - spans[i + 2] - child_ns[spans[i]]
    return calls, {layer: ns / 1e9 for layer, ns in self_ns.items()}
