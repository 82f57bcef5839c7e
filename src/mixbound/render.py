"""Deterministic SVG and TikZ figures.

Two figure kinds share one entry point and one writer per format: the
lattice figure (support dots, hull edges, face labels F1..FR
counter-clockwise from the smallest vertex) and, when a Newton polygon
is passed, the Newton figure (lower-hull vertices and segments in
index/ordinate coordinates, no labels).

Output is byte-for-byte reproducible: the viewport is fixed at 40 px per
lattice unit with a 20 px margin, and every coordinate is formatted from
exact rationals with a fixed quantization, never from floats.
"""

from __future__ import annotations

from fractions import Fraction

from . import geometry

UNIT = 40
MARGIN = 20
DOT_RADIUS = 3
LABEL_OFFSET = 14


def _fmt(x) -> str:
    """Exact decimal for a rational, quantized to 1/1000 (round half up)."""
    f = Fraction(x)
    scaled = f * 1000
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator - n * scaled.denominator) >= scaled.denominator:
        n += 1
    if n % 1000 == 0:
        return str(n // 1000)
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, 1000)
    return f"{sign}{whole}.{str(frac).zfill(3).rstrip('0')}"


class _View:
    def __init__(self, xs, ys):
        self.min_x = min(min(xs), 0)
        self.max_x = max(max(xs), 0)
        self.min_y = min(min(ys), 0)
        self.max_y = max(max(ys), 0)
        self.width = (self.max_x - self.min_x) * UNIT + 2 * MARGIN
        self.height = (self.max_y - self.min_y) * UNIT + 2 * MARGIN

    def x(self, e1):
        return MARGIN + (Fraction(e1) - self.min_x) * UNIT

    def y(self, e2):
        return self.height - (MARGIN + (Fraction(e2) - self.min_y) * UNIT)


def render_polygon(hull, support, faces, newton=None, fmt="svg"):
    """Render the lattice figure, or the Newton figure when one is given.

    The hull must be a genuine polygon (figures of degenerate hulls are
    refused).  fmt is 'svg' or 'tikz'.
    """
    if fmt not in ("svg", "tikz"):
        raise ValueError(f"unknown format {fmt!r}")
    labels = []
    if newton is not None:
        # NewtonPoints are (index, ordinate) pairs; only the vertices of
        # the lower hull are drawn, so infinite ordinates never appear
        pts = list(newton.vertices)
        edges = list(zip(pts, pts[1:]))
    else:
        if hull.degeneracy != geometry.POLYGON:
            raise ValueError("figure rendering needs a non-degenerate hull")
        pts = sorted(set(tuple(pt) for pt in support) | set(hull.vertices))
        edges = [(face.start, face.end) for face in faces]
        for i, face in enumerate(faces):
            mx = Fraction(face.start[0] + face.end[0], 2)
            my = Fraction(face.start[1] + face.end[1], 2)
            nx, ny = face.normal
            scale = Fraction(LABEL_OFFSET, max(abs(nx), abs(ny)))
            labels.append((f"F{i + 1}", mx, my, nx * scale, ny * scale))
    view = _View([pt[0] for pt in pts], [pt[1] for pt in pts])
    if fmt == "svg":
        return _svg_figure(view, pts, edges, labels)
    return _tikz_figure(view, pts, edges, labels)


def _svg_line(x1, y1, x2, y2, style):
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'{style}/>'
    )

AXIS_STYLE = 'stroke="#888888" stroke-width="1"'
EDGE_STYLE = 'stroke="#000000" stroke-width="2"'


def _svg_figure(view, pts, edges, labels):
    w, h = _fmt(view.width), _fmt(view.height)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        _svg_line(view.x(view.min_x), view.y(0), view.x(view.max_x), view.y(0), AXIS_STYLE),
        _svg_line(view.x(0), view.y(view.min_y), view.x(0), view.y(view.max_y), AXIS_STYLE),
    ]
    for a, b in edges:
        out.append(_svg_line(view.x(a[0]), view.y(a[1]), view.x(b[0]), view.y(b[1]), EDGE_STYLE))
    for pt in pts:
        out.append(
            f'<circle cx="{_fmt(view.x(pt[0]))}" cy="{_fmt(view.y(pt[1]))}" '
            f'r="{DOT_RADIUS}" fill="#000000"/>'
        )
    for text, mx, my, ox, oy in labels:
        lx = view.x(mx) + ox
        ly = view.y(my) - oy
        out.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-family="serif" '
            f'font-size="14" text-anchor="middle">{text}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _tikz_figure(view, pts, edges, labels):
    out = ["\\begin{tikzpicture}[x=1cm,y=1cm]"]
    out.append(
        f"\\draw[gray] ({_fmt(view.min_x)},0) -- ({_fmt(view.max_x)},0);"
    )
    out.append(
        f"\\draw[gray] (0,{_fmt(view.min_y)}) -- (0,{_fmt(view.max_y)});"
    )
    for a, b in edges:
        out.append(
            f"\\draw[thick] ({_fmt(a[0])},{_fmt(a[1])}) -- ({_fmt(b[0])},{_fmt(b[1])});"
        )
    for pt in pts:
        out.append(f"\\fill ({_fmt(pt[0])},{_fmt(pt[1])}) circle (2pt);")
    for text, mx, my, ox, oy in labels:
        lx = mx + Fraction(ox, UNIT)
        ly = my + Fraction(oy, UNIT)
        out.append(f"\\node at ({_fmt(lx)},{_fmt(ly)}) {{${text}$}};")
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"
