"""Deterministic SVG rendering of a boundary-sum decomposition.

Three panels: the two bodies, then their full sum with the boundary-sum
region hatched and the erosion hole (when nonempty) cut out in white with a
dashed outline.  Input shapes must be convex 2D specs; disks are realized
as regular polygons by the exact engine.  Output bytes depend only on the
input, so renders are reproducible.
"""

from __future__ import annotations

from typing import Optional

from .exact2d import ConvexPolygon, erode, minkowski_sum
from .serialize import ShapeSpec, realize_spec

_PANEL = 220.0
_MARGIN = 26.0
_GAP = 30.0


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


class _Panel:
    def __init__(self, poly_bounds, x_offset: float):
        lo, hi = poly_bounds
        w = float(hi.x - lo.x)
        h = float(hi.y - lo.y)
        self.scale = (_PANEL - 2 * _MARGIN) / max(w, h)
        self.lo = lo
        self.hi = hi
        self.x0 = x_offset + _MARGIN + (_PANEL - 2 * _MARGIN - w * self.scale) / 2
        self.y0 = _MARGIN + (_PANEL - 2 * _MARGIN - h * self.scale) / 2

    def map_point(self, p) -> tuple[float, float]:
        return (self.x0 + (float(p.x) - float(self.lo.x)) * self.scale,
                self.y0 + (float(self.hi.y) - float(p.y)) * self.scale)

    def path(self, poly: ConvexPolygon) -> str:
        coords = [self.map_point(p) for p in poly.vertices]
        body = " L ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords)
        return f"M {body} Z"


def render_decomposition_svg(k_spec: ShapeSpec, t_spec: ShapeSpec,
                             out_path: Optional[str] = None) -> str:
    """Render the pair and its boundary sum; returns (and optionally writes)
    the SVG text."""
    k, _ = realize_spec(k_spec)
    t, _ = realize_spec(t_spec)
    total = minkowski_sum(k, t)
    big, small = (k, t) if k.area >= t.area else (t, k)
    hole = erode(big, small)

    width = 3 * _PANEL + 2 * _GAP
    height = _PANEL + 18.0
    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '<defs><pattern id="hatch" patternUnits="userSpaceOnUse" width="7" '
        'height="7" patternTransform="rotate(45)">'
        '<line x1="0" y1="0" x2="0" y2="7" stroke="#444444" '
        'stroke-width="1.1"/></pattern></defs>',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>',
    ]

    panel_t = _Panel(t.bbox(), 0.0)
    parts.append(f'<path d="{panel_t.path(t)}" fill="url(#hatch)" '
                 'stroke="black" stroke-width="1.4"/>')
    parts.append(_label("T", 0.0))

    panel_k = _Panel(k.bbox(), _PANEL + _GAP)
    parts.append(f'<path d="{panel_k.path(k)}" fill="none" '
                 'stroke="black" stroke-width="1.4"/>')
    parts.append(_label("K", _PANEL + _GAP))

    panel_s = _Panel(total.bbox(), 2 * (_PANEL + _GAP))
    parts.append(f'<path d="{panel_s.path(total)}" fill="url(#hatch)" '
                 'stroke="black" stroke-width="1.4"/>')
    if not hole.is_empty:
        parts.append(f'<path d="{panel_s.path(hole.region)}" fill="white" '
                     'stroke="black" stroke-width="1.2" '
                     'stroke-dasharray="5,3"/>')
    parts.append(_label("boundary sum", 2 * (_PANEL + _GAP)))

    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _label(text: str, x_offset: float) -> str:
    x = x_offset + _PANEL / 2
    return (f'<text x="{_fmt(x)}" y="{_fmt(_PANEL + 12.0)}" '
            'font-family="serif" font-size="13" text-anchor="middle">'
            f"{text}</text>")
