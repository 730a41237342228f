"""Deterministic SVG emission for wall structures and mapped trees.

Every drawing uses exact input data projected to floats only at the final
formatting step, with a fixed 6-decimal precision and a fixed element order,
so identical inputs produce byte-identical files. ``render_walls`` writes its
walls from parts formatted once per drawing; the other elements go through
``_Canvas``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import content
from .model import ToricModel
from .tropical import MappedTree, spine_decomposition
from .walls import WallStructure

PALETTES = {
    "default": {
        "background": "#ffffff",
        "boundary": "#1b1b1b",
        "wall": "#8a8a8a",
        "initial": "#2e2e2e",
        "spine": "#2a6fdb",
        "twig": "#d03a3a",
        "label": "#111111",
    },
    "mono": {
        "background": "#ffffff",
        "boundary": "#000000",
        "wall": "#777777",
        "initial": "#000000",
        "spine": "#333333",
        "twig": "#999999",
        "label": "#000000",
    },
}


@dataclass(frozen=True)
class RenderOptions:
    width: int = 480
    height: int = 480
    scale: float = 60.0
    palette: str = "default"

    def colors(self) -> dict[str, str]:
        return PALETTES.get(self.palette, PALETTES["default"])


def _fmt(x) -> str:
    v = float(x)
    if v == 0.0:
        v = 0.0
    return f"{v:.6f}"


def _clip_radius(opts: RenderOptions) -> float:
    """Drawing radius in world units."""
    return 0.45 * min(opts.width, opts.height) / opts.scale


class _Canvas:
    def __init__(self, opts: RenderOptions):
        self.opts = opts
        self.parts: list[str] = []

    def to_screen(self, x, y) -> tuple[float, float]:
        o = self.opts
        return (o.width / 2 + o.scale * float(x), o.height / 2 - o.scale * float(y))

    def line(self, a, b, color: str, width: float) -> None:
        (x1, y1), (x2, y2) = self.to_screen(*a), self.to_screen(*b)
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}" stroke-linecap="round" />'
        )

    def polygon(self, pts, color: str, width: float) -> None:
        coords = " ".join(
            f"{_fmt(sx)},{_fmt(sy)}" for sx, sy in (self.to_screen(*p) for p in pts)
        )
        self.parts.append(
            f'<polygon points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}" />'
        )

    def dot(self, p, color: str, r: float) -> None:
        sx, sy = self.to_screen(*p)
        self.parts.append(
            f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="{_fmt(r)}" fill="{color}" />'
        )

    def text(self, p, s: str, color: str) -> None:
        sx, sy = self.to_screen(*p)
        self.parts.append(
            f'<text x="{_fmt(sx)}" y="{_fmt(sy)}" font-size="10" '
            f'font-family="monospace" fill="{color}" text-anchor="middle">{s}</text>'
        )

    def render(self) -> str:
        o = self.opts
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{o.width}" '
            f'height="{o.height}" viewBox="0 0 {o.width} {o.height}">'
        )
        bg = (
            f'<rect x="0" y="0" width="{o.width}" height="{o.height}" '
            f'fill="{o.colors()["background"]}" />'
        )
        return "\n".join([head, bg, *self.parts, "</svg>"]) + "\n"


def _unit(v, radius: float) -> tuple[float, float]:
    n = math.hypot(float(v[0]), float(v[1]))
    return (radius * float(v[0]) / n, radius * float(v[1]) / n)


def _boundary(canvas: _Canvas, model: ToricModel, radius: float) -> None:
    rays = model.fan.rays
    corners = []
    for i in range(len(rays)):
        u, v = rays[i], rays[(i + 1) % len(rays)]
        corners.append(_unit((u[0] + v[0], u[1] + v[1]), radius))
    canvas.polygon(corners, canvas.opts.colors()["boundary"], 1.5)


def render_walls(walls: WallStructure, opts: RenderOptions | None = None) -> str:
    """Wall-structure diagram: boundary polygon, one segment per wall from the
    origin, initial walls thick, step labels near the outer end.

    The origin's screen point and the stroke and label attributes are
    formatted once per drawing; each wall costs one hypot and its four
    coordinates, computed as ``_Canvas.line`` and ``_Canvas.text`` would."""
    opts = opts or RenderOptions()
    canvas = _Canvas(opts)
    radius = _clip_radius(opts)
    _boundary(canvas, walls.model, radius)
    colors = opts.colors()
    cx, cy, scale, far = opts.width / 2, opts.height / 2, opts.scale, radius * 1.08
    origin = f'<line x1="{_fmt(cx)}" y1="{_fmt(cy)}"'
    initial, later = (
        f'stroke="{colors[kind]}" stroke-width="{_fmt(width)}" stroke-linecap="round" />'
        for kind, width in (("initial", 2.5), ("wall", 1.0))
    )
    label = f'font-size="10" font-family="monospace" fill="{colors["label"]}" text-anchor="middle"'
    # Each coordinate is a positive half-dimension plus or minus a product, so
    # never -0.0: plain .6f formatting writes what _fmt writes.
    for (x, y), step in walls.directions:
        x, y = float(x), float(y)
        n = math.hypot(x, y)
        canvas.parts += (
            f'{origin} x2="{cx + scale * (radius * x / n):.6f}" '
            f'y2="{cy - scale * (radius * y / n):.6f}" {later if step else initial}',
            f'<text x="{cx + scale * (far * x / n):.6f}" y="{cy - scale * (far * y / n):.6f}" '
            f"{label}>{step}</text>",
        )
    canvas.dot((0, 0), colors["boundary"], 2.0)
    return canvas.render()


def _leg_tip(tail, weight, radius: float) -> tuple[float, float]:
    """Point where the infinite leg from ``tail`` leaves the clip circle."""
    tx, ty = float(tail[0]), float(tail[1])
    wx, wy = _unit(weight, 1.0)
    # Solve |tail + s w| = radius for the positive root.
    b = tx * wx + ty * wy
    c = tx * tx + ty * ty - radius * radius
    s = -b + math.sqrt(max(b * b - c, 0.0))
    return (tx + s * wx, ty + s * wy)


def render_tree(
    model: ToricModel, tree: MappedTree, opts: RenderOptions | None = None
) -> str:
    """Mapped-tree diagram: spine edges in the spine color, twig edges in the
    twig color, infinite legs clipped to the boundary with weight labels."""
    opts = opts or RenderOptions()
    canvas = _Canvas(opts)
    radius = _clip_radius(opts)
    _boundary(canvas, model, radius)
    colors = opts.colors()
    spine, _twigs = spine_decomposition(tree)
    pos = tree.pos
    mark_of = {v: lab for lab, v in tree.marks}
    for e in tree.edges:
        if pos[e.head] is None:
            # Marked legs belong to the hull, unmarked ones to twigs.
            color = colors["spine"] if e.head in mark_of else colors["twig"]
        else:
            color = colors["spine"] if (e.tail in spine and e.head in spine) else colors["twig"]
        a = pos[e.tail]
        b = pos[e.head]
        if b is not None:
            canvas.line(a, b, color, 2.0)
            continue
        if e.weight == (0, 0):
            canvas.dot(a, color, 3.0)
            if e.head in mark_of:
                canvas.text((float(a[0]), float(a[1]) + 0.12 * radius), mark_of[e.head], colors["label"])
            continue
        tip = _leg_tip(a, e.weight, radius)
        canvas.line(a, tip, color, 2.0)
        c = content(e.weight)
        if c > 1:
            mid = ((float(a[0]) + tip[0]) / 2, (float(a[1]) + tip[1]) / 2)
            canvas.text(mid, str(c), colors["label"])
        if e.head in mark_of:
            out = _unit(tip, math.hypot(*tip) * 1.07 if tip != (0.0, 0.0) else radius)
            canvas.text(out, mark_of[e.head], colors["label"])
    for v in sorted(spine):
        p = pos[v]
        if p is not None:
            canvas.dot(p, colors["spine"], 2.0)
    return canvas.render()
