"""SVG pictures of planar framework fragments.

Draws one segment per motif edge per cell of the requested range (bars that
leave the range are still drawn, marked with the ``dangling`` class), one
circle per placed vertex, and the outline of the base unit cell.  Output is
deterministic for a fixed input.
"""

from __future__ import annotations

import numpy as np

from .frameworks import CrystalFramework, fragment

_DEFAULTS = {
    "scale": 80.0,          # pixels per geometry unit
    "margin": 0.25,         # in geometry units
    "vertex_radius": 3.0,   # pixels
    "stroke_width": 1.5,    # pixels
    "edge_color": "#1f3b70",
    "dangling_color": "#8aa2c8",
    "vertex_color": "#c03a2b",
    "cell_color": "#b0b0b0",
}


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def render_svg(fw: CrystalFramework, cell_range, options: dict = None) -> str:
    """SVG 1.1 document showing the fragment over a box of cells (d=2 only)."""
    if fw.dimension != 2:
        raise ValueError("SVG rendering requires a 2-dimensional framework")
    opts = dict(_DEFAULTS)
    if options:
        unknown = set(options) - set(_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown SVG options: {', '.join(sorted(unknown))}")
        opts.update(options)

    frag = fragment(fw, cell_range)
    segments = [(e.from_point.position, e.to_point.position, e.internal)
                for e in sorted(frag.edges + frag.dangling, key=lambda e: (e.shift, e.edge_index))]
    circles = [p.position for p in frag.points]

    z = fw.lattice.matrix
    outline = [np.zeros(2), z[:, 0], z[:, 0] + z[:, 1], z[:, 1]]

    drawn = np.array([pt for seg in segments for pt in seg[:2]] + circles + outline)
    lo = drawn.min(axis=0) - opts["margin"]
    hi = drawn.max(axis=0) + opts["margin"]
    scale = float(opts["scale"])
    width = (hi[0] - lo[0]) * scale
    height = (hi[1] - lo[1]) * scale

    def to_px(p):
        # flip the y axis: SVG y grows downward
        return (p[0] - lo[0]) * scale, (hi[1] - p[1]) * scale

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]

    corners = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (to_px(p) for p in outline))
    parts.append(
        f'<polygon points="{corners}" fill="none" stroke="{opts["cell_color"]}" '
        f'stroke-width="{_fmt(opts["stroke_width"])}" stroke-dasharray="4,3" class="unit-cell"/>'
    )

    for p, q, internal in segments:
        (x1, y1), (x2, y2) = to_px(p), to_px(q)
        color = opts["edge_color"] if internal else opts["dangling_color"]
        cls = "edge" if internal else "edge dangling"
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{_fmt(opts["stroke_width"])}" class="{cls}"/>'
        )

    for p in circles:
        x, y = to_px(p)
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(opts["vertex_radius"])}" '
            f'fill="{opts["vertex_color"]}" class="vertex"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
