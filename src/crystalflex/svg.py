"""SVG pictures of planar framework fragments.

Draws one segment per motif edge per cell of the requested range (bars that
leave the range are still drawn, marked with the ``dangling`` class), one
circle per placed vertex, and the outline of the base unit cell.  Output is
deterministic for a fixed input.
"""

from __future__ import annotations

import numpy as np

from .frameworks import CrystalFramework, fragment

SCALE = 80.0            # pixels per geometry unit
MARGIN = 0.25           # in geometry units
VERTEX_RADIUS = 3.0     # pixels
STROKE_WIDTH = 1.5      # pixels
EDGE_COLOR = "#1f3b70"
DANGLING_COLOR = "#8aa2c8"
VERTEX_COLOR = "#c03a2b"
CELL_COLOR = "#b0b0b0"


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def render_svg(fw: CrystalFramework, cell_range) -> str:
    """SVG 1.1 document showing the fragment over a box of cells (d=2 only)."""
    if fw.dimension != 2:
        raise ValueError("SVG rendering requires a 2-dimensional framework")

    frag = fragment(fw, cell_range)
    segments = [(e.from_point.position, e.to_point.position, e.internal)
                for e in sorted(frag.edges + frag.dangling, key=lambda e: (e.shift, e.edge_index))]
    circles = [p.position for p in frag.points]

    z = fw.lattice.matrix
    outline = [np.zeros(2), z[:, 0], z[:, 0] + z[:, 1], z[:, 1]]

    drawn = np.array([pt for seg in segments for pt in seg[:2]] + circles + outline)
    lo = drawn.min(axis=0) - MARGIN
    hi = drawn.max(axis=0) + MARGIN
    width = (hi[0] - lo[0]) * SCALE
    height = (hi[1] - lo[1]) * SCALE

    def to_px(p):
        # flip the y axis: SVG y grows downward
        return (p[0] - lo[0]) * SCALE, (hi[1] - p[1]) * SCALE

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]

    corners = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (to_px(p) for p in outline))
    parts.append(
        f'<polygon points="{corners}" fill="none" stroke="{CELL_COLOR}" '
        f'stroke-width="{_fmt(STROKE_WIDTH)}" stroke-dasharray="4,3" class="unit-cell"/>'
    )

    for p, q, internal in segments:
        (x1, y1), (x2, y2) = to_px(p), to_px(q)
        color = EDGE_COLOR if internal else DANGLING_COLOR
        cls = "edge" if internal else "edge dangling"
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{_fmt(STROKE_WIDTH)}" class="{cls}"/>'
        )

    for p in circles:
        x, y = to_px(p)
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(VERTEX_RADIUS)}" '
            f'fill="{VERTEX_COLOR}" class="vertex"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
