"""Built-in example frameworks.

square_grid   d=2, one vertex, two bars joining a vertex to its own
              translates along each axis; the textbook grid of squares.
kagome        d=2, corner-sharing equilateral triangles of side 1/2 on a
              hexagonal lattice; carries its threefold rotation.
hexahedron    d=3, vertically stacked and horizontally connected triangular
              bipyramids with unit edges; carries the threefold rotation
              about its polar axis (which permutes equatorial translates,
              so the element is not separable).
"""

from __future__ import annotations

import numpy as np

from .frameworks import CrystalFramework, MotifEdge, MotifVertex, PeriodLattice
from .symmetry import resolve_symmetry

BUILTIN_NAMES = ("square_grid", "kagome", "hexahedron")


def _rotation2(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _rotation_about(fw, linear, centre, name):
    centre = np.asarray(centre, dtype=float)
    translation = centre - linear @ centre
    return resolve_symmetry(fw, linear, translation, name)


def _square_grid() -> CrystalFramework:
    fw = CrystalFramework(
        lattice=PeriodLattice(np.eye(2)),
        vertices=[MotifVertex([0.0, 0.0], "p1")],
        edges=[
            MotifEdge(0, (0, 0), 0, (1, 0)),
            MotifEdge(0, (0, 0), 0, (0, 1)),
        ],
    )
    fourfold = _rotation_about(fw, _rotation2(np.pi / 2), [0.0, 0.0], "r4")
    return fw.with_symmetries((fourfold,))


def _kagome() -> CrystalFramework:
    s3 = np.sqrt(3.0)
    fw = CrystalFramework(
        lattice=PeriodLattice(np.array([[1.0, 0.5], [0.0, s3 / 2]])),
        vertices=[
            MotifVertex([0.0, 0.0], "p1"),
            MotifVertex([0.5, 0.0], "p2"),
            MotifVertex([0.25, s3 / 4], "p3"),
        ],
        edges=[
            MotifEdge(0, (0, 0), 1, (0, 0)),
            MotifEdge(1, (0, 0), 2, (0, 0)),
            MotifEdge(0, (0, 0), 2, (0, 0)),
            MotifEdge(0, (0, 0), 1, (-1, 0)),
            MotifEdge(1, (0, 0), 2, (1, -1)),
            MotifEdge(2, (0, 0), 0, (0, 1)),
        ],
    )
    centre = np.array([0.25, s3 / 12])
    threefold = _rotation_about(fw, _rotation2(2 * np.pi / 3), centre, "r3")
    return fw.with_symmetries((threefold,))


def _hexahedron() -> CrystalFramework:
    s3 = np.sqrt(3.0)
    h = np.sqrt(2.0 / 3.0)
    fw = CrystalFramework(
        lattice=PeriodLattice(np.array([
            [1.0, 0.5, 0.0],
            [0.0, s3 / 2, 0.0],
            [0.0, 0.0, 2 * h],
        ])),
        vertices=[
            MotifVertex([0.0, 0.0, 0.0], "equator"),
            MotifVertex([0.5, s3 / 6, -h], "pole"),
        ],
        edges=[
            # equatorial triangle: three bars between translates of one class
            MotifEdge(0, (0, 0, 0), 0, (1, 0, 0)),
            MotifEdge(0, (0, 0, 0), 0, (0, 1, 0)),
            MotifEdge(0, (1, 0, 0), 0, (0, 1, 0)),
            # south pole to the equatorial triangle
            MotifEdge(1, (0, 0, 0), 0, (0, 0, 0)),
            MotifEdge(1, (0, 0, 0), 0, (1, 0, 0)),
            MotifEdge(1, (0, 0, 0), 0, (0, 1, 0)),
            # north pole (the next unit's south pole) to the same triangle
            MotifEdge(1, (0, 0, 1), 0, (0, 0, 0)),
            MotifEdge(1, (0, 0, 1), 0, (1, 0, 0)),
            MotifEdge(1, (0, 0, 1), 0, (0, 1, 0)),
        ],
    )
    linear = np.eye(3)
    linear[:2, :2] = _rotation2(2 * np.pi / 3)
    axis = np.array([0.5, s3 / 6, 0.0])
    threefold = _rotation_about(fw, linear, axis, "r3")
    return fw.with_symmetries((threefold,))


_BUILDERS = {
    "square_grid": _square_grid,
    "kagome": _kagome,
    "hexahedron": _hexahedron,
}


def builtin_framework(name: str) -> CrystalFramework:
    """One of the named example frameworks, with its symmetries resolved."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(BUILTIN_NAMES)
        raise ValueError(f"unknown builtin framework {name!r}; known: {known}") from None
    return builder()
