"""Periodic bar-joint frameworks given by a finite motif and a period lattice.

A framework is stored as a finite set of representative vertices (one per
translation class, with positions in the base cell's coordinate frame) and a
finite set of representative edges.  Every edge endpoint carries an integer
cell index, so edges whose endpoints both sit outside the base cell are
representable.  All positions are Cartesian; fractional coordinates only
appear at file-parsing time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .linalg import DEFAULT_TOL


class InvalidFrameworkError(ValueError):
    """Raised when a CrystalFramework would fail validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid framework: " + "; ".join(self.violations))


def _as_point(x, d=None) -> np.ndarray:
    p = np.asarray(x, dtype=float).reshape(-1)
    if d is not None and p.shape != (d,):
        raise ValueError(f"expected a point of dimension {d}, got shape {p.shape}")
    p.setflags(write=False)
    return p


def _as_cell(x) -> tuple:
    cell = tuple(int(c) for c in np.asarray(x).reshape(-1))
    return cell


@dataclass(frozen=True)
class PeriodLattice:
    """Full-rank translation lattice; columns of ``matrix`` are the periods."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"period matrix must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("period lattice needs at least one dimension")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def determinant(self) -> float:
        return float(np.linalg.det(self.matrix))

    def translation(self, cell) -> np.ndarray:
        """Cartesian translation vector of an integer cell index."""
        return self.matrix @ np.asarray(cell, dtype=float)

    def fractional(self, points) -> np.ndarray:
        """Coordinates of Cartesian points in the period-vector frame."""
        pts = np.asarray(points, dtype=float)
        return np.linalg.solve(self.matrix, pts.T).T


@dataclass(frozen=True)
class MotifVertex:
    """Representative vertex of one translation class."""

    position: np.ndarray
    name: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "position", _as_point(self.position))


@dataclass(frozen=True)
class MotifEdge:
    """Representative bar between two vertex classes.

    Endpoints are (vertex index, integer cell); the pair is meaningful up to
    a simultaneous translation of both cells, and up to orientation reversal.
    """

    from_vertex: int
    from_cell: tuple
    to_vertex: int
    to_cell: tuple

    def __post_init__(self):
        object.__setattr__(self, "from_cell", _as_cell(self.from_cell))
        object.__setattr__(self, "to_cell", _as_cell(self.to_cell))
        if len(self.from_cell) != len(self.to_cell):
            raise ValueError("edge endpoints have different cell dimensions")

    @property
    def offset(self) -> np.ndarray:
        """Integer lattice vector separating the endpoint cells."""
        return np.array(self.to_cell, dtype=int) - np.array(self.from_cell, dtype=int)

    def reversed(self) -> "MotifEdge":
        return MotifEdge(self.to_vertex, self.to_cell, self.from_vertex, self.from_cell)

    def class_key(self):
        """Canonical key shared by all translates/reorientations of the edge."""
        fwd = (self.from_vertex, self.to_vertex, tuple(self.offset))
        rev = (self.to_vertex, self.from_vertex, tuple(-self.offset))
        return min(fwd, rev)


@dataclass(frozen=True)
class AffineVelocity:
    """Vertex-class velocities plus the velocity matrix of the lattice frame.

    ``vertex_velocities`` has one row per motif vertex.  ``distortion`` is
    the d x d matrix A; the velocity of the copy of vertex ``v`` in cell k is
    ``vertex_velocities[v] - A Z k`` where Z is the period matrix.
    """

    vertex_velocities: np.ndarray
    distortion: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.vertex_velocities, dtype=float)
        a = np.asarray(self.distortion, dtype=float)
        if u.ndim != 2:
            raise ValueError("vertex_velocities must be a (n_vertices, d) array")
        if a.shape != (u.shape[1], u.shape[1]):
            raise ValueError("distortion must be d x d")
        u.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "vertex_velocities", u)
        object.__setattr__(self, "distortion", a)

    @property
    def dimension(self) -> int:
        return self.vertex_velocities.shape[1]


@dataclass(frozen=True)
class CrystalFramework:
    """Finite motif + period lattice describing an infinite periodic framework.

    Construction validates the framework (see ``validate_framework``) and
    raises InvalidFrameworkError on any violation, so every instance is valid.
    """

    lattice: PeriodLattice
    vertices: tuple
    edges: tuple
    symmetries: tuple = ()
    tolerance: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "symmetries", tuple(self.symmetries))
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be positive and finite")
        violations = validate_framework(self)
        if violations:
            raise InvalidFrameworkError(violations)

    @property
    def dimension(self) -> int:
        return self.lattice.dimension

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def positions(self) -> np.ndarray:
        """(n_vertices, d) array of representative positions."""
        if not self.vertices:
            return np.zeros((0, self.dimension))
        return np.array([v.position for v in self.vertices])

    def vertex_label(self, index: int) -> str:
        name = self.vertices[index].name
        return name if name else f"v{index}"

    def with_tolerance(self, tol: float) -> "CrystalFramework":
        return replace(self, tolerance=tol)


def validate_framework(fw: CrystalFramework) -> list:
    """Check all structural invariants; returns a list of violation strings.

    An empty list means the framework is valid.  CrystalFramework calls this
    on construction and raises InvalidFrameworkError when the list is not
    empty.
    """
    report = []
    d = fw.dimension
    tol = fw.tolerance

    if abs(fw.lattice.determinant) <= tol:
        report.append("period lattice is singular (determinant below tolerance)")
        return report

    for i, v in enumerate(fw.vertices):
        if v.position.shape != (d,):
            report.append(f"vertex {i} has dimension {v.position.shape[0]}, lattice has {d}")

    if any(v.position.shape != (d,) for v in fw.vertices):
        return report

    frac = fw.lattice.fractional(fw.positions) if fw.vertices else np.zeros((0, d))
    for i, j in itertools.combinations(range(fw.vertex_count), 2):
        diff = frac[i] - frac[j]
        if np.max(np.abs(diff - np.round(diff))) <= tol:
            report.append(f"vertices {i} and {j} coincide modulo the lattice")

    seen = {}
    for idx, e in enumerate(fw.edges):
        if len(e.from_cell) != d:
            report.append(f"edge {idx} has cell indices of dimension {len(e.from_cell)}, lattice has {d}")
            continue
        bad_index = False
        for end, label in ((e.from_vertex, "from"), (e.to_vertex, "to")):
            if not (0 <= end < fw.vertex_count):
                report.append(f"edge {idx} {label}-vertex index {end} is out of range")
                bad_index = True
        if bad_index:
            continue
        if e.from_vertex == e.to_vertex and not np.any(e.offset):
            report.append(f"edge {idx} is a self-loop within one cell")
            continue
        geom = edge_geometry(fw, e)
        if geom.length <= tol:
            report.append(f"edge {idx} has zero length")
        key = e.class_key()
        if key in seen:
            report.append(f"edges {seen[key]} and {idx} are translates of the same edge class")
        else:
            seen[key] = idx
    return report


def point_of(fw: CrystalFramework, vertex: int, cell) -> np.ndarray:
    """Position of the copy of a motif vertex in the given cell."""
    if not (0 <= vertex < fw.vertex_count):
        raise IndexError(f"vertex index {vertex} out of range 0..{fw.vertex_count - 1}")
    return fw.vertices[vertex].position + fw.lattice.translation(cell)


@dataclass(frozen=True)
class EdgeGeometry:
    vector: np.ndarray
    offset: np.ndarray
    length: float


def edge_geometry(fw: CrystalFramework, edge: MotifEdge) -> EdgeGeometry:
    """Bar vector (from-endpoint minus to-endpoint), cell offset and length."""
    v = point_of(fw, edge.from_vertex, edge.from_cell) - point_of(fw, edge.to_vertex, edge.to_cell)
    return EdgeGeometry(vector=v, offset=edge.offset, length=float(np.linalg.norm(v)))


def supercell(fw: CrystalFramework, factors) -> CrystalFramework:
    """Framework with the same geometry over the coarser lattice Z diag(n).

    The new motif contains one copy of each vertex/edge class per residue
    cell; edge cell indices are recomputed by splitting old cells into a
    residue and a supercell index.  Declared symmetries are dropped (they
    may be incompatible with a non-uniform supercell); re-resolve if needed.
    """
    n = np.asarray(factors, dtype=int).reshape(-1)
    if n.shape != (fw.dimension,):
        raise ValueError(f"need {fw.dimension} multiplicities, got {n.shape[0]}")
    if np.any(n < 1):
        raise ValueError("supercell multiplicities must be positive")

    lattice = PeriodLattice(fw.lattice.matrix * n[np.newaxis, :])
    residues = list(itertools.product(*(range(k) for k in n)))
    index = {(v, r): i for i, (v, r) in enumerate(itertools.product(range(fw.vertex_count), residues))}

    vertices = []
    for v, r in itertools.product(range(fw.vertex_count), residues):
        base = fw.vertices[v]
        suffix = ",".join(str(c) for c in r)
        name = f"{base.name}[{suffix}]" if base.name else None
        vertices.append(MotifVertex(point_of(fw, v, r), name))

    def split(cell):
        c = np.asarray(cell, dtype=int)
        residue = np.mod(c, n)
        return tuple(residue), tuple((c - residue) // n)

    edges = []
    for e in fw.edges:
        for r in residues:
            fr_res, fr_cell = split(np.add(e.from_cell, r))
            to_res, to_cell = split(np.add(e.to_cell, r))
            edges.append(MotifEdge(index[(e.from_vertex, fr_res)], fr_cell,
                                   index[(e.to_vertex, to_res)], to_cell))

    return CrystalFramework(lattice, vertices, edges, symmetries=(), tolerance=fw.tolerance)


@dataclass(frozen=True)
class PlacedPoint:
    vertex: int
    cell: tuple
    position: np.ndarray


@dataclass(frozen=True)
class PlacedEdge:
    edge_index: int
    shift: tuple
    from_point: PlacedPoint
    to_point: PlacedPoint
    from_inside: bool
    to_inside: bool

    @property
    def internal(self) -> bool:
        return self.from_inside and self.to_inside


@dataclass(frozen=True)
class Fragment:
    points: tuple
    edges: tuple
    dangling: tuple


def fragment(fw: CrystalFramework, cell_range) -> Fragment:
    """Finite piece of the infinite framework over a box of cells.

    ``cell_range`` is a sequence of d (start, stop) half-open integer
    ranges.  Every cell of the box contributes one copy of each motif
    vertex and one copy of each motif edge (the edge translated by the
    cell).  Copies with both endpoints inside the box are internal; the
    rest are reported as dangling, with their true endpoints placed.
    """
    ranges = [(int(a), int(b)) for a, b in cell_range]
    if len(ranges) != fw.dimension:
        raise ValueError(f"need {fw.dimension} cell ranges, got {len(ranges)}")
    if any(b <= a for a, b in ranges):
        raise ValueError("empty cell range")

    cells = list(itertools.product(*(range(a, b) for a, b in ranges)))
    inside = set(cells)

    def placed(vertex, cell):
        return PlacedPoint(vertex, tuple(cell), point_of(fw, vertex, cell))

    points = tuple(placed(v, cell) for cell in cells for v in range(fw.vertex_count))

    internal, dangling = [], []
    for shift in cells:
        for idx, e in enumerate(fw.edges):
            fcell = tuple(np.add(e.from_cell, shift))
            tcell = tuple(np.add(e.to_cell, shift))
            edge = PlacedEdge(idx, shift, placed(e.from_vertex, fcell),
                              placed(e.to_vertex, tcell),
                              fcell in inside, tcell in inside)
            (internal if edge.internal else dangling).append(edge)
    return Fragment(points=points, edges=tuple(internal), dangling=tuple(dangling))
