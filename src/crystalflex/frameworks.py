"""Periodic bar-joint frameworks given by a finite motif and a period lattice.

A framework is stored as a finite set of representative vertices (one per
translation class, with positions in the base cell's coordinate frame) and a
finite set of representative edges.  Every edge endpoint carries an integer
cell index, so edges whose endpoints both sit outside the base cell are
representable.  All positions are Cartesian; fractional coordinates only
appear at file-parsing time.
"""

from __future__ import annotations

import copy
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
        offset = tuple(t - f for f, t in zip(self.from_cell, self.to_cell))
        return _edge_class_key(self.from_vertex, self.to_vertex, offset)


def _edge_class_key(from_vertex: int, to_vertex: int, offset: tuple) -> tuple:
    """Class key of the edge from ``from_vertex`` to ``to_vertex`` + ``offset``.

    ``offset`` is a tuple of ints; the key is the smaller of the two
    orientations, so both spellings of a bar give the same key.
    """
    return min((from_vertex, to_vertex, offset),
               (to_vertex, from_vertex, tuple(-x for x in offset)))


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

    def with_symmetries(self, elements) -> "CrystalFramework":
        """The same framework carrying the given resolved symmetry elements.

        Validation never reads the symmetries, so this copy is not validated
        again; it only checks that every element acts on this motif's vertex
        and edge classes.
        """
        elements = tuple(elements)
        for g in elements:
            if len(g.vertex_map) != self.vertex_count or len(g.edge_map) != self.edge_count:
                raise ValueError(f"symmetry element {g.name!r} was resolved against another motif")
        out = copy.copy(self)
        object.__setattr__(out, "symmetries", elements)
        return out


def lattice_matches(points, targets, tol: float):
    """Index pairs (i, j) where ``points[i]`` equals ``targets[j]`` modulo the lattice.

    Both arguments are fractional coordinates, of shapes (n, d) and (m, d).
    A pair matches when ``max |delta - round(delta)| <= tol`` for
    ``delta = points[i] - targets[j]``; that test alone decides.  Candidates
    come from hashing the coordinates, wrapped onto the unit torus, into
    buckets at least 2 tol wide (wider for huge coordinates, whose
    differences lose precision) and pairing each point with the targets in
    its own and the neighbouring buckets, so the cost is near-linear in
    n + m for spread-out points.  Returns two int arrays sorted by i, then j.
    """
    a = np.asarray(points, dtype=float)
    b = np.asarray(targets, dtype=float)
    none = np.zeros(0, dtype=np.int64)
    if len(a) == 0 or len(b) == 0:
        return none, none
    d = a.shape[1]
    # Non-finite entries match nothing; they are hashed as 0 to keep the buckets finite.
    fa, fb = (np.where(np.isfinite(x), x, 0.0) for x in (a, b))
    scale = max(1.0, float(np.max(np.abs(fa))), float(np.max(np.abs(fb))))
    width = 2.0 * tol + 16.0 * np.finfo(float).eps * scale
    k = max(1, int(1.0 / width))     # buckets per axis, each at least width wide

    def bucket(x):
        return np.floor((x - np.floor(x)) * k).astype(np.int64) % k

    steps = sorted({s % k for s in (-1, 0, 1)})
    shifts = np.array(list(itertools.product(steps, repeat=d)), dtype=np.int64)
    queries = ((bucket(fa)[:, np.newaxis, :] + shifts) % k).reshape(-1, d)
    _, group = np.unique(np.concatenate([bucket(fb), queries]), axis=0, return_inverse=True)
    group = group.reshape(-1)
    target_group, query_group = group[:len(b)], group[len(b):]

    # Expand every query into the targets of its bucket.
    members = np.argsort(target_group, kind="stable")
    size = np.bincount(target_group, minlength=group.max() + 1)
    first = np.cumsum(size) - size
    per_query = size[query_group]
    query = np.repeat(np.arange(len(query_group)), per_query)
    rank = np.arange(len(query)) - np.repeat(np.cumsum(per_query) - per_query, per_query)
    i = query // len(shifts)
    j = members[first[query_group[query]] + rank]

    diff = a[i] - b[j]
    hit = np.max(np.abs(diff - np.round(diff)), axis=1) <= tol
    i, j = i[hit], j[hit]
    order = np.lexsort((j, i))
    return i[order], j[order]


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
    for i, j in zip(*(x.tolist() for x in lattice_matches(frac, frac, tol))):
        if i < j:
            report.append(f"vertices {i} and {j} coincide modulo the lattice")

    n, edges = fw.vertex_count, fw.edges
    placeable = [idx for idx, e in enumerate(edges)
                 if len(e.from_cell) == d and 0 <= e.from_vertex < n and 0 <= e.to_vertex < n]
    vectors = _edge_vectors(fw, [edges[idx] for idx in placeable])
    lengths = dict(zip(placeable, np.linalg.norm(vectors, axis=1).tolist()))

    seen = {}
    for idx, e in enumerate(edges):
        if len(e.from_cell) != d:
            report.append(f"edge {idx} has cell indices of dimension {len(e.from_cell)}, lattice has {d}")
            continue
        if idx not in lengths:
            for end, label in ((e.from_vertex, "from"), (e.to_vertex, "to")):
                if not (0 <= end < n):
                    report.append(f"edge {idx} {label}-vertex index {end} is out of range")
            continue
        offset = tuple(t - f for f, t in zip(e.from_cell, e.to_cell))
        if e.from_vertex == e.to_vertex and not any(offset):
            report.append(f"edge {idx} is a self-loop within one cell")
            continue
        if lengths[idx] <= tol:
            report.append(f"edge {idx} has zero length")
        key = _edge_class_key(e.from_vertex, e.to_vertex, offset)
        if key in seen:
            report.append(f"edges {seen[key]} and {idx} are translates of the same edge class")
        else:
            seen[key] = idx
    return report


def _edge_vectors(fw: CrystalFramework, edges) -> np.ndarray:
    """Bar vectors (from-endpoint minus to-endpoint), one row per edge."""
    if not edges:
        return np.zeros((0, fw.dimension))
    pos, z = fw.positions, fw.lattice.matrix
    ends = [(e.from_vertex, e.to_vertex) for e in edges]
    from_vertex, to_vertex = np.array(ends).T
    from_cell = np.array([e.from_cell for e in edges], dtype=float)
    to_cell = np.array([e.to_cell for e in edges], dtype=float)
    return (pos[from_vertex] + from_cell @ z.T) - (pos[to_vertex] + to_cell @ z.T)


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
