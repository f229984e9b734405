"""Periodic bar-joint frameworks given by a finite motif and a period lattice.

A framework is stored as a finite set of representative vertices (one per
translation class, with positions in the base cell's coordinate frame) and a
finite set of representative edges.  Every edge endpoint carries an integer
cell index, so edges whose endpoints both sit outside the base cell are
representable.  The edges are one read-only int64 table, built once with the
framework.  All positions are Cartesian; fractional coordinates only appear
at file-parsing time.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .linalg import DEFAULT_TOL, MIN_TOL, numeric_rank

CELL_LIMIT = 2**53    # cell indices stay below this in magnitude
COPY_LIMIT = 2**20    # most vertex and edge copies a supercell or fragment may hold


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


def _as_integers(x, what: str) -> tuple:
    """Python ints from Python or numpy integers; floats, bools and strings
    are refused rather than truncated."""
    values = np.asarray(x, dtype=object).reshape(-1).tolist()
    if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in values):
        raise ValueError(f"{what} must be integers, got {tuple(values)!r}")
    return tuple(map(int, values))


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
        with np.errstate(over="ignore", invalid="ignore"):   # inf or nan, checked by validation
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
        object.__setattr__(self, "from_cell", _as_integers(self.from_cell, "edge cell indices"))
        object.__setattr__(self, "to_cell", _as_integers(self.to_cell, "edge cell indices"))
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
        key = _edge_class_keys(np.array([(self.from_vertex, self.to_vertex)], dtype=np.int64),
                               self.offset[np.newaxis, :].astype(np.int64))[0].tolist()
        return key[0], key[1], tuple(key[2:])


def _edge_class_keys(ends, offsets) -> np.ndarray:
    """Canonical rows (from, to, offset...) of edges given by int arrays.

    ``ends`` is (m, 2) and ``offsets`` (m, d); each row is the
    lexicographically smaller of the edge's two orientations, so every
    translate and reorientation of a bar gives the same row.
    """
    forward = np.column_stack([ends, offsets])
    backward = np.column_stack([ends[:, ::-1], -offsets])
    diff = forward - backward
    first = np.argmax(diff != 0, axis=1)       # first differing column; 0 when equal
    keep = diff[np.arange(len(diff)), first] <= 0
    return np.where(keep[:, np.newaxis], forward, backward)


class _EdgeTable(Sequence):
    """The motif's bars as one read-only int64 table; its items are MotifEdges.

    Each row is (from-vertex, *from-cell, to-vertex, *to-cell); ``ends``
    (m, 2) and ``cells`` (m, 2, d) are views of it.  Only the parser and
    ``supercell`` build a table from rows, and both keep every vertex and
    cell in range; any other edge sequence goes through ``of``, whose
    ``problems`` lists each edge no row can hold as (edge index, rank
    within the edge, violation).
    """

    def __init__(self, rows, d: int, problems=()):
        table = np.array(rows, dtype=np.int64).reshape(-1, 2, 1 + d)
        table.setflags(write=False)
        self.ends, self.cells, self.problems = table[..., 0], table[..., 1:], problems

    @classmethod
    def of(cls, edges, d: int, n: int) -> "_EdgeTable":
        """``edges`` if it is a table fitting d and n vertices, else its table built edge by edge."""
        if (isinstance(edges, cls) and edges.cells.shape[2] == d
                and np.all((0 <= edges.ends) & (edges.ends < n))):
            return edges
        rows, problems = [], []
        for idx, e in enumerate(edges):
            start = len(problems)
            if len(e.from_cell) != d:
                problems.append((idx, 0, f"edge {idx} has cell indices of dimension {len(e.from_cell)}, "
                                         f"lattice has {d}"))
            else:
                for rank, (end, label) in enumerate(((e.from_vertex, "from"), (e.to_vertex, "to"))):
                    if not (0 <= end < n):
                        problems.append((idx, rank, f"edge {idx} {label}-vertex index {end} is out of range"))
                # Below 2**53 cells are exact as floats and int64 arithmetic cannot overflow.
                cells = e.from_cell + e.to_cell
                if not (-CELL_LIMIT < min(cells) and max(cells) < CELL_LIMIT):
                    problems.append((idx, 2, f"edge {idx}: cell index out of range"))
            rows.append((e.from_vertex, *e.from_cell, e.to_vertex, *e.to_cell) if len(problems) == start
                        else (0,) * (2 + 2 * d))
        return cls(rows, d, tuple(problems))

    @property
    def offsets(self) -> np.ndarray:
        """(m, d) to-cell minus from-cell, as in ``MotifEdge.offset``."""
        return self.cells[:, 1] - self.cells[:, 0]

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        (f, t), (fc, tc) = self.ends[i].tolist(), self.cells[i].tolist()
        return MotifEdge(f, fc, t, tc)

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, (tuple, _EdgeTable)) else NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


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

    Any sequence of MotifEdges is turned once into the int64 edge table,
    which reads back as equal MotifEdges.  Construction validates the
    framework (see ``validate_framework``) and raises InvalidFrameworkError
    on any violation, so every instance is valid.
    """

    lattice: PeriodLattice
    vertices: tuple
    edges: tuple
    symmetries: tuple = ()
    tolerance: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", _EdgeTable.of(self.edges, self.dimension, len(self.vertices)))
        object.__setattr__(self, "symmetries", tuple(self.symmetries))
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.tolerance < MIN_TOL:
            raise ValueError(f"tolerance must be at least {MIN_TOL:.2g}")
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

    @cached_property
    def positions(self) -> np.ndarray:
        """Read-only (n_vertices, d) array of representative positions."""
        positions = np.array([v.position for v in self.vertices]).reshape(-1, self.dimension)
        positions.setflags(write=False)
        return positions

    @cached_property
    def _strict_svd(self):
        """The SVD of the strict operator R0, ``rigidity.factor_strict``'s
        BlockSVD, computed on first read and held for the framework's life."""
        from . import rigidity     # rigidity imports this module
        return rigidity.factor_strict(self)

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


def _group_rows(rows):
    """``np.unique(rows, axis=0, return_index=True, return_inverse=True)[1:]``
    for a 2-D integer array, by one ``np.lexsort``: the first index of each
    distinct row, the rows in lexicographic order, and each row's group.
    """
    rows = np.asarray(rows)
    order = np.lexsort(rows.T[::-1])      # stable; column 0 is the primary key
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


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
    _, group = _group_rows(np.concatenate([bucket(fb), queries]))
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

    det = abs(fw.lattice.determinant)
    if not tol < det < np.inf:     # a nan determinant is not finite either
        report.append("period lattice is singular (determinant below tolerance)" if det <= tol
                      else "period lattice determinant is not finite")
        return report
    if numeric_rank(fw.lattice.matrix, MIN_TOL) < d:
        # A finite determinant can still hide a condition number near
        # 1 / eps (det [[1, 0], [1e8, 1]] is 1); no operator rank is
        # meaningful on such a lattice.
        report.append("period lattice is numerically singular")
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

    found = list(fw.edges.problems)     # (edge index, rank within the edge, violation)
    index = np.setdiff1d(np.arange(fw.edge_count), np.array([idx for idx, *_ in found], dtype=np.int64))
    ends, cells, offsets = fw.edges.ends[index], fw.edges.cells[index], fw.edges.offsets[index]
    loop = (ends[:, 0] == ends[:, 1]) & ~offsets.any(axis=1)
    found += [(idx, 0, f"edge {idx} is a self-loop within one cell") for idx in index[loop].tolist()]
    short = ~loop & (np.linalg.norm(_bar_vectors(fw, ends, cells), axis=1) <= tol)
    found += [(idx, 0, f"edge {idx} has zero length") for idx in index[short].tolist()]

    bars = index[~loop]
    first, group = _group_rows(_edge_class_keys(ends[~loop], offsets[~loop]))
    owner = bars[first[group]]
    repeat = owner != bars
    found += [(idx, 1, f"edges {prior} and {idx} are translates of the same edge class")
              for prior, idx in zip(owner[repeat].tolist(), bars[repeat].tolist())]
    return report + [violation for *_, violation in sorted(found)]


def _bar_vectors(fw: CrystalFramework, ends, cells) -> np.ndarray:
    """Bar vectors (m, d), from-endpoint minus to-endpoint as every bar row of the
    operator uses them, of the bars with int64 ends (m, 2) and cells (m, 2, d)."""
    pos, z = fw.positions, fw.lattice.matrix
    return (pos[ends[:, 0]] + cells[:, 0] @ z.T) - (pos[ends[:, 1]] + cells[:, 1] @ z.T)


def _check_vertex(fw: CrystalFramework, vertex: int) -> None:
    if not (0 <= vertex < fw.vertex_count):
        raise IndexError(f"vertex index {vertex} out of range 0..{fw.vertex_count - 1}")


def point_of(fw: CrystalFramework, vertex: int, cell) -> np.ndarray:
    """Position of the copy of a motif vertex in the given cell."""
    _check_vertex(fw, vertex)
    return fw.vertices[vertex].position + fw.lattice.translation(cell)


@dataclass(frozen=True)
class EdgeGeometry:
    vector: np.ndarray
    offset: np.ndarray
    length: float


def edge_geometry(fw: CrystalFramework, edge: MotifEdge) -> EdgeGeometry:
    """Bar vector (from-endpoint minus to-endpoint), cell offset and length."""
    for vertex in (edge.from_vertex, edge.to_vertex):
        _check_vertex(fw, vertex)     # array indexing would wrap a negative index
    vector = _bar_vectors(fw, np.array([(edge.from_vertex, edge.to_vertex)]),
                          np.array([(edge.from_cell, edge.to_cell)], dtype=np.int64))[0]
    return EdgeGeometry(vector=vector, offset=edge.offset, length=float(np.linalg.norm(vector)))


def _check_copies(fw: CrystalFramework, cells: int, what: str):
    """Refuse ``cells`` copies of the motif before any of them is listed."""
    copies = cells * (fw.vertex_count + fw.edge_count)
    if copies > COPY_LIMIT:
        raise ValueError(
            f"{what} has {cells} cells, {copies} vertex and edge copies in all; "
            f"at most {COPY_LIMIT} are allowed")


def supercell(fw: CrystalFramework, factors) -> CrystalFramework:
    """Framework with the same geometry over the coarser lattice Z diag(n).

    The new motif contains one copy of each vertex/edge class per residue
    cell; edge cell indices are recomputed by splitting old cells into a
    residue and a supercell index.  Declared symmetries are dropped (they
    may be incompatible with a non-uniform supercell); re-resolve if needed.
    """
    try:
        n = np.asarray(_as_integers(factors, "supercell multiplicities"), dtype=int)
    except OverflowError:
        raise ValueError("supercell multiplicities must fit in a machine integer") from None
    if n.shape != (fw.dimension,):
        raise ValueError(f"need {fw.dimension} multiplicities, got {n.shape[0]}")
    if np.any(n < 1):
        raise ValueError("supercell multiplicities must be positive")
    _check_copies(fw, math.prod(int(k) for k in n), "the supercell")

    lattice = PeriodLattice(fw.lattice.matrix * n[np.newaxis, :])
    residues = list(itertools.product(*(range(k) for k in n)))
    shifts = [fw.lattice.translation(r) for r in residues]
    vertices = [MotifVertex(v.position + shift, f"{v.name}[{','.join(map(str, r))}]" if v.name else None)
                for v in fw.vertices for r, shift in zip(residues, shifts)]

    # Copy r of edge e is row e R + r; each endpoint cell splits into a
    # residue, which picks the vertex copy, and a supercell index.
    cells = fw.edges.cells[:, np.newaxis] + np.array(residues, dtype=np.int64)[:, np.newaxis]
    residue = np.mod(cells, n)
    ends = fw.edges.ends[:, np.newaxis] * len(residues) + np.ravel_multi_index(np.moveaxis(residue, -1, 0), n)
    rows = np.concatenate([ends[..., np.newaxis], (cells - residue) // n], axis=-1)
    return CrystalFramework(lattice, vertices, _EdgeTable(rows, fw.dimension), symmetries=(),
                            tolerance=fw.tolerance)


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
    ranges = [_as_integers((a, b), "cell range bounds") for a, b in cell_range]
    if len(ranges) != fw.dimension:
        raise ValueError(f"need {fw.dimension} cell ranges, got {len(ranges)}")
    if any(b <= a for a, b in ranges):
        raise ValueError("empty cell range")
    _check_copies(fw, math.prod(b - a for a, b in ranges), "the box")

    cells = list(itertools.product(*(range(a, b) for a, b in ranges)))
    inside = set(cells)

    def placed(vertex, cell):
        return PlacedPoint(vertex, tuple(cell), point_of(fw, vertex, cell))

    points = tuple(placed(v, cell) for cell in cells for v in range(fw.vertex_count))

    internal, dangling, edges = [], [], tuple(fw.edges)
    for shift in cells:
        for idx, e in enumerate(edges):
            fcell = tuple(np.add(e.from_cell, shift))
            tcell = tuple(np.add(e.to_cell, shift))
            edge = PlacedEdge(idx, shift, placed(e.from_vertex, fcell),
                              placed(e.to_vertex, tcell),
                              fcell in inside, tcell in inside)
            (internal if edge.internal else dangling).append(edge)
    return Fragment(points=points, edges=tuple(internal), dangling=tuple(dangling))
