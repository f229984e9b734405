"""Periodic bar-joint frameworks given by a finite motif and a period lattice.

A framework is stored as a finite set of representative vertices (one per
translation class, with positions in the base cell's coordinate frame) and a
finite set of representative edges.  Every edge endpoint carries an integer
cell index, so edges whose endpoints both sit outside the base cell are
representable.  The vertices are one read-only float64 table of positions
with their names, and the edges one read-only int64 table, each built once
with the framework; the bar vectors are computed once from both.  All
positions are Cartesian; fractional coordinates only appear at file-parsing
time and in the motif index (``_MotifIndex``), which validation builds and
every later vertex or edge match reads.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .linalg import DEFAULT_TOL, MIN_TOL, _admit, numeric_rank

CELL_LIMIT = 2**53    # cell indices stay below this in magnitude
COPY_LIMIT = 2**20    # most vertex and edge copies a supercell or fragment may hold
# The match radius in tolerances: a vertex image matches a class, and a linear
# part is orthogonal and integral on the lattice, to within MATCH_RADIUS * tol.
MATCH_RADIUS = 10


class InvalidFrameworkError(ValueError):
    """Raised when a CrystalFramework would fail validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid framework: " + "; ".join(self.violations))


class SymmetryError(ValueError):
    """Raised when an isometry cannot be resolved against a framework, or a
    held element does not act on the framework carrying it."""


def _as_point(x) -> np.ndarray:
    p = np.asarray(x, dtype=float).reshape(-1)
    p.setflags(write=False)
    return p


def _as_integers(x, what: str) -> tuple:
    """Python ints from Python or numpy integers; floats, bools and strings
    are refused rather than truncated."""
    values = np.asarray(x, dtype=object).reshape(-1).tolist()
    if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in values):
        raise ValueError(f"{what} must be integers, got {tuple(values)!r}")
    return tuple(map(int, values))


def _same(a, b) -> bool:
    """``a == b``, with arrays, and tuples of them, compared by ``np.array_equal``."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


class _ArrayFields:
    """Base of the dataclasses with array fields: ``==`` compares every
    compared field by ``_same``, so it never asks numpy for an array's truth
    value, and the values are unhashable, as their arrays are."""

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)


@dataclass(frozen=True, eq=False)
class PeriodLattice(_ArrayFields):
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
        indices = _as_integers(cell, "cell indices")
        if len(indices) != self.dimension:
            raise ValueError(f"cell {cell!r} has {len(indices)} indices, "
                             f"lattice has dimension {self.dimension}")
        return self.matrix @ np.asarray(indices, dtype=float)

    def fractional(self, points) -> np.ndarray:
        """Coordinates of Cartesian points (one, or one per row) in the period-vector frame."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != self.dimension:
            raise ValueError(f"points have shape {pts.shape}, lattice has dimension {self.dimension}")
        return np.linalg.solve(self.matrix, pts.T).T


@dataclass(frozen=True, eq=False)
class MotifVertex(_ArrayFields):
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
    # The reversed row is smaller when the to-vertex is, or, between copies of
    # one vertex, when the first nonzero offset is positive.
    lead = np.zeros(len(offsets), dtype=offsets.dtype)
    for column in offsets.T[::-1]:
        lead = np.where(column != 0, column, lead)
    flip = (ends[:, 0] > ends[:, 1]) | ((ends[:, 0] == ends[:, 1]) & (lead > 0))
    return np.where(flip[:, np.newaxis], np.column_stack([ends[:, ::-1], -offsets]),
                    np.column_stack([ends, offsets]))


class _VertexTable(Sequence):
    """The motif's vertices as one read-only (n, d) float64 table of
    positions and a tuple of names; its items are MotifVertexes.

    Only the parser and ``supercell`` build a table from positions, and
    both give every position d coordinates; any other vertex sequence goes
    through ``of``, whose ``problems`` lists each vertex of another
    dimension.  Concatenation with a tuple gives the tuple of items.
    """

    def __init__(self, positions, names, problems=()):
        table = np.array(positions, dtype=float)
        table.setflags(write=False)
        self.positions, self.names, self.problems = table, tuple(names), problems

    @classmethod
    def of(cls, vertices, d: int) -> "_VertexTable":
        """``vertices`` if it is a table of dimension d, else its table built vertex by vertex."""
        if isinstance(vertices, cls) and vertices.positions.shape[1] == d:
            return vertices
        vertices = tuple(vertices)
        problems = tuple(f"vertex {i} has dimension {v.position.shape[0]}, lattice has {d}"
                         for i, v in enumerate(vertices) if v.position.shape != (d,))
        positions = (np.zeros((len(vertices), d)) if problems
                     else np.array([v.position for v in vertices]).reshape(-1, d))
        return cls(positions, [v.name for v in vertices], problems)

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        return MotifVertex(self.positions[i], self.names[i])

    def __eq__(self, other):
        if isinstance(other, _VertexTable):
            return np.array_equal(self.positions, other.positions) and self.names == other.names
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __add__(self, other):
        return tuple(self) + tuple(other)

    def __radd__(self, other):
        return tuple(other) + tuple(self)

    def __repr__(self) -> str:
        return repr(tuple(self))


class _EdgeTable(Sequence):
    """The motif's bars as one read-only int64 table; its items are MotifEdges.

    Each row is (from-vertex, *from-cell, to-vertex, *to-cell); ``ends``
    (m, 2) and ``cells`` (m, 2, d) are views of it, and ``offsets`` (m, d)
    holds each to-cell minus from-cell.  Only the parser and
    ``supercell`` build a table from rows, and both keep every vertex and
    cell in range; any other edge sequence goes through ``of``, whose
    ``problems`` lists each edge no row can hold as (edge index, rank
    within the edge, violation).
    """

    def __init__(self, rows, d: int, problems=()):
        table = np.array(rows, dtype=np.int64).reshape(-1, 2, 1 + d)
        table.setflags(write=False)
        self.ends, self.cells, self.problems = table[..., 0], table[..., 1:], problems
        self.offsets = self.cells[:, 1] - self.cells[:, 0]     # as in ``MotifEdge.offset``
        self.offsets.setflags(write=False)

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

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        (f, t), (fc, tc) = self.ends[i].tolist(), self.cells[i].tolist()
        return MotifEdge(f, fc, t, tc)

    def __eq__(self, other):
        if isinstance(other, _EdgeTable):
            return np.array_equal(self.ends, other.ends) and np.array_equal(self.cells, other.cells)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True, eq=False)
class AffineVelocity(_ArrayFields):
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


@dataclass(frozen=True, eq=False)
class CrystalFramework(_ArrayFields):
    """Finite motif + period lattice describing an infinite periodic framework.

    Any sequence of MotifVertexes is turned once into the float64 vertex
    table, and any sequence of MotifEdges into the int64 edge table; they
    read back as equal MotifVertexes and MotifEdges.  Construction validates the
    framework (see ``validate_framework``) and raises InvalidFrameworkError
    on any violation, so every instance is valid; it then checks the held
    symmetry elements at its tolerance (``_check_symmetries``), so a
    ``with_tolerance`` or ``replace`` copy keeps only elements that hold.
    """

    lattice: PeriodLattice
    vertices: tuple
    edges: tuple
    symmetries: tuple = ()
    tolerance: float = DEFAULT_TOL
    # What the later layers build for this framework, each under its own key
    # and held for the framework's life (see ``rigidity._held``).  A
    # ``with_symmetries`` copy shares it; a constructed framework, so also a
    # ``with_tolerance`` or ``replace`` copy, starts with it empty.
    _setups: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", _VertexTable.of(self.vertices, self.dimension))
        object.__setattr__(self, "edges", _EdgeTable.of(self.edges, self.dimension, len(self.vertices)))
        object.__setattr__(self, "symmetries", tuple(self.symmetries))
        _admit(self.tolerance)
        violations = validate_framework(self)
        if violations:
            raise InvalidFrameworkError(violations)
        _check_symmetries(self, self.symmetries)

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
        """Read-only (n_vertices, d) array of representative positions: the vertex table."""
        return self.vertices.positions

    @cached_property
    def _edge_vectors(self) -> np.ndarray:
        """Read-only (n_edges, d) bar vectors, from-endpoint minus to-endpoint,
        computed on first read (by validation) and held for the framework's life."""
        vectors = _bar_vectors(self, self.edges.ends, self.edges.cells)
        vectors.setflags(write=False)
        return vectors

    @cached_property
    def _motif_index(self) -> "_MotifIndex":
        """The motif's ``_MotifIndex``, built on first read (by validation)
        and held for the framework's life; a ``with_symmetries`` copy shares it."""
        return _MotifIndex(self)

    def vertex_label(self, index: int) -> str:
        name = self.vertices.names[index]
        return name if name else f"v{index}"

    def with_tolerance(self, tol: float) -> "CrystalFramework":
        return replace(self, tolerance=tol)

    def with_symmetries(self, elements) -> "CrystalFramework":
        """The same framework carrying the given resolved symmetry elements.

        Validation never reads the symmetries, so this copy is not validated
        again.  Files, builtins and the CLI pass elements ``resolve_symmetry``
        matched against this framework's motif index, taken as they are; any
        other is checked as on construction (``_check_symmetries``).  The copy
        shares the framework's set-up store.
        """
        elements = tuple(elements)
        _check_symmetries(self, [g for g in elements if g._matched_index is not self._motif_index])
        out = copy.copy(self)
        object.__setattr__(out, "symmetries", elements)
        return out


def _check_maps(fw: CrystalFramework, element) -> None:
    """Refuse a resolved element whose maps are of another motif's size."""
    if (element.linear.shape != (fw.dimension, fw.dimension)
            or len(element.vertex_map) != fw.vertex_count or len(element.edge_map) != fw.edge_count):
        raise SymmetryError(f"symmetry element {element.name!r} was resolved against another motif")


def _edge_images(fw: CrystalFramework, vertex_map, vertex_offsets, lattice_action) -> np.ndarray:
    """The edge class each bar maps onto under the vertex action (vertex v to
    vertex_map[v] in cell vertex_offsets[v]) and the lattice action, or -1."""
    ends, offsets = fw.edges.ends, fw.edges.offsets
    image_offsets = vertex_offsets[ends[:, 1]] - vertex_offsets[ends[:, 0]] + offsets @ lattice_action.T
    return fw._motif_index.edge_classes(vertex_map[ends], image_offsets)


def _lattice_action(fw: CrystalFramework, linear, failed: str) -> np.ndarray:
    """Z^-1 B Z, the action of the linear part B on the period lattice, as an
    integer matrix.  Raises SymmetryError, its text after ``failed``, unless
    B is orthogonal and Z^-1 B Z integral, each to the match radius."""
    d, radius, z = fw.dimension, MATCH_RADIUS * fw.tolerance, fw.lattice.matrix
    if np.max(np.abs(linear.T @ linear - np.eye(d))) > radius:
        raise SymmetryError(f"{failed}: linear part is not orthogonal")
    action = np.linalg.solve(z, linear @ z)
    if np.max(np.abs(action - np.round(action))) > radius:
        raise SymmetryError(f"{failed}: lattice-incompatible linear part")
    return np.round(action).astype(np.int64)


class _Maps(NamedTuple):
    """An isometry's action on a motif, under ``SymmetryElement``'s field names."""

    vertex_map: np.ndarray
    vertex_offsets: np.ndarray
    edge_map: np.ndarray
    lattice_action: np.ndarray


def _match_isometry(fw: CrystalFramework, linear: np.ndarray, translation: np.ndarray,
                    name: str) -> _Maps:
    """The maps of the isometry x -> B x + c (B and c finite) on the motif
    classes: its vertex images matched to the match radius in the held motif
    index, its edge images exactly.  Raises SymmetryError, naming element
    ``name``, if B is not orthogonal or not compatible with the lattice, or
    if the images do not land one to one on the vertex or edge classes."""
    lattice_action = _lattice_action(fw, linear, f"element {name!r}")
    index = fw._motif_index
    images = fw.lattice.fractional(fw.positions @ linear.T + translation)
    image, target = index.vertices.matches(images, MATCH_RADIUS * fw.tolerance)
    # The pairs come sorted: each image's first is its lowest matching class.
    first = np.ones(len(image), dtype=bool)
    first[1:] = image[1:] != image[:-1]
    image, vertex_map = image[first], target[first]
    if len(image) != fw.vertex_count:
        unmatched = int(np.setdiff1d(np.arange(fw.vertex_count), image)[0])
        raise SymmetryError(
            f"element {name!r} is not a symmetry: image of vertex "
            f"{fw.vertex_label(unmatched)} matches no vertex class")
    shifts = np.round(images - index.frac[vertex_map])
    beyond = np.flatnonzero(np.any(np.abs(shifts) >= CELL_LIMIT, axis=1))
    if len(beyond):
        raise SymmetryError(f"element {name!r}: image of vertex "
                            f"{fw.vertex_label(beyond[0])} lies 2**53 or more cells away")
    shifts = shifts.astype(np.int64)
    if np.count_nonzero(np.bincount(vertex_map, minlength=fw.vertex_count)) != fw.vertex_count:
        raise SymmetryError(f"element {name!r}: vertex action is not a bijection")

    edge_map = _edge_images(fw, vertex_map, shifts, lattice_action)
    if (edge_map < 0).any():
        raise SymmetryError(f"element {name!r} is not a symmetry: image of edge "
                            f"{np.argmax(edge_map < 0)} matches no edge class")
    if np.count_nonzero(np.bincount(edge_map, minlength=fw.edge_count)) != fw.edge_count:
        raise SymmetryError(f"element {name!r}: edge action is not a bijection")
    return _Maps(vertex_map, shifts, edge_map, lattice_action)


def _check_symmetries(fw: CrystalFramework, elements) -> None:
    """Refuse any resolved element whose held maps do not act on the motif at
    its tolerance, by ``_match_isometry``'s tests without matching again:
    the maps' sizes, the linear part's ``_lattice_action`` being the one held,
    each vertex image within the match radius of the class and cell its map
    names, and each bar's image being the class its map names."""
    tol = fw.tolerance
    for g in elements:
        _check_maps(fw, g)
        failed = f"symmetry element {g.name!r} does not hold at tolerance {tol:g}"
        if not np.array_equal(_lattice_action(fw, g.linear, failed), g.lattice_action):
            raise SymmetryError(f"{failed}: lattice-incompatible linear part")
        # As _match_isometry measures them: image minus class, less the cell offset.
        images = fw.lattice.fractional(fw.positions @ g.linear.T + g.translation)
        gap = images - fw._motif_index.frac[g.vertex_map] - g.vertex_offsets
        gap = np.max(np.abs(gap), axis=1, initial=0.0)
        far = np.flatnonzero(gap > MATCH_RADIUS * tol)
        if len(far):
            raise SymmetryError(f"{failed}: image of vertex {fw.vertex_label(far[0])} "
                                f"lies {gap[far[0]]:.2g} from its class")
        image = _edge_images(fw, g.vertex_map, g.vertex_offsets, g.lattice_action)
        moved = np.flatnonzero(image != g.edge_map)
        if len(moved):
            raise SymmetryError(f"{failed}: image of edge {moved[0]} is not the edge class its map names")


def _scale(points) -> float:
    """max(1, largest finite |coordinate|): the magnitude that sets round-off."""
    finite = np.where(np.isfinite(points), points, 0.0)
    return max(1.0, float(np.max(np.abs(finite), initial=0.0)))


def _reach(tol: float, scale: float) -> float:
    """How far apart, per axis, two coordinates of magnitude up to ``scale``
    can lie and still match to ``tol``: tol plus the round-off of their
    difference."""
    return tol + 8.0 * np.finfo(float).eps * scale


class _PointIndex:
    """Fractional points held for matching modulo the lattice, to any
    tolerance whose reach (``_reach``) is at most ``reach``.

    Each point's coordinates, wrapped onto the unit torus, fall into one of
    k buckets per axis, and its d bucket numbers pack row-major into one
    int64 key (k^d <= 2**62).  Buckets are at least 2 reach wide, and 16
    reach wide where the points are spread thinly enough.  A point within
    reach of a bucket face is also listed in the bucket across it (and,
    near a corner, in every bucket round it), so a query reads only its
    own bucket.  The keys of the listings are held sorted, each bucket's in
    point order.  Non-finite coordinates are hashed as 0; the match test on
    the coordinates as given refuses them.
    """

    def __init__(self, points, reach: float):
        self.points = np.asarray(points, dtype=float)
        self.reach = reach
        n, d = self.points.shape
        self.scale = _scale(self.points)
        cap = int(2 ** (62 / d))
        while cap ** d > 2 ** 62:
            cap -= 1
        spread = max(int(1.0 / (16.0 * reach)), math.ceil(n ** (1.0 / d)))
        k = max(1, min(cap, int(1.0 / (2.0 * reach)), spread))
        self.k = k = k if k >= 3 else 1      # below 3, a bucket's two neighbours coincide
        self.powers = k ** np.arange(d - 1, -1, -1, dtype=np.int64)
        finite = np.where(np.isfinite(self.points), self.points, 0.0)
        u = (finite - np.floor(finite)) * k
        base = np.floor(u)
        below, above = u - base <= reach * k, u - base >= 1 - reach * k
        base = base.astype(np.int64)
        point = np.arange(n)
        if k > 1 and (below | above).any():
            # List each point in its own bucket, then in each bucket across
            # the faces it is near, one per combination of axes.
            count = 1 + below + above
            total = np.prod(count, axis=1)
            point = np.repeat(point, total)
            rank = np.arange(len(point)) - np.repeat(np.cumsum(total) - total, total)
            digit = rank[:, np.newaxis] // (np.cumprod(count, axis=1) // count)[point] % count[point]
            base = base[point] + np.where(digit == 0, 0, np.where((digit == 1) & below[point], -1, 1))
        keys = (base % k) @ self.powers
        order = np.argsort(keys, kind="stable")
        # Two last keys no bucket has, so a search and the key after it stay in range.
        self.keys, self.listed = np.append(keys[order], [2 ** 63 - 1] * 2), point[order]

    def matches(self, points, tol: float):
        """Index pairs (i, j) where ``points[i]`` equals held point j modulo the
        lattice, sorted by i, then j."""
        a = np.asarray(points, dtype=float)
        none = np.zeros(0, dtype=np.int64)
        if len(a) == 0 or len(self.points) == 0:
            return none, none
        finite = a if np.isfinite(a).all() else np.where(np.isfinite(a), a, 0.0)
        reach = _reach(tol, max(self.scale, float(np.max(np.abs(finite)))))
        if reach > self.reach:
            # Listed for a shorter reach: match against an index built for this one.
            return _PointIndex(self.points, reach).matches(a, tol)
        k = self.k
        keys = (np.floor((finite - np.floor(finite)) * k).astype(np.int64) % k) @ self.powers
        start = np.searchsorted(self.keys, keys)
        if np.all((self.keys[start] == keys) & (self.keys[start + 1] != keys)):
            # Each point's bucket lists one point, as it does for spread-out points.
            i, j = np.arange(len(a)), self.listed[start]
            diff = a - self.points[j]
        else:
            size = np.searchsorted(self.keys, keys, "right") - start
            i = np.repeat(np.arange(len(a)), size)
            j = self.listed[np.arange(len(i)) + np.repeat(start - (np.cumsum(size) - size), size)]
            diff = a[i] - self.points[j]
        hit = np.max(np.abs(diff - np.round(diff)), axis=1) <= tol
        return (i, j) if hit.all() else (i[hit], j[hit])


class _RowIndex:
    """Exact lookup of int64 rows among held ones (n, c).

    Where the held rows' column ranges pack into one int64 (``places`` the
    place value of each column), the packed keys keep the lexicographic
    order, so one stable argsort of them sorts the rows and a query finds
    its row by one ``np.searchsorted``; otherwise (``places`` None) the rows
    are sorted by ``np.lexsort``, and the queries are grouped with them by
    one ``np.unique``.
    """

    def __init__(self, rows):
        self.rows, self.places = rows, None
        if len(rows):
            self.low, self.high = rows.min(axis=0), rows.max(axis=0)
            spans = [int(h) - int(l) + 1 for h, l in zip(self.high, self.low)]
            if math.prod(spans) < 2 ** 63 - 1:
                self.places = np.array([math.prod(spans[i + 1:]) for i in range(len(spans))], dtype=np.int64)
                keys = (rows - self.low) @ self.places
                self.order = np.argsort(keys, kind="stable")
                # A last key no row packs to, so every search lands on a key.
                self.keys = np.append(keys[self.order], 2 ** 63 - 1)
        if self.places is None:
            self.order = np.lexsort(rows.T[::-1])      # stable; column 0 is the primary key

    def find(self, queries) -> np.ndarray:
        """The lowest index of a held row equal to each query row, or -1."""
        found = np.full(len(queries), -1, dtype=np.int64)
        if not len(self.rows) or not len(queries):
            return found
        if self.places is not None:
            # A row outside the columns' ranges is none of the held, and would not pack.
            inside = np.flatnonzero(np.all((queries >= self.low) & (queries <= self.high), axis=1))
            keys = (queries[inside] - self.low) @ self.places
            at = np.searchsorted(self.keys, keys)
            hit = self.keys[at] == keys
            found[inside[hit]] = self.order[at[hit]]
        else:
            # The held rows come first, so a query's group starts at the held row it equals.
            _, first, group = np.unique(np.concatenate([self.rows[self.order], queries]), axis=0,
                                        return_index=True, return_inverse=True)
            # reshape: the inverse's shape changed within numpy 2.0.x.
            at = first[group.reshape(-1)[len(self.rows):]]
            hit = at < len(self.rows)
            found[hit] = self.order[at[hit]]
        return found


def _orbit_minima(maps) -> np.ndarray:
    """The least point of each point's orbit under the group that the
    commuting index maps ``maps``, at least one, generate.

    The orbit of x under the first k maps is the union of the orbits under
    the first k - 1 along the k-th map's cycle through x, so its least point
    is the least of theirs over that cycle, found by pointer doubling.
    """
    least = np.arange(len(maps[0]))
    for step in maps:
        step = np.asarray(step, dtype=np.int64)
        # After j rounds each point holds the least over the 2**j points
        # of its cycle that start at it; a cycle has at most len(least).
        for _ in range((len(least) - 1).bit_length()):
            least = np.minimum(least, least[step])
            step = step[step]
    return least


def _orbit_starts(maps) -> tuple[np.ndarray, np.ndarray]:
    """The least point of each orbit of the group that the commuting index
    maps ``maps`` generate, ascending, and each orbit's size."""
    least = _orbit_minima(maps)
    starts = np.flatnonzero(least == np.arange(len(least)))
    return starts, np.bincount(least, minlength=len(least))[starts]


class _MotifIndex:
    """Everything a framework's vertex and edge matches read, built once.

    ``frac`` holds the vertices' fractional coordinates, and ``vertices``
    the same points in a ``_PointIndex`` built for matches to the match
    radius.  The canonical edge-class rows (``_edge_class_keys``) are held
    once, in a ``_RowIndex`` as ``edges``, so an edge finds the lowest edge
    of its class by one exact lookup of its canonical row.
    """

    def __init__(self, fw: CrystalFramework):
        d = fw.dimension
        self.frac = fw.lattice.fractional(fw.positions) if fw.vertices else np.zeros((0, d))
        # Twice the reach of a match among the vertices, so images
        # moved further out than the vertices are matched here too.
        self.vertices = _PointIndex(self.frac, 2 * _reach(MATCH_RADIUS * fw.tolerance, _scale(self.frac)))
        self.edges = _RowIndex(_edge_class_keys(fw.edges.ends, fw.edges.offsets))

    def edge_classes(self, ends, offsets) -> np.ndarray:
        """The lowest edge of the class each given edge (int ends (m, 2),
        offsets (m, d)) belongs to, or -1 where none does."""
        return self.edges.find(_edge_class_keys(ends, offsets))


def validate_framework(fw: CrystalFramework) -> list:
    """Check all structural invariants; returns a list of violation strings.

    An empty list means the framework is valid.  CrystalFramework calls this
    on construction and raises InvalidFrameworkError when the list is not
    empty.  Coincident vertices and repeated edge classes are read off the
    framework's motif index, which is then held for every later match.
    """
    report = []
    d = fw.dimension
    tol = fw.tolerance

    det = abs(fw.lattice.determinant)
    if not tol < det < np.inf:     # a nan determinant is not finite either
        report.append("period lattice is singular (determinant below tolerance)" if det <= tol
                      else "period lattice determinant is not finite")
        return report
    try:
        singular = numeric_rank(fw.lattice.matrix, MIN_TOL) < d
    except ValueError:      # a norm that overflows, next to a finite determinant
        singular = True
    if singular:
        # A finite determinant can still hide a condition number near
        # 1 / eps (det [[1, 0], [1e8, 1]] is 1); no operator rank is
        # meaningful on such a lattice.
        report.append("period lattice is numerically singular")
        return report

    if fw.vertices.problems:
        return list(fw.vertices.problems)
    # No geometry test is meaningful past a nan or infinite coordinate.
    for i in np.flatnonzero(~np.isfinite(fw.positions).all(axis=1)).tolist():
        report.append(f"vertex {i} has a non-finite position")
    if report:
        return report

    index = fw._motif_index
    for i, j in zip(*(x.tolist() for x in index.vertices.matches(index.frac, tol))):
        if i < j:
            report.append(f"vertices {i} and {j} coincide modulo the lattice")

    found = list(fw.edges.problems)     # (edge index, rank within the edge, violation)
    valid = np.ones(fw.edge_count, dtype=bool)
    valid[[idx for idx, *_ in found]] = False
    checked = np.flatnonzero(valid)
    ends, offsets = fw.edges.ends[checked], fw.edges.offsets[checked]
    loop = (ends[:, 0] == ends[:, 1]) & ~offsets.any(axis=1)
    found += [(idx, 0, f"edge {idx} is a self-loop within one cell") for idx in checked[loop].tolist()]
    # With every edge checked, the framework's held bar vectors are the ones measured.
    vectors = (fw._edge_vectors if len(checked) == fw.edge_count
               else _bar_vectors(fw, ends, fw.edges.cells[checked]))
    short = ~loop & (np.linalg.norm(vectors, axis=1) <= tol)
    found += [(idx, 0, f"edge {idx} has zero length") for idx in checked[short].tolist()]

    # The held rows are the edges' canonical rows, so a bar's owner is the
    # lowest edge with its row: never a loop or an invalid edge, whose rows
    # (all zeros for an invalid one) are loops' rows.
    bars = checked[~loop]
    owner = index.edges.find(index.edges.rows[bars])
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
    """Position of the copy of a motif vertex in the given integer cell."""
    _check_vertex(fw, vertex)
    if np.shape(cell) != (fw.dimension,):
        raise ValueError(f"cell {cell!r} has shape {np.shape(cell)}, lattice has dimension {fw.dimension}")
    return fw.positions[vertex] + fw.lattice.translation(cell)


@dataclass(frozen=True, eq=False)
class EdgeGeometry(_ArrayFields):
    vector: np.ndarray
    offset: np.ndarray
    length: float



def edge_geometry(fw: CrystalFramework, edge: MotifEdge) -> EdgeGeometry:
    """Bar vector (from-endpoint minus to-endpoint), cell offset and length."""
    for vertex in (edge.from_vertex, edge.to_vertex):
        _check_vertex(fw, vertex)     # array indexing would wrap a negative index
    if len(edge.from_cell) != fw.dimension:     # both cells have one length
        raise ValueError(f"edge cell indices have dimension {len(edge.from_cell)}, lattice has {fw.dimension}")
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
    # Copy r of vertex v is row v R + r; each shift is its own matrix-vector product.
    z = fw.lattice.matrix
    shifts = np.array([z @ np.asarray(r, dtype=float) for r in residues])
    suffixes = [",".join(map(str, r)) for r in residues]
    vertices = _VertexTable((fw.positions[:, np.newaxis] + shifts).reshape(-1, fw.dimension),
                            [f"{name}[{suffix}]" if name else None
                             for name in fw.vertices.names for suffix in suffixes])

    # Copy r of edge e is row e R + r; each endpoint cell splits into a
    # residue, which picks the vertex copy, and a supercell index.
    cells = fw.edges.cells[:, np.newaxis] + np.array(residues, dtype=np.int64)[:, np.newaxis]
    residue = np.mod(cells, n)
    ends = fw.edges.ends[:, np.newaxis] * len(residues) + np.ravel_multi_index(np.moveaxis(residue, -1, 0), n)
    rows = np.concatenate([ends[..., np.newaxis], (cells - residue) // n], axis=-1)
    return CrystalFramework(lattice, vertices, _EdgeTable(rows, fw.dimension), symmetries=(),
                            tolerance=fw.tolerance)


@dataclass(frozen=True, eq=False)
class PlacedPoint(_ArrayFields):
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
    box = np.array(cells, dtype=np.int64).reshape(-1, fw.dimension)
    # Each point's and each endpoint's cell; every distinct one is translated
    # by its own matrix-vector product, as ``point_of`` does, so every
    # placed position is point_of's to the bit.
    ends = box[:, np.newaxis, np.newaxis] + fw.edges.cells           # (cells, edges, 2, d)
    distinct, at = np.unique(np.concatenate([box, ends.reshape(-1, fw.dimension)]), axis=0,
                             return_inverse=True)
    shifts = np.array([fw.lattice.matrix @ c for c in distinct.astype(float)]).reshape(-1, fw.dimension)
    shifts = shifts[at.reshape(-1)]
    at_points = fw.positions + shifts[:len(box), np.newaxis]
    at_ends = fw.positions[fw.edges.ends] + shifts[len(box):].reshape(ends.shape)
    inside = np.all((ends >= [a for a, _ in ranges]) & (ends < [b for _, b in ranges]), axis=-1)
    for placed in (at_points, at_ends):
        placed.setflags(write=False)

    points = tuple(PlacedPoint(v, cell, position) for cell, row in zip(cells, at_points)
                   for v, position in enumerate(row))
    internal, dangling = [], []
    vertices, end_cells, inside = fw.edges.ends.tolist(), ends.tolist(), inside.tolist()
    for c, shift in enumerate(cells):
        for idx, ((f, t), (fcell, tcell), (fin, tin)) in enumerate(zip(vertices, end_cells[c], inside[c])):
            edge = PlacedEdge(idx, shift, PlacedPoint(f, tuple(fcell), at_ends[c, idx, 0]),
                              PlacedPoint(t, tuple(tcell), at_ends[c, idx, 1]), fin, tin)
            (internal if edge.internal else dangling).append(edge)
    return Fragment(points=points, edges=tuple(internal), dangling=tuple(dangling))
