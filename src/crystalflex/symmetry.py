"""Space-group symmetries of periodic frameworks and symmetry-adapted counts.

A symmetry element is an isometry x -> B x + c that maps the infinite
framework onto itself.  Resolving an element against a motif produces its
action on vertex classes (a permutation together with integer lattice
offsets), its action on edge classes, and the integer matrix through which
the linear part acts on the period lattice.

These actions are monomial, so they are held as read-only int64 index maps,
applied by gathers and never built as dense matrices.  On the range, row
g.e of the permuted operator is row e.  On the domain, (u, coordinates of
A in an admissible space E), vertex block v moves to g.v and is multiplied
by B, the offset coupling carries A into the vertex blocks (zero exactly
when the element is separable), and A -> B A B^-1 acts on E.  The domain
action is built once per element on (u, vec A), the full space's
coordinates, and a space's action is its restriction.  Each declared
element's action and commutant are built once and held in the framework's
one set-up store (``rigidity._held``) under the element's id, so the
counts, the equation residual and the character row read the same ones,
and so does a ``with_symmetries`` copy, which shares the store; any other
element's are built for each call.  Traces are
counted from fixed points.  Velocities transform by the linear part only;
rigidity rows annihilate the constant translation component, so kernels,
cokernels and subspace traces are unaffected.  R itself is read as its
edge rows: the bar ends and vectors and the border C_E, never built as a
dense matrix; the counts and the equation residual read the full space,
its border and its rigid span that the framework holds
(``rigidity._held_border``, ``rigidity._held_rigid``), so they share them
with the affine mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .frameworks import (CELL_LIMIT, CrystalFramework, SymmetryError, _ArrayFields, _check_maps,
                         _edge_images, _lattice_action)
from .linalg import (
    DEFAULT_TOL,
    SubspaceBasis,
    _kron,
    _rank,
    _svd,
    kernel_basis,
    numeric_rank,
    subspace_intersection,
    tolerance_refusal,
)
from .rigidity import (
    DependentBasisError,
    MatrixSpace,
    _check_dimension,
    _held,
    _held_border,
    _held_rigid,
    _held_space,
    analyze_counts,
    unvec,
)


@dataclass(frozen=True, eq=False)
class SymmetryElement(_ArrayFields):
    """Resolved isometry with its derived actions on the motif, held as
    read-only int64 index maps: vertex v goes to vertex ``vertex_map[v]`` of
    cell ``vertex_offsets[v]``, and edge class e to ``edge_map[e]``.  It records
    the motif index ``resolve_symmetry`` matched it against, for ``with_symmetries``;
    ``==`` and ``dataclasses.replace`` leave that out."""

    name: str
    linear: np.ndarray
    translation: np.ndarray
    vertex_map: np.ndarray
    vertex_offsets: np.ndarray
    edge_map: np.ndarray
    lattice_action: np.ndarray
    _matched_index: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        d = len(self.linear)
        for name, dtype, shape in [("linear", float, (d, d)), ("translation", float, (d,)),
                                   ("vertex_map", np.int64, (-1,)), ("vertex_offsets", np.int64, (-1, d)),
                                   ("edge_map", np.int64, (-1,)), ("lattice_action", np.int64, (d, d))]:
            value = np.asarray(getattr(self, name), dtype=dtype).reshape(shape)
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dimension(self) -> int:
        return self.linear.shape[0]

    @property
    def separable(self) -> bool:
        """True when every motif vertex maps to a base-cell motif vertex."""
        return not self.vertex_offsets.any()


def resolve_symmetry(fw: CrystalFramework, linear, translation, name: str = "g") -> SymmetryElement:
    """Match an isometry against the motif classes of a framework.

    Only the images are matched: the vertex images against the framework's
    held motif index (``CrystalFramework._motif_index``) to 10 tol, and the
    image edges exactly against its sorted edge-class rows.  Raises
    SymmetryError if the linear part is not orthogonal, is incompatible with
    the period lattice, or if some vertex or edge image does not land on a
    framework vertex or edge class.
    """
    d = fw.dimension
    tol = fw.tolerance
    # Copies: the element's read-only arrays share no memory with the caller's.
    b = np.array(linear, dtype=float)
    c = np.array(translation, dtype=float).reshape(-1)
    if b.shape != (d, d) or c.shape != (d,):
        raise SymmetryError(f"element {name!r}: expected a {d}x{d} linear part and a {d}-vector")
    for part, value in (("linear part", b), ("translation", c)):
        if not np.isfinite(value).all():
            raise SymmetryError(f"element {name!r}: {part} is not finite")
    lattice_action = _lattice_action(fw, b, f"element {name!r}")

    index = fw._motif_index
    images = fw.lattice.fractional(fw.positions @ b.T + c)
    image, target = index.vertices.matches(images, 10 * tol)
    # The pairs come sorted: each image's first is its lowest matching class.
    first = np.ones(len(image), dtype=bool)
    first[1:] = image[1:] != image[:-1]
    image, vertex_map = image[first], target[first]
    if len(image) != fw.vertex_count:
        matched = np.zeros(fw.vertex_count, dtype=bool)
        matched[image] = True
        unmatched = int(np.argmin(matched))
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
    unmatched = np.flatnonzero(edge_map < 0)
    if len(unmatched):
        raise SymmetryError(
            f"element {name!r} is not a symmetry: image of edge {unmatched[0]} matches no edge class")
    if np.count_nonzero(np.bincount(edge_map, minlength=fw.edge_count)) != fw.edge_count:
        raise SymmetryError(f"element {name!r}: edge action is not a bijection")

    element = SymmetryElement(name=name, linear=b, translation=c, vertex_map=vertex_map,
                              vertex_offsets=shifts, edge_map=edge_map, lattice_action=lattice_action)
    object.__setattr__(element, "_matched_index", index)
    return element


def _fixed_points(perm) -> int:
    """Number of points a permutation fixes: the trace of its matrix."""
    return int(np.count_nonzero(perm == np.arange(len(perm))))


@dataclass(frozen=True)
class _DomainAction:
    """Domain action [[V, C], [0, K]] of one element, kept as its parts: V is
    the element's vertex map and B, C (dn x q) the offset coupling and K
    (q x q) the conjugation.  ``_domain_action`` builds it on (u, vec A),
    where K is B kron B, and ``on`` restricts that to a space's coordinates."""

    element: SymmetryElement
    coupling: np.ndarray
    conjugation: np.ndarray

    def on(self, space: MatrixSpace) -> "_DomainAction":
        """This action on (u, vec A) restricted to (u, coordinates in ``space``):
        C times the space's stacked basis, and K the coordinates of the
        conjugated basis matrices, from one solve.  Raises SymmetryError
        unless the space is invariant under A -> B A B^-1."""
        conjugation = np.zeros((0, 0))
        if space.dim:
            try:
                conjugation = space._column_coordinates(self.conjugation @ space.stacked)
            except ValueError:
                raise SymmetryError(
                    f"matrix space {space.name!r} is not invariant under conjugation by "
                    f"element {self.element.name!r}") from None
        return _DomainAction(self.element, self.coupling @ space.stacked, conjugation)

    def apply(self, columns) -> np.ndarray:
        """D times a stack of domain columns, by a gather and one d x d multiply."""
        n, d = len(self.element.vertex_map), self.element.dimension
        vertex, coords = columns[:n * d], columns[n * d:]
        # Block g.v of the image is B times block v.
        source = np.argsort(self.element.vertex_map)
        moved = self.element.linear @ vertex.reshape(n, d, columns.shape[1])[source]
        return np.vstack([moved.reshape(n * d, columns.shape[1]) + self.coupling @ coords,
                          self.conjugation @ coords])

    def permute_edges(self, rows) -> np.ndarray:
        """The edge action on a stack of edge rows: row g.e of the image is row e."""
        return rows[np.argsort(self.element.edge_map)]

    def trace(self) -> float:
        """tr D = (fixed vertices) tr B + tr K; the coupling is off the diagonal."""
        fixed = _fixed_points(self.element.vertex_map)
        return fixed * float(np.trace(self.element.linear)) + float(np.trace(self.conjugation))

    def equation_residual(self, ends, vectors, lattice) -> float:
        """Max-norm residual of (edge action) . R - R . D, R given by its edge rows
        (the bar ends, the bar vectors v and the border C_E): row i of R D is
        v_i^T B at vertex block g^-1.from_i, -v_i^T B at g^-1.to_i and
        v_i . (C[from_i] - C[to_i]) + C_E[i] K on the A columns."""
        n, d = len(self.element.vertex_map), self.element.dimension
        source, moved = np.argsort(self.element.edge_map), vectors @ self.element.linear
        # Each row's entries summed over its block in this order: a loop bar's vertex row is 0.
        blocks = np.hstack([ends[source], np.argsort(self.element.vertex_map)[ends]])
        entries = np.stack([vectors[source], -vectors[source], -moved, moved], axis=1)
        vertex = np.einsum("eab,ebk->eak", blocks[:, :, np.newaxis] == blocks[:, np.newaxis], entries)
        coupling = self.coupling.reshape(n, d, self.coupling.shape[1])
        lattice_part = lattice[source] - lattice @ self.conjugation - np.einsum(
            "ek,ekq->eq", vectors, coupling[ends[:, 0]] - coupling[ends[:, 1]])
        return float(max(np.max(np.abs(vertex), initial=0.0), np.max(np.abs(lattice_part), initial=0.0)))


def _domain_action(fw: CrystalFramework, element: SymmetryElement) -> _DomainAction:
    """The element's action on (u, vec A), the coordinates of the full space."""
    _check_maps(fw, element)
    d, n = fw.dimension, fw.vertex_count
    b = element.linear
    # Coupling of A into the vertex blocks. The image block at g.v is
    # B A B^-1 Z k(v), which depends only on the integer offsets, so
    # separable elements get an exactly zero block: row (g.v, i), column
    # (j, k) of vec A holds -w[j] B[i, k] with w = -B^T Z k(v).
    moved = np.flatnonzero(element.vertex_offsets.any(axis=1))
    w = -(element.vertex_offsets[moved] @ fw.lattice.matrix.T) @ b
    coupling = np.zeros((n, d, d * d))
    coupling[element.vertex_map[moved]] = -(w[:, np.newaxis, :, np.newaxis]
                                            * b[:, np.newaxis, :]).reshape(len(moved), d, d * d)
    # vec(B A B^T) = (B kron B) vec A.
    return _DomainAction(element, coupling.reshape(n * d, d * d), _kron(b, b))


def _element_action(fw: CrystalFramework, element: SymmetryElement) -> tuple:
    """The element's domain action on (u, vec A) and its commutant at the
    framework's tolerance, held by the framework under the element's id
    when the element is one the framework declares, and built afresh for
    any other, so the store does not grow with the elements passed in.
    The action holds the element, so no other element takes that id while
    the entry is held."""
    def build():
        return _domain_action(fw, element), commutant_basis(element.linear, fw.tolerance)

    if any(element is g for g in fw.symmetries):
        return _held(fw, ("element", id(element)), build)
    return build()


def verify_symmetry_equation(fw: CrystalFramework, element: SymmetryElement,
                             space: Optional[MatrixSpace] = None) -> float:
    """Max-norm residual of (edge action) . R - R . (domain action).

    R is the operator restricted to ``space`` (default: the full space, whose
    coordinates are vec A).  Zero (to round-off) for genuine symmetries;
    the space must be invariant under conjugation by the element.
    """
    if space is None:
        action, space = _element_action(fw, element)[0], _held_space(fw, "full")
    else:
        _check_dimension(fw, space)
        action = _element_action(fw, element)[0].on(space)
    return action.equation_residual(fw.edges.ends, fw._edge_vectors, _held_border(fw, space))


def commutant_basis(linear, tol: float = DEFAULT_TOL) -> MatrixSpace:
    """All matrices commuting with the given linear part."""
    b = np.asarray(linear, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"linear part must be square, got shape {b.shape}")
    d = b.shape[0]
    if not np.isfinite(b).all():
        raise ValueError("linear part is not finite")
    if refusal := tolerance_refusal(tol):      # as MatrixSpace would, before the kernel reads it
        raise ValueError(f"tolerance {refusal}")
    # vec(A B - B A) = (B^T kron I - I kron B) vec A.
    bracket = _kron(b.T, np.eye(d)) - _kron(np.eye(d), b)
    kernel = kernel_basis(bracket, tol)
    mats = tuple(unvec(col, d) for col in kernel.basis.T)
    return MatrixSpace(d, mats, name="commutant", tol=tol)


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


def _fixed_domain(action: _DomainAction, commutant: MatrixSpace,
                  tol: float) -> tuple[SubspaceBasis, int]:
    """Fixed space of the domain action on (u, vec A), built from the vertex
    cycles, and the number of its columns with A = 0 (dimF).

    A fixed (u, A) has A in the commutant and u_{g.v} = B u_v + c_{g.v}(A),
    where c is the offset coupling, read in vec A coordinates from the
    action on the full space.  Along a vertex k-cycle v_0, ..., v_{k-1}
    this closes when (I - B^k) u_{v_0} = h(A) = sum_j B^{k-j} c_{v_j}(A).
    One d x d SVD of I - B^k per cycle length gives the free columns
    (x, Bx, ..., B^{k-1} x)/sqrt(k) from its null vectors x, the closure
    constraint W^T h(A) = 0 from its left null vectors W, and the particular
    velocities u_{v_0} = (I - B^k)^+ h(A), propagated round the cycle.  The
    admissible A are the kernel of the stacked constraints; their columns are
    orthonormalised against the free ones, on which they have no A part.
    """
    element = action.element
    b = element.linear
    d, q = element.dimension, commutant.dim
    perm = element.vertex_map
    n = len(perm)
    starts, sizes = _orbit_starts([perm])
    coupling = (action.coupling @ commutant.stacked).reshape(n, d, q)

    velocities = np.zeros((n, d, q))      # particular solutions, per commutant coordinate
    free, constraints = [], []
    for k in np.flatnonzero(np.bincount(sizes)).tolist():
        cycles = np.flatnonzero(sizes == k)
        walk = np.empty((len(cycles), k), dtype=np.int64)
        walk[:, 0] = starts[cycles]
        for i in range(1, k):
            walk[:, i] = perm[walk[:, i - 1]]
        left, sigma, right_t = _svd(np.eye(d) - np.linalg.matrix_power(b, k), "cycle map")
        rank = _rank(sigma, (d, d), tol)

        closing = np.zeros((len(cycles), d, q))
        for i in range(1, k + 1):
            closing = b @ closing + coupling[walk[:, i % k]]
        constraints.append((left[:, rank:].T @ closing).reshape(-1, q))
        u = right_t[:rank].T @ ((left[:, :rank].T @ closing) / sigma[:rank, np.newaxis])
        for i in range(k):
            velocities[walk[:, i]] = u
            u = b @ u + coupling[walk[:, (i + 1) % k]]

        x = right_t[rank:].T / np.sqrt(k)
        block = np.zeros((n, d, len(cycles), x.shape[1]))
        for i in range(k):
            block[walk[:, i], :, np.arange(len(cycles)), :] = x
            x = b @ x
        free.append(block.reshape(n * d, -1))

    free = np.hstack(free) if free else np.zeros((n * d, 0))
    stack = np.vstack(constraints) if constraints else np.zeros((0, q))
    admissible = kernel_basis(stack, tol).basis

    # The A parts are orthonormal, so the columns stay independent once the
    # free ones are projected out: all of them are kept, with no rank decision.
    tied = velocities.reshape(n * d, q) @ admissible
    tied = np.vstack([tied - free @ (free.T @ tied), commutant.stacked @ admissible])
    basis = np.hstack([np.vstack([free, np.zeros((d * d, free.shape[1]))]),
                       _svd(tied, "tied", full_matrices=False)[0]])
    return SubspaceBasis(n * d + d * d, basis, tol), free.shape[1]


@dataclass(frozen=True)
class SymmetryCountReport:
    """Symmetry-adapted mechanism and stress counts for one element.

    The fixed domain F_dom is built from the element's vertex cycles (see
    ``_fixed_domain``): fixed_vertex_dim counts its columns with A = 0, one
    set per cycle from the null space of I - B^k, and the rest carry the
    commutant matrices whose offset coupling closes round every cycle.  For
    separable elements the coupling is zero, so fixed_domain_dim splits as
    fixed_vertex_dim + commutant_dim; for nonseparable ones it can be less.
    identity_residual is (m - s) - (fixed_domain_dim - edge_orbits - f):
    for the fixed domain and edge bases F_dom and F_e, the number of
    singular values of F_e^T R F_dom between the threshold of its shape and
    that of the (|Fe|, fixed) shape of R F_dom, which has the same ones.
    equation_residual is the residual of the symmetry equation on the full
    space (see ``verify_symmetry_equation``).  commutant is the space of
    velocity matrices commuting with the linear part that the counts read,
    for the element's character row (None on a report built by hand).
    """

    element_name: str
    separable: bool
    fixed_vertex_dim: int
    commutant_dim: int
    fixed_domain_dim: int
    edge_orbits: int
    fixed_rigid_dim: int
    mechanisms: int
    stresses: int
    identity_residual: int
    flexible_predicted: bool
    equation_residual: float
    commutant: Optional[MatrixSpace] = field(default=None, compare=False, repr=False)


def symmetry_counts(fw: CrystalFramework, element: SymmetryElement) -> SymmetryCountReport:
    """Counts of R restricted to the fixed domain, which it maps into the
    fixed edge space spanned by the edge orbits.  Raises DependentBasisError
    when the tolerance makes the two readings of f_g disagree, or leaves
    more fixed rigid motions than fixed flexes.
    """
    tol = fw.tolerance
    d = fw.dimension
    # The full space's coordinates are vec A, so the action on (u, vec A) is its action.
    full = _held_space(fw, "full")
    action, commutant = _element_action(fw, element)
    fixed_domain, fixed_vertex = _fixed_domain(action, commutant, tol)
    ends, vectors, lattice = fw.edges.ends, fw._edge_vectors, _held_border(fw, full)
    equation = action.equation_residual(ends, vectors, lattice)
    rigid = _held_rigid(fw, full)

    # g maps rigid motions to rigid motions, so f_g is also the fixed
    # dimension of its action on them.
    f = subspace_intersection(rigid, fixed_domain).dim
    on_rigid = rigid.basis.T @ action.apply(rigid.basis)
    acting = rigid.dim - numeric_rank(on_rigid - np.eye(rigid.dim), tol)
    if acting != f:
        raise DependentBasisError(
            f"the rigid motions fixed by element {element.name!r} span {acting} "
            f"dimensions, but {f} lie in its fixed domain")

    # R F_dom maps into the fixed edge space, so its rows repeat along each edge
    # orbit and it has the singular values of F_e^T R F_dom: sqrt(orbit size)
    # times <v_e, u_from - u_to> + C_E[e] A at each orbit's first edge e.
    first, sizes = _orbit_starts([element.edge_map])
    orbits = len(sizes)
    velocities = fixed_domain.basis[:-d * d].reshape(fw.vertex_count, d, fixed_domain.dim)
    rows = np.sqrt(sizes)[:, np.newaxis] * (
        np.einsum("ek,ekj->ej", vectors[first], velocities[ends[first, 0]] - velocities[ends[first, 1]])
        + lattice[first] @ fixed_domain.basis[-d * d:])
    sigma = _svd(rows, "orbit rows", compute_uv=False) if rows.size else np.zeros(0)
    fixed_flexes = fixed_domain.dim - _rank(sigma, (fw.edge_count, fixed_domain.dim), tol)
    if f > fixed_flexes:
        raise DependentBasisError(
            f"the rigid motions fixed by element {element.name!r} span {f} dimensions, "
            f"more than the {fixed_flexes} fixed flexes")
    m = fixed_flexes - f
    s = orbits - _rank(sigma, (orbits, fixed_domain.dim), tol)

    residual = (m - s) - (fixed_domain.dim - orbits - f)
    predicted = orbits < fixed_domain.dim - f

    return SymmetryCountReport(
        element_name=element.name,
        separable=element.separable,
        fixed_vertex_dim=fixed_vertex,
        commutant_dim=commutant.dim,
        fixed_domain_dim=fixed_domain.dim,
        edge_orbits=orbits,
        fixed_rigid_dim=f,
        mechanisms=m,
        stresses=s,
        identity_residual=residual,
        flexible_predicted=predicted,
        equation_residual=equation,
        commutant=commutant,
    )


@dataclass(frozen=True)
class CharacterRow:
    """Traces of one element on the rigidity-related subspaces."""

    element_name: str
    space_name: str
    vertex_trace: float
    edge_trace: float
    rigid_trace: float
    mechanism_trace: float
    stress_trace: float
    residual: float


def character_row(fw: CrystalFramework, element: SymmetryElement,
                  space: MatrixSpace) -> CharacterRow:
    """Trace identity row: mech - stress vs vertex - edge - rigid.

    The admissible space must be invariant under conjugation by the
    element's linear part.  Each trace is tr(Q^T D Q) for the orthonormal
    flex, rigid or stress basis Q of ``analyze_counts``; the subspace is
    invariant, so that is the trace of D on it for any basis of the space
    and any action D, orthogonal or not.  D Q is gathered, never formed as
    a matrix product.  Rigid motions are flexes, so the mechanism trace,
    the trace on the quotient flex / rigid, is tr(flex) - tr(rigid).
    """
    _check_dimension(fw, space)
    action = _element_action(fw, element)[0].on(space)
    counts = analyze_counts(fw, space)

    def subspace_trace(basis: SubspaceBasis) -> float:
        return float(np.vdot(basis.basis, action.apply(basis.basis)))

    vertex_trace = action.trace()
    edge_trace = float(_fixed_points(element.edge_map))
    rigid_trace = subspace_trace(counts.rigid_basis)
    mech_trace = subspace_trace(counts.flex_basis) - rigid_trace
    stresses = counts.stress_basis.basis
    stress_trace = float(np.vdot(stresses, action.permute_edges(stresses)))
    return CharacterRow(
        element_name=element.name,
        space_name=space.name,
        vertex_trace=vertex_trace,
        edge_trace=edge_trace,
        rigid_trace=rigid_trace,
        mechanism_trace=mech_trace,
        stress_trace=stress_trace,
        residual=(mech_trace - stress_trace) - (vertex_trace - edge_trace - rigid_trace),
    )
