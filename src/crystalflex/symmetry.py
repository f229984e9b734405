"""Space-group symmetries of periodic frameworks and symmetry-adapted counts.

A symmetry element is an isometry x -> B x + c that maps the infinite
framework onto itself.  Resolving an element against a motif produces its
action on vertex classes (a permutation together with integer lattice
offsets), its action on edge classes, and the integer matrix through which
the linear part acts on the period lattice.

The finite-dimensional representations built here act on the domain and
range of the affine rigidity operator in (u, vec A) coordinates, which are
the coordinates of ``restricted_operator`` on the full matrix space:

    vertex_rep     block permutation, block (g.v, v) = B
    edge_perm      0/1 permutation of edge classes
    matrix_conjugation   vec A -> vec(B A B^-1)
    offset_coupling      couples A into the vertex blocks; zero exactly
                         when the element is separable (all offsets zero)

Velocities transform by the linear part only; rigidity rows annihilate the
constant translation component, so kernels, cokernels and subspace traces
are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional

import numpy as np

from .frameworks import CELL_LIMIT, CrystalFramework, _edge_arrays, _edge_class_keys, lattice_matches
from .linalg import (
    DEFAULT_TOL,
    SubspaceBasis,
    _rank,
    kernel_basis,
    numeric_rank,
    subspace_intersection,
)
from .rigidity import (
    DependentBasisError,
    MatrixSpace,
    _rigid_space_restricted,
    analyze_counts,
    matrix_space,
    restricted_operator,
    right_multiplication_operator,
    unvec,
)


class SymmetryError(ValueError):
    """Raised when an isometry cannot be resolved against a framework."""


@dataclass(frozen=True)
class SymmetryElement:
    """Resolved isometry with its derived actions on the motif."""

    name: str
    linear: np.ndarray
    translation: np.ndarray
    vertex_map: tuple
    vertex_offsets: tuple
    edge_map: tuple
    lattice_action: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.linear, dtype=float)
        c = np.asarray(self.translation, dtype=float).reshape(-1)
        mb = np.asarray(self.lattice_action, dtype=int)
        b.setflags(write=False)
        c.setflags(write=False)
        mb.setflags(write=False)
        object.__setattr__(self, "linear", b)
        object.__setattr__(self, "translation", c)
        object.__setattr__(self, "lattice_action", mb)
        object.__setattr__(self, "vertex_map", tuple(int(v) for v in self.vertex_map))
        object.__setattr__(self, "vertex_offsets",
                           tuple(tuple(int(x) for x in off) for off in self.vertex_offsets))
        object.__setattr__(self, "edge_map", tuple(int(e) for e in self.edge_map))

    @property
    def dimension(self) -> int:
        return self.linear.shape[0]

    @property
    def separable(self) -> bool:
        """True when every motif vertex maps to a base-cell motif vertex."""
        return all(not any(off) for off in self.vertex_offsets)


def resolve_symmetry(fw: CrystalFramework, linear, translation, name: str = "g") -> SymmetryElement:
    """Match an isometry against the motif classes of a framework.

    Raises SymmetryError if the linear part is not orthogonal, is
    incompatible with the period lattice, or if some vertex or edge image
    does not land on a framework vertex or edge class.
    """
    d = fw.dimension
    tol = fw.tolerance
    b = np.asarray(linear, dtype=float)
    c = np.asarray(translation, dtype=float).reshape(-1)
    if b.shape != (d, d) or c.shape != (d,):
        raise SymmetryError(f"element {name!r}: expected a {d}x{d} linear part and a {d}-vector")
    if np.max(np.abs(b.T @ b - np.eye(d))) > 10 * tol:
        raise SymmetryError(f"element {name!r}: linear part is not orthogonal")

    lattice_action = np.linalg.solve(fw.lattice.matrix, b @ fw.lattice.matrix)
    if np.max(np.abs(lattice_action - np.round(lattice_action))) > 10 * tol:
        raise SymmetryError(f"element {name!r}: lattice-incompatible linear part")
    lattice_action = np.round(lattice_action).astype(int)

    frac = fw.lattice.fractional(fw.positions)
    images = fw.lattice.fractional(fw.positions @ b.T + c)
    image, target = lattice_matches(images, frac, 10 * tol)
    image, first = np.unique(image, return_index=True)     # lowest matching class
    if len(image) != fw.vertex_count:
        matched = np.zeros(fw.vertex_count, dtype=bool)
        matched[image] = True
        unmatched = int(np.argmin(matched))
        raise SymmetryError(
            f"element {name!r} is not a symmetry: image of vertex "
            f"{fw.vertex_label(unmatched)} matches no vertex class")
    vertex_map = target[first]
    shifts = np.round(images - frac[vertex_map])
    beyond = np.flatnonzero(np.any(np.abs(shifts) >= CELL_LIMIT, axis=1))
    if len(beyond):
        raise SymmetryError(f"element {name!r}: image of vertex "
                            f"{fw.vertex_label(beyond[0])} lies 2**53 or more cells away")
    shifts = shifts.astype(np.int64)
    if len(set(vertex_map.tolist())) != fw.vertex_count:
        raise SymmetryError(f"element {name!r}: vertex action is not a bijection")

    ends, offsets, _ = _edge_arrays(fw, fw.edges)
    image_offsets = shifts[ends[:, 1]] - shifts[ends[:, 0]] + offsets @ lattice_action.T
    keys = np.concatenate([_edge_class_keys(ends, offsets),
                           _edge_class_keys(vertex_map[ends], image_offsets)])
    _, group = np.unique(keys, axis=0, return_inverse=True)
    group = group.reshape(-1)
    owner = np.full(len(keys), -1)
    owner[group[:fw.edge_count]] = np.arange(fw.edge_count)
    edge_map = owner[group[fw.edge_count:]]
    unmatched = np.flatnonzero(edge_map < 0)
    if len(unmatched):
        raise SymmetryError(
            f"element {name!r} is not a symmetry: image of edge {unmatched[0]} matches no edge class")
    if len(set(edge_map.tolist())) != fw.edge_count:
        raise SymmetryError(f"element {name!r}: edge action is not a bijection")

    return SymmetryElement(name=name, linear=b, translation=c,
                           vertex_map=tuple(vertex_map.tolist()),
                           vertex_offsets=tuple(map(tuple, shifts.tolist())),
                           edge_map=tuple(edge_map.tolist()),
                           lattice_action=lattice_action)


@dataclass(frozen=True)
class SymmetryRepresentation:
    """Representation blocks of one element in (u, vec A) coordinates."""

    element: SymmetryElement
    vertex_rep: np.ndarray
    edge_perm: np.ndarray
    offset_coupling: np.ndarray
    matrix_conjugation: np.ndarray


def representation_matrices(fw: CrystalFramework, element: SymmetryElement) -> SymmetryRepresentation:
    d, n, m = fw.dimension, fw.vertex_count, fw.edge_count
    b = element.linear
    vertex_map = np.array(element.vertex_map, dtype=np.int64)

    # Block (g.v, v) of the vertex representation is B.
    vertex_rep = np.zeros((n, d, n, d))
    vertex_rep[vertex_map, :, np.arange(n), :] = b

    edge_perm = np.zeros((m, m))
    edge_perm[np.array(element.edge_map, dtype=np.int64), np.arange(m)] = 1.0

    matrix_conjugation = np.kron(b, b)

    # Coupling of A into the vertex blocks. The image block at g.v is
    # B A B^-1 Z k(v), which depends only on the integer offsets, so
    # separable elements get an exactly zero block: row (g.v, i), column
    # (j, k) holds -w[j] B[i, k] with w = -B^T Z k(v).
    offsets = np.array(element.vertex_offsets, dtype=np.int64).reshape(n, d)
    moved = np.flatnonzero(offsets.any(axis=1))
    w = -(offsets[moved] @ fw.lattice.matrix.T) @ b
    offset_coupling = np.zeros((n, d, d, d))
    offset_coupling[vertex_map[moved]] = -(w[:, np.newaxis, :, np.newaxis] * b[:, np.newaxis, :])

    return SymmetryRepresentation(element=element, vertex_rep=vertex_rep.reshape(d * n, d * n),
                                  edge_perm=edge_perm,
                                  offset_coupling=offset_coupling.reshape(d * n, d * d),
                                  matrix_conjugation=matrix_conjugation)


def _restricted_domain_rep(reps: SymmetryRepresentation, space: MatrixSpace) -> np.ndarray:
    """Domain representation on (u, coords-in-space) coordinates.

    Block upper-triangular: the vertex representation and the offset
    coupling on top, the action A -> B A B^-1 in the space's coordinates
    below.  Requires the space to be invariant under that action; raises
    SymmetryError otherwise.
    """
    # One solve for all conjugated basis matrices, vec(B A B^T) = (B kron B) vec A.
    conj_coords = np.zeros((0, 0))
    if space.dim:
        try:
            conj_coords = space._column_coordinates(reps.matrix_conjugation @ space.stacked)
        except ValueError:
            raise SymmetryError(
                f"matrix space {space.name!r} is not invariant under conjugation by "
                f"element {reps.element.name!r}") from None
    dn = reps.vertex_rep.shape[0]
    coupling = reps.offset_coupling @ space.stacked
    return np.block([
        [reps.vertex_rep, coupling],
        [np.zeros((space.dim, dn)), conj_coords],
    ])


def _equation_residual(reps: SymmetryRepresentation, operator, domain) -> float:
    """Max-norm residual of (edge action) . R - R . (domain action)."""
    # Row g.e of the permuted operator is row e, a gather instead of a
    # product with the m x m permutation matrix.
    permuted = operator[np.argsort(reps.element.edge_map)]
    return float(np.max(np.abs(permuted - operator @ domain), initial=0.0))


def verify_symmetry_equation(fw: CrystalFramework, element: SymmetryElement,
                             space: Optional[MatrixSpace] = None) -> float:
    """Max-norm residual of (edge action) . R - R . (domain action).

    R is the operator restricted to ``space`` (default: the full space, whose
    coordinates are vec A).  Zero (to round-off) for genuine symmetries;
    the space must be invariant under conjugation by the element.
    """
    if space is None:
        space = matrix_space("full", fw.dimension, fw.tolerance)
    reps = representation_matrices(fw, element)
    operator = restricted_operator(fw, space)
    return _equation_residual(reps, operator, _restricted_domain_rep(reps, space))


def commutant_basis(linear, tol: float = DEFAULT_TOL) -> MatrixSpace:
    """All matrices commuting with the given linear part."""
    b = np.asarray(linear, dtype=float)
    d = b.shape[0]
    if b.shape != (d, d):
        raise ValueError("linear part must be square")
    bracket = right_multiplication_operator(b) - np.kron(np.eye(d), b)
    kernel = kernel_basis(bracket, tol)
    mats = tuple(unvec(col, d) for col in kernel.basis.T)
    return MatrixSpace(d, mats, name="commutant", tol=tol)


def fixed_space(operator, tol: float = DEFAULT_TOL) -> SubspaceBasis:
    """Eigenspace of eigenvalue one: all vectors fixed by the operator."""
    p = np.asarray(operator, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("fixed_space needs a square matrix")
    return kernel_basis(p - np.eye(p.shape[0]), tol)


def _cycles(perm) -> np.ndarray:
    """Cycle label of each point of a permutation, numbered in the order of
    each cycle's lowest point."""
    labels = [-1] * len(perm)
    count = 0
    for start in range(len(perm)):
        if labels[start] >= 0:
            continue
        current = start
        while labels[current] < 0:
            labels[current] = count
            current = perm[current]
        count += 1
    return np.array(labels, dtype=np.int64)


def edge_orbit_count(element: SymmetryElement) -> int:
    """Number of orbits of the cyclic group of the element on edge classes."""
    return len(np.bincount(_cycles(element.edge_map)))


def edge_permutation_order(element: SymmetryElement) -> int:
    """Order of the edge-class permutation (lcm of cycle lengths)."""
    return lcm(*np.bincount(_cycles(element.edge_map)).tolist())


def _fixed_domain(reps: SymmetryRepresentation, commutant: MatrixSpace,
                  tol: float) -> tuple[SubspaceBasis, int]:
    """Fixed space of the domain action on (u, vec A), built from the vertex
    cycles, and the number of its columns with A = 0 (dimF).

    A fixed (u, A) has A in the commutant and u_{g.v} = B u_v + c_{g.v}(A),
    where c is the offset coupling.  Along a vertex k-cycle v_0, ..., v_{k-1}
    this closes when (I - B^k) u_{v_0} = h(A) = sum_j B^{k-j} c_{v_j}(A).
    One d x d SVD of I - B^k per cycle length gives the free columns
    (x, Bx, ..., B^{k-1} x)/sqrt(k) from its null vectors x, the closure
    constraint W^T h(A) = 0 from its left null vectors W, and the particular
    velocities u_{v_0} = (I - B^k)^+ h(A), propagated round the cycle.  The
    admissible A are the kernel of the stacked constraints; their columns are
    orthonormalised against the free ones, on which they have no A part.
    """
    element = reps.element
    b = element.linear
    d, q = element.dimension, commutant.dim
    perm = np.array(element.vertex_map, dtype=np.int64)
    n = len(perm)
    labels = _cycles(element.vertex_map)
    sizes = np.bincount(labels)
    # Labels are numbered in the order of each cycle's lowest point, so the
    # running maximum of the labels steps up exactly at each cycle's start.
    starts = np.flatnonzero(np.diff(np.maximum.accumulate(labels), prepend=-1))
    coupling = (reps.offset_coupling @ commutant.stacked).reshape(n, d, q)

    velocities = np.zeros((n, d, q))      # particular solutions, per commutant coordinate
    free, constraints = [], []
    for k in np.flatnonzero(np.bincount(sizes)).tolist():
        cycles = np.flatnonzero(sizes == k)
        walk = np.empty((len(cycles), k), dtype=np.int64)
        walk[:, 0] = starts[cycles]
        for i in range(1, k):
            walk[:, i] = perm[walk[:, i - 1]]
        left, sigma, right_t = np.linalg.svd(np.eye(d) - np.linalg.matrix_power(b, k))
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
                       np.linalg.svd(tied, full_matrices=False)[0]])
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
    identity_residual is (m - s) - (fixed_domain_dim - edge_orbits - f),
    which reduces to rank(F_e^T R F_dom) - rank(R F_dom) for the fixed
    domain basis F_dom and the fixed edge basis F_e.
    equation_residual is the residual of the symmetry equation on the full
    space (see ``verify_symmetry_equation``).
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


def symmetry_counts(fw: CrystalFramework, element: SymmetryElement) -> SymmetryCountReport:
    """Counts of R restricted to the fixed domain, which it maps into the
    fixed edge space spanned by the edge orbits.  Raises DependentBasisError
    when the tolerance makes the two readings of f_g disagree, or leaves
    more fixed rigid motions than fixed flexes.
    """
    tol = fw.tolerance
    d = fw.dimension
    reps = representation_matrices(fw, element)
    full = matrix_space("full", d, tol)
    domain = _restricted_domain_rep(reps, full)

    commutant = commutant_basis(element.linear, tol)
    fixed_domain, fixed_vertex = _fixed_domain(reps, commutant, tol)
    operator = restricted_operator(fw, full)
    equation = _equation_residual(reps, operator, domain)
    rigid = _rigid_space_restricted(fw, full)

    # g maps rigid motions to rigid motions, so f_g is also the fixed
    # dimension of its action on them.
    f = subspace_intersection(rigid, fixed_domain).dim
    action = rigid.basis.T @ domain @ rigid.basis
    acting = rigid.dim - numeric_rank(action - np.eye(rigid.dim), tol)
    if acting != f:
        raise DependentBasisError(
            f"the rigid motions fixed by element {element.name!r} span {acting} "
            f"dimensions, but {f} lie in its fixed domain")

    image = operator @ fixed_domain.basis
    fixed_flexes = fixed_domain.dim - numeric_rank(image, tol)
    if f > fixed_flexes:
        raise DependentBasisError(
            f"the rigid motions fixed by element {element.name!r} span {f} dimensions, "
            f"more than the {fixed_flexes} fixed flexes")
    m = fixed_flexes - f

    labels = _cycles(element.edge_map)
    sizes = np.bincount(labels)
    orbits = len(sizes)
    fixed_edge = np.zeros((fw.edge_count, orbits))
    fixed_edge[np.arange(fw.edge_count), labels] = 1.0 / np.sqrt(sizes[labels])
    s = orbits - numeric_rank(fixed_edge.T @ image, tol)

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
    and any action D, orthogonal or not.  Rigid motions are flexes, so the
    mechanism trace, the trace on the quotient flex / rigid, is
    tr(flex) - tr(rigid).
    """
    reps = representation_matrices(fw, element)
    domain = _restricted_domain_rep(reps, space)
    counts = analyze_counts(fw, space)

    def subspace_trace(action, basis: SubspaceBasis) -> float:
        return float(np.trace(basis.basis.T @ action @ basis.basis))

    vertex_trace = float(np.trace(domain))
    edge_trace = float(np.trace(reps.edge_perm))
    rigid_trace = subspace_trace(domain, counts.rigid_basis)
    mech_trace = subspace_trace(domain, counts.flex_basis) - rigid_trace
    stress_trace = subspace_trace(reps.edge_perm, counts.stress_basis)
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
