"""Rigidity matrices of periodic frameworks and Maxwell-Calladine counts.

The central object is the affine rigidity operator of a motif.  The row of a
bar evaluates to

    <v, u_from - u_to + A Z q>

where u holds the vertex-class velocities, A is the velocity matrix of the
lattice, v the bar vector and q the integer cell offset between the bar's
endpoints.  Bars joining two copies of the same vertex class have no vertex
term.  ``build_matrices`` assembles the lattice-frame block on vec(A Z), the
Borcea-Streinu form; ``restricted_operator`` composes it with
vec(A Z) = (Z^T kron I) vec A and with the basis of an admissible space E of
velocity matrices.  Every basis, count and decoder of this module is in that
one domain system, (u, coordinates of A in E's basis).

The operator of E is the strict operator R0 (the vertex block) bordered by
the dim E <= d^2 lattice-velocity columns C_E, so one full SVD of R0
(``factor_strict``) serves every admissible space.  ``analyze_counts``
reads each space's counts, and the bases read, off it and a small
factorization of S0^T C_E, S0 the strict stresses.  What it reads is built
once per framework and held in the framework's one set-up store, through
one memo (``_held``): that SVD (``_held_strict``), each named space
(``_held_space``), and each space's border and rigid span under its
stacked basis (``_held_border``, ``_held_rigid``), so the affine mode, the
symmetry counts and ``is_affinely_rigid`` of one framework share one SVD
and one full space.  A ``with_symmetries`` copy shares the store; every
other copy starts with it empty.

A motif that repeats under a finer lattice, as a supercell does, has
translations T = L'/L that permute its vertices and bars; in the real
Fourier basis of their orbits R0 is block-diagonal, one Bloch block Phi(w)
per character of T, each the size of the finer lattice's motif.
``factor_strict`` finds T above BLOCK_MIN_VERTEX_DOF vertex coordinates
and returns R0's SVD as those blocks' SVDs (see ``translations``);
otherwise, and when T is trivial, R0's own SVD as one block.
Either way ``linalg.factorize_bordered`` reads it.

Sign conventions: the velocity of the copy of vertex ``v`` in cell k is
``u_v - A Z k``, and a global rotation with skew generator S corresponds to
(u_v = S p_v, A = -S).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .frameworks import AffineVelocity, CrystalFramework, _ArrayFields
from .linalg import (
    DEFAULT_TOL,
    BlockSVD,
    Factorization,
    SubspaceBasis,
    _kron,
    column_space_basis,
    factorize_bordered,
    full_svd,
    kernel_basis,
    numeric_rank,
    tolerance_refusal,
)

MATRIX_SPACE_NAMES = ("zero", "full", "symmetric", "skew", "diagonal")


def vec(mat) -> np.ndarray:
    """Column-stacked vector of a matrix."""
    return np.asarray(mat, dtype=float).reshape(-1, order="F")


def unvec(v, d: int) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape((d, d), order="F")


class DependentBasisError(ValueError):
    """A MatrixSpace basis is linearly dependent at the space's tolerance."""


@dataclass(frozen=True, eq=False)
class MatrixSpace(_ArrayFields):
    """Linear space of admissible d x d velocity matrices.

    ``stacked`` is the (d^2, dim) matrix whose columns are the column-stacked
    basis matrices, built once with the space.
    """

    dimension: int
    basis: tuple
    name: str = "custom"
    tol: float = DEFAULT_TOL
    stacked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if refusal := tolerance_refusal(self.tol):
            raise ValueError(f"tolerance {refusal}")
        if self.dimension < 1:
            raise ValueError(f"matrix space dimension must be at least 1, got {self.dimension}")
        mats = []
        for b in self.basis:
            m = np.asarray(b, dtype=float)
            if m.shape != (self.dimension, self.dimension):
                raise ValueError(
                    f"basis matrix has shape {m.shape}, expected "
                    f"({self.dimension}, {self.dimension})"
                )
            if not np.isfinite(m).all():
                raise ValueError("basis matrix has a non-finite entry")
            m.setflags(write=False)
            mats.append(m)
        object.__setattr__(self, "basis", tuple(mats))
        stacked = np.column_stack([vec(b) for b in mats]) if mats \
            else np.zeros((self.dimension ** 2, 0))
        stacked.setflags(write=False)
        object.__setattr__(self, "stacked", stacked)
        if numeric_rank(stacked, self.tol) != len(mats):
            raise DependentBasisError("matrix space basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix_from_coordinates(self, coords) -> np.ndarray:
        """0 + c_0 B_0 + c_1 B_1 + ... for one coordinate vector, or the (k, d, d)
        stack of them for k coordinate rows, bitwise equal to the row-by-row calls;
        a 2-D input is always rows, so a (dim, 1) column is refused."""
        c = np.asarray(coords, dtype=float)
        rows = c if c.ndim == 2 else c.reshape(1, -1)
        if rows.shape[1] != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {rows.shape[1]}")
        out = np.zeros((len(rows), self.dimension, self.dimension))
        for cj, b in zip(rows.T, self.basis):
            out = out + cj[:, np.newaxis, np.newaxis] * b
        return out if c.ndim == 2 else out[0]

    def _column_coordinates(self, columns) -> np.ndarray:
        """Coordinates of column-stacked member matrices, from one solve; raises
        ValueError unless each column is reproduced to 100 tol max(1, max|column|)."""
        coords, *_ = np.linalg.lstsq(self.stacked, columns, rcond=None)
        residual = np.max(np.abs(self.stacked @ coords - columns), axis=0)
        if np.any(residual > 100 * self.tol * np.maximum(1.0, np.max(np.abs(columns), axis=0))):
            raise ValueError("matrix is not in the space spanned by the basis")
        return coords


def _skew_generators(d: int) -> list:
    gens = []
    for i, j in itertools.combinations(range(d), 2):
        s = np.zeros((d, d))
        s[j, i], s[i, j] = 1.0, -1.0
        gens.append(s)
    return gens


def matrix_space(name: str, dimension: int, tol: float = DEFAULT_TOL) -> MatrixSpace:
    """Named space of velocity matrices with a Frobenius-orthonormal basis."""
    d = int(dimension)
    if name == "zero":
        basis = []
    elif name == "full":
        basis = []
        for j in range(d):
            for i in range(d):
                m = np.zeros((d, d))
                m[i, j] = 1.0
                basis.append(m)
    elif name == "symmetric":
        basis = [np.diag(np.eye(d)[i]) for i in range(d)]
        for i, j in itertools.combinations(range(d), 2):
            m = np.zeros((d, d))
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(m)
    elif name == "skew":
        basis = [s / np.sqrt(2.0) for s in _skew_generators(d)]
    elif name == "diagonal":
        basis = [np.diag(np.eye(d)[i]) for i in range(d)]
    else:
        raise ValueError(f"unknown matrix space {name!r}; known: {', '.join(MATRIX_SPACE_NAMES)}")
    return MatrixSpace(d, tuple(basis), name=name, tol=tol)


@dataclass(frozen=True)
class RigidityMatrices:
    """Vertex block (bars x vertex dof) and lattice-frame block (bars x d^2)."""

    vertex_block: np.ndarray
    affine_block: np.ndarray


def _affine_block(fw: CrystalFramework, vectors: np.ndarray) -> np.ndarray:
    """The lattice-frame block X (bars x d^2): row e is offset_e kron v_e."""
    d = fw.dimension
    block = (fw.edges.offsets[:, :, np.newaxis] * vectors[:, np.newaxis, :]).reshape(-1, d * d)
    block.setflags(write=False)
    return block


def build_matrices(fw: CrystalFramework) -> RigidityMatrices:
    """Assemble the rigidity blocks of a framework."""
    d, n, m = fw.dimension, fw.vertex_count, fw.edge_count
    ends, vectors = fw.edges.ends, fw._edge_vectors
    # Bars joining two copies of one vertex class keep a zero vertex row.
    bars = np.flatnonzero(ends[:, 0] != ends[:, 1])
    vertex_block = np.zeros((m, n, d))
    vertex_block[bars, ends[bars, 0]] = vectors[bars]
    vertex_block[bars, ends[bars, 1]] = -vectors[bars]
    vertex_block = vertex_block.reshape(m, n * d)
    vertex_block.setflags(write=False)
    return RigidityMatrices(vertex_block, _affine_block(fw, vectors))


def _check_dimension(fw: CrystalFramework, space: MatrixSpace) -> None:
    if space.dimension != fw.dimension:
        raise ValueError(
            f"matrix space dimension {space.dimension} != framework dimension {fw.dimension}"
        )


def _lattice_columns(fw: CrystalFramework, space: MatrixSpace) -> np.ndarray:
    """The border C_E = X L: L maps the j-th basis matrix A_j to vec(A_j Z),
    and vec(A Z) = (Z^T kron I) vec A."""
    _check_dimension(fw, space)
    affine_block = _affine_block(fw, fw._edge_vectors)
    columns = affine_block @ (_kron(fw.lattice.matrix.T, np.eye(fw.dimension)) @ space.stacked)
    columns.setflags(write=False)
    return columns


def _held(fw: CrystalFramework, key, build):
    """``build()``, called on the first read of ``key`` and then read from the
    framework's set-up store ``fw._setups``, which a ``with_symmetries`` copy
    shares and every other copy starts empty."""
    setups = fw._setups
    if key not in setups:
        setups[key] = build()
    return setups[key]


def _held_strict(fw: CrystalFramework) -> BlockSVD:
    """R0's SVD, ``factor_strict``'s BlockSVD, held by the framework."""
    return _held(fw, "strict SVD", lambda: factor_strict(fw))


def _held_space(fw: CrystalFramework, name: str) -> MatrixSpace:
    """``matrix_space(name)`` at the framework's dimension and tolerance, held by the framework."""
    return _held(fw, ("space", name), lambda: matrix_space(name, fw.dimension, fw.tolerance))


def _held_border(fw: CrystalFramework, space: MatrixSpace) -> np.ndarray:
    """The space's border C_E (``_lattice_columns``), held by the framework
    under the space's stacked basis, its shape included, so every space with
    that basis, named or not, reads the same one."""
    return _held(fw, ("border", space.stacked.shape, space.stacked.tobytes()),
                 lambda: _lattice_columns(fw, space))


def _held_rigid(fw: CrystalFramework, space: MatrixSpace) -> SubspaceBasis:
    """The space's rigid span (``rigid_motion_space``), held like its border."""
    return _held(fw, ("rigid span", space.stacked.shape, space.stacked.tobytes()),
                 lambda: rigid_motion_space(fw, space))


def restricted_operator(fw: CrystalFramework, space: MatrixSpace) -> np.ndarray:
    """Dense operator on (u, coords-in-space), for inspection and tests: [vertex block | X L].

    L maps the j-th basis matrix A_j to vec(A_j Z), so kernel vectors carry
    velocity-matrix coordinates directly in the given basis.
    """
    return np.hstack([build_matrices(fw).vertex_block, _lattice_columns(fw, space)])


def rigid_motion_space(fw: CrystalFramework, space: MatrixSpace) -> SubspaceBasis:
    """Admissible rigid motions in (u, coords-in-space) coordinates.

    The d translations have c = 0.  The rotations are the kernel of
    c -> vec(M(c) + M(c)^T), where M(c) is the matrix with coordinates c in
    the space's basis: each kernel vector c gives the skew A = M(c) and the
    velocities u_v = -A (p_v - p_bar) about the vertex centroid p_bar.
    These differ from -A p_v by a translation, so the span is the same, but
    the columns do not grow with the distance of the motif from the origin.
    """
    d, n = fw.dimension, fw.vertex_count
    cols = [np.concatenate([np.tile(np.eye(d)[i], n), np.zeros(space.dim)]) for i in range(d)]
    # Rows reordered by this index turn vec(B) into vec(B^T).
    transpose = np.arange(d * d).reshape(d, d).reshape(-1, order="F")
    symmetric_part = space.stacked + space.stacked[transpose]
    centred = fw.positions - fw.positions.mean(axis=0) if n else fw.positions
    for c in kernel_basis(symmetric_part, fw.tolerance).basis.T:
        a = unvec(space.stacked @ c, d)
        cols.append(np.concatenate([-(centred @ a.T).reshape(-1), c]))
    rigid = column_space_basis(np.column_stack(cols), fw.tolerance)
    if n and rigid.dim < d:
        # The d translations are rigid motions of every framework with a
        # vertex, so a rank below d means the tolerance hides their
        # singular values.
        raise DependentBasisError(
            f"the rigid motions span {rigid.dim} dimensions, fewer than the {d} translations")
    return rigid


@dataclass(frozen=True)
class CountReport:
    """Mechanism/stress/rigid-motion dimensions and the counting identity.

    identity_residual is (m - s) - (vertex_dof + space_dim - edge_count - f),
    zero by rank-nullity: m and s read one factorization.  flex_basis, stress_basis
    and rigid_basis are the kernel, cokernel and rigid motions the counts were
    read from, in restricted (u, coords-in-space) coordinates; the first two
    are the factorization's.  s is |Fe| minus the rank, and stress_basis the
    cokernel, built on first read.
    """

    space_name: str
    vertex_dof: int
    space_dim: int
    edge_count: int
    mechanisms: int
    stresses: int
    rigid_motions: int
    identity_residual: int
    factorization: Factorization = field(compare=False, repr=False)
    rigid_basis: SubspaceBasis = field(compare=False, repr=False)
    flags: tuple = ()

    @property
    def flex_basis(self) -> SubspaceBasis:
        return self.factorization.kernel

    @property
    def stress_basis(self) -> SubspaceBasis:
        return self.factorization.cokernel


# Below this many vertex coordinates d|Fv| the dense SVD of R0 costs less
# than finding the motif's translations and assembling its Bloch blocks.
BLOCK_MIN_VERTEX_DOF = 150


def factor_strict(fw: CrystalFramework) -> BlockSVD:
    """R0's SVD, as Bloch blocks when d|Fv| is at least BLOCK_MIN_VERTEX_DOF
    and the motif repeats under a finer lattice; otherwise one dense block.
    Read it as ``_held_strict(fw)``, which computes it once per framework."""
    if fw.dimension * fw.vertex_count >= BLOCK_MIN_VERTEX_DOF and fw.edge_count:
        # Smaller operators never need the module; it imports symmetry,
        # which imports this one.
        from .translations import _bloch_blocks, _find_translations
        vectors = fw._edge_vectors
        group = _find_translations(fw, vectors)
        if group is not None:
            return _bloch_blocks(fw, vectors, group)
    return BlockSVD.of(full_svd(build_matrices(fw).vertex_block))


def analyze_counts(fw: CrystalFramework, space: MatrixSpace) -> CountReport:
    """Counts and bases in ``space``, from R0's SVD bordered by C_E; the SVD,
    the border and the rigid span are the framework's held ones."""
    factorization = factorize_bordered(_held_strict(fw), _held_border(fw, space), fw.tolerance)
    flex, rigid = factorization.kernel, _held_rigid(fw, space)
    f = rigid.dim
    if f > flex.dim:
        raise DependentBasisError(
            f"the rigid motions span {f} dimensions, more than the {flex.dim} flexes")
    m = flex.dim - f
    s = fw.edge_count - factorization.rank
    d, n = fw.dimension, fw.vertex_count
    residual = (m - s) - (d * n + space.dim - fw.edge_count - f)
    flags = []
    if rigid.dim and not flex.contains(rigid.basis):
        flags.append("rigid motions are not contained in the flex space; "
                     "the framework geometry is inconsistent")
    return CountReport(
        space_name=space.name,
        vertex_dof=d * n,
        space_dim=space.dim,
        edge_count=fw.edge_count,
        mechanisms=m,
        stresses=s,
        rigid_motions=f,
        identity_residual=residual,
        factorization=factorization,
        rigid_basis=rigid,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class AffineRigidityCheck:
    is_rigid: bool
    rank: int
    required_rank: int


def is_affinely_rigid(fw: CrystalFramework) -> AffineRigidityCheck:
    """Full-space rigidity test: rank must reach vertex dof + rotation count.

    The rank is read off the full-space counts, so it is the one the
    reports print: vertex dof + d^2 - (m + f).
    """
    d = fw.dimension
    counts = analyze_counts(fw, _held_space(fw, "full"))
    rank = counts.vertex_dof + counts.space_dim - counts.flex_basis.dim
    required = d * fw.vertex_count + d * (d - 1) // 2
    return AffineRigidityCheck(is_rigid=(rank == required), rank=rank, required_rank=required)


def velocity_from_mode_coordinates(fw: CrystalFramework, space: MatrixSpace, vector) -> AffineVelocity:
    """Decode a restricted (u, coords-in-space) vector into an AffineVelocity."""
    d, n = fw.dimension, fw.vertex_count
    x = np.asarray(vector, dtype=float).reshape(-1)
    if x.shape != (d * n + space.dim,):
        raise ValueError(f"expected a vector of length {d * n + space.dim}, got {x.shape[0]}")
    if not np.isfinite(x).all():
        raise ValueError("vector has a non-finite entry")
    u = x[:d * n].reshape((n, d))
    return AffineVelocity(u, space.matrix_from_coordinates(x[d * n:]))


def edge_deviation(fw: CrystalFramework, velocity: AffineVelocity, t: float) -> float:
    """Largest bar-length change under the finite motion of size t.

    The motion places the copy of vertex v in cell k at

        p_v + t u_v + (I + t A)^{-1} Z k,

    whose derivative at t = 0 is the periodic extension u_v - A Z k.  For
    genuine flexes the result is O(t^2); pure translations move every bar
    isometrically, so they give 0 up to round-off.
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    d = fw.dimension
    if velocity.dimension != d or velocity.vertex_velocities.shape[0] != fw.vertex_count:
        raise ValueError("velocity shape does not match the framework")
    flow = np.eye(d) + t * velocity.distortion
    if abs(np.linalg.det(flow)) <= fw.tolerance:
        raise ValueError("I + t*A is singular; reduce t")
    frame = np.linalg.solve(flow, fw.lattice.matrix)

    # The bar vector grows by t (u_from - u_to) and by (frame - Z) applied
    # to the from-cell minus the to-cell, which is -offset.
    ends, offsets, vectors = fw.edges.ends, fw.edges.offsets, fw._edge_vectors
    u = velocity.vertex_velocities
    moved = vectors + t * (u[ends[:, 0]] - u[ends[:, 1]]) - offsets @ (frame - fw.lattice.matrix).T
    change = np.linalg.norm(vectors, axis=1) - np.linalg.norm(moved, axis=1)
    return float(np.max(np.abs(change), initial=0.0))
