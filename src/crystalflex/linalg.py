"""Dense linear algebra with a shared rank-tolerance policy.

Every rank decision in the package goes through this module: a singular
value sigma counts as nonzero when

    sigma > tol * max(1, sigma_max) * max(n_rows, n_cols).

Kernels and cokernels come from one full SVD (``factorize`` returns the
rank, kernel and cokernel of a matrix together), so the returned bases are
orthonormal.  Subspace intersections come from principal angles, with the
threshold the same policy puts on the stacked complement projectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9
MIN_TOL = float(np.finfo(float).eps)     # smaller tolerances sit below binary64 round-off


def _as_matrix(mat) -> np.ndarray:
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    return a


def _effective_tol(singular_values: np.ndarray, shape, tol: float) -> float:
    largest = float(singular_values[0]) if len(singular_values) else 0.0
    return tol * max(1.0, largest) * max(shape[0], shape[1], 1)


def _rank(singular_values: np.ndarray, shape, tol: float) -> int:
    """Number of singular values of a matrix of ``shape`` above the shared threshold."""
    return int(np.sum(singular_values > _effective_tol(singular_values, shape, tol)))


def _canonical_signs(basis: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-magnitude entry is positive.

    Makes SVD-derived bases reproducible for report output.
    """
    if basis.shape[0] == 0:
        return basis.copy()
    lead = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])]
    return np.where(lead < 0, -basis, basis)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal column basis of a linear subspace of R^ambient_dim."""

    ambient_dim: int
    basis: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis shape {b.shape} incompatible with ambient dimension {self.ambient_dim}"
            )
        if b.shape[1] > self.ambient_dim:
            raise ValueError("more basis vectors than the ambient dimension")
        gram = b.T @ b - np.eye(b.shape[1])
        if b.size and np.max(np.abs(gram)) > 100 * self.tol * max(b.shape):
            raise ValueError("basis columns are not orthonormal")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, vectors) -> np.ndarray:
        """Orthogonal projection of column vectors onto the subspace."""
        v = np.asarray(vectors, dtype=float)
        return self.basis @ (self.basis.T @ v)

    def residual(self, vectors) -> float:
        """Largest 2-norm distance of the given columns from the subspace."""
        v = np.atleast_2d(np.asarray(vectors, dtype=float))
        if v.shape[0] != self.ambient_dim:
            v = v.T
        if v.size == 0:
            return 0.0
        return float(np.max(np.linalg.norm(v - self.project(v), axis=0)))

    def contains(self, vectors, factor: float = 10.0) -> bool:
        v = np.atleast_2d(np.asarray(vectors, dtype=float))
        if v.shape[0] != self.ambient_dim:
            v = v.T
        scale = max(1.0, float(np.max(np.abs(v))) if v.size else 0.0)
        return self.residual(v) <= factor * self.tol * scale * self.ambient_dim


def numeric_rank(mat, tol: float = DEFAULT_TOL) -> int:
    m = _as_matrix(mat)
    if min(m.shape) == 0:
        return 0
    return _rank(np.linalg.svd(m, compute_uv=False), m.shape, tol)


def _span(columns: np.ndarray, tol: float) -> SubspaceBasis:
    return SubspaceBasis(columns.shape[0], _canonical_signs(columns), tol)


def _full_svd(mat, tol: float):
    """Rank and the full U and V^T of ``mat`` (identities when it is empty)."""
    m = _as_matrix(mat)
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return 0, np.eye(rows), np.eye(cols)
    u, s, vt = np.linalg.svd(m, full_matrices=True)
    return _rank(s, m.shape, tol), u, vt


class Factorization(NamedTuple):
    """Rank, kernel and cokernel of one matrix, read off a single SVD."""

    rank: int
    kernel: SubspaceBasis
    cokernel: SubspaceBasis


def factorize(mat, tol: float = DEFAULT_TOL) -> Factorization:
    rank, u, vt = _full_svd(mat, tol)
    return Factorization(rank, _span(vt[rank:, :].T, tol), _span(u[:, rank:], tol))


def kernel_basis(mat, tol: float = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the (numerical) null space of ``mat``."""
    rank, _, vt = _full_svd(mat, tol)
    return _span(vt[rank:, :].T, tol)


def cokernel_basis(mat, tol: float = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the left null space (row-dependency space)."""
    rank, u, _ = _full_svd(mat, tol)
    return _span(u[:, rank:], tol)


def column_space_basis(vectors, tol: float = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the span of the given column vectors."""
    m = _as_matrix(vectors)
    rows = m.shape[0]
    if m.shape[1] == 0 or rows == 0:
        return SubspaceBasis(rows, np.zeros((rows, 0)), tol)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return _span(u[:, :_rank(s, m.shape, tol)], tol)


def subspace_intersection(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Intersection of two subspaces, from their principal angles.

    The residual of the smaller operand's basis against the larger one has
    singular values sin(theta) over the principal angles theta (Bjorck and
    Golub); its right singular vectors give the matching directions of the
    smaller operand.  A direction is kept when it would be a kernel vector of
    the stacked complement projectors [I - P_a; I - P_b] under the shared
    rank policy: that 2n x n stack has the singular values
    sqrt(1 - cos(theta)) = sin(theta) / sqrt(1 + cos(theta)), and sqrt(2)
    when the complements meet, so the threshold is the one its SVD would use.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    n = a.ambient_dim
    tol = min(a.tol, b.tol)
    small, large = (a, b) if a.dim <= b.dim else (b, a)
    if small.dim == 0:
        return SubspaceBasis(n, np.zeros((n, 0)), tol)
    residual = small.basis - large.project(small.basis)
    _, sines, vt = np.linalg.svd(residual, full_matrices=False)
    sines = np.minimum(sines, 1.0)
    cosines = np.sqrt(1.0 - sines ** 2)
    stacked = sines / np.sqrt(1.0 + cosines)
    meet = int(np.sum(sines == 0))
    if n > small.dim + large.dim - meet:
        top = np.sqrt(2.0)
    else:
        top = float(np.sqrt(np.max(1.0 + cosines, where=sines > 0, initial=0.0)))
    keep = stacked <= _effective_tol(np.array([top]), (2 * n, n), tol)
    return _span(small.basis @ vt[keep].T, tol)


def complement_within(outer: SubspaceBasis, inner: SubspaceBasis) -> SubspaceBasis:
    """Orthogonal complement of ``inner`` taken inside ``outer``."""
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    residue = outer.basis - inner.project(outer.basis)
    return column_space_basis(residue, min(outer.tol, inner.tol))
