"""Dense linear algebra with a shared rank-tolerance policy.

Every rank decision in the package goes through this module: a singular
value sigma of a matrix counts as nonzero when

    sigma > tol * max(1, sigma_max) * max(n_rows, n_cols).

Kernels and cokernels are read off SVDs with orthonormal columns.
``factorize_bordered`` reads those of a bordered matrix [A | C], with C a
few columns wide (or none), off the full SVD of A and one small
factorization of the border, so one SVD of A serves every border.  Its
threshold puts the bound hypot(sigma_max(A), ||C||_2) >= sigma_max([A | C])
in place of sigma_max.  A's SVD is given block by block (``BlockSVD``), for
A orthogonally equivalent to a block-diagonal matrix, or as one block
(``BlockSVD.of``); the singular values of all blocks are pooled under the
one threshold of the whole matrix.
Subspace intersections come from principal angles, with the threshold the
same policy puts on the stacked complement projectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9
MIN_TOL = float(np.finfo(float).eps)     # smaller tolerances sit below binary64 round-off


def tolerance_refusal(tol) -> str | None:
    """Why ``tol`` is refused as a rank tolerance, or None: it must be positive, finite
    as a float (an integer past the floats is not) and at least MIN_TOL."""
    if not 0 < tol <= float(np.finfo(float).max):
        return "must be positive and finite"
    return f"must be at least {MIN_TOL:.2g}" if tol < MIN_TOL else None


def _as_matrix(mat) -> np.ndarray:
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    return a


def _threshold(largest: float, shape, tol: float) -> float:
    return tol * max(1.0, largest) * max(shape[0], shape[1], 1)


def _kept(singular_values: np.ndarray, shape, tol: float, largest: float) -> np.ndarray:
    """Which singular values lie above the shared threshold of a matrix of
    ``shape`` whose largest singular value is ``largest``."""
    return singular_values > _threshold(largest, shape, tol)


def _rank(singular_values: np.ndarray, shape, tol: float, largest=None) -> int:
    """Number of singular values above the shared threshold of a matrix of
    ``shape`` whose largest singular value is ``largest`` (by default the
    first of ``singular_values``; a border passes its bound)."""
    if largest is None:
        largest = float(singular_values[0]) if len(singular_values) else 0.0
    return int(np.sum(_kept(singular_values, shape, tol, largest)))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two square matrices as one broadcast product:
    the products numpy's ``kron`` takes, without its general-shape set-up."""
    (p, _), (q, _) = a.shape, b.shape
    return (a[:, np.newaxis, :, np.newaxis] * b[np.newaxis, :, np.newaxis, :]).reshape(p * q, p * q)


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

    def contains(self, vectors) -> bool:
        scale = max(1.0, float(np.max(np.abs(np.asarray(vectors, dtype=float)), initial=0.0)))
        return self.residual(vectors) <= 10 * self.tol * scale * self.ambient_dim


def _svd(m: np.ndarray, what: str, full_matrices: bool = True, compute_uv: bool = True):
    """``np.linalg.svd`` of ``m``, a matrix or a stack of them, refusing by a
    ValueError naming ``what`` a matrix with a non-finite entry or norm:
    LAPACK then fails to converge, or returns a largest singular value that
    is not finite, which is the one value tested."""
    try:
        out = np.linalg.svd(m, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        out = None
    sigma = None if out is None else out[1] if compute_uv else out
    if sigma is None or not np.isfinite(sigma[..., :1]).all():
        raise ValueError(f"{what}: an entry or the norm is not finite")
    return out


def numeric_rank(mat, tol: float = DEFAULT_TOL) -> int:
    m = _as_matrix(mat)
    if min(m.shape) == 0:
        return 0
    return _rank(_svd(m, "mat", compute_uv=False), m.shape, tol)


def _span(columns: np.ndarray, tol: float) -> SubspaceBasis:
    return SubspaceBasis(columns.shape[0], columns, tol)


class FullSVD(NamedTuple):
    """Full SVD of one matrix: ``u`` (rows x rows), the singular values in
    descending order and ``vt`` (cols x cols)."""

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray


def full_svd(mat) -> FullSVD:
    """Full SVD of ``mat``; identities and no singular values when it is empty."""
    m = _as_matrix(mat)
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return FullSVD(np.eye(rows), np.zeros(0), np.eye(cols))
    return FullSVD(*_svd(m, "mat"))


@dataclass(frozen=True)
class Factorization:
    """Rank, kernel and cokernel of one matrix, with orthonormal bases; the
    cokernel is built on first read."""

    rank: int
    kernel: SubspaceBasis
    build_cokernel: Callable[[], SubspaceBasis] = field(repr=False, compare=False)

    @cached_property
    def cokernel(self) -> SubspaceBasis:
        return self.build_cokernel()


class BlockSVD(NamedTuple):
    """Full SVD of A = P diag(A_1, ..., A_N) Q^T, held block by block.

    ``batches`` holds the full SVDs of the diagonal blocks in order, one
    FullSVD of stacked arrays per run of equally shaped blocks: u (k, a, a),
    the singular values (k, min(a, b)), each row descending, and vt
    (k, b, b).  ``rows`` and ``cols`` are the orthogonal P and Q, or None
    for the identity; each has ``to_blocks(x)`` (P^T x) and
    ``from_blocks(y)`` (P y) for a stack of columns.
    """

    batches: tuple
    rows: object = None
    cols: object = None

    @classmethod
    def of(cls, svd: FullSVD) -> "BlockSVD":
        """One matrix as its own single block."""
        return cls((FullSVD(*(x[np.newaxis] for x in svd)),))

    @property
    def shape(self) -> tuple:
        return (sum(u.shape[0] * u.shape[1] for u, _, _ in self.batches),
                sum(vt.shape[0] * vt.shape[1] for _, _, vt in self.batches))

    @property
    def largest(self) -> float:
        """sigma_max(A), the largest singular value of any block."""
        return max((float(np.max(s)) for _, s, _ in self.batches if s.size), default=0.0)


def border_bound(blocks: BlockSVD, border) -> float:
    """hypot(sigma_max(A), ||C||_2) for the SVD of A, held as ``blocks``,
    and the border C.

    It bounds sigma_max([A | C]) from above: for a unit vector (x, z),
    |A x + C z| <= sigma_max(A) |x| + ||C||_2 |z| <= the bound, by
    Cauchy-Schwarz.  ||C||_2 comes from the dim C x dim C Gram matrix, so
    it is the same in any orthonormal coordinates of C's rows.
    """
    largest = blocks.largest
    c = _as_matrix(border)
    if c.size == 0:
        return largest
    norm = np.sqrt(max(float(np.linalg.eigvalsh(c.T @ c)[-1]), 0.0))
    return float(np.hypot(largest, norm))


def _dropped(vectors: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The singular vectors past each block's ``kept`` first ones, as the
    columns of the block-diagonal matrix they make: ``vectors`` is (k, p, p),
    with the j-th vector of block i in ``vectors[i, :, j]``."""
    k, p = vectors.shape[:2]
    if k == 1:     # a view, as the slice of a dense SVD is
        return vectors[0, :, kept[0]:]
    block, index = np.nonzero(np.arange(p) >= kept[:, np.newaxis])
    out = np.zeros((k, p, len(block)))
    out[block, :, np.arange(len(block))] = vectors[block, :, index]
    return out.reshape(k * p, len(block))


def _block_diagonal(parts) -> np.ndarray:
    """The block-diagonal matrix of the given 2-D parts."""
    if len(parts) == 1:
        return parts[0]
    out = np.zeros((sum(p.shape[0] for p in parts), sum(p.shape[1] for p in parts)))
    rows = cols = 0
    for p in parts:
        out[rows:rows + p.shape[0], cols:cols + p.shape[1]] = p
        rows, cols = rows + p.shape[0], cols + p.shape[1]
    return out


def _rows_of(blocks: BlockSVD, x: np.ndarray) -> list:
    """x split into one (k, a, ...) stack per batch of row blocks of size a."""
    parts, start = [], 0
    for u, _, _ in blocks.batches:
        k, a = u.shape[:2]
        parts.append(x[start:start + k * a].reshape(k, a, x.shape[1]))
        start += k * a
    return parts


def factorize_bordered(blocks: BlockSVD, border, tol: float = DEFAULT_TOL) -> Factorization:
    """Rank, kernel and cokernel of [A | C] from the full SVD of A, held
    block by block as ``blocks``.

    With the threshold of the shared rule for the shape of [A | C] and the
    bound ``border_bound`` in place of its sigma_max, r singular values of
    A are kept: pooled over all blocks, r_i of block i.  S = U[:, r:] spans
    A's cokernel (the dropped left singular vectors of every block) and
    B = S^T C (s x q) is the part of the border A cannot reach.  Then

    - the rank is r + rank B;
    - the cokernel is S times the left null space of B, built on first read;
    - the kernel is (V[:, r:], 0) plus the lifts (-A^+ C z, z) for z in
      ker B, orthonormalised.  A^+ C z lies in A's row space, so the lifts
      are orthogonal to the first block.

    B is factored as a QR and the SVD of its q x q (at most) triangle, so no
    SVD as tall as A is taken.  An empty border gives A's own factorization.
    The formulas run in the blocks' coordinates, C moved into them by P^T
    and the bases moved back by P and Q; for a single block and identity
    maps they are the dense formulas, operation for operation.
    """
    c = _as_matrix(border)
    (rows, cols), q = blocks.shape, c.shape[1]
    if c.shape[0] != rows:
        raise ValueError(f"border has {c.shape[0]} rows, the matrix {rows}")
    shape = (rows, cols + q)
    bound = border_bound(blocks, c)
    r, kept, null = 0, [], []
    for u, s, vt in blocks.batches:
        keep = _kept(s, shape, tol, bound)
        kept.append(np.sum(keep, axis=1))
        r += int(np.sum(keep))
        null.append(_dropped(np.swapaxes(vt, 1, 2), kept[-1]))
    null = _block_diagonal(null)

    def kernel_back(basis):
        if blocks.cols is None:
            return basis
        return np.vstack([blocks.cols.from_blocks(basis[:cols]), basis[cols:]])

    def cokernel(left_null=None):
        conull = _block_diagonal([_dropped(u, k) for (u, _, _), k in zip(blocks.batches, kept)])
        basis = conull if left_null is None else conull @ left_null
        return _span(basis if blocks.rows is None else blocks.rows.from_blocks(basis), tol)

    if q == 0:
        return Factorization(r, _span(kernel_back(null), tol), cokernel)

    hat = c if blocks.rows is None else blocks.rows.to_blocks(c)
    # U^T C block by block; the rows past each block's kept ones stack into B.
    reached = [np.swapaxes(u, 1, 2) @ part
               for (u, _, _), part in zip(blocks.batches, _rows_of(blocks, hat))]
    drop = [np.arange(part.shape[1]) >= k[:, np.newaxis] for part, k in zip(reached, kept)]
    q_b, r_b = np.linalg.qr(np.vstack([part[d] for part, d in zip(reached, drop)]), mode="complete")
    k = min(r_b.shape)
    top_u, top_s, top_vt = full_svd(r_b[:k])
    rank_b = _rank(top_s, shape, tol, bound)
    kernel_b = top_vt[rank_b:].T

    lifted = []
    for (_, s, vt), part, k_i in zip(blocks.batches, reached, kept):
        p = int(np.max(k_i, initial=0))
        keep = np.arange(p) < k_i[:, np.newaxis]      # A^+ reads each block's kept values only
        scaled = part[:, :p] @ kernel_b / np.where(keep, s[:, :p], 1.0)[..., np.newaxis]
        scaled[~keep] = 0.0
        lifted.append((np.swapaxes(vt[:, :p], 1, 2) @ scaled).reshape(vt.shape[0] * vt.shape[1],
                                                                      kernel_b.shape[1]))
    lifts, _ = np.linalg.qr(np.vstack([-np.vstack(lifted), kernel_b]))
    kernel = np.hstack([np.vstack([null, np.zeros((q, cols - r))]), lifts])
    return Factorization(r + rank_b, _span(kernel_back(kernel), tol),
                         lambda: cokernel(np.hstack([q_b[:, :k] @ top_u[:, rank_b:], q_b[:, k:]])))


def kernel_basis(mat, tol: float = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the (numerical) null space of ``mat``.  Only V is
    read, so a matrix with at least as many rows as columns (and one or more
    columns) takes the thin SVD, whose V is already square."""
    m = _as_matrix(mat)
    rows, cols = m.shape
    _, s, vt = _svd(m, "mat", full_matrices=False) if rows >= cols > 0 else full_svd(m)
    return _span(vt[_rank(s, m.shape, tol):].T, tol)


def column_space_basis(vectors, tol: float = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the span of the given column vectors."""
    m = _as_matrix(vectors)
    rows = m.shape[0]
    if m.shape[1] == 0 or rows == 0:
        return SubspaceBasis(rows, np.zeros((rows, 0)), tol)
    u, s, _ = _svd(m, "vectors", full_matrices=False)
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
    _, sines, vt = _svd(residual, "residual", full_matrices=False)
    sines = np.minimum(sines, 1.0)
    cosines = np.sqrt(1.0 - sines ** 2)
    stacked = sines / np.sqrt(1.0 + cosines)
    meet = int(np.sum(sines == 0))
    if n > small.dim + large.dim - meet:
        top = np.sqrt(2.0)
    else:
        top = float(np.sqrt(np.max(1.0 + cosines, where=sines > 0, initial=0.0)))
    keep = stacked <= _threshold(top, (2 * n, n), tol)
    return _span(small.basis @ vt[keep].T, tol)


def complement_within(outer: SubspaceBasis, inner: SubspaceBasis) -> SubspaceBasis:
    """Orthogonal complement of ``inner`` taken inside ``outer``."""
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    residue = outer.basis - inner.project(outer.basis)
    return column_space_basis(residue, min(outer.tol, inner.tol))
