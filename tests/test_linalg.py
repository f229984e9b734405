from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from crystalflex.fileio import _canonical_signs
from crystalflex.linalg import (
    BlockSVD,
    SubspaceBasis,
    border_bound,
    column_space_basis,
    complement_within,
    factorize_bordered,
    full_svd,
    kernel_basis,
    numeric_rank,
    subspace_intersection,
)
from oracles import dense_factorization


def test_rank_of_zero_matrix():
    z = np.zeros((2, 2))
    assert numeric_rank(z) == 0
    assert kernel_basis(z).dim == 2
    assert dense_factorization(z).cokernel.dim == 2


def test_rank_kernel_cokernel_dimensions_add_up(rng):
    for _ in range(20):
        rows, cols = rng.integers(1, 7, 2)
        r = int(rng.integers(0, min(rows, cols) + 1))
        a = rng.normal(size=(rows, r)) @ rng.normal(size=(r, cols)) if r else np.zeros((rows, cols))
        assert numeric_rank(a) == r
        assert kernel_basis(a).dim + r == cols
        assert dense_factorization(a).cokernel.dim + r == rows


def test_kernel_vectors_annihilated(rng):
    a = rng.normal(size=(4, 6))
    k = kernel_basis(a)
    assert k.dim == 2
    assert_allclose(a @ k.basis, 0, atol=1e-12)
    gram = k.basis.T @ k.basis
    assert_allclose(gram, np.eye(k.dim), atol=1e-12)


def test_cokernel_vectors_annihilate_rows(rng):
    a = rng.normal(size=(6, 4))
    c = dense_factorization(a).cokernel
    assert c.dim == 2
    assert_allclose(c.basis.T @ a, 0, atol=1e-12)


def test_empty_shapes():
    assert numeric_rank(np.zeros((0, 3))) == 0
    assert kernel_basis(np.zeros((0, 3))).dim == 3
    assert dense_factorization(np.zeros((0, 3))).cokernel.dim == 0
    assert kernel_basis(np.zeros((3, 0))).dim == 0
    assert dense_factorization(np.zeros((3, 0))).cokernel.dim == 3


def test_rank_tolerance_scales_with_magnitude():
    a = np.diag([1e6, 1e-12])
    assert numeric_rank(a, tol=1e-9) == 1
    assert numeric_rank(np.diag([1.0, 0.5]), tol=1e-9) == 2


def test_subspace_basis_rejects_nonorthonormal():
    with pytest.raises(ValueError):
        SubspaceBasis(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_subspace_contains_and_residual():
    b = SubspaceBasis(3, np.eye(3)[:, :2])
    assert b.contains(np.array([1.0, 2.0, 0.0]))
    assert not b.contains(np.array([0.0, 0.0, 1.0]))
    assert b.residual(np.array([[0.0], [0.0], [2.0]])) == pytest.approx(2.0)
    assert b.residual(np.array([[0.0, 0.0, 2.0]])) == pytest.approx(2.0)


def test_subspace_intersection():
    xy = SubspaceBasis(3, np.eye(3)[:, :2])
    yz = SubspaceBasis(3, np.eye(3)[:, 1:])
    meet = subspace_intersection(xy, yz)
    assert meet.dim == 1
    assert_allclose(np.abs(meet.basis[:, 0]), [0, 1, 0], atol=1e-12)


def stacked_projector_intersection(a, b):
    """Kernel of the stacked complement projectors (reference)."""
    n = a.ambient_dim
    stacked = np.vstack([np.eye(n) - a.basis @ a.basis.T, np.eye(n) - b.basis @ b.basis.T])
    return kernel_basis(stacked, min(a.tol, b.tol))


def _rotated(columns, rng):
    """An orthonormal basis of the same span, mixed by a random rotation."""
    if columns.shape[1] == 0:
        return columns
    mix, _ = np.linalg.qr(rng.normal(size=(columns.shape[1],) * 2))
    return columns @ mix


@st.composite
def planted_pairs(draw):
    """Orthonormal pairs meeting in k dimensions, all other principal angles >= 1e-3."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n))
    p = draw(st.integers(k, n))
    q = draw(st.integers(k, n - p + k))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    frame, _ = np.linalg.qr(rng.normal(size=(n, n)))
    own_a, free = frame[:, k:p], frame[:, p:]
    paired = min(p - k, q - k)
    angles = np.array(draw(st.lists(st.floats(1e-3, np.pi / 2), min_size=paired, max_size=paired)))
    tilted = np.cos(angles) * own_a[:, :paired] + np.sin(angles) * free[:, :paired]
    own_b = np.hstack([tilted, free[:, paired:paired + q - k - paired]])
    a = SubspaceBasis(n, _rotated(np.hstack([frame[:, :k], own_a]), rng))
    b = SubspaceBasis(n, _rotated(np.hstack([frame[:, :k], own_b]), rng))
    return a, b, k


@settings(max_examples=300, deadline=None)
@given(planted_pairs())
def test_intersection_matches_the_stacked_projector_kernel(pair):
    a, b, k = pair
    meet = subspace_intersection(a, b)
    assert meet.dim == stacked_projector_intersection(a, b).dim == k
    assert subspace_intersection(b, a).dim == k
    assert_allclose(meet.basis.T @ meet.basis, np.eye(k), atol=1e-12)
    assert a.contains(meet.basis) and b.contains(meet.basis)


@pytest.mark.parametrize("n, tol, k", [(2, 0.2, 0), (3, 0.12, 1)])
def test_intersection_threshold_reads_the_stacks_largest_value(n, tol, k):
    # Two lines 80 degrees apart.  The stack's value sqrt(1 - cos) for their
    # pair lies between the thresholds that sqrt(2) and sqrt(1 + cos) put on
    # it.  In the plane the complements do not meet, so sqrt(1 + cos) is the
    # stack's largest value and the lines do not meet; in space the
    # complements meet in sqrt(2), and the pair counts as met.
    theta = np.radians(80)
    a = SubspaceBasis(n, np.eye(n)[:, :1], tol)
    b = SubspaceBasis(n, np.cos(theta) * np.eye(n)[:, :1] + np.sin(theta) * np.eye(n)[:, 1:2], tol)
    assert subspace_intersection(a, b).dim == stacked_projector_intersection(a, b).dim == k


def test_complement_within():
    whole = SubspaceBasis(3, np.eye(3))
    line = SubspaceBasis(3, np.eye(3)[:, :1])
    comp = complement_within(whole, line)
    assert comp.dim == 2
    assert_allclose(comp.basis.T @ line.basis, 0, atol=1e-12)


def test_column_space_basis_collapses_dependent_columns(rng):
    v = rng.normal(size=(5, 1))
    spanning = np.hstack([v, 2 * v, -v])
    assert column_space_basis(spanning).dim == 1


def canonical_signs_loop(basis):
    """Reference: flip each column whose first largest-magnitude entry is negative."""
    out = basis.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0:
            out[:, j] = -col
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.data())
def test_canonical_signs_match_the_column_loop(rows, cols, data):
    # Small integers make ties of magnitude common: the first maximum decides.
    entries = data.draw(st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 0.3, -0.7]),
                                 min_size=rows * cols, max_size=rows * cols))
    basis = np.array(entries).reshape(rows, cols)
    got = _canonical_signs(basis)
    assert got.shape == basis.shape
    assert got.tobytes() == canonical_signs_loop(basis).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 7), st.integers(0, 6), st.integers(0, 4), st.data())
def test_bordered_factorization_matches_the_whole_matrix(rows, cols, q, data):
    # [A | C] with A of planted rank and C partly in A's column space.
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    r = data.draw(st.integers(0, min(rows, cols)))
    a = rng.normal(size=(rows, r)) @ rng.normal(size=(r, cols))
    c = np.hstack([a @ rng.normal(size=(cols, q // 2)), rng.normal(size=(rows, q - q // 2))])
    bordered = factorize_bordered(BlockSVD.of(full_svd(a)), c)
    whole = dense_factorization(np.hstack([a, c]))
    assert bordered.rank == whole.rank
    for got, want in [(bordered.kernel, whole.kernel), (bordered.cokernel, whole.cokernel)]:
        assert got.dim == want.dim
        assert_allclose(got.basis @ got.basis.T, want.basis @ want.basis.T, atol=1e-9)
    sigma = np.linalg.svd(np.hstack([a, c]), compute_uv=False) if rows and cols + q else [0.0]
    assert border_bound(BlockSVD.of(full_svd(a)), c) >= sigma[0] * (1 - 1e-12)


def test_border_must_match_the_rows():
    with pytest.raises(ValueError, match="rows"):
        factorize_bordered(BlockSVD.of(full_svd(np.eye(3))), np.zeros((2, 1)))


@pytest.mark.parametrize("small, border, rank", [
    # Kept by A's own threshold (2 tol) but not by the bordered shape's (3 tol).
    (0.0025, [[0.0], [0.0]], 1),
    # Below 3 tol sigma_hat = 3 sqrt(2) tol, though above 3 tol sigma_max(A).
    (0.0035, [[1.0], [0.0]], 1),
    (0.0045, [[1.0], [0.0]], 2)])
def test_border_threshold_reads_the_bordered_shape_and_bound(small, border, rank):
    a = np.diag([1.0, small])
    assert dense_factorization(a, 1e-3).rank == 2
    bordered = factorize_bordered(BlockSVD.of(full_svd(a)), np.array(border), 1e-3)
    assert bordered.rank == dense_factorization(np.hstack([a, border]), 1e-3).rank == rank


@pytest.mark.parametrize("q", [0, 1])
def test_cokernel_is_built_on_first_read_and_cached(rng, q):
    a = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 4))
    built = []
    f = factorize_bordered(BlockSVD.of(full_svd(a)), rng.normal(size=(6, q)))
    f = replace(f, build_cokernel=lambda build=f.build_cokernel: built.append(1) or build())
    assert f.rank == 2 + q and f.kernel.dim == 4 + q - f.rank and built == []
    cokernel = f.cokernel
    assert cokernel is f.cokernel
    assert cokernel.dim == 6 - f.rank
    assert len(built) == 1
    assert_allclose(cokernel.basis.T @ a, 0, atol=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda: numeric_rank(np.ones(3)), "expected a 2-d array, got shape (3,)"),
    (lambda: SubspaceBasis(2, np.ones((3, 1))), "basis shape (3, 1) incompatible with ambient dimension 2"),
    (lambda: SubspaceBasis(2, np.ones((2, 3))), "more basis vectors than the ambient dimension"),
    (lambda: subspace_intersection(SubspaceBasis(2, np.eye(2)), SubspaceBasis(3, np.eye(3))),
     "subspaces live in different ambient spaces"),
    (lambda: complement_within(SubspaceBasis(2, np.eye(2)), SubspaceBasis(3, np.eye(3))),
     "subspaces live in different ambient spaces"),
    # Once a rank of 0, a wrong kernel, or numpy's "SVD did not converge".
    (lambda: numeric_rank([[np.inf, 1.0]]), "mat: an entry or the norm is not finite"),
    (lambda: kernel_basis([[np.nan, 1.0]]), "mat: an entry or the norm is not finite"),
    (lambda: kernel_basis([[np.inf, 1.0]]), "mat: an entry or the norm is not finite"),
    (lambda: kernel_basis([[np.nan], [1.0]]), "mat: an entry or the norm is not finite"),
    (lambda: column_space_basis([[np.nan], [1.0]]), "vectors: an entry or the norm is not finite"),
    (lambda: column_space_basis([[np.inf], [1.0]]), "vectors: an entry or the norm is not finite"),
    (lambda: full_svd([[1.5e308, 1.5e308]]), "mat: an entry or the norm is not finite"),
], ids=["1d-matrix", "basis-rows", "basis-columns", "intersection", "complement", "infinite-rank",
        "nan-kernel", "infinite-kernel", "nan-tall-kernel", "nan-span", "infinite-span", "overflowing-norm"])
def test_linalg_refusals(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
