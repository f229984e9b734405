import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import crystalflex as cf
from crystalflex.linalg import border_bound
import crystalflex.rigidity
import crystalflex.translations
from crystalflex.frameworks import _bar_vectors
from crystalflex.rigidity import _held_border, _held_space, _held_strict, _skew_generators, unvec, vec
from crystalflex.translations import _find_translations, _orbits
from oracles import (
    centred_square,
    chain,
    deleted_bar,
    dense_counts,
    dense_factorization,
    direct_row_values,
    exact_rank_profile,
    match_rows_up_to_sign,
    moved_vertex,
    orbit_tables,
    random_framework,
    scrambled_supercell,
    torus_rigidity_matrix,
    translation_tables,
)


def space(name, fw):
    return cf.matrix_space(name, fw.dimension, fw.tolerance)


def borcea_streinu_rows(mats, u, a, lattice):
    """Bar rows on (u, vec(A Z)): the vertex block on u plus the lattice-frame
    block on the column-stacked A Z."""
    return mats.vertex_block @ u.reshape(-1) + mats.affine_block @ vec(a @ lattice)


def borcea_streinu_matrix(mats):
    """The operator on (u, vec(A Z)), the blocks side by side."""
    return np.hstack([mats.vertex_block, mats.affine_block])


class TestMatrixSpaces:
    def test_named_dimensions(self):
        dims = {"zero": 0, "full": 4, "symmetric": 3, "skew": 1, "diagonal": 2}
        for name, k in dims.items():
            assert cf.matrix_space(name, 2).dim == k
        assert cf.matrix_space("full", 3).dim == 9
        assert cf.matrix_space("skew", 3).dim == 3

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown matrix space"):
            cf.matrix_space("sheared", 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_basis_rejected(self, value):
        # Refused before the rank test, whose SVD would not converge.
        with pytest.raises(ValueError, match="non-finite"):
            cf.MatrixSpace(2, ([[value, 0.0], [0.0, 1.0]],))

    def test_dependent_basis_rejected(self):
        a = np.eye(2)
        with pytest.raises(ValueError, match="dependent"):
            cf.MatrixSpace(2, (a, 2 * a))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # A nan used to fail the rank test as a dependent basis; 0 and
        # negative values were accepted.
        with pytest.raises(ValueError, match="^tolerance must be positive and finite$") as info:
            cf.matrix_space("full", 2, tol=tol)
        assert not isinstance(info.value, cf.DependentBasisError)

    @pytest.mark.parametrize("build", [
        lambda tol: cf.matrix_space("full", 2, tol=tol),
        lambda tol: cf.MatrixSpace(2, (np.eye(2),), tol=tol),
        lambda tol: cf.commutant_basis(np.eye(2), tol),
    ])
    @pytest.mark.parametrize("tol", [1e-20, 1e-17])
    def test_tolerance_below_round_off(self, build, tol):
        # Spaces were built below binary64 round-off, which frameworks refuse.
        with pytest.raises(ValueError, match="^tolerance must be at least 2.2e-16$"):
            build(tol)

    def test_coordinates_round_trip(self):
        sym = cf.matrix_space("symmetric", 2)
        mat = np.array([[1.0, 2.0], [2.0, -3.0]])
        coords = sym._column_coordinates(vec(mat)[:, np.newaxis])[:, 0]
        assert_allclose(sym.matrix_from_coordinates(coords), mat, atol=1e-12)
        skew = vec(np.array([[0.0, 1.0], [-1.0, 0.0]]))[:, np.newaxis]
        with pytest.raises(ValueError):
            sym._column_coordinates(skew)
        # The zero space holds the zero matrix alone.
        zero = cf.matrix_space("zero", 2)
        assert zero._column_coordinates(np.zeros((4, 1))).shape == (0, 1)
        with pytest.raises(ValueError):
            zero._column_coordinates(skew)

    def test_one_column_outside_the_space_fails_the_solve(self):
        sym = cf.matrix_space("symmetric", 2)
        members = [np.array([[1.0, 2.0], [2.0, -3.0]]), np.eye(2), np.diag([0.0, 5.0])]
        columns = np.column_stack([vec(m) for m in members])
        coords = sym._column_coordinates(columns)
        assert_allclose(coords, np.hstack([sym._column_coordinates(vec(m)[:, np.newaxis])
                                           for m in members]), atol=1e-12)
        columns[:, 1] += vec(np.array([[0.0, 1e-3], [-1e-3, 0.0]]))     # a skew part
        with pytest.raises(ValueError, match="not in the space spanned by the basis"):
            sym._column_coordinates(columns)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(cf.MATRIX_SPACE_NAMES), st.integers(1, 3), st.integers(0, 4),
       st.data())
def test_stacked_matrices_equal_the_row_by_row_calls(name, d, k, data):
    space = cf.matrix_space(name, d)
    coords = np.array(data.draw(st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=space.dim, max_size=space.dim),
        min_size=k, max_size=k))).reshape(k, space.dim)
    stacked = space.matrix_from_coordinates(coords)
    assert stacked.shape == (k, d, d)
    rows = np.array([space.matrix_from_coordinates(row) for row in coords]).reshape(k, d, d)
    assert stacked.tobytes() == rows.tobytes()


class TestRigidSpace:
    @pytest.mark.parametrize("tol", [0.1, 0.2])
    def test_a_tolerance_that_hides_the_translations_is_refused(self, kagome, tol):
        fw = kagome.with_tolerance(tol)
        with pytest.raises(cf.DependentBasisError, match="fewer than the 2 translations"):
            cf.rigid_motion_space(fw, cf.matrix_space("full", 2, tol))

    def test_translations_always_counted(self, any_builtin):
        zero = space("zero", any_builtin)
        assert cf.rigid_motion_space(any_builtin, zero).dim == any_builtin.dimension

    def test_nothing_to_translate_without_vertices(self):
        fw = cf.CrystalFramework(cf.PeriodLattice(np.eye(2)), [], [])
        assert cf.rigid_motion_space(fw, space("zero", fw)).dim == 0
        assert [c.rigid_motions for c in (cf.analyze_counts(fw, space(name, fw))
                                          for name in ("zero", "full"))] == [0, 1]


@pytest.mark.parametrize("shift", [1e4, 1e6, 1e8])
def test_counts_do_not_depend_on_where_the_motif_sits(any_builtin, shift):
    # Rotations turn about the vertex centroid, so the rigid-motion columns,
    # and the threshold of their span, do not grow with the positions.
    fw = any_builtin
    step = shift * np.eye(fw.dimension)[0]
    moved = replace(fw, vertices=tuple(replace(v, position=v.position + step) for v in fw.vertices),
                    symmetries=())
    for name in cf.MATRIX_SPACE_NAMES:
        assert cf.analyze_counts(moved, space(name, moved)) == cf.analyze_counts(fw, space(name, fw))


class TestBuildMatrices:
    def test_kagome_shapes(self, kagome):
        mats = cf.build_matrices(kagome)
        assert mats.vertex_block.shape == (6, 6)
        assert cf.restricted_operator(kagome, space("full", kagome)).shape == (6, 10)

    def test_hexahedron_shapes_and_reflexive_rows(self, hexahedron):
        mats = cf.build_matrices(hexahedron)
        assert mats.vertex_block.shape == (9, 6)
        assert cf.restricted_operator(hexahedron, space("full", hexahedron)).shape == (9, 15)
        assert_allclose(mats.vertex_block[:3], 0)
        assert np.any(mats.affine_block[:3] != 0)

    def test_square_grid_entries(self, square_grid):
        mats = cf.build_matrices(square_grid)
        assert_allclose(mats.vertex_block, np.zeros((2, 2)))
        assert_allclose(mats.affine_block[0], [-1.0, 0.0, 0.0, 0.0])
        assert_allclose(mats.affine_block[1], [0.0, 0.0, 0.0, -1.0])

    def test_row_values_match_direct_formula(self, any_builtin, rng):
        fw = any_builtin
        mats = cf.build_matrices(fw)
        d, n = fw.dimension, fw.vertex_count
        trials = 100 if fw.edge_count == 6 else 20
        for _ in range(trials):
            u = rng.normal(size=(n, d))
            a = rng.normal(size=(d, d))
            assert_allclose(borcea_streinu_rows(mats, u, a, fw.lattice.matrix),
                            direct_row_values(fw, u, a), atol=1e-12)

    def test_reversing_an_edge_changes_rows_at_most_by_sign(self, kagome):
        mats = borcea_streinu_matrix(cf.build_matrices(kagome))
        for which in range(kagome.edge_count):
            flipped_edges = list(kagome.edges)
            flipped_edges[which] = flipped_edges[which].reversed()
            flipped = replace(kagome, edges=tuple(flipped_edges), symmetries=())
            mats2 = borcea_streinu_matrix(cf.build_matrices(flipped))
            for row in range(kagome.edge_count):
                same = np.max(np.abs(mats2[row] - mats[row]))
                negated = np.max(np.abs(mats2[row] + mats[row]))
                assert min(same, negated) < 1e-15
            for name in ("zero", "full"):
                counts2 = cf.analyze_counts(flipped, space(name, flipped))
                counts = cf.analyze_counts(kagome, space(name, kagome))
                assert counts2.flex_basis.dim == counts.flex_basis.dim
                assert counts2.stress_basis.dim == counts.stress_basis.dim
                assert cf.numeric_rank(mats2) == cf.numeric_rank(mats)


class TestRestrictedOperator:
    def test_zero_space_reduces_to_vertex_block(self, kagome):
        op = cf.restricted_operator(kagome, space("zero", kagome))
        assert_allclose(op, cf.build_matrices(kagome).vertex_block)

    def test_full_space_has_same_rank_as_concatenation(self, any_builtin):
        fw = any_builtin
        op = cf.restricted_operator(fw, space("full", fw))
        concatenation = borcea_streinu_matrix(cf.build_matrices(fw))
        assert cf.numeric_rank(op, fw.tolerance) == cf.numeric_rank(concatenation, fw.tolerance)

    def test_square_grid_full_rank_is_two(self, square_grid):
        op = cf.restricted_operator(square_grid, space("full", square_grid))
        assert cf.numeric_rank(op) == 2

    def test_dimension_mismatch(self, kagome):
        with pytest.raises(ValueError, match="dimension"):
            cf.restricted_operator(kagome, cf.matrix_space("full", 3))


class TestExactRankOracle:
    def test_numeric_ranks_match_symbolic(self, any_builtin):
        fw = any_builtin
        mats = cf.build_matrices(fw)
        strict_rank, full_rank = exact_rank_profile(
            "square_grid" if fw.vertex_count == 1 else
            "kagome" if fw.dimension == 2 else "hexahedron")
        assert cf.numeric_rank(mats.vertex_block, fw.tolerance) == strict_rank
        full = cf.restricted_operator(fw, space("full", fw))
        assert cf.numeric_rank(full, fw.tolerance) == full_rank


class TestKernelCokernelValues:
    def test_kagome_affine_has_independent_rows(self, kagome):
        assert cf.analyze_counts(kagome, space("full", kagome)).stress_basis.dim == 0

    def test_kagome_strict_has_three_row_dependencies(self, kagome):
        stresses = cf.analyze_counts(kagome, space("zero", kagome)).stress_basis
        assert stresses.dim == 3
        # the collinear-pair stresses span the cokernel
        for pair in ((0, 3), (1, 4), (2, 5)):
            w = np.zeros(6)
            w[pair[0]] = w[pair[1]] = 1.0
            assert stresses.contains(w / np.linalg.norm(w))


class TestRigidMotionSpace:
    def test_translations_only_for_zero_space(self, any_builtin):
        fw = any_builtin
        assert cf.rigid_motion_space(fw, space("zero", fw)).dim == fw.dimension

    def test_full_space_dimension(self, kagome, hexahedron):
        assert cf.rigid_motion_space(kagome, space("full", kagome)).dim == 3
        assert cf.rigid_motion_space(hexahedron, space("full", hexahedron)).dim == 6

    def test_rigid_motions_are_flexes(self, any_builtin):
        fw = any_builtin
        for name in ("zero", "full", "symmetric", "skew", "diagonal"):
            rigid = cf.rigid_motion_space(fw, space(name, fw))
            if rigid.dim:
                op = cf.restricted_operator(fw, space(name, fw))
                assert_allclose(op @ rigid.basis, 0, atol=1e-10)

    def test_rigid_contained_in_flex_space(self, any_builtin):
        fw = any_builtin
        for name in ("zero", "full", "symmetric", "skew", "diagonal"):
            report = cf.analyze_counts(fw, space(name, fw))
            assert report.flags == ()


def mechanisms(counts):
    """The flexes orthogonal to the rigid motions."""
    return cf.complement_within(counts.flex_basis, counts.rigid_basis)


class TestFlexAndStress:
    def test_kagome_strict_dimensions(self, kagome):
        counts = cf.analyze_counts(kagome, space("zero", kagome))
        assert counts.flex_basis.dim == 3
        assert counts.stress_basis.dim == 3

    def test_kagome_affine_dimensions(self, kagome):
        counts = cf.analyze_counts(kagome, space("full", kagome))
        assert counts.flex_basis.dim == 4
        assert counts.stress_basis.dim == 0

    def test_square_grid_affine_dimensions(self, square_grid):
        counts = cf.analyze_counts(square_grid, space("full", square_grid))
        assert counts.flex_basis.dim == 4
        assert counts.stress_basis.dim == 0

    def test_mechanism_space_dimension(self, kagome):
        assert mechanisms(cf.analyze_counts(kagome, space("zero", kagome))).dim == 1
        assert mechanisms(cf.analyze_counts(kagome, space("full", kagome))).dim == 1

    def test_flex_vectors_satisfy_all_bars(self, any_builtin):
        fw = any_builtin
        for name in ("zero", "full"):
            sp_ = space(name, fw)
            op = cf.restricted_operator(fw, sp_)
            basis = cf.analyze_counts(fw, sp_).flex_basis.basis
            if basis.size:
                assert_allclose(op @ basis, 0, atol=1e-10)


class TestAnalyzeCounts:
    def test_kagome_strict(self, kagome):
        rep = cf.analyze_counts(kagome, space("zero", kagome))
        assert (rep.mechanisms, rep.stresses, rep.rigid_motions) == (1, 3, 2)
        assert rep.identity_residual == 0
        assert (rep.vertex_dof, rep.space_dim, rep.edge_count) == (6, 0, 6)

    def test_kagome_affine(self, kagome):
        rep = cf.analyze_counts(kagome, space("full", kagome))
        assert (rep.mechanisms, rep.stresses, rep.rigid_motions) == (1, 0, 3)
        assert rep.identity_residual == 0

    def test_hexahedron_strict(self, hexahedron):
        rep = cf.analyze_counts(hexahedron, space("zero", hexahedron))
        assert rep.mechanisms == 0
        assert rep.rigid_motions == 3
        assert rep.stresses == 6
        assert rep.identity_residual == 0

    def test_identity_closes_for_every_builtin_and_space(self, any_builtin):
        fw = any_builtin
        for name in ("zero", "full", "symmetric", "skew", "diagonal"):
            assert cf.analyze_counts(fw, space(name, fw)).identity_residual == 0

    def test_square_grid_supercell_strict(self, square_grid):
        big = cf.supercell(square_grid, (2, 1))
        assert big.vertex_count == 2
        assert big.edge_count == 4
        rep = cf.analyze_counts(big, space("zero", big))
        assert rep.mechanisms - rep.stresses == -2
        assert rep.identity_residual == 0

    def test_kagome_supercell_keeps_mechanism_and_stresses(self, kagome):
        big = cf.supercell(kagome, (2, 2))
        small = cf.analyze_counts(kagome, space("zero", kagome))
        rep = cf.analyze_counts(big, space("zero", big))
        assert rep.identity_residual == 0
        assert rep.stresses >= small.stresses
        assert rep.mechanisms >= 1

    def test_edge_free_framework(self):
        fw = cf.CrystalFramework(cf.PeriodLattice(np.eye(2)), [cf.MotifVertex([0.0, 0.0])], [])
        rep = cf.analyze_counts(fw, cf.matrix_space("zero", 2))
        assert rep.edge_count == 0
        assert rep.stresses == 0
        assert rep.identity_residual == 0


class TestAffineRigidity:
    def test_kagome_is_flexible(self, kagome):
        check = cf.is_affinely_rigid(kagome)
        assert not check.is_rigid
        assert check.rank == 6
        assert check.required_rank == 7

    def test_square_grid_is_flexible(self, square_grid):
        check = cf.is_affinely_rigid(square_grid)
        assert not check.is_rigid
        assert (check.rank, check.required_rank) == (2, 3)

    def test_hexahedron_is_affinely_rigid(self, hexahedron):
        check = cf.is_affinely_rigid(hexahedron)
        assert check.is_rigid
        assert check.rank == check.required_rank == 9

    def test_planar_criterion_restatement(self, any_builtin):
        fw = any_builtin
        if fw.dimension != 2:
            return
        check = cf.is_affinely_rigid(fw)
        assert check.is_rigid == (check.rank == 2 * fw.vertex_count + 1)


def count_factorizations(monkeypatch):
    """The frameworks ``rigidity.factor_strict`` is called on, in order."""
    calls, factor = [], crystalflex.rigidity.factor_strict
    monkeypatch.setattr(crystalflex.rigidity, "factor_strict", lambda fw: calls.append(fw) or factor(fw))
    return calls


class TestHeldStrictSVD:
    """A framework factors R0 once, on first read, and every count reads it."""

    def test_quick_start_factors_once(self, kagome, monkeypatch):
        calls = count_factorizations(monkeypatch)
        strict, affine = cf.matrix_space("zero", 2), cf.matrix_space("full", 2)
        cf.analyze_counts(kagome, strict)
        report = cf.analyze_counts(kagome, affine)
        mechanisms = cf.complement_within(report.flex_basis, report.rigid_basis)
        velocity = cf.velocity_from_mode_coordinates(kagome, affine, mechanisms.basis[:, 0])
        cf.edge_deviation(kagome, velocity, 1e-3)
        g = kagome.symmetries[0]
        cf.verify_symmetry_equation(kagome, g)
        cf.symmetry_counts(kagome, g)
        cf.character_row(kagome, g, cf.commutant_basis(g.linear, kagome.tolerance))
        assert not cf.is_affinely_rigid(kagome).is_rigid
        assert len(calls) == 1 and calls[0] is kagome

    def test_a_new_tolerance_factors_again_and_new_symmetries_do_not(self, kagome, monkeypatch):
        # Translation detection reads the tolerance; the symmetries change
        # neither the geometry nor the tolerance.
        calls = count_factorizations(monkeypatch)
        svd = _held_strict(kagome)
        assert _held_strict(kagome.with_symmetries(())) is svd
        loose = kagome.with_tolerance(1e-6)
        assert _held_strict(loose) is not svd
        assert len(calls) == 2 and calls[1] is loose

    def test_a_copy_taken_before_the_first_read_shares_the_strict_svd(self, kagome, monkeypatch):
        # The with_symmetries copy shares the framework's one set-up store,
        # not the set-ups held when it was taken.
        calls = count_factorizations(monkeypatch)
        copy = kagome.with_symmetries(())
        assert _held_strict(copy) is _held_strict(kagome)
        assert len(calls) == 1 and calls[0] is copy

    def test_space_set_ups_are_held_like_the_strict_svd(self, kagome):
        # The full space, its border and its rigid span are built once per
        # framework: another space with the same basis reads them, a
        # with_symmetries copy shares them, and a with_tolerance copy, whose
        # rigid span reads the new tolerance, starts with none.
        affine = cf.analyze_counts(kagome, _held_space(kagome, "full"))
        assert _held_space(kagome, "full") is kagome._setups[("space", "full")]
        again = cf.analyze_counts(kagome, cf.matrix_space("full", 2, kagome.tolerance))
        assert again.rigid_basis is affine.rigid_basis
        assert kagome.with_symmetries(())._setups is kagome._setups
        assert kagome.with_tolerance(1e-6)._setups == {}
        assert replace(kagome)._setups == {}
        held = kagome._setups
        assert sorted(key if isinstance(key, str) else key[0] for key in held) == [
            "border", "rigid span", "space", "strict SVD"]
        border = _held_border(kagome, cf.matrix_space("full", 2, kagome.tolerance))
        assert border is held[next(key for key in held if key[0] == "border")]
        assert not border.flags.writeable

    def test_a_space_of_another_dimension_reads_no_held_set_up(self, kagome):
        # The zero spaces of every d stack to the same (empty) bytes, so a
        # key of bytes alone would hand the 3-D one the 2-D one's set-ups
        # in place of the refusal of its dimension.
        cf.analyze_counts(kagome, _held_space(kagome, "zero"))
        with pytest.raises(ValueError, match="matrix space dimension 3 != framework dimension 2"):
            cf.analyze_counts(kagome, cf.matrix_space("zero", 3))


class TestTorusOracle:
    def test_strict_matrix_matches_one_cell_identification(self, any_builtin):
        fw = any_builtin
        mats = cf.build_matrices(fw)
        assert match_rows_up_to_sign(mats.vertex_block, torus_rigidity_matrix(fw), tol=1e-12)


class TestEdgeDeviation:
    @staticmethod
    def mechanism(fw):
        strict = cf.matrix_space("zero", fw.dimension, fw.tolerance)
        mech = mechanisms(cf.analyze_counts(fw, strict))
        return cf.velocity_from_mode_coordinates(fw, strict, mech.basis[:, 0])

    def test_zero_velocity(self, kagome):
        still = cf.AffineVelocity(np.zeros((3, 2)), np.zeros((2, 2)))
        assert cf.edge_deviation(kagome, still, 0.01) == 0.0

    def test_pure_translation_is_exact(self, kagome):
        shift = cf.AffineVelocity(np.tile([0.3, -0.7], (3, 1)), np.zeros((2, 2)))
        assert cf.edge_deviation(kagome, shift, 0.05) < 1e-14

    def test_kagome_mechanism_scales_quadratically(self, kagome):
        mech = self.mechanism(kagome)
        big, small = cf.edge_deviation(kagome, mech, 1e-2), cf.edge_deviation(kagome, mech, 1e-3)
        assert big / small == pytest.approx(100.0, rel=0.25)

    def test_affine_flexes_scale_quadratically(self, kagome):
        affine = cf.matrix_space("full", 2, kagome.tolerance)
        for col in cf.analyze_counts(kagome, affine).flex_basis.basis.T:
            velocity = cf.velocity_from_mode_coordinates(kagome, affine, col)
            r1 = cf.edge_deviation(kagome, velocity, 1e-2) / 1e-4
            r2 = cf.edge_deviation(kagome, velocity, 1e-3) / 1e-6
            if max(r1, r2) < 1e-6:
                continue
            assert max(r1, r2) / min(r1, r2) < 1.5

    def test_non_flex_deviates_linearly(self, kagome):
        mech = self.mechanism(kagome)
        bumped = np.array(mech.vertex_velocities)
        bumped[0, 0] += 0.1
        bad = cf.AffineVelocity(bumped, mech.distortion)
        assert cf.edge_deviation(kagome, bad, 1e-3) / 1e-3 > 1e-3

    def test_singular_flow_rejected(self, kagome):
        velocity = cf.AffineVelocity(np.zeros((3, 2)), -np.eye(2))
        with pytest.raises(ValueError, match="singular"):
            cf.edge_deviation(kagome, velocity, 1.0)


class TestDecoding:
    def test_decoded_flexes_satisfy_the_direct_row_formula(self, any_builtin):
        fw = any_builtin
        for name in cf.MATRIX_SPACE_NAMES:
            e = space(name, fw)
            for col in cf.analyze_counts(fw, e).flex_basis.basis.T:
                v = cf.velocity_from_mode_coordinates(fw, e, col)
                assert_allclose(direct_row_values(fw, v.vertex_velocities, v.distortion), 0,
                                atol=1e-10)


class TestRandomFrameworks:
    def test_counting_identity_and_containment(self, rng):
        for _ in range(8):
            d = int(rng.integers(2, 4))
            fw = random_framework(rng, d=d, n_vertices=int(rng.integers(2, 4)),
                                  n_edges=int(rng.integers(3, 8)))
            for name in ("zero", "full", "skew"):
                rep = cf.analyze_counts(fw, cf.matrix_space(name, d, fw.tolerance))
                assert rep.identity_residual == 0
                assert rep.flags == ()

    def test_torus_oracle_on_random_frameworks(self, rng):
        for _ in range(5):
            fw = random_framework(rng, d=2, n_vertices=3, n_edges=6)
            mats = cf.build_matrices(fw)
            assert match_rows_up_to_sign(mats.vertex_block, torus_rigidity_matrix(fw), tol=1e-9)

    def test_row_formula_on_random_frameworks(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 4))
            fw = random_framework(rng, d=d)
            mats = cf.build_matrices(fw)
            u = rng.normal(size=(fw.vertex_count, d))
            a = rng.normal(size=(d, d))
            assert_allclose(borcea_streinu_rows(mats, u, a, fw.lattice.matrix),
                            direct_row_values(fw, u, a), atol=1e-10)


def reference_build_matrices(fw):
    """The per-edge assembly build_matrices replaced: each bar's vector from
    the placed endpoints, written into its row block by block."""
    d, n, m = fw.dimension, fw.vertex_count, fw.edge_count
    vertex_block = np.zeros((m, d * n))
    affine_block = np.zeros((m, d * d))
    for row, e in enumerate(fw.edges):
        vector = cf.point_of(fw, e.from_vertex, e.from_cell) - cf.point_of(fw, e.to_vertex, e.to_cell)
        if e.from_vertex != e.to_vertex:
            vertex_block[row, d * e.from_vertex:d * e.from_vertex + d] = vector
            vertex_block[row, d * e.to_vertex:d * e.to_vertex + d] = -vector
        for j in range(d):
            affine_block[row, d * j:d * j + d] = e.offset[j] * vector
    return vertex_block, affine_block


def reference_edge_deviation(fw, velocity, t):
    """The per-edge loop edge_deviation replaced: both endpoints of each bar
    moved by the finite motion, then measured."""
    frame = np.linalg.solve(np.eye(fw.dimension) + t * velocity.distortion, fw.lattice.matrix)
    u = velocity.vertex_velocities
    worst = 0.0
    for e in fw.edges:
        rest = np.linalg.norm(cf.point_of(fw, e.from_vertex, e.from_cell)
                              - cf.point_of(fw, e.to_vertex, e.to_cell))
        q_from = (fw.vertices[e.from_vertex].position + t * u[e.from_vertex]
                  + frame @ np.asarray(e.from_cell, dtype=float))
        q_to = (fw.vertices[e.to_vertex].position + t * u[e.to_vertex]
                + frame @ np.asarray(e.to_cell, dtype=float))
        worst = max(worst, abs(rest - float(np.linalg.norm(q_from - q_to))))
    return worst


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(cf.BUILTIN_NAMES), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_array_assembly_matches_the_per_edge_loop(name, n, seed):
    rng = np.random.default_rng(seed)
    fw = scrambled_supercell(name, min(n, 2) if name == "hexahedron" else n, rng)
    mats = cf.build_matrices(fw)
    vertex_block, affine_block = reference_build_matrices(fw)
    assert_allclose(mats.vertex_block, vertex_block, rtol=0, atol=1e-12)
    assert_allclose(mats.affine_block, affine_block, rtol=0, atol=1e-12)
    d = fw.dimension
    velocity = cf.AffineVelocity(rng.uniform(-1.0, 1.0, (fw.vertex_count, d)),
                                 rng.uniform(-1.0, 1.0, (d, d)))
    for t in (0.0, 1e-3, 0.1):
        deviation = cf.edge_deviation(fw, velocity, t)
        assert abs(deviation - reference_edge_deviation(fw, velocity, t)) <= 1e-12


def reference_rigid_generators(fw, space):
    """The construction rigid_motion_space replaced: (u, A) pairs from the
    principal-angle intersection of orthonormalised Skew and E, each
    rotation written back into E's coordinates by a solve."""
    d, n = fw.dimension, fw.vertex_count
    pairs = [(np.tile(np.eye(d)[i], n), np.zeros((d, d))) for i in range(d)]
    skews = _skew_generators(d)
    if skews and space.dim:
        skew_span = cf.column_space_basis(np.column_stack([vec(s) for s in skews]), fw.tolerance)
        space_span = cf.column_space_basis(space.stacked, fw.tolerance)
        for col in cf.subspace_intersection(skew_span, space_span).basis.T:
            s = unvec(col, d)
            pairs.append(((fw.positions @ s.T).reshape(-1), -s))
    return pairs


def reference_rigid_space(fw, space):
    """The rigid space in (u, coords-in-space) from the reference generators."""
    pairs = reference_rigid_generators(fw, space)
    coords = space._column_coordinates(np.column_stack([vec(a) for _, a in pairs]))
    columns = np.vstack([np.column_stack([u for u, _ in pairs]), coords])
    return cf.column_space_basis(columns, fw.tolerance)


def same_span(a, b):
    return a.dim == b.dim and a.contains(b.basis) and b.contains(a.basis)


@st.composite
def integer_spaces(draw):
    """(d, members) with integer entries in -2..2, k = 1..d^2 members, the
    first of them an exact skew matrix about half the time."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, d * d))
    entry = st.integers(-2, 2)
    members = [np.array(draw(st.lists(entry, min_size=d * d, max_size=d * d)),
                        dtype=float).reshape(d, d) for _ in range(k)]
    if d > 1 and draw(st.booleans()):
        upper = np.triu(np.array(draw(st.lists(entry, min_size=d * d, max_size=d * d)),
                                 dtype=float).reshape(d, d), 1)
        members[0] = upper - upper.T
    return d, members


def exact_rank(columns):
    return sp.Matrix([[sp.Integer(int(x)) for x in row] for row in np.column_stack(columns)]).rank()


@settings(max_examples=80, deadline=None)
@given(integer_spaces(), st.integers(0, 2 ** 32 - 1))
def test_rigid_motions_match_the_intersection_and_the_exact_count(spec, seed):
    d, members = spec
    k = len(members)
    assume(exact_rank([vec(b) for b in members]) == k)
    rng = np.random.default_rng(seed)
    fw = random_framework(rng, d=d, n_vertices=int(rng.integers(1, 4)),
                          n_edges=int(rng.integers(1, 6)))
    e = cf.MatrixSpace(d, tuple(members), tol=fw.tolerance)
    rigid = cf.rigid_motion_space(fw, e)
    assert same_span(rigid, reference_rigid_space(fw, e))
    # E meets Skew in the kernel of B -> B + B^T on E.
    exact_f = d + k - exact_rank([vec(b + b.T) for b in members])
    assert rigid.dim == exact_f


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_rigid_motions_lie_in_the_flex_space(d, seed):
    rng = np.random.default_rng(seed)
    fw = random_framework(rng, d=d, n_vertices=int(rng.integers(1, 4)),
                          n_edges=int(rng.integers(1, 7)))
    for name in cf.MATRIX_SPACE_NAMES:
        e = cf.matrix_space(name, d, fw.tolerance)
        rigid = cf.rigid_motion_space(fw, e)
        assert cf.analyze_counts(fw, e).flex_basis.contains(rigid.basis)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_rank_nullity_in_every_named_space(d, seed):
    rng = np.random.default_rng(seed)
    fw = random_framework(rng, d=d, n_vertices=int(rng.integers(1, 4)),
                          n_edges=int(rng.integers(0, 8)))
    for name in cf.MATRIX_SPACE_NAMES:
        e = cf.matrix_space(name, d, fw.tolerance)
        counts = cf.analyze_counts(fw, e)
        rank = counts.factorization.rank
        assert counts.flex_basis.dim == d * fw.vertex_count + e.dim - rank, name
        assert counts.stresses == counts.stress_basis.dim == fw.edge_count - rank, name
        assert counts.mechanisms == counts.flex_basis.dim - counts.rigid_motions, name


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_strict_flexes_of_the_base_lift_to_supercells(seed):
    # The copy of vertex v in residue cell r is vertex v R + r of the
    # supercell, R the number of residues; it moves as v does.
    rng = np.random.default_rng(seed)
    fw = random_framework(rng, d=2, n_vertices=int(rng.integers(1, 4)),
                          n_edges=int(rng.integers(0, 6)))
    flexes = cf.analyze_counts(fw, cf.matrix_space("zero", 2, fw.tolerance)).flex_basis.basis
    for factors in [(2, 1), (2, 2)]:
        big = cf.supercell(fw, factors)
        residues = int(np.prod(factors))
        lifted = np.repeat(flexes.reshape(fw.vertex_count, 1, 2, -1), residues, axis=1)
        big_flexes = cf.analyze_counts(big, cf.matrix_space("zero", 2, big.tolerance)).flex_basis
        assert big_flexes.contains(lifted.reshape(2 * big.vertex_count, -1)), factors


def projector(space):
    return space.basis @ space.basis.T


def random_spaces(rng, d, tol, count):
    """``count`` custom spaces of random Gaussian matrices, of dimension 0..d^2."""
    return [cf.MatrixSpace(d, tuple(rng.normal(size=(int(rng.integers(0, d * d + 1)), d, d))),
                           tol=tol) for _ in range(count)]


def assert_border_matches_dense(fw, space):
    """The counts and subspaces of the bordered strict SVD are the dense
    operator's, and the threshold's bound is at least its sigma_max."""
    counts = cf.analyze_counts(fw, space)
    dense = dense_counts(fw, space)
    assert (counts.mechanisms, counts.stresses, counts.rigid_motions) == dense[:3], space.name
    assert counts.identity_residual == 0
    assert_allclose(projector(counts.flex_basis), projector(dense.flex_basis), atol=1e-9)
    assert_allclose(projector(counts.stress_basis), projector(dense.stress_basis), atol=1e-9)
    border = cf.restricted_operator(fw, space)[:, fw.dimension * fw.vertex_count:]
    # Up to the round-off of the two ways of computing it.
    assert border_bound(_held_strict(fw), border) >= dense.sigma_max * (1 - 1e-12)


def all_spaces(rng, d, tol, custom):
    return [cf.matrix_space(name, d, tol) for name in cf.MATRIX_SPACE_NAMES] + \
        random_spaces(rng, d, tol, custom)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.sampled_from([cf.DEFAULT_TOL, 1e-6]), st.integers(0, 2 ** 32 - 1))
def test_border_matches_the_dense_operator_on_random_frameworks(d, tol, seed):
    rng = np.random.default_rng(seed)
    fw = random_framework(rng, d=d, n_vertices=int(rng.integers(1, 5)),
                          n_edges=int(rng.integers(0, 9))).with_tolerance(tol)
    for e in all_spaces(rng, d, tol, 2):
        assert_border_matches_dense(fw, e)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(cf.BUILTIN_NAMES), st.integers(1, 3),
       st.sampled_from([cf.DEFAULT_TOL, 1e-6]), st.integers(0, 2 ** 32 - 1))
def test_border_matches_the_dense_operator_on_scrambled_supercells(name, n, tol, seed):
    rng = np.random.default_rng(seed)
    fw = scrambled_supercell(name, n, rng).with_tolerance(tol)
    for e in all_spaces(rng, fw.dimension, tol, 1):
        assert_border_matches_dense(fw, e)


class TestBorderEdgeCases:
    def test_strict_operator_of_zero(self, square_grid, rng):
        # Every bar joins copies of the one vertex class, so R0 = 0 and every
        # rank is the border's.
        assert not np.any(cf.build_matrices(square_grid).vertex_block)
        for e in all_spaces(rng, 2, square_grid.tolerance, 2):
            assert_border_matches_dense(square_grid, e)

    def test_no_bars(self, rng):
        fw = random_framework(rng, d=2, n_vertices=2, n_edges=0)
        assert fw.edge_count == 0
        for e in all_spaces(rng, 2, fw.tolerance, 2):
            assert_border_matches_dense(fw, e)
            assert cf.analyze_counts(fw, e).stresses == 0

    @pytest.mark.parametrize("e", [cf.matrix_space("zero", 2), cf.MatrixSpace(2, ())])
    def test_empty_space_is_the_strict_factorization(self, kagome, e):
        # q = 0: the bases are R0's own SVD read-off, to the bit.
        big = cf.supercell(kagome, (2, 2))
        assert_border_matches_dense(big, e)
        counts = cf.analyze_counts(big, e)
        strict = dense_factorization(cf.build_matrices(big).vertex_block, big.tolerance)
        assert np.array_equal(counts.flex_basis.basis, strict.kernel.basis)
        assert np.array_equal(counts.stress_basis.basis, strict.cokernel.basis)


def translation_count(fw):
    """|T|, the number of translations of the motif onto itself modulo its lattice."""
    group = _find_translations(fw, _bar_vectors(fw, fw.edges.ends, fw.edges.cells))
    return 1 if group is None else len(group.vertices)


def character_count(svd):
    """The characters the strict SVD is held over: one per self-conjugate
    block and two per paired one."""
    return sum(len(s) * (1 + (i > 0)) for i, (_, s, _) in enumerate(svd.batches))


def assert_blocks_match_dense(fw, space, rng, subspaces=True):
    """The Bloch-block path, taken at any size, reads the dense operator's
    counts and (with ``subspaces``) its flex and stress spaces, and its
    lifted flexes and stresses solve the rows evaluated straight from the
    geometry."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crystalflex.rigidity, "BLOCK_MIN_VERTEX_DOF", 0)
        # A copy built inside the patch, so no SVD held from an earlier read
        # stands in for the block path.
        fw = replace(fw)
        svd = _held_strict(fw)
    assert character_count(svd) == translation_count(fw)
    counts = cf.analyze_counts(fw, space)
    dense = dense_counts(fw, space)
    assert (counts.mechanisms, counts.stresses, counts.rigid_motions) == dense[:3], space.name
    assert counts.identity_residual == 0
    if subspaces:
        assert_allclose(projector(counts.flex_basis), projector(dense.flex_basis), atol=1e-9)
        assert_allclose(projector(counts.stress_basis), projector(dense.stress_basis), atol=1e-9)
    # A unit flex or stress leaves rows within a small multiple of the rank
    # threshold: the dropped singular values lie below it.
    dn = fw.dimension * fw.vertex_count
    threshold = 10 * fw.tolerance * max(1.0, dense.sigma_max) * max(fw.edge_count, dn + space.dim)
    for flex in counts.flex_basis.basis.T:
        rows = direct_row_values(fw, flex[:dn].reshape(fw.vertex_count, -1),
                                 space.matrix_from_coordinates(flex[dn:]))
        assert np.linalg.norm(rows) <= threshold
    for _ in range(3):
        x = rng.normal(size=dn + space.dim)
        x /= np.linalg.norm(x)
        rows = direct_row_values(fw, x[:dn].reshape(fw.vertex_count, -1),
                                 space.matrix_from_coordinates(x[dn:]))
        assert np.max(np.abs(counts.stress_basis.basis.T @ rows), initial=0.0) <= threshold


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(cf.BUILTIN_NAMES), st.lists(st.integers(1, 3), min_size=3, max_size=3),
       st.sampled_from([cf.DEFAULT_TOL, 1e-6]), st.integers(0, 2 ** 32 - 1))
def test_bloch_blocks_match_the_dense_operator(name, factors, tol, seed):
    rng = np.random.default_rng(seed)
    d = cf.builtin_framework(name).dimension
    factors = [min(k, 2) if name == "hexahedron" else k for k in factors[:d]]
    fw = scrambled_supercell(name, factors, rng).with_tolerance(tol)
    assert translation_count(fw) == int(np.prod(factors))
    for e in all_spaces(rng, d, tol, 2):
        assert_blocks_match_dense(fw, e, rng)


class TestTranslationDetection:
    def test_builtins_are_primitive(self, any_builtin):
        assert translation_count(any_builtin) == 1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_random_frameworks_are_primitive(self, d, seed):
        rng = np.random.default_rng(seed)
        fw = random_framework(rng, d=d, n_vertices=int(rng.integers(2, 5)))
        assert translation_count(fw) == 1

    @pytest.mark.parametrize("name, factors", [
        ("square_grid", (2, 3)), ("kagome", (2, 3)), ("kagome", (3, 2)), ("hexahedron", (1, 2, 3))])
    def test_a_supercell_has_the_factors_product(self, name, factors, rng):
        assert translation_count(scrambled_supercell(name, factors, rng)) == 6

    @pytest.mark.parametrize("change", [
        # Refused by the matcher: the vertex lies beyond the match radius.
        lambda fw: moved_vertex(fw, 100 * fw.tolerance),
        # Matched, but a bar vector moves by more than round-off.
        lambda fw: moved_vertex(fw, 5 * fw.tolerance),
        deleted_bar,
    ])
    def test_a_broken_copy_leaves_the_smaller_group(self, kagome, change, rng):
        # The 2 x 1 cell, broken, repeats only under the 1 x 3 supercell.
        broken = change(cf.supercell(kagome, (2, 1)))
        assert translation_count(broken) == 1
        big = cf.supercell(broken, (1, 3))
        assert translation_count(big) == 3
        # A moved vertex leaves singular values near 100 tol, so the
        # subspaces are only as stable as that gap: compare counts and rows.
        for e in all_spaces(rng, 2, big.tolerance, 1):
            assert_blocks_match_dense(big, e, rng, subspaces=False)

    @pytest.mark.parametrize("make, factors, count", [
        (centred_square, (1, 1), 2), (centred_square, (2, 3), 12), (chain, (5,), 5)])
    def test_translations_off_the_axes(self, make, factors, count, rng):
        # The centring and the supercell's own translations make a group
        # whose generators are not the cell's axes; its characters are
        # orthonormal and the blocks read the dense counts.
        fw = cf.supercell(make(), factors)
        group = _find_translations(fw, _bar_vectors(fw, fw.edges.ends, fw.edges.cells))
        assert len(group.vertices) == count
        assert_allclose(group.fourier.T @ group.fourier, np.eye(count), atol=1e-14)
        for e in all_spaces(rng, fw.dimension, fw.tolerance, 2):
            assert_blocks_match_dense(fw, e, rng)

    def test_small_operators_keep_one_dense_block(self, kagome):
        # Below BLOCK_MIN_VERTEX_DOF the strict SVD is R0's own.
        big = cf.supercell(kagome, (2, 2))
        assert 2 * big.vertex_count < crystalflex.rigidity.BLOCK_MIN_VERTEX_DOF
        svd = _held_strict(big)
        assert character_count(svd) == 1
        assert svd.rows is None and svd.cols is None
        u, s, vt = svd.batches[0]
        assert s.shape == (1, 2 * big.vertex_count)


def detect(fw):
    """``_find_translations`` of a framework, with the generators its group
    builder accepted, in order, as pairs (a, element), and the builder."""
    accepted, builders = [], []

    class Recording(crystalflex.translations._GroupBuilder):
        def __init__(self, *args):
            super().__init__(*args)
            builders.append(self)

        def add(self, a, generator, q, relation):
            accepted.append((a, generator))
            super().add(a, generator, q, relation)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crystalflex.translations, "_GroupBuilder", Recording)
        group = _find_translations(fw, _bar_vectors(fw, fw.edges.ends, fw.edges.cells))
    return group, accepted, builders[0]


# T is cyclic for the factors (2, 3) and (1, 2, 3) and the chain, and has
# two generators for (2, 4), (1, 2, 4) and the centred cell's 2 x 2.
TABLE_CASES = [lambda rng, name=name, k=k:
               scrambled_supercell(name, (1, 2, k) if name == "hexahedron" else (2, k), rng)
               for name in cf.BUILTIN_NAMES for k in (3, 4)] + [
    lambda rng: centred_square(),
    lambda rng: cf.supercell(centred_square(), (2, 3)),
    lambda rng: cf.supercell(centred_square(), (2, 2)),
    lambda rng: cf.supercell(chain(), (6,)),
]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(TABLE_CASES), st.integers(0, 2 ** 32 - 1))
def test_generator_tables_match_the_full_tables(make, seed):
    # The orbit tables composed from the generators' maps, and each point's
    # element and orbit, are those read off every element's permutation.
    fw = make(np.random.default_rng(seed))
    group, accepted, builder = detect(fw)
    assert len(group.vertices) == len(builder.elements) > 1
    elements, vertices, edges = translation_tables(
        builder.modulus, accepted, fw.vertex_count, fw.edge_count, fw.dimension)
    assert np.array_equal(builder.elements, elements)
    assert np.array_equal(builder.images(np.arange(fw.vertex_count), "vertex_map"), vertices)
    assert np.array_equal(builder.images(np.arange(fw.edge_count), "edge_map"), edges)
    for table, perms in [(group.vertices, vertices), (group.edges, edges)]:
        expected, element, orbit = orbit_tables(perms)
        assert np.array_equal(table, expected)
        assert all(np.array_equal(x, y) for x, y in zip(_orbits(table), (element, orbit)))


class TestDetectionWork:
    def test_order_search_reads_only_the_divisors(self):
        # On a chain of 360 cells T is cyclic of order 360, which has 24
        # divisors; each of the 359 candidates is tested at those powers only.
        fw = cf.supercell(chain(), (360,))
        # Only the translation group's lookups are counted, not the edge-class
        # lookups of the resolves.
        sizes = []

        class Counting(crystalflex.translations._RowIndex):
            def find(self, queries):
                sizes.append(len(queries))
                return super().find(queries)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(crystalflex.translations, "_RowIndex", Counting)
            group, accepted, _ = detect(fw)
        assert len(accepted) == 1 and len(group.vertices) == 360
        # One lookup for the one candidate round, which accepts the generator,
        # and one for the conjugate pairing: adding the generator looks nothing up.
        assert sizes == [24 * 359, 360]
        # Element t is the t-th power of the generator; the characters are
        # the real one, the one of order two, then the pairs (w, -w).
        count, t, w = 360, np.arange(360)[:, np.newaxis], np.arange(1, 180)
        angle = 2 * np.pi * (w * t % count) / count
        expected = np.empty((count, count))
        expected[:, 0] = 1 / np.sqrt(count)
        expected[:, 1] = np.cos(np.pi * t[:, 0]) / np.sqrt(count)
        expected[:, 2::2] = np.sqrt(2 / count) * np.cos(angle)
        expected[:, 3::2] = -np.sqrt(2 / count) * np.sin(angle)
        assert_allclose(group.fourier, expected, rtol=0, atol=1e-14)

    def test_detection_builds_no_full_permutation_table(self, kagome):
        # The full vertex and edge tables of T on kagome 16 x 16 take
        # 256 * (768 + 1536) * 8 bytes = 4.7 MB.
        fw = cf.supercell(kagome, (16, 16))
        vectors = _bar_vectors(fw, fw.edges.ends, fw.edges.cells)
        tracemalloc.start()
        try:
            group = _find_translations(fw, vectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert group.vertices.shape == (256, 3) and group.edges.shape == (256, 6)
        assert peak < 4e6


def still(n, d=2):
    return cf.AffineVelocity(np.zeros((n, d)), np.zeros((d, d)))


@pytest.mark.parametrize("call, message", [
    (lambda fw: cf.MatrixSpace(2, (np.eye(3),)), "basis matrix has shape (3, 3), expected (2, 2)"),
    (lambda fw: cf.matrix_space("full", 0), "matrix space dimension must be at least 1, got 0"),
    (lambda fw: cf.matrix_space("full", -1), "matrix space dimension must be at least 1, got -1"),
    (lambda fw: cf.matrix_space("full", 2).matrix_from_coordinates([1.0, 2.0]), "expected 4 coordinates, got 2"),
    (lambda fw: cf.velocity_from_mode_coordinates(fw, cf.matrix_space("full", 2), np.zeros(3)),
     "expected a vector of length 10, got 3"),
    (lambda fw: cf.velocity_from_mode_coordinates(fw, cf.matrix_space("zero", 2), [np.nan] * 6),
     "vector has a non-finite entry"),
    (lambda fw: cf.edge_deviation(fw, still(3), -0.5), "t must be nonnegative and finite, got -0.5"),
    (lambda fw: cf.edge_deviation(fw, still(3), float("nan")), "t must be nonnegative and finite, got nan"),
    (lambda fw: cf.edge_deviation(fw, still(3), float("inf")), "t must be nonnegative and finite, got inf"),
    (lambda fw: cf.edge_deviation(fw, still(1), 0.1), "velocity shape does not match the framework"),
], ids=["basis-shape", "dimension-0", "dimension-negative", "coordinates", "mode-vector", "nan-mode-vector",
        "negative-t", "nan-t", "infinite-t", "other-velocity"])
def test_rigidity_refusals(kagome, call, message):
    with pytest.raises(ValueError) as caught:
        call(kagome)
    assert str(caught.value) == message
