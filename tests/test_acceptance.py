"""Acceptance suite: one test per release criterion, in order.

Each test prints a PASS line once its assertions hold, so running

    pytest tests/test_acceptance.py -v -s

shows one line per criterion.
"""

import json

import numpy as np

import crystalflex as cf
from crystalflex.cli import main
from oracles import match_rows_up_to_sign, torus_rigidity_matrix


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_01_kagome_strict_counts(kagome):
    rep = cf.analyze_counts(kagome, cf.matrix_space("zero", 2, kagome.tolerance))
    assert rep.stresses == 3
    assert rep.mechanisms == 1
    assert rep.rigid_motions == 2
    assert rep.identity_residual == 0
    report(1, "kagome strict counts s=3 m=1 f=2")


def test_criterion_02_kagome_affine_counts(kagome):
    rep = cf.analyze_counts(kagome, cf.matrix_space("full", 2, kagome.tolerance))
    assert rep.stresses == 0
    assert rep.mechanisms == 1
    assert rep.rigid_motions == 3
    assert rep.identity_residual == 0
    assert rep.mechanisms - rep.stresses == 6 + 4 - 6 - 3
    report(2, "kagome affine counts s=0 m=1 f=3 with 1-0 = 6+4-6-3")


def test_criterion_03_kagome_symmetry_adapted_counts(kagome):
    rep = cf.symmetry_counts(kagome, kagome.symmetries[0])
    assert rep.fixed_vertex_dim == 2
    assert rep.commutant_dim == 2
    assert rep.edge_orbits == 2
    assert rep.fixed_rigid_dim == 1
    assert rep.mechanisms == 1
    assert rep.stresses == 0
    assert rep.identity_residual == 0
    report(3, "kagome threefold counts dimF=2 dimE=2 e=2 f=1 m=1 s=0")


def test_criterion_04_hexahedron_rigidity(hexahedron):
    mats = cf.build_matrices(hexahedron)
    assert mats.vertex_block.shape == (9, 6)
    full = cf.matrix_space("full", 3, hexahedron.tolerance)
    assert cf.restricted_operator(hexahedron, full).shape == (9, 15)
    strict = cf.matrix_space("zero", 3, hexahedron.tolerance)
    rep = cf.analyze_counts(hexahedron, strict)
    flexes = rep.flex_basis
    rigid = cf.rigid_motion_space(hexahedron, strict)
    assert flexes.dim == 3
    assert rigid.dim == 3
    assert flexes.contains(rigid.basis)
    assert rep.mechanisms == 0
    assert rep.stresses == 6
    assert rep.identity_residual == 0
    report(4, "hexahedron strictly rigid: m=0, shapes 9x6/9x15, s=6 forced")


def test_criterion_05_symmetry_equations():
    worst = 0.0
    pairs = 0
    for name in cf.BUILTIN_NAMES:
        fw = cf.builtin_framework(name)
        for g in fw.symmetries:
            full = cf.matrix_space("full", fw.dimension, fw.tolerance)
            residual = cf.verify_symmetry_equation(fw, g, full)
            worst = max(worst, residual)
            pairs += 1
            assert residual < 1e-9, f"{name}/{g.name}: residual {residual}"
    assert pairs >= 3
    report(5, f"symmetry equations hold for all declared elements (max residual {worst:.2e})")


def test_criterion_06_character_identity(kagome):
    threefold = kagome.symmetries[0]
    identity = cf.resolve_symmetry(kagome, np.eye(2), np.zeros(2), "id")
    worst = 0.0
    for g in (identity, threefold):
        space = cf.commutant_basis(g.linear, kagome.tolerance)
        row = cf.character_row(kagome, g, space)
        worst = max(worst, abs(row.residual))
        assert abs(row.residual) < 1e-9
    report(6, f"trace identity closes for identity and threefold (max residual {worst:.2e})")


def test_criterion_07_quadratic_deviation(kagome):
    affine = cf.matrix_space("full", 2, kagome.tolerance)
    counts = cf.analyze_counts(kagome, affine)
    checked = 0
    for col in counts.flex_basis.basis.T:
        velocity = cf.velocity_from_mode_coordinates(kagome, affine, col)
        r_coarse = cf.edge_deviation(kagome, velocity, 1e-2) / 1e-4
        r_fine = cf.edge_deviation(kagome, velocity, 1e-3) / 1e-6
        if max(r_coarse, r_fine) < 1e-6:
            continue  # isometric to round-off; quadratic bound holds trivially
        assert max(r_coarse, r_fine) / min(r_coarse, r_fine) < 1.5
        checked += 1
    assert checked >= 1

    mech = cf.complement_within(counts.flex_basis, counts.rigid_basis)
    velocity = cf.velocity_from_mode_coordinates(kagome, affine, mech.basis[:, 0])
    bumped = np.array(velocity.vertex_velocities)
    bumped[0, 0] += 0.1
    non_flex = cf.AffineVelocity(bumped, velocity.distortion)
    assert cf.edge_deviation(kagome, non_flex, 1e-3) / 1e-3 > 1e-3
    report(7, "flex deviations scale quadratically; perturbed non-flex stays first order")


def test_criterion_08_torus_oracle():
    for name in cf.BUILTIN_NAMES:
        fw = cf.builtin_framework(name)
        mats = cf.build_matrices(fw)
        assert match_rows_up_to_sign(mats.vertex_block, torus_rigidity_matrix(fw), tol=1e-12), name
    report(8, "strict matrices equal the one-cell torus matrices up to row order/sign")


def test_criterion_09_kagome_supercell(kagome):
    big = cf.supercell(kagome, (2, 2))
    rep = cf.analyze_counts(big, cf.matrix_space("zero", 2, big.tolerance))
    assert rep.identity_residual == 0
    assert rep.mechanisms >= 1
    report(9, f"kagome 2x2 supercell identity closes with m={rep.mechanisms} >= 1")


def test_criterion_10_determinism_and_exit_codes(capsys):
    modes = [["strict"], ["affine"], ["space", "symmetric"], ["space", "skew"],
             ["space", "diagonal"]]
    for name in cf.BUILTIN_NAMES:
        for mode in modes:
            code = main(["analyze", "--builtin", name, "--mode", *mode, "--json"])
            captured = capsys.readouterr()
            assert code == 0, f"{name} {mode} exited {code}: {captured.err}"
            json.loads(captured.out)

    outputs = []
    for _ in range(2):
        code = main(["analyze", "--builtin", "kagome", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    with capsys.disabled():
        report(10, "reports byte-identical across runs; exit 3 unreachable on builtins")
