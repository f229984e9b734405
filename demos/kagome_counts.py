"""Counting mechanisms and self-stresses of the kagome framework.

The kagome framework is the classic example where strict periodicity hides
flexibility bookkeeping: three collinear-bar self-stresses force a single
periodic mechanism, and admitting affine distortions of the lattice removes
all stresses while the mechanism survives.
"""

import numpy as np

import crystalflex as cf

kagome = cf.builtin_framework("kagome")
print("kagome motif:", kagome.vertex_count, "vertices,", kagome.edge_count, "edges")
print("period matrix (columns are the periods):")
print(kagome.lattice.matrix)

# Every bar has length 1/2.
for i, e in enumerate(kagome.edges):
    geom = cf.edge_geometry(kagome, e)
    print(f"  bar {i}: vector {np.round(geom.vector, 6)}, offset {geom.offset}, length {geom.length:.3f}")

# The strict operator (no lattice distortion) is 6x6; with the d^2 = 4
# coordinates of the distortion velocity A appended it is 6x10.
strict = cf.matrix_space("zero", 2)
affine = cf.matrix_space("full", 2)
print("strict matrix shape:", cf.restricted_operator(kagome, strict).shape,
      "| full affine shape:", cf.restricted_operator(kagome, affine).shape)

counts = {}
for label, space in (("strict", strict), ("affine", affine)):
    rep = counts[label] = cf.analyze_counts(kagome, space)
    print(f"\n{label}: m={rep.mechanisms} s={rep.stresses} f={rep.rigid_motions}")
    print(f"  identity: {rep.mechanisms} - {rep.stresses} = "
          f"{rep.vertex_dof} + {rep.space_dim} - {rep.edge_count} - {rep.rigid_motions}"
          f"  (residual {rep.identity_residual})")

# The one strict mechanism is the alternating rotation of the motif
# triangle about its centre.
mech = cf.complement_within(counts["strict"].flex_basis, counts["strict"].rigid_basis)
velocity = cf.velocity_from_mode_coordinates(kagome, strict, mech.basis[:, 0])
print("\nalternating mechanism, vertex velocities:")
print(np.round(velocity.vertex_velocities, 6))

# Moving along the mechanism changes bar lengths only at second order.
for t in (1e-2, 1e-3):
    dev = cf.edge_deviation(kagome, velocity, t)
    print(f"  t={t:g}: worst bar-length deviation {dev:.3e} (dev/t^2 = {dev / t**2:.4f})")

check = cf.is_affinely_rigid(kagome)
print(f"\naffinely rigid? {check.is_rigid} (rank {check.rank}, needed {check.required_rank})")
