"""A rigid three-dimensional example: the hexahedron framework.

Triangular bipyramids (two tetrahedra glued on a face) stacked vertically
and connected into a triangular horizontal net.  One rigid unit fills the
whole cell, so the framework is strictly periodically rigid, and even
admitting affine lattice distortions adds no mechanism.
"""

import numpy as np

import crystalflex as cf

hexa = cf.builtin_framework("hexahedron")
print("motif:", hexa.vertex_count, "vertex classes,", hexa.edge_count, "bars")
for i, v in enumerate(hexa.vertices):
    print(f"  {hexa.vertex_label(i)}: {np.round(v.position, 6)}")
lengths = {round(cf.edge_geometry(hexa, e).length, 12) for e in hexa.edges}
print("distinct bar lengths:", lengths)

mats = cf.build_matrices(hexa)
print("strict matrix:", mats.vertex_block.shape, "| affine:", mats.full.shape)
print("equatorial bars join a class to its own translates, so their vertex",
      "blocks vanish:", np.count_nonzero(mats.vertex_block[:3]) == 0)

strict = cf.matrix_space("zero", 3)
rep = cf.analyze_counts(hexa, strict)
print(f"\nstrict counts: m={rep.mechanisms} s={rep.stresses} f={rep.rigid_motions} "
      f"(residual {rep.identity_residual})")
print("strictly periodically rigid:", rep.mechanisms == 0)

check = cf.is_affinely_rigid(hexa)
print(f"affinely rigid: {check.is_rigid} (rank {check.rank} = {check.required_rank} required)")

# The threefold rotation about the polar axis maps the equatorial class to
# a translate of itself, so it is not separable; the general fixed-space
# count still closes, but is inconclusive about extra flexibility.
threefold = hexa.symmetries[0]
print("\nthreefold rotation separable:", threefold.separable)
print(f"symmetry equation residual: {cf.verify_symmetry_equation(hexa, threefold):.2e}")
counts = cf.symmetry_counts(hexa, threefold)
print(f"fixed domain {counts.fixed_domain_dim}, edge orbits {counts.edge_orbits}, "
      f"fixed rigid {counts.fixed_rigid_dim}")
print("predictor fires:", counts.flexible_predicted,
      " (the symmetric count cannot certify a mechanism here)")
