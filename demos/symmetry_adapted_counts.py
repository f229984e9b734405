"""Symmetry-adapted counting on the kagome framework.

Restricting the count to vectors fixed by one space-group element often
decides flexibility with far smaller numbers than the full count.  Here the
threefold rotation about the motif triangle's centre already forces a
symmetric mechanism: 2 + 2 - 2 - 1 = 1 > 0.
"""

import numpy as np

import crystalflex as cf

kagome = cf.builtin_framework("kagome")
threefold = kagome.symmetries[0]

print("element:", threefold.name)
print("vertex permutation:", threefold.vertex_map.tolist(), "offsets:", threefold.vertex_offsets.tolist())
print("edge permutation:", threefold.edge_map.tolist())
print("separable:", threefold.separable)

# The representations intertwine the rigidity operator: the residual of the
# symmetry equation is zero to round-off.
residual = cf.verify_symmetry_equation(kagome, threefold, cf.matrix_space("full", 2))
print(f"symmetry equation residual: {residual:.2e}")

counts = cf.symmetry_counts(kagome, threefold)
print(f"\nfixed vertex space: {counts.fixed_vertex_dim}")
print(f"commutant of the rotation: {counts.commutant_dim}")
print(f"edge orbits: {counts.edge_orbits}, fixed rigid motions: {counts.fixed_rigid_dim}")
print(f"symmetric mechanisms m_g = {counts.mechanisms}, symmetric stresses s_g = {counts.stresses}")
print(f"identity residual: {counts.identity_residual}")
print("predictor fires:", counts.flexible_predicted)

# Trace (character) row for the same element.
row = cf.character_row(kagome, threefold, cf.commutant_basis(threefold.linear))
print(f"\ntraces: vertex {row.vertex_trace:+.3f}, edge {row.edge_trace:+.3f}, "
      f"rigid {row.rigid_trace:+.3f}, mech {row.mechanism_trace:+.3f}, "
      f"stress {row.stress_trace:+.3f}  (residual {row.residual:.2e})")

# Nonseparable elements work too: reflect in the x-axis and shift half a
# period.  The vertex images land outside the base cell, so the domain
# representation picks up a coupling block, and the general fixed-space
# count applies.
glide = cf.resolve_symmetry(kagome, np.diag([1.0, -1.0]), [0.5, 0.0], "glide")
print("\nglide separable:", glide.separable, "offsets:", glide.vertex_offsets.tolist())
print(f"glide symmetry equation residual: {cf.verify_symmetry_equation(kagome, glide):.2e}")
gcounts = cf.symmetry_counts(kagome, glide)
print(f"glide counts: fixed domain {gcounts.fixed_domain_dim}, e_g {gcounts.edge_orbits}, "
      f"f_g {gcounts.fixed_rigid_dim}, m_g {gcounts.mechanisms}, s_g {gcounts.stresses} "
      f"(residual {gcounts.identity_residual})")
