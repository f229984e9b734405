"""Infinitesimal rigidity analysis of periodic bar-joint frameworks.

Build a framework from a finite motif and period lattice (or load one of
the builtins), choose a space E of admissible lattice velocity matrices,
and read the flex, stress and rigid-motion subspaces and Maxwell-Calladine
style counts from one ``analyze_counts`` call; symmetry-adapted counts
cover declared space-group elements.  Every basis is in one coordinate
system, (u, coordinates of A in E's basis); ``velocity_from_mode_coordinates``
decodes a vector of it.
"""

from .catalog import BUILTIN_NAMES, builtin_framework
from .fileio import (
    AnalysisReport,
    FrameworkParseError,
    analyze_framework,
    emit_report,
    framework_from_dict,
    framework_to_dict,
    load_framework,
    parse_framework,
    save_framework,
    serialize_framework,
)
from .frameworks import (
    AffineVelocity,
    CrystalFramework,
    EdgeGeometry,
    Fragment,
    InvalidFrameworkError,
    MotifEdge,
    MotifVertex,
    PeriodLattice,
    PlacedEdge,
    PlacedPoint,
    edge_geometry,
    fragment,
    point_of,
    supercell,
    validate_framework,
)
from .linalg import (
    DEFAULT_TOL,
    Factorization,
    SubspaceBasis,
    column_space_basis,
    complement_within,
    kernel_basis,
    numeric_rank,
    subspace_intersection,
)
from .rigidity import (
    AffineRigidityCheck,
    CountReport,
    DependentBasisError,
    MATRIX_SPACE_NAMES,
    MatrixSpace,
    RigidityMatrices,
    analyze_counts,
    build_matrices,
    edge_deviation,
    is_affinely_rigid,
    matrix_space,
    restricted_operator,
    rigid_motion_space,
    velocity_from_mode_coordinates,
)
from .svg import render_svg
from .symmetry import (
    CharacterRow,
    SymmetryCountReport,
    SymmetryElement,
    SymmetryError,
    character_row,
    commutant_basis,
    resolve_symmetry,
    symmetry_counts,
    verify_symmetry_equation,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES", "builtin_framework",
    "AnalysisReport", "FrameworkParseError", "analyze_framework", "emit_report",
    "framework_from_dict", "framework_to_dict", "load_framework", "parse_framework",
    "save_framework", "serialize_framework",
    "AffineVelocity", "CrystalFramework", "EdgeGeometry", "Fragment",
    "InvalidFrameworkError", "MotifEdge", "MotifVertex", "PeriodLattice", "PlacedEdge",
    "PlacedPoint", "edge_geometry", "fragment", "point_of", "supercell",
    "validate_framework",
    "DEFAULT_TOL", "Factorization", "SubspaceBasis", "column_space_basis",
    "complement_within", "kernel_basis", "numeric_rank",
    "subspace_intersection",
    "AffineRigidityCheck", "CountReport", "DependentBasisError", "MATRIX_SPACE_NAMES",
    "MatrixSpace", "RigidityMatrices", "analyze_counts", "build_matrices",
    "edge_deviation", "is_affinely_rigid", "matrix_space", "restricted_operator",
    "rigid_motion_space", "velocity_from_mode_coordinates",
    "render_svg",
    "CharacterRow", "SymmetryCountReport", "SymmetryElement", "SymmetryError",
    "character_row", "commutant_basis", "resolve_symmetry", "symmetry_counts",
    "verify_symmetry_equation",
]
