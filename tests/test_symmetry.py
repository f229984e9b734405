import tracemalloc
from dataclasses import replace
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import crystalflex as cf
import crystalflex.symmetry
from crystalflex.rigidity import _held_rigid, unvec
from crystalflex.symmetry import (
    _domain_action,
    _fixed_domain,
    _fixed_points,
    _orbit_minima,
    _orbit_starts,
)
from oracles import (
    dense_factorization,
    per_use_character_row,
    per_use_edge_rows,
    per_use_equation_residual,
    per_use_symmetry_counts,
    scrambled_supercell,
)

S3 = np.sqrt(3.0)


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def identity_element(fw, name="id"):
    d = fw.dimension
    return cf.resolve_symmetry(fw, np.eye(d), np.zeros(d), name)


def full_action(fw, element):
    """Gathered domain action on (u, vec A), the coordinates of the full space."""
    return _domain_action(fw, element)


def dense(action):
    """The gathered domain action as a matrix: its image of the identity."""
    return action.apply(np.eye(len(action.coupling) + len(action.conjugation)))


def edge_matrix(action):
    """The gathered edge action as a matrix: its image of the identity."""
    return action.permute_edges(np.eye(len(action.element.edge_map)))


def fixed_space(matrix, tol=cf.DEFAULT_TOL):
    """Eigenspace of eigenvalue one of a dense matrix, from one SVD of D - I."""
    return cf.kernel_basis(matrix - np.eye(len(matrix)), tol)


def dense_equation_residual(operator, edge_perm, domain):
    """Max-norm residual of P_e R - R D from the dense matrices."""
    return float(np.max(np.abs(edge_perm @ operator - operator @ domain), initial=0.0))


def reference_vertex_action(fw, linear, translation):
    """Vertex map by the pairwise loop resolve_symmetry replaced: the lowest
    class within 10 tol of each image; None when the map is not a bijection."""
    frac = fw.lattice.fractional(fw.positions)
    vertex_map = []
    for p in fw.positions:
        image = fw.lattice.fractional(linear @ p + translation)
        vertex_map.append(next(j for j in range(fw.vertex_count)
                               if np.max(np.abs(image - frac[j] - np.round(image - frac[j])))
                               <= 10 * fw.tolerance))
    return tuple(vertex_map) if len(set(vertex_map)) == fw.vertex_count else None


@pytest.fixture
def kagome_r3(kagome):
    return kagome.symmetries[0]


@pytest.fixture
def kagome_glide(kagome):
    # reflect in the x-axis, then shift half a period: nonseparable
    return cf.resolve_symmetry(kagome, np.diag([1.0, -1.0]), [0.5, 0.0], "glide")


class TestResolve:
    def test_identity(self, kagome):
        g = identity_element(kagome)
        assert g.vertex_map.tolist() == [0, 1, 2]
        assert g.vertex_offsets.tolist() == [[0, 0], [0, 0], [0, 0]]
        assert g.edge_map.tolist() == [0, 1, 2, 3, 4, 5]
        assert g.separable

    def test_kagome_threefold(self, kagome_r3):
        assert sorted(kagome_r3.vertex_map) == [0, 1, 2]
        assert kagome_r3.vertex_map.tolist() != [0, 1, 2]
        assert kagome_r3.separable
        assert len(_orbit_starts([kagome_r3.edge_map])[0]) == 2

    def test_fourfold_incompatible_with_hexagonal_lattice(self, kagome):
        with pytest.raises(cf.SymmetryError, match="lattice-incompatible"):
            cf.resolve_symmetry(kagome, rotation(np.pi / 4), np.zeros(2), "r8")

    def test_rotation_about_wrong_point_is_not_a_symmetry(self, kagome):
        with pytest.raises(cf.SymmetryError, match="matches no vertex class"):
            cf.resolve_symmetry(kagome, rotation(2 * np.pi / 3), np.zeros(2), "bad")

    def test_edge_mismatch_detected(self):
        lines = cf.CrystalFramework(
            cf.PeriodLattice(np.eye(2)),
            [cf.MotifVertex([0.0, 0.0])],
            [cf.MotifEdge(0, (0, 0), 0, (1, 0))],
        )
        with pytest.raises(cf.SymmetryError, match="matches no edge class"):
            cf.resolve_symmetry(lines, rotation(np.pi / 2), np.zeros(2), "r4")

    def test_nonorthogonal_rejected(self, kagome):
        with pytest.raises(cf.SymmetryError, match="not orthogonal"):
            cf.resolve_symmetry(kagome, np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2), "shear")

    @pytest.mark.parametrize("linear, translation, part", [
        ([[np.nan, 0.0], [0.0, 1.0]], [0.0, 0.0], "linear part"),
        ([[np.inf, 0.0], [0.0, 1.0]], [0.0, 0.0], "linear part"),
        (np.eye(2), [0.0, np.nan], "translation")])
    def test_non_finite_element_rejected(self, kagome, linear, translation, part):
        # nan compares false, so the orthogonality test alone passes a nan
        # linear part, and its vertex images would match no class.
        with pytest.raises(cf.SymmetryError, match=rf"^element 'g': {part} is not finite$"):
            cf.resolve_symmetry(kagome, linear, translation, "g")

    def test_glide_actions(self, kagome_glide):
        assert kagome_glide.vertex_map.tolist() == [1, 0, 2]
        assert kagome_glide.vertex_offsets.tolist() == [[0, 0], [1, 0], [1, -1]]
        assert not kagome_glide.separable

    @pytest.mark.parametrize("order, expected", [((0, 1), (0, 1)), ((1, 0), None)])
    def test_ambiguous_image_takes_the_lowest_class(self, order, expected):
        # Classes 9 tol apart (distinct to validation) both lie within the
        # 10 tol matching window of the first class's image under a shift by
        # 6 tol; the second class's image reaches only its own class.  The
        # lowest index wins, as in the pairwise loop: in the reversed order
        # both images pick index 0 and the action is not a bijection.
        tol = 1e-6
        points = [np.array([0.1, 0.1]), np.array([0.1 + 9 * tol, 0.1])]
        fw = cf.CrystalFramework(
            cf.PeriodLattice(np.eye(2)),
            [cf.MotifVertex(points[k]) for k in order],
            [cf.MotifEdge(0, (0, 0), 0, (1, 0)), cf.MotifEdge(1, (0, 0), 1, (0, 1))],
            tolerance=tol,
        )
        shift = np.array([6 * tol, 0.0])
        assert reference_vertex_action(fw, np.eye(2), shift) == expected
        if expected is None:
            with pytest.raises(cf.SymmetryError, match="not a bijection"):
                cf.resolve_symmetry(fw, np.eye(2), shift, "t")
        else:
            g = cf.resolve_symmetry(fw, np.eye(2), shift, "t")
            assert g.vertex_map.tolist() == list(expected)
            assert g.vertex_offsets.tolist() == [[0, 0], [0, 0]]

    def test_image_beyond_the_cell_limit(self, square_grid):
        with pytest.raises(cf.SymmetryError,
                           match=r"^element 't': image of vertex p1 lies 2\*\*53 or more cells away$"):
            cf.resolve_symmetry(square_grid, np.eye(2), [1e300, 0.0], "t")

    def test_hexahedron_rotation_is_nonseparable(self, hexahedron):
        g = hexahedron.symmetries[0]
        assert not g.separable
        assert g.vertex_map.tolist() == [0, 1]
        assert g.vertex_offsets[0].tolist() != [0, 0, 0]
        assert g.vertex_offsets[1].tolist() == [0, 0, 0]


    def test_maps_are_read_only_int64_arrays(self, any_builtin):
        # Builtin, parsed and supercell-resolved elements hold one form.
        big = cf.supercell(any_builtin, (2,) * any_builtin.dimension)
        parsed = cf.parse_framework(cf.serialize_framework(any_builtin))
        cases = [(any_builtin, any_builtin.symmetries), (parsed, parsed.symmetries),
                 (big, [cf.resolve_symmetry(big, g.linear, g.translation, g.name)
                        for g in any_builtin.symmetries])]
        for fw, elements in cases:
            assert elements
            n, m, d = fw.vertex_count, fw.edge_count, fw.dimension
            for g in elements:
                for name, shape in [("vertex_map", (n,)), ("vertex_offsets", (n, d)), ("edge_map", (m,))]:
                    value = getattr(g, name)
                    assert isinstance(value, np.ndarray), name
                    assert (value.dtype, value.shape) == (np.int64, shape), name
                    with pytest.raises(ValueError, match="read-only"):
                        value[0] = 0


    def test_element_shares_no_array_with_the_caller(self, kagome, kagome_r3):
        linear, translation = np.array(kagome_r3.linear), np.array(kagome_r3.translation)
        g = cf.resolve_symmetry(kagome, linear, translation, "r3")
        linear[:] = 0.0
        translation[:] = 0.0
        assert_allclose(g.linear, kagome_r3.linear, rtol=0, atol=0)
        assert_allclose(g.translation, kagome_r3.translation, rtol=0, atol=0)


class TestSeparability:
    def test_identity_is_separable(self, kagome):
        assert identity_element(kagome).separable

    def test_threefold_is_separable(self, kagome_r3):
        assert kagome_r3.separable

    def test_glide_is_not(self, kagome_glide):
        assert not kagome_glide.separable


class TestRepresentations:
    def test_identity_blocks(self, kagome):
        action = full_action(kagome, identity_element(kagome))
        assert_allclose(dense(action)[:6, :6], np.eye(6))
        assert_allclose(edge_matrix(action), np.eye(6))
        assert_allclose(action.conjugation, np.eye(4))
        assert_allclose(action.coupling, 0)

    def test_threefold_vertex_rep_is_kron(self, kagome, kagome_r3):
        action = full_action(kagome, kagome_r3)
        perm = np.zeros((3, 3))
        for v in range(3):
            perm[kagome_r3.vertex_map[v], v] = 1.0
        assert_allclose(dense(action)[:6, :6], np.kron(perm, kagome_r3.linear), atol=1e-15)
        assert_allclose(action.coupling, 0)

    def test_edge_perm_is_permutation(self, any_builtin):
        for g in any_builtin.symmetries:
            p = edge_matrix(full_action(any_builtin, g))
            assert_allclose(p.sum(axis=0), 1)
            assert_allclose(p.sum(axis=1), 1)
            assert set(np.unique(p)) <= {0.0, 1.0}

    def test_conjugation_block(self, kagome, kagome_r3):
        action = full_action(kagome, kagome_r3)
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = kagome_r3.linear
        lhs = action.conjugation @ a.reshape(-1, order="F")
        assert_allclose(lhs, (b @ a @ b.T).reshape(-1, order="F"), atol=1e-14)

    def test_glide_coupling_is_nonzero(self, kagome, kagome_glide):
        action = full_action(kagome, kagome_glide)
        assert np.max(np.abs(action.coupling)) > 0.1


def reference_representation(fw, element):
    """The dense representation, one block per vertex: the vertex
    representation, the 0/1 edge permutation, the offset coupling and the
    block domain action on (u, vec A) assembled from them."""
    d, n, m = fw.dimension, fw.vertex_count, fw.edge_count
    b, z = element.linear, fw.lattice.matrix
    vertex_rep = np.zeros((d * n, d * n))
    coupling = np.zeros((d * n, d * d))
    for v in range(n):
        g = element.vertex_map[v]
        vertex_rep[d * g:d * g + d, d * v:d * v + d] = b
        off = np.asarray(element.vertex_offsets[v], dtype=float)
        if off.any():
            w = -b.T @ (z @ off)
            coupling[d * g:d * g + d, :] = -np.kron(w, b)
    edge_perm = np.zeros((m, m))
    for e in range(m):
        edge_perm[element.edge_map[e], e] = 1.0
    domain = np.block([[vertex_rep, coupling], [np.zeros((d * d, d * n)), np.kron(b, b)]])
    return vertex_rep, edge_perm, coupling, domain


ELEMENTS = [("square_grid", "r4"), ("kagome", "r3"), ("kagome", "glide"), ("hexahedron", "r3")]
# Elements of the supercells only (n >= 2): the translation by the base
# cell's first period, whose vertex cycles close through the offsets alone,
# and the inversion, whose linear part fixes no vector.
SUPERCELL_ELEMENTS = [("kagome", "translation"), ("kagome", "inversion")]


def supercell_element(case, n, seed):
    """Scrambled n-fold supercell of a builtin and one element resolved on it."""
    name, element = case
    if (name, element) in SUPERCELL_ELEMENTS:
        n = max(n, 2)
    fw = scrambled_supercell(name, n, np.random.default_rng(seed), translate=False)
    base = cf.builtin_framework(name)
    if element == "glide":      # nonseparable, with offsets in both directions
        linear, translation = np.diag([1.0, -1.0]), np.array([0.5, 0.0])
    elif element == "translation":
        linear, translation = np.eye(base.dimension), base.lattice.matrix[:, 0]
    elif element == "inversion":
        linear, translation = -np.eye(base.dimension), np.zeros(base.dimension)
    else:
        declared = base.symmetries[0]
        linear, translation = declared.linear, declared.translation
    return fw, cf.resolve_symmetry(fw, linear, translation, element)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ELEMENTS), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_array_representations_match_the_per_vertex_loop(case, n, seed):
    name, element = case
    fw, g = supercell_element(case, min(n, 2) if name == "hexahedron" else n, seed)
    assert element != "glide" or not g.separable
    action = full_action(fw, g)
    vertex_rep, edge_perm, coupling, domain = reference_representation(fw, g)
    dn = len(vertex_rep)
    assert_allclose(dense(action)[:dn, :dn], vertex_rep, rtol=0, atol=1e-12)
    assert_allclose(edge_matrix(action), edge_perm, rtol=0, atol=1e-12)
    assert_allclose(action.coupling, coupling, rtol=0, atol=1e-12)
    assert_allclose(dense(action), domain, rtol=0, atol=1e-12)
    assert action.trace() == pytest.approx(np.trace(domain), abs=1e-12)
    assert _fixed_points(g.edge_map) == np.trace(edge_perm)
    full = cf.matrix_space("full", fw.dimension, fw.tolerance)
    assert action.equation_residual(*per_use_edge_rows(fw, full)) == pytest.approx(
        dense_equation_residual(cf.restricted_operator(fw, full), edge_perm, domain), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ELEMENTS + SUPERCELL_ELEMENTS), st.integers(2, 3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["edge_map", "vertex_offsets"]), st.data())
def test_gathered_equation_residual_of_a_broken_element_matches_the_dense_one(
        case, n, seed, broken, data):
    # Two edge images from different orbits swapped, or one vertex offset
    # row moved by a period, break the symmetry equation by O(1): the
    # gathered residual must reproduce the dense one, not just be small.
    fw, g = supercell_element(case, 2 if case[0] == "hexahedron" else n, seed)
    if broken == "edge_map":
        least = _orbit_minima([g.edge_map])
        first = data.draw(st.integers(0, fw.edge_count - 1))
        others = np.flatnonzero(least != least[first])
        assume(len(others))
        second = others[data.draw(st.integers(0, len(others) - 1))]
        edge_map = g.edge_map.copy()
        edge_map[[first, second]] = edge_map[[second, first]]
        bad = replace(g, edge_map=edge_map)
    else:
        offsets = g.vertex_offsets.copy()
        offsets[data.draw(st.integers(0, fw.vertex_count - 1)),
                data.draw(st.integers(0, fw.dimension - 1))] += data.draw(st.sampled_from([-1, 1]))
        bad = replace(g, vertex_offsets=offsets)
    full = cf.matrix_space("full", fw.dimension, fw.tolerance)
    _, edge_perm, _, domain = reference_representation(fw, bad)
    expected = dense_equation_residual(cf.restricted_operator(fw, full), edge_perm, domain)
    assert expected > 0.1
    assert full_action(fw, bad).equation_residual(*per_use_edge_rows(fw, full)) == pytest.approx(
        expected, rel=1e-12, abs=0)


def reference_cycle_lengths(perm):
    """Cycle lengths, in the order of each cycle's least point, by a set-based walk."""
    seen, lengths = set(), []
    for start in range(len(perm)):
        if start in seen:
            continue
        length, current = 0, start
        while current not in seen:
            seen.add(current)
            current = perm[current]
            length += 1
        lengths.append(length)
    return lengths


def reference_symmetry_counts(fw, element):
    """The dense path symmetry_counts replaced: fixed vertex and edge spaces
    from SVDs of the representations, and m_g + f_g from the kernel of the
    whole operator intersected with the fixed domain."""
    tol = fw.tolerance
    vertex_rep, edge_perm, _, domain = reference_representation(fw, element)
    full = cf.matrix_space("full", fw.dimension, tol)
    fixed_domain = fixed_space(domain, tol)
    orbits = len(reference_cycle_lengths(element.edge_map))
    operator = cf.restricted_operator(fw, full)
    rigid = cf.rigid_motion_space(fw, full)
    f = cf.subspace_intersection(rigid, fixed_domain).dim
    m = cf.subspace_intersection(cf.kernel_basis(operator, tol), fixed_domain).dim - f
    fixed_edge = fixed_space(edge_perm, tol)
    s = fixed_edge.dim - cf.numeric_rank(fixed_edge.basis.T @ operator @ fixed_domain.basis, tol)
    return cf.SymmetryCountReport(
        element_name=element.name,
        separable=element.separable,
        fixed_vertex_dim=fixed_space(vertex_rep, tol).dim,
        commutant_dim=cf.commutant_basis(element.linear, tol).dim,
        fixed_domain_dim=fixed_domain.dim,
        edge_orbits=orbits,
        fixed_rigid_dim=f,
        mechanisms=m,
        stresses=s,
        identity_residual=(m - s) - (fixed_domain.dim - orbits - f),
        flexible_predicted=orbits < fixed_domain.dim - f,
        equation_residual=dense_equation_residual(operator, edge_perm, domain),
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ELEMENTS + SUPERCELL_ELEMENTS), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_counts_on_the_fixed_subspaces_match_the_dense_path(case, n, seed):
    fw, g = supercell_element(case, n, seed)
    counts, expected = cf.symmetry_counts(fw, g), reference_symmetry_counts(fw, g)
    # The residuals sum the same products in a different order.
    assert counts.equation_residual == pytest.approx(expected.equation_residual, abs=1e-12)
    assert replace(counts, equation_residual=expected.equation_residual) == expected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ELEMENTS + SUPERCELL_ELEMENTS), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_orbit_built_fixed_domain_matches_the_dense_fixed_space(case, n, seed):
    fw, g = supercell_element(case, n, seed)
    tol = fw.tolerance
    vertex_rep, _, _, domain = reference_representation(fw, g)
    fixed, free = _fixed_domain(full_action(fw, g), cf.commutant_basis(g.linear, tol), tol)
    expected = fixed_space(domain, tol)
    assert_allclose(fixed.basis.T @ fixed.basis, np.eye(fixed.dim), rtol=0, atol=1e-12)
    assert_allclose(domain @ fixed.basis, fixed.basis, rtol=0, atol=1e-9)
    assert fixed.dim == expected.dim
    assert cf.subspace_intersection(fixed, expected).dim == expected.dim
    assert free == fixed_space(vertex_rep, tol).dim


def assert_rows_repeat_along_edge_orbits(fw, element):
    """R maps the fixed domain into the fixed edge space, the invariant
    symmetry_counts rests on: the rows of R F_dom agree within each edge
    orbit, and the orbit rigidity matrix F_e^T R F_dom has the singular
    values of R F_dom; all from the dense operator and fixed spaces."""
    tol = fw.tolerance
    _, edge_perm, _, domain = reference_representation(fw, element)
    operator = cf.restricted_operator(fw, cf.matrix_space("full", fw.dimension, tol))
    image = operator @ fixed_space(domain, tol).basis
    least = _orbit_minima([element.edge_map])
    spread = np.max(np.abs(image - image[least]), initial=0.0)
    assert spread <= 10 * tol * max(1.0, np.max(np.abs(image), initial=0.0))
    orbit = fixed_space(edge_perm, tol).basis.T @ image
    assert orbit.shape[0] == len(_orbit_starts([element.edge_map])[0])
    if min(image.shape):
        sigma = np.linalg.svd(image, compute_uv=False)
        orbit_sigma = np.linalg.svd(orbit, compute_uv=False)
        padded = np.concatenate([orbit_sigma, np.zeros(len(sigma) - len(orbit_sigma))])
        assert_allclose(padded, sigma, rtol=0, atol=1e-12 * sigma[0])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ELEMENTS + SUPERCELL_ELEMENTS), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_rows_of_the_restricted_operator_repeat_along_edge_orbits(case, n, seed):
    assert_rows_repeat_along_edge_orbits(*supercell_element(case, n, seed))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.permutations(range(n))))
def test_orbit_starts_match_the_walk(perm):
    least = _orbit_minima([perm])
    starts, sizes = _orbit_starts([perm])
    assert sizes.tolist() == reference_cycle_lengths(perm)
    assert all(least[perm[x]] == least[x] for x in range(len(perm)))
    assert starts.tolist() == [x for x in range(len(perm)) if least[x] not in least[:x]]


def reference_orbit_starts(maps):
    """The least point and the size of each orbit of the group the maps
    generate, by a set-based walk from each point not yet seen."""
    seen, starts, sizes = set(), [], []
    for start in range(len(maps[0])):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for m in maps:
                if int(m[x]) not in orbit:
                    orbit.add(int(m[x]))
                    frontier.append(int(m[x]))
        seen |= orbit
        starts.append(start)
        sizes.append(len(orbit))
    return starts, sizes


# Blocks Z_a x Z_b, each translated by one step per map, so the maps commute.
GRID_BLOCKS = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3), st.integers(0, 3),
                                 st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(GRID_BLOCKS, st.integers(0, 2 ** 32 - 1))
@example([(3, 4, 1, 0, 0, 1)], 0)
def test_orbit_starts_of_commuting_maps_match_the_walk(blocks, seed):
    # Two maps that translate each block Z_a x Z_b by a step of their own,
    # on points relabelled at random; [(3, 4, 1, 0, 0, 1)] is the product of
    # a 3-cycle and a 4-cycle on a 12-point grid, one orbit.
    maps, offset = [[], []], 0
    for a, b, *steps in blocks:
        i, j = np.divmod(np.arange(a * b), b)
        for m, (di, dj) in zip(maps, [steps[:2], steps[2:]]):
            m.append(offset + (i + di) % a * b + (j + dj) % b)
        offset += a * b
    label = np.random.default_rng(seed).permutation(offset)
    relabelled = [np.empty(offset, dtype=np.int64) for _ in maps]
    for out, m in zip(relabelled, maps):
        out[label] = label[np.concatenate(m)]
    starts, sizes = _orbit_starts(relabelled)
    assert (starts.tolist(), sizes.tolist()) == reference_orbit_starts(relabelled)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ELEMENTS + [("kagome", "inversion")]), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_one_action_per_element_matches_the_per_use_construction(case, n, seed):
    # The counts, their equation residual and the character row read the one
    # action on (u, vec A) and the one commutant the framework holds for its
    # element; each once built its own action, on its own space, and its own
    # commutant.
    fw, g = supercell_element(case, min(n, 2) if case[0] == "hexahedron" else n, seed)
    fw = fw.with_symmetries((g,))
    counts = cf.symmetry_counts(fw, g)
    row = cf.character_row(fw, g, counts.commutant)
    assert [key for key in fw._setups if key[0] == "element"] == [("element", id(g))]
    expected = per_use_symmetry_counts(fw, g)
    assert counts.equation_residual == pytest.approx(expected.equation_residual, abs=1e-12)
    assert replace(counts, equation_residual=expected.equation_residual) == expected
    expected_row = per_use_character_row(fw, g, cf.commutant_basis(g.linear, fw.tolerance))
    assert (row.element_name, row.space_name) == (expected_row.element_name, expected_row.space_name)
    for key in ["vertex_trace", "edge_trace", "rigid_trace", "mechanism_trace", "stress_trace", "residual"]:
        assert getattr(row, key) == pytest.approx(getattr(expected_row, key), abs=1e-12), key
    for space in (counts.commutant, cf.matrix_space("full", fw.dimension, fw.tolerance)):
        assert cf.verify_symmetry_equation(fw, g, space) == pytest.approx(
            per_use_equation_residual(fw, g, space), abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2 ** 32 - 1))
def test_held_set_ups_match_the_per_use_construction(n, seed):
    # r3, the glide and the inversion declared together on one scrambled
    # supercell: the affine mode and every element's counts, equation
    # residual and character row read one full space, border and rigid span
    # that the framework holds, and agree with the construction that builds
    # each for its own use.
    fw = scrambled_supercell("kagome", n, np.random.default_rng(seed), translate=False)
    r3 = cf.builtin_framework("kagome").symmetries[0]
    declared = [("r3", r3.linear, r3.translation), ("glide", np.diag([1.0, -1.0]), [0.5, 0.0]),
                ("inversion", -np.eye(2), np.zeros(2))]
    fw = fw.with_symmetries([cf.resolve_symmetry(fw, linear, shift, name) for name, linear, shift in declared])
    report = cf.analyze_framework(fw, characters=True)
    full, affine = report.modes[1]
    assert full is fw._setups[("space", "full")]
    assert affine.rigid_basis is _held_rigid(fw, full)
    tol = fw.tolerance
    for g, entry in zip(fw.symmetries, report.body["symmetries"]):
        counts = cf.symmetry_counts(fw, g)
        expected = per_use_symmetry_counts(fw, g)
        assert counts.equation_residual == pytest.approx(expected.equation_residual, abs=1e-12)
        assert replace(counts, equation_residual=expected.equation_residual) == expected
        assert (entry["m"], entry["s"], entry["f"]) == (expected.mechanisms, expected.stresses,
                                                      expected.fixed_rigid_dim)
        row = cf.character_row(fw, g, counts.commutant)
        expected_row = per_use_character_row(fw, g, cf.commutant_basis(g.linear, tol))
        for key in ["vertex_trace", "edge_trace", "rigid_trace", "mechanism_trace", "stress_trace",
                    "residual"]:
            assert getattr(row, key) == pytest.approx(getattr(expected_row, key), abs=1e-12), key
        assert cf.verify_symmetry_equation(fw, g) == pytest.approx(
            per_use_equation_residual(fw, g, cf.matrix_space("full", 2, tol)), abs=1e-12)
    # The full space's border and rigid span, once for the mode and the three elements.
    assert sum(key[1:] == (full.stacked.shape, full.stacked.tobytes()) for key in fw._setups) == 2


def test_a_with_symmetries_copy_reads_the_held_element_actions(kagome, monkeypatch):
    # The copy shares the framework's set-up store, so the action and the
    # commutant held for the element are not built again.
    g = kagome.symmetries[0]
    counts = cf.symmetry_counts(kagome, g)
    built = []
    for name in ("_domain_action", "commutant_basis"):
        original = getattr(crystalflex.symmetry, name)
        monkeypatch.setattr(crystalflex.symmetry, name,
                            lambda *args, name=name, original=original: built.append(name) or original(*args))
    assert cf.symmetry_counts(kagome.with_symmetries((g,)), g) == counts
    assert built == []



def test_elements_the_framework_does_not_declare_are_not_held(kagome):
    # Each resolve_symmetry call gives a new element; its action and
    # commutant are built for the call, so the store does not grow with them.
    g = kagome.symmetries[0]
    sizes = []
    for _ in range(20):
        element = cf.resolve_symmetry(kagome, g.linear, g.translation, g.name)
        cf.symmetry_counts(kagome, element)
        sizes.append(len(kagome._setups))
    assert sizes == sizes[:1] * 20
    assert ("element", id(element)) not in kagome._setups

def reference_character_row(fw, element, space):
    """The construction character_row replaced: the space re-spanned by an
    orthonormal basis, its own factorization and rigid span, the mechanisms
    as the orthogonal complement of the rigid motions in the flexes, and the
    dense representation restricted to the space through that basis."""
    tol, d = fw.tolerance, fw.dimension
    ortho = cf.column_space_basis(space.stacked, tol)
    space = cf.MatrixSpace(d, tuple(unvec(col, d) for col in ortho.basis.T),
                           name=space.name, tol=tol)
    _, edge_perm, _, full_domain = reference_representation(fw, element)
    dn = d * fw.vertex_count
    embed = np.block([[np.eye(dn), np.zeros((dn, space.dim))],
                      [np.zeros((d * d, dn)), ortho.basis]])
    domain = embed.T @ full_domain @ embed
    factorization = dense_factorization(cf.restricted_operator(fw, space), tol)
    flexes, stresses = factorization.kernel, factorization.cokernel
    rigid = cf.rigid_motion_space(fw, space)
    mech = cf.complement_within(flexes, rigid)

    def trace(action, basis):
        return float(np.trace(basis.basis.T @ action @ basis.basis)) if basis.dim else 0.0

    vertex, edge = float(np.trace(domain)), float(np.trace(edge_perm))
    rigid_trace, mech_trace = trace(domain, rigid), trace(domain, mech)
    stress_trace = trace(edge_perm, stresses)
    return cf.CharacterRow(
        element_name=element.name, space_name=space.name, vertex_trace=vertex,
        edge_trace=edge, rigid_trace=rigid_trace, mechanism_trace=mech_trace,
        stress_trace=stress_trace,
        residual=(mech_trace - stress_trace) - (vertex - edge - rigid_trace))


def sheared(space):
    """The same space spanned by B_0, B_0 + 3 B_1, B_1 + 3 B_2, ...: a basis
    that is neither orthogonal nor normalised."""
    basis = space.basis[:1] + tuple(a + 3 * b for a, b in zip(space.basis, space.basis[1:]))
    return cf.MatrixSpace(space.dimension, basis, name=space.name, tol=space.tol)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ELEMENTS + SUPERCELL_ELEMENTS), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(["commutant", "full"]), st.booleans())
def test_character_row_matches_the_orthonormalised_construction(case, n, seed, space_name,
                                                                shear):
    fw, g = supercell_element(case, n, seed)
    space = (cf.commutant_basis(g.linear, fw.tolerance) if space_name == "commutant"
             else cf.matrix_space("full", fw.dimension, fw.tolerance))
    if shear:
        space = sheared(space)
    row, expected = cf.character_row(fw, g, space), reference_character_row(fw, g, space)
    assert (row.element_name, row.space_name) == (expected.element_name, expected.space_name)
    for key in ["vertex_trace", "edge_trace", "rigid_trace", "mechanism_trace",
                "stress_trace", "residual"]:
        assert getattr(row, key) == pytest.approx(getattr(expected, key), abs=1e-9), key


class TestHomomorphism:
    @staticmethod
    def compose(fw, g, h, name):
        linear = g.linear @ h.linear
        translation = g.linear @ h.translation + g.translation
        return cf.resolve_symmetry(fw, linear, translation, name)

    def test_threefold_powers(self, kagome, kagome_r3):
        g = kagome_r3
        gg = self.compose(kagome, g, g, "r3^2")
        ggg = self.compose(kagome, g, gg, "r3^3")
        rg = full_action(kagome, g)
        rgg = full_action(kagome, gg)
        rid = full_action(kagome, ggg)
        assert_allclose(rg.permute_edges(edge_matrix(rg)), edge_matrix(rgg), atol=1e-12)
        vg = dense(rg)[:6, :6]
        assert_allclose(vg @ vg, dense(rgg)[:6, :6], atol=1e-12)
        assert_allclose(rg.apply(dense(rg)), dense(rgg), atol=1e-12)
        assert_allclose(dense(rid), np.eye(10), atol=1e-12)

    def test_glide_squares_to_translation(self, kagome, kagome_glide):
        g = kagome_glide
        squared = self.compose(kagome, g, g, "glide^2")
        assert_allclose(squared.linear, np.eye(2), atol=1e-15)
        assert_allclose(squared.translation, [1.0, 0.0], atol=1e-15)
        rg = full_action(kagome, g)
        rsq = full_action(kagome, squared)
        assert_allclose(rg.apply(dense(rg)), dense(rsq), atol=1e-12)
        assert_allclose(rg.permute_edges(edge_matrix(rg)), edge_matrix(rsq), atol=1e-12)


class TestSymmetryEquation:
    def test_identity_residual_zero(self, any_builtin):
        assert cf.verify_symmetry_equation(any_builtin, identity_element(any_builtin)) == 0.0

    def test_declared_elements_full(self, any_builtin):
        for g in any_builtin.symmetries:
            full = cf.matrix_space("full", any_builtin.dimension, any_builtin.tolerance)
            assert cf.verify_symmetry_equation(any_builtin, g, full) < 1e-12

    def test_declared_elements_commutant_restricted(self, any_builtin):
        for g in any_builtin.symmetries:
            commutant = cf.commutant_basis(g.linear, any_builtin.tolerance)
            assert cf.verify_symmetry_equation(any_builtin, g, commutant) < 1e-12

    def test_glide_with_coupling_block(self, kagome, kagome_glide):
        full = cf.matrix_space("full", 2, kagome.tolerance)
        assert cf.verify_symmetry_equation(kagome, kagome_glide, full) < 1e-12

    def test_strict_form(self, kagome, kagome_r3):
        strict = cf.matrix_space("zero", 2, kagome.tolerance)
        assert cf.verify_symmetry_equation(kagome, kagome_r3, strict) < 1e-12

    def test_framework_without_bars(self):
        fw = cf.CrystalFramework(cf.PeriodLattice(np.eye(2)), [cf.MotifVertex([0.0, 0.0])], [])
        g = cf.resolve_symmetry(fw, rotation(np.pi / 2), np.zeros(2), "r4")
        assert cf.verify_symmetry_equation(fw, g) == 0.0
        assert cf.symmetry_counts(fw, g).equation_residual == 0.0

    def test_noninvariant_space_rejected(self, kagome, kagome_r3):
        diagonal = cf.matrix_space("diagonal", 2, kagome.tolerance)
        with pytest.raises(cf.SymmetryError, match="not invariant"):
            cf.verify_symmetry_equation(kagome, kagome_r3, diagonal)

    @pytest.mark.parametrize("name", ["full", "zero"])
    @pytest.mark.parametrize("call", [
        lambda fw, g, e: cf.verify_symmetry_equation(fw, g, e),
        lambda fw, g, e: cf.character_row(fw, g, e),
        lambda fw, g, e: cf.analyze_counts(fw, e),
    ], ids=["verify_symmetry_equation", "character_row", "analyze_counts"])
    def test_space_of_another_dimension_is_refused_as_such(self, kagome, kagome_r3, call, name):
        # The dimension is checked before any invariance test.
        with pytest.raises(ValueError, match="matrix space dimension 3 != framework dimension 2") as info:
            call(kagome, kagome_r3, cf.matrix_space(name, 3))
        assert not isinstance(info.value, cf.SymmetryError)


class TestCommutant:
    def test_identity_commutant_is_everything(self):
        assert cf.commutant_basis(np.eye(2)).dim == 4

    def test_threefold_rotation_commutant(self):
        assert cf.commutant_basis(rotation(2 * np.pi / 3)).dim == 2

    def test_inversion_commutant_is_everything(self):
        assert cf.commutant_basis(-np.eye(2)).dim == 4

    def test_axis_rotation_in_three_dimensions(self):
        b = np.eye(3)
        b[:2, :2] = rotation(2 * np.pi / 3)
        assert cf.commutant_basis(b).dim == 3

    def test_members_commute(self):
        b = rotation(2 * np.pi / 3)
        for a in cf.commutant_basis(b).basis:
            assert_allclose(a @ b, b @ a, atol=1e-12)

    @pytest.mark.parametrize("linear", [[[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, np.inf]]])
    def test_non_finite_linear_part_is_refused(self, linear):
        # Refused before any arithmetic: np.kron warned and the SVD did not converge.
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="^linear part is not finite$"):
                cf.commutant_basis(linear)


class TestFixedSpace:
    def test_identity_operator(self, kagome):
        assert fixed_space(np.eye(5)).dim == 5
        action = full_action(kagome, identity_element(kagome))
        fixed, free = _fixed_domain(action, cf.commutant_basis(np.eye(2), kagome.tolerance),
                                    kagome.tolerance)
        assert (fixed.dim, free) == (10, 6)

    def test_kagome_vertex_rep(self, kagome, kagome_r3):
        action = full_action(kagome, kagome_r3)
        assert fixed_space(dense(action)[:6, :6], kagome.tolerance).dim == 2

    def test_permutation_fixed_space_counts_orbits(self, any_builtin):
        for g in any_builtin.symmetries:
            fixed = fixed_space(edge_matrix(full_action(any_builtin, g)), any_builtin.tolerance)
            assert fixed.dim == len(_orbit_starts([g.edge_map])[0])


class TestSymmetryCounts:
    def test_kagome_threefold(self, kagome, kagome_r3):
        rep = cf.symmetry_counts(kagome, kagome_r3)
        assert rep.separable
        assert rep.fixed_vertex_dim == 2
        assert rep.commutant_dim == 2
        assert rep.fixed_domain_dim == 4
        assert rep.edge_orbits == 2
        assert rep.fixed_rigid_dim == 1
        assert rep.mechanisms == 1
        assert rep.stresses == 0
        assert rep.identity_residual == 0

    def test_identity_on_kagome_reduces_to_affine_count(self, kagome):
        rep = cf.symmetry_counts(kagome, identity_element(kagome))
        assert rep.fixed_vertex_dim == 6
        assert rep.commutant_dim == 4
        assert rep.edge_orbits == 6
        assert rep.fixed_rigid_dim == 3
        assert rep.mechanisms == 1
        assert rep.stresses == 0
        assert rep.identity_residual == 0

    def test_identity_on_square_grid(self, square_grid):
        rep = cf.symmetry_counts(square_grid, identity_element(square_grid))
        assert (rep.fixed_vertex_dim, rep.commutant_dim) == (2, 4)
        assert (rep.edge_orbits, rep.fixed_rigid_dim) == (2, 3)
        assert (rep.mechanisms, rep.stresses) == (1, 0)
        assert rep.identity_residual == 0

    def test_square_grid_fourfold(self, square_grid):
        rep = cf.symmetry_counts(square_grid, square_grid.symmetries[0])
        assert rep.separable
        assert (rep.fixed_vertex_dim, rep.commutant_dim) == (0, 2)
        assert (rep.edge_orbits, rep.fixed_rigid_dim) == (1, 1)
        assert (rep.mechanisms, rep.stresses) == (0, 0)
        assert rep.identity_residual == 0

    def test_hexahedron_threefold(self, hexahedron):
        rep = cf.symmetry_counts(hexahedron, hexahedron.symmetries[0])
        assert not rep.separable
        assert rep.fixed_domain_dim == 5
        assert rep.edge_orbits == 3
        assert rep.fixed_rigid_dim == 2
        assert (rep.mechanisms, rep.stresses) == (0, 0)
        assert rep.identity_residual == 0

    def test_kagome_glide(self, kagome, kagome_glide):
        rep = cf.symmetry_counts(kagome, kagome_glide)
        assert not rep.separable
        assert rep.fixed_domain_dim == 4
        assert rep.edge_orbits == 3
        assert (rep.fixed_rigid_dim, rep.mechanisms, rep.stresses) == (1, 1, 1)
        assert rep.identity_residual == 0

    def test_separable_fixed_space_splits(self, kagome, square_grid, kagome_r3):
        for fw, g in ((kagome, kagome_r3), (square_grid, square_grid.symmetries[0]),
                      (kagome, identity_element(kagome))):
            rep = cf.symmetry_counts(fw, g)
            if rep.separable:
                assert rep.fixed_domain_dim == rep.fixed_vertex_dim + rep.commutant_dim

    def test_burnside_orbit_identity(self, any_builtin):
        for g in any_builtin.symmetries:
            order = lcm(*reference_cycle_lengths(g.edge_map))
            perm = list(g.edge_map)
            total, current = 0, list(range(len(perm)))
            for _ in range(order):
                current = [perm[x] for x in current]
            current = list(range(len(perm)))
            for _ in range(order):
                total += sum(1 for i, x in enumerate(current) if i == x)
                current = [perm[x] for x in current]
            assert len(_orbit_starts([g.edge_map])[0]) * order == total

    def test_symmetric_counts_bounded_by_commutant_mode(self, any_builtin):
        for g in any_builtin.symmetries:
            rep = cf.symmetry_counts(any_builtin, g)
            commutant = cf.commutant_basis(g.linear, any_builtin.tolerance)
            mode = cf.analyze_counts(any_builtin, commutant)
            assert rep.mechanisms <= mode.mechanisms
            assert rep.stresses <= mode.stresses

    def test_counts_allocate_no_square_of_the_domain(self, kagome):
        # The actions are gathers, so the peak is a few copies of the
        # operator, never the dense (dn + d^2)^2 domain representation.
        g = kagome.symmetries[0]
        big = cf.supercell(kagome, (8, 8))
        big = big.with_symmetries((cf.resolve_symmetry(big, g.linear, g.translation, g.name),))
        operator = cf.restricted_operator(big, cf.matrix_space("full", 2, big.tolerance))
        tracemalloc.start()
        try:
            cf.symmetry_counts(big, big.symmetries[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * operator.nbytes

    def test_fixed_domain_maps_into_fixed_edge_space(self, any_builtin):
        for g in any_builtin.symmetries:
            assert_rows_repeat_along_edge_orbits(any_builtin, g)


class TestPredictor:
    def test_kagome_threefold_predicts_mechanism(self, kagome, kagome_r3):
        assert cf.symmetry_counts(kagome, kagome_r3).flexible_predicted

    def test_hexahedron_is_inconclusive(self, hexahedron):
        assert not cf.symmetry_counts(hexahedron, hexahedron.symmetries[0]).flexible_predicted

    def test_square_grid_fourfold_is_inconclusive(self, square_grid):
        assert not cf.symmetry_counts(square_grid, square_grid.symmetries[0]).flexible_predicted


class TestCharacterRow:
    def test_identity_reduces_to_dimension_count(self, kagome):
        full = cf.matrix_space("full", 2, kagome.tolerance)
        row = cf.character_row(kagome, identity_element(kagome), full)
        assert row.vertex_trace == pytest.approx(10.0, abs=1e-9)
        assert row.edge_trace == pytest.approx(6.0, abs=1e-9)
        assert row.rigid_trace == pytest.approx(3.0, abs=1e-9)
        assert row.mechanism_trace == pytest.approx(1.0, abs=1e-9)
        assert row.stress_trace == pytest.approx(0.0, abs=1e-9)
        assert abs(row.residual) < 1e-9

    def test_kagome_threefold_traces(self, kagome, kagome_r3):
        commutant = cf.commutant_basis(kagome_r3.linear, kagome.tolerance)
        row = cf.character_row(kagome, kagome_r3, commutant)
        assert row.edge_trace == pytest.approx(0.0, abs=1e-12)
        assert row.vertex_trace == pytest.approx(2.0, abs=1e-9)
        assert row.rigid_trace == pytest.approx(0.0, abs=1e-9)
        assert row.mechanism_trace == pytest.approx(1.0, abs=1e-9)
        assert row.stress_trace == pytest.approx(-1.0, abs=1e-9)
        assert abs(row.residual) < 1e-9

    def test_residual_small_for_declared_elements(self, any_builtin):
        for g in any_builtin.symmetries:
            commutant = cf.commutant_basis(g.linear, any_builtin.tolerance)
            row = cf.character_row(any_builtin, g, commutant)
            assert abs(row.residual) < 1e-9


@pytest.mark.parametrize("call, message", [
    (lambda kagome, square: cf.resolve_symmetry(kagome, np.eye(3), np.zeros(3)),
     "element 'g': expected a 2x2 linear part and a 2-vector"),
    (lambda kagome, square: cf.commutant_basis(5.0), "linear part must be square, got shape ()"),
    (lambda kagome, square: cf.symmetry_counts(square, kagome.symmetries[0]),
     "symmetry element 'r3' was resolved against another motif"),
    (lambda kagome, square: cf.character_row(square, kagome.symmetries[0], cf.matrix_space("full", 2)),
     "symmetry element 'r3' was resolved against another motif"),
    (lambda kagome, square: cf.verify_symmetry_equation(square, kagome.symmetries[0]),
     "symmetry element 'r3' was resolved against another motif"),
], ids=["linear-part-3x3", "scalar-commutant", "counts-other-motif", "characters-other-motif",
        "equation-other-motif"])
def test_symmetry_refusals(kagome, square_grid, call, message):
    with pytest.raises(ValueError) as caught:
        call(kagome, square_grid)
    assert str(caught.value) == message
