import itertools
import pickle
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import crystalflex as cf
import crystalflex.frameworks
from oracles import (
    lattice_matches,
    pairwise_matches,
    random_framework,
    reference_supercell,
    scrambled_supercell,
)

S3 = np.sqrt(3.0)


def make(vertices, edges, lattice=None, d=2):
    return cf.CrystalFramework(
        cf.PeriodLattice(np.eye(d) if lattice is None else np.asarray(lattice, float)),
        [cf.MotifVertex(p) for p in vertices],
        edges,
    )


def violations_of(vertices, edges, lattice=None):
    """Violations reported by the InvalidFrameworkError that construction raises."""
    with pytest.raises(cf.InvalidFrameworkError) as info:
        make(vertices, edges, lattice)
    return info.value.violations


class TestValidation:
    def test_builtins_are_valid(self, any_builtin):
        assert cf.validate_framework(any_builtin) == []

    def test_coincident_vertices_mod_lattice(self):
        report = violations_of([(0.0, 0.0), (1.0, 0.0)], [cf.MotifEdge(0, (0, 0), 1, (0, 1))])
        assert any("coincide modulo the lattice" in v for v in report)

    def test_self_loop(self):
        report = violations_of([(0.0, 0.0)], [cf.MotifEdge(0, (0, 0), 0, (0, 0))])
        assert any("self-loop" in v for v in report)

    def test_duplicate_edge_class(self):
        report = violations_of(
            [(0.0, 0.0), (0.5, 0.0)],
            [cf.MotifEdge(0, (0, 0), 1, (0, 0)), cf.MotifEdge(1, (1, 0), 0, (1, 0))],
        )
        assert any("translates of the same edge class" in v for v in report)

    def test_out_of_range_endpoint(self):
        report = violations_of([(0.0, 0.0)], [cf.MotifEdge(0, (0, 0), 3, (0, 0))])
        assert any("out of range" in v for v in report)

    @pytest.mark.parametrize("value", [2 ** 53, -(2 ** 53), 10 ** 30])
    def test_cell_beyond_the_file_limit(self, value):
        # Beyond int64 this used to escape as a bare OverflowError.
        report = violations_of([(0.0, 0.0), (0.5, 0.0)],
                               [cf.MotifEdge(0, (0, 0), 1, (0, 0)), cf.MotifEdge(0, (0, 0), 1, (value, 0))])
        assert report == ["edge 1: cell index out of range"]

    def test_largest_allowed_cell(self):
        fw = make([(0.0, 0.0)], [cf.MotifEdge(0, (0, 0), 0, (0, 2 ** 53 - 1))])
        assert fw.edges[0].to_cell == (0, 2 ** 53 - 1)

    def test_singular_lattice(self):
        report = violations_of([(0.0, 0.0)], [], lattice=[[1.0, 2.0], [2.0, 4.0]])
        assert any("singular" in v for v in report)

    @pytest.mark.parametrize("lattice", [[[1e300, 0.0], [0.0, 1e300]],
                                         [[np.nan, 0.0], [0.0, 1.0]]])
    def test_lattice_determinant_that_overflows(self, lattice):
        # det Z = 1e600 used to pass as inf after an overflow warning, and a
        # nan period as a nan determinant.
        report = violations_of([(0.0, 0.0)], [], lattice=lattice)
        assert report == ["period lattice determinant is not finite"]

    @pytest.mark.parametrize("lattice", [[[1.0, 1e300], [0.0, 1.0]],
                                         [[1.0, 1e8], [0.0, 1.0]]])
    def test_numerically_singular_lattice(self, lattice):
        # The determinant is 1, but the periods are dependent to round-off;
        # the determinant checks keep their own messages.
        report = violations_of([(0.0, 0.0)], [], lattice=lattice)
        assert report == ["period lattice is numerically singular"]

    @pytest.mark.parametrize("point", [(np.nan, 0.0), (0.0, -np.inf)])
    def test_non_finite_vertex(self, point):
        # Validation refuses it, before the strict SVD, which does not
        # converge on a nan.
        report = violations_of([(0.0, 0.0), point], [cf.MotifEdge(0, (0, 0), 1, (0, 0))])
        assert report == ["vertex 1 has a non-finite position"]

    def test_badly_conditioned_lattice_still_accepted(self):
        fw = make([(0.0, 0.0)], [], lattice=[[1.0, 1e3], [0.0, 1.0]])
        assert cf.validate_framework(fw) == []

    @pytest.mark.parametrize("tol", [1e-17, 1e-300])
    def test_tolerance_below_round_off(self, kagome, tol):
        with pytest.raises(ValueError, match=r"^tolerance must be at least 2\.2e-16$"):
            kagome.with_tolerance(tol)

    def test_operations_refuse_invalid_input(self, kagome, square_grid):
        # Derived frameworks are validated too: no operation yields an invalid one.
        with pytest.raises(cf.InvalidFrameworkError, match="coincide"):
            kagome.with_tolerance(0.6)
        with pytest.raises(cf.InvalidFrameworkError, match="self-loop"):
            replace(square_grid, edges=(cf.MotifEdge(0, (0, 0), 0, (0, 0)),))

    def test_coincidence_across_the_cell_boundary(self):
        report = violations_of(
            [(1e-10, 0.3), (1 - 1e-10, 0.3), (0.5, 0.5), (2 + 5e-11, -0.7)],
            [cf.MotifEdge(2, (0, 0), 2, (1, 0))],
        )
        assert report == [
            "vertices 0 and 1 coincide modulo the lattice",
            "vertices 0 and 3 coincide modulo the lattice",
            "vertices 1 and 3 coincide modulo the lattice",
        ]

    def test_violations_keep_edge_order(self):
        report = violations_of(
            [(0.0, 0.0), (0.5, 0.0)],
            [cf.MotifEdge(0, (0, 0), 1, (0, 0)), cf.MotifEdge(0, (0, 0), 0, (0, 0)),
             cf.MotifEdge(0, (0, 0), 5, (0, 0)), cf.MotifEdge(1, (2, 1), 0, (2, 1)),
             cf.MotifEdge(0, (0,), 1, (1,))],
        )
        assert report == [
            "edge 1 is a self-loop within one cell",
            "edge 2 to-vertex index 5 is out of range",
            "edges 0 and 3 are translates of the same edge class",
            "edge 4 has cell indices of dimension 1, lattice has 2",
        ]


def reference_class_key(e):
    """The tuple rule: the smaller of the edge's two orientations."""
    offset = tuple(t - f for f, t in zip(e.from_cell, e.to_cell))
    return min((e.from_vertex, e.to_vertex, offset),
               (e.to_vertex, e.from_vertex, tuple(-x for x in offset)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(cf.BUILTIN_NAMES), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_a_respelled_bar_is_reported_against_its_first_spelling(name, n, seed):
    rng = np.random.default_rng(seed)
    fw = scrambled_supercell(name, min(n, 2) if name == "hexahedron" else n, rng)
    k = int(rng.integers(fw.edge_count))
    e = fw.edges[k].reversed() if rng.random() < 0.5 else fw.edges[k]
    shift = rng.integers(-2, 3, fw.dimension)
    respelled = cf.MotifEdge(e.from_vertex, np.add(e.from_cell, shift),
                             e.to_vertex, np.add(e.to_cell, shift))
    at = int(rng.integers(fw.edge_count + 1))
    edges = list(fw.edges)
    edges.insert(at, respelled)
    assert [x.class_key() for x in edges] == [reference_class_key(x) for x in edges]
    first, second = (at, k + 1) if at <= k else (k, at)
    with pytest.raises(cf.InvalidFrameworkError) as info:
        cf.CrystalFramework(fw.lattice, fw.vertices, edges, tolerance=fw.tolerance)
    assert info.value.violations == [f"edges {first} and {second} are translates of the same edge class"]


class TestMotifEdge:
    @pytest.mark.parametrize("cell", [(0.9, 0), (True, 0), (np.float64(1.0), 0), (np.True_, 0),
                                      np.array([0.0, 1.0])])
    def test_refuses_cells_that_are_not_integers(self, cell):
        # int() used to truncate these: (0.9, 0) barred the pair at (0, 0).
        with pytest.raises(ValueError, match="must be integers"):
            cf.MotifEdge(0, cell, 1, (0, 0))
        with pytest.raises(ValueError, match="must be integers"):
            cf.MotifEdge(0, (0, 0), 1, cell)

    @pytest.mark.parametrize("cell", [(2, -1), (np.int64(2), np.int8(-1)), np.array([2, -1]), [2, -1]])
    def test_accepts_python_and_numpy_integers(self, cell):
        e = cf.MotifEdge(0, cell, 1, (0, 0))
        assert e.from_cell == (2, -1)
        assert [type(c) for c in e.from_cell] == [int, int]


class TestEdgeTable:
    """The edges are one int64 table; ``fw.edges`` reads back the MotifEdges."""

    KAGOME = (cf.MotifEdge(0, (0, 0), 1, (0, 0)), cf.MotifEdge(1, (0, 0), 2, (0, 0)),
              cf.MotifEdge(0, (0, 0), 2, (0, 0)), cf.MotifEdge(0, (0, 0), 1, (-1, 0)),
              cf.MotifEdge(1, (0, 0), 2, (1, -1)), cf.MotifEdge(2, (0, 0), 0, (0, 1)))

    def test_builtin_parsed_and_supercell_edges_are_the_motif_edges(self, kagome):
        assert kagome.edges == self.KAGOME
        assert repr(kagome.edges) == repr(tuple(kagome.edges))
        assert cf.parse_framework(cf.serialize_framework(kagome)).edges == self.KAGOME
        big = cf.supercell(kagome, (2, 3))
        assert big.edges == tuple(reference_supercell(kagome, (2, 3))[2])
        assert big.edges[-1] == tuple(big.edges)[-1]
        assert big.edges[1:4] == tuple(big.edges)[1:4]
        assert all(type(c) is int for e in big.edges for c in e.from_cell + e.to_cell)

    def test_parsed_file_edges(self):
        doc = {"dimension": 2, "period_vectors": [[1.0, 0.0], [0.0, 1.0]],
               "vertices": [{"id": "b", "position": [0.5, 0.5]}, {"id": "a", "position": [0.0, 0.0]}],
               "edges": [{"from": {"v": "a"}, "to": {"v": "b", "cell": [-1, 0]}},
                         {"from": {"v": "b", "cell": [3, 4]}, "to": {"v": "b", "cell": [3, 5]}}]}
        fw = cf.framework_from_dict(doc)
        assert fw.edges == (cf.MotifEdge(1, (0, 0), 0, (-1, 0)), cf.MotifEdge(0, (3, 4), 0, (3, 5)))

    def test_derived_frameworks_keep_the_table_and_positions_are_built_once(self, kagome):
        for derived in (replace(kagome, tolerance=1e-8), kagome.with_tolerance(1e-8),
                        kagome.with_symmetries(())):
            assert derived.edges is kagome.edges
            assert derived.vertices is kagome.vertices
        assert kagome.positions is kagome.positions is kagome.vertices.positions
        assert not kagome.positions.flags.writeable
        assert kagome._edge_vectors is kagome._edge_vectors
        assert not kagome._edge_vectors.flags.writeable

    def test_vertices_read_back_as_the_tuple_they_replace(self, kagome):
        # The vertex table behaves as the tuple of MotifVertexes it replaced.
        items = tuple(kagome.vertices)
        assert len(kagome.vertices) == len(items) == 3
        assert [v.name for v in items] == ["p1", "p2", "p3"]
        assert [v.position.tobytes() for v in items] == [p.tobytes() for p in kagome.positions]
        assert [v.name for v in kagome.vertices[1:]] == ["p2", "p3"]
        assert kagome.vertices[-1].name == "p3" and kagome.vertices[::2][1].name == "p3"
        extra = cf.MotifVertex([0.6, 0.3], "x")
        assert [v.name for v in kagome.vertices + (extra,)] == ["p1", "p2", "p3", "x"]
        assert [v.name for v in (extra,) + kagome.vertices] == ["x", "p1", "p2", "p3"]
        assert isinstance(kagome.vertices + (extra,), tuple)
        assert repr(kagome.vertices) == repr(items)
        assert kagome.vertices == items
        with pytest.raises(IndexError):
            kagome.vertices[3]

    @pytest.mark.parametrize("name, names", [("square_grid", ["p1"]), ("kagome", ["p1", "p2", "p3"]),
                                             ("hexahedron", ["equator", "pole"])])
    def test_builtin_vertices_read_back_their_motif(self, name, names):
        # Each item is the MotifVertex the builtin was given: its position a
        # read-only row of the table, bit for bit.
        fw = cf.builtin_framework(name)
        assert [v.name for v in fw.vertices] == names
        for v, row in zip(fw.vertices, fw.positions):
            assert v.position.tobytes() == row.tobytes() and not v.position.flags.writeable
        rebuilt = cf.CrystalFramework(
            fw.lattice, [cf.MotifVertex(p.tolist(), n) for p, n in zip(fw.positions, names)], fw.edges)
        assert rebuilt.positions.tobytes() == fw.positions.tobytes()


class TestWithSymmetries:
    def test_keeps_the_framework_and_skips_validation(self, kagome, monkeypatch):
        bare = replace(kagome, symmetries=())
        calls = []
        monkeypatch.setattr(crystalflex.frameworks, "validate_framework",
                            lambda fw: calls.append(fw) or [])
        fw = bare.with_symmetries(kagome.symmetries)
        assert calls == []
        assert fw.symmetries == kagome.symmetries
        assert fw.edges == bare.edges and fw.tolerance == bare.tolerance
        assert bare.symmetries == ()
        replace(fw, tolerance=1e-8)
        assert len(calls) == 1      # a plain replace still validates

    def test_rejects_elements_of_another_motif(self, kagome, square_grid):
        with pytest.raises(ValueError, match="r4"):
            kagome.with_symmetries(square_grid.symmetries)

    def test_checks_elements_matched_against_another_geometry(self, kagome):
        # r3 was matched against the builtin's motif index, not this one's:
        # with p3 moved it maps p2 off every vertex class.
        vertices = [cf.MotifVertex(v.position + [1e-3, 0.0] if v.name == "p3" else v.position, v.name)
                    for v in kagome.vertices]
        moved = replace(kagome, vertices=vertices, symmetries=())
        with pytest.raises(cf.SymmetryError) as info:
            moved.with_symmetries(kagome.symmetries)
        assert str(info.value) == ("symmetry element 'r3' does not hold at tolerance 1e-09: "
                                   "image of vertex p2 lies 0.001 from its class")
        # Equality and replace leave the matched index out; a pickled
        # framework's element is matched against the copy's own index.
        (r3,) = kagome.symmetries
        assert r3._matched_index is kagome._motif_index
        copied = replace(r3)
        assert copied == r3 and copied._matched_index is None
        restored = pickle.loads(pickle.dumps(kagome))
        assert restored.symmetries[0]._matched_index is restored._motif_index

    def test_refuses_a_held_lattice_action_that_is_not_the_linear_parts(self, kagome):
        # The linear part is orthogonal and integral on the lattice, but the
        # held Z^-1 B Z is another integer matrix.
        (r3,) = kagome.symmetries
        wrong = replace(r3, lattice_action=-r3.lattice_action)
        with pytest.raises(cf.SymmetryError) as info:
            kagome.with_symmetries([wrong])
        assert str(info.value) == ("symmetry element 'r3' does not hold at tolerance 1e-09: "
                                   "lattice-incompatible linear part")


@st.composite
def matching_problems(draw):
    """Targets, and points built from them by lattice translates and nudges near tol."""
    d = draw(st.integers(1, 3))
    tol = 10.0 ** draw(st.floats(-12.0, np.log10(0.49)))
    near_integer = st.builds(lambda k, e: k + e, st.integers(-1, 2), st.floats(-1e-9, 1e-9))
    coordinate = st.one_of(st.floats(-1.5, 1.5), near_integer)
    point = st.lists(coordinate, min_size=d, max_size=d)
    targets = np.array(draw(st.lists(point, max_size=8)), dtype=float).reshape(-1, d)
    nudge = st.builds(lambda sign, scale: sign * tol * scale,
                      st.sampled_from([-1.0, 0.0, 1.0]),
                      st.sampled_from([1.0, 1.0 - 1e-6, 1.0 + 1e-6]))
    points = []
    for _ in range(draw(st.integers(0, 10))):
        if len(targets) and draw(st.booleans()):
            base = targets[draw(st.integers(0, len(targets) - 1))]
        else:
            base = np.array(draw(point))
        shift = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        points.append(base + shift + np.array(draw(st.lists(nudge, min_size=d, max_size=d))))
    return np.array(points, dtype=float).reshape(-1, d), targets, tol


class TestLatticeMatches:
    @settings(max_examples=300, deadline=None)
    @given(matching_problems())
    def test_same_pairs_as_the_pairwise_loop(self, problem):
        points, targets, tol = problem
        found = list(zip(*(x.tolist() for x in lattice_matches(points, targets, tol))))
        assert found == pairwise_matches(points, targets, tol)

    @pytest.mark.parametrize("tol", [1 / 3, 0.49])
    def test_wide_tolerance(self, tol, rng):
        points = rng.uniform(-1, 2, size=(12, 2))
        found = list(zip(*(x.tolist() for x in lattice_matches(points, points, tol))))
        assert found == pairwise_matches(points, points, tol)

    def test_non_finite_points_match_nothing(self):
        points = np.array([[np.nan, 0.0], [np.inf, 0.5], [0.25, -np.inf], [0.25, 0.5]])
        with np.errstate(invalid="ignore"):     # inf - round(inf) is NaN
            found = list(zip(*(x.tolist() for x in lattice_matches(points, points, 1e-9))))
            assert found == pairwise_matches(points, points, 1e-9) == [(3, 3)]

    def test_empty(self):
        i, j = lattice_matches(np.zeros((0, 2)), np.ones((3, 2)), 1e-9)
        assert i.size == j.size == 0


class TestPointOf:
    def test_zero_cell(self, square_grid):
        assert_allclose(cf.point_of(square_grid, 0, (0, 0)), [0.0, 0.0])

    def test_identity_lattice_translate(self, square_grid):
        assert_allclose(cf.point_of(square_grid, 0, (2, -1)), [2.0, -1.0])

    def test_kagome_second_period(self, kagome):
        expected = kagome.vertices[0].position + np.array([0.5, S3 / 2])
        assert_allclose(cf.point_of(kagome, 0, (0, 1)), expected, atol=1e-15)

    def test_invalid_index(self, kagome):
        with pytest.raises(IndexError):
            cf.point_of(kagome, 7, (0, 0))
        with pytest.raises(IndexError):
            cf.point_of(kagome, -1, (0, 0))

    def test_translation_additivity(self, any_builtin, rng):
        fw = any_builtin
        d = fw.dimension
        for _ in range(10):
            k = rng.integers(-3, 4, d)
            l = rng.integers(-3, 4, d)
            lhs = cf.point_of(fw, 0, k + l)
            rhs = cf.point_of(fw, 0, k) + fw.lattice.translation(l)
            assert_allclose(lhs, rhs, atol=1e-12)


class TestEdgeGeometry:
    def test_square_grid_first_edge(self, square_grid):
        geom = cf.edge_geometry(square_grid, square_grid.edges[0])
        assert_allclose(geom.vector, [-1.0, 0.0])
        assert_allclose(geom.offset, [1, 0])
        assert geom.length == pytest.approx(1.0)

    def test_kagome_all_edges_have_length_half(self, kagome):
        for e in kagome.edges:
            assert cf.edge_geometry(kagome, e).length == pytest.approx(0.5, abs=1e-12)

    def test_kagome_connecting_edge_data(self, kagome):
        geom4 = cf.edge_geometry(kagome, kagome.edges[3])
        assert_allclose(geom4.vector, [0.5, 0.0], atol=1e-12)
        assert_allclose(geom4.offset, [-1, 0])
        geom5 = cf.edge_geometry(kagome, kagome.edges[4])
        assert_allclose(geom5.vector, [-0.25, S3 / 4], atol=1e-12)
        assert_allclose(geom5.offset, [1, -1])

    def test_hexahedron_unit_bars(self, hexahedron):
        for e in hexahedron.edges:
            assert cf.edge_geometry(hexahedron, e).length == pytest.approx(1.0, abs=1e-12)
        polar = cf.edge_geometry(hexahedron, hexahedron.edges[3])
        assert polar.length == pytest.approx(1.0, abs=1e-12)

    def test_length_matches_placed_distance(self, any_builtin):
        fw = any_builtin
        for e in fw.edges:
            placed = np.linalg.norm(
                cf.point_of(fw, e.from_vertex, e.from_cell)
                - cf.point_of(fw, e.to_vertex, e.to_cell))
            assert cf.edge_geometry(fw, e).length == pytest.approx(placed, abs=1e-12)


class TestSupercell:
    def test_identity_multiplicities(self, kagome):
        same = cf.supercell(kagome, (1, 1))
        assert same.vertex_count == kagome.vertex_count
        assert same.edge_count == kagome.edge_count
        assert_allclose(same.lattice.matrix, kagome.lattice.matrix)
        assert cf.validate_framework(same) == []

    def test_kagome_two_by_two_counts(self, kagome):
        big = cf.supercell(kagome, (2, 2))
        assert big.vertex_count == 12
        assert big.edge_count == 24
        assert cf.validate_framework(big) == []

    def test_rejects_nonpositive_multiplicity(self, kagome):
        with pytest.raises(ValueError):
            cf.supercell(kagome, (0, 2))

    def test_rejects_multiplicity_beyond_a_machine_integer(self, kagome):
        with pytest.raises(ValueError, match="machine integer"):
            cf.supercell(kagome, (10 ** 20, 1))


@pytest.mark.parametrize("build, value", [
    (lambda fw: cf.supercell(fw, (2.5, 2)), "(2.5, 2)"),
    (lambda fw: cf.supercell(fw, (2, 2.9999)), "(2, 2.9999)"),
    (lambda fw: cf.supercell(fw, (True, 2)), "(True, 2)"),
    (lambda fw: cf.supercell(fw, ("2", 2)), "('2', 2)"),
    (lambda fw: cf.supercell(fw, np.array([2.0, 2.0])), "(2.0, 2.0)"),
    (lambda fw: cf.fragment(fw, [(0, 2.7), (0, 2)]), "(0, 2.7)"),
    (lambda fw: cf.fragment(fw, [(False, True), (0, 1)]), "(False, True)"),
    (lambda fw: cf.fragment(fw, [(0, 1), (np.float64(0), 1)]), repr((np.float64(0), 1)))])
def test_sizes_that_are_not_integers_are_refused(kagome, build, value):
    # int() used to truncate these: (2.5, 2) built a 2 x 2 supercell and
    # (0, 2.7) a box of 2 x 2 cells.
    with pytest.raises(ValueError, match=r"must be integers, got " + re.escape(value)):
        build(kagome)


@pytest.mark.parametrize("factors", [(2, 3), (np.int64(2), np.int8(3)), np.array([2, 3]), [2, 3]])
def test_sizes_accept_python_and_numpy_integers(kagome, factors):
    assert cf.supercell(kagome, factors).vertex_count == 6 * kagome.vertex_count
    box = [(np.int64(0), factors[0]), (0, factors[1])]
    assert len(cf.fragment(kagome, box).points) == 6 * kagome.vertex_count


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([None, *cf.BUILTIN_NAMES]), st.integers(1, 3),
       st.lists(st.integers(1, 3), min_size=3, max_size=3), st.integers(0, 2 ** 32 - 1))
def test_supercell_matches_the_per_copy_loop(name, n, factors, seed):
    # The array supercell lists the same vertices and edge copies, in the
    # same order, as the loop that built one MotifEdge per copy.
    rng = np.random.default_rng(seed)
    if name is None:
        fw = random_framework(rng, d=int(rng.integers(1, 4)), n_vertices=int(rng.integers(1, 4)),
                              n_edges=int(rng.integers(0, 7)))
    else:
        fw = scrambled_supercell(name, min(n, 2) if name == "hexahedron" else n, rng)
    factors = factors[:fw.dimension]
    big = cf.supercell(fw, factors)
    matrix, vertices, edges = reference_supercell(fw, factors)
    assert np.array_equal(big.lattice.matrix, matrix)
    assert [v.name for v in big.vertices] == [v.name for v in vertices]
    assert np.array_equal(big.positions, np.array([v.position for v in vertices]).reshape(-1, fw.dimension))
    assert [v.position.tobytes() for v in big.vertices] == [v.position.tobytes() for v in vertices]
    assert big.edges == tuple(edges)


class TestCopyLimit:
    """A supercell or fragment is refused, before any copy is listed, when
    its cells times (vertices + edges) exceed COPY_LIMIT."""

    @pytest.mark.parametrize("build", [
        lambda fw: cf.supercell(fw, (100000, 100000)),
        lambda fw: cf.supercell(fw, (2 ** 62, 4)),
        lambda fw: cf.fragment(fw, [(0, 100000), (-100000, 0)])])
    def test_absurd_sizes_are_refused_without_allocating(self, kagome, build):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"at most {crystalflex.frameworks.COPY_LIMIT}"):
                build(kagome)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_limit_counts_vertices_and_edges(self, kagome, monkeypatch):
        # kagome has 3 vertices and 6 edges per cell: 4 cells are 36 copies.
        monkeypatch.setattr(crystalflex.frameworks, "COPY_LIMIT", 36)
        assert cf.supercell(kagome, (2, 2)).edge_count == 24
        assert len(cf.fragment(kagome, [(0, 2), (0, 2)]).points) == 12
        with pytest.raises(ValueError, match="has 6 cells, 54 vertex and edge copies"):
            cf.supercell(kagome, (2, 3))
        with pytest.raises(ValueError, match="has 5 cells, 45 vertex and edge copies"):
            cf.fragment(kagome, [(0, 5), (0, 1)])

    def test_pictures_of_200x200_cells_stay_allowed(self):
        for name in ("square_grid", "kagome"):
            fw = cf.builtin_framework(name)
            assert 200 * 200 * (fw.vertex_count + fw.edge_count) <= crystalflex.frameworks.COPY_LIMIT

    def test_fragment_point_sets_agree(self, kagome):
        factors = (2, 2)
        big = cf.supercell(kagome, factors)
        small = cf.fragment(kagome, [(0, 2), (0, 2)])
        one_cell = cf.fragment(big, [(0, 1), (0, 1)])

        def point_set(frag):
            return sorted(tuple(np.round(p.position, 9)) for p in frag.points)

        assert point_set(small) == point_set(one_cell)


class TestFragment:
    def test_square_grid_single_cell(self, square_grid):
        frag = cf.fragment(square_grid, [(0, 1), (0, 1)])
        assert len(frag.points) == 1
        assert len(frag.edges) == 0
        assert len(frag.dangling) == 2

    def test_square_grid_two_by_two(self, square_grid):
        frag = cf.fragment(square_grid, [(0, 2), (0, 2)])
        assert len(frag.points) == 4
        assert len(frag.edges) == 4

    def test_kagome_single_cell_is_the_triangle(self, kagome):
        frag = cf.fragment(kagome, [(0, 1), (0, 1)])
        assert len(frag.points) == 3
        assert len(frag.edges) == 3
        internal = {e.edge_index for e in frag.edges}
        assert internal == {0, 1, 2}

    def test_empty_box_rejected(self, kagome):
        with pytest.raises(ValueError):
            cf.fragment(kagome, [(0, 0), (0, 1)])


class TestBuiltins:
    def test_catalogue(self):
        assert set(cf.BUILTIN_NAMES) == {"square_grid", "kagome", "hexahedron"}

    def test_kagome_motif_sizes(self, kagome):
        assert kagome.vertex_count == 3
        assert kagome.edge_count == 6

    def test_hexahedron_motif_sizes(self, hexahedron):
        assert hexahedron.vertex_count == 2
        assert hexahedron.edge_count == 9

    def test_square_grid_motif(self, square_grid):
        assert square_grid.vertex_count == 1
        assert square_grid.edge_count == 2
        assert_allclose(square_grid.lattice.matrix, np.eye(2))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            cf.builtin_framework("roman")

    def test_declared_symmetries_resolved(self, any_builtin):
        for g in any_builtin.symmetries:
            assert isinstance(g, cf.SymmetryElement)


def test_random_frameworks_pass_validation(rng):
    for _ in range(5):
        fw = random_framework(rng, d=int(rng.integers(2, 4)))
        assert cf.validate_framework(fw) == []


@pytest.mark.parametrize("build, error, message", [
    (lambda: cf.PeriodLattice(np.ones((2, 3))), ValueError, "period matrix must be square, got shape (2, 3)"),
    (lambda: cf.PeriodLattice(np.ones((0, 0))), ValueError, "period lattice needs at least one dimension"),
    (lambda: cf.MotifEdge(0, (0, 0), 1, (0, 0, 0)), ValueError, "edge endpoints have different cell dimensions"),
    (lambda: cf.AffineVelocity(np.zeros(2), np.zeros((2, 2))), ValueError,
     "vertex_velocities must be a (n_vertices, d) array"),
    (lambda: cf.AffineVelocity(np.zeros((3, 2)), np.zeros((3, 3))), ValueError, "distortion must be d x d"),
    (lambda: cf.CrystalFramework(cf.PeriodLattice(np.eye(2)), [], [], tolerance=float("nan")), ValueError,
     "tolerance must be positive and finite"),
    (lambda: cf.CrystalFramework(cf.PeriodLattice(np.eye(2)), [cf.MotifVertex([0.0, 0.0, 0.0])], []),
     cf.InvalidFrameworkError, "invalid framework: vertex 0 has dimension 3, lattice has 2"),
    (lambda: cf.supercell(cf.builtin_framework("kagome"), [2]), ValueError, "need 2 multiplicities, got 1"),
    (lambda: cf.point_of(cf.builtin_framework("kagome"), 0, (0, 0, 0)), ValueError,
     "cell (0, 0, 0) has shape (3,), lattice has dimension 2"),
    (lambda: cf.edge_geometry(cf.builtin_framework("kagome"), cf.MotifEdge(0, (0, 0, 0), 1, (0, 0, 0))),
     ValueError, "edge cell indices have dimension 3, lattice has 2"),
    # Once numpy's matmul and solve core-dimension errors, and a nan translation.
    (lambda: cf.builtin_framework("kagome").lattice.translation((0, 0, 0)), ValueError,
     "cell (0, 0, 0) has 3 indices, lattice has dimension 2"),
    (lambda: cf.builtin_framework("kagome").lattice.translation((np.nan, 0)), ValueError,
     "cell indices must be integers, got (nan, 0)"),
    (lambda: cf.builtin_framework("kagome").lattice.translation((0.5, 0)), ValueError,
     "cell indices must be integers, got (0.5, 0)"),
    (lambda: cf.builtin_framework("kagome").lattice.fractional([[0.0, 0.0, 0.0]]), ValueError,
     "points have shape (1, 3), lattice has dimension 2"),
    # Once a point between cells, and nan coordinates.
    (lambda: cf.point_of(cf.builtin_framework("kagome"), 0, (0.5, 0)), ValueError,
     "cell indices must be integers, got (0.5, 0)"),
    (lambda: cf.point_of(cf.builtin_framework("kagome"), 0, (np.nan, 0)), ValueError,
     "cell indices must be integers, got (nan, 0)"),
    # A replaced vertex sequence goes through the same validation.
    (lambda: replace(cf.builtin_framework("kagome"), symmetries=(),
                     vertices=cf.builtin_framework("kagome").vertices[:2] + (cf.MotifVertex([0, 0, 0]),)),
     cf.InvalidFrameworkError, "invalid framework: vertex 2 has dimension 3, lattice has 2"),
    (lambda: replace(cf.builtin_framework("kagome"), symmetries=(),
                     vertices=(cf.MotifVertex([1.5, 0.0]),) + cf.builtin_framework("kagome").vertices[1:]),
     cf.InvalidFrameworkError, "invalid framework: vertices 0 and 1 coincide modulo the lattice"),
], ids=["lattice-not-square", "lattice-empty", "cells-of-two-lengths", "velocities-1d", "distortion-shape",
        "nan-tolerance", "vertex-dimension", "one-factor", "point-cell-dimension", "edge-cell-dimension",
        "translation-cell-dimension", "nan-translation", "fractional-translation", "fractional-dimension",
        "fractional-point", "nan-point", "replaced-vertex-dimension", "replaced-coincident-vertex"])
def test_framework_refusals(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def reference_fragment(fw, cell_range):
    """The per-copy placement ``fragment`` replaced: one ``point_of`` call per
    vertex copy and per bar end, and a set lookup for each end's cell."""
    cells = list(itertools.product(*(range(a, b) for a, b in cell_range)))
    inside = set(cells)
    points = [(v, cell, cf.point_of(fw, v, cell)) for cell in cells for v in range(fw.vertex_count)]
    edges = []
    for shift in cells:
        for idx, e in enumerate(fw.edges):
            ends = [(v, tuple(np.add(c, shift)))
                    for v, c in ((e.from_vertex, e.from_cell), (e.to_vertex, e.to_cell))]
            edges.append((idx, shift, [(v, c, cf.point_of(fw, v, c), c in inside) for v, c in ends]))
    return points, edges


@pytest.mark.parametrize("name, box", [
    ("kagome", [(0, 3), (0, 3)]), ("kagome", [(-2, 1), (1, 3)]), ("square_grid", [(-1, 2), (0, 2)]),
    ("hexahedron", [(0, 2), (-1, 1), (0, 1)]), ("scrambled kagome", [(-1, 1), (0, 2)])])
def test_fragment_places_every_copy_as_point_of(name, box):
    # All copies are placed by array operations; each placed position is
    # point_of's to the bit, and every point, bar and inside flag is the
    # per-copy loop's.
    fw = (scrambled_supercell("kagome", 2, np.random.default_rng(5)) if name.startswith("scrambled")
          else cf.builtin_framework(name))
    frag = cf.fragment(fw, box)
    points, edges = reference_fragment(fw, box)
    assert [(p.vertex, p.cell) for p in frag.points] == [(v, cell) for v, cell, _ in points]
    assert all(p.position.tobytes() == position.tobytes() for p, (_, _, position) in zip(frag.points, points))
    placed = sorted(frag.edges + frag.dangling, key=lambda e: (e.shift, e.edge_index))
    assert [(e.edge_index, e.shift) for e in placed] == [(idx, shift) for idx, shift, _ in edges]
    for edge, (_, _, ends) in zip(placed, edges):
        for point, inside, (v, cell, position, expected) in zip(
                (edge.from_point, edge.to_point), (edge.from_inside, edge.to_inside), ends):
            assert (point.vertex, point.cell, inside) == (v, cell, expected)
            assert point.position.tobytes() == position.tobytes()
    assert all(e.internal for e in frag.edges) and not any(e.internal for e in frag.dangling)


def equal_values():
    """Makers of a value whose fields hold arrays, each with a maker of a
    value of the same type that differs."""
    kagome = cf.builtin_framework("kagome")
    return [
        (lambda: cf.builtin_framework("kagome"), lambda: cf.builtin_framework("kagome").with_tolerance(1e-8)),
        (lambda: cf.PeriodLattice(np.eye(2)), lambda: cf.PeriodLattice(2 * np.eye(2))),
        (lambda: cf.MotifVertex([0.5, 0.0], "a"), lambda: cf.MotifVertex([0.5, 0.0], "b")),
        (lambda: cf.builtin_framework("kagome").symmetries[0],
         lambda: replace(kagome.symmetries[0], translation=kagome.symmetries[0].translation + 1)),
        (lambda: cf.matrix_space("full", 2), lambda: cf.matrix_space("symmetric", 2)),
        (lambda: cf.AffineVelocity(np.zeros((2, 2)), np.eye(2)),
         lambda: cf.AffineVelocity(np.zeros((2, 2)), -np.eye(2))),
        (lambda: cf.edge_geometry(kagome, kagome.edges[0]), lambda: cf.edge_geometry(kagome, kagome.edges[1])),
        (lambda: cf.fragment(kagome, [(0, 1), (0, 1)]).points[0],
         lambda: cf.fragment(kagome, [(0, 1), (0, 1)]).points[1]),
    ]


@pytest.mark.parametrize("make, other", equal_values(), ids=[
    "CrystalFramework", "PeriodLattice", "MotifVertex", "SymmetryElement", "MatrixSpace", "AffineVelocity",
    "EdgeGeometry", "PlacedPoint"])
def test_equality_reads_array_fields(make, other):
    # == once raised numpy's "truth value of an array is ambiguous" on two
    # equal but distinct values; hashing raised TypeError and still does.
    a, b, c = make(), make(), other()
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != "a value of another type"
    with pytest.raises(TypeError):
        hash(a)
