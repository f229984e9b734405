"""The held motif index against the matcher it replaced.

``oracles`` keeps the matcher that re-bucketed every target and regrouped
every edge class on each call.  Translation groups, resolved elements and
the text of refusals must come out of the held index bit for bit as they
came out of it; the one-shot ``oracles.lattice_matches`` must find the
pairs of the pairwise loop with points on and near the bucket faces; and
every rare path of the exact lookups is forced once.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crystalflex as cf
from crystalflex.frameworks import _bar_vectors, _PointIndex, _reach, _RowIndex
from crystalflex.translations import _find_translations
from oracles import (
    centred_square,
    chain,
    deleted_bar,
    lattice_matches,
    moved_vertex,
    pairwise_matches,
    random_framework,
    reference_find_translations,
    reference_lattice_matches,
    reference_resolve_symmetry,
    scrambled_supercell,
)


def same_array(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_same_translations(fw):
    vectors = _bar_vectors(fw, fw.edges.ends, fw.edges.cells)
    got, want = _find_translations(fw, vectors), reference_find_translations(fw, vectors)
    if want is None:
        assert got is None
        return
    for field in want._fields:
        expected, value = getattr(want, field), getattr(got, field)
        assert same_array(value, expected) if isinstance(expected, np.ndarray) else value == expected, field


def assert_same_resolution(fw, linear, translation, name="g"):
    """Both resolve the element to bitwise equal fields, or both refuse it
    with the same message."""
    try:
        want = reference_resolve_symmetry(fw, linear, translation, name)
    except cf.SymmetryError as exc:
        with pytest.raises(cf.SymmetryError) as info:
            cf.resolve_symmetry(fw, linear, translation, name)
        assert str(info.value) == str(exc)
        return str(exc)
    got = cf.resolve_symmetry(fw, linear, translation, name)
    for field in (f for f in dataclasses.fields(want) if f.compare):
        expected, value = getattr(want, field.name), getattr(got, field.name)
        assert same_array(value, expected) if isinstance(expected, np.ndarray) else value == expected, field.name
    return None


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def supercell_factors(name, factors):
    d = cf.builtin_framework(name).dimension
    return [min(k, 2) if name == "hexahedron" else k for k in factors[:d]]


class TestTranslationGroups:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(cf.BUILTIN_NAMES), st.lists(st.integers(1, 4), min_size=3, max_size=3),
           st.sampled_from([cf.DEFAULT_TOL, 1e-6]), st.integers(0, 2 ** 32 - 1))
    def test_scrambled_supercells(self, name, factors, tol, seed):
        fw = scrambled_supercell(name, supercell_factors(name, factors), np.random.default_rng(seed))
        assert_same_translations(fw.with_tolerance(tol))

    @pytest.mark.parametrize("make, factors", [
        (centred_square, (1, 1)), (centred_square, (2, 3)), (centred_square, (2, 2)),
        (chain, (1,)), (chain, (5,)), (chain, (6,)), (chain, (360,))])
    def test_translations_off_the_axes(self, make, factors):
        assert_same_translations(cf.supercell(make(), factors))

    @pytest.mark.parametrize("change", [
        lambda fw: moved_vertex(fw, 100 * fw.tolerance),
        lambda fw: moved_vertex(fw, 5 * fw.tolerance),
        deleted_bar,
    ])
    def test_broken_copies(self, kagome, change):
        broken = change(cf.supercell(kagome, (2, 1)))
        assert_same_translations(broken)
        assert_same_translations(cf.supercell(broken, (1, 3)))


class TestResolution:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(cf.BUILTIN_NAMES), st.integers(1, 4),
           st.sampled_from([cf.DEFAULT_TOL, 1e-6, 1e-4]), st.integers(0, 2 ** 32 - 1))
    def test_declared_rotations(self, name, factor, tol, seed):
        # Unmoved, the n x ... x n supercell keeps the builtin's rotation.
        base = cf.builtin_framework(name)
        factor = min(factor, 2) if name == "hexahedron" else factor
        fw = scrambled_supercell(name, factor, np.random.default_rng(seed), translate=False).with_tolerance(tol)
        g = base.symmetries[0]
        assert assert_same_resolution(fw, g.linear, g.translation, g.name) is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_kagome_glide(self, kagome, n):
        big = cf.supercell(kagome, (n, n))
        assert assert_same_resolution(big, np.diag([1.0, -1.0]), [0.5, 0.0], "glide") is None

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(cf.BUILTIN_NAMES), st.lists(st.integers(1, 3), min_size=3, max_size=3),
           st.sampled_from(["declared", "identity", "mirror", "wrong angle", "sheared"]),
           st.sampled_from([0.0, 0.5, 1 / 3]), st.sampled_from([0.0, 5.0, 100.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_refusals_read_the_same(self, name, factors, kind, step, nudge, seed):
        # Most of these elements are refused; each refusal names the same
        # vertex, edge or part as the reference's.
        rng = np.random.default_rng(seed)
        base = cf.builtin_framework(name)
        fw = scrambled_supercell(name, supercell_factors(name, factors), rng, translate=False)
        d, g = fw.dimension, base.symmetries[0]
        linear = {"declared": g.linear, "identity": np.eye(d),
                  "mirror": np.diag([1.0] * (d - 1) + [-1.0]),
                  "wrong angle": np.eye(d), "sheared": np.eye(d) + np.eye(d, k=1) * 0.1}[kind]
        if kind == "wrong angle":
            linear[:2, :2] = rotation(np.pi / 5)
        translation = (g.translation if kind == "declared" else np.zeros(d)) \
            + base.lattice.matrix @ np.full(d, step) + nudge * fw.tolerance
        assert_same_resolution(fw, linear, translation)

    def test_a_deleted_bar_refuses_the_rotation_at_an_edge(self, kagome):
        big = deleted_bar(cf.supercell(kagome, (2, 2)))
        g = kagome.symmetries[0]
        assert "image of edge" in assert_same_resolution(big, g.linear, g.translation, g.name)

    def test_near_coincident_vertices_refuse_a_bijection(self):
        # Two vertices 5 tol apart pass validation, and both images match the lower one.
        tol = cf.DEFAULT_TOL
        fw = cf.CrystalFramework(cf.PeriodLattice(np.eye(2)),
                                 [cf.MotifVertex([0.1, 0.1]), cf.MotifVertex([0.1 + 5 * tol, 0.1]),
                                  cf.MotifVertex([0.6, 0.5])],
                                 [cf.MotifEdge(0, (0, 0), 2, (0, 0)), cf.MotifEdge(1, (0, 0), 2, (0, 1))])
        message = assert_same_resolution(fw, np.eye(2), np.zeros(2), "id")
        assert message == "element 'id': vertex action is not a bijection"

    @pytest.mark.parametrize("translation, part", [
        ([1e300, 0.0], "2**53 or more cells away"), ([np.nan, 0.0], "translation is not finite")])
    def test_extreme_translations(self, square_grid, translation, part):
        assert part in assert_same_resolution(square_grid, np.eye(2), translation)


def huge_offsets():
    """Two vertex classes whose bars reach 2**52 cells away: the edge rows'
    column ranges do not pack into one int64."""
    far = 2 ** 52
    vertices = [cf.MotifVertex([0.0, 0.0]), cf.MotifVertex([0.5, 0.0])]
    edges = [cf.MotifEdge(0, (0, 0), 1, (0, 0)), cf.MotifEdge(0, (0, 0), 1, (far, 0)),
             cf.MotifEdge(1, (0, 0), 0, (0, far)), cf.MotifEdge(0, (0, 0), 0, (-far, far))]
    return cf.CrystalFramework(cf.PeriodLattice(np.eye(2)), vertices, edges)


@st.composite
def row_lookups(draw):
    """Held int64 rows (n, c) with repeats, and queries: held rows, rows with
    one column just outside the held range, and random rows; either table
    may be empty."""
    c = draw(st.integers(1, 4))
    row = st.lists(st.one_of(st.integers(-3, 3), st.integers(-2 ** 63, 2 ** 63 - 1)),
                   min_size=c, max_size=c)
    pool = draw(st.lists(row, min_size=1, max_size=5))
    held = draw(st.lists(st.sampled_from(pool), max_size=12))
    queries = draw(st.lists(st.sampled_from(pool), max_size=6)) + draw(st.lists(row, max_size=4))
    if held:
        for k, j, above in draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, c - 1), st.booleans()),
                                         max_size=4)):
            column = [r[j] for r in held]
            outside = list(held[k % len(held)])
            outside[j] = max(column) + 1 if above else min(column) - 1
            if -2 ** 63 <= outside[j] < 2 ** 63:
                queries.append(outside)
    queries = draw(st.permutations(queries))
    return (np.array(held, dtype=np.int64).reshape(-1, c),
            np.array(queries, dtype=np.int64).reshape(-1, c))


class TestEdgeLookup:
    def test_rows_that_do_not_pack_are_bisected(self):
        fw = huge_offsets()
        assert fw._motif_index.edges.places is None
        assert assert_same_resolution(fw, np.eye(2), np.zeros(2)) is None
        # The half translation swaps the classes; its image bars are no classes.
        assert "image of edge" in assert_same_resolution(fw, np.eye(2), [0.5, 0.0])
        assert "image of edge" in assert_same_resolution(fw, -np.eye(2), [0.5, 0.0])

    def test_rows_outside_the_packed_ranges_match_nothing(self):
        # No bar has an offset along the first axis, so the half translation's
        # image of bar 0, one cell along it, lies outside the held ranges.
        fw = cf.CrystalFramework(cf.PeriodLattice(np.eye(2)),
                                 [cf.MotifVertex([0.0, 0.0]), cf.MotifVertex([0.5, 0.0])],
                                 [cf.MotifEdge(0, (0, 0), 1, (0, 0)), cf.MotifEdge(0, (0, 0), 0, (0, 1))])
        assert fw._motif_index.edges.places is not None
        message = assert_same_resolution(fw, np.eye(2), [0.5, 0.0])
        assert message == "element 'g' is not a symmetry: image of edge 0 matches no edge class"
        found = fw._motif_index.edge_classes(np.array([[0, 1], [1, 0], [0, 0], [0, 1]]),
                                             np.array([[0, 0], [0, 0], [0, -1], [5, 0]]))
        assert found.tolist() == [0, 0, 1, -1]

    def test_no_bars(self):
        fw = cf.CrystalFramework(cf.PeriodLattice(np.eye(2)), [cf.MotifVertex([0.0, 0.0])], [])
        assert assert_same_resolution(fw, rotation(np.pi / 2), np.zeros(2)) is None
        assert fw._motif_index.edge_classes(np.zeros((1, 2), dtype=np.int64),
                                            np.zeros((1, 2), dtype=np.int64)).tolist() == [-1]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 4), st.integers(1, 7))
    def test_lookup_with_and_without_packing(self, seed, d, n_vertices, n_edges):
        rng = np.random.default_rng(seed)
        fw = random_framework(rng, d, n_vertices, n_edges)
        packed = fw._motif_index
        grouped = copy.copy(packed)
        grouped.edges = copy.copy(packed.edges)
        grouped.edges.places = None
        # The bars, the bars reversed, and rows that may match no bar.
        m = fw.edge_count
        ends = np.concatenate([fw.edges.ends, fw.edges.ends[:, ::-1], rng.integers(0, n_vertices, (8, 2))])
        offsets = np.concatenate([fw.edges.offsets, -fw.edges.offsets, rng.integers(-2, 3, (8, d))])
        want = packed.edge_classes(ends, offsets)
        assert packed.edges.places is not None and want[:2 * m].tolist() == list(range(m)) * 2
        assert grouped.edge_classes(ends, offsets).tolist() == want.tolist()

    @pytest.mark.parametrize("modulus", [7, 2 ** 40])
    def test_group_membership_with_and_without_packing(self, modulus, rng):
        # Columns spread over [0, 2**40) span more than an int64 packs, so
        # those rows are grouped instead.
        members = rng.permutation(np.unique(rng.integers(0, modulus, size=(6, 2)), axis=0))
        rows = np.concatenate([members[::2], rng.integers(0, modulus, size=(10, 2))])
        index = {row: i for i, row in enumerate(map(tuple, members.tolist()))}
        want = [index.get(tuple(r), -1) for r in rows.tolist()]
        held = _RowIndex(members)
        assert (held.places is None) == (modulus > 7)
        assert held.find(rows).tolist() == want

    @settings(max_examples=200, deadline=None)
    @given(row_lookups())
    def test_find_gives_the_lowest_equal_held_row(self, problem):
        held, queries = problem
        lowest = {}
        for i, row in enumerate(map(tuple, held.tolist())):
            lowest.setdefault(row, i)
        want = [lowest.get(tuple(q), -1) for q in queries.tolist()]
        index = _RowIndex(held)
        grouped = copy.copy(index)
        grouped.places = None
        assert index.find(queries).tolist() == want
        assert grouped.find(queries).tolist() == want


@st.composite
def face_problems(draw):
    """Targets and points in [-1, 1], so the matcher's scale is 1 and its
    bucket count known beforehand, with coordinates on and within tol of
    interior bucket faces: on every axis (a corner) or some of them."""
    d = draw(st.integers(1, 3))
    tol = 10.0 ** draw(st.floats(-12.0, -3.0))
    n = draw(st.integers(1, 12))
    k = _PointIndex(np.zeros((n, d)), _reach(tol, 1.0)).k
    assert k >= 3
    offset = st.sampled_from([0.0, 0.5, 1.0, 1.0 - 1e-6, 1.0 + 1e-6, 2.0])

    def near_faces(face):
        coords = []
        for axis in range(d):
            if face[axis] is None:
                coords.append(draw(st.floats(0.0, 0.999)))
            else:
                coords.append(face[axis] / k + draw(st.sampled_from([-1.0, 1.0])) * draw(offset) * tol)
        return coords

    faces = [[draw(st.one_of(st.none(), st.integers(1, k - 1))) for _ in range(d)] for _ in range(3)]
    faces.append([draw(st.integers(1, k - 1)) for _ in range(d)])     # a corner
    targets = [near_faces(draw(st.sampled_from(faces))) for _ in range(n)]
    points = [near_faces(draw(st.sampled_from(faces))) for _ in range(draw(st.integers(1, 12)))]
    return np.array(points).reshape(-1, d), np.array(targets).reshape(-1, d), tol


class TestLatticeMatchesNearFaces:
    @settings(max_examples=300, deadline=None)
    @given(face_problems())
    def test_same_pairs_as_the_pairwise_loop_and_the_reference(self, problem):
        points, targets, tol = problem
        found = list(zip(*(x.tolist() for x in lattice_matches(points, targets, tol))))
        assert found == pairwise_matches(points, targets, tol)
        assert found == list(zip(*(x.tolist() for x in reference_lattice_matches(points, targets, tol))))

    def test_a_corner_point_is_listed_round_the_corner(self):
        # Within reach of both faces of a 2-D corner: listed in all four buckets,
        # and matched from each of them.
        tol = 1e-9
        k = _PointIndex(np.zeros((1, 2)), _reach(tol, 1.0)).k
        corner = np.array([[3 / k, 5 / k]])
        index = _PointIndex(corner, _reach(tol, 1.0))
        assert len(index.listed) == 4
        shifts = 0.9 * tol * np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]])
        i, j = lattice_matches(corner + shifts, corner, tol)
        assert i.tolist() == [0, 1, 2, 3] and j.tolist() == [0, 0, 0, 0]

    def test_a_query_that_reaches_further_is_matched_against_wider_buckets(self):
        # Coordinates near 1e9 lose precision, so their reach outgrows the
        # buckets held for the targets; the pairs are still the loop's.
        targets = np.array([[0.25, 0.5], [0.75, 0.125]])
        index = _PointIndex(targets, _reach(1e-9, 1.0))
        points = targets + np.array([[1e9, 0.0], [0.0, -1e9]])
        i, j = index.matches(points, 1e-9)
        assert list(zip(i.tolist(), j.tolist())) == pairwise_matches(points, targets, 1e-9) == [(0, 0), (1, 1)]
