import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import crystalflex as cf
import crystalflex.fileio
from crystalflex.cli import main
from crystalflex.fileio import MODE_LABELS, _canonical_signs, _display, _json_text
from oracles import random_framework, scrambled_supercell


class TestRoundTrip:
    def test_builtins_round_trip(self, any_builtin):
        fw = any_builtin
        restored = cf.parse_framework(cf.serialize_framework(fw))
        assert restored.dimension == fw.dimension
        assert restored.vertex_count == fw.vertex_count
        assert restored.edge_count == fw.edge_count
        assert_allclose(restored.lattice.matrix, fw.lattice.matrix)
        assert_allclose(restored.positions, fw.positions)
        assert [e.class_key() for e in restored.edges] == [e.class_key() for e in fw.edges]
        assert [g.name for g in restored.symmetries] == [g.name for g in fw.symmetries]
        for g1, g2 in zip(restored.symmetries, fw.symmetries):
            assert g1.vertex_map.tolist() == g2.vertex_map.tolist()
            assert g1.edge_map.tolist() == g2.edge_map.tolist()

    def test_serialization_is_exact(self, kagome):
        restored = cf.parse_framework(cf.serialize_framework(kagome))
        assert (restored.positions == kagome.positions).all()
        assert (restored.lattice.matrix == kagome.lattice.matrix).all()

    @staticmethod
    def assert_round_trip(fw):
        text = cf.serialize_framework(fw)
        restored = cf.parse_framework(text)
        assert restored.positions.tobytes() == fw.positions.tobytes()
        assert restored.lattice.matrix.tobytes() == fw.lattice.matrix.tobytes()
        assert restored.edges == fw.edges
        assert [g.name for g in restored.symmetries] == [g.name for g in fw.symmetries]
        assert cf.serialize_framework(restored) == text

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 4), st.integers(1, 7))
    def test_generated_frameworks_round_trip(self, seed, d, n_vertices, n_edges):
        rng = np.random.default_rng(seed)
        self.assert_round_trip(random_framework(rng, d, n_vertices, n_edges))

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(cf.BUILTIN_NAMES), st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    def test_scrambled_supercells_round_trip(self, name, factor, seed, translate):
        # Unmoved supercells keep the builtin's symmetries, re-declared.
        fw = scrambled_supercell(name, factor, np.random.default_rng(seed), translate)
        if not translate:
            fw = fw.with_symmetries([cf.resolve_symmetry(fw, g.linear, g.translation, g.name)
                                     for g in cf.builtin_framework(name).symmetries])
        self.assert_round_trip(fw)

    def test_an_empty_id_beside_v0_round_trips(self):
        doc = valid_doc()
        doc["vertices"] = [{"id": "", "position": [0.0, 0.0]}, {"id": "v0", "position": [0.5, 0.5]}]
        doc["edges"] = [{"from": {"v": "", "cell": [0, 0]}, "to": {"v": "v0", "cell": [0, 0]}}]
        fw = cf.parse_framework(json.dumps(doc))
        self.assert_round_trip(fw)
        assert [v["id"] for v in cf.framework_to_dict(fw)["vertices"]] == ["", "v0"]

    @pytest.mark.parametrize("names, message", [
        (["a", "b", "a"], "vertices 0 and 2 would both be written with id 'a'"),
        ([None, "v0"], "vertices 0 and 1 would both be written with id 'v0'"),
        (["v1", None], "vertices 0 and 1 would both be written with id 'v1'"),
    ])
    def test_ids_that_would_repeat_are_refused(self, names, message):
        vertices = [cf.MotifVertex([i / len(names), 0.0], name) for i, name in enumerate(names)]
        fw = cf.CrystalFramework(cf.PeriodLattice(np.eye(2)), vertices, [cf.MotifEdge(0, (0, 0), 1, (0, 0))])
        with pytest.raises(ValueError, match=message):
            cf.serialize_framework(fw)


def valid_doc():
    return {
        "format": 1,
        "dimension": 2,
        "period_vectors": [[1.0, 0.0], [0.0, 1.0]],
        "vertices": [{"id": "a", "position": [0.0, 0.0]}],
        "edges": [
            {"from": {"v": "a", "cell": [0, 0]}, "to": {"v": "a", "cell": [1, 0]}},
            {"from": {"v": "a", "cell": [0, 0]}, "to": {"v": "a", "cell": [0, 1]}},
        ],
    }


class TestParseErrors:
    def test_invalid_json_reports_position(self):
        with pytest.raises(cf.FrameworkParseError, match="line 1"):
            cf.parse_framework("{not json")

    def test_wrong_period_vector_length(self):
        doc = valid_doc()
        doc["period_vectors"][1] = [0.0, 1.0, 0.0]
        with pytest.raises(cf.FrameworkParseError, match=r"period_vectors\[1\]"):
            cf.framework_from_dict(doc)

    def test_missing_field_names_path(self):
        doc = valid_doc()
        del doc["vertices"][0]["position"]
        with pytest.raises(cf.FrameworkParseError, match=r"vertices\[0\].position"):
            cf.framework_from_dict(doc)

    def test_duplicate_vertex_id(self):
        doc = valid_doc()
        doc["vertices"].append({"id": "a", "position": [0.5, 0.5]})
        with pytest.raises(cf.FrameworkParseError, match="duplicate vertex id"):
            cf.framework_from_dict(doc)

    def test_unknown_edge_vertex(self):
        doc = valid_doc()
        doc["edges"][0]["to"]["v"] = "zz"
        with pytest.raises(cf.FrameworkParseError, match=r"edges\[0\].to.v"):
            cf.framework_from_dict(doc)

    def test_unsupported_format_version(self):
        doc = valid_doc()
        doc["format"] = 99
        with pytest.raises(cf.FrameworkParseError, match="format"):
            cf.framework_from_dict(doc)

    def test_validation_failures_forwarded(self):
        doc = valid_doc()
        doc["edges"][0]["to"]["cell"] = [0, 0]
        with pytest.raises(cf.FrameworkParseError, match="self-loop"):
            cf.framework_from_dict(doc)

    def test_symmetry_resolution_failure_names_element(self, kagome):
        doc = cf.framework_to_dict(kagome)
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        doc["symmetries"] = [{"name": "r8", "linear": [[c, -s], [s, c]], "translation": [0.0, 0.0]}]
        with pytest.raises(cf.FrameworkParseError, match="r8"):
            cf.framework_from_dict(doc)

    def test_bad_tolerance(self):
        doc = valid_doc()
        doc["tolerance"] = -1.0
        with pytest.raises(cf.FrameworkParseError, match="tolerance"):
            cf.framework_from_dict(doc)

    @pytest.mark.parametrize("value", [None, 3, {"name": "r4"}])
    def test_symmetries_must_be_a_list(self, value):
        doc = valid_doc()
        doc["symmetries"] = value
        with pytest.raises(cf.FrameworkParseError, match="^symmetries: expected a list$"):
            cf.framework_from_dict(doc)

    def test_boolean_format_rejected(self):
        doc = valid_doc()
        doc["format"] = True
        with pytest.raises(cf.FrameworkParseError, match="^format: unsupported format True"):
            cf.framework_from_dict(doc)

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_frac_must_be_a_boolean(self, value):
        doc = valid_doc()
        doc["vertices"][0]["frac"] = value
        with pytest.raises(cf.FrameworkParseError,
                           match=r"^vertices\[0\]\.frac: expected a boolean$"):
            cf.framework_from_dict(doc)

    def test_duplicate_symmetry_name(self, kagome):
        doc = cf.framework_to_dict(kagome)
        doc["symmetries"].append(dict(doc["symmetries"][0]))
        with pytest.raises(cf.FrameworkParseError,
                           match=r"^symmetries\[1\]\.name: duplicate symmetry name 'r3'$"):
            cf.framework_from_dict(doc)


class TestLongEdgeList:
    """The edge list is read in bulk; a malformed field in the middle of a
    long list still fails with the message and path of the per-field check."""

    @staticmethod
    def bad_edge(kagome, change):
        doc = cf.framework_to_dict(cf.supercell(kagome, (8, 8)))
        change(doc["edges"][300])
        with pytest.raises(cf.FrameworkParseError) as info:
            cf.framework_from_dict(doc)
        return str(info.value)

    @pytest.mark.parametrize("change, message", [
        (lambda e: e["to"].update(cell=[1, True]), "edges[300].to.cell[1]: expected an integer"),
        (lambda e: e["to"].update(cell=[1.5, 0]), "edges[300].to.cell[0]: expected an integer"),
        (lambda e: e["to"].update(cell=[0, 2 ** 53]),
         "edges[300].to.cell[1]: expected an integer of magnitude below 2**53"),
        (lambda e: e["to"].update(cell=[0, 2 ** 70]),
         "edges[300].to.cell[1]: expected an integer of magnitude below 2**53"),
        (lambda e: e["from"].update(cell=[0]), "edges[300].from.cell: expected a list of 2 integers"),
        (lambda e: e["from"].update(cell=None), "edges[300].from.cell: expected a list of 2 integers"),
        (lambda e: e["from"].update(cell=(0, 0)), "edges[300].from.cell: expected a list of 2 integers"),
        (lambda e: e["from"].update(v=3), "edges[300].from.v: expected str"),
        (lambda e: e["from"].update(v=["a"]), "edges[300].from.v: expected str"),
        (lambda e: e["to"].update(v="nowhere"), "edges[300].to.v: unknown vertex id 'nowhere'"),
        (lambda e: e["from"].pop("v"), "edges[300].from.v: missing required field"),
        (lambda e: e.pop("to"), "edges[300].to: missing required field"),
        (lambda e: e.update(to="v0"), "edges[300].to: expected an object"),
    ])
    def test_malformed_field_is_named(self, kagome, change, message):
        assert self.bad_edge(kagome, change) == message

    def test_entry_that_is_not_an_object(self, kagome):
        doc = cf.framework_to_dict(cf.supercell(kagome, (8, 8)))
        doc["edges"][300] = ["v0", "v1"]
        with pytest.raises(cf.FrameworkParseError, match=r"^edges\[300\]: expected an object$"):
            cf.framework_from_dict(doc)

    def test_bulk_table_is_the_per_field_table(self, kagome, monkeypatch):
        doc = cf.framework_to_dict(cf.supercell(kagome, (4, 4)))
        del doc["edges"][7]["from"]["cell"]         # the zero cell by default
        bulk = cf.framework_from_dict(doc)
        monkeypatch.setattr(crystalflex.fileio, "_edge_rows", lambda *args: None)
        assert bulk.edges == cf.framework_from_dict(doc).edges


class TestLongVertexList:
    """The vertex list is read in bulk too; a malformed field in the middle of
    a long list fails with the message and path of the per-field check."""

    @pytest.mark.parametrize("change, message", [
        (lambda v: v.update(position=[0.5, True]), "vertices[100].position[1]: expected a number"),
        (lambda v: v.update(position=[0.5, "0"]), "vertices[100].position[1]: expected a number"),
        (lambda v: v.update(position=[float("nan"), 0.0]), "vertices[100].position[0]: expected a finite number"),
        (lambda v: v.update(position=[10 ** 400, 0.0]), "vertices[100].position[0]: expected a finite number"),
        (lambda v: v.update(position=[0.5]), "vertices[100].position: expected a list of 2 numbers"),
        (lambda v: v.update(position=(0.5, 0.5)), "vertices[100].position: expected a list of 2 numbers"),
        (lambda v: v.pop("position"), "vertices[100].position: missing required field"),
        (lambda v: v.update(id=7), "vertices[100].id: expected str"),
        (lambda v: v.update(id="p1[0,3]"), "vertices[100].id: duplicate vertex id 'p1[0,3]'"),
        (lambda v: v.pop("id"), "vertices[100].id: missing required field"),
        (lambda v: v.update(frac=1), "vertices[100].frac: expected a boolean"),
    ])
    def test_malformed_field_is_named(self, kagome, change, message):
        doc = cf.framework_to_dict(cf.supercell(kagome, (8, 8)))
        change(doc["vertices"][100])
        with pytest.raises(cf.FrameworkParseError) as info:
            cf.framework_from_dict(doc)
        assert str(info.value) == message

    def test_entry_that_is_not_an_object(self, kagome):
        doc = cf.framework_to_dict(cf.supercell(kagome, (8, 8)))
        doc["vertices"][100] = [0.5, 0.5]
        with pytest.raises(cf.FrameworkParseError, match=r"^vertices\[100\]: expected an object$"):
            cf.framework_from_dict(doc)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(cf.BUILTIN_NAMES))
    def test_bulk_vertices_are_the_per_field_vertices(self, seed, name):
        # Fractional positions, default and explicit flags, and integer
        # coordinates give bitwise the same vertices on both paths.
        rng = np.random.default_rng(seed)
        doc = cf.framework_to_dict(scrambled_supercell(name, 2, rng))
        for vertex in doc["vertices"]:
            flag = int(rng.integers(3))
            if flag == 1:
                vertex["frac"] = True
                vertex["position"] = rng.uniform(-1, 2, len(vertex["position"])).tolist()
            elif flag == 2:
                vertex["frac"] = False
                vertex["position"] = [int(x) for x in rng.integers(-5, 6, len(vertex["position"]))]
        try:
            bulk = cf.framework_from_dict(doc)
        except cf.FrameworkParseError as exc:     # a moved vertex may now coincide or sit on a bar
            bulk = str(exc)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(crystalflex.fileio, "_vertex_rows", lambda *args: None)
            try:
                each = cf.framework_from_dict(doc)
            except cf.FrameworkParseError as exc:
                each = str(exc)
        if isinstance(bulk, str):
            assert bulk == each
            return
        assert [v.name for v in bulk.vertices] == [v.name for v in each.vertices]
        assert bulk.positions.tobytes() == each.positions.tobytes()
        assert bulk.edges == each.edges
        # Each vertex reads back as the MotifVertex the file describes, a
        # fractional position converted by its own matrix-vector product.
        z = np.array(doc["period_vectors"], dtype=float).T
        expected = [cf.MotifVertex(z @ np.array(v["position"], dtype=float) if v.get("frac")
                                   else v["position"], v["id"]) for v in doc["vertices"]]
        assert [v.name for v in bulk.vertices] == [v.name for v in expected]
        assert [v.position.tobytes() for v in bulk.vertices] == [v.position.tobytes() for v in expected]


NON_FINITE = [float("nan"), float("inf"), float("-inf"), 10 ** 400]


def _set(doc, path, value):
    *keys, last = path
    for key in keys:
        doc = doc[key]
    doc[last] = value


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("path, shown", [
        (("period_vectors", 0, 1), r"period_vectors\[0\]\[1\]"),
        (("vertices", 1, "position", 0), r"vertices\[1\]\.position\[0\]"),
        (("symmetries", 0, "linear", 1, 0), r"symmetries\[0\]\.linear\[1\]\[0\]"),
        (("symmetries", 0, "translation", 0), r"symmetries\[0\]\.translation\[0\]"),
    ])
    def test_rejected_with_field_path(self, kagome, path, shown, value):
        doc = cf.framework_to_dict(kagome)
        _set(doc, path, value)
        with pytest.raises(cf.FrameworkParseError, match=shown + ": expected a finite number"):
            cf.framework_from_dict(doc)

    def test_json_nan_literal_rejected(self, kagome):
        first = '"position": [\n        0.5,'    # vertex p2
        text = cf.serialize_framework(kagome).replace(first, first.replace("0.5", "NaN"), 1)
        assert "NaN" in text
        with pytest.raises(cf.FrameworkParseError, match=r"vertices\[1\]\.position\[0\]"):
            cf.parse_framework(text)

    @pytest.mark.parametrize("value", NON_FINITE[:2])
    def test_tolerance(self, value):
        doc = valid_doc()
        doc["tolerance"] = value
        with pytest.raises(cf.FrameworkParseError, match="^tolerance: must be positive and finite$"):
            cf.framework_from_dict(doc)


class TestCellRange:
    @pytest.mark.parametrize("value", [2 ** 53, -(2 ** 53), 10 ** 30])
    def test_rejected_with_field_path(self, value):
        doc = valid_doc()
        doc["edges"][1]["to"]["cell"] = [0, value]
        with pytest.raises(cf.FrameworkParseError,
                           match=r"edges\[1\]\.to\.cell\[1\]: expected an integer of magnitude below 2\*\*53"):
            cf.framework_from_dict(doc)

    def test_largest_allowed_cell_parses(self):
        doc = valid_doc()
        doc["edges"][0]["from"]["cell"] = [-(2 ** 53 - 1), 0]
        fw = cf.framework_from_dict(doc)
        assert fw.edges[0].from_cell == (-(2 ** 53 - 1), 0)


class TestFractionalCoordinates:
    def test_frac_positions_multiply_through_the_lattice(self, kagome):
        doc = cf.framework_to_dict(kagome)
        frac = kagome.lattice.fractional(kagome.positions)
        for entry, f in zip(doc["vertices"], frac):
            entry["position"] = list(map(float, f))
            entry["frac"] = True
        restored = cf.framework_from_dict(doc)
        assert_allclose(restored.positions, kagome.positions, atol=1e-12)

    def test_default_cell_is_zero(self):
        doc = valid_doc()
        del doc["edges"][0]["from"]["cell"]
        fw = cf.framework_from_dict(doc)
        assert fw.edges[0].from_cell == (0, 0)


class TestMatrixSpaceFile:
    def test_valid_space(self):
        text = json.dumps([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])
        space = cf.fileio.parse_matrix_space(text, 2, 1e-9)
        assert space.dim == 2

    def test_dependent_basis_rejected(self):
        text = json.dumps([[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]])
        with pytest.raises(cf.FrameworkParseError, match="dependent"):
            cf.fileio.parse_matrix_space(text, 2, 1e-9)

    @pytest.mark.parametrize("scale", [1.0, 1e9, 1e-8, 1e300])
    def test_matrices_are_scaled_to_unit_norm(self, scale):
        text = json.dumps([(scale * np.eye(2)).tolist(), [[0.0, 3.0], [3.0, 0.0]]])
        space = cf.fileio.parse_matrix_space(text, 2, 1e-9)
        assert_allclose(space.basis[0], np.eye(2) / np.sqrt(2), rtol=0, atol=1e-15)
        assert_allclose(space.basis[1], [[0.0, 1 / np.sqrt(2)], [1 / np.sqrt(2), 0.0]],
                        rtol=0, atol=1e-15)

    def test_wrong_shape_names_entry(self):
        text = json.dumps([[[1.0, 0.0]]])
        with pytest.raises(cf.FrameworkParseError, match=r"\[0\]"):
            cf.fileio.parse_matrix_space(text, 2, 1e-9)


class TestReports:
    def test_kagome_text_report_contains_counts(self, kagome):
        report = cf.analyze_framework(kagome, name="kagome")
        text = cf.emit_report(report, "text")
        assert "m=1 s=0 f=3" in text
        assert "m - s = d|Fv| + dimE - |Fe| - f" in text
        assert "m=1 s=3 f=2" in text

    def test_square_grid_strict_json_fields(self, square_grid):
        report = cf.analyze_framework(square_grid, modes=("strict",), name="square_grid")
        doc = json.loads(cf.emit_report(report, "json"))
        strict = doc["modes"][0]
        assert strict["m"] == 0
        assert strict["s"] == 2

    def test_edge_free_framework_report(self):
        fw = cf.CrystalFramework(cf.PeriodLattice(np.eye(2)), [cf.MotifVertex([0.0, 0.0])], [])
        report = cf.analyze_framework(fw, name="bare")
        doc = json.loads(cf.emit_report(report, "json"))
        assert doc["framework"]["edge_count"] == 0
        assert all(mode["s"] == 0 for mode in doc["modes"])

    def test_json_report_is_deterministic(self, kagome):
        one = cf.emit_report(cf.analyze_framework(kagome, name="kagome", characters=True), "json")
        two = cf.emit_report(cf.analyze_framework(kagome, name="kagome", characters=True), "json")
        assert one == two

    def test_character_rows_included_on_request(self, kagome):
        report = cf.analyze_framework(kagome, name="kagome", characters=True)
        doc = report.to_dict()
        assert "characters" in doc["symmetries"][0]
        assert doc["symmetries"][0]["characters"]["residual"] == 0

    def test_unknown_format_rejected(self, kagome):
        report = cf.analyze_framework(kagome, name="kagome")
        with pytest.raises(ValueError, match="unknown report format"):
            cf.emit_report(report, "yaml")

    def test_residual_property(self, kagome):
        report = cf.analyze_framework(kagome, name="kagome")
        assert report.max_identity_residual == 0

    @pytest.mark.parametrize("mode", ["strict", "affine", *cf.MATRIX_SPACE_NAMES])
    def test_json_report_is_json_dumps_of_the_body(self, any_builtin, mode):
        report = cf.analyze_framework(any_builtin, modes=(mode,), name="x", characters=True)
        assert cf.emit_report(report, "json") == json.dumps(report.to_dict(), indent=2) + "\n"

    @pytest.mark.parametrize("mode", ["strict", "affine", "symmetric"])
    @pytest.mark.parametrize("name, factors", [("kagome", (4, 4)), ("hexahedron", (2, 2, 2))])
    def test_supercell_json_report_is_json_dumps_of_the_body(self, name, factors, mode):
        # Bases read off the Bloch blocks, wide stress rows and character rows.
        base = cf.builtin_framework(name)
        fw = cf.supercell(base, factors)
        fw = fw.with_symmetries([cf.resolve_symmetry(fw, g.linear, g.translation, g.name)
                                 for g in base.symmetries])
        report = cf.analyze_framework(fw, modes=(mode,), name=name, characters=True)
        assert cf.emit_report(report, "json") == json.dumps(report.to_dict(), indent=2) + "\n"

    @pytest.mark.parametrize("mode", ["strict", "affine", *cf.MATRIX_SPACE_NAMES])
    def test_bases_match_the_per_element_decoding(self, any_builtin, mode):
        # Reference: decode each sign-fixed flex column on its own and round
        # each entry.
        fw = cf.supercell(any_builtin, (2,) * any_builtin.dimension)
        space = cf.matrix_space(MODE_LABELS.get(mode, mode), fw.dimension, fw.tolerance)
        counts = cf.analyze_counts(fw, space)
        def rows(m):
            return [[_display(x) for x in row] for row in np.asarray(m)]

        flexes = [cf.velocity_from_mode_coordinates(fw, space, col)
                  for col in _canonical_signs(counts.flex_basis.basis).T]
        expected = {
            "flexes": [{"vertex_velocities": rows(v.vertex_velocities),
                        "distortion": rows(v.distortion)} for v in flexes],
            "stresses_basis": rows(_canonical_signs(counts.stress_basis.basis).T),
        }
        report = cf.analyze_framework(fw, modes=(mode,))
        body = report.to_dict()["modes"][0]
        assert json.dumps({key: body[key] for key in expected}) == json.dumps(expected)
        written = report._json_body()["modes"][0]["flexes"]      # the arrays the writer rounds
        for key in ("vertex_velocities", "distortion"):
            assert (np.array([flex[key] for flex in written]).tobytes()
                    == np.array([getattr(v, key) for v in flexes]).tobytes())


def hexes(values):
    return [float.hex(x) for x in values]


rounding_inputs = st.one_of(
    st.floats(),                                                    # incl. nan, +-inf, +-0, subnormals
    st.floats(-10.0, 10.0),
    st.integers(-(2 ** 53), 2 ** 53).map(lambda k: (k + 0.5) / 1e9),  # decimal ties
    st.integers(-(2 ** 40), 2 ** 40).map(lambda k: k / 1e9),
    st.floats(2.0 ** 52 / 1e9, 1e300).flatmap(lambda x: st.sampled_from([x, -x])),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** 52 / 1e9, 2.0 ** 53 / 1e9,
                     4.5e-9, -4.5e-9, 5e-10, -5e-10]),
)


def written(values) -> np.ndarray:
    """The values ``_json_text`` writes for the float64 array ``values``."""
    return np.array(json.loads(_json_text(np.array(values, dtype=float))), dtype=float)


class TestDisplayArray:
    """The writer shows each array element as the scalar ``_display`` does."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(rounding_inputs, max_size=40))
    def test_matches_the_scalar_loop(self, values):
        # The digit kernel takes finite arrays; json's encoder the others.
        finite = [x for x in values if np.isfinite(x)]
        for chosen in (values, finite):
            assert hexes(written(chosen).tolist()) == hexes([_display(x) for x in chosen])

    def test_keeps_the_shape(self):
        # A 2-D array takes the digit kernel, a 3-D one json's encoder.
        for shape in ((4, 6), (2, 3, 4)):
            values = np.arange(24.0).reshape(shape) * 1.23456789012e-3 - 0.01
            got = written(values)
            assert got.shape == values.shape
            assert hexes(got.reshape(-1).tolist()) == hexes(map(_display, values.reshape(-1).tolist()))

    def test_negative_zero_shown_as_zero(self):
        assert hexes(written([-0.0, -1e-12, -4e-10]).tolist()) == hexes([0.0, 0.0, 0.0])


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
json_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
float_lists = st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats()),
                       max_size=6)
float_matrices = st.integers(0, 4).flatmap(
    lambda w: st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=w, max_size=w), max_size=4))
json_bodies = st.recursive(
    st.one_of(json_scalars, float_lists, float_matrices),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=3).map(tuple),
                               st.dictionaries(json_keys, children, max_size=4)),
    max_leaves=25,
)


# Values of x on the 1e-9 grid and the edges of the range written from their
# digits: the largest value below 1000 on the grid, values whose digits
# round up to 1000 and a fraction whose digits carry into the integer part.
FIXED_EDGES = [0.0, -0.0, 1e-4, -1e-4, 9.9999e-05, -9.9999e-05, 999999.999999999,
               -999999.999999999, 1e6, -1e6, 5e-324, 2.0 ** 52 / 1e9, 999.999999999,
               -999.999999999, 1000 - 4e-10, -(1000 - 4e-10), 999.9999999999, -999.9999999999,
               1000.0, -1000.0, 0.9999999996, -0.9999999996]
array_values = st.one_of(
    rounding_inputs,
    st.integers(-(2 ** 53) + 1, 2 ** 53 - 1).map(lambda k: k / 1e9),
    st.sampled_from(FIXED_EDGES),
)
array_shapes = st.one_of(
    st.tuples(st.integers(0, 6)),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
)
float_arrays = array_shapes.flatmap(
    lambda shape: st.lists(array_values, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))
    .map(lambda values: np.array(values, dtype=float).reshape(shape)))
array_bodies = st.recursive(
    st.one_of(json_scalars, float_lists, float_arrays),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=12,
)


def displayed(values):
    """The nested lists ``values`` with ``_display`` of each number."""
    return [displayed(v) for v in values] if isinstance(values, list) else _display(values)


def listed(body):
    """``body`` with every ndarray ``tolist()``ed and its values ``_display``ed."""
    if isinstance(body, np.ndarray):
        return displayed(body.tolist())
    if isinstance(body, (list, tuple)):
        return type(body)(map(listed, body))
    if isinstance(body, dict):
        return {key: listed(value) for key, value in body.items()}
    return body


class TestJsonText:
    """The report writer is ``json.dumps(obj, indent=2)`` of ``obj`` with its
    arrays listed and their values rounded by ``_display``."""

    @settings(max_examples=400, deadline=None)
    @given(json_bodies)
    def test_matches_json_dumps(self, body):
        assert _json_text(body) == json.dumps(body, indent=2) + "\n"

    @settings(max_examples=400, deadline=None)
    @given(array_bodies, st.sampled_from([1, 2, 5, crystalflex.fileio._BATCH]))
    def test_arrays_are_written_as_their_lists(self, body, batch):
        # Small batches split the arrays into runs of rows and batch runs of
        # several arrays together.
        with mock.patch.object(crystalflex.fileio, "_BATCH", batch):
            assert _json_text(body) == json.dumps(listed(body), indent=2) + "\n"

    def test_fixed_notation_edges(self):
        values = np.array(FIXED_EDGES + [-x for x in FIXED_EDGES])
        body = [values, values.reshape(2, -1), values.reshape(-1, 2)]
        assert _json_text(body) == json.dumps(listed(body), indent=2) + "\n"
        assert "9.9999e-05" in _json_text(values)
        # Both -0.0 elements are written 0.0.
        zeros = [float.hex(w) for x, w in zip(values.tolist(), written(values).tolist()) if x == 0]
        assert zeros == [float.hex(0.0)] * 4

    @pytest.mark.parametrize("batch", [1, 2, 5, crystalflex.fileio._BATCH])
    def test_interleaved_widths_and_levels(self, batch, rng):
        # Arrays of 2 and 384 columns and 1-D ones at three nesting levels
        # share batches, each laid out with its own width and level, and
        # every run's text goes back to its own array.
        def grid(*shape):
            values = rng.standard_normal(shape)
            values.reshape(-1)[::5] = rng.choice(FIXED_EDGES, values.reshape(-1)[::5].size)
            return values

        body = {"modes": [{"flexes": [{"v": grid(6, 2), "a": grid(2, 2), "t": grid(3)} for _ in range(3)],
                           "stresses": grid(3, 384), "line": grid(7)},
                          {"flexes": [{"v": grid(6, 2)}], "stresses": grid(2, 384)}],
                "rows": grid(5, 2), "flat": grid(9), "wide": grid(1, 384)}
        with mock.patch.object(crystalflex.fileio, "_BATCH", batch):
            assert _json_text(body) == json.dumps(listed(body), indent=2) + "\n"

    @pytest.mark.parametrize("shape", [(3, 20000), (5000, 7), (40000,)])
    def test_arrays_longer_than_a_batch(self, shape, rng):
        # Values over thirteen decades, and a few on the 1e-9 grid.
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
        values.reshape(-1)[::97] = np.round(rng.standard_normal(values.size)[::97], 9)
        body = {"a": values, "b": [values[:2], values[-1:]]}
        assert _json_text(body) == json.dumps(listed(body), indent=2) + "\n"

    @pytest.mark.parametrize("body", [
        [], {}, [[]], [[], []], [[1.0], [2.0, 3.0]], [[1.0, 2.0], [3.0, 4.0]], [[1.0]],
        [1.0, float("nan")], [[1.0, float("inf")], [2.0, 3.0]], [1.0, 2, True], [[1.0], 2.0],
        [1.0, [2.0]], [np.float64(0.1), 2.0], {"\u00e9\"\n": ["\u2603", "\\"]},
        {1: 1.5, 2.5: None, True: [], None: {}}, ([1.0, 2.0], (3.0,)), [[[1.0, 2.0]], [[3.0, 4.0]]],
    ])
    def test_edge_cases(self, body):
        assert _json_text(body) == json.dumps(body, indent=2) + "\n"

    @pytest.mark.parametrize("body, message", [
        ({(1, 2): 0}, "keys must be str, int, float, bool or None, not tuple"),
        ([1.0, object()], "Object of type object is not JSON serializable"),
    ])
    def test_refuses_what_json_refuses(self, body, message):
        with pytest.raises(TypeError, match=message):
            json.dumps(body, indent=2)
        with pytest.raises(TypeError, match=message):
            _json_text(body)

    def test_serialized_framework(self, any_builtin):
        text = cf.serialize_framework(cf.supercell(any_builtin, (2,) * any_builtin.dimension))
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


# Strings json must escape, and one that ends like a quoted placeholder token.
AWKWARD = ['a"b\\c\nd\0e', "\u00e9\u2603\U0001d11e", 'x"' + "0123456789abcdef" * 2]
TOKEN = bytes(range(16)).hex()


class TestAwkwardStrings:
    """Names json must escape reach the report and the framework file as
    ``json.dumps`` writes them."""

    def test_report_and_framework_file(self, kagome):
        doc = cf.framework_to_dict(kagome)
        ids = dict(zip([v["id"] for v in doc["vertices"]], AWKWARD))
        for v in doc["vertices"]:
            v["id"] = ids[v["id"]]
        for e in doc["edges"]:
            for side in ("from", "to"):
                e[side]["v"] = ids[e[side]["v"]]
        doc["symmetries"][0]["name"] = "".join(AWKWARD)
        fw = cf.parse_framework(json.dumps(doc))
        report = cf.analyze_framework(fw, name="/".join(AWKWARD), characters=True)
        assert cf.emit_report(report, "json") == json.dumps(report.to_dict(), indent=2) + "\n"
        text = cf.serialize_framework(fw)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        written = json.loads(text)
        assert [v["id"] for v in written["vertices"]] == AWKWARD
        assert written["symmetries"][0]["name"] == "".join(AWKWARD)

    @pytest.mark.parametrize("body", [{"a": np.array([1.0, 2.0]), "b": TOKEN},
                                      {"a": np.array([1.0]), TOKEN: 0}, [TOKEN]])
    def test_a_string_equal_to_the_token_is_refused(self, body):
        with mock.patch.object(crystalflex.fileio.os, "urandom", lambda n: bytes(range(n))):
            with pytest.raises(RuntimeError, match="placeholder"):
                _json_text(body)


@pytest.mark.parametrize("text, space, message", [
    ("[]", None, "top level: expected an object"),
    ('{"dimension": 0, "period_vectors": [], "vertices": [], "edges": []}', None,
     "dimension: expected a positive integer"),
    ('{"dimension": 2, "period_vectors": [[1, 0]], "vertices": [], "edges": []}', None,
     "period_vectors: expected 2 period vectors"),
    (None, "[[1, 0], [0, 1]", "invalid JSON at line 1 column 16"),
    (None, '{"basis": []}', "top level: expected a list of matrices"),
    # The determinant is about 1.5, but the norm of the lattice matrix overflows.
    ('{"dimension": 2, "period_vectors": [[1.5e308, 0.0], [1.5e308, 1e-308]], "vertices": [], "edges": []}',
     None, "framework validation failed: period lattice is numerically singular"),
], ids=["top-level-list", "dimension-0", "one-period-vector", "space-not-json", "space-not-a-list",
        "lattice-norm-overflows"])
def test_file_refusals(capsys, tmp_path, text, space, message):
    # A framework file, or a custom space file read against the kagome builtin.
    path = tmp_path / "input.json"
    path.write_text(text or space)
    argv = [str(path)] if text else ["--builtin", "kagome", "--mode", "space", f"custom:{path}"]
    assert main(["analyze", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")
