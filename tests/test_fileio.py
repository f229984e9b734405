import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import crystalflex as cf
import crystalflex.fileio
from crystalflex.fileio import _display, _display_array, _json_text, mode_space


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
        with pytest.raises(cf.FrameworkParseError, match="tolerance: expected a finite number"):
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

    @pytest.mark.parametrize("mode", ["strict", "affine", *cf.MATRIX_SPACE_NAMES])
    def test_bases_match_the_per_element_decoding(self, any_builtin, mode, monkeypatch):
        # Reference: decode each flex column on its own and round each entry.
        fw = cf.supercell(any_builtin, (2,) * any_builtin.dimension)
        space = mode_space(mode, fw.dimension, fw.tolerance)
        counts = cf.analyze_counts(fw, space)
        def rows(m):
            return [[_display(x) for x in row] for row in np.asarray(m)]

        flexes = [cf.velocity_from_mode_coordinates(fw, space, col)
                  for col in counts.flex_basis.basis.T]
        expected = {
            "flexes": [{"vertex_velocities": rows(v.vertex_velocities),
                        "distortion": rows(v.distortion)} for v in flexes],
            "stresses_basis": rows(counts.stress_basis.basis.T),
        }
        rounded = []         # the arrays the report rounds, in the order it rounds them
        def recording(values):
            rounded.append(np.array(values, dtype=float))
            return _display_array(values)
        monkeypatch.setattr(cf.fileio, "_display_array", recording)
        body = cf.analyze_framework(fw, modes=(mode,)).to_dict()["modes"][0]
        assert json.dumps({key: body[key] for key in expected}) == json.dumps(expected)
        velocities, distortions = rounded[:2]
        assert velocities.tobytes() == np.array([v.vertex_velocities for v in flexes]).tobytes()
        assert distortions.tobytes() == np.array([v.distortion for v in flexes]).tobytes()


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


class TestDisplayArray:
    """Bulk rounding equals the scalar ``_display`` loop element for element."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(rounding_inputs, max_size=40))
    def test_matches_the_scalar_loop(self, values):
        got = _display_array(np.array(values, dtype=float))
        assert hexes(got.tolist()) == hexes([_display(x) for x in values])

    def test_keeps_the_shape(self):
        values = np.arange(24.0).reshape(2, 3, 4) * 1.23456789012e-3 - 0.01
        got = _display_array(values)
        assert got.shape == values.shape
        assert hexes(got.reshape(-1).tolist()) == hexes(map(_display, values.reshape(-1).tolist()))

    def test_negative_zero_shown_as_zero(self):
        assert hexes(_display_array([-0.0, -1e-12, -4e-10]).tolist()) == hexes([0.0, 0.0, 0.0])


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


class TestJsonText:
    """The report and framework writer is ``json.dumps(obj, indent=2)``."""

    @settings(max_examples=400, deadline=None)
    @given(json_bodies)
    def test_matches_json_dumps(self, body):
        assert _json_text(body) == json.dumps(body, indent=2)

    @pytest.mark.parametrize("body", [
        [], {}, [[]], [[], []], [[1.0], [2.0, 3.0]], [[1.0, 2.0], [3.0, 4.0]], [[1.0]],
        [1.0, float("nan")], [[1.0, float("inf")], [2.0, 3.0]], [1.0, 2, True], [[1.0], 2.0],
        [1.0, [2.0]], [np.float64(0.1), 2.0], {"\u00e9\"\n": ["\u2603", "\\"]},
        {1: 1.5, 2.5: None, True: [], None: {}}, ([1.0, 2.0], (3.0,)), [[[1.0, 2.0]], [[3.0, 4.0]]],
    ])
    def test_edge_cases(self, body):
        assert _json_text(body) == json.dumps(body, indent=2)

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
