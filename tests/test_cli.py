import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crystalflex as cf
import crystalflex.cli as cli
import crystalflex.fileio
import crystalflex.frameworks
import crystalflex.rigidity
import crystalflex.symmetry
import crystalflex.translations
from crystalflex.cli import main
from oracles import dense_factorization, scrambled_supercell


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuiltinsCommand:
    def test_lists_all(self, capsys):
        code, out, _ = run(capsys, "builtins")
        assert code == 0
        assert out.split() == list(cf.BUILTIN_NAMES)


class TestAnalyze:
    def test_kagome_strict(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "kagome", "--mode", "strict")
        assert code == 0
        assert "m=1 s=3 f=2" in out

    def test_hexahedron_strict_is_rigid(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "hexahedron", "--mode", "strict")
        assert code == 0
        assert "m=0" in out

    def test_default_runs_both_modes(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "kagome")
        assert code == 0
        assert "mode strict" in out and "mode affine" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "kagome", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["framework"]["vertex_count"] == 3

    def test_bogus_space_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--builtin", "kagome", "--mode", "space", "bogus")
        assert code == 2
        assert "unknown space" in err

    def test_named_space_mode(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "kagome", "--mode", "space", "skew")
        assert code == 0
        assert "mode skew" in out

    def test_custom_space_file(self, capsys, tmp_path):
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps([[[0.0, -1.0], [1.0, 0.0]]]))
        code, out, _ = run(capsys, "analyze", "--builtin", "kagome",
                           "--mode", "space", f"custom:{space_file}")
        assert code == 0
        assert "mode custom" in out

    @pytest.mark.parametrize("scale", [1.0, 1e9, 1e-8])
    def test_custom_space_counts_do_not_depend_on_the_scale(self, capsys, tmp_path, scale):
        # Each file matrix is scaled to unit norm: the span, the counts and
        # the decoded distortions are those of the unit basis.
        def analyze(*mats):
            space_file = tmp_path / "space.json"
            space_file.write_text(json.dumps([np.asarray(m).tolist() for m in mats]))
            code, out, err = run(capsys, "analyze", "--builtin", "kagome",
                                 "--mode", "space", f"custom:{space_file}", "--json")
            assert (code, err) == (0, "")
            mode = json.loads(out)["modes"][0]
            return mode["m"], mode["s"], mode["f"], mode["flexes"]

        swap = [[0.0, 1.0], [1.0, 0.0]]
        assert analyze(scale * np.eye(2))[:3] == (1, 2, 2)
        assert analyze(scale * np.eye(2)) == analyze(np.eye(2))
        assert analyze(scale * np.eye(2), swap)[:3] == (1, 1, 2)
        assert analyze(scale * np.eye(2), swap) == analyze(np.eye(2), swap)

    def test_zero_custom_matrix_is_refused(self, capsys, tmp_path):
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps([[[0.0, 0.0], [0.0, 0.0]]]))
        code, _, err = run(capsys, "analyze", "--builtin", "kagome",
                           "--mode", "space", f"custom:{space_file}")
        assert code == 2
        assert err == "error: matrix space basis is linearly dependent\n"

    def test_file_input(self, capsys, tmp_path, kagome):
        path = tmp_path / "kagome.json"
        cf.save_framework(kagome, path)
        code, out, _ = run(capsys, "analyze", str(path), "--mode", "affine")
        assert code == 0
        assert "m=1 s=0 f=3" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "no-such-file.json")
        assert code == 2
        assert "cannot read" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "analyze", "--builtin", "roman")
        assert code == 2
        assert "unknown builtin" in err

    def test_no_input(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 2
        assert "no input" in err

    def test_conflicting_inputs(self, capsys, tmp_path, kagome):
        path = tmp_path / "k.json"
        cf.save_framework(kagome, path)
        code, _, err = run(capsys, "analyze", str(path), "--builtin", "kagome")
        assert code == 2

    def test_tolerance_flag(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "kagome", "--tol", "1e-7")
        assert code == 0
        code, _, err = run(capsys, "analyze", "--builtin", "kagome", "--tol", "-1")
        assert code == 2

    def test_rigid_motions_outside_the_flexes_print_a_warning(self, capsys, tmp_path, kagome):
        # At --tol 1e-4 the affine split of the kagome 6x6 supercell keeps
        # flexes that miss part of the rigid span, so the check can fire.
        path = tmp_path / "kagome_6x6.json"
        cf.save_framework(cf.supercell(kagome, (6, 6)), path)
        code, out, _ = run(capsys, "analyze", str(path), "--tol", "1e-4", "--mode", "affine")
        assert code == 0
        assert "mode affine: m=27 s=26 f=3\n" in out
        assert ("  warning: rigid motions are not contained in the flex space; "
                "the framework geometry is inconsistent\n") in out

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "invalid JSON" in err


class TestSymmetryCommand:
    @pytest.mark.parametrize("command", ["analyze", "symmetry"])
    def test_framework_without_bars(self, capsys, tmp_path, command):
        doc = {"dimension": 2, "period_vectors": [[1, 0], [0, 1]],
               "vertices": [{"id": "p", "position": [0, 0]}], "edges": [],
               "symmetries": [{"name": "r4", "linear": [[0, -1], [1, 0]],
                               "translation": [0, 0]}]}
        path = tmp_path / "point.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, command, str(path))
        assert code == 0
        assert "symmetry r4 (separable): m_g=1 s_g=0, dimF=0 dimE=2 fixed=2 e_g=0 f_g=1 " in out

    @pytest.mark.parametrize("argv", [["symmetry"], ["symmetry", "--characters"],
                                      ["analyze"], ["analyze", "--json"]])
    def test_framework_without_vertices(self, capsys, tmp_path, argv):
        # The fixed domain is the commutant alone: m_g=3 s_g=0 f_g=1, as the
        # affine mode reads m=3 s=0 f=1.
        doc = {"dimension": 2, "period_vectors": [[1, 0], [0, 1]], "vertices": [], "edges": [],
               "symmetries": [{"name": "id", "linear": [[1, 0], [0, 1]], "translation": [0, 0]}]}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, str(path))
        assert (code, err) == (0, "")
        if argv[-1] == "--json":
            report = json.loads(out)
            [affine] = [mode for mode in report["modes"] if mode["mode"] == "affine"]
            assert (affine["m"], affine["s"], affine["f"]) == (3, 0, 1)
            [element] = report["symmetries"]
            assert (element["m"], element["s"], element["f"]) == (3, 0, 1)
        else:
            assert "symmetry id (separable): m_g=3 s_g=0, dimF=0 dimE=4 fixed=4 e_g=0 f_g=1 " in out

    def test_kagome_symmetry_report(self, capsys):
        code, out, _ = run(capsys, "symmetry", "--builtin", "kagome")
        assert code == 0
        assert "symmetry r3" in out
        assert "m_g=1 s_g=0" in out

    def test_characters_flag(self, capsys):
        code, out, _ = run(capsys, "symmetry", "--builtin", "kagome", "--characters")
        assert code == 0
        assert "characters" in out

    def test_element_filter(self, capsys):
        code, out, _ = run(capsys, "symmetry", "--builtin", "kagome", "--element", "r3")
        assert code == 0
        code, _, err = run(capsys, "symmetry", "--builtin", "kagome", "--element", "r6")
        assert code == 2
        assert "no declared symmetry" in err

    def test_framework_without_symmetries(self, capsys, tmp_path, kagome):
        from dataclasses import replace

        bare = replace(kagome, symmetries=())
        path = tmp_path / "bare.json"
        cf.save_framework(bare, path)
        code, out, _ = run(capsys, "symmetry", str(path))
        assert code == 0
        assert "no declared symmetries" in out
        code, out, _ = run(capsys, "symmetry", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert (report["modes"], report["symmetries"]) == ([], [])
        assert report["framework"]["edge_count"] == kagome.edge_count


class TestSupercell:
    def test_writes_parseable_framework(self, capsys, tmp_path):
        out_path = tmp_path / "super.json"
        code, _, _ = run(capsys, "supercell", "--builtin", "kagome", "--n", "2,2",
                         "-o", str(out_path))
        assert code == 0
        big = cf.load_framework(out_path)
        assert big.vertex_count == 12
        assert big.edge_count == 24

    def test_stdout_output(self, capsys):
        code, out, _ = run(capsys, "supercell", "--builtin", "square_grid", "--n", "2,1")
        assert code == 0
        big = cf.parse_framework(out)
        assert big.vertex_count == 2

    def test_bad_multiplicities(self, capsys):
        code, _, err = run(capsys, "supercell", "--builtin", "kagome", "--n", "2,x")
        assert code == 2
        code, _, err = run(capsys, "supercell", "--builtin", "kagome", "--n", "0,2")
        assert code == 2

    def test_multiplicity_beyond_a_machine_integer(self, capsys):
        code, out, err = run(capsys, "supercell", "--builtin", "kagome",
                             "--n", "100000000000000000000,1")
        assert code == 2
        assert out == ""
        assert err == ("error: --n '100000000000000000000,1': supercell multiplicities "
                       "must fit in a machine integer\n")

    @pytest.mark.parametrize("command, flag", [
        (["supercell", "--n", "100000,100000"], "--n '100000,100000'"),
        (["svg", "--cells", "100000x100000", "-o", "x.svg"], "--cells '100000x100000'"),
        (["svg", "--cells", "0:100000,0:100000", "-o", "x.svg"], "--cells '0:100000,0:100000'")])
    def test_absurd_sizes_exit_2(self, capsys, tmp_path, monkeypatch, command, flag):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, command[0], "--builtin", "kagome", *command[1:])
        assert code == 2
        assert out == ""
        assert err == (f"error: {flag}: the {'supercell' if command[0] == 'supercell' else 'box'} "
                       f"has 10000000000 cells, 90000000000 vertex and edge copies in all; "
                       f"at most {crystalflex.frameworks.COPY_LIMIT} are allowed\n")
        assert list(tmp_path.iterdir()) == []

    def test_cell_count_beyond_the_integer_conversion(self, capsys, tmp_path):
        cells = "1" + "0" * 5000 + "x1"
        code, _, err = run(capsys, "svg", "--builtin", "kagome", "--cells", cells,
                           "-o", str(tmp_path / "x.svg"))
        assert code == 2
        assert err.startswith("error: --cells '1000") and err.endswith("expected 2 counts like '3x3'\n")

    @pytest.mark.parametrize("command", [["supercell", "--n", "2,2"], ["svg", "--cells", "2x2"]])
    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unwritable_output(self, capsys, tmp_path, command, target):
        out = tmp_path / "missing" / "x.out" if target == "missing" else tmp_path
        code, _, err = run(capsys, command[0], "--builtin", "kagome", *command[1:],
                           "-o", str(out))
        assert code == 2
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err


class TestSvgCommand:
    def test_renders_file(self, capsys, tmp_path):
        out_path = tmp_path / "kagome.svg"
        code, _, _ = run(capsys, "svg", "--builtin", "kagome", "--cells", "3x3",
                         "-o", str(out_path))
        assert code == 0
        content = out_path.read_text()
        assert content.count("<line") == 54
        assert content.count("<circle") == 27

    def test_range_syntax(self, capsys, tmp_path):
        out_path = tmp_path / "k.svg"
        code, _, _ = run(capsys, "svg", "--builtin", "kagome", "--cells", "0:2,0:2",
                         "-o", str(out_path))
        assert code == 0

    def test_three_dimensional_input_is_an_error(self, capsys, tmp_path):
        # The dimension is refused before the cells are read, whatever their form.
        for cells in ["1x1x1", "2x2", "0:2,0:2"]:
            code, _, err = run(capsys, "svg", "--builtin", "hexahedron", "--cells", cells,
                               "-o", str(tmp_path / "x.svg"))
            assert code == 2
            assert err == "error: SVG rendering requires a 2-dimensional framework\n"
            assert not (tmp_path / "x.svg").exists()

    def test_bad_range(self, capsys, tmp_path):
        code, _, err = run(capsys, "svg", "--builtin", "kagome", "--cells", "banana",
                           "-o", str(tmp_path / "x.svg"))
        assert code == 2


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_full_builtin_mode_matrix_never_inconsistent(self, capsys):
        modes = [["strict"], ["affine"], ["space", "symmetric"], ["space", "skew"],
                 ["space", "diagonal"]]
        for name in cf.BUILTIN_NAMES:
            for mode in modes:
                code, _, err = run(capsys, "analyze", "--builtin", name, "--mode", *mode)
                assert code == 0, f"{name} {mode}: {err}"

    def test_parser_is_built_once_and_reused(self, capsys):
        # A usage error after a successful call still exits 2, and a repeated
        # call prints the same bytes as the first.
        assert cli._build_parser() is cli._build_parser()
        first = run(capsys, "analyze", "--builtin", "kagome")
        assert first[0] == 0
        code, out, err = run(capsys, "analyze", "--builtin", "kagome", "--bogus")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --bogus" in err
        assert run(capsys, "analyze", "--builtin", "kagome") == first

    def test_reports_identical_across_runs(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "analyze", "--builtin", "kagome", "--json")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


# A refused tolerance as a file or --tol spells it, and why the one rule
# (linalg.tolerance_refusal) refuses it.
REFUSED_TOLERANCES = [(text, "must be positive and finite") for text in
                      ("0", "-1", "NaN", "Infinity", "1" + "0" * 400)]     # the last is 10**400
REFUSED_TOLERANCES.append(("1e-300", "must be at least 2.2e-16"))


class TestBadNumbers:
    """Non-finite numbers and unusable tolerances exit 2 with a message, never a traceback."""

    @pytest.mark.parametrize("path, value, shown", [
        (("vertices", 1, "position", 0), float("nan"), "vertices[1].position[0]"),
        (("period_vectors", 0, 1), float("inf"), "period_vectors[0][1]"),
        (("tolerance",), float("nan"), "tolerance"),
        (("symmetries", 0, "translation", 1), float("-inf"), "symmetries[0].translation[1]"),
    ])
    @pytest.mark.parametrize("command", [["analyze"], ["symmetry", "--characters"]])
    def test_non_finite_file_entry(self, capsys, tmp_path, kagome, command, path, value, shown):
        doc = cf.framework_to_dict(kagome)
        if path[0] != "symmetries":
            del doc["symmetries"]     # reach the numbers, not symmetry resolution
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(doc))
        code, out, err = run(capsys, command[0], str(file), *command[1:])
        assert code == 2
        assert out == ""
        # A tolerance is refused by the one tolerance rule, in its words.
        reason = "must be positive and finite" if shown == "tolerance" else "expected a finite number"
        assert err == f"error: {shown}: {reason}\n"

    @pytest.mark.parametrize("value", [2 ** 53, -(10 ** 30)])
    @pytest.mark.parametrize("command", [["analyze"], ["symmetry", "--characters"]])
    def test_edge_cell_out_of_range(self, capsys, tmp_path, kagome, command, value):
        doc = cf.framework_to_dict(kagome)
        doc["edges"][2]["to"]["cell"] = [value, 0]
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(doc))
        code, out, err = run(capsys, command[0], str(file), *command[1:])
        assert code == 2
        assert out == ""
        assert err == "error: edges[2].to.cell[0]: expected an integer of magnitude below 2**53\n"

    @pytest.mark.parametrize("command", [["analyze"], ["symmetry", "--characters"]])
    def test_symmetries_that_are_not_a_list(self, capsys, tmp_path, kagome, command):
        doc = cf.framework_to_dict(kagome)
        doc["symmetries"] = None
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(doc))
        code, out, err = run(capsys, command[0], str(file), *command[1:])
        assert (code, out, err) == (2, "", "error: symmetries: expected a list\n")

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["analyze", "symmetry"])
    def test_non_finite_tol_flag(self, capsys, command, tol):
        code, _, err = run(capsys, command, "--builtin", "kagome", "--tol", tol)
        assert code == 2
        assert err == "error: --tol must be positive and finite\n"

    @pytest.mark.parametrize("tol", ["1e-20", "1e-17"])
    @pytest.mark.parametrize("command", [["analyze"], ["symmetry", "--characters"]])
    def test_tol_flag_below_round_off(self, capsys, command, tol):
        # Below binary64 round-off the orthonormality checks of the bases
        # failed with a traceback (1e-20) or blamed a tolerance "too large" (1e-17).
        code, out, err = run(capsys, command[0], "--builtin", "kagome", "--tol", tol,
                             *command[1:])
        assert (code, out, err) == (2, "", "error: --tol must be at least 2.2e-16\n")

    @pytest.mark.parametrize("command", [["analyze"], ["symmetry", "--characters"]])
    def test_file_tolerance_below_round_off(self, capsys, tmp_path, kagome, command):
        doc = cf.framework_to_dict(kagome)
        doc["tolerance"] = 1e-300
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(doc))
        code, out, err = run(capsys, command[0], str(file), *command[1:])
        assert (code, out, err) == (
            2, "", "error: tolerance: must be at least 2.2e-16\n")

    @pytest.mark.parametrize("entry, text, reason", [
        *((entry, text, reason) for entry in ("--tol", "tolerance:", "CrystalFramework", "MatrixSpace")
          for text, reason in REFUSED_TOLERANCES),
        ("tolerance:", "true", "expected a number"),
    ], ids=lambda v: f"1e{len(v) - 1}" if len(v) > 100 else None)
    def test_one_rule_at_every_entry_point(self, capsys, tmp_path, kagome, entry, text, reason):
        # Each entry point puts its own name before the one reason, and the
        # CLI exits 2 with no traceback; a file's true fails its own type test.
        value = json.loads(text)
        if entry == "--tol":
            assert run(capsys, "analyze", "--builtin", "kagome", "--tol", text) == (
                2, "", f"error: --tol {reason}\n")
        elif entry == "tolerance:":
            doc = cf.framework_to_dict(kagome)
            doc["tolerance"] = value
            file = tmp_path / "bad.json"
            file.write_text(json.dumps(doc))
            assert run(capsys, "symmetry", str(file), "--characters") == (
                2, "", f"error: tolerance: {reason}\n")
        else:
            builds = [lambda: kagome.with_tolerance(value)] if entry == "CrystalFramework" else [
                lambda: cf.matrix_space("full", 2, tol=value),
                lambda: cf.commutant_basis(kagome.symmetries[0].linear, value)]
            for build in builds:
                with pytest.raises(ValueError) as info:
                    build()
                assert str(info.value) == f"tolerance {reason}"
                assert not isinstance(info.value, (cf.DependentBasisError, cf.InvalidFrameworkError))

    @pytest.mark.parametrize("command", [["analyze"], ["symmetry", "--characters"]])
    def test_symmetry_image_beyond_the_cell_limit(self, capsys, tmp_path, square_grid, command):
        # Shifts of 1e300 cells used to be cast to int64 as garbage offsets.
        doc = cf.framework_to_dict(square_grid)
        doc["symmetries"] = [{"name": "t", "linear": [[1.0, 0.0], [0.0, 1.0]],
                              "translation": [1e300, 0.0]}]
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(doc))
        code, out, err = run(capsys, command[0], str(file), *command[1:])
        assert (code, out, err) == (
            2, "", "error: symmetries[0]: element 't': image of vertex p1 lies 2**53 or "
                   "more cells away\n")

    @pytest.mark.parametrize("periods", [[[1.0, 0.0], [1e300, 1.0]], [[1.0, 0.0], [1e8, 1.0]]])
    @pytest.mark.parametrize("command", [["analyze"], ["symmetry", "--characters"]])
    def test_numerically_singular_period_lattice(self, capsys, tmp_path, square_grid, command,
                                                 periods):
        # det Z = 1 is finite, but the condition number is beyond 1 / eps:
        # [[1, 0], [1e300, 1]] used to exit 0 after overflow warnings.
        doc = cf.framework_to_dict(square_grid)
        doc["period_vectors"] = periods
        del doc["symmetries"]
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(doc))
        code, out, err = run(capsys, command[0], str(file), *command[1:])
        assert (code, out, err) == (
            2, "", "error: framework validation failed: period lattice is numerically "
                   "singular\n")

    @pytest.mark.parametrize("command", [["analyze"], ["symmetry", "--characters"]])
    def test_period_lattice_whose_determinant_overflows(self, capsys, tmp_path, square_grid,
                                                        command):
        doc = cf.framework_to_dict(square_grid)
        doc["period_vectors"] = [[1e300, 0.0], [0.0, 1e300]]
        del doc["symmetries"]
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(doc))
        code, out, err = run(capsys, command[0], str(file), *command[1:])
        assert (code, out, err) == (
            2, "", "error: framework validation failed: period lattice determinant is "
                   "not finite\n")

    @pytest.mark.parametrize("command", [["analyze"], ["symmetry", "--characters"],
                                         ["analyze", "--mode", "space", "symmetric"]])
    def test_tolerance_too_large_for_the_basis_check(self, capsys, command):
        code, out, err = run(capsys, command[0], "--builtin", "kagome", "--tol", "0.3",
                             *command[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance 0.3 is too large")

    @pytest.mark.parametrize("name, tol, violation", [
        ("kagome", "1", "period lattice is singular (determinant below tolerance)"),
        ("hexahedron", "0.5", "vertices 0 and 1 coincide modulo the lattice")])
    def test_tolerance_that_fails_validation_is_blamed(self, capsys, name, tol, violation):
        # The builtins are valid; the tolerance is what makes them fail.
        code, out, err = run(capsys, "analyze", "--builtin", name, "--tol", tol)
        assert (code, out) == (2, "")
        assert err == f"error: tolerance {tol} is too large: {violation}\n"

    @pytest.mark.parametrize("name, tol, dimension", [
        ("kagome", "0.2", 2), ("square_grid", "0.2", 2), ("kagome", "0.1", 2), ("hexahedron", "0.1", 3)])
    @pytest.mark.parametrize("command", [["analyze"], ["analyze", "--json"],
                                         ["symmetry", "--characters"]])
    def test_tolerance_that_hides_the_translations(self, capsys, command, name, tol, dimension):
        # Below the basis-check threshold, but the d translations no longer
        # count as rigid motions: exit 2, not a report (square_grid) or exit 3 (kagome 0.2).
        code, out, err = run(capsys, command[0], "--builtin", name, "--tol", tol, *command[1:])
        assert code == 2
        assert out == ""
        assert err == (f"error: tolerance {tol} is too large: the rigid motions span 0 "
                       f"dimensions, fewer than the {dimension} translations\n")

    @pytest.mark.parametrize("name, tol, element, acting, fixed", [
        ("kagome", "0.05", "r3", 1, 3), ("hexahedron", "0.02", "r3", 2, 3),
        ("hexahedron", "0.05", "r3", 1, 5), ("square_grid", "0.1", "r4", 1, 2)])
    @pytest.mark.parametrize("command", [["analyze"], ["analyze", "--json"],
                                         ["symmetry", "--characters"]])
    def test_tolerance_that_splits_the_fixed_rigid_motions(
            self, capsys, command, name, tol, element, acting, fixed):
        # The translations survive, but the rigid motions the element fixes
        # read differently in its fixed domain and under its action on them:
        # bad input, exit 2, not an identity that fails to close (exit 3).
        code, out, err = run(capsys, command[0], "--builtin", name, "--tol", tol, *command[1:])
        assert code == 2
        assert out == ""
        assert err == (f"error: tolerance {tol} is too large: the rigid motions fixed by "
                       f"element {element!r} span {acting} dimensions, but {fixed} lie in "
                       f"its fixed domain\n")

    @pytest.mark.parametrize("tol", ["1e-9", "0.02", "0.05"])
    def test_space_without_a_skew_member_counts_only_the_translations(
            self, capsys, tmp_path, tol):
        # dim(E ∩ Skew) = 0 exactly, so f = d = 2 whatever the tolerance.
        space = tmp_path / "space.json"
        space.write_text(json.dumps([[[2, 1], [-1, 2]], [[1, 2], [-2, 0]]]))
        code, out, _ = run(capsys, "analyze", "--builtin", "square_grid", "--tol", tol,
                           "--mode", "space", f"custom:{space}")
        assert code == 0
        assert "mode custom: m=0 s=0 f=2\n" in out

    def test_rigid_motions_beyond_the_flexes(self, capsys, monkeypatch):
        # More rigid motions than flexes would print m < 0: exit 2 instead.
        def one_too_many(fw, space):
            cols = dense_factorization(cf.restricted_operator(fw, space), fw.tolerance).kernel.dim + 1
            return cf.SubspaceBasis(2 * fw.vertex_count + space.dim,
                                    np.eye(2 * fw.vertex_count + space.dim)[:, :cols])

        monkeypatch.setattr(crystalflex.rigidity, "rigid_motion_space", one_too_many)
        code, out, err = run(capsys, "analyze", "--builtin", "kagome", "--mode", "strict")
        assert (code, out) == (2, "")
        assert err == ("error: tolerance 1e-09 is too large: the rigid motions span 4 "
                       "dimensions, more than the 3 flexes\n")

    def test_fixed_rigid_motions_beyond_the_fixed_flexes(self, capsys, monkeypatch):
        # Every domain vector taken as rigid: f_g reads the same both ways,
        # but exceeds dim ker(R F_dom), which would print m_g < 0. The
        # symmetry counts read the full space's rigid span that the
        # framework holds, built by rigidity's rigid_motion_space.
        def everything(fw, space):
            ambient = fw.dimension * fw.vertex_count + space.dim
            return cf.SubspaceBasis(ambient, np.eye(ambient))

        monkeypatch.setattr(crystalflex.rigidity, "rigid_motion_space", everything)
        code, out, err = run(capsys, "symmetry", "--builtin", "kagome")
        assert (code, out) == (2, "")
        assert err == ("error: tolerance 1e-09 is too large: the rigid motions fixed by "
                       "element 'r3' span 4 dimensions, more than the 2 fixed flexes\n")


class TestGlideFixedDomain:
    """The fixed domain of the kagome glide diag(1, -1) + (1/2, 0) is built
    from its vertex cycles, so a looser tolerance leaves it, and the
    symmetry counts read from it, as they are at the default."""

    @staticmethod
    def symmetry_lines(out):
        lines = out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("symmetry glide"))
        return lines[at:at + 2]

    @pytest.fixture
    def glide_file(self, tmp_path, kagome):
        def make(n):
            big = cf.supercell(kagome, (n, n))
            g = cf.resolve_symmetry(big, np.diag([1.0, -1.0]), [0.5, 0.0], "glide")
            path = tmp_path / f"kagome_{n}x{n}_glide.json"
            cf.save_framework(big.with_symmetries((g,)), path)
            return str(path)
        return make

    def test_looser_tolerance_does_not_over_count_the_fixed_domain(self, capsys, glide_file):
        # Dense D - I had a singular value 0.168 below its size-scaled
        # threshold 0.223 at --tol 1e-4: fixed=14 s_g=2, a predicted mechanism.
        path = glide_file(4)
        expected = ["symmetry glide (nonseparable): m_g=3 s_g=3, dimF=12 dimE=2 fixed=13 "
                    "e_g=12 f_g=1 (residual 0)",
                    "  equation residual 0; count inconclusive"]
        for tol in [[], ["--tol", "1e-4"]]:
            code, out, _ = run(capsys, "analyze", path, *tol)
            assert code == 0
            assert self.symmetry_lines(out) == expected

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_character_row_that_does_not_close_exits_3(self, capsys, glide_file, fmt):
        # At --tol 1e-3 the stress trace of the 4x4 glide comes out 1.15
        # where the trace identity wants 0; the row is printed as it is and
        # the command exits 3, as for the counting identities.
        path = glide_file(4)
        code, out, err = run(capsys, "symmetry", path, "--characters", *fmt)
        assert (code, err) == (0, "")
        code, loose, err = run(capsys, "symmetry", path, "--characters", "--tol", "1e-3", *fmt)
        assert code == 3
        assert err == "error: counting identity failed to close (internal inconsistency)\n"
        if fmt:
            characters = json.loads(loose)["symmetries"][0]["characters"]
            assert (characters["stress_trace"], characters["residual"]) == (1.149514091, -1.149514091)
        else:
            assert "tr_str=1.149514091 (residual -1.15)" in loose

    def test_looser_tolerance_closes_the_identity(self, capsys, glide_file):
        # Dense D - I over-counted here too, and s_g then failed to close
        # the identity (exit 3).
        path = glide_file(3)
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        code, loose, _ = run(capsys, "analyze", path, "--tol", "1e-3")
        assert code == 0
        assert self.symmetry_lines(loose) == self.symmetry_lines(out)


def count_calls(monkeypatch, name):
    """Record the positional arguments of every call to the crystalflex
    function ``name``, wherever a module of the package refers to it."""
    calls = []
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "crystalflex"]
    original = next(getattr(m, name) for m in modules if hasattr(m, name))

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


class TestWorkPerRequest:
    """One validation per framework value, one SVD of the strict operator per
    analysis, and no factorization taller than the operator's domain."""

    def test_elements_matched_against_the_framework_are_not_checked_again(
            self, capsys, tmp_path, kagome, monkeypatch):
        # Files and builtins attach the elements just matched against their
        # own motif index, and --element picks r3 before --tol applies, so
        # only --tol checks r3, at the new tolerance.
        path = tmp_path / "kagome.json"
        cf.save_framework(kagome, path)
        calls = count_calls(monkeypatch, "_check_symmetries")
        assert cf.load_framework(path).symmetries and cf.builtin_framework("kagome").symmetries
        for argv in (["analyze", "--builtin", "kagome"], ["symmetry", str(path), "--characters", "--json"],
                     ["symmetry", str(path), "--element", "r3"]):
            assert run(capsys, *argv)[0] == 0
        assert sum(len(elements) for _, elements in calls) == 0
        assert run(capsys, "symmetry", str(path), "--element", "r3", "--tol", "1e-8")[0] == 0
        assert sum(len(elements) for _, elements in calls) == 1

    @pytest.fixture
    def counters(self, monkeypatch):
        validations, svd_shapes = [], []
        validate, svd = crystalflex.frameworks.validate_framework, np.linalg.svd

        def counting_validate(fw):
            validations.append(fw)
            return validate(fw)

        def counting_svd(a, *args, **kwargs):
            svd_shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(crystalflex.frameworks, "validate_framework", counting_validate)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        return validations, svd_shapes

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def counting_lstsq(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        return calls

    @staticmethod
    def block_bound(fw, cells):
        """2 max(|Fe|, d|Fv|) / N for a supercell of N cells: the larger side
        of the real Bloch block of a pair of characters."""
        return 2 * max(fw.edge_count, fw.dimension * fw.vertex_count) // cells

    def test_analyze_validates_once_and_factors_the_strict_operator_once(
            self, capsys, tmp_path, kagome, counters):
        # The builtin is its own one block: one SVD of R0, and the affine
        # operator [R0 | C_E] is never factored.
        validations, svd_shapes = counters
        code, _, _ = run(capsys, "analyze", "--builtin", "kagome", "--json")
        assert code == 0
        assert len(validations) == 1
        assert svd_shapes.count((kagome.edge_count, 2 * kagome.vertex_count)) == 1
        assert svd_shapes.count((kagome.edge_count, 2 * kagome.vertex_count + 4)) == 0
        # On the 8 x 8 supercell R0 is factored as 64 Bloch blocks: no SVD
        # has both sides above 2 max(|Fe|, d|Fv|) / 64 = 12.
        big = scrambled_supercell("kagome", 8, np.random.default_rng(8))
        path = tmp_path / "kagome_8x8.json"
        cf.save_framework(big, path)
        validations.clear()
        svd_shapes.clear()
        code, _, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        assert len(validations) == 1
        assert self.block_bound(big, 64) == 12
        assert [shape for shape in svd_shapes if min(shape[-2:]) > 12] == []

    @pytest.mark.parametrize("mode", [[], ["--mode", "space", "symmetric"]])
    def test_analyze_takes_no_other_svd_as_tall_as_the_operator(
            self, capsys, tmp_path, counters, mode):
        # Every space is a border of R0's Bloch blocks, so no SVD has |Fe|
        # rows. The 3x3x3 hexahedron has |Fe| = 243, unlike d|Fv| + dim E
        # and d^2, so no rigid-motion SVD can pass for the operator's.
        base = cf.builtin_framework("hexahedron")
        big = cf.supercell(base, (3, 3, 3))
        path = tmp_path / "hexahedron_3x3x3.json"
        cf.save_framework(big, path)
        _, svd_shapes = counters
        svd_shapes.clear()
        code, _, _ = run(capsys, "analyze", str(path), *mode)
        assert code == 0
        assert [shape for shape in svd_shapes if big.edge_count in shape[-2:-1]] == []
        assert [shape for shape in svd_shapes if min(shape[-2:]) > self.block_bound(big, 27)] == []

    def test_symmetry_matches_against_one_held_motif_index(self, capsys, monkeypatch):
        # The kagome 6 x 6 file is on the Bloch path, so its request matches
        # r3 and the two generators of its translations, each by the one
        # matcher. The motif index is built once, by validation, and no sort
        # inside a match reads more than the |Fe| = 216 edge rows: once every
        # target vertex was re-bucketed with 3^d + 1 rows each and 2 |Fe|
        # edge rows grouped.
        path = Path(__file__).resolve().parent / "golden" / "kagome_6x6_r3.json"
        builds, matched, sorted_rows, depth = [], [], [], [0]
        build = crystalflex.frameworks._MotifIndex.__init__

        def counting_build(index, fw):
            builds.append(fw)
            build(index, fw)

        match = crystalflex.frameworks._match_isometry

        def tracking_match(*args, **kwargs):
            matched.append(args[0])
            depth[0] += 1
            try:
                return match(*args, **kwargs)
            finally:
                depth[0] -= 1

        lexsort, unique = np.lexsort, np.unique

        def counting_lexsort(keys, *args, **kwargs):
            if depth[0]:
                sorted_rows.append(np.shape(keys)[-1])
            return lexsort(keys, *args, **kwargs)

        def counting_unique(rows, *args, **kwargs):
            if depth[0]:
                sorted_rows.append(len(rows))
            return unique(rows, *args, **kwargs)

        monkeypatch.setattr(crystalflex.frameworks._MotifIndex, "__init__", counting_build)
        for module in (crystalflex.symmetry, crystalflex.translations):
            monkeypatch.setattr(module, "_match_isometry", tracking_match)
        monkeypatch.setattr(np, "lexsort", counting_lexsort)
        monkeypatch.setattr(np, "unique", counting_unique)
        code, _, _ = run(capsys, "symmetry", str(path), "--characters")
        assert code == 0
        assert len(builds) == 1 and builds[0].edge_count == 216
        assert len(matched) == 3
        assert max(sorted_rows, default=0) <= 216

    def test_rigid_motions_take_one_kernel_and_one_span(
            self, kagome, counters, solves, monkeypatch):
        # E ∩ Skew is read in E's own coordinates: one SVD for the kernel of
        # the symmetric part, one for the span, and nothing solved back.
        _, svd_shapes = counters
        intersections = count_calls(monkeypatch, "subspace_intersection")
        full = cf.matrix_space("full", 2, kagome.tolerance)
        svd_shapes.clear()
        rigid = cf.rigid_motion_space(kagome, full)
        assert rigid.dim == 3
        assert len(svd_shapes) == 2
        assert solves == []
        assert intersections == []

    def test_symmetry_validates_once(self, capsys, tmp_path, kagome, counters):
        path = tmp_path / "kagome.json"
        cf.save_framework(kagome, path)
        assert len(kagome.symmetries) == 1
        validations, _ = counters
        validations.clear()
        code, _, _ = run(capsys, "symmetry", str(path), "--characters", "--json")
        assert code == 0
        assert len(validations) == 1
        for name in cf.BUILTIN_NAMES:
            validations.clear()
            assert cf.builtin_framework(name).symmetries
            assert len(validations) == 1

    def test_symmetry_factors_nothing_taller_than_the_domain(
            self, capsys, tmp_path, kagome, counters):
        big = cf.supercell(kagome, (2, 2))
        g = kagome.symmetries[0]
        big = replace(big, symmetries=(cf.resolve_symmetry(big, g.linear, g.translation, g.name),))
        path = tmp_path / "kagome_2x2.json"
        cf.save_framework(big, path)
        domain = 2 * big.vertex_count + 4
        _, svd_shapes = counters
        svd_shapes.clear()
        code, _, _ = run(capsys, "symmetry", str(path), "--characters", "--json")
        assert code == 0
        assert svd_shapes
        assert max(rows for rows, _ in svd_shapes) <= domain

    def test_symmetry_counts_factor_no_domain_square(
            self, capsys, tmp_path, kagome, counters):
        # The counts restrict R to the fixed subspaces: the fixed domain and
        # the vertex and edge fixed spaces come from cycles, so no square SVD
        # of the domain or edge size is taken and the full operator is
        # never factored.
        big = cf.supercell(kagome, (2, 2))
        g = kagome.symmetries[0]
        big = big.with_symmetries((cf.resolve_symmetry(big, g.linear, g.translation, g.name),))
        path = tmp_path / "kagome_2x2.json"
        cf.save_framework(big, path)
        m, dn = big.edge_count, 2 * big.vertex_count
        _, svd_shapes = counters
        svd_shapes.clear()
        code, _, _ = run(capsys, "symmetry", str(path))
        assert code == 0
        for shape in [(m, m), (dn, dn), (m, dn + 4)]:
            assert shape not in svd_shapes
        assert svd_shapes.count((dn + 4, dn + 4)) == 0

    def test_symmetry_counts_factor_the_orbit_rows_once(
            self, capsys, tmp_path, hexahedron, counters):
        # R F_dom repeats its rows along each edge orbit, so m_g and s_g are
        # read off one SVD of the e_g x fixed orbit matrix, and no SVD has
        # |Fe| rows. On the 2x2x2 hexahedron |Fe| = 72 is neither
        # d|Fv| = 48 nor d|Fv| + d^2 = 57.
        big = cf.supercell(hexahedron, (2, 2, 2))
        g = hexahedron.symmetries[0]
        big = big.with_symmetries((cf.resolve_symmetry(big, g.linear, g.translation, g.name),))
        path = tmp_path / "hexahedron_2x2x2.json"
        cf.save_framework(big, path)
        orbits = len(crystalflex.frameworks._orbit_starts([big.symmetries[0].edge_map])[0])
        assert (big.edge_count, orbits) == (72, 24)
        _, svd_shapes = counters
        svd_shapes.clear()
        code, _, _ = run(capsys, "symmetry", str(path))
        assert code == 0
        assert [shape for shape in svd_shapes if shape[0] == big.edge_count] == []
        assert [shape[0] for shape in svd_shapes].count(orbits) == 1

    def test_closure_constraints_take_no_full_u(self, capsys, tmp_path, kagome, monkeypatch):
        # kernel_basis reads only V. On the 4 x 4 supercell r3 has 16 vertex
        # 3-cycles, two closure rows each, and no SVD computes a square U as
        # tall as that 32 x 2 constraint stack.
        big = cf.supercell(kagome, (4, 4))
        g = kagome.symmetries[0]
        big = big.with_symmetries((cf.resolve_symmetry(big, g.linear, g.translation, g.name),))
        path = tmp_path / "kagome_4x4.json"
        cf.save_framework(big, path)
        kernels, full_u, svd = count_calls(monkeypatch, "kernel_basis"), [], np.linalg.svd

        def recording_svd(a, full_matrices=True, compute_uv=True, **kwargs):
            if full_matrices and compute_uv:
                full_u.append(np.shape(a))
            return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        code, _, _ = run(capsys, "symmetry", str(path))
        assert code == 0
        assert (32, 2) in [np.shape(args[0]) for args in kernels]
        assert [shape for shape in full_u if shape[0] == 32] == []

    def character_row_calls(self, capsys, tmp_path, kagome, monkeypatch, cells):
        """The factorization calls of ``symmetry --characters`` on the
        cells x cells kagome supercell with r3 declared."""
        big = cf.supercell(kagome, (cells, cells))
        g = kagome.symmetries[0]
        big = big.with_symmetries((cf.resolve_symmetry(big, g.linear, g.translation, g.name),))
        path = tmp_path / "kagome.json"
        cf.save_framework(big, path)
        calls = {name: count_calls(monkeypatch, name)
                 for name in ("full_svd", "complement_within", "column_space_basis")}
        code, _, _ = run(capsys, "symmetry", str(path), "--characters")
        assert code == 0
        # The space keeps its own basis (no SVD of its d^2 x q stack), and the
        # mechanism trace is a quotient trace (no orthogonal complement).
        commutant = cf.commutant_basis(g.linear, big.tolerance)
        assert calls["complement_within"] == []
        assert (4, commutant.dim) not in [np.shape(args[0]) for args in calls["column_space_basis"]]
        return big, [np.shape(args[0]) for args in calls["full_svd"]]

    def test_character_rows_read_the_counts_factorization(
            self, capsys, tmp_path, kagome, monkeypatch):
        # character_row reads analyze_counts' bases: the commutant space is a
        # border of the strict operator's Bloch blocks, and on the 6 x 6
        # supercell no SVD has both sides above 2 max(|Fe|, d|Fv|) / 36 = 12.
        big, shapes = self.character_row_calls(capsys, tmp_path, kagome, monkeypatch, 6)
        assert self.block_bound(big, 36) == 12
        assert [shape for shape in shapes if min(shape) > 12] == []

    def test_builtin_character_rows_factor_the_strict_operator_once(
            self, capsys, tmp_path, kagome, monkeypatch):
        big, shapes = self.character_row_calls(capsys, tmp_path, kagome, monkeypatch, 1)
        assert [shape for shape in shapes if shape[0] == big.edge_count] == [(6, 6)]

    @pytest.mark.parametrize("argv, count", [
        (["symmetry", "--builtin", "hexahedron", "--characters"], 1),
        (["analyze", "--builtin", "kagome"], 0)])
    def test_one_solve_per_domain_representation(self, capsys, solves, argv, count):
        # The conjugation action's coordinates come from one solve against
        # all conjugated basis matrices, not one per basis matrix, and only
        # for the character row's commutant: the counts read the action on
        # (u, vec A), the full space's own coordinates, where it is B kron B.
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(solves) == count

    @staticmethod
    def space_set_ups(monkeypatch):
        """The names of the spaces that rigidity's matrix_space,
        _lattice_columns (the border) and rigid_motion_space each build, from
        where the held set-ups are built."""
        built = {}
        for name in ("matrix_space", "_lattice_columns", "rigid_motion_space"):
            original, names = getattr(crystalflex.rigidity, name), built.setdefault(name, [])

            def counting(*args, original=original, names=names):
                names.append(args[0] if isinstance(args[0], str) else args[1].name)
                return original(*args)

            monkeypatch.setattr(crystalflex.rigidity, name, counting)
        return built

    @pytest.mark.parametrize("cells", [1, 2])
    def test_analyze_sets_up_the_full_space_once(self, capsys, tmp_path, kagome, monkeypatch, cells):
        # The affine mode and the counts of r3 read one full space, one
        # border and one rigid span, which the framework holds; each reader
        # once built its own (2 of each). The strict mode sets up the zero
        # space once.
        source = ["--builtin", "kagome"]
        if cells > 1:
            big = cf.supercell(kagome, (cells, cells))
            g = kagome.symmetries[0]
            big = big.with_symmetries((cf.resolve_symmetry(big, g.linear, g.translation, g.name),))
            source = [str(tmp_path / "kagome.json")]
            cf.save_framework(big, source[0])
        built = self.space_set_ups(monkeypatch)
        code, out, _ = run(capsys, "analyze", *source)
        assert code == 0
        assert "symmetry r3" in out
        assert built == {name: ["zero", "full"] for name in built}

    def test_symmetry_characters_set_up_each_space_once(self, capsys, tmp_path, kagome, monkeypatch):
        # r3 and the glide share the full space's set-up, and each character
        # row sets up its own commutant once: no more than before the
        # set-ups were held (then the full space's was built once per element).
        big = cf.supercell(kagome, (2, 2))
        r3 = kagome.symmetries[0]
        big = big.with_symmetries((cf.resolve_symmetry(big, r3.linear, r3.translation, r3.name),
                                   cf.resolve_symmetry(big, np.diag([1.0, -1.0]), [0.5, 0.0], "glide")))
        path = tmp_path / "kagome.json"
        cf.save_framework(big, path)
        built = self.space_set_ups(monkeypatch)
        code, _, _ = run(capsys, "symmetry", str(path), "--characters", "--json")
        assert code == 0
        assert built["matrix_space"] == ["full"]
        assert built["_lattice_columns"] == built["rigid_motion_space"] == ["full", "commutant", "commutant"]

    def test_the_package_takes_no_kronecker_product(self):
        # Every d^2 x d^2 Kronecker product is one broadcast product
        # (linalg._kron): np.kron's general-shape set-up cost ten times as much.
        sources = sorted(Path(crystalflex.__file__).parent.glob("*.py"))
        assert sources
        assert [path.name for path in sources if "np.kron" in path.read_text()] == []

    @pytest.mark.parametrize("cells", [2, 8])
    def test_symmetry_builds_each_operator_and_representation_once_per_use(
            self, capsys, tmp_path, kagome, monkeypatch, cells):
        # Each declared element's domain action on (u, vec A) and its
        # commutant are built once per request, and the counts, the equation
        # residual and the character row read them. The counts and the
        # equation residual read the operator's edge rows, so no request
        # builds the dense operator; the one assembly is factor_strict's
        # dense path for the character row, and the 8 x 8 file, on the Bloch
        # path, has none.
        big = scrambled_supercell("kagome", cells, np.random.default_rng(1), translate=False)
        r3 = kagome.symmetries[0]
        big = big.with_symmetries((cf.resolve_symmetry(big, r3.linear, r3.translation, r3.name),
                                   cf.resolve_symmetry(big, np.diag([1.0, -1.0]), [0.5, 0.0], "glide")))
        path = tmp_path / "kagome.json"
        cf.save_framework(big, path)
        actions = count_calls(monkeypatch, "_domain_action")
        commutants = count_calls(monkeypatch, "commutant_basis")
        operators = count_calls(monkeypatch, "restricted_operator")
        builds = count_calls(monkeypatch, "build_matrices")
        equations = count_calls(monkeypatch, "verify_symmetry_equation")
        for argv in (["symmetry", str(path), "--characters", "--json"], ["analyze", str(path)]):
            actions.clear()
            commutants.clear()
            builds.clear()
            code, _, _ = run(capsys, *argv)
            assert code == 0
            assert [args[1].name for args in actions] == ["r3", "glide"]
            assert [args[0].tolist() for args in commutants] == [g.linear.tolist() for g in big.symmetries]
            assert operators == []
            assert len(builds) == (cells == 2)
            assert equations == []

    def test_requests_build_no_motif_edge_and_validate_once(
            self, capsys, tmp_path, kagome, counters, monkeypatch):
        # The parser hands its int64 edge table and float64 vertex table to
        # the framework, and every consumer reads those tables: no MotifEdge
        # or MotifVertex is built on any request, supercell's included, and
        # the bar vectors are computed once per framework.
        big = cf.supercell(kagome, (4, 4))
        g = kagome.symmetries[0]
        big = big.with_symmetries((cf.resolve_symmetry(big, g.linear, g.translation, g.name),))
        path = tmp_path / "kagome_4x4.json"
        cf.save_framework(big, path)
        validations, _ = counters
        built, post_init = [], cf.MotifEdge.__post_init__
        monkeypatch.setattr(cf.MotifEdge, "__post_init__", lambda e: built.append(e) or post_init(e))
        vertices, vertex_init = [], cf.MotifVertex.__post_init__
        monkeypatch.setattr(cf.MotifVertex, "__post_init__", lambda v: vertices.append(v) or vertex_init(v))
        vectors = count_calls(monkeypatch, "_bar_vectors")
        out = str(tmp_path / "out.json")
        for argv, frameworks in ((["analyze", str(path), "--json"], 1),
                                 (["symmetry", str(path), "--characters"], 1),
                                 (["supercell", str(path), "--n", "2,2", "-o", out], 2)):
            validations.clear()
            vectors.clear()
            code, _, _ = run(capsys, *argv)
            assert code == 0
            assert len(validations) == frameworks
            assert len(vectors) == frameworks
            assert built == []
            assert vertices == []
        assert cf.supercell(big, (2, 1)).vertex_count == 2 * big.vertex_count
        assert built == [] and vertices == []

    def test_text_analyze_builds_no_stress_basis_and_rounds_no_array(
            self, capsys, tmp_path, monkeypatch):
        # s is read from the rank: a text report never lifts the stress basis
        # out of the Bloch blocks or fixes a basis's signs, and --json does
        # both once per mode. The 3x3x3 hexahedron has |Fe| = 243, unlike
        # d|Fv| + dim E and d^2, so only a stress basis has |Fe| rows.
        big = cf.supercell(cf.builtin_framework("hexahedron"), (3, 3, 3))
        path = tmp_path / "hexahedron_3x3x3.json"
        cf.save_framework(big, path)
        spans = count_calls(monkeypatch, "_span")
        signs = count_calls(monkeypatch, "_canonical_signs")
        for json_flag, modes in (([], 0), (["--json"], 2)):
            spans.clear()
            signs.clear()
            code, _, _ = run(capsys, "analyze", str(path), *json_flag)
            assert code == 0
            assert [np.shape(args[0])[0] for args in spans].count(big.edge_count) == modes
            assert len(signs) == 2 * modes     # the flex and stress bases

    def test_text_analyze_fixes_no_sign_and_spells_no_number(self, capsys, monkeypatch):
        # Signs are fixed and numbers spelled only for the bases a report
        # writes, and a text report writes none.
        signs = count_calls(monkeypatch, "_canonical_signs")
        words = count_calls(monkeypatch, "_number_words")
        code, _, _ = run(capsys, "analyze", "--builtin", "kagome")
        assert (code, len(signs), len(words)) == (0, 0, 0)

    def test_json_report_reads_the_arrays_not_their_lists(
            self, capsys, tmp_path, kagome, monkeypatch):
        # The writer formats the rounded bases as arrays; the list view that
        # to_dict() returns is never built for a report.
        path = tmp_path / "kagome_4x4.json"
        cf.save_framework(cf.supercell(kagome, (4, 4)), path)
        listed = []
        monkeypatch.setattr(cf.AnalysisReport, "to_dict", lambda report: listed.append(report))
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        assert listed == []
        assert sum(len(mode["stresses_basis"]) for mode in json.loads(out)["modes"]) > 0

    def test_analyze_rounds_bases_in_bulk(self, capsys, tmp_path, kagome, monkeypatch):
        # The per-element _display is left for the scalar fields; the flex
        # and stress bases are rounded as arrays.
        path = tmp_path / "kagome_2x2.json"
        cf.save_framework(cf.supercell(kagome, (2, 2)), path)
        displays = count_calls(monkeypatch, "_display")
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        assert len(displays) <= 20
        assert sum(len(mode["stresses_basis"]) for mode in json.loads(out)["modes"]) > 0

    def test_a_small_json_report_runs_the_digit_kernel_once(self, capsys, monkeypatch):
        # The kagome builtin's bases hold fewer than _BATCH values: one batch,
        # whose arrays of every width and level share one digit pass.
        words = count_calls(monkeypatch, "_number_words")
        code, out, _ = run(capsys, "analyze", "--builtin", "kagome", "--json")
        assert code == 0
        assert len(words) == 1
        assert words[0][0].size < crystalflex.fileio._BATCH
        strict = json.loads(out)["modes"][0]
        assert len(strict["stresses_basis"][0]) != len(strict["flexes"][0]["vertex_velocities"][0])

    def test_symmetry_characters_factor_the_strict_operator_once(
            self, capsys, tmp_path, kagome, monkeypatch):
        # Both elements' character rows read the SVD the framework holds.
        big = cf.supercell(kagome, (2, 2))
        r3 = kagome.symmetries[0]
        elements = (cf.resolve_symmetry(big, r3.linear, r3.translation, r3.name),
                    cf.resolve_symmetry(big, np.diag([1.0, -1.0]), [0.5, 0.0], "glide"))
        path = tmp_path / "kagome_2x2.json"
        cf.save_framework(big.with_symmetries(elements), path)
        factorizations = count_calls(monkeypatch, "factor_strict")
        code, out, _ = run(capsys, "symmetry", str(path), "--characters")
        assert code == 0
        assert out.count("tr_str=") == 2
        assert len(factorizations) == 1

    def test_analyze_with_characters_factors_the_strict_operator_once(self, kagome, monkeypatch):
        # Two modes and two character rows, one SVD of R0.
        glide = cf.resolve_symmetry(kagome, np.diag([1.0, -1.0]), [0.5, 0.0], "glide")
        fw = kagome.with_symmetries(kagome.symmetries + (glide,))
        factorizations = count_calls(monkeypatch, "factor_strict")
        report = cf.analyze_framework(fw, characters=True)
        assert [mode["mode"] for mode in report.body["modes"]] == ["strict", "affine"]
        assert [len(sym["characters"]) > 0 for sym in report.body["symmetries"]] == [True, True]
        assert len(factorizations) == 1


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--builtin", "kagome", "--mode", "space", "custom:{tmp}/missing.json"],
     "error: cannot read {tmp}/missing.json: No such file or directory"),
    (["analyze", "--builtin", "kagome", "--mode", "foo"],
     "error: --mode expects 'strict', 'affine', or 'space SPEC'"),
    (["svg", "--builtin", "kagome", "--cells", "0:2", "-o", "{tmp}/out.svg"],
     "error: --cells '0:2': expected 2 ranges"),
], ids=["missing-space-file", "unknown-mode", "too-few-ranges"])
def test_cli_refusals(capsys, tmp_path, argv, message):
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert (code, out, err) == (2, "", message.format(tmp=tmp_path) + "\n")


class TestHeldSymmetriesAtAnotherTolerance:
    """A framework keeps a declared element only where its held maps hold at
    the framework's own tolerance, so a --tol, ``with_tolerance`` or
    ``replace`` copy never counts an element that is not a symmetry."""

    @staticmethod
    def nudged(tmp_path, fw, nudge):
        doc = cf.framework_to_dict(fw)
        doc["tolerance"] = 1e-5
        for vertex in doc["vertices"]:
            vertex["position"] = (np.array(vertex["position"]) + nudge(vertex["id"])).tolist()
        path = tmp_path / "nudged.json"
        path.write_text(json.dumps(doc))
        return path

    def test_kagome_with_one_vertex_moved(self, capsys, tmp_path, kagome):
        # r3 holds to 3e-7, so it is declared at the file's 1e-5 and not at 1e-12.
        path = self.nudged(tmp_path, kagome, lambda vid: [3e-7, 0.0] if vid == "p3" else [0.0, 0.0])
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0 and "equation residual 3e-07" in out
        code, out, err = run(capsys, "analyze", str(path), "--tol", "1e-12")
        assert (code, out) == (2, "")
        assert err == ("error: --tol 1e-12: symmetry element 'r3' does not hold at tolerance 1e-12: "
                       "image of vertex p2 lies 3e-07 from its class\n")

    def test_supercell_with_every_coordinate_moved(self, capsys, tmp_path, kagome, rng):
        big = cf.supercell(kagome, (4, 4))
        r3 = kagome.symmetries[0]
        big = big.with_symmetries([cf.resolve_symmetry(big, r3.linear, r3.translation, "r3")])
        path = self.nudged(tmp_path, big, lambda _: 3e-7 * rng.standard_normal(2))
        assert run(capsys, "analyze", str(path))[0] == 0
        code, out, err = run(capsys, "analyze", str(path), "--tol", "1e-12")
        assert (code, out) == (2, "")
        assert err.startswith("error: --tol 1e-12: symmetry element 'r3' does not hold at tolerance 1e-12: "
                              "image of vertex ")

    def test_kagome_with_a_sheared_lattice(self, capsys, tmp_path, kagome):
        # r3 maps the lattice to itself to within 1e-4 only: it is declared
        # at the file's tolerance, and at 1e-7 its lattice action fails.
        doc = cf.framework_to_dict(kagome)
        doc["period_vectors"][1][0] += 1e-5
        doc["tolerance"] = 1e-4
        path = tmp_path / "sheared.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "symmetry", str(path))[0] == 0
        code, out, err = run(capsys, "symmetry", str(path), "--tol", "1e-7")
        assert (code, out) == (2, "")
        assert err == ("error: --tol 1e-07: symmetry element 'r3' does not hold at tolerance 1e-07: "
                       "lattice-incompatible linear part\n")

    def test_replace_with_another_motif(self, kagome):
        # r3's three-vertex maps once reached the operator as a reshape error.
        with pytest.raises(cf.SymmetryError, match="'r3' was resolved against another motif"):
            replace(kagome, vertices=kagome.vertices + (cf.MotifVertex([0.6, 0.3], "x"),))

    def test_replace_with_the_bars_reordered(self, kagome):
        # Swapping two bars leaves the vertex action as it was and moves the
        # edge action, which once gave an equation residual of 0.5.
        edges = list(kagome.edges)
        edges[:2] = edges[1::-1]
        with pytest.raises(cf.SymmetryError, match="image of edge 0 is not the edge class its map names"):
            replace(kagome, edges=edges)

    def test_elements_that_hold_are_kept(self, kagome):
        (r3,) = kagome.symmetries
        assert kagome.with_tolerance(1e-6).symmetries[0] is r3
        with pytest.raises(cf.SymmetryError, match="r3' does not hold at tolerance 1e-09: linear part"):
            replace(kagome, symmetries=[replace(r3, linear=2 * r3.linear)])
