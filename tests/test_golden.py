"""Byte-for-byte CLI outputs against recorded goldens.

Each case runs ``crystalflex`` in-process from ``tests/golden`` (so the
kagome 2x2 file is named by its relative path in the report) and compares
stdout with ``tests/golden/<case>.txt``; stderr must be empty and the exit
code 0.  Text reports for every command, and for ``analyze`` and
``symmetry --characters`` on two files whose strict operator is factored as
Bloch blocks; JSON only where it carries no flex or stress bases
(``symmetry`` and ``supercell``), because the bases of multi-dimensional
kernels depend on the LAPACK build.

Run ``python tests/test_golden.py`` to record the goldens again.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from crystalflex.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = {
    "square_grid": ["--builtin", "square_grid"],
    "kagome": ["--builtin", "kagome"],
    "hexahedron": ["--builtin", "hexahedron"],
    "kagome_2x2": ["kagome_2x2.json"],
}
COMMANDS = {
    "analyze": ["analyze"],
    "analyze_symmetric": ["analyze", "--mode", "space", "symmetric"],
    "analyze_skew": ["analyze", "--mode", "space", "skew"],
    "analyze_diagonal": ["analyze", "--mode", "space", "diagonal"],
    "symmetry_characters": ["symmetry", "--characters"],
}
# Files large enough (d |Fv| >= 150) that R0's SVD is held as Bloch blocks,
# written by bench/motifs.generate(name, n, 1, True): text reports only.
BLOCH_INPUTS = {
    "kagome_6x6_r3": ["kagome_6x6_r3.json"],
    "hexahedron_3x3x3_r3": ["hexahedron_3x3x3_r3.json"],
}
REPORTS = {f"{command}-{name}": COMMANDS[command][:1] + source + COMMANDS[command][1:]
           for command in COMMANDS for name, source in INPUTS.items()}
REPORTS.update({f"{command}-{name}": COMMANDS[command][:1] + source + COMMANDS[command][1:]
                for command in ("analyze", "symmetry_characters") for name, source in BLOCH_INPUTS.items()})
JSON_REPORTS = {f"symmetry_characters-{name}": ["symmetry"] + source + ["--characters", "--json"]
                for name, source in INPUTS.items()}
JSON_REPORTS["supercell_2x2-kagome"] = ["supercell", "--builtin", "kagome", "--n", "2,2"]
JSON_REPORTS["supercell_2x2x2-hexahedron"] = ["supercell", "--builtin", "hexahedron", "--n", "2,2,2"]
SVG_CASE, SVG_ARGV = "svg_3x2-kagome", ["svg", "--builtin", "kagome", "--cells", "3x2"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_text_report(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, err = run_cli(REPORTS[case])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(JSON_REPORTS))
def test_json_report(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, err = run_cli(JSON_REPORTS[case])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{case}.json").read_text(encoding="utf-8")


def test_svg(tmp_path):
    target = tmp_path / "out.svg"
    code, out, err = run_cli(SVG_ARGV + ["-o", str(target)])
    assert (code, out, err) == (0, "", "")
    assert target.read_bytes() == (GOLDEN / f"{SVG_CASE}.svg").read_bytes()


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for case, argv in REPORTS.items():
        code, out, err = run_cli(argv)
        assert (code, err) == (0, ""), (case, code, err)
        Path(f"{case}.txt").write_text(out, encoding="utf-8")
    for case, argv in JSON_REPORTS.items():
        code, out, err = run_cli(argv)
        assert (code, err) == (0, ""), (case, code, err)
        Path(f"{case}.json").write_text(out, encoding="utf-8")
    code, _, err = run_cli(SVG_ARGV + ["-o", f"{SVG_CASE}.svg"])
    assert (code, err) == (0, ""), (SVG_CASE, code, err)
    sys.stdout.write(f"recorded {len(REPORTS) + len(JSON_REPORTS) + 1} goldens in {GOLDEN}\n")
