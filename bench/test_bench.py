"""Tests of the benchmark itself: its reference, generator, checks and tracer.

    python3 -m pytest bench -q

The builtin rows of the reference table are confirmed with exact sympy
ranks; the other rows with the benchmark's own numpy assembly on a seed
the table was not written from.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
from motifs import MOTIFS, base_motifs, generate  # noqa: E402

import crystalflex.cli as cli  # noqa: E402

TABLE = ref.load_table()
EXACT = base_motifs(sp.sqrt, sp.Rational)


def exact_rank(rows) -> int:
    return sp.Matrix(np.asarray(rows, dtype=object).tolist()).rank(simplify=True)


def exact_nullspace(mat) -> np.ndarray:
    null = sp.Matrix(np.asarray(mat, dtype=object).tolist()).nullspace(simplify=True)
    return np.array(sp.Matrix.hstack(*null).tolist(), dtype=object)


@pytest.mark.parametrize("name", sorted(MOTIFS))
def test_builtin_rows_match_exact_ranks(name):
    geo = ref.geometry_from_motif(EXACT[name], with_symmetry=True)
    zero = sp.Integer(0)
    entry = TABLE[f"{name}:1"]
    for label in ref.SPACES:
        assert ref.mode_counts(geo, label, exact_rank, zero) == entry["modes"][label], label
    exact = ref.symmetry_counts(geo, exact_rank, exact_nullspace, zero)
    assert exact == entry["symmetry"][geo.symmetry[0]]


def test_table_rows_match_numeric_reference_on_another_seed():
    for key in ref.TABLE_ENTRIES:
        name, n = key.split(":")
        assert ref.compute_entry(name, int(n), seed=7) == TABLE[key], key


def _program_counts(path: Path, command: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([command[0], str(path), *command[1:]]) == 0
    doc = json.loads(out.getvalue())
    return {
        "modes": {m["mode"]: (m["m"], m["s"], m["f"]) for m in doc["modes"]},
        "symmetries": {s["name"]: (s["m"], s["s"], s["f"], s["edge_orbits"]) for s in doc["symmetries"]},
    }


@pytest.mark.parametrize("name,n", [("kagome", 4), ("hexahedron", 2), ("square_grid", 4)])
def test_seeds_change_file_bytes_but_not_counts(tmp_path, name, n):
    texts = [generate(name, n, seed, True) for seed in (1, 2)]
    assert texts[0] != texts[1]
    assert texts[0] == generate(name, n, 1, True)
    counts = []
    for k, text in enumerate(texts):
        path = tmp_path / f"in{k}.json"
        path.write_text(text)
        counts.append(_program_counts(path, ["analyze", "--json"]))
    assert counts[0] == counts[1]


def _ladder_request(tmp_path, entry):
    path = tmp_path / "kagome_4.json"
    path.write_text(generate("kagome", 4, 3, False))
    geo = ref.geometry_from_file_text(path.read_text())
    return run.Request("analyze kagome n=4", ["analyze", str(path), "--json"],
                       run.analyze_json_check(geo, entry, ("strict", "affine")))


def test_correct_output_passes_the_check(tmp_path):
    requests = [_ladder_request(tmp_path, TABLE["kagome:4"])]
    assert run.check_outputs(requests, run.run_pass(cli, requests, [0, 0])) == []


def test_wrong_reference_counts_as_a_failure(tmp_path):
    wrong = json.loads(json.dumps(TABLE["kagome:4"]))
    wrong["modes"]["strict"]["m"] += 1
    requests = [_ladder_request(tmp_path, wrong)]
    failures = run.check_outputs(requests, run.run_pass(cli, requests, [0, 0]))
    assert len(failures) == 2 and all("check failed" in error for _, error in failures)


def test_flex_check_rejects_a_vector_that_is_not_a_flex():
    geo = ref.geometry_from_motif(MOTIFS["kagome"])
    flex = {"vertex_velocities": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
            "distortion": [[0.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(ref.CheckError, match="bar rows"):
        ref.check_flexes(geo, "strict", [flex], 1)
    translation = {"vertex_velocities": [[1.0, 0.0]] * 3, "distortion": [[0.0, 0.0], [0.0, 0.0]]}
    ref.check_flexes(geo, "strict", [translation], 1)


def test_tracer_self_times_account_for_root_spans():
    tracer = tr.Tracer()
    original = cli.main
    tracer.install()
    try:
        assert cli.main is not original
        with contextlib.redirect_stdout(io.StringIO()):
            tracer.request = 0
            cli.main(["symmetry", "--builtin", "kagome", "--characters"])
    finally:
        tracer.uninstall()
    assert cli.main is original
    res = tr.analyse(tracer)
    assert res["calls"]["cli.main"] == 1
    assert res["calls"]["catalog.builtin_framework"] == 1
    assert res["calls"]["symmetry.character_row"] == 1
    assert sum(res["module_self"].values()) + res["wrapper_s"] == pytest.approx(res["root_s"], rel=1e-9)
    assert all(s[tr.PARENT] < i for i, s in enumerate(tracer.spans))
    assert {s[tr.REQUEST] for s in tracer.spans} == {0}


def test_tail_leaves_ten_samples_beyond():
    samples = [0.1 * k for k in range(25, 0, -1)]
    value, percentile = run.tail(samples)
    assert sum(1 for x in samples if x > value) == 10 and percentile == pytest.approx(100 * 14 / 24)


def test_latencies_are_scaled_by_the_median_nearby_probe():
    slow = 2 * run.REF_PROBE_S
    probes = [slow, slow, 10 * slow, slow, slow, slow]     # one interrupted probe
    flat = [(k % 2, 1.0 + k, b"", probe, 0.0) for k, probe in enumerate(probes)]
    scaled = run.scaled_latencies([flat[:3], flat[3:]])
    assert scaled == {0: pytest.approx([0.5, 1.5, 2.5]), 1: pytest.approx([1.0, 2.0, 3.0])}
    assert run.typical_pass(scaled) == pytest.approx(1.5 + 2.0)


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
