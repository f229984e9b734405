"""crystalflex benchmark: closed-loop CLI requests with checked outputs.

    python3 bench/run.py --workload analyze-ladder --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

One client sends the workload's requests to ``crystalflex.cli.main(argv)``
in this process, each as soon as the previous one returned (no think time).
A pass sends every request once, in an order shuffled per pass from the
seed.  Passes repeat until ``--seconds`` have been measured and at least
MIN_PASSES are done.  A request's latency is the CPU time of the call (see
``run_pass``).  Before each request, outside its timed call, the runner
times ``host_probe``, a fixed piece of interpreter and LAPACK work, and
reports every latency scaled to the reference host's speed (see
``scaled_latencies``).  Every output is checked, after the timed passes,
against the independent reference in ``reference.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs
untraced passes for half the time, then traced passes, and prints the
per-layer metrics (see ``tracer.py``).  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  See README.md for what
each workload and metric is for.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import tracer as tr  # noqa: E402
from motifs import MOTIFS, generate  # noqa: E402

SETUP_REPS = 5
MAX_MEASURE_S = 120.0
PROBE_EVERY_S = 0.25
PROBE_MATRIX = np.random.default_rng(0).standard_normal((200, 200))
# Median host_probe() time over minutes of requests on the reference host
# (2-vCPU VM, OpenBLAS, one BLAS thread).
REF_PROBE_S = 0.0108
PROBE_WINDOW = 5
# Every request runs at least this often in an untraced run, so the tail
# (10 latencies beyond it) always lies among the heaviest request's own
# latencies instead of moving between requests with the pass count, and
# is not its single fastest one.
MIN_PASSES = 12

END_TO_END = [
    ("pass_s", "s", "lower"),
    ("req_p50_s", "s", "lower"),
    ("req_tail_s", "s", "lower"),
    ("rps", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("frameworks.validate_s", "s", "lower"),
    ("frameworks.validate_calls", "count", "lower"),
    ("frameworks.validate_per_framework", "ratio", "lower"),
    ("frameworks.supercell_s", "s", "lower"),
    ("rigidity.build_self_s", "s", "lower"),
    ("rigidity.build_calls", "count", "lower"),
    ("rigidity.operator_calls", "count", "lower"),
    ("rigidity.counts_self_s", "s", "lower"),
    ("linalg.factor_s", "s", "lower"),
    ("linalg.factor_calls", "count", "lower"),
    ("linalg.factor_per_operator", "ratio", "lower"),
    ("linalg.svd_gflop", "GFLOP", "lower"),
    ("linalg.max_factor_dim", "count", "lower"),
    ("linalg.intersection_s", "s", "lower"),
    ("symmetry.resolve_s", "s", "lower"),
    ("symmetry.reps_s", "s", "lower"),
    ("symmetry.counts_self_s", "s", "lower"),
    ("symmetry.characters_self_s", "s", "lower"),
    ("symmetry.equation_s", "s", "lower"),
    ("fileio.parse_self_s", "s", "lower"),
    ("fileio.analyze_self_s", "s", "lower"),
    ("fileio.emit_s", "s", "lower"),
    ("fileio.report_bytes", "bytes", "lower"),
    ("catalog.builtin_s", "s", "lower"),
    ("catalog.builtin_calls", "count", "lower"),
    ("svg.render_s", "s", "lower"),
    *[(f"{m}.self_s", "s", "lower") for m in tr.MODULES],
    ("trace.pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.root_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.wrapper_s", "s", "lower"),
    ("trace.root_share", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
]


@dataclass
class Request:
    label: str
    argv: list
    check: Callable           # check(text) raises ref.CheckError
    output: Path = None       # file the request writes; checked instead of stdout
    outputs: dict = field(default_factory=dict)    # output digest -> text


# ---- checks -------------------------------------------------------------------

MODE_LINE = re.compile(r"^mode (\S+): m=(\d+) s=(\d+) f=(\d+)$", re.M)
SYMMETRY_LINE = re.compile(
    r"^symmetry (\S+) \(\w+\): m_g=(\d+) s_g=(\d+), .* e_g=(\d+) f_g=(\d+) ", re.M)


def _check_symmetries(entries: dict, got: dict, what: str):
    if set(got) != set(entries):
        raise ref.CheckError(f"{what}: symmetry elements {sorted(got)}, expected {sorted(entries)}")
    for name, counts in got.items():
        ref.check_counts(counts, entries[name], f"{what} {name}")


def analyze_json_check(geo, entry, labels):
    def check(stdout):
        out = json.loads(stdout)
        modes = {m["mode"]: m for m in out["modes"]}
        if list(modes) != list(labels):
            raise ref.CheckError(f"modes {list(modes)}, expected {list(labels)}")
        for label, mode in modes.items():
            want = entry["modes"][label]
            ref.check_counts(mode, want, label)
            if mode["identity_residual"] != 0:
                raise ref.CheckError(f"{label}: identity residual {mode['identity_residual']}")
            ref.check_flexes(geo, label, mode["flexes"], want["m"] + want["f"])
            ref.check_stresses(geo, label, mode["stresses_basis"], want["s"])
        got = {s["name"]: {"m": s["m"], "s": s["s"], "f": s["f"], "e": s["edge_orbits"]}
               for s in out["symmetries"]}
        _check_symmetries(entry.get("symmetry", {}) if geo.symmetry else {}, got, "analyze")
    return check


def analyze_text_check(entry, labels):
    def check(stdout):
        modes = {m[0]: {"m": int(m[1]), "s": int(m[2]), "f": int(m[3])}
                 for m in MODE_LINE.findall(stdout)}
        if list(modes) != list(labels):
            raise ref.CheckError(f"modes {list(modes)}, expected {list(labels)}")
        for label, counts in modes.items():
            ref.check_counts(counts, entry["modes"][label], label)
        got = {g[0]: {"m": int(g[1]), "s": int(g[2]), "e": int(g[3]), "f": int(g[4])}
               for g in SYMMETRY_LINE.findall(stdout)}
        _check_symmetries(entry["symmetry"], got, "analyze")
    return check


def symmetry_check(entry, as_json):
    def check(stdout):
        if as_json:
            out = json.loads(stdout)
            if not all("characters" in s for s in out["symmetries"]):
                raise ref.CheckError("character rows missing")
            got = {s["name"]: {"m": s["m"], "s": s["s"], "f": s["f"], "e": s["edge_orbits"]}
                   for s in out["symmetries"]}
        else:
            if "characters (E=" not in stdout:
                raise ref.CheckError("character rows missing")
            got = {g[0]: {"m": int(g[1]), "s": int(g[2]), "e": int(g[3]), "f": int(g[4])}
                   for g in SYMMETRY_LINE.findall(stdout)}
        _check_symmetries(entry["symmetry"], got, "symmetry")
    return check


def supercell_check(motif, n, entry):
    def check(text):
        geo = ref.geometry_from_file_text(text)
        cells = n ** motif.dimension
        if (len(geo.positions), len(geo.edges)) != (cells * len(motif.positions), cells * len(motif.edges)):
            raise ref.CheckError(f"supercell has {len(geo.positions)} vertices, {len(geo.edges)} edges")
        ref.check_counts(ref.mode_counts(geo, "strict"), entry["modes"]["strict"], "supercell strict")
    return check


def svg_check(geo, cells):
    box = list(np.ndindex(cells, cells))
    inside = set(box)
    internal = sum(1 for c in box for _, fc, _, tc in geo.edges
                   if tuple(np.add(fc, c)) in inside and tuple(np.add(tc, c)) in inside)
    want = {"<line ": len(box) * len(geo.edges), "<circle ": len(box) * len(geo.positions),
            'class="edge"': internal}

    def check(text):
        for token, count in want.items():
            if text.count(token) != count:
                raise ref.CheckError(f"svg has {text.count(token)} of {token!r}, expected {count}")
    return check


# ---- workloads ------------------------------------------------------------------

# Kagome 10 and hexahedron 4 (4-5 s each on the reference host) are left
# out: a run then holds too few latencies of them to find the host's fast
# phases, and their run-to-run spread exceeded every bound.
LADDER = [("kagome", 4), ("kagome", 6), ("kagome", 8),
          ("hexahedron", 2), ("hexahedron", 3), ("square_grid", 8)]
SCAN = [("kagome", 4), ("kagome", 6), ("kagome", 8),
        ("hexahedron", 2), ("hexahedron", 3), ("square_grid", 8)]


def write_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Generate and write the workload's input files; returns name -> path."""
    files = {}
    if workload == "analyze-ladder":
        specs = [(name, n, False) for name, n in LADDER]
    elif workload == "symmetry-scan":
        specs = [(name, n, True) for name, n in SCAN]
    else:
        specs = [(name, 2, True) for name in MOTIFS]
        for d, mats in ref.CUSTOM_SPACES.items():
            path = workdir / f"custom_{d}.json"
            path.write_text(json.dumps(mats))
            files[f"custom_{d}"] = path
    for name, n, with_symmetry in specs:
        path = workdir / f"{name}_{n}.json"
        path.write_text(generate(name, n, seed, with_symmetry))
        files[f"{name}_{n}"] = path
    return files


def build_requests(workload: str, files: dict, table: dict, workdir: Path) -> list:
    def geo(key):
        return ref.geometry_from_file_text(files[key].read_text())

    if workload == "analyze-ladder":
        return [Request(f"analyze {name} n={n}", ["analyze", str(files[f"{name}_{n}"]), "--json"],
                        analyze_json_check(geo(f"{name}_{n}"), table[f"{name}:{n}"], ("strict", "affine")))
                for name, n in LADDER]
    if workload == "symmetry-scan":
        return [Request(f"symmetry {name} n={n}",
                        ["symmetry", str(files[f"{name}_{n}"]), "--characters", "--json"],
                        symmetry_check(table[f"{name}:{n}"], as_json=True))
                for name, n in SCAN]

    requests = []
    for name, motif in MOTIFS.items():
        d = motif.dimension
        one, two = table[f"{name}:1"], table[f"{name}:2"]
        base = ref.geometry_from_motif(motif, with_symmetry=True)
        big = str(files[f"{name}_2"])
        big_geo = geo(f"{name}_2")
        default = ("strict", "affine")
        requests += [
            Request(f"analyze --builtin {name}", ["analyze", "--builtin", name],
                    analyze_text_check(one, default)),
            Request(f"analyze --builtin {name} --json", ["analyze", "--builtin", name, "--json"],
                    analyze_json_check(base, one, default)),
            Request(f"analyze {name} n=2", ["analyze", big, "--json"],
                    analyze_json_check(big_geo, two, default)),
            Request(f"analyze --builtin {name} skew", ["analyze", "--builtin", name, "--mode", "space", "skew"],
                    analyze_text_check(one, ("skew",))),
        ]
        for label in ("symmetric", "diagonal", "custom"):
            spec = f"custom:{files[f'custom_{d}']}" if label == "custom" else label
            requests.append(Request(f"analyze {name} n=2 {label}",
                                    ["analyze", big, "--mode", "space", spec, "--json"],
                                    analyze_json_check(big_geo, two, (label,))))
        out = workdir / f"out_{name}_2.json"
        requests += [
            Request(f"symmetry --builtin {name}", ["symmetry", "--builtin", name, "--characters"],
                    symmetry_check(one, as_json=False)),
            Request(f"symmetry {name} n=2", ["symmetry", big, "--characters", "--json"],
                    symmetry_check(two, as_json=True)),
            Request(f"supercell --builtin {name}",
                    ["supercell", "--builtin", name, "--n", ",".join(["2"] * d), "-o", str(out)],
                    supercell_check(motif, 2, two), out),
        ]
        if d == 2:
            for label, source, geometry, cells in (("--builtin " + name, ["--builtin", name], base, 3),
                                                   (f"{name} n=2", [big], big_geo, 2)):
                svg = workdir / f"out_{name}_{cells}.svg"
                requests.append(Request(f"svg {label}",
                                        ["svg", *source, "--cells", f"{cells}x{cells}", "-o", str(svg)],
                                        svg_check(geometry, cells), svg))
    return requests


WORKLOADS = ("analyze-ladder", "symmetry-scan", "catalog-small")


# ---- measurement ----------------------------------------------------------------

class CpuPicker:
    """Moves this thread to whichever CPU of its affinity set runs a short
    fixed loop fastest, at most once every PROBE_EVERY_S.

    On the reference host (a 2-vCPU VM) there are periods in which one vCPU
    runs about 2x slower than the other, the slow one swapping every few
    seconds.  Probing between requests keeps each request on the fast one;
    the probe is outside the timed call.  ``restore`` puts the affinity set
    back.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = float("-inf")

    def __call__(self):
        if len(self.cpus) < 2 or perf_counter() - self.last < PROBE_EVERY_S:
            return
        times = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = perf_counter()
            total = 0
            for i in range(50_000):
                total += i
            times.append((perf_counter() - t0, cpu))
        os.sched_setaffinity(0, {min(times)[1]})
        self.last = perf_counter()

    def restore(self):
        os.sched_setaffinity(0, self.cpus)


def host_probe() -> float:
    """CPU seconds for a fixed piece of work shaped like the program's own:
    a short dictionary loop in the interpreter and the SVD of a 200x200
    matrix (about 2 ms and 9 ms on the reference host)."""
    t0 = process_time()
    table = {}
    for i in range(10_000):
        table[i & 63] = table.get(i & 63, 0) + i
    np.linalg.svd(PROBE_MATRIX)
    return process_time() - t0


def run_pass(cli, requests, order, tracer=None, first_id=0, pick_cpu=None, probe=False):
    """One closed-loop pass; returns [(request index, CPU seconds, error or
    output digest, probe seconds or None, wall seconds)].

    The latency is the process's CPU time (user and system) during the
    call.  The program runs in this one thread (BLAS at one thread) and
    does no waiting I/O, so on an idle machine that is its wall time; on
    the reference VM it leaves out steal, the time the hypervisor gives
    the vCPU to other guests, which added 0-50% to single requests.  With
    ``probe`` the host is probed before each request, outside its timed
    call.  Each distinct output is kept on its request, to be checked by
    ``check_outputs`` after the measurement."""
    results = []
    for k, idx in enumerate(order):
        req = requests[idx]
        if pick_cpu is not None:
            pick_cpu()
        probe_s = host_probe() if probe else None
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = first_id + k
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0, c0 = perf_counter(), process_time()
            try:
                code = cli.main(req.argv)
            except Exception as exc:  # a crash is a failed request, not a failed run
                code, error = None, f"{type(exc).__name__}: {exc}"
            cpu, wall = process_time() - c0, perf_counter() - t0
        if error is None and code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[:200]}"
        if error is None:
            text = req.output.read_text() if req.output else out.getvalue()
            digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
            req.outputs.setdefault(digest, text)
            results.append((idx, cpu, digest, probe_s, wall))
        else:
            results.append((idx, cpu, error, probe_s, wall))
    return results


def check_outputs(requests, results) -> list:
    """[(label, error)] for every result that failed.

    Each distinct output of a request is checked once (the program's
    reports are deterministic), after the timed passes, so the checks'
    allocations stay out of the measured peak RSS."""
    verdicts = {}
    for idx, req in enumerate(requests):
        for digest, text in req.outputs.items():
            try:
                req.check(text)
                verdicts[idx, digest] = None
            except (ref.CheckError, ValueError, KeyError, TypeError) as exc:
                verdicts[idx, digest] = f"check failed: {exc}"
    failures = []
    for idx, _, outcome, *_ in results:
        error = verdicts[idx, outcome] if isinstance(outcome, bytes) else outcome
        if error is not None:
            failures.append((requests[idx].label, error))
    return failures


def pass_time(results) -> float:
    """Wall time of the requests in ``results``."""
    return sum(r[4] for r in results)


def scaled_latencies(passes) -> dict:
    """Per request index, every latency in seconds at the reference host's
    speed, in measurement order.

    The reference host is a shared 2-vCPU VM whose speed moves by up to
    ~1.4x, for seconds to minutes at a time, with its neighbours' load;
    CPU time slows with it.  Each latency is multiplied by REF_PROBE_S over
    the median probe of the PROBE_WINDOW requests around it (the median
    keeps one interrupted probe from scaling a latency).  A change to the
    program moves its latencies and not the probes, so it shows in full.
    """
    flat = [r for p in passes for r in p]
    probes = [r[3] for r in flat]
    half = PROBE_WINDOW // 2
    by_request = {}
    for i, (idx, t, *_) in enumerate(flat):
        local = statistics.median(probes[max(0, i - half):i + half + 1])
        by_request.setdefault(idx, []).append(t * REF_PROBE_S / local)
    return by_request


def typical_pass(latencies: dict) -> float:
    """One pass's time: the sum of every request's median latency."""
    return sum(statistics.median(ts) for ts in latencies.values())


def measure(cli, requests, rng, seconds, min_passes, tracer=None):
    """Passes until ``seconds`` are measured and at least ``min_passes``
    are done; no pass starts after MAX_MEASURE_S."""
    pick_cpu = CpuPicker()
    passes = []
    start = perf_counter()
    try:
        while True:
            elapsed = perf_counter() - start
            if (len(passes) >= min_passes and elapsed >= seconds) or (passes and elapsed > MAX_MEASURE_S):
                break
            order = rng.permutation(len(requests)).tolist()
            first = len(passes) * len(requests)
            passes.append(run_pass(cli, requests, order, tracer, first, pick_cpu, probe=True))
    finally:
        pick_cpu.restore()
    return passes


def time_setup(workload: str, seed: int, workdir: Path) -> tuple:
    """Median CPU time of SETUP_REPS set-ups, scaled and as measured:
    package import in a fresh interpreter (on this process's CPU) plus
    generating and writing the inputs.  The scale is REF_PROBE_S over the
    median of the probes taken before and after every set-up."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; "
            "t = time.process_time(); import crystalflex; print(time.process_time() - t)")
    pick_cpu = CpuPicker()
    totals, probes = [], []
    try:
        pick_cpu()
        for rep in range(SETUP_REPS):
            probes.append(host_probe())
            child = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                                   text=True, timeout=120, check=True)
            target = workdir / f"setup{rep}"
            target.mkdir()
            t0 = process_time()
            write_inputs(workload, seed, target)
            totals.append(float(child.stdout.strip()) + process_time() - t0)
            probes.append(host_probe())
            shutil.rmtree(target)
    finally:
        pick_cpu.restore()
    measured = statistics.median(totals)
    return measured * REF_PROBE_S / statistics.median(probes), measured


def tail(samples):
    """Latency at the highest percentile with 10 samples beyond it: the 11th
    largest sample, and that percentile."""
    n = len(samples)
    return sorted(samples)[n - 11], 100.0 * (n - 11) / (n - 1)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable (not a git checkout)"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        # The ceiling keeps git from reporting an enclosing repository.
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": commit,
    }


def layer_metrics(res: dict, traced: list, untraced_pass_s: float, traced_pass_s: float) -> dict:
    """Per-layer totals per traced pass; ``traced`` holds the traced passes."""
    inc, own, calls, notes = res["inclusive"], res["self"], res["calls"], res["notes"]

    def per(x):
        return x / len(traced)

    factor_notes = [(name, note) for name in tr.FACTOR_FUNCTIONS for note in notes[f"linalg.{name}"]]
    factor_calls = sum(calls[f"linalg.{name}"] for name in tr.FACTOR_FUNCTIONS)
    validate_calls = calls["frameworks.validate_framework"]
    frameworks = len(set(notes["frameworks.validate_framework"]))
    operators = len({digest for _, (_, digest) in factor_notes})
    self_sum = sum(res["module_self"].values())
    return {
        "frameworks.validate_s": per(inc["frameworks.validate_framework"]),
        "frameworks.validate_calls": per(validate_calls),
        "frameworks.validate_per_framework": per(validate_calls) / frameworks if frameworks else 0.0,
        "frameworks.supercell_s": per(inc["frameworks.supercell"]),
        "rigidity.build_self_s": per(own["rigidity.build_matrices"]),
        "rigidity.build_calls": per(calls["rigidity.build_matrices"]),
        "rigidity.operator_calls": per(calls["rigidity.restricted_operator"]),
        "rigidity.counts_self_s": per(own["rigidity.analyze_counts"]),
        "linalg.factor_s": per(sum(inc[f"linalg.{name}"] for name in tr.FACTOR_FUNCTIONS)),
        "linalg.factor_calls": per(factor_calls),
        "linalg.factor_per_operator": per(factor_calls) / operators if operators else 0.0,
        "linalg.svd_gflop": per(sum(tr.svd_flops(name, shape) for name, (shape, _) in factor_notes)) / 1e9,
        "linalg.max_factor_dim": max((max(shape) for _, (shape, _) in factor_notes), default=0),
        "linalg.intersection_s": per(inc["linalg.subspace_intersection"]),
        "symmetry.resolve_s": per(inc["symmetry.resolve_symmetry"]),
        "symmetry.reps_s": per(inc["symmetry.representation_matrices"]),
        "symmetry.counts_self_s": per(own["symmetry.symmetry_counts"]),
        "symmetry.characters_self_s": per(own["symmetry.character_row"]),
        "symmetry.equation_s": per(inc["symmetry.verify_symmetry_equation"]),
        "fileio.parse_self_s": per(sum(own[f"fileio.{name}"] for name in tr.PARSE_FUNCTIONS)),
        "fileio.analyze_self_s": per(own["fileio.analyze_framework"]),
        "fileio.emit_s": per(inc["fileio.emit_report"]),
        "fileio.report_bytes": per(sum(notes["fileio.emit_report"])),
        "catalog.builtin_s": per(inc["catalog.builtin_framework"]),
        "catalog.builtin_calls": per(calls["catalog.builtin_framework"]),
        "svg.render_s": per(inc["svg.render_svg"]),
        **{f"{mod}.self_s": per(res["module_self"][mod]) for mod in tr.MODULES},
        "trace.pass_s": traced_pass_s,
        "trace.untraced_pass_s": untraced_pass_s,
        "trace.overhead_s": traced_pass_s - untraced_pass_s,
        "trace.root_s": per(res["root_s"]),
        "trace.self_sum_s": per(self_sum),
        "trace.wrapper_s": per(res["wrapper_s"]),
        "trace.root_share": res["root_s"] / sum(map(pass_time, traced)),
        "trace.spans": per(res["spans"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crystalflex" / "__init__.py").is_file():
        sys.stderr.write(f"error: no crystalflex sources under {SRC}; run from a full checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):     # still in use by another run
            workdir.parent.rmdir()


def run_workload(args, workdir: Path) -> int:
    setup_s, setup_measured_s = time_setup(args.workload, args.seed, workdir) if not args.trace else (None, None)
    sys.path.insert(0, str(SRC))
    import crystalflex.cli as cli

    table = ref.load_table()
    files = write_inputs(args.workload, args.seed, workdir)
    requests = build_requests(args.workload, files, table, workdir)
    rng = np.random.default_rng(args.seed)
    env = environment()

    print(f"crystalflex benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} requests/pass={len(requests)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    run_pass(cli, requests, [0])        # warm-up: lazy imports, BLAS start-up
    if args.trace:
        untraced = measure(cli, requests, rng, args.seconds / 2, 1)
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced = measure(cli, requests, rng, args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
    else:
        passes = measure(cli, requests, rng, args.seconds, MIN_PASSES)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = [r for p in passes for r in p]
    failures = check_outputs(requests, results)
    for label, error in failures[:10]:
        print(f"FAILED {label}: {error}")
    pass_times = [pass_time(p) for p in passes]
    print(f"attempted={len(results)} failed={len(failures)} "
          f"error_rate={len(failures) / len(results):.4g} passes={len(passes)}")

    if args.trace:
        untraced_s = typical_pass(scaled_latencies(untraced))
        traced_s = typical_pass(scaled_latencies(traced))
        res = tr.analyse(tracer)
        metrics = layer_metrics(res, traced, untraced_s, traced_s)
        units = {name: unit for name, unit, _ in PER_LAYER}
        print(f"tracing: {len(traced)} traced pass(es), overhead {traced_s - untraced_s:.4f} s per pass; "
              f"root spans {metrics['trace.root_s']:.4f} s = module self {metrics['trace.self_sum_s']:.4f} s"
              f" + wrappers {metrics['trace.wrapper_s']:.4f} s")
        for name, _, _ in PER_LAYER:
            print(f"  {name:36s} {metrics[name]:.6g} {units[name]}")
    else:
        scaled = scaled_latencies(passes)
        per_request = [statistics.median(scaled[idx]) for idx in range(len(requests))]
        latencies = [t for ts in scaled.values() for t in ts]
        tail_s, tail_pct = tail(latencies)
        tail_label = next(requests[idx].label for idx, ts in scaled.items() if tail_s in ts)
        pass_s = typical_pass(scaled)
        probes = [r[3] for r in results]
        metrics = {
            "pass_s": pass_s,
            "req_p50_s": statistics.median(per_request),
            "req_tail_s": tail_s,
            "rps": len(requests) / pass_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        print("per-input median latency in s, not gated: scaled CPU (pass_s is their sum, req_p50_s "
              "their median), CPU as measured, wall:")
        cpu, wall = {}, {}
        for idx, t, _, _, w in results:
            cpu.setdefault(idx, []).append(t)
            wall.setdefault(idx, []).append(w)
        for idx, (req, t) in enumerate(zip(requests, per_request)):
            print(f"  {req.label:44s} {t:.4f} {statistics.median(cpu[idx]):.4f} "
                  f"{statistics.median(wall[idx]):.4f}")
        units = {name: unit for name, unit, _ in END_TO_END}
        for name, _, _ in END_TO_END:
            print(f"  {name:12s} {metrics[name]:.6g} {units[name]}")
        print(f"  req_tail_s is p{tail_pct:.1f} of all {len(latencies)} scaled latencies over {len(passes)} "
              f"passes, with 10 beyond it ({tail_label}); their median is "
              f"{statistics.median(latencies):.6g} s (not gated)")
        print(f"  host probe: median {statistics.median(probes) * 1e3:.3f} ms, "
              f"{min(probes) * 1e3:.3f}-{max(probes) * 1e3:.3f} ms (reference {REF_PROBE_S * 1e3:g} ms); "
              f"set-up CPU as measured {setup_measured_s:.4f} s")
        print("  whole-pass wall times (s): " + " ".join(f"{t:.4f}" for t in pass_times))

    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter (so peak RSS is per workload)."""
    rows = {}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            return child.returncode
        rows[workload] = json.loads(child.stdout.strip().splitlines()[-1])
    names = [name for name, _, _ in (PER_LAYER if args.trace else END_TO_END)]
    print(f"{'metric':36s} " + " ".join(f"{w:>16s}" for w in rows))
    for name in names + ["error_rate"]:
        cells = []
        for row in rows.values():
            value = row["failed"] / row["attempted"] if name == "error_rate" else row["metrics"][name]["value"]
            cells.append(f"{value:16.6g}")
        print(f"{name:36s} " + " ".join(cells))
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
