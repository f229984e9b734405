"""Independent reference: counts and output checks built without crystalflex.

Everything here reads framework files with ``json`` and assembles the bar
rows with plain arithmetic, so a defect in the program's parser, assembly
or rank decisions cannot hide in the check.  The same assembly runs on
floats (numpy ranks) and on sympy scalars (exact ranks, in the tests).

Coordinates on the operator's domain are (u, A): one velocity per vertex
class, flattened row by row, then the d x d distortion-velocity matrix A,
flattened row by row.  The copy of vertex v in cell k moves with
u_v - A Z k, so the row of bar e is

    <b_e, u_from - u_to + A Z q_e>,   b_e = p_from + Z c_from - p_to - Z c_to,

with q_e = c_to - c_from.

Run ``python3 bench/reference.py`` to recompute ``reference_counts.json``.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from motifs import MOTIFS, Motif, generate  # noqa: E402

TABLE_PATH = HERE / "reference_counts.json"
SPACES = ("strict", "affine", "symmetric", "skew", "diagonal", "custom")
CUSTOM_SPACES = {
    2: [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
    3: [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
}
RANK_TOL = 1e-8
CHECK_TOL = 1e-6


class CheckError(Exception):
    """An output disagrees with the reference."""


@dataclass(frozen=True)
class Geometry:
    """Motif data as plain lists: periods are columns of Z."""

    dimension: int
    periods: list
    positions: list
    edges: list
    symmetry: tuple = None     # (name, linear, translation) or None


def geometry_from_motif(motif: Motif, with_symmetry: bool = False) -> Geometry:
    symmetry = None
    if with_symmetry:
        b, c = motif.linear, motif.centre
        d = motif.dimension
        translation = [c[i] - sum(b[i][j] * c[j] for j in range(d)) for i in range(d)]
        symmetry = (motif.symmetry_name, [list(r) for r in b], translation)
    return Geometry(motif.dimension, [list(p) for p in motif.periods],
                    [list(p) for p in motif.positions], list(motif.edges), symmetry)


def geometry_from_file_text(text: str) -> Geometry:
    """Read a framework file (Cartesian positions) without the program."""
    doc = json.loads(text)
    d = doc["dimension"]
    ids = {}
    positions = []
    for k, vertex in enumerate(doc["vertices"]):
        ids[vertex["id"]] = k
        positions.append([float(x) for x in vertex["position"]])
    edges = []
    for e in doc["edges"]:
        ends = [(ids[e[s]["v"]], tuple(e[s].get("cell", [0] * d))) for s in ("from", "to")]
        edges.append((ends[0][0], ends[0][1], ends[1][0], ends[1][1]))
    symmetry = None
    if doc.get("symmetries"):
        g = doc["symmetries"][0]
        symmetry = (g["name"], g["linear"], g["translation"])
    return Geometry(d, doc["period_vectors"], positions, edges, symmetry)


def space_basis(label: str, d: int) -> list:
    """Basis matrices (lists of rows) of the admissible distortion space.

    Integer entries, so the exact oracle stays exact; the program normalises
    its own bases, which changes coordinates but not the space."""
    def unit(i, j):
        m = [[0] * d for _ in range(d)]
        m[i][j] = 1
        return m

    if label == "strict":
        return []
    if label == "affine":
        return [unit(i, j) for i in range(d) for j in range(d)]
    if label == "diagonal":
        return [unit(i, i) for i in range(d)]
    if label in ("symmetric", "skew"):
        sign = 1 if label == "symmetric" else -1
        out = [unit(i, i) for i in range(d)] if label == "symmetric" else []
        for i, j in itertools.combinations(range(d), 2):
            m = unit(i, j)
            m[j][i] = sign
            out.append(m)
        return out
    if label == "custom":
        return CUSTOM_SPACES[d]
    raise ValueError(f"unknown space {label!r}")


def _cell_point(geo: Geometry, v: int, cell) -> list:
    d = geo.dimension
    return [geo.positions[v][i] + sum(cell[j] * geo.periods[j][i] for j in range(d))
            for i in range(d)]


def bar_data(geo: Geometry):
    """Per edge: bar vector b_e and the lattice vector Z q_e."""
    d = geo.dimension
    out = []
    for fv, fc, tv, tc in geo.edges:
        p, q = _cell_point(geo, fv, fc), _cell_point(geo, tv, tc)
        bar = [p[i] - q[i] for i in range(d)]
        zq = [sum((tc[j] - fc[j]) * geo.periods[j][i] for j in range(d)) for i in range(d)]
        out.append((bar, zq))
    return out


def operator_rows(geo: Geometry, basis: list, zero=0.0) -> list:
    """Rows of the rigidity operator on (u, coordinates in ``basis``)."""
    d, n = geo.dimension, len(geo.positions)
    rows = []
    for (fv, _, tv, _), (bar, zq) in zip(geo.edges, bar_data(geo)):
        row = [zero] * (d * n + len(basis))
        for i in range(d):
            row[d * fv + i] = row[d * fv + i] + bar[i]
            row[d * tv + i] = row[d * tv + i] - bar[i]
        for k, a in enumerate(basis):
            row[d * n + k] = sum(bar[i] * a[i][j] * zq[j] for i in range(d) for j in range(d))
        rows.append(row)
    return rows


def numeric_rank(mat) -> int:
    a = np.asarray(mat, dtype=float)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > RANK_TOL * max(1.0, s[0]) * max(a.shape)))


def null_basis(mat) -> np.ndarray:
    """Orthonormal null-space basis (columns) of a nonempty float matrix."""
    a = np.asarray(mat, dtype=float)
    _, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > RANK_TOL * max(1.0, s[0]) * max(a.shape)))
    return vt[rank:].T


def skew_dimension_in(basis: list, d: int, rank=numeric_rank) -> int:
    """dim(space ∩ skew matrices): the admissible rotations."""
    flat = [[x for row in m for x in row] for m in basis]
    skew = [[x for row in m for x in row] for m in space_basis("skew", d)]
    if not flat or not skew:
        return 0
    return len(flat) + len(skew) - rank(flat + skew)


def mode_counts(geo: Geometry, label: str, rank=numeric_rank, zero=0.0) -> dict:
    """m, s, f of one mode; ``rank`` works on a list of rows."""
    d, n = geo.dimension, len(geo.positions)
    basis = space_basis(label, d)
    r = rank(operator_rows(geo, basis, zero))
    f = d + skew_dimension_in(basis, d, rank)
    flex = d * n + len(basis) - r
    return {"m": flex - f, "s": len(geo.edges) - r, "f": f}


# ---- symmetry ---------------------------------------------------------------

def symmetry_action(geo: Geometry):
    """Integer data of the declared element: vertex map, offsets, edge map.

    Found by matching fractional coordinates in floating point, also for
    exact geometry; the matrices built from it keep the geometry's scalars.
    """
    _, linear, translation = geo.symmetry
    b = np.array(linear, dtype=float)
    c = np.array(translation, dtype=float)
    z = np.array(geo.periods, dtype=float).T
    zinv = np.linalg.inv(z)
    lattice = zinv @ b @ z
    m = np.round(lattice).astype(int)
    if np.max(np.abs(lattice - m)) > 1e-6:
        raise CheckError("declared element does not preserve the lattice")
    frac = np.array(geo.positions, dtype=float) @ zinv.T
    images = (np.array(geo.positions, dtype=float) @ b.T + c) @ zinv.T
    diff = images[:, None, :] - frac[None, :, :]
    hit = np.all(np.abs(diff - np.round(diff)) < 1e-6, axis=2)
    if not np.all(hit.sum(axis=1) == 1):
        raise CheckError("declared element does not map vertices to vertices")
    vertex_map = hit.argmax(axis=1)
    offsets = np.round(diff[np.arange(len(vertex_map)), vertex_map]).astype(int)

    def key(a, ca, b_, cb):
        fwd = (a, b_, tuple(np.subtract(cb, ca)))
        rev = (b_, a, tuple(np.subtract(ca, cb)))
        return min(fwd, rev)

    classes = {key(*e): k for k, e in enumerate(geo.edges)}
    edge_map = []
    for fv, fc, tv, tc in geo.edges:
        image = key(int(vertex_map[fv]), offsets[fv] + m @ np.array(fc),
                    int(vertex_map[tv]), offsets[tv] + m @ np.array(tc))
        if image not in classes:
            raise CheckError("declared element does not map edges to edges")
        edge_map.append(classes[image])
    return [int(v) for v in vertex_map], offsets.tolist(), edge_map


def domain_action(geo: Geometry, vertex_map, offsets, linear, zero=0.0) -> list:
    """Matrix (list of rows) of the element on (u, A) coordinates.

    A velocity field w maps to g.w with (g.w)(g x) = B w(x).  For
    w(v, k) = u_v - A Z k this gives A' = B A B^T and
    u'_{g.v} = B u_v + A' Z offset_v.
    """
    d, n = geo.dimension, len(geo.positions)
    size = d * n + d * d
    cols = []
    for j in range(size):
        x = [zero] * size
        x[j] = zero + 1
        u = [x[d * v:d * v + d] for v in range(n)]
        a = [x[d * n + d * i:d * n + d * i + d] for i in range(d)]
        a2 = [[sum(linear[i][k] * a[k][l] * linear[jj][l] for k in range(d) for l in range(d))
               for jj in range(d)] for i in range(d)]
        out = [zero] * size
        for v in range(n):
            g = vertex_map[v]
            zoff = [sum(offsets[v][k] * geo.periods[k][i] for k in range(d)) for i in range(d)]
            for i in range(d):
                out[d * g + i] = (sum(linear[i][k] * u[v][k] for k in range(d))
                                  + sum(a2[i][k] * zoff[k] for k in range(d)))
        for i in range(d):
            for k in range(d):
                out[d * n + d * i + k] = a2[i][k]
        cols.append(out)
    return [[cols[j][i] for j in range(size)] for i in range(size)]


def rigid_vectors(geo: Geometry, zero=0.0) -> list:
    """Translations and rotations as (u, A) vectors (A = -S for rotation S)."""
    d, n = geo.dimension, len(geo.positions)
    out = []
    for i in range(d):
        out.append([zero + (1 if k % d == i and k < d * n else 0) for k in range(d * n + d * d)])
    for s in space_basis("skew", d):
        u = [sum(s[i][k] * geo.positions[v][k] for k in range(d)) for v in range(n) for i in range(d)]
        out.append(u + [-x for row in s for x in row])
    return out


def edge_orbits(edge_map) -> list:
    seen, orbits = set(), []
    for start in range(len(edge_map)):
        if start in seen:
            continue
        orbit, e = [], start
        while e not in seen:
            seen.add(e)
            orbit.append(e)
            e = edge_map[e]
        orbits.append(orbit)
    return orbits


def symmetry_counts(geo: Geometry, rank=numeric_rank, nullspace=null_basis, zero=0.0) -> dict:
    """m_g, s_g, f_g, e_g of the declared element on the full (affine) domain.

    With the numpy defaults the arrays hold floats; with sympy ``rank`` and
    ``nullspace`` (and a sympy ``zero``) they hold exact object entries.
    """
    vertex_map, offsets, edge_map = symmetry_action(geo)
    d, n = geo.dimension, len(geo.positions)
    size = d * n + d * d
    act = np.array(domain_action(geo, vertex_map, offsets, geo.symmetry[1], zero))
    fixed = nullspace(act - np.eye(size, dtype=int))
    op = np.array(operator_rows(geo, space_basis("affine", d), zero))
    rigid = np.array(rigid_vectors(geo, zero)).T
    k, r = fixed.shape[1], rigid.shape[1]
    f = r + k - rank(np.hstack([rigid, fixed]))
    m = k - rank(op @ fixed) - f
    orbits = edge_orbits(edge_map)
    indicator = np.zeros((len(edge_map), len(orbits)), dtype=int)
    for j, orbit in enumerate(orbits):
        indicator[orbit, j] = 1
    s = len(orbits) - rank(indicator.T @ op @ fixed)
    return {"m": m, "s": s, "f": f, "e": len(orbits)}


# ---- the reference table ----------------------------------------------------

def table_key(name: str, n: int) -> str:
    return f"{name}:{n}"


TABLE_ENTRIES = {
    # key -> (modes, with symmetry)
    **{table_key("kagome", n): (("strict", "affine"), True) for n in (4, 6, 8)},
    table_key("hexahedron", 3): (("strict", "affine"), True),
    table_key("square_grid", 8): (("strict", "affine"), True),
    **{table_key(name, n): (SPACES, True) for name in MOTIFS for n in (1, 2)},
}


def compute_entry(name: str, n: int, seed: int = 0) -> dict:
    modes, with_symmetry = TABLE_ENTRIES[table_key(name, n)]
    geo = geometry_from_file_text(generate(name, n, seed, with_symmetry))
    entry = {"modes": {label: mode_counts(geo, label) for label in modes}}
    if with_symmetry:
        entry["symmetry"] = {geo.symmetry[0]: symmetry_counts(geo)}
    return entry


def load_table() -> dict:
    return json.loads(TABLE_PATH.read_text())


# ---- output checks ----------------------------------------------------------

def _close(value, limit, what):
    if not value <= limit:
        raise CheckError(f"{what}: residual {value:.3g} exceeds {limit:.3g}")


def check_counts(got: dict, expected: dict, what: str):
    for k, v in expected.items():
        if got.get(k) != v:
            raise CheckError(f"{what}: {k}={got.get(k)} but the reference says {v}")


def check_flexes(geo: Geometry, label: str, flexes: list, expected_count: int):
    """Every reported flex solves the bar rows, lies in the space, and the
    set is independent with the reference size."""
    d = geo.dimension
    if len(flexes) != expected_count:
        raise CheckError(f"{label}: {len(flexes)} flexes reported, reference has {expected_count}")
    bars = bar_data(geo)
    b = np.array([bar for bar, _ in bars]).reshape(-1, d)
    zq = np.array([z for _, z in bars]).reshape(-1, d)
    fv = np.array([e[0] for e in geo.edges], dtype=int)
    tv = np.array([e[2] for e in geo.edges], dtype=int)
    space = np.array(space_basis(label, d), dtype=float).reshape(-1, d * d)
    vectors = []
    for k, flex in enumerate(flexes):
        u = np.array(flex["vertex_velocities"], dtype=float).reshape(-1, d)
        a = np.array(flex["distortion"], dtype=float).reshape(d, d)
        rows = np.einsum("ei,ei->e", b, u[fv] - u[tv] + zq @ a.T)
        scale = max(1.0, float(np.max(np.abs(b))) * (1.0 + float(np.max(np.abs(zq)))))
        _close(float(np.max(np.abs(rows), initial=0.0)), CHECK_TOL * scale, f"{label} flex {k} bar rows")
        flat = a.reshape(-1)
        if len(space):
            coords, *_ = np.linalg.lstsq(space.T, flat, rcond=None)
            outside = float(np.max(np.abs(space.T @ coords - flat)))
        else:
            outside = float(np.max(np.abs(flat)))
        _close(outside, CHECK_TOL, f"{label} flex {k} distortion outside the space")
        vectors.append(np.concatenate([u.reshape(-1), flat]))
    if vectors and numeric_rank(np.array(vectors)) != len(vectors):
        raise CheckError(f"{label}: reported flexes are linearly dependent")


def check_stresses(geo: Geometry, label: str, stresses: list, expected_count: int):
    """Every reported self-stress balances at each vertex and against the space."""
    d, n = geo.dimension, len(geo.positions)
    if len(stresses) != expected_count:
        raise CheckError(f"{label}: {len(stresses)} stresses reported, reference has {expected_count}")
    if not stresses:
        return
    op = np.array(operator_rows(geo, space_basis(label, d)), dtype=float).reshape(len(geo.edges), -1)
    sigma = np.array(stresses, dtype=float)
    _close(float(np.max(np.abs(sigma @ op))), CHECK_TOL * max(1.0, float(np.max(np.abs(op)))),
           f"{label} stresses")
    if numeric_rank(sigma) != len(stresses):
        raise CheckError(f"{label}: reported stresses are linearly dependent")


if __name__ == "__main__":
    table = {}
    for name, n in sorted((k.split(":")[0], int(k.split(":")[1])) for k in TABLE_ENTRIES):
        table[table_key(name, n)] = compute_entry(name, n)
        print(table_key(name, n), table[table_key(name, n)], flush=True)
    TABLE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
