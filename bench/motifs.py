"""Base motifs and the seeded input generator.

The three base motifs restate the geometry of the program's builtins
(``square_grid``, ``kagome``, ``hexahedron``) from their definitions, in the
same vertex and edge order, so the benchmark can build inputs and check
outputs without calling the program.  Every coordinate is written through a
``sqrt``/``rational`` pair: floats for the benchmark, sympy for the exact
oracle in the tests.

``generate`` writes an n x ... x n supercell as a framework file.  The seed
permutes vertex and edge order, flips edge orientation, shifts each edge's
cell pair by a common lattice vector and translates the whole motif; a
declared symmetry's translation is conjugated to match.  None of this
changes a count, so one reference table serves every seed.
"""

from __future__ import annotations

import itertools
import json
import math
import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Motif:
    """Periodic motif: period columns, positions, edges and one rotation.

    ``edges`` holds (from_vertex, from_cell, to_vertex, to_cell) tuples.  The
    rotation maps x to ``linear @ (x - centre) + centre``.
    """

    name: str
    dimension: int
    periods: tuple
    positions: tuple
    edges: tuple
    symmetry_name: str
    linear: tuple
    centre: tuple


def _rotation2(cos, sin):
    return ((cos, -sin), (sin, cos))


def base_motifs(sqrt=math.sqrt, rational=lambda a, b: a / b) -> dict:
    """The three base motifs, with scalars built from ``sqrt`` and ``rational``."""
    half = rational(1, 2)
    s3 = sqrt(3)
    zero, one = rational(0, 1), rational(1, 1)
    third_turn = _rotation2(-half, s3 * half)

    square = Motif(
        name="square_grid", dimension=2,
        periods=((one, zero), (zero, one)),
        positions=((zero, zero),),
        edges=((0, (0, 0), 0, (1, 0)), (0, (0, 0), 0, (0, 1))),
        symmetry_name="r4", linear=_rotation2(zero, one), centre=(zero, zero),
    )
    kagome = Motif(
        name="kagome", dimension=2,
        periods=((one, zero), (half, s3 * half)),
        positions=((zero, zero), (half, zero), (rational(1, 4), s3 * rational(1, 4))),
        edges=(
            (0, (0, 0), 1, (0, 0)),
            (1, (0, 0), 2, (0, 0)),
            (0, (0, 0), 2, (0, 0)),
            (0, (0, 0), 1, (-1, 0)),
            (1, (0, 0), 2, (1, -1)),
            (2, (0, 0), 0, (0, 1)),
        ),
        symmetry_name="r3", linear=third_turn, centre=(rational(1, 4), s3 * rational(1, 12)),
    )
    h = sqrt(2) / sqrt(3)
    (c00, c01), (c10, c11) = third_turn
    hexahedron = Motif(
        name="hexahedron", dimension=3,
        periods=((one, zero, zero), (half, s3 * half, zero), (zero, zero, 2 * h)),
        positions=((zero, zero, zero), (half, s3 * rational(1, 6), -h)),
        edges=(
            (0, (0, 0, 0), 0, (1, 0, 0)),
            (0, (0, 0, 0), 0, (0, 1, 0)),
            (0, (1, 0, 0), 0, (0, 1, 0)),
            (1, (0, 0, 0), 0, (0, 0, 0)),
            (1, (0, 0, 0), 0, (1, 0, 0)),
            (1, (0, 0, 0), 0, (0, 1, 0)),
            (1, (0, 0, 1), 0, (0, 0, 0)),
            (1, (0, 0, 1), 0, (1, 0, 0)),
            (1, (0, 0, 1), 0, (0, 1, 0)),
        ),
        symmetry_name="r3",
        linear=((c00, c01, zero), (c10, c11, zero), (zero, zero, one)),
        centre=(half, s3 * rational(1, 6), zero),
    )
    return {m.name: m for m in (square, kagome, hexahedron)}


MOTIFS = base_motifs()


def supercell_motif(motif: Motif, n: int) -> Motif:
    """The same geometry over the lattice Z diag(n, ..., n), in residue order."""
    d = motif.dimension
    residues = list(itertools.product(range(n), repeat=d))
    index = {(v, r): i for i, (v, r) in
             enumerate(itertools.product(range(len(motif.positions)), residues))}
    periods = tuple(tuple(n * x for x in col) for col in motif.periods)

    def place(v, cell):
        return tuple(motif.positions[v][i] + sum(cell[j] * motif.periods[j][i] for j in range(d))
                     for i in range(d))

    def split(cell):
        residue = tuple(c % n for c in cell)
        return residue, tuple((c - r) // n for c, r in zip(cell, residue))

    positions = tuple(place(v, r) for v, r in itertools.product(range(len(motif.positions)), residues))
    edges = []
    for fv, fc, tv, tc in motif.edges:
        for r in residues:
            f_res, f_cell = split(tuple(a + b for a, b in zip(fc, r)))
            t_res, t_cell = split(tuple(a + b for a, b in zip(tc, r)))
            edges.append((index[(fv, f_res)], f_cell, index[(tv, t_res)], t_cell))
    return Motif(motif.name, d, periods, positions, tuple(edges),
                 motif.symmetry_name, motif.linear, motif.centre)


def generate(name: str, n: int, seed: int, with_symmetry: bool) -> str:
    """Framework file text for the n-fold supercell of a base motif."""
    motif = supercell_motif(MOTIFS[name], n)
    d = motif.dimension
    rng = np.random.default_rng([seed, zlib.crc32(name.encode()), n])
    z = np.array(motif.periods, dtype=float).T
    nv, ne = len(motif.positions), len(motif.edges)

    shift = rng.uniform(-0.5, 0.5, size=d)
    positions = np.array(motif.positions, dtype=float) + shift
    order = rng.permutation(nv)             # order[k] = old index of new vertex k
    new_index = np.empty(nv, dtype=int)
    new_index[order] = np.arange(nv)
    ids = [f"v{k}" for k in range(nv)]

    edges = []
    for e in rng.permutation(ne):
        fv, fc, tv, tc = motif.edges[e]
        if rng.random() < 0.5:
            fv, fc, tv, tc = tv, tc, fv, fc
        common = rng.integers(-1, 2, size=d)
        edges.append({
            "from": {"v": ids[new_index[fv]], "cell": [int(c) for c in np.add(fc, common)]},
            "to": {"v": ids[new_index[tv]], "cell": [int(c) for c in np.add(tc, common)]},
        })

    doc = {
        "format": 1,
        "dimension": d,
        "period_vectors": [z[:, j].tolist() for j in range(d)],
        "tolerance": 1e-9,
        "vertices": [{"id": ids[k], "position": positions[order[k]].tolist()} for k in range(nv)],
        "edges": edges,
    }
    if with_symmetry:
        b = np.array(motif.linear, dtype=float)
        centre = np.array(motif.centre, dtype=float) + shift
        doc["symmetries"] = [{
            "name": motif.symmetry_name,
            "linear": b.tolist(),
            "translation": (centre - b @ centre).tolist(),
        }]
    return json.dumps(doc) + "\n"
