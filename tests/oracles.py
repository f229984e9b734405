"""Independent oracles for the test suite.

Exact-arithmetic rank computations rebuild the builtin motifs from scratch
in sympy (no floats, no shared code with the package), so the numeric rank
decisions are checked against symbolic ground truth.  The torus oracle
rebuilds the strict rigidity matrix from placed one-cell geometry with
endpoints identified by fractional-coordinate matching, an entirely
different code path from the motif assembly.  ``dense_factorization``
reads a matrix's rank, kernel and cokernel off its own full SVD, and
``dense_counts`` the counts of a space off that of the whole restricted
operator, the path that the bordered factorization of the strict operator
replaced.
``translation_tables`` and ``orbit_tables`` build a translation group's
permutation of every point by every element and read its orbits off them,
where the package composes its generators' maps over a few points.
"""

import itertools
from typing import NamedTuple

import numpy as np
import sympy as sp

import crystalflex as cf
from crystalflex.linalg import BlockSVD, factorize_bordered, full_svd


def _exact_matrices(positions, period_columns, edges, d):
    z = sp.Matrix.hstack(*[sp.Matrix(c) for c in period_columns])
    n, m = len(positions), len(edges)

    def place(v, cell):
        return sp.Matrix(positions[v]) + z * sp.Matrix([sp.Integer(c) for c in cell])

    strict = sp.zeros(m, d * n)
    affine = sp.zeros(m, d * d)
    for row, (fv, fc, tv, tc) in enumerate(edges):
        vec = place(fv, fc) - place(tv, tc)
        if fv != tv:
            strict[row, d * fv:d * fv + d] = vec.T
            strict[row, d * tv:d * tv + d] = -vec.T
        offset = [tc[j] - fc[j] for j in range(d)]
        for j in range(d):
            affine[row, d * j:d * j + d] = (offset[j] * vec).T
    return strict, strict.row_join(affine)


def exact_rank_profile(name):
    """(rank R, rank [R X]) of a builtin, computed symbolically."""
    half = sp.Rational(1, 2)
    s3 = sp.sqrt(3)
    if name == "square_grid":
        positions = [[0, 0]]
        periods = [[1, 0], [0, 1]]
        edges = [(0, (0, 0), 0, (1, 0)), (0, (0, 0), 0, (0, 1))]
        d = 2
    elif name == "kagome":
        positions = [[0, 0], [half, 0], [sp.Rational(1, 4), s3 / 4]]
        periods = [[1, 0], [half, s3 / 2]]
        edges = [
            (0, (0, 0), 1, (0, 0)),
            (1, (0, 0), 2, (0, 0)),
            (0, (0, 0), 2, (0, 0)),
            (0, (0, 0), 1, (-1, 0)),
            (1, (0, 0), 2, (1, -1)),
            (2, (0, 0), 0, (0, 1)),
        ]
        d = 2
    elif name == "hexahedron":
        h = sp.sqrt(2) / sp.sqrt(3)
        positions = [[0, 0, 0], [half, s3 / 6, -h]]
        periods = [[1, 0, 0], [half, s3 / 2, 0], [0, 0, 2 * h]]
        edges = [
            (0, (0, 0, 0), 0, (1, 0, 0)),
            (0, (0, 0, 0), 0, (0, 1, 0)),
            (0, (1, 0, 0), 0, (0, 1, 0)),
            (1, (0, 0, 0), 0, (0, 0, 0)),
            (1, (0, 0, 0), 0, (1, 0, 0)),
            (1, (0, 0, 0), 0, (0, 1, 0)),
            (1, (0, 0, 1), 0, (0, 0, 0)),
            (1, (0, 0, 1), 0, (1, 0, 0)),
            (1, (0, 0, 1), 0, (0, 1, 0)),
        ]
        d = 3
    else:
        raise ValueError(name)
    strict, full = _exact_matrices(positions, periods, edges, d)
    return strict.rank(), full.rank()


def torus_rigidity_matrix(fw):
    """Strict matrix rebuilt from one placed cell with wrapped endpoints.

    Each motif edge is placed with its from-endpoint shifted into the base
    cell; both placed endpoints are classified back to vertex classes by
    fractional-coordinate matching.  Row entries come from the placed bar
    vector, accumulated (so a bar joining a class to itself cancels).
    """
    d, n = fw.dimension, fw.vertex_count
    base_frac = fw.lattice.fractional(fw.positions)

    def classify(position):
        f = fw.lattice.fractional(position)
        for j in range(n):
            diff = f - base_frac[j]
            if np.max(np.abs(diff - np.round(diff))) < 1e-9:
                return j
        raise AssertionError("placed point matches no vertex class")

    rows = []
    for e in fw.edges:
        shift = tuple(-c for c in e.from_cell)
        p = cf.point_of(fw, e.from_vertex, np.add(e.from_cell, shift))
        q = cf.point_of(fw, e.to_vertex, np.add(e.to_cell, shift))
        bar = p - q
        row = np.zeros(d * n)
        cp, cq = classify(p), classify(q)
        row[d * cp:d * cp + d] += bar
        row[d * cq:d * cq + d] -= bar
        rows.append(row)
    return np.array(rows)


def match_rows_up_to_sign(a, b, tol=1e-12):
    """True when the rows of a and b agree bijectively up to sign."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    unused = list(range(b.shape[0]))
    for row in a:
        hit = None
        for j in unused:
            if np.max(np.abs(row - b[j])) <= tol or np.max(np.abs(row + b[j])) <= tol:
                hit = j
                break
        if hit is None:
            return False
        unused.remove(hit)
    return True


def direct_row_values(fw, u, a):
    """Row-by-row evaluation of the affine operator straight from geometry."""
    z = fw.lattice.matrix
    values = []
    for e in fw.edges:
        vector = cf.point_of(fw, e.from_vertex, e.from_cell) - cf.point_of(fw, e.to_vertex, e.to_cell)
        du = np.zeros(fw.dimension) if e.from_vertex == e.to_vertex else u[e.from_vertex] - u[e.to_vertex]
        values.append(float(vector @ (du + a @ z @ e.offset)))
    return np.array(values)


def random_framework(rng, d=2, n_vertices=3, n_edges=5):
    """Small well-conditioned framework with distinct classes, for properties."""
    while True:
        z = np.eye(d) + 0.3 * rng.uniform(-1.0, 1.0, (d, d))
        if abs(np.linalg.det(z)) > 0.4:
            break
    while True:
        frac = rng.uniform(0.05, 0.95, (n_vertices, d))
        ok = True
        for i, j in itertools.combinations(range(n_vertices), 2):
            diff = frac[i] - frac[j]
            if np.max(np.abs(diff - np.round(diff))) < 0.05:
                ok = False
        if ok:
            break
    vertices = [cf.MotifVertex(z @ f) for f in frac]

    edges, keys = [], set()
    attempts = 0
    while len(edges) < n_edges and attempts < 1000:
        attempts += 1
        fv, tv = rng.integers(0, n_vertices, 2)
        offset = rng.integers(-1, 2, d)
        if fv == tv and not offset.any():
            continue
        e = cf.MotifEdge(int(fv), (0,) * d, int(tv), tuple(int(x) for x in offset))
        if e.class_key() in keys:
            continue
        keys.add(e.class_key())
        edges.append(e)
    fw = cf.CrystalFramework(cf.PeriodLattice(z), vertices, edges)
    assert cf.validate_framework(fw) == []
    return fw


def scrambled_supercell(name, factors, rng, translate=True):
    """Builtin ``name`` over the supercell of ``factors`` (one multiplicity
    per axis, or one for all), respelled as the benchmark's generator does:
    its vertices permuted, its edges permuted, about half of them reversed
    and each translated by a random cell, and with ``translate`` the whole
    motif moved by a random vector, so the same geometry arrives in another
    order, orientation and place."""
    base = cf.builtin_framework(name)
    d = base.dimension
    big = cf.supercell(base, tuple(int(k) for k in np.broadcast_to(factors, d)))
    order = rng.permutation(big.vertex_count)       # order[k] is the old index of vertex k
    new_index = np.empty_like(order)
    new_index[order] = np.arange(big.vertex_count)
    move = rng.uniform(-0.5, 0.5, d) if translate else np.zeros(d)
    vertices = [cf.MotifVertex(big.vertices[k].position + move, big.vertices[k].name) for k in order]
    edges = []
    for k in rng.permutation(big.edge_count):
        e = big.edges[k].reversed() if rng.random() < 0.5 else big.edges[k]
        shift = rng.integers(-2, 3, d)
        edges.append(cf.MotifEdge(int(new_index[e.from_vertex]), np.add(e.from_cell, shift),
                                  int(new_index[e.to_vertex]), np.add(e.to_cell, shift)))
    return cf.CrystalFramework(big.lattice, vertices, edges, tolerance=big.tolerance)


def reference_supercell(fw, factors):
    """The per-copy loop that the array ``supercell`` replaced: (period
    matrix, vertices, edges) of the supercell, with one MotifEdge built per
    edge copy and each endpoint cell split into a residue, which looks up
    the vertex copy, and a supercell index."""
    n = np.asarray(factors, dtype=int).reshape(-1)
    residues = list(itertools.product(*(range(k) for k in n)))
    index = {(v, r): i for i, (v, r) in enumerate(itertools.product(range(fw.vertex_count), residues))}

    vertices = []
    for v, r in itertools.product(range(fw.vertex_count), residues):
        base = fw.vertices[v]
        suffix = ",".join(str(c) for c in r)
        name = f"{base.name}[{suffix}]" if base.name else None
        vertices.append(cf.MotifVertex(cf.point_of(fw, v, r), name))

    def split(cell):
        c = np.asarray(cell, dtype=int)
        residue = np.mod(c, n)
        return tuple(residue), tuple((c - residue) // n)

    edges = []
    for e in fw.edges:
        for r in residues:
            fr_res, fr_cell = split(np.add(e.from_cell, r))
            to_res, to_cell = split(np.add(e.to_cell, r))
            edges.append(cf.MotifEdge(index[(e.from_vertex, fr_res)], fr_cell,
                                      index[(e.to_vertex, to_res)], to_cell))
    return fw.lattice.matrix * n[np.newaxis, :], vertices, edges


def dense_factorization(mat, tol=cf.DEFAULT_TOL):
    """Rank, kernel and cokernel of ``mat`` read off its own full SVD: the
    matrix as the one block of a factorization with an empty border."""
    m = np.asarray(mat, dtype=float)
    return factorize_bordered(BlockSVD.of(full_svd(m)), np.zeros((m.shape[0], 0)), tol)


class DenseCounts(NamedTuple):
    mechanisms: int
    stresses: int
    rigid_motions: int
    flex_basis: cf.SubspaceBasis
    stress_basis: cf.SubspaceBasis
    sigma_max: float


def dense_counts(fw, space):
    """Counts and bases of ``space`` from the SVD of the whole restricted
    operator [R0 | C_E], with its own sigma_max in the threshold."""
    operator = cf.restricted_operator(fw, space)
    factorization = dense_factorization(operator, fw.tolerance)
    flex, stress = factorization.kernel, factorization.cokernel
    f = cf.rigid_motion_space(fw, space).dim
    sigma = np.linalg.svd(operator, compute_uv=False) if operator.size else np.zeros(0)
    return DenseCounts(flex.dim - f, stress.dim, f, flex, stress,
                       float(sigma[0]) if len(sigma) else 0.0)


def translation_tables(modulus, generators, n, m, d):
    """The group of translations a / modulus generated by ``generators``,
    pairs (a, resolved element), as full tables: its elements (N, d) and the
    vertex (N, n) and edge (N, m) permutation of each, generator k adding
    its cosets of the group of the ones before it in turn."""
    elements = np.zeros((1, d), dtype=np.int64)
    vertices, edges = np.arange(n)[np.newaxis], np.arange(m)[np.newaxis]
    for a, g in generators:
        steps, x = [(elements, vertices, edges)], a
        while not np.all(elements == x, axis=1).any():
            e, v, w = steps[-1]
            steps.append(((e + a) % modulus, g.vertex_map[v], g.edge_map[w]))
            x = (x + a) % modulus
        elements, vertices, edges = (np.concatenate(part) for part in zip(*steps))
    return elements, vertices, edges


def orbit_tables(perms):
    """The least point of each orbit of a free action given by its
    permutations (one row per element), as the points whose column minimum
    is themselves; the (elements, orbits) table of their images; and each
    point's (element, orbit)."""
    reps = np.flatnonzero(np.min(perms, axis=0) == np.arange(perms.shape[1]))
    table = perms[:, reps]
    element, orbit = np.empty(perms.shape[1], dtype=np.int64), np.empty(perms.shape[1], dtype=np.int64)
    element[table] = np.arange(len(table))[:, np.newaxis]
    orbit[table] = np.arange(len(reps))
    return table, element, orbit
