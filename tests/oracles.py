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
``pairwise_matches`` is the direct O(n m) matching loop, and
``lattice_matches`` the one-shot form of the package's matcher, an index
of the targets built for one call.
``reference_lattice_matches``, ``reference_resolve_symmetry`` and
``reference_find_translations`` are the matcher that re-bucketed every
target and regrouped every edge class on each call, kept unchanged so that
the held motif index can be compared with it bit for bit.
``per_use_symmetry_counts``, ``per_use_character_row`` and
``per_use_equation_residual`` build an element's domain action for each
use, on each space by its own solve, and its commutant for each use, as the
package did before a framework held one action on (u, vec A) and one
commutant per element; and each builds its own full space, edge rows
(``per_use_edge_rows``) and rigid span (``per_use_counts`` for the
character row's space), as the package did before a framework held one
set-up per space.
"""

import itertools
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import sympy as sp

import crystalflex as cf
from crystalflex.frameworks import CELL_LIMIT, _edge_class_keys, _orbit_starts, _PointIndex, _reach, _scale
from crystalflex.linalg import BlockSVD, _rank, factorize_bordered, full_svd
from crystalflex.rigidity import DependentBasisError, _held_strict, _lattice_columns
from crystalflex.symmetry import (
    SymmetryElement,
    SymmetryError,
    _DomainAction,
    _fixed_domain,
    _fixed_points,
)
from crystalflex.translations import BAR_ROUNDOFF_ULPS, _GroupBuilder, _Translations


def _group_rows(rows):
    """The first index of each distinct row of a 2-D integer array, and each row's group."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


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


def centred_square():
    """The square grid rotated by 45 degrees, in its centred 2 x 2 cell:
    the centring (1/2, 1/2) is a translation that is not a period."""
    vertices = [cf.MotifVertex([0.0, 0.0]), cf.MotifVertex([1.0, 1.0])]
    edges = [cf.MotifEdge(0, (0, 0), 1, cell) for cell in [(0, 0), (-1, 0), (0, -1), (-1, -1)]]
    return cf.CrystalFramework(cf.PeriodLattice(2 * np.eye(2)), vertices, edges)


def chain():
    """A one-dimensional chain of two vertex classes with a second-neighbour bar."""
    return cf.CrystalFramework(cf.PeriodLattice([[1.0]]), [cf.MotifVertex([0.0]), cf.MotifVertex([0.3])],
                               [cf.MotifEdge(0, (0,), 1, (0,)), cf.MotifEdge(1, (0,), 0, (1,)),
                                cf.MotifEdge(0, (0,), 0, (2,))])


def moved_vertex(fw, distance):
    """``fw`` with its vertex 0 moved by ``distance`` along every axis."""
    vertices = list(fw.vertices)
    vertices[0] = cf.MotifVertex(vertices[0].position + distance, vertices[0].name)
    return replace(fw, vertices=tuple(vertices))


def deleted_bar(fw):
    """``fw`` without its bar 0."""
    return cf.CrystalFramework(fw.lattice, fw.vertices, list(fw.edges)[1:], tolerance=fw.tolerance)


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


def pairwise_matches(points, targets, tol):
    """The direct O(n m) loop that lattice_matches replaces (reference)."""
    pairs = []
    for i in range(len(points)):
        for j in range(len(targets)):
            diff = points[i] - targets[j]
            if np.max(np.abs(diff - np.round(diff))) <= tol:
                pairs.append((i, j))
    return pairs


def lattice_matches(points, targets, tol: float):
    """Index pairs (i, j) where ``points[i]`` equals ``targets[j]`` modulo the lattice.

    Both arguments are fractional coordinates, of shapes (n, d) and (m, d).
    A pair matches when ``max |delta - round(delta)| <= tol`` for
    ``delta = points[i] - targets[j]``; that test alone decides.  This is the
    one-shot form of the matcher a framework holds for its own vertices: the
    targets go into a ``_PointIndex`` built for the reach of ``tol`` at the
    magnitude of both sets, and each point reads the one bucket where every
    target it can match is listed, so the cost is near-linear in n + m for
    spread-out points.  Returns two int arrays sorted by i, then j.
    """
    a = np.asarray(points, dtype=float)
    b = np.asarray(targets, dtype=float)
    if len(a) == 0 or len(b) == 0:
        none = np.zeros(0, dtype=np.int64)
        return none, none
    return _PointIndex(b, _reach(tol, max(_scale(a), _scale(b)))).matches(a, tol)


def reference_lattice_matches(points, targets, tol: float):
    """Index pairs (i, j) where ``points[i]`` equals ``targets[j]`` modulo the lattice.

    Both arguments are fractional coordinates, of shapes (n, d) and (m, d).
    A pair matches when ``max |delta - round(delta)| <= tol`` for
    ``delta = points[i] - targets[j]``; that test alone decides.  Candidates
    come from hashing the coordinates, wrapped onto the unit torus, into
    buckets at least 2 tol wide (wider for huge coordinates, whose
    differences lose precision) and pairing each point with the targets in
    its own and the neighbouring buckets, so the cost is near-linear in
    n + m for spread-out points.  Returns two int arrays sorted by i, then j.
    """
    a = np.asarray(points, dtype=float)
    b = np.asarray(targets, dtype=float)
    none = np.zeros(0, dtype=np.int64)
    if len(a) == 0 or len(b) == 0:
        return none, none
    d = a.shape[1]
    # Non-finite entries match nothing; they are hashed as 0 to keep the buckets finite.
    fa, fb = (np.where(np.isfinite(x), x, 0.0) for x in (a, b))
    scale = max(1.0, float(np.max(np.abs(fa))), float(np.max(np.abs(fb))))
    width = 2.0 * tol + 16.0 * np.finfo(float).eps * scale
    k = max(1, int(1.0 / width))     # buckets per axis, each at least width wide

    def bucket(x):
        return np.floor((x - np.floor(x)) * k).astype(np.int64) % k

    steps = sorted({s % k for s in (-1, 0, 1)})
    shifts = np.array(list(itertools.product(steps, repeat=d)), dtype=np.int64)
    queries = ((bucket(fa)[:, np.newaxis, :] + shifts) % k).reshape(-1, d)
    _, group = _group_rows(np.concatenate([bucket(fb), queries]))
    target_group, query_group = group[:len(b)], group[len(b):]

    # Expand every query into the targets of its bucket.
    members = np.argsort(target_group, kind="stable")
    size = np.bincount(target_group, minlength=group.max() + 1)
    first = np.cumsum(size) - size
    per_query = size[query_group]
    query = np.repeat(np.arange(len(query_group)), per_query)
    rank = np.arange(len(query)) - np.repeat(np.cumsum(per_query) - per_query, per_query)
    i = query // len(shifts)
    j = members[first[query_group[query]] + rank]

    diff = a[i] - b[j]
    hit = np.max(np.abs(diff - np.round(diff)), axis=1) <= tol
    i, j = i[hit], j[hit]
    order = np.lexsort((j, i))
    return i[order], j[order]


def reference_resolve_symmetry(fw, linear, translation, name: str = "g") -> SymmetryElement:
    """Match an isometry against the motif classes of a framework.

    Raises SymmetryError if the linear part is not orthogonal, is
    incompatible with the period lattice, or if some vertex or edge image
    does not land on a framework vertex or edge class.
    """
    d = fw.dimension
    tol = fw.tolerance
    # Copies: the element's read-only arrays share no memory with the caller's.
    b = np.array(linear, dtype=float)
    c = np.array(translation, dtype=float).reshape(-1)
    if b.shape != (d, d) or c.shape != (d,):
        raise SymmetryError(f"element {name!r}: expected a {d}x{d} linear part and a {d}-vector")
    for part, value in (("linear part", b), ("translation", c)):
        if not np.isfinite(value).all():
            raise SymmetryError(f"element {name!r}: {part} is not finite")
    if np.max(np.abs(b.T @ b - np.eye(d))) > 10 * tol:
        raise SymmetryError(f"element {name!r}: linear part is not orthogonal")

    lattice_action = np.linalg.solve(fw.lattice.matrix, b @ fw.lattice.matrix)
    if np.max(np.abs(lattice_action - np.round(lattice_action))) > 10 * tol:
        raise SymmetryError(f"element {name!r}: lattice-incompatible linear part")
    lattice_action = np.round(lattice_action).astype(int)

    frac = fw.lattice.fractional(fw.positions)
    images = fw.lattice.fractional(fw.positions @ b.T + c)
    image, target = reference_lattice_matches(images, frac, 10 * tol)
    image, first = np.unique(image, return_index=True)     # lowest matching class
    if len(image) != fw.vertex_count:
        matched = np.zeros(fw.vertex_count, dtype=bool)
        matched[image] = True
        unmatched = int(np.argmin(matched))
        raise SymmetryError(
            f"element {name!r} is not a symmetry: image of vertex "
            f"{fw.vertex_label(unmatched)} matches no vertex class")
    vertex_map = target[first]
    shifts = np.round(images - frac[vertex_map])
    beyond = np.flatnonzero(np.any(np.abs(shifts) >= CELL_LIMIT, axis=1))
    if len(beyond):
        raise SymmetryError(f"element {name!r}: image of vertex "
                            f"{fw.vertex_label(beyond[0])} lies 2**53 or more cells away")
    shifts = shifts.astype(np.int64)
    if len(set(vertex_map.tolist())) != fw.vertex_count:
        raise SymmetryError(f"element {name!r}: vertex action is not a bijection")

    ends, offsets = fw.edges.ends, fw.edges.offsets
    image_offsets = shifts[ends[:, 1]] - shifts[ends[:, 0]] + offsets @ lattice_action.T
    keys = np.concatenate([_edge_class_keys(ends, offsets),
                           _edge_class_keys(vertex_map[ends], image_offsets)])
    _, group = _group_rows(keys)
    owner = np.full(len(keys), -1)
    owner[group[:fw.edge_count]] = np.arange(fw.edge_count)
    edge_map = owner[group[fw.edge_count:]]
    unmatched = np.flatnonzero(edge_map < 0)
    if len(unmatched):
        raise SymmetryError(
            f"element {name!r} is not a symmetry: image of edge {unmatched[0]} matches no edge class")
    if len(set(edge_map.tolist())) != fw.edge_count:
        raise SymmetryError(f"element {name!r}: edge action is not a bijection")

    return SymmetryElement(name=name, linear=b, translation=c, vertex_map=vertex_map,
                           vertex_offsets=shifts, edge_map=edge_map, lattice_action=lattice_action)


def _reference_members(rows: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The index of the member equal to each integer row, or -1; the
    members are distinct."""
    _, group = _group_rows(np.concatenate([members, rows]))
    found = np.full(len(members) + len(rows), -1)
    found[group[:len(members)]] = np.arange(len(members))
    return found[group[len(members):]]


def _reference_phases(group):
    """Each character's phases at the generators and its (characters,
    elements) phase matrix, in units of 1 / modulus.

    A character is fixed by its phases theta_k at the generators, which
    solve q_k theta_k = sum_j c_kj theta_j (mod modulus) where q_k a_k =
    sum_j c_kj a_j; that has q_k solutions, modulus / q_k apart.
    """
    theta = np.zeros((1, 0), dtype=np.int64)
    for k, (q, relation) in enumerate(zip(group.radices, group.relations)):
        base = (theta @ group._digits(relation, k)) % group.modulus // q
        roots = (base[:, np.newaxis] + np.arange(q) * (group.modulus // q)) % group.modulus
        theta = np.column_stack([np.repeat(theta, q, axis=0), roots.reshape(-1)])
    coords = group._digits(np.arange(len(group.elements)), len(group.radices))
    return theta, (theta @ coords.T) % group.modulus


def reference_find_translations(fw, vectors: np.ndarray):
    """The translations of a motif onto itself that are not periods, or None
    when there are none.

    Every translation moves vertex 0 onto some vertex v, so the candidates
    are the fractional differences t = f_v - f_0.  A candidate is kept when
    v has the degree of vertex 0 and the same sum of v v^T over its bars,
    and t has a finite order k dividing |Fv| (k t integral to 10 tol k); it
    is then a / M, M the least common multiple of the kept orders.  Of the
    candidates outside the group G found so far and outside the cosets
    a + G of the refused ones, the one of largest order modulo G is checked
    next, by ``resolve_symmetry`` with linear part I: it must match, and
    map each bar vector onto its image's to within BAR_ROUNDOFF_ULPS units
    of round-off of the largest endpoint coordinate.  The accepted ones
    generate T.
    """
    n, d, tol = fw.vertex_count, fw.dimension, fw.tolerance
    if n < 2:
        return None
    z, ends = fw.lattice.matrix, fw.edges.ends
    # A translation maps the bars at vertex 0 onto those at its image with
    # equal bar vectors, so both have the same degree and sum of v v^T, up
    # to what the 10 tol matching lets the positions move.
    star = np.zeros((n, d, d))
    outer = vectors[:, :, np.newaxis] * vectors[:, np.newaxis]
    np.add.at(star, ends.reshape(-1), np.repeat(outer, 2, axis=0))
    degree = np.bincount(ends.reshape(-1), minlength=n)
    move = 20 * tol * float(np.max(np.sum(np.abs(z), axis=1)))
    slack = degree[0] * (4 * move * float(np.max(np.abs(vectors), initial=0.0)) + 4 * move ** 2)
    image = 1 + np.flatnonzero((degree[1:] == degree[0])
                               & (np.max(np.abs(star[1:] - star[0]), axis=(1, 2)) <= slack))

    frac = fw.lattice.fractional(fw.positions)
    shifts = (frac[image] - frac[0]) % 1.0
    divisors = np.arange(2, n + 1)
    divisors = divisors[n % divisors == 0]
    multiples = divisors[:, np.newaxis, np.newaxis] * shifts
    integral = np.max(np.abs(multiples - np.round(multiples)), axis=2) <= 10 * tol * divisors[:, np.newaxis]
    finite = integral.any(axis=0)
    if not finite.any():
        return None
    modulus = int(np.lcm.reduce(divisors[np.argmax(integral, axis=0)][finite]))
    # Candidate a / modulus moves vertex 0 onto vertex ``image``.
    candidates = np.round(shifts[finite] * modulus).astype(np.int64) % modulus
    image = image[finite]

    scale = max(1.0, float(np.max(np.abs(fw.positions[ends] + fw.edges.cells @ z.T), initial=0.0)))
    roundoff = BAR_ROUNDOFF_ULPS * np.finfo(float).eps * scale
    group, refused = _GroupBuilder(d, modulus), [0]
    # A candidate's order modulo G divides the modulus, so it is the least
    # divisor whose multiple of the candidate lies in G.
    powers = np.concatenate([[1], divisors[modulus % divisors == 0]])[:, np.newaxis, np.newaxis]
    while len(candidates):
        # The candidate of largest order modulo G grows G the most. None left
        # is in G: its image would lie in the G-orbit of vertex 0, which
        # ``refused`` starts with, so every order is at least 2.
        found = _reference_members((powers * candidates % modulus).reshape(-1, d), group.elements)
        found = found.reshape(len(powers), -1)
        order = np.argmax(found >= 0, axis=0)
        pick = int(np.argmax(order))
        a, v, k = candidates[pick], image[pick], order[pick]
        try:
            g = reference_resolve_symmetry(fw, np.eye(d), z @ (a / modulus), "translation")
            moved = vectors[g.edge_map]
            if np.max(np.minimum(np.abs(vectors - moved), np.abs(vectors + moved)), initial=0.0) > roundoff:
                raise SymmetryError("a bar vector moves by more than round-off")
            group.add(a, g, int(powers[k, 0, 0]), int(found[k, pick]))
        except SymmetryError:
            refused.append(v)
        # A candidate is in G, or in a coset a + G of a refused a, when its
        # image lies in the G-orbit of vertex 0, or of the refused one's.
        outside = ~np.isin(image, group.images(refused, "vertex_map"))
        outside[pick] = False
        candidates, image = candidates[outside], image[outside]
    if not group.radices:
        return None

    theta, phases = _reference_phases(group)
    count = len(phases)
    first, same = _group_rows(np.concatenate([theta, -theta % modulus]))
    partner = first[same[count:]]       # the conjugate of each character
    real = np.flatnonzero(partner == np.arange(count))
    paired = np.flatnonzero(partner > np.arange(count))
    chosen = np.concatenate([real, paired])
    angle = 2 * np.pi * phases[chosen] / modulus
    cos, sin = np.cos(angle), np.sin(angle)
    fourier = np.empty((count, count))
    fourier[:, :len(real)] = cos[:len(real)].T / np.sqrt(count)
    fourier[:, len(real)::2] = np.sqrt(2.0 / count) * cos[len(real):].T
    fourier[:, len(real) + 1::2] = -np.sqrt(2.0 / count) * sin[len(real):].T
    return _Translations(group.orbit_table("vertex_map"), group.orbit_table("edge_map"),
                         fourier, cos, sin, len(real))


def per_use_domain_action(fw, element, space):
    """The element's action on (u, coordinates in ``space``), built for one
    use: the conjugation's coordinates from one solve, and the coupling of
    the moved vertices times the space's basis."""
    d, n = fw.dimension, fw.vertex_count
    b = element.linear
    conjugation = np.zeros((0, 0))
    if space.dim:
        try:
            conjugation = space._column_coordinates(np.kron(b, b) @ space.stacked)
        except ValueError:
            raise SymmetryError(f"matrix space {space.name!r} is not invariant") from None
    moved = np.flatnonzero(element.vertex_offsets.any(axis=1))
    w = -(element.vertex_offsets[moved] @ fw.lattice.matrix.T) @ b
    on_vec = -(w[:, np.newaxis, :, np.newaxis] * b[:, np.newaxis, :]).reshape(-1, d * d)
    coupling = np.zeros((n, d, space.dim))
    coupling[element.vertex_map[moved]] = (on_vec @ space.stacked).reshape(len(moved), d, space.dim)
    return _DomainAction(element, coupling.reshape(n * d, space.dim), conjugation)


def per_use_edge_rows(fw, space):
    """The operator on (u, coordinates in ``space``) as edge rows, the border
    C_E built for this use: the bar ends, the bar vectors and C_E."""
    return fw.edges.ends, fw._edge_vectors, _lattice_columns(fw, space)


def per_use_equation_residual(fw, element, space):
    """``verify_symmetry_equation`` with the action and edge rows built for this use."""
    return per_use_domain_action(fw, element, space).equation_residual(*per_use_edge_rows(fw, space))


def per_use_symmetry_counts(fw, element):
    """``symmetry_counts`` with the action on the full space, by its solve,
    and the commutant built for this use."""
    tol, d = fw.tolerance, fw.dimension
    full = cf.matrix_space("full", d, tol)
    action = per_use_domain_action(fw, element, full)
    commutant = cf.commutant_basis(element.linear, tol)
    fixed_domain, fixed_vertex = _fixed_domain(action, commutant, tol)
    ends, vectors, lattice = per_use_edge_rows(fw, full)
    equation = action.equation_residual(ends, vectors, lattice)
    rigid = cf.rigid_motion_space(fw, full)
    f = cf.subspace_intersection(rigid, fixed_domain).dim
    on_rigid = rigid.basis.T @ action.apply(rigid.basis)
    if rigid.dim - cf.numeric_rank(on_rigid - np.eye(rigid.dim), tol) != f:
        raise DependentBasisError("the fixed rigid motions disagree")
    first, sizes = _orbit_starts([element.edge_map])
    orbits = len(sizes)
    velocities = fixed_domain.basis[:-d * d].reshape(fw.vertex_count, d, fixed_domain.dim)
    rows = np.sqrt(sizes)[:, np.newaxis] * (
        np.einsum("ek,ekj->ej", vectors[first], velocities[ends[first, 0]] - velocities[ends[first, 1]])
        + lattice[first] @ fixed_domain.basis[-d * d:])
    sigma = np.linalg.svd(rows, compute_uv=False) if rows.size else np.zeros(0)
    fixed_flexes = fixed_domain.dim - _rank(sigma, (fw.edge_count, fixed_domain.dim), tol)
    if f > fixed_flexes:
        raise DependentBasisError("more fixed rigid motions than fixed flexes")
    m, s = fixed_flexes - f, orbits - _rank(sigma, (orbits, fixed_domain.dim), tol)
    return cf.SymmetryCountReport(
        element_name=element.name, separable=element.separable, fixed_vertex_dim=fixed_vertex,
        commutant_dim=commutant.dim, fixed_domain_dim=fixed_domain.dim, edge_orbits=orbits,
        fixed_rigid_dim=f, mechanisms=m, stresses=s,
        identity_residual=(m - s) - (fixed_domain.dim - orbits - f),
        flexible_predicted=orbits < fixed_domain.dim - f, equation_residual=equation)


def per_use_counts(fw, space):
    """``analyze_counts``' factorization and rigid span of ``space``, with the
    border and the rigid span built for this use."""
    return (factorize_bordered(_held_strict(fw), _lattice_columns(fw, space), fw.tolerance),
            cf.rigid_motion_space(fw, space))


def per_use_character_row(fw, element, space):
    """``character_row`` with the action on ``space`` and the space's counts
    built for this use."""
    action = per_use_domain_action(fw, element, space)
    factorization, rigid = per_use_counts(fw, space)

    def subspace_trace(basis):
        return float(np.vdot(basis.basis, action.apply(basis.basis)))

    vertex_trace, edge_trace = action.trace(), float(_fixed_points(element.edge_map))
    rigid_trace = subspace_trace(rigid)
    mech_trace = subspace_trace(factorization.kernel) - rigid_trace
    stresses = factorization.cokernel.basis
    stress_trace = float(np.vdot(stresses, action.permute_edges(stresses)))
    return cf.CharacterRow(
        element_name=element.name, space_name=space.name, vertex_trace=vertex_trace,
        edge_trace=edge_trace, rigid_trace=rigid_trace, mechanism_trace=mech_trace,
        stress_trace=stress_trace,
        residual=(mech_trace - stress_trace) - (vertex_trace - edge_trace - rigid_trace))
