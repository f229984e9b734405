"""Translations of a motif onto itself and the Bloch blocks of its strict operator.

A motif that repeats under a finer lattice L' than its own L, as every
supercell does, is mapped onto itself by the N translations of
T = L'/L.  They permute the vertices and the bars freely, so in the real
Fourier basis of those orbits the strict operator R0 is block-diagonal,
with one block Phi(w) per character w of T, each the size of the motif
of L' (the symbol matrix of S. C. Power, "Polynomials for crystal
frameworks and the rigid unit mode spectrum").

``_find_translations`` finds T: candidate translations are filtered
cheaply and each generator is checked by ``symmetry.resolve_symmetry``
with linear part I, against the framework's held motif index.  T is held
by its generators' index maps, composed only over the points read: the
orbit representatives, found by folding the generators' cycles, and the
refused candidates' vertices.
``_bloch_blocks`` assembles the real blocks from the
edge table and takes one batched SVD per block shape, returned as a
``linalg.BlockSVD`` with the Fourier maps of the edges and the vertices.
``rigidity.factor_strict``, run once per framework for its held SVD of R0,
imports this module only for operators large enough to gain from it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .frameworks import CrystalFramework, _RowIndex
from .linalg import BlockSVD, FullSVD, _svd
from .symmetry import SymmetryError, _orbit_starts, resolve_symmetry

# A translation is kept only when it maps every bar vector onto its image's
# to within this many units of round-off of the coordinates' magnitude.
BAR_ROUNDOFF_ULPS = 16


class _FourierMap(NamedTuple):
    """The orthogonal change to the real translation-adapted (Fourier) basis
    of R^(n w): ``orbits[t, i]`` is the index of t . r_i, the image of the
    i-th orbit representative under the t-th translation, and ``fourier``
    the (N, N) real character matrix.  Block coordinate (c, i, k) is
    sum_t fourier[t, c] x[orbits[t, i], k]."""

    orbits: np.ndarray
    fourier: np.ndarray
    width: int

    def to_blocks(self, columns) -> np.ndarray:
        (count, reps), k = self.orbits.shape, columns.shape[1]
        x = columns.reshape(count * reps, self.width, k)[self.orbits]
        return (self.fourier.T @ x.reshape(count, -1)).reshape(count * reps * self.width, k)

    def from_blocks(self, columns) -> np.ndarray:
        (count, reps), k = self.orbits.shape, columns.shape[1]
        out = np.empty((count * reps, self.width, k))
        out[self.orbits] = (self.fourier @ columns.reshape(count, -1)).reshape(count, reps, self.width, k)
        return out.reshape(count * reps * self.width, k)


class _Translations(NamedTuple):
    """The translation group T = L'/L of a motif, L' the finest lattice it
    repeats under: its N elements, as the images of the vertex and edge
    orbit representatives under each (t . r_i is ``vertices[t, i]`` for the
    i-th least vertex of its orbit, likewise ``edges``), and the real
    characters as ``fourier``: first one column chi_w(t) / sqrt(N) per
    self-conjugate character (2w = 0, so chi_w is real), then per pair
    (w, -w) the columns sqrt(2/N) cos and -sqrt(2/N) sin of its phase.
    ``cos`` and ``sin`` hold, one row per character in that order (the
    ``self_conjugate`` ones, then one per pair), the cosine and sine of its
    phase at every element."""

    vertices: np.ndarray
    edges: np.ndarray
    fourier: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    self_conjugate: int


class _GroupBuilder:
    """The group of translations a / modulus (a in Z^d mod modulus)
    generated so far, held by its generators, the resolved elements, with
    ``index`` the ``_RowIndex`` of its elements.

    Generator k adds q_k cosets: q_k is the least q with q a_k in the group
    G_{k-1} of the ones before it, so the elements are sum_k c_k a_k with
    0 <= c_k < q_k, listed with c_1 varying fastest.
    """

    def __init__(self, d: int, modulus: int):
        self.modulus = modulus
        self.divisors = 1 + np.flatnonzero(modulus % np.arange(1, modulus + 1) == 0)
        self.elements = np.zeros((1, d), dtype=np.int64)
        self.index = _RowIndex(self.elements)
        self.radices, self.relations, self.generators = [], [], []

    def add(self, a, generator, q: int, relation: int):
        """Add generator a, of order q modulo the group G so far, q a being its
        element ``relation``: the elements gain the cosets c a + G, 0 <= c < q, in order."""
        self.radices.append(q)
        self.relations.append(relation)
        cosets = np.arange(q)[:, np.newaxis, np.newaxis] * a + self.elements
        self.elements = (cosets % self.modulus).reshape(-1, len(a))
        self.index = _RowIndex(self.elements)
        self.generators.append(generator)

    def images(self, points, which: str) -> np.ndarray:
        """The (elements, points) table of t . x over the elements t, in
        their order, for x the given points of the generators' ``which``
        map ("vertex_map" or "edge_map")."""
        table = np.asarray(points)[np.newaxis]
        for q, g in zip(self.radices, self.generators):
            steps = [table]
            for _ in range(1, q):
                steps.append(getattr(g, which)[steps[-1]])
            table = np.concatenate(steps)
        return table

    def orbit_table(self, which: str) -> np.ndarray:
        """The images of the least point of each orbit of the ``which`` map,
        the group being abelian (``symmetry._orbit_starts``)."""
        return self.images(_orbit_starts([getattr(g, which) for g in self.generators])[0], which)

    def _digits(self, index, count: int) -> np.ndarray:
        """Coordinates c_1, ..., c_count of the elements at ``index``."""
        radices = np.array(self.radices[:count], dtype=np.int64)
        places = np.cumprod(np.concatenate([[1], radices]))[:-1]
        return np.asarray(index)[..., np.newaxis] // places % radices

    def characters(self) -> np.ndarray:
        """Each character's phases at the generators, in units of 1 / modulus.

        A character is fixed by its phases theta_k at the generators, which
        solve q_k theta_k = sum_j c_kj theta_j (mod modulus) where q_k a_k =
        sum_j c_kj a_j; that has q_k solutions, modulus / q_k apart.
        """
        theta = np.zeros((1, 0), dtype=np.int64)
        for k, (q, relation) in enumerate(zip(self.radices, self.relations)):
            base = (theta @ self._digits(relation, k)) % self.modulus // q
            roots = (base[:, np.newaxis] + np.arange(q) * (self.modulus // q)) % self.modulus
            theta = np.column_stack([np.repeat(theta, q, axis=0), roots.reshape(-1)])
        return theta

    def phases(self, theta) -> np.ndarray:
        """The (characters, elements) phase matrix of the characters with
        phases ``theta`` at the generators, in units of 1 / modulus."""
        coords = self._digits(np.arange(len(self.elements)), len(self.radices))
        # One outer product per generator: an int64 matmul would not use BLAS.
        phases = np.zeros((len(theta), len(coords)), dtype=np.int64)
        for phase, coord in zip(theta.T, coords.T):
            phases = (phases + np.multiply.outer(phase, coord)) % self.modulus
        return phases


def _find_translations(fw: CrystalFramework, vectors: np.ndarray) -> Optional[_Translations]:
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
    # One weighted bincount sums the stars: each bin (vertex, entry) adds
    # its bars in edge order, as np.add.at would.
    outer = (vectors[:, :, np.newaxis] * vectors[:, np.newaxis]).reshape(-1, d * d)
    bins = ends.reshape(-1, 1) * (d * d) + np.arange(d * d)
    star = np.bincount(bins.reshape(-1), weights=np.repeat(outer, 2, axis=0).reshape(-1),
                       minlength=n * d * d).reshape(n, d, d)
    degree = np.bincount(ends.reshape(-1), minlength=n)
    move = 20 * tol * float(np.max(np.sum(np.abs(z), axis=1)))
    slack = degree[0] * (4 * move * float(np.max(np.abs(vectors), initial=0.0)) + 4 * move ** 2)
    image = 1 + np.flatnonzero((degree[1:] == degree[0])
                               & (np.max(np.abs(star[1:] - star[0]), axis=(1, 2)) <= slack))

    frac = fw._motif_index.frac
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
    powers = group.divisors[:, np.newaxis, np.newaxis]
    while len(candidates):
        # The candidate of largest order modulo G grows G the most. None left
        # is in G: its image would lie in the G-orbit of vertex 0, which
        # ``refused`` starts with, so every order is at least 2.
        found = group.index.find((powers * candidates % modulus).reshape(-1, d)).reshape(len(powers), -1)
        order = np.argmax(found >= 0, axis=0)       # each candidate's, as an index of the divisors
        pick = int(np.argmax(order))
        a, v, k = candidates[pick], image[pick], order[pick]
        try:
            g = resolve_symmetry(fw, np.eye(d), z @ (a / modulus), "translation")
            moved = vectors[g.edge_map]
            if np.max(np.minimum(np.abs(vectors - moved), np.abs(vectors + moved)), initial=0.0) > roundoff:
                raise SymmetryError("a bar vector moves by more than round-off")
            group.add(a, g, int(group.divisors[k]), int(found[k, pick]))
        except SymmetryError:
            refused.append(v)
        # A candidate is in G, or in a coset a + G of a refused a, when its
        # image lies in the G-orbit of vertex 0, or of the refused one's.
        outside = ~np.isin(image, group.images(refused, "vertex_map"))
        outside[pick] = False
        candidates, image = candidates[outside], image[outside]
    if not group.radices:
        return None

    theta = group.characters()
    count = len(theta)
    partner = _RowIndex(theta).find(-theta % modulus)       # the conjugate of each character
    real = np.flatnonzero(partner == np.arange(count))
    paired = np.flatnonzero(partner > np.arange(count))
    # Phases are multiples of 1 / modulus, so cos and sin are read from one
    # table of the modulus angles, and only for the characters kept.
    phases = group.phases(theta[np.concatenate([real, paired])])
    angle = 2 * np.pi * np.arange(modulus) / modulus
    cos, sin = np.cos(angle)[phases], np.sin(angle)[phases]
    fourier = np.empty((count, count))
    fourier[:, :len(real)] = cos[:len(real)].T / np.sqrt(count)
    fourier[:, len(real)::2] = np.sqrt(2.0 / count) * cos[len(real):].T
    fourier[:, len(real) + 1::2] = -np.sqrt(2.0 / count) * sin[len(real):].T
    return _Translations(group.orbit_table("vertex_map"), group.orbit_table("edge_map"),
                         fourier, cos, sin, len(real))


def _orbits(table: np.ndarray):
    """Each point's (element, orbit) in the (elements, orbits) table of a
    free action's images of its orbit representatives."""
    element, orbit = np.empty(table.size, dtype=np.int64), np.empty(table.size, dtype=np.int64)
    element[table] = np.arange(len(table))[:, np.newaxis]
    orbit[table] = np.arange(table.shape[1])
    return element, orbit


def _bloch_blocks(fw: CrystalFramework, vectors: np.ndarray, group: _Translations) -> BlockSVD:
    """The full SVDs of the real Bloch blocks of R0, with the Fourier maps.

    In the Fourier basis of the vertex and edge orbits, R0 is block-diagonal
    with one block Phi(w) per character: row j, the bar of orbit j through
    the representative s_j = (t_a . r_a, t_b . r_b), holds chi_w(t_a) v_j in
    vertex orbit a and -chi_w(t_b) v_j in vertex orbit b.  A self-conjugate
    character's block is real; a pair (w, -w) gives the real block
    [[Re, -Im], [Im, Re]] of Phi(w).  One batched SVD per block shape.
    """
    d = fw.dimension
    element, orbit = _orbits(group.vertices)
    reps = group.edges[0]
    ends = fw.edges.ends[reps]
    m, n = len(reps), group.vertices.shape[1]
    rows = np.arange(m)
    blocks = []
    for wave in (group.cos, group.sin):
        phi = np.zeros((len(wave), m, n, d))
        phi[:, rows, orbit[ends[:, 0]]] = wave[:, element[ends[:, 0]], np.newaxis] * vectors[reps]
        phi[:, rows, orbit[ends[:, 1]]] -= wave[:, element[ends[:, 1]], np.newaxis] * vectors[reps]
        blocks.append(phi.reshape(len(wave), m, n * d))
    (re, im), real = blocks, group.self_conjugate
    batches = [re[:real]]
    if real < len(re):
        re, im = re[real:], im[real:]
        batches.append(np.concatenate([np.concatenate([re, -im], axis=2),
                                       np.concatenate([im, re], axis=2)], axis=1))
    return BlockSVD(tuple(FullSVD(*_svd(b, "Bloch blocks")) for b in batches),
                    rows=_FourierMap(group.edges, group.fourier, 1),
                    cols=_FourierMap(group.vertices, group.fourier, d))
