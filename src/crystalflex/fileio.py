"""JSON framework files and structured analysis reports.

File schema (version 1):

    {
      "format": 1,
      "dimension": 2,
      "period_vectors": [[1.0, 0.0], [0.5, 0.866...]],
      "tolerance": 1e-9,                       # optional
      "vertices": [
        {"id": "p1", "position": [0.0, 0.0]},
        {"id": "p2", "position": [0.5, 0.5], "frac": true}
      ],
      "edges": [
        {"from": {"v": "p1", "cell": [0, 0]},
         "to":   {"v": "p2", "cell": [-1, 0]}}
      ],
      "symmetries": [                          # optional
        {"name": "r3", "linear": [[...], [...]], "translation": [...]}
      ]
    }

Positions are Cartesian unless the vertex carries "frac": true, in which
case they are coordinates in the period-vector frame.  Edge cells default
to the zero cell when omitted.  Parsing validates the framework and
resolves every declared symmetry; failures raise FrameworkParseError with
the offending field path or element name.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .frameworks import (
    CELL_LIMIT,
    CrystalFramework,
    InvalidFrameworkError,
    PeriodLattice,
    _EdgeTable,
    _VertexTable,
)
from .linalg import MIN_TOL
from .rigidity import (
    MatrixSpace,
    _held_space,
    analyze_counts,
    matrix_space,
)
from .symmetry import (
    SymmetryError,
    character_row,
    resolve_symmetry,
    symmetry_counts,
)

FORMAT_VERSION = 1


class FrameworkParseError(ValueError):
    """Malformed framework document; the message names the offending field."""


def _fail(path: str, message: str):
    raise FrameworkParseError(f"{path}: {message}")


def _require(obj, key, path, kind=None):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    if key not in obj:
        _fail(f"{path}.{key}" if path else key, "missing required field")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        _fail(f"{path}.{key}" if path else key, f"expected {kind.__name__}")
    return value


def _number_list(value, length, path):
    if not isinstance(value, list) or len(value) != length:
        _fail(path, f"expected a list of {length} numbers")
    out = []
    for i, x in enumerate(value):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            _fail(f"{path}[{i}]", "expected a number")
        if not abs(x) <= sys.float_info.max:     # NaN, infinities, ints too big for a float
            _fail(f"{path}[{i}]", "expected a finite number")
        out.append(float(x))
    return out


def _int_list(value, length, path):
    if not isinstance(value, list) or len(value) != length:
        _fail(path, f"expected a list of {length} integers")
    out = []
    for i, x in enumerate(value):
        if isinstance(x, bool) or not isinstance(x, int):
            _fail(f"{path}[{i}]", "expected an integer")
        if abs(x) >= CELL_LIMIT:     # beyond exact float and safe int64 arithmetic
            _fail(f"{path}[{i}]", "expected an integer of magnitude below 2**53")
        out.append(int(x))
    return out


def _matrix(value, d, path):
    if not isinstance(value, list) or len(value) != d:
        _fail(path, f"expected a {d}x{d} matrix as a list of {d} rows")
    return np.array([_number_list(row, d, f"{path}[{i}]") for i, row in enumerate(value)])


def _vertex_rows(raw_vertices: list, dimension: int):
    """The ids, (n, d) float positions and "frac" flags of a vertex list,
    checked in bulk, or None when some field fails a check, so that the
    per-field path names it.

    Accepts exactly what the per-field path accepts: each vertex a dict with
    a distinct str id, a position that is a list of ``dimension`` finite
    numbers, not bools, and an optional bool "frac".
    """
    if not all(type(entry) is dict for entry in raw_vertices):
        return None
    try:
        ids = [entry["id"] for entry in raw_vertices]
        positions = [entry["position"] for entry in raw_vertices]
    except KeyError:
        return None
    frac = [entry.get("frac", False) for entry in raw_vertices]
    if not (set(map(type, ids)) <= {str} and len(set(ids)) == len(ids) and set(map(type, frac)) <= {bool}):
        return None
    if not (set(map(type, positions)) <= {list} and set(map(len, positions)) <= {dimension}):
        return None
    flat = list(chain.from_iterable(positions))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        table = np.array(flat, dtype=float).reshape(len(positions), dimension)
    except OverflowError:     # an int too big for a float
        return None
    if not np.isfinite(table).all():
        return None
    return ids, table, frac


def _edge_rows(raw_edges: list, ids: dict, dimension: int):
    """The (m, 2 + 2 d) int64 rows of an edge list, checked in bulk, or None
    when some field fails a check, so that the per-field path names it.

    Accepts exactly what the per-field path accepts: each edge and endpoint
    a dict, a known vertex id and a cell (default the zero cell) that is a
    list of ``dimension`` integers, not bools, of magnitude below 2**53.
    """
    if not all(type(entry) is dict for entry in raw_edges):
        return None
    try:
        sides = [entry[side] for entry in raw_edges for side in ("from", "to")]
        if not all(type(p) is dict for p in sides):
            return None
        vertex = [ids[p["v"]] for p in sides]
    except (TypeError, KeyError):     # a missing field, or an unknown or unhashable id
        return None
    zero = [0] * dimension
    cells = [p.get("cell", zero) for p in sides]
    if not (set(map(type, cells)) <= {list} and set(map(len, cells)) <= {dimension}):
        return None
    flat = list(chain.from_iterable(cells))
    if not set(map(type, flat)) <= {int}:
        return None
    try:
        table = np.array(flat, dtype=np.int64).reshape(len(sides), dimension)
    except OverflowError:
        return None
    if np.any((table <= -CELL_LIMIT) | (table >= CELL_LIMIT)):
        return None
    return np.column_stack([vertex, table]).reshape(len(raw_edges), -1) if sides else None


def framework_from_dict(doc: dict) -> CrystalFramework:
    if not isinstance(doc, dict):
        raise FrameworkParseError("top level: expected an object")
    if "format" in doc and (isinstance(doc["format"], bool) or doc["format"] != FORMAT_VERSION):
        _fail("format", f"unsupported format {doc['format']!r}; this reader handles {FORMAT_VERSION}")

    dimension = _require(doc, "dimension", "", int)
    if isinstance(dimension, bool) or dimension < 1:
        _fail("dimension", "expected a positive integer")

    periods = _require(doc, "period_vectors", "", list)
    if len(periods) != dimension:
        _fail("period_vectors", f"expected {dimension} period vectors")
    columns = [_number_list(v, dimension, f"period_vectors[{i}]") for i, v in enumerate(periods)]
    lattice = PeriodLattice(np.array(columns).T)

    tolerance = doc.get("tolerance", 1e-9)
    if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)) or tolerance <= 0:
        _fail("tolerance", "expected a positive number")
    if not abs(tolerance) <= sys.float_info.max:
        _fail("tolerance", "expected a finite number")
    if tolerance < MIN_TOL:
        _fail("tolerance", f"expected a number of at least {MIN_TOL:.2g}")

    raw_vertices = _require(doc, "vertices", "", list)
    rows = _vertex_rows(raw_vertices, dimension)
    if rows is None:
        ids, positions, flags = {}, [], []
        for i, entry in enumerate(raw_vertices):
            path = f"vertices[{i}]"
            vid = _require(entry, "id", path, str)
            if vid in ids:
                _fail(f"{path}.id", f"duplicate vertex id {vid!r}")
            ids[vid] = i
            positions.append(_number_list(_require(entry, "position", path), dimension, f"{path}.position"))
            frac = entry.get("frac", False)
            if not isinstance(frac, bool):
                _fail(f"{path}.frac", "expected a boolean")
            flags.append(frac)
        rows = list(ids), np.array(positions, dtype=float).reshape(-1, dimension), flags
    names, positions, flags = rows
    ids = {vid: i for i, vid in enumerate(names)}
    # A fractional position is converted alone, by its own matrix-vector product.
    for i in np.flatnonzero(flags).tolist():
        positions[i] = lattice.matrix @ positions[i]
    vertices = _VertexTable(positions, names)

    raw_edges = _require(doc, "edges", "", list)
    rows = _edge_rows(raw_edges, ids, dimension)
    if rows is None:
        rows = []     # (from-vertex, *from-cell, to-vertex, *to-cell)
        for i, entry in enumerate(raw_edges):
            path = f"edges[{i}]"
            row = []
            for side in ("from", "to"):
                endpoint = _require(entry, side, path)
                vid = _require(endpoint, "v", f"{path}.{side}", str)
                if vid not in ids:
                    _fail(f"{path}.{side}.v", f"unknown vertex id {vid!r}")
                cell = endpoint.get("cell", [0] * dimension)
                row += [ids[vid], *_int_list(cell, dimension, f"{path}.{side}.cell")]
            rows.append(row)
    edges = _EdgeTable(rows, dimension)

    try:
        fw = CrystalFramework(lattice, vertices, edges, symmetries=(), tolerance=float(tolerance))
    except InvalidFrameworkError as exc:
        raise FrameworkParseError(
            "framework validation failed: " + "; ".join(exc.violations)) from exc

    raw_symmetries = doc.get("symmetries", [])
    if not isinstance(raw_symmetries, list):
        _fail("symmetries", "expected a list")
    elements, names = [], set()
    for i, entry in enumerate(raw_symmetries):
        path = f"symmetries[{i}]"
        name = _require(entry, "name", path, str)
        if name in names:
            _fail(f"{path}.name", f"duplicate symmetry name {name!r}")
        names.add(name)
        linear = _matrix(_require(entry, "linear", path), dimension, f"{path}.linear")
        translation = np.array(_number_list(_require(entry, "translation", path),
                                            dimension, f"{path}.translation"))
        try:
            elements.append(resolve_symmetry(fw, linear, translation, name))
        except SymmetryError as exc:
            raise FrameworkParseError(f"{path}: {exc}") from exc

    if elements:
        fw = fw.with_symmetries(elements)
    return fw


def parse_framework(text: str) -> CrystalFramework:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FrameworkParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return framework_from_dict(doc)


def framework_to_dict(fw: CrystalFramework) -> dict:
    """The file document of ``fw``.  A vertex's id is its name, even an
    empty one, and ``v{i}`` for the i-th vertex when it has none; ids that
    repeat raise ValueError, since no file may hold them."""
    d = fw.dimension
    labels = [f"v{i}" if name is None else name for i, name in enumerate(fw.vertices.names)]
    if len(set(labels)) < len(labels):
        first = {}
        for i, label in enumerate(labels):
            if first.setdefault(label, i) != i:
                raise ValueError(f"vertices {first[label]} and {i} would both be written with id {label!r}")
    doc = {
        "format": FORMAT_VERSION,
        "dimension": d,
        "period_vectors": [list(map(float, fw.lattice.matrix[:, j])) for j in range(d)],
        "tolerance": fw.tolerance,
        "vertices": [
            {"id": label, "position": position}
            for label, position in zip(labels, fw.positions.tolist())
        ],
        "edges": [
            {"from": {"v": labels[f], "cell": fc}, "to": {"v": labels[t], "cell": tc}}
            for (f, t), (fc, tc) in zip(fw.edges.ends.tolist(), fw.edges.cells.tolist())
        ],
    }
    if fw.symmetries:
        doc["symmetries"] = [
            {
                "name": g.name,
                "linear": [list(map(float, row)) for row in g.linear],
                "translation": list(map(float, g.translation)),
            }
            for g in fw.symmetries
        ]
    return doc


def serialize_framework(fw: CrystalFramework) -> str:
    return _json_text(framework_to_dict(fw)) + "\n"


def load_framework(path) -> CrystalFramework:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_framework(handle.read())


def save_framework(fw: CrystalFramework, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_framework(fw))


def parse_matrix_space(text: str, dimension: int, tol: float) -> MatrixSpace:
    """Custom admissible-space file: a JSON list of d x d matrices, each scaled
    to unit Frobenius norm, so the rank decisions do not depend on the scale
    of the basis."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FrameworkParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, list):
        raise FrameworkParseError("top level: expected a list of matrices")
    mats = [_matrix(m, dimension, f"[{i}]") for i, m in enumerate(doc)]
    mats = [m / (np.max(np.abs(m)) or 1.0) for m in mats]     # so the norms cannot overflow
    mats = [m / (np.linalg.norm(m) or 1.0) for m in mats]     # a zero matrix stays zero
    try:
        return MatrixSpace(dimension, tuple(mats), name="custom", tol=tol)
    except ValueError as exc:
        raise FrameworkParseError(str(exc)) from exc


MODE_LABELS = {"strict": "zero", "affine": "full"}


def _display(x: float) -> float:
    r = round(float(x), 9)
    return 0.0 if r == 0 else r


def _display_array(values) -> np.ndarray:
    """``_display`` of every element, as array operations.

    ``rint(x * 1e9) / 1e9`` is the float ``round(x, 9)`` returns whenever
    rint lands on the integer nearest to the exact x * 10**9: the division
    is correctly rounded, as is round's conversion of its decimal result.
    That holds unless the rounded product lies within its rounding error of
    a half-integer, so those elements, products of 2**52 and beyond and
    non-finite values take ``_display`` itself.
    """
    x = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = x * 1e9
        out = np.rint(scaled) / 1e9 + 0.0       # + 0.0 shows -0.0 as 0.0
        tie_gap = np.abs(scaled - np.floor(scaled) - 0.5)
        unsure = ~(np.abs(scaled) < 2.0 ** 52) | (tie_gap <= np.spacing(np.abs(scaled)))
    if unsure.any():
        out[unsure] = list(map(_display, x[unsure].tolist()))
    return out


_INDENT = "  "
_BATCH = 1 << 12        # values per numpy pass; larger passes hold more temporaries at once


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, with float64 arrays written in bulk.

    ``obj`` may also hold float64 ndarrays, each written as its ``tolist()``
    would be.  ``json``'s own encoder writes everything else; it meets each
    non-empty, finite 1-D or 2-D array as a string holding a token drawn for
    this call, and the arrays' text replaces the quoted tokens afterwards,
    each nested as deep as its line is indented, in runs of whole rows
    formatted together about ``_BATCH`` values at a time.
    """
    token, arrays = os.urandom(16).hex(), []

    def leaf(o):
        if not (isinstance(o, np.ndarray) and o.dtype == np.float64):
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        if o.ndim in (1, 2) and o.size and np.isfinite(o).all():
            arrays.append(o)
            return token
        return o.tolist()

    text = json.JSONEncoder(indent=2, check_circular=False, default=leaf).encode(obj)
    pieces = text.split(f'"{token}"')
    if len(pieces) != len(arrays) + 1:
        raise RuntimeError("a string in the JSON equals the placeholder of an array")
    out = [""] * (2 * len(pieces) - 1)
    out[::2] = pieces
    # Array i fills out[2 i + 1], nested as deep as the line pieces[i] ends on is indented.
    lines = (before[before.rfind("\n") + 1:] for before in pieces)
    levels = ((len(line) - len(line.lstrip(" "))) // len(_INDENT) for line in lines)
    blocks = []
    for batch in _batches(_array_runs(zip(range(1, len(out), 2), arrays, levels))):
        numbers = _array_reprs(np.concatenate([values for _, values, *_ in batch]))
        at = 0
        for slot, values, width, level, first, last in batch:
            blocks.append(_block_text(numbers[at:at + values.size], width, level, first, last))
            at += values.size
            if last:
                out[slot] = "".join(blocks)
                blocks = []
    return "".join(out)


def _array_runs(arrays):
    """(slot, values, width, level, first, last) for each run of whole rows,
    about ``_BATCH`` values, of each recorded (slot, array, level); width is
    0 for a 1-D array."""
    for slot, a, level in arrays:
        width = a.shape[1] if a.ndim == 2 else 0
        step = max(_BATCH // width, 1) * width if width else _BATCH
        flat = a.reshape(-1)
        for start in range(0, flat.size, step):
            yield slot, flat[start:start + step], width, level, start == 0, start + step >= flat.size


def _batches(runs):
    """Consecutive runs grouped until each group holds ``_BATCH`` values."""
    batch, size = [], 0
    for run in runs:
        batch.append(run)
        size += run[1].size
        if size >= _BATCH:
            yield batch
            batch, size = [], 0
    if batch:
        yield batch


def _block_text(numbers: list, width: int, level: int, first: bool = True, last: bool = True) -> str:
    """JSON of a list of number strings, or of their rows of ``width`` when
    ``width`` > 0: the numbers interleaved with a precomputed separator
    list.  A run of rows that is not ``first`` leaves out the opening
    bracket, and one that is not ``last`` ends in the separator to the
    next run instead of the closing bracket."""
    row = "\n" + _INDENT * (level + 1)
    close = "\n" + _INDENT * level + "]"
    if not width:
        return ("[" + row if first else "") + ("," + row).join(numbers) + (close if last else "," + row)
    cell = row + _INDENT
    separators = ([f",{cell}"] * (width - 1) + [f"{row}],{row}[{cell}"]) * (len(numbers) // width)
    if last:
        separators[-1] = row + "]" + close
    parts = [f"[{row}[{cell}" if first else ""] * (2 * len(numbers) + 1)
    parts[1::2] = numbers
    parts[2::2] = separators
    return "".join(parts)


_TRIPLES = np.indices((10, 10, 10)).reshape(3, -1).T      # the three digits of each k < 1000


def _digit_words(left: str, right: str) -> np.ndarray:
    """uint32 words, for k < 1000, of the bytes ``left``, the three digits of
    k and ``right``."""
    pads = [np.full((1000, len(text)), [ord(c) for c in text]) for text in (left, right)]
    return np.hstack([pads[0], _TRIPLES + ord("0"), pads[1]]).astype(np.uint8).view(np.uint32).reshape(-1)


# A number on the 1e-9 grid is written from k = |x| * 10**9, split into five
# 3-digit groups g0..g4, as five words (20 bytes): a sign and g0; g1 and the
# point; g2, g3 and g4, each followed by a byte to drop, the last a space.
_SIGNED, _POINTED, _SPACED = _digit_words("-", ""), _digit_words("", "."), _digit_words("", " ")
_DIGITS = ((_TRIPLES > 0) * [3, 2, 1]).max(axis=1)                # of k, 0 for 0
_INT_DIGITS = np.maximum(_DIGITS, 1)
_FRACTION_DIGITS = ((_TRIPLES > 0) * [1, 2, 3]).max(axis=1)       # of k without its trailing zeros
# The bytes kept (0xff) for each (negative, integer digits 1-6, fraction
# digits 1-9): those digits, the point, the space and the sign.  The ranks
# number each byte's integer digit leftwards from the point and its fraction
# digit rightwards, 0 for none.
_NEGATIVE, _INTS, _FRACTIONS = np.indices((2, 6, 9)).reshape(3, -1, 1)
_INTS, _FRACTIONS = _INTS + 1, _FRACTIONS + 1
_INT_RANK = np.array([0, 6, 5, 4, 3, 2, 1] + [0] * 13)
_FRACTION_RANK = np.array([0] * 8 + [1, 2, 3, 0, 4, 5, 6, 0, 7, 8, 9, 0])
_BYTE = np.arange(20)
_KEEP = ((0 < _INT_RANK) & (_INT_RANK <= _INTS) | (0 < _FRACTION_RANK) & (_FRACTION_RANK <= _FRACTIONS)
         | (_BYTE == 7) | (_BYTE == 19) | (_BYTE == 0) & (_NEGATIVE == 1))
_KEEP = (_KEEP * 0xff).astype(np.uint8).view(np.uint32)


def _array_reprs(x: np.ndarray) -> list:
    """``float.__repr__`` of each finite float64 in the 1-D array ``x``.

    Where n = |rint(x * 1e9)| gives n / 1e9 == |x| and 1e-4 <= |x| < 1e6 (or
    x == 0), x is the double nearest to ±n * 10**-9, a decimal of at most 15
    significant digits, so no shorter decimal rounds to x and repr writes
    that decimal in fixed notation: the digits of n with a point before the
    last nine, leading zeros of the integer part and trailing zeros of the
    fraction dropped, and a sign.  Those are read from lookup tables, the
    dropped bytes zeroed and deleted; every other value takes repr.
    """
    n = np.abs(np.rint(np.where(np.abs(x) < 1e6, x, 0.0) * 1e9)).astype(np.int64)
    whole = n // 10 ** 9
    fraction = n - whole * 10 ** 9
    g0 = whole // 1000
    g1 = whole - g0 * 1000
    g2 = fraction // 10 ** 6
    rest = fraction - g2 * 10 ** 6
    g3 = rest // 1000
    g4 = rest - g3 * 1000
    ints = np.where(g0 > 0, 3 + _DIGITS.take(g0), _INT_DIGITS.take(g1))
    fractions = np.where(g4 > 0, 6 + _FRACTION_DIGITS.take(g4),
                         np.where(g3 > 0, 3 + _FRACTION_DIGITS.take(g3), np.maximum(_FRACTION_DIGITS.take(g2), 1)))
    keep = _KEEP.take((np.signbit(x) * 6 + ints - 1) * 9 + fractions - 1, axis=0)
    words = np.stack([_SIGNED.take(g0), _POINTED.take(g1), _SPACED.take(g2), _SPACED.take(g3),
                      _SPACED.take(g4)], axis=1)
    numbers = (words & keep).tobytes().translate(None, b"\0").decode("ascii").split()
    off = np.flatnonzero((n / 1e9 != np.abs(x)) | ((0 < n) & (n < 100000)))
    for i, text in zip(off.tolist(), map(float.__repr__, x[off].tolist())):
        numbers[i] = text
    return numbers


@dataclass(frozen=True)
class AnalysisReport:
    """The counts in plain data, and each mode's (space, CountReport) for ``to_dict``."""

    body: dict
    modes: tuple = field(compare=False, repr=False)

    @property
    def max_identity_residual(self) -> float:
        """Largest residual of a counting identity or a printed character row."""
        worst = 0
        for mode in self.body["modes"]:
            worst = max(worst, abs(mode["identity_residual"]))
        for sym in self.body.get("symmetries", []):
            residual = sym.get("characters", {}).get("residual", 0)
            worst = max(worst, abs(sym["identity_residual"]), abs(residual))
        return worst

    def to_dict(self) -> dict:
        """The body, with each mode's rounded flex and stress bases after its
        flags, as plain lists."""
        body = self._json_body()
        for entry in body["modes"]:
            entry["flexes"] = [{key: a.tolist() for key, a in flex.items()} for flex in entry["flexes"]]
            entry["stresses_basis"] = entry["stresses_basis"].tolist()
        return body

    def _json_body(self) -> dict:
        """``to_dict()`` with each basis the float64 array ``_display_array``
        returns, which the JSON writer reads."""
        entries = []
        for entry, (space, counts) in zip(self.body["modes"], self.modes):
            flexes, dn, d = counts.flex_basis.basis, counts.vertex_dof, space.dimension
            velocities = _display_array(flexes[:dn].T.reshape(flexes.shape[1], dn // d, d))
            distortions = _display_array(space.matrix_from_coordinates(flexes[dn:].T))
            entries.append({**entry, "flexes": [{"vertex_velocities": u, "distortion": a}
                                                for u, a in zip(velocities, distortions)],
                            "stresses_basis": _display_array(counts.stress_basis.basis.T)})
        return {**self.body, "modes": entries}


def analyze_framework(fw: CrystalFramework, modes: Sequence = ("strict", "affine"),
                      name: Optional[str] = None, characters: bool = False) -> AnalysisReport:
    """Run counts (and symmetry counts for declared elements) over the modes.

    A mode is a label ('strict', 'affine' or a space name), whose space is
    the framework's held one (``rigidity._held_space``), or a MatrixSpace,
    reported under its name.
    """
    d = fw.dimension
    mode_entries, mode_counts = [], []
    for mode in modes:
        if isinstance(mode, MatrixSpace):
            space, label = mode, mode.name
        else:
            space, label = _held_space(fw, MODE_LABELS.get(mode, mode)), mode
        counts = analyze_counts(fw, space)
        mode_counts.append((space, counts))
        mode_entries.append({
            "mode": label,
            "space": space.name,
            "vertex_dof": counts.vertex_dof,
            "space_dim": counts.space_dim,
            "edge_count": counts.edge_count,
            "m": counts.mechanisms,
            "s": counts.stresses,
            "f": counts.rigid_motions,
            "identity_residual": counts.identity_residual,
            "flags": list(counts.flags),
        })

    symmetry_entries = []
    for g in fw.symmetries:
        counts = symmetry_counts(fw, g)
        entry = {
            "name": g.name,
            "separable": counts.separable,
            "fixed_vertex_dim": counts.fixed_vertex_dim,
            "commutant_dim": counts.commutant_dim,
            "fixed_domain_dim": counts.fixed_domain_dim,
            "edge_orbits": counts.edge_orbits,
            "f": counts.fixed_rigid_dim,
            "m": counts.mechanisms,
            "s": counts.stresses,
            "identity_residual": counts.identity_residual,
            "predicts_mechanism": counts.flexible_predicted,
            "equation_residual": _display(counts.equation_residual),
        }
        if characters:
            row = character_row(fw, g, counts.commutant)
            entry["characters"] = {
                "space": row.space_name,
                "vertex_trace": _display(row.vertex_trace),
                "edge_trace": _display(row.edge_trace),
                "rigid_trace": _display(row.rigid_trace),
                "mechanism_trace": _display(row.mechanism_trace),
                "stress_trace": _display(row.stress_trace),
                "residual": _display(row.residual),
            }
        symmetry_entries.append(entry)

    body = {
        "format": FORMAT_VERSION,
        "framework": {
            "name": name or "framework",
            "dimension": d,
            "vertex_count": fw.vertex_count,
            "edge_count": fw.edge_count,
            "cell_determinant": _display(fw.lattice.determinant),
            "tolerance": fw.tolerance,
        },
        "modes": mode_entries,
        "symmetries": symmetry_entries,
    }
    return AnalysisReport(body, tuple(mode_counts))


def emit_report(report: AnalysisReport, format: str = "text") -> str:
    if format == "json":
        return _json_text(report._json_body()) + "\n"
    if format != "text":
        raise ValueError(f"unknown report format {format!r}; use 'text' or 'json'")

    body = report.body
    fw = body["framework"]
    lines = [
        f"framework {fw['name']}: d={fw['dimension']}, |Fv|={fw['vertex_count']}, "
        f"|Fe|={fw['edge_count']}, det Z={fw['cell_determinant']}"
    ]
    for mode in body["modes"]:
        lines.append(f"mode {mode['mode']}: m={mode['m']} s={mode['s']} f={mode['f']}")
        lines.append(
            "  m - s = d|Fv| + dimE - |Fe| - f : "
            f"{mode['m']} - {mode['s']} = {mode['vertex_dof']} + {mode['space_dim']} "
            f"- {mode['edge_count']} - {mode['f']} (residual {mode['identity_residual']})"
        )
        for flag in mode["flags"]:
            lines.append(f"  warning: {flag}")
    for sym in body.get("symmetries", []):
        kind = "separable" if sym["separable"] else "nonseparable"
        lines.append(
            f"symmetry {sym['name']} ({kind}): m_g={sym['m']} s_g={sym['s']}, "
            f"dimF={sym['fixed_vertex_dim']} dimE={sym['commutant_dim']} "
            f"fixed={sym['fixed_domain_dim']} e_g={sym['edge_orbits']} f_g={sym['f']} "
            f"(residual {sym['identity_residual']})"
        )
        lines.append(
            f"  equation residual {sym['equation_residual']:.3g}; "
            + ("predicts a symmetric mechanism" if sym["predicts_mechanism"] else "count inconclusive")
        )
        if "characters" in sym:
            ch = sym["characters"]
            lines.append(
                f"  characters (E={ch['space']}): tr_v={ch['vertex_trace']} tr_e={ch['edge_trace']} "
                f"tr_rig={ch['rigid_trace']} tr_mech={ch['mechanism_trace']} "
                f"tr_str={ch['stress_trace']} (residual {ch['residual']:.3g})"
            )
    return "\n".join(lines) + "\n"
