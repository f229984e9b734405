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

import functools
import json
import os
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .frameworks import (
    CELL_LIMIT,
    CrystalFramework,
    InvalidFrameworkError,
    PeriodLattice,
    _EdgeTable,
    _VertexTable,
)
from .linalg import DEFAULT_TOL, tolerance_refusal
from .rigidity import MatrixSpace, _held_space, analyze_counts
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

    tolerance = doc.get("tolerance", DEFAULT_TOL)
    if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)):
        _fail("tolerance", "expected a number")
    if refusal := tolerance_refusal(tolerance):
        _fail("tolerance", refusal)

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
    return json.dumps(framework_to_dict(fw), indent=2) + "\n"


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


def _canonical_signs(basis: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-magnitude entry is positive.

    Makes the SVD-derived bases a report writes reproducible.
    """
    if basis.shape[0] == 0:
        return basis.copy()
    lead = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])]
    return np.where(lead < 0, -basis, basis)


_INDENT = "  "
_BATCH = 1 << 12        # values per numpy pass; larger passes hold more temporaries at once
_RUN_END = "\1"         # marks the end of each run's text in a batch's records


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2)`` and a final newline, with float64 arrays
    rounded and written in bulk.

    ``obj`` may also hold float64 ndarrays, each written as the list of its
    values' ``_display`` would be.  ``json``'s own encoder writes everything
    else; it meets each non-empty, finite 1-D or 2-D array as a string
    holding a token drawn for this call, and the arrays' text replaces the
    quoted tokens afterwards, each nested as deep as its line is indented,
    in runs of whole rows formatted together about ``_BATCH`` values at a
    time (``_runs_text``).
    """
    token, arrays = os.urandom(16).hex(), []

    def leaf(o):
        if not (isinstance(o, np.ndarray) and o.dtype == np.float64):
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        if o.ndim in (1, 2) and o.size and np.isfinite(o).all():
            arrays.append(o)
            return token
        return np.vectorize(_display, otypes=[float])(o).tolist()

    pieces = json.JSONEncoder(indent=2, check_circular=False, default=leaf).encode(obj).split(f'"{token}"')
    if len(pieces) != len(arrays) + 1:
        raise RuntimeError("a string in the JSON equals the placeholder of an array")
    # Array i follows pieces[i], nested as deep as the line that piece ends on is indented.
    lines = (before[before.rfind("\n") + 1:] for before in pieces)
    levels = ((len(line) - len(line.lstrip(" "))) // len(_INDENT) for line in lines)
    parts = []
    for batch in _batches(_array_runs(zip(range(len(arrays)), arrays, levels))):
        for (i, _, width, level, first, _), text in zip(batch, _runs_text(batch)):
            if first:
                parts += (pieces[i], _layout(width, level).opening)
            parts.append(text)
    parts += (pieces[-1], "\n")
    return "".join(parts)


def _array_runs(arrays):
    """(index, values, width, level, first, last) for each run of whole rows,
    about ``_BATCH`` values, of each recorded (index, array, level); width is
    0 for a 1-D array."""
    for i, a, level in arrays:
        width = a.shape[1] if a.ndim == 2 else 0
        step = max(_BATCH // width, 1) * width if width else _BATCH
        flat = a.reshape(-1)
        for start in range(0, flat.size, step):
            yield i, flat[start:start + step], width, level, start == 0, start + step >= flat.size


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


class _Layout(NamedTuple):
    """The uint32 record of one row of an array of some width at some
    nesting level: each number's four digit words, then the separator after
    it, the last number's being the row's end.  ``pattern`` is a row with
    the separators in place and the digit words zero; ``ends`` the two
    endings of a run's last row, more rows to follow and the array closed,
    each with the run-end mark."""

    columns: int        # numbers in a row, 1 for a 1-D array
    slot: int           # words from one number's first digit word to the next one's
    pattern: np.ndarray
    ends: np.ndarray
    opening: str        # the text before an array's first number


def _words(text: str, size: int) -> np.ndarray:
    """``size`` uint32 words of the bytes of ``text``, padded with NULs."""
    return np.frombuffer(text.encode("ascii").ljust(4 * size, b"\0"), dtype=np.uint32)


@functools.lru_cache(maxsize=64)     # bounded: a process may write reports of many widths
def _layout(width: int, level: int) -> _Layout:
    """The record layout of the rows of a width-``width`` array nested
    ``level`` deep; width 0 is a 1-D array, laid out as rows of one number."""
    row = "\n" + _INDENT * (level + 1)
    close = "\n" + _INDENT * level + "]"
    if width:
        cell = row + _INDENT
        opening, inside, more, close = f"[{row}[{cell}", "," + cell, f"{row}],{row}[{cell}", row + "]" + close
    else:
        opening, inside, more = "[" + row, "", "," + row
    columns, slot = max(width, 1), 4 + -(-len(inside) // 4)
    tail = -(-(max(len(more), len(close)) + len(_RUN_END)) // 4)
    pattern = np.concatenate([np.tile(_words("\0" * 16 + inside, slot), columns - 1),
                              _words("\0" * 16 + more, 4 + tail)])
    ends = np.stack([_words(more + _RUN_END, tail), _words(close + _RUN_END, tail)])
    pattern.setflags(write=False)
    ends.setflags(write=False)
    return _Layout(columns, slot, pattern, ends, opening)


def _runs_text(batch) -> list:
    """The text of each run of ``batch``: its numbers, each followed by its
    separator, the last one by the end of its run.

    The runs of each (width, level) fill one uint32 record array with rows
    laid out by ``_layout``, and the arrays are joined as bytes, so one
    translate deletes every NUL of the batch and one split at the run-end
    marks gives each run's text.  A value the digit words do not spell is
    written "%s" and formatted in as the ``float.__repr__`` of its ``_display``.
    """
    groups = {}
    for at, (_, _, width, level, _, _) in enumerate(batch):
        groups.setdefault((width, level), []).append(at)
    order = [at for ats in groups.values() for at in ats]
    x = np.concatenate([batch[at][1] for at in order])
    words, off = _number_words(x)
    blocks, count = [], 0
    for key, ats in groups.items():
        columns, slot, pattern, ends, _ = _layout(*key)
        rows = [batch[at][1].size // columns for at in ats]
        records = np.empty((sum(rows), pattern.size), np.uint32)
        records[:] = pattern
        records[:, :columns * slot].reshape(-1, columns, slot)[:, :, :4] = (
            words[:, count:count + records.shape[0] * columns].T.reshape(-1, columns, 4))
        records[np.cumsum(rows) - 1, -ends.shape[1]:] = ends.take([batch[at][5] for at in ats], axis=0)
        blocks.append(records)
        count += records.shape[0] * columns
    text = b"".join(blocks).translate(None, b"\0").decode("ascii")
    if off.size:
        text %= tuple(repr(_display(v)) for v in x[off].tolist())
    texts = [""] * len(batch)
    for at, run_text in zip(order, text.split(_RUN_END)):
        texts[at] = run_text
    return texts


# A value below 1000 is written from n = rint(|x| * 10**9) as four
# words: the sign and the integer part w = n // 10**9, read at w + 1000 *
# sign; the point and the first fraction triple g2, then the triples g3 and
# g4, each read at g + 1000 when a later triple is not zero, so the
# fraction's trailing zeros are dropped and one digit is kept.  The digits
# a word drops are NUL.
_DIGITS = np.indices((10, 10, 10), dtype=np.uint8).reshape(3, -1).T + ord("0")     # of each k < 1000
_NONZERO = _DIGITS > ord("0")
_LEADING = np.logical_or.accumulate(_NONZERO, axis=1) | [False, False, True]       # from k's first digit
_TRAILING = np.logical_or.accumulate(_NONZERO[:, ::-1], axis=1)[:, ::-1]           # to its last nonzero one
_TABLES = np.zeros((6, 1000, 4), np.uint8)
_TABLES[0:2, :, 1:] = np.where(_LEADING, _DIGITS, 0)
_TABLES[1, :, 0] = ord("-")
_TABLES[2:4, :, 0] = ord(".")
_TABLES[2, :, 1:] = np.where(_TRAILING | [True, False, False], _DIGITS, 0)
_TABLES[3, :, 1:] = _DIGITS
_TABLES[4, :, :3] = np.where(_TRAILING, _DIGITS, 0)
_TABLES[5, :, :3] = _DIGITS
_INTEGERS, _POINTED, _TRIPLED = _TABLES.view(np.uint32).reshape(3, 2000)
_REPR = _words("%s", 4)[:, None]          # the words of a value that float.__repr__ writes
# |x| is read no larger than this, so n is at most 10**12 - 1 and w < 1000;
# every larger value takes repr.
_FAST_END = 999.9999999994


def _number_words(x: np.ndarray):
    """The four uint32 digit words of ``_display`` of each finite float64 in
    the 1-D array ``x``, a (4, x.size) array, and the indices of the values
    whose words are "%s", to take ``float.__repr__`` of their ``_display``.

    n = rint(|x| * 1e9) is the integer nearest the exact |x| * 10**9 unless
    the rounded product lies within its rounding error of a half-integer,
    and then ``round(x, 9)`` is the double nearest to +-n * 10**-9.  For
    |x| < 1000 that is a decimal of at most 12 significant digits, so no
    shorter decimal rounds to it and, if n is 0 or at least 10**5, repr
    writes it in fixed notation: the digits of n with a point before the
    last nine, leading zeros of the integer part and trailing zeros of the
    fraction dropped, and a sign unless n is 0.  The words of those are read
    from the tables; ties, larger values and 0 < n < 10**5 take repr.
    """
    a = np.abs(x)
    scaled = np.minimum(a, _FAST_END) * 1e9
    n = np.rint(scaled)                                    # exact integers below 10**12
    tie = np.abs(scaled - np.floor(scaled) - 0.5) <= np.spacing(scaled)
    off = np.flatnonzero(~(a < _FAST_END) | tie | (np.abs(n - 50000.0) < 50000.0))     # or 0 < n < 10**5
    value = n / 1e9
    whole = np.floor(value)                                # exact: n / 1e9 is at least 1e-9 from w + 1
    fraction = (n - whole * 1e9).astype(np.int32)
    g2 = fraction // 1000000
    rest = fraction - g2 * 1000000
    g3 = rest // 1000
    g4 = rest - g3 * 1000
    words = np.empty((4, x.size), np.uint32)
    _INTEGERS.take((whole + (np.signbit(x) & (n > 0)) * 1000.0).astype(np.intp), out=words[0])
    _POINTED.take(np.minimum(rest, 1) * 1000 + g2, out=words[1])
    _TRIPLED.take(np.minimum(g4, 1) * 1000 + g3, out=words[2])
    _TRIPLED.take(g4, out=words[3])
    words[:, off] = _REPR
    return words, off


@dataclass(frozen=True)
class AnalysisReport:
    """The counts in plain data, and each mode's (space, CountReport) for ``to_dict``."""

    body: dict
    modes: tuple = field(compare=False, repr=False)

    @property
    def max_identity_residual(self) -> float:
        """Largest residual that can be nonzero: a symmetry identity's or a character row's."""
        worst = 0
        for sym in self.body.get("symmetries", []):
            residual = sym.get("characters", {}).get("residual", 0)
            worst = max(worst, abs(sym["identity_residual"]), abs(residual))
        return worst

    def to_dict(self) -> dict:
        """The body, with each mode's flex and stress bases after its flags,
        rounded by ``_display`` as plain lists."""
        body = self._json_body()
        display = np.vectorize(_display, otypes=[float])
        for entry in body["modes"]:
            entry["flexes"] = [{key: display(a).tolist() for key, a in flex.items()}
                               for flex in entry["flexes"]]
            entry["stresses_basis"] = display(entry["stresses_basis"]).tolist()
        return body

    def _json_body(self) -> dict:
        """``to_dict()`` with each basis the float64 array, its column signs
        fixed and not yet rounded, that the JSON writer reads."""
        entries = []
        for entry, (space, counts) in zip(self.body["modes"], self.modes):
            flexes, dn, d = _canonical_signs(counts.flex_basis.basis), counts.vertex_dof, space.dimension
            velocities = flexes[:dn].T.reshape(flexes.shape[1], dn // d, d)
            distortions = space.matrix_from_coordinates(flexes[dn:].T)
            entries.append({**entry, "flexes": [{"vertex_velocities": u, "distortion": a}
                                                for u, a in zip(velocities, distortions)],
                            "stresses_basis": _canonical_signs(counts.stress_basis.basis).T})
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
        return _json_text(report._json_body())
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
