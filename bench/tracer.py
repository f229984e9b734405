"""Span tracing of the program's modules, installed from outside.

``Tracer.install`` wraps every public function of each crystalflex module,
in the module that defines it and in every module (and the package) that
imported it, so calls between modules are seen as well as calls from the
benchmark.  ``uninstall`` puts the original functions back.

Each call records a span

    [function id, outer start, start, end, outer end, parent, request, note]

``start``/``end`` bracket the call itself; the outer interval also covers
the wrapper's own bookkeeping, including any note (argument fingerprints,
result sizes).  A span's self time is its duration minus the outer
intervals of its children, so wrapper cost never lands in a module's self
time; it is reported on its own as ``trace.wrapper_s``.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "crystalflex"
MODULES = ("cli", "fileio", "frameworks", "rigidity", "linalg", "symmetry", "catalog", "svg")
FACTOR_FUNCTIONS = ("kernel_basis", "cokernel_basis", "numeric_rank", "column_space_basis")
PARSE_FUNCTIONS = ("parse_framework", "framework_from_dict", "load_framework")

FID, OUTER_START, START, END, OUTER_END, PARENT, REQUEST, NOTE = range(8)


def _matrix_note(args, kwargs, result):
    a = np.ascontiguousarray(np.asarray(args[0] if args else next(iter(kwargs.values())), dtype=float))
    digest = hashlib.blake2b(repr(a.shape).encode() + a.tobytes(), digest_size=16).digest()
    return a.shape, digest


def _framework_note(args, kwargs, result):
    fw = args[0] if args else next(iter(kwargs.values()))
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(fw.lattice.matrix).tobytes())
    h.update(np.ascontiguousarray(fw.positions).tobytes())
    h.update(repr([(e.from_vertex, e.from_cell, e.to_vertex, e.to_cell) for e in fw.edges]).encode())
    h.update(repr(fw.tolerance).encode())
    return h.digest()


def _length_note(args, kwargs, result):
    return len(result)


NOTES = {
    **{f"linalg.{name}": _matrix_note for name in FACTOR_FUNCTIONS},
    "frameworks.validate_framework": _framework_note,
    "fileio.emit_report": _length_note,
}


def svd_flops(name: str, shape) -> float:
    """Nominal Golub-Reinsch operation count of the SVD behind a factor call."""
    a, b = max(shape), min(shape)
    if b == 0:
        return 0.0
    if name == "numeric_rank":            # singular values only
        return 4.0 * a * b * b - 4.0 * b ** 3 / 3.0
    if name == "column_space_basis":      # thin U and V
        return 14.0 * a * b * b + 8.0 * b ** 3
    return 4.0 * a * a * b + 8.0 * a * b * b + 9.0 * b ** 3   # full U and V


class Tracer:
    def __init__(self):
        self.names = []          # function id -> "module.function"
        self.spans = []
        self.stack = []
        self.request = None
        self._patched = []       # (namespace, attribute, original)

    def _wrap(self, qualname, fn):
        fid = len(self.names)
        self.names.append(qualname)
        note = NOTES.get(qualname)
        spans, stack, tracer = self.spans, self.stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [fid, perf_counter(), 0.0, 0.0, 0.0, stack[-1] if stack else -1,
                   tracer.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[END] = rec[OUTER_END] = perf_counter()
                stack.pop()
                raise
            rec[END] = perf_counter()
            stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, result)
            rec[OUTER_END] = perf_counter()
            return result

        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [sys.modules[PACKAGE]] + [sys.modules[f"{PACKAGE}.{m}"] for m in MODULES]
        for module_name in MODULES:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{module_name}.{attr}", fn)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, name, fn))
                            setattr(ns, name, wrapper)

    def uninstall(self):
        for ns, name, fn in reversed(self._patched):
            setattr(ns, name, fn)
        self._patched = []


def analyse(tracer: Tracer) -> dict:
    """Per-layer totals over every recorded span."""
    spans = tracer.spans
    names = tracer.names
    covered = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[OUTER_END] - s[OUTER_START]

    inclusive = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    module_self = defaultdict(float)
    notes = defaultdict(list)
    root_s = wrapper_s = 0.0
    for i, s in enumerate(spans):
        name = names[s[FID]]
        duration = s[END] - s[START]
        self_time = duration - covered[i]
        inclusive[name] += duration
        own[name] += self_time
        calls[name] += 1
        module_self[name.split(".")[0]] += self_time
        if s[NOTE] is not None:
            notes[name].append(s[NOTE])
        if s[PARENT] < 0:
            root_s += duration
        else:
            wrapper_s += (s[OUTER_END] - s[OUTER_START]) - duration
    return {
        "inclusive": inclusive, "self": own, "calls": calls, "module_self": module_self,
        "notes": notes, "root_s": root_s, "wrapper_s": wrapper_s, "spans": len(spans),
    }
