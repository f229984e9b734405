"""Command-line front end.

Exit codes: 0 success, 2 input or usage error, 3 internal inconsistency
(a Maxwell-Calladine identity or a printed character row failed to close,
which indicates broken rank decisions rather than bad input).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .catalog import BUILTIN_NAMES, builtin_framework
from .fileio import (
    FrameworkParseError,
    analyze_framework,
    emit_report,
    load_framework,
    parse_matrix_space,
    serialize_framework,
)
from .frameworks import InvalidFrameworkError, supercell
from .linalg import MIN_TOL
from .rigidity import MATRIX_SPACE_NAMES, DependentBasisError
from .svg import render_svg
from .symmetry import SymmetryError

USAGE_ERROR, INCONSISTENCY_ERROR = 2, 3


class CliError(Exception):
    def __init__(self, message, code=USAGE_ERROR):
        super().__init__(message)
        self.code = code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystalflex",
        description="Rigidity analysis of periodic bar-joint frameworks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("file", nargs="?", help="framework JSON file")
        p.add_argument("--builtin", metavar="NAME",
                       help=f"use a builtin framework ({', '.join(BUILTIN_NAMES)})")
        p.add_argument("--tol", type=float, metavar="T", help="override the rank tolerance")

    p = sub.add_parser("analyze", help="flex/stress/rigid-motion counts")
    add_input(p)
    p.add_argument("--mode", nargs="+", metavar="MODE",
                   help="strict | affine | space SPEC  (SPEC: zero, full, symmetric, "
                        "skew, diagonal, custom:FILE); default runs strict and affine")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("symmetry", help="symmetry-adapted counts for declared elements")
    add_input(p)
    p.add_argument("--element", metavar="NAME", help="restrict to one declared element")
    p.add_argument("--characters", action="store_true", help="include trace rows")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("supercell", help="rewrite over a coarser lattice")
    add_input(p)
    p.add_argument("--n", required=True, metavar="n1,...,nd", help="multiplicities per axis")
    p.add_argument("-o", "--output", metavar="OUT", help="output file (default stdout)")

    p = sub.add_parser("svg", help="render a planar fragment")
    add_input(p)
    p.add_argument("--cells", required=True, metavar="RANGE",
                   help="cell box: 'AxB' counting from 0, or 'a:b,c:d'")
    p.add_argument("-o", "--output", required=True, metavar="OUT.svg")

    sub.add_parser("builtins", help="list builtin frameworks")
    return parser


def _load_input(args):
    if args.file and args.builtin:
        raise CliError("give either a framework file or --builtin, not both")
    if args.builtin:
        try:
            fw = builtin_framework(args.builtin)
        except ValueError as exc:
            raise CliError(str(exc))
        name = args.builtin
    elif args.file:
        try:
            fw = load_framework(args.file)
        except OSError as exc:
            raise CliError(f"cannot read {args.file}: {exc.strerror or exc}")
        name = args.file
    else:
        raise CliError("no input: give a framework file or --builtin NAME")
    if args.tol is not None:
        if args.tol <= 0:
            raise CliError("--tol must be positive")
        if not math.isfinite(args.tol):
            raise CliError("--tol must be finite")
        if args.tol < MIN_TOL:
            raise CliError(f"--tol must be at least {MIN_TOL:.2g}")
        try:
            fw = fw.with_tolerance(args.tol)
        except InvalidFrameworkError as exc:
            raise CliError(f"tolerance {args.tol:g} is too large: " + "; ".join(exc.violations))
        except SymmetryError as exc:
            raise CliError(f"--tol {args.tol:g}: {exc}")
    return fw, name


def _resolve_modes(args, fw):
    """The modes of ``analyze``: labels, or the MatrixSpace of a custom file."""
    if not args.mode:
        return ["strict", "affine"]
    tokens = list(args.mode)
    if tokens == ["strict"] or tokens == ["affine"]:
        return tokens
    if tokens[0] == "space" and len(tokens) == 2:
        spec = tokens[1]
        if spec.startswith("custom:"):
            path = spec[len("custom:"):]
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    space = parse_matrix_space(handle.read(), fw.dimension, fw.tolerance)
            except OSError as exc:
                raise CliError(f"cannot read {path}: {exc.strerror or exc}")
            return [space]
        if spec not in MATRIX_SPACE_NAMES:
            raise CliError(
                f"unknown space {spec!r}; known: {', '.join(MATRIX_SPACE_NAMES)} or custom:FILE")
        return [spec]
    raise CliError("--mode expects 'strict', 'affine', or 'space SPEC'")


def _parse_cells(text, dimension):
    if "x" in text and ":" not in text:
        counts = text.split("x")
        try:
            if len(counts) == dimension and all(c.isdigit() for c in counts):
                return [(0, int(c)) for c in counts]
        except ValueError:      # more digits than int() converts
            pass
        raise CliError(f"--cells {text!r}: expected {dimension} counts like '3x3'")
    ranges = []
    for part in text.split(","):
        bounds = part.split(":")
        try:
            a, b = (int(x) for x in bounds)
        except ValueError:
            raise CliError(f"--cells {text!r}: expected ranges like '0:3,0:3'")
        ranges.append((a, b))
    if len(ranges) != dimension:
        raise CliError(f"--cells {text!r}: expected {dimension} ranges")
    return ranges


def _write_output(path, text):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}")


def _report(fw, as_json, **options):
    """Analyze, write the report and check that every counting identity closes."""
    try:
        report = analyze_framework(fw, **options)
        text = emit_report(report, "json" if as_json else "text")
    except DependentBasisError as exc:
        # Every space built for the report has an orthonormal basis, so only
        # a tolerance that hides unit singular values can make it fail.
        raise CliError(f"tolerance {fw.tolerance:g} is too large: {exc}")
    sys.stdout.write(text)
    if report.max_identity_residual != 0:
        sys.stderr.write("error: counting identity failed to close "
                         "(internal inconsistency)\n")
        return INCONSISTENCY_ERROR
    return 0


def _cmd_analyze(args) -> int:
    fw, name = _load_input(args)
    return _report(fw, args.json, modes=_resolve_modes(args, fw), name=name)


def _cmd_symmetry(args) -> int:
    fw, name = _load_input(args)
    if args.element is not None:
        matching = tuple(g for g in fw.symmetries if g.name == args.element)
        if not matching:
            declared = ", ".join(g.name for g in fw.symmetries) or "none"
            raise CliError(f"no declared symmetry named {args.element!r} (declared: {declared})")
        fw = fw.with_symmetries(matching)
    if not fw.symmetries and not args.json:
        sys.stdout.write(f"framework {name}: no declared symmetries\n")
        return 0
    return _report(fw, args.json, modes=(), name=name, characters=args.characters)


def _cmd_supercell(args) -> int:
    fw, _ = _load_input(args)
    try:
        factors = [int(x) for x in args.n.split(",")]
    except ValueError:
        raise CliError(f"--n {args.n!r}: expected comma-separated integers")
    try:
        big = supercell(fw, factors)
    except ValueError as exc:
        raise CliError(f"--n {args.n!r}: {exc}")
    if args.output:
        _write_output(args.output, serialize_framework(big))
    else:
        sys.stdout.write(serialize_framework(big))
    return 0


def _cmd_svg(args) -> int:
    fw, _ = _load_input(args)
    if fw.dimension != 2:
        raise CliError("SVG rendering requires a 2-dimensional framework")
    ranges = _parse_cells(args.cells, fw.dimension)
    try:
        document = render_svg(fw, ranges)
    except ValueError as exc:
        # In the plane every refusal is of the box of cells: an empty or
        # too large range.
        raise CliError(f"--cells {args.cells!r}: {exc}")
    _write_output(args.output, document)
    return 0


def _cmd_builtins(_args) -> int:
    for name in BUILTIN_NAMES:
        sys.stdout.write(name + "\n")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "symmetry": _cmd_symmetry,
    "supercell": _cmd_supercell,
    "svg": _cmd_svg,
    "builtins": _cmd_builtins,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except (FrameworkParseError, InvalidFrameworkError, SymmetryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
