"""Command-line front end.

Commands: ``model`` (charge list, fusion table, quantum dimensions),
``check`` (algebraic consistency suites), ``basis`` (fusion-tree listing),
``synth`` (braid search producing a braid JSON plus a convergence CSV),
``assemble`` (compose stored braids into a logical gate report) and
``verify`` (recompute a stored braid's numbers).

Every command takes ``--out`` (where the JSON artifact goes, checked to be
writable before any work) and ``--format`` (stdout as ``text`` or
``json``; ``synth`` also prints its curve as ``csv``).  ``model``,
``check``, ``basis`` and ``synth`` require the level ``--k``, from 2 to
``MAX_LEVEL``; ``assemble`` and ``verify`` take it from their braid files.
``--tol`` (``check``, ``synth``) must be finite and positive.  A command
given a flag it does not read exits 1.  ``synth --workers N`` runs the
search as one share per usable CPU, at most N.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 search ran
to its length budget without converging.  All machine output is canonical
JSON (fixed key order, 17-significant-digit floats) so identical
invocations are byte-identical; curves are CSV because their wall-clock
column is legitimately run-dependent.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .assemble import assemble_ccz, assemble_controlled_phase, convert_registers
from .files import (assembled_braid_payload, braid_payload, canonical_dumps,
                    curve_csv, gate_report_payload, read_braid_file,
                    result_from_payload, write_curve_csv)
from .model import AnyonModel, ConsistencyError, DEFAULT_TOLERANCE, MAX_LEVEL
from .spaces import enumerate_basis
from .synth import (BUILTIN_TARGETS, make_target_unitary, score_braid, search,
                    verify_braid_relations)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NOT_CONVERGED = 3

# How far a re-scored distance may drift from the stored one.
_DRIFT_TOLERANCE = 1e-12
# The component files each assembled gate takes, by the target id they store.
_GATE_COMPONENTS = {"cz": ("P",), "ccz": ("B1", "P", "B3"), "convert": ("E",)}


class UsageError(ValueError):
    """Bad flags, bad files, bad wiring: anything exit code 1 covers."""


def parse_spin(token: str) -> int:
    """Spin label ("0", "1/2", "1", "3/2") to twice-spin integer charge."""
    token = token.strip()
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            if int(den) != 2:
                raise ValueError
            return int(num)
        return 2 * int(token)
    except ValueError:
        raise UsageError(f"cannot read {token!r} as a spin label") from None


def spin_label(charge: int) -> str:
    return str(charge // 2) if charge % 2 == 0 else f"{charge}/2"


def _emit(args: argparse.Namespace, payload: dict, text: str,
          csv: str | None = None) -> None:
    """stdout per --format; --out always receives the JSON artifact."""
    if args.format == "json":
        sys.stdout.write(canonical_dumps(payload))
    elif args.format == "csv":
        sys.stdout.write(csv)
    else:
        print(text)
    if args.out is not None:
        args.out.write_text(canonical_dumps(payload))


def _beside_out(args: argparse.Namespace, suffix: str) -> Path | None:
    """The second file a command writes beside ``--out`` (its stem plus
    ``suffix``), refused before any work if that name is a directory."""
    if args.out is None:
        return None
    path = args.out.with_name(args.out.stem + suffix)
    if path.is_dir():
        raise UsageError(f"{path}, written beside --out, is a directory")
    return path


# --- commands ------------------------------------------------------------

def cmd_model(args: argparse.Namespace) -> int:
    model = AnyonModel(args.k)
    charges = model.charges
    qdims = [model.qdim(a) for a in charges]
    fusion = [{"a": a, "b": b, "channels": list(model.fuse(a, b))}
              for a in charges for b in charges if a <= b]
    payload = {
        "k": model.k,
        "charges": list(charges),
        "spin_labels": [spin_label(a) for a in charges],
        "quantum_dimensions": qdims,
        "fusion": fusion,
    }
    lines = [f"SU(2)_{model.k} anyon model",
             "charges (spin labels): " + ", ".join(spin_label(a) for a in charges),
             "quantum dimensions: " + ", ".join(f"{d:.12g}" for d in qdims),
             "fusion table:"]
    for entry in fusion:
        channels = " + ".join(spin_label(c) for c in entry["channels"])
        lines.append(f"  {spin_label(entry['a'])} x {spin_label(entry['b'])}"
                     f" = {channels}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    """Pentagon, hexagon and braid relations of one level.

    The braid relations are checked on the sixteen four-strand systems of
    spin-1/2 and spin-1 strands, all in one ``verify_braid_relations``
    pass, which reads its F blocks from the flat table the pentagon built.
    They cover the three-strand ones: at total m, a system (a, b, c) is
    the diagonal block of (a, b, c, d) whose first three strands fuse to
    m, and its s1 s2 s1 = s2 s1 s2 relation is that block of the
    four-strand one, built from the same exchange blocks.  So the reported
    residual is the 24-system maximum up to rounding: equal bit for bit at
    every level but k = 21, 51 and 71, where it is one or two ulps
    (3.9e-31) lower.
    """
    model = AnyonModel(args.k)
    if args.debug_corrupt:
        model.corrupt_f_symbol(1, 1, 1, 1)
    pentagon = model.verify_pentagon()
    hexagon = model.verify_hexagon()
    braid = verify_braid_relations(model, *itertools.product((1, 2), repeat=4))
    worst = max(pentagon, hexagon, braid)
    passed = worst < args.tol
    payload = {
        "k": model.k,
        "pentagon_residual": pentagon,
        "hexagon_residual": hexagon,
        "braid_relation_residual": braid,
        "tolerance": args.tol,
        "passed": passed,
    }
    verdict = "PASS" if passed else "FAIL"
    text = (f"pentagon residual: {pentagon:.3e}\n"
            f"hexagon residual: {hexagon:.3e}\n"
            f"braid-relation residual: {braid:.3e}\n"
            f"{verdict} (tolerance {args.tol:g})")
    _emit(args, payload, text)
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_basis(args: argparse.Namespace) -> int:
    model = AnyonModel(args.k)
    if args.leaves is None:
        raise UsageError("--leaves is required (comma-separated spin labels)")
    leaves = tuple(parse_spin(tok) for tok in args.leaves.split(","))
    basis = enumerate_basis(model, leaves, parse_spin(args.total))
    payload = {
        "k": model.k,
        "leaves": list(basis.leaves),
        "total": basis.total,
        "dim": basis.dim,
        "trees": [list(path) for path in basis.trees],
    }
    lines = [f"{basis.dim} fusion trees over leaves "
             f"({', '.join(spin_label(c) for c in basis.leaves)}) "
             f"with total {spin_label(basis.total)}:"]
    for path in basis.trees:
        lines.append("  " + " ".join(str(c) for c in path))
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _load_unitary_target(model: AnyonModel, path: Path):
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read unitary target file {path}: {exc}")
    if type(data) is not dict or "matrix" not in data:
        raise UsageError(f"{path} has no 'matrix' entry")
    unknown = sorted(set(data) - {"matrix", "name"})
    if unknown:
        raise UsageError(f"{path} has unknown keys {unknown}")

    def number(x) -> bool:
        return type(x) in (int, float)

    def entry(z) -> bool:
        return number(z) or (type(z) is list and len(z) == 2 and all(map(number, z)))

    rows, name = data["matrix"], data.get("name", path.stem)
    if type(rows) is not list or not all(
            type(row) is list and all(map(entry, row)) for row in rows):
        raise UsageError(f"{path}: 'matrix' must list rows of numbers or "
                         "[re, im] pairs")
    if type(name) is not str:
        raise UsageError(f"{path}: 'name' must be a string")
    matrix = np.array([[complex(*z) if type(z) is list else complex(z) for z in row]
                       for row in rows])
    return make_target_unitary(model, matrix, name=name)


def cmd_synth(args: argparse.Namespace) -> int:
    if args.out is not None and args.out.suffix == ".csv":
        raise UsageError(f"--out {args.out} is where the curve CSV goes; "
                         "give the JSON artifact another suffix")
    curve_out = _beside_out(args, ".csv")
    model = AnyonModel(args.k)
    if args.target in BUILTIN_TARGETS:
        target = BUILTIN_TARGETS[args.target](model)
    else:
        target = _load_unitary_target(model, Path(args.target))
    result = search(model, target, args.max_length, tolerance=args.tol,
                    workers=args.workers)
    payload = braid_payload(result)
    word = " ".join(f"s{p}{'+' if e > 0 else '-'}"
                    for p, e in result.braid.letters) or "(empty)"
    status = "converged" if result.converged else "not converged"
    text = (f"target {target.name} (k={model.k}), max length "
            f"{args.max_length}\n"
            f"best distance {result.distance!r} at length {len(result.braid)}"
            f" ({status})\n"
            f"leakage {result.leakage!r}\n"
            f"braid: {word}")
    _emit(args, payload, text, csv=curve_csv(result.stats))
    if curve_out is not None:
        write_curve_csv(curve_out, result.stats)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _read_braid(path: Path) -> dict:
    """A stored braid file's payload; a file that cannot be read is a
    usage error."""
    try:
        return read_braid_file(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read braid file {path}: {exc}")


def _rescore(model: AnyonModel, payload: dict):
    """A stored braid (read by ``_read_braid``) scored afresh: the result
    and how far its distance drifts from the stored one."""
    target, braid = result_from_payload(model, payload)
    result = score_braid(model, target, braid)
    return result, abs(result.distance - payload["distance"])


def cmd_assemble(args: argparse.Namespace) -> int:
    if (args.direction is None) == (args.gate == "convert"):
        raise UsageError("--direction merge or split goes with --gate convert, "
                         "and only with it")
    braid_out = _beside_out(args, ".braid.json")
    payloads = [(path, _read_braid(path)) for path in args.components]
    ks = {payload["k"] for _, payload in payloads}
    if len(ks) > 1:
        raise UsageError(f"component files disagree on k: {sorted(ks)}")
    needed = _GATE_COMPONENTS[args.gate]
    ids = [payload["target"] for _, payload in payloads]
    if sorted(ids) != sorted(needed):
        raise UsageError(f"gate {args.gate} takes one component each of "
                         f"{', '.join(needed)}; got {', '.join(ids)}")
    model = AnyonModel(ks.pop())
    loaded = {}
    for path, payload in payloads:
        result, drift = _rescore(model, payload)
        if drift > _DRIFT_TOLERANCE:
            raise ConsistencyError(
                f"{path}: stored distance {payload['distance']!r} does not "
                f"reproduce (recomputed {result.distance!r})")
        loaded[payload["target"]] = result

    if args.gate == "cz":
        report = assemble_controlled_phase(model, loaded["P"])
    elif args.gate == "ccz":
        report = assemble_ccz(model, loaded["B1"], loaded["P"], loaded["B3"])
    else:
        report = convert_registers(model, args.direction, loaded["E"])

    payload = gate_report_payload(report)
    budget = ", ".join(f"{name} {dist:.6g}" for name, dist in
                       report.component_budget)
    text = (f"gate {report.gate} (k={report.k})\n"
            f"distance to target: {report.distance_to_target!r}\n"
            f"leakage: {report.leakage!r}\n"
            f"component budget: {budget} (total {report.budget_total:.6g})\n"
            f"braid length total: {report.braid_length_total}\n"
            f"bound satisfied: {report.bound_satisfied}; "
            f"trivial phases cancelled: {report.phases_cancelled}")
    _emit(args, payload, text)
    if braid_out is not None:
        braid_out.write_text(canonical_dumps(assembled_braid_payload(report)))
    if not report.bound_satisfied:
        print("composition bound violated", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    payload = _read_braid(args.braid)
    model = AnyonModel(payload["k"])
    result, drift = _rescore(model, payload)
    match = drift <= _DRIFT_TOLERANCE
    name = result.target.name
    out = {
        "target": name,
        "k": model.k,
        "stored_distance": payload["distance"],
        "recomputed_distance": result.distance,
        "drift": drift,
        "match": match,
    }
    verdict = (f"verified within {_DRIFT_TOLERANCE:g}" if match
               else f"MISMATCH beyond {_DRIFT_TOLERANCE:g}")
    text = (f"target {name} (k={model.k}): stored "
            f"{payload['distance']!r}, recomputed {result.distance!r}\n"
            f"{verdict}")
    _emit(args, out, text)
    return EXIT_OK if match else EXIT_VERIFY


# --- argument plumbing ---------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _writable(text: str) -> Path:
    """``--out``: a file path in a directory this process may write to."""
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"output path {path} is a directory")
    if not (path.parent.is_dir() and os.access(path.parent, os.W_OK)):
        raise argparse.ArgumentTypeError(f"output path {path} is not writable")
    return path


def _tolerance(text: str) -> float:
    """``--tol``: a finite positive number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process.  Usage and help output
    go to ``sys.stderr``/``sys.stdout`` as they are when printed."""
    parser = _Parser(prog="anyonforge",
                     description="SU(2)_k anyon braid synthesis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, level=True, tol=False,
                formats=("json", "text")):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        if level:
            p.add_argument("--k", type=int, required=True,
                           help=f"model level (2 <= k <= {MAX_LEVEL})")
        p.add_argument("--out", type=_writable,
                       help="write the JSON artifact here")
        p.add_argument("--format", default="text", choices=formats,
                       help="stdout format (default %(default)s)")
        if tol:
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOLERANCE,
                           help="tolerance (default %(default)g)")
        return p

    command("model", cmd_model, "charges, fusion table, dimensions")

    p_check = command("check", cmd_check, "pentagon/hexagon/braid suites", tol=True)
    p_check.add_argument("--debug-corrupt", action="store_true",
                         help="damage one F block first (must then fail)")

    p_basis = command("basis", cmd_basis, "fusion-tree basis listing")
    p_basis.add_argument("--leaves", type=str, default=None,
                         help="comma-separated spin labels, e.g. 1/2,1/2,1")
    p_basis.add_argument("--total", type=str, default="0",
                         help="total charge spin label (default 0)")

    p_synth = command("synth", cmd_synth, "search for a braid realizing a target",
                      tol=True, formats=("json", "csv", "text"))
    p_synth.add_argument("--target", type=str, required=True,
                         help=f"{', '.join(BUILTIN_TARGETS)}, or a single-qubit "
                              "unitary JSON file")
    p_synth.add_argument("--max-length", type=int, default=8)
    p_synth.add_argument("--workers", type=int, default=1)

    p_asm = command("assemble", cmd_assemble, "compose stored braids into a gate",
                    level=False)
    p_asm.add_argument("--gate", choices=tuple(_GATE_COMPONENTS), required=True)
    p_asm.add_argument("--direction", choices=("merge", "split"), default=None)
    gates = "; ".join(f"{gate}: {' '.join(ids)}"
                      for gate, ids in _GATE_COMPONENTS.items())
    p_asm.add_argument("components", nargs="+", type=Path,
                       help=f"braid JSON files ({gates})")

    p_verify = command("verify", cmd_verify, "recompute a stored braid's numbers",
                       level=False)
    p_verify.add_argument("braid", type=Path, help="braid JSON file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, RuntimeError, KeyError) as exc:
        # UsageError, EncodingError and AssemblyError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
