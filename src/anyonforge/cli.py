"""Command-line front end.

Commands: ``model`` (charge list, fusion table, quantum dimensions),
``check`` (algebraic consistency suites), ``basis`` (fusion-tree listing),
``synth`` (braid search producing a braid JSON plus a convergence CSV),
``assemble`` (compose stored braids into a logical gate report) and
``verify`` (recompute a stored braid's numbers).

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 search ran
to its length budget without converging.  All machine output is canonical
JSON (fixed key order, 17-significant-digit floats) so identical
invocations are byte-identical; curves are CSV because their wall-clock
column is legitimately run-dependent.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assemble import (AssemblyError, assemble_ccz, assemble_controlled_phase,
                       convert_registers)
from .codes import EncodingError
from .files import (assembled_braid_payload, braid_payload, canonical_dumps,
                    curve_csv, gate_report_payload, read_braid_file,
                    result_from_payload, write_braid_file, write_curve_csv)
from .model import AnyonModel, ConsistencyError, DEFAULT_TOLERANCE
from .spaces import enumerate_basis
from .synth import (BUILTIN_TARGETS, SearchConfig, make_target_unitary,
                    score_braid, search, verify_braid_relations)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NOT_CONVERGED = 3


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


@dataclass(frozen=True)
class JobConfig:
    """Validated command parameters, mirrored from the flags."""

    command: str
    k: int | None = None
    target: str | None = None
    max_length: int = 8
    tolerance: float = DEFAULT_TOLERANCE
    phase_tolerance: float = 1e-9
    weave_only: bool = True
    workers: int = 1
    out: Path | None = None
    fmt: str = "text"
    leaves: tuple[int, ...] = ()
    total: int = 0
    gate: str | None = None
    direction: str | None = None
    components: tuple[Path, ...] = ()
    debug_corrupt: bool = False

    def __post_init__(self):
        if self.k is not None and self.k < 2:
            raise UsageError(f"k must be at least 2, got {self.k}")
        if self.workers < 1:
            raise UsageError("workers must be at least 1")
        if self.out is not None:
            parent = self.out.parent if str(self.out.parent) else Path(".")
            if not os.access(parent, os.W_OK):
                raise UsageError(f"output path {self.out} is not writable")

    def model(self) -> AnyonModel:
        if self.k is None:
            raise UsageError("--k is required for this command")
        return AnyonModel(self.k)


def _emit(config: JobConfig, payload: dict | None, text: str,
          csv: str | None = None) -> None:
    """stdout per --format; --out always receives the JSON artifact."""
    if config.fmt == "json":
        if payload is None:
            raise UsageError("this command has no JSON form")
        sys.stdout.write(canonical_dumps(payload))
    elif config.fmt == "csv":
        if csv is None:
            raise UsageError("csv output is only available for synth curves")
        sys.stdout.write(csv)
    else:
        print(text)
    if config.out is not None and payload is not None:
        config.out.write_text(canonical_dumps(payload))


# --- commands ------------------------------------------------------------

def cmd_model(config: JobConfig) -> int:
    model = config.model()
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
    _emit(config, payload, "\n".join(lines))
    return EXIT_OK


def cmd_check(config: JobConfig) -> int:
    model = config.model()
    if config.debug_corrupt:
        model.corrupt_f_symbol(1, 1, 1, 1)
    pentagon = model.verify_pentagon()
    hexagon = model.verify_hexagon()
    braid = 0.0
    for size in (3, 4):
        for leaves in np.ndindex(*([2] * size)):
            system = tuple(int(c) + 1 for c in leaves)
            braid = max(braid, verify_braid_relations(model, system))
    worst = max(pentagon, hexagon, braid)
    passed = worst < config.tolerance
    payload = {
        "k": model.k,
        "pentagon_residual": pentagon,
        "hexagon_residual": hexagon,
        "braid_relation_residual": braid,
        "tolerance": config.tolerance,
        "passed": passed,
    }
    verdict = "PASS" if passed else "FAIL"
    text = (f"pentagon residual: {pentagon:.3e}\n"
            f"hexagon residual: {hexagon:.3e}\n"
            f"braid-relation residual: {braid:.3e}\n"
            f"{verdict} (tolerance {config.tolerance:g})")
    _emit(config, payload, text)
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_basis(config: JobConfig) -> int:
    model = config.model()
    if not config.leaves:
        raise UsageError("--leaves is required (comma-separated spin labels)")
    basis = enumerate_basis(model, config.leaves, config.total)
    payload = {
        "k": model.k,
        "leaves": list(basis.leaves),
        "total": basis.total,
        "dim": basis.dim,
        "trees": [list(tree.internals) for tree in basis.trees],
    }
    lines = [f"{basis.dim} fusion trees over leaves "
             f"({', '.join(spin_label(c) for c in basis.leaves)}) "
             f"with total {spin_label(basis.total)}:"]
    for tree in basis.trees:
        lines.append("  " + " ".join(str(c) for c in tree.internals))
    _emit(config, payload, "\n".join(lines))
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


def cmd_synth(config: JobConfig) -> int:
    model = config.model()
    if config.target is None:
        raise UsageError("--target is required (P, B1, B3, E, or a unitary file)")
    if config.target in BUILTIN_TARGETS:
        target = BUILTIN_TARGETS[config.target](model)
    else:
        target = _load_unitary_target(model, Path(config.target))
    search_config = SearchConfig(
        max_length=config.max_length, tolerance=config.tolerance,
        phase_tolerance=config.phase_tolerance, weave_only=config.weave_only)
    result = search(model, target, search_config, workers=config.workers)
    payload = braid_payload(result)
    word = " ".join(f"s{p}{'+' if e > 0 else '-'}"
                    for p, e in result.braid.letters) or "(empty)"
    status = "converged" if result.converged else "not converged"
    text = (f"target {target.name} (k={model.k}), max length "
            f"{config.max_length}\n"
            f"best distance {result.distance!r} at length {len(result.braid)}"
            f" ({status})\n"
            f"leakage {result.leakage!r}\n"
            f"braid: {word}")
    _emit(config, payload, text, csv=curve_csv(result.stats))
    if config.out is not None:
        write_curve_csv(config.out.with_suffix(".csv"), result.stats)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _read_braid(path: Path) -> dict:
    """A stored braid file's payload; a file that cannot be read is a
    usage error."""
    try:
        return read_braid_file(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read braid file {path}: {exc}")


def _load_component(model: AnyonModel, path: Path, payload: dict):
    """Stored braid (read by ``_read_braid``) -> re-scored SynthesisResult,
    cross-checked at 1e-12."""
    target, braid = result_from_payload(model, payload)
    result = score_braid(model, target, braid)
    drift = abs(result.distance - payload["distance"])
    if drift > 1e-12:
        raise ConsistencyError(
            f"{path}: stored distance {payload['distance']!r} does not "
            f"reproduce (recomputed {result.distance!r})")
    return payload["target"], result


def cmd_assemble(config: JobConfig) -> int:
    if not config.components:
        raise UsageError("assemble needs component braid files")
    payloads = [(path, _read_braid(path)) for path in config.components]
    ks = {payload["k"] for _, payload in payloads}
    if len(ks) > 1:
        raise UsageError(f"component files disagree on k: {sorted(ks)}")
    k = ks.pop()
    if config.k is not None and config.k != k:
        raise UsageError(f"--k {config.k} contradicts component files (k={k})")
    model = AnyonModel(k)
    loaded = dict(_load_component(model, path, payload)
                  for path, payload in payloads)

    def pick(name: str):
        if name not in loaded:
            raise UsageError(f"gate {config.gate} needs a {name} component; "
                             f"got {sorted(loaded)}")
        return loaded[name]

    if config.gate == "cz":
        report = assemble_controlled_phase(model, pick("P"))
    elif config.gate == "ccz":
        report = assemble_ccz(model, pick("B1"), pick("P"), pick("B3"))
    elif config.gate == "convert":
        if config.direction not in ("merge", "split"):
            raise UsageError("convert needs --direction merge or split")
        report = convert_registers(model, config.direction, pick("E"))
    else:
        raise UsageError(f"unknown gate {config.gate!r}")

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
    _emit(config, payload, text)
    if config.out is not None:
        braid_out = config.out.with_name(config.out.stem + ".braid.json")
        braid_out.write_text(canonical_dumps(assembled_braid_payload(report)))
    if not report.bound_satisfied:
        print("composition bound violated", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(config: JobConfig) -> int:
    payload = _read_braid(config.components[0])
    model = AnyonModel(payload["k"])
    target, braid = result_from_payload(model, payload)
    result = score_braid(model, target, braid)
    drift = abs(result.distance - payload["distance"])
    match = drift <= 1e-12
    out = {
        "target": target.name,
        "k": model.k,
        "stored_distance": payload["distance"],
        "recomputed_distance": result.distance,
        "drift": drift,
        "match": match,
    }
    verdict = "verified within 1e-12" if match else "MISMATCH beyond 1e-12"
    text = (f"target {target.name} (k={model.k}): stored "
            f"{payload['distance']!r}, recomputed {result.distance!r}\n"
            f"{verdict}")
    _emit(config, out, text)
    return EXIT_OK if match else EXIT_VERIFY


# --- argument plumbing ---------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process.  Usage and help output
    go to ``sys.stderr``/``sys.stdout`` as they are when printed."""
    parser = _Parser(prog="anyonforge",
                     description="SU(2)_k anyon braid synthesis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k_required=True):
        p.add_argument("--k", type=int, default=None, required=False,
                       help="model level (k >= 2)")
        p.add_argument("--out", type=Path, default=None,
                       help="write the JSON artifact here")
        p.add_argument("--format", dest="fmt", default="text",
                       choices=("json", "csv", "text"),
                       help="stdout format (default text)")
        p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                       help="matrix tolerance (default 1e-9)")

    p_model = sub.add_parser("model", help="charges, fusion table, dimensions")
    common(p_model)

    p_check = sub.add_parser("check", help="pentagon/hexagon/braid suites")
    common(p_check)
    p_check.add_argument("--debug-corrupt", action="store_true",
                         help="damage one F block first (must then fail)")

    p_basis = sub.add_parser("basis", help="fusion-tree basis listing")
    common(p_basis)
    p_basis.add_argument("--leaves", type=str, default=None,
                         help="comma-separated spin labels, e.g. 1/2,1/2,1")
    p_basis.add_argument("--total", type=str, default="0",
                         help="total charge spin label (default 0)")

    p_synth = sub.add_parser("synth", help="search for a braid realizing a target")
    common(p_synth)
    p_synth.add_argument("--target", type=str, default=None,
                         help="P, B1, B3, E, or a single-qubit unitary JSON file")
    p_synth.add_argument("--max-length", type=int, default=8)
    p_synth.add_argument("--phase-tol", type=float, default=1e-9)
    p_synth.add_argument("--weave-only", action=argparse.BooleanOptionalAction,
                         default=True, help="restrict to one mobile block")
    p_synth.add_argument("--workers", type=int, default=1)

    p_asm = sub.add_parser("assemble", help="compose stored braids into a gate")
    common(p_asm)
    p_asm.add_argument("--gate", choices=("cz", "ccz", "convert"), required=True)
    p_asm.add_argument("--direction", choices=("merge", "split"), default=None)
    p_asm.add_argument("components", nargs="+", type=Path,
                       help="braid JSON files (cz: P; ccz: B1 P B3; convert: E)")

    p_verify = sub.add_parser("verify", help="recompute a stored braid's numbers")
    common(p_verify)
    p_verify.add_argument("components", nargs=1, type=Path,
                          help="braid JSON file")
    return parser


def _job_config(ns: argparse.Namespace) -> JobConfig:
    leaves: tuple[int, ...] = ()
    total = 0
    if getattr(ns, "leaves", None):
        leaves = tuple(parse_spin(tok) for tok in ns.leaves.split(","))
        total = parse_spin(ns.total)
    return JobConfig(
        command=ns.command,
        k=ns.k,
        target=getattr(ns, "target", None),
        max_length=getattr(ns, "max_length", 8),
        tolerance=ns.tol,
        phase_tolerance=getattr(ns, "phase_tol", 1e-9),
        weave_only=getattr(ns, "weave_only", True),
        workers=getattr(ns, "workers", 1),
        out=ns.out,
        fmt=ns.fmt,
        leaves=leaves,
        total=total,
        gate=getattr(ns, "gate", None),
        direction=getattr(ns, "direction", None),
        components=tuple(getattr(ns, "components", ()) or ()),
        debug_corrupt=getattr(ns, "debug_corrupt", False),
    )


_COMMANDS = {
    "model": cmd_model,
    "check": cmd_check,
    "basis": cmd_basis,
    "synth": cmd_synth,
    "assemble": cmd_assemble,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        config = _job_config(ns)
        return _COMMANDS[config.command](config)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EncodingError, AssemblyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
