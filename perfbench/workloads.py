"""The benchmark's workloads: set-up, the timed command sequence, and checks.

Every workload is a batch job driven by one closed-loop client: each command
runs through ``anyonforge.cli.main`` in the pass's own interpreter and waits
for the previous one.  A command fails when its exit code or its output
differs from the reference.  References for the fixed queries are pinned in
``reference.json`` (produced by the library at the commit that introduced
this benchmark); never re-freeze them to make a run pass.  The seed only
picks the ``replay`` inputs from a pinned pool; the other workloads are
fixed queries.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from perfbench import replay_inputs

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

EXIT_OK, EXIT_VERIFY, EXIT_NOT_CONVERGED = 0, 2, 3
CONSISTENCY_LEVELS = tuple(range(2, 8))
NOT_MATRIX = [[0, 1], [1, 0]]


class CheckFailed(Exception):
    """An output differs from its reference."""


@dataclass
class Op:
    """One CLI command of the timed sequence and the check of its output."""

    label: str
    argv: list
    expect_exit: int
    check: Callable[[], None]


def _load(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path}: {exc}") from None


def _expect(label: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{label}: got {got!r}, expected {want!r}")


def _curve_rows(path: Path) -> list:
    """(length, best_distance, nodes_explored) rows of a synth curve CSV;
    the seconds column is run-dependent and not compared."""
    try:
        lines = Path(path).read_text().splitlines()[1:]
    except OSError as exc:
        raise CheckFailed(f"cannot read {path}: {exc}") from None
    rows = []
    for line in lines:
        length, best, nodes, _seconds = line.split(",")
        rows.append([int(length), float(best), int(nodes)])
    return rows


# --- gateset --------------------------------------------------------------

GATESET_LENGTHS = {"P": 16, "B1": 16, "B3": 16, "E": 15}
GATESET_REPORTS = {
    "ccz": ["--gate", "ccz", "B1", "P", "B3"],
    "cz": ["--gate", "cz", "P"],
    "merge": ["--gate", "convert", "--direction", "merge", "E"],
    "split": ["--gate", "convert", "--direction", "split", "E"],
}


def gateset(seed: int, work: Path) -> list[Op]:
    """The paper's k=3 pipeline: synth the four components, assemble CCZ,
    CZ and both register conversions, and verify each braid file."""
    out = work / "out"
    out.mkdir(parents=True)
    ref = REFERENCE["gateset"]
    ops = []
    for name, length in GATESET_LENGTHS.items():
        path = out / f"{name}.json"

        def check(name=name, path=path):
            artifact = _load(path)
            _expect(f"{name} word", artifact["word"], ref["synth"][name]["word"])
            _expect(f"{name} distance", artifact["distance"],
                    ref["synth"][name]["distance"])
            _expect(f"{name} curve", _curve_rows(path.with_suffix(".csv")),
                    ref["synth"][name]["curve"])

        ops.append(Op(f"synth {name}",
                      ["synth", "--k", "3", "--target", name, "--max-length",
                       str(length), "--out", str(path)],
                      EXIT_NOT_CONVERGED, check))
    for report, args in GATESET_REPORTS.items():
        path = out / f"{report}.report.json"
        argv = ["assemble", "--out", str(path)] + [
            str(out / f"{a}.json") if a in GATESET_LENGTHS else a for a in args]
        ops.append(Op(f"assemble {report}", argv, EXIT_OK,
                      lambda report=report, path=path: _check_report(
                          report, _load(path), ref["reports"][report])))
    for name in GATESET_LENGTHS:
        path = out / f"{name}.verify.json"
        ops.append(Op(f"verify {name}",
                      ["verify", "--out", str(path), str(out / f"{name}.json")],
                      EXIT_OK,
                      lambda name=name, path=path: _check_verify(
                          _load(path), ref["synth"][name]["distance"])))
    return ops


def _check_report(label: str, report: dict, want: dict) -> None:
    for key, value in want.items():
        _expect(f"{label} {key}", report[key], value)
    _expect(f"{label} bound_satisfied", report["bound_satisfied"], True)


def _check_verify(payload: dict, distance: float) -> None:
    _expect("match", payload["match"], True)
    _expect("stored distance", payload["stored_distance"], distance)
    _expect("recomputed distance", payload["recomputed_distance"], distance)


# --- deep-search ------------------------------------------------------------

def deep_search(workers: int):
    """One long NOT-gate search at k=3, L=20, with ``workers`` processes.
    The artifact must equal the pinned one byte for byte, whatever the
    worker count."""

    def build(seed: int, work: Path) -> list[Op]:
        (work / "in").mkdir(parents=True)
        (work / "out").mkdir()
        target = work / "in" / "NOT.json"
        target.write_text(json.dumps({"name": "NOT", "matrix": NOT_MATRIX}))
        path = work / "out" / "NOT.json"
        ref = REFERENCE["deep-search"]

        def check():
            try:
                artifact = path.read_text()
            except OSError as exc:
                raise CheckFailed(f"cannot read {path}: {exc}") from None
            if artifact != ref["artifact"]:
                raise CheckFailed("NOT artifact differs from the pinned bytes")
            _expect("NOT curve", _curve_rows(path.with_suffix(".csv")),
                    ref["curve"])

        return [Op(f"synth NOT workers={workers}",
                   ["synth", "--k", "3", "--target", str(target),
                    "--max-length", "20", "--workers", str(workers),
                    "--out", str(path)],
                   EXIT_NOT_CONVERGED, check)]

    return build


# --- consistency ------------------------------------------------------------

def consistency(seed: int, work: Path) -> list[Op]:
    """``check`` for k = 2..7, then the corrupted k=3 model, which must fail."""
    out = work / "out"
    out.mkdir(parents=True)
    ops = []
    for k in CONSISTENCY_LEVELS:
        path = out / f"check{k}.json"

        def check(k=k, path=path):
            payload = _load(path)
            _expect(f"k={k} passed", payload["passed"], True)
            _expect(f"k={k} level", payload["k"], k)

        ops.append(Op(f"check k={k}", ["check", "--k", str(k), "--out", str(path)],
                      EXIT_OK, check))
    path = out / "corrupt.json"

    def corrupt_check():
        payload = _load(path)
        _expect("corrupt passed", payload["passed"], False)
        if not payload["pentagon_residual"] > payload["tolerance"]:
            raise CheckFailed("corrupted pentagon residual within tolerance")

    ops.append(Op("check k=3 --debug-corrupt",
                  ["check", "--k", "3", "--debug-corrupt", "--out", str(path)],
                  EXIT_VERIFY, corrupt_check))
    return ops


# --- replay -----------------------------------------------------------------

def replay(seed: int, work: Path) -> list[Op]:
    """Verify every seeded braid file and assemble every set, each command
    building a fresh model as the CLI does; no search runs.  The inputs are
    written by ``replay_inputs`` in an interpreter of its own, so the timed
    commands start on cold caches."""
    out = work / "out"
    out.mkdir(parents=True)
    written = subprocess.run(
        [sys.executable, "-m", "perfbench.replay_inputs", "--seed", str(seed),
         "--out", str(out / "inputs")],
        stdout=subprocess.PIPE, text=True, check=True)
    ops = []
    for n, entry in enumerate(json.loads(written.stdout.splitlines()[-1])):
        k, files, ref = entry["k"], entry["files"], REFERENCE["replay"][entry["key"]]
        for name in replay_inputs.SYSTEMS:
            path = out / f"set{n}-{name}.verify.json"
            ops.append(Op(f"verify k={k} set{n} {name}",
                          ["verify", "--out", str(path), files[name]], EXIT_OK,
                          lambda path=path, d=ref["distance"][name]:
                          _check_verify(_load(path), d)))
        for report, args in GATESET_REPORTS.items():
            path = out / f"set{n}-{report}.report.json"
            argv = ["assemble", "--out", str(path)] + [
                files.get(a, a) for a in args]
            ops.append(Op(f"assemble k={k} set{n} {report}", argv, EXIT_OK,
                          lambda report=report, path=path, want=ref["reports"][report]:
                          _check_report(report, _load(path), want)))
    return ops


# --- registry -----------------------------------------------------------------

WORKLOADS = {
    "gateset": gateset,
    "deep-search": deep_search(1),
    "deep-search-w2": deep_search(2),
    "consistency": consistency,
    "replay": replay,
}

# Span names a traced pass of each workload must show calls for, and span
# names it must not call at all.  A zero here means a traced function was
# rebound or renamed out from under the tracer.
REQUIRED_CALLS = {
    "gateset": ("cli.main", "synth.search", "synth.score_braid",
                "synth.evaluate_tracked", "spaces.enumerate_basis",
                "spaces.braid_generator", "spaces.composite_braid_generator",
                "spaces.regroup", "codes.multi_qubit_code",
                "model.f_symbol", "model.r_symbol",
                "assemble.assemble_ccz", "assemble.assemble_controlled_phase",
                "assemble.convert_registers", "files.canonical_dumps",
                "files.read_braid_file", "files.write_curve_csv"),
    "deep-search": ("cli.main", "synth.search", "synth.evaluate_tracked",
                    "spaces.enumerate_basis", "spaces.braid_generator",
                    "spaces.regroup", "codes.single_qubit_code",
                    "files.canonical_dumps"),
    "deep-search-w2": ("cli.main", "synth.search", "synth.evaluate_tracked",
                       "codes.single_qubit_code", "files.canonical_dumps"),
    "consistency": ("cli.main", "model.verify_pentagon", "model.verify_hexagon",
                    "model.f_symbol", "model.r_symbol",
                    "synth.verify_braid_relations", "spaces.enumerate_basis",
                    "spaces.braid_generator", "spaces.composite_braid_generator"),
    "replay": ("cli.main", "synth.score_braid", "synth.evaluate_tracked",
               "spaces.enumerate_basis", "spaces.braid_generator",
               "spaces.composite_braid_generator", "spaces.regroup",
               "codes.multi_qubit_code", "codes.single_qubit_code",
               "assemble.assemble_ccz", "assemble.assemble_controlled_phase",
               "assemble.convert_registers", "files.read_braid_file",
               "files.canonical_dumps", "files.result_from_payload"),
}
FORBIDDEN_CALLS = {
    "consistency": ("synth.search",),
    "replay": ("synth.search",),
}


def trace_problems(workload: str, calls: dict) -> list[str]:
    """Layers a traced pass should have called but did not, and the reverse."""
    problems = [f"trace: {name} shows zero calls"
                for name in REQUIRED_CALLS[workload] if not calls.get(name)]
    problems += [f"trace: {name} was called"
                 for name in FORBIDDEN_CALLS.get(workload, ()) if calls.get(name)]
    return problems
