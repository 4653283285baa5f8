"""Deterministic on-disk formats: braid files, convergence curves, reports.

All JSON is emitted by a single canonical serializer so identical inputs
produce byte-identical files: dict keys keep insertion order (payload
builders fix it), floats carry 17 significant digits (round-trip exact),
complex numbers become [re, im] pairs.  CSV is reserved for convergence
curves, whose per-pass wall-clock seconds are the one legitimately
run-dependent quantity and therefore never appear in JSON.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import replace
from pathlib import Path

import numpy as np

from .model import AnyonModel
from .synth import (BUILTIN_TARGETS, BraidWord, MatrixRule, SearchStats,
                    SynthesisResult, SynthesisTarget, make_target_unitary)

__all__ = [
    "canonical_dumps",
    "braid_payload",
    "write_braid_file",
    "read_braid_file",
    "target_from_payload",
    "result_from_payload",
    "curve_csv",
    "write_curve_csv",
    "gate_report_payload",
    "assembled_braid_payload",
]


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} has no canonical form")
    text = format(float(x), ".17g")
    # Normalize bare integers so 1.0 and 1 don't collide as "1".
    if "." not in text and "e" not in text:
        text += ".0"
    return text


def _scalar(obj) -> str:
    """The text of a str, bool, None, int, complex or float, numpy scalars
    included."""
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return f"[{_format_float(z.real)}, {_format_float(z.imag)}]"
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    raise TypeError(f"no canonical JSON form for {type(obj).__name__}")


def _encode(obj, pieces: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            pieces.append(f"{pad}  {json.dumps(key)}: ")
            _encode(value, pieces, indent + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        # A list of numbers only, the empty one too, takes one line.
        if all(isinstance(x, numbers.Number) for x in obj):
            pieces.append("[" + ", ".join(map(_scalar, obj)) + "]")
            return
        pieces.append("[\n")
        for i, x in enumerate(obj):
            pieces.append(pad + "  ")
            _encode(x, pieces, indent + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        pieces.append(_scalar(obj))


def canonical_dumps(payload) -> str:
    pieces: list[str] = []
    _encode(payload, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


# --- braid files ---------------------------------------------------------

def braid_payload(result: SynthesisResult) -> dict:
    target = result.target
    payload = {
        "k": target.k,
        "leaves": list(target.leaves),
        "grouping": [list(block) for block in target.blocks],
        "word": [[pos, exp] for pos, exp in result.braid.letters],
        "target": target.name,
        "distance": result.distance,
    }
    rule = next((r for r in target.rules if isinstance(r, MatrixRule)), None)
    if rule is not None:
        # Sector-frame matrix, read back verbatim by target_from_payload.
        payload["target_matrix"] = [list(row) for row in rule.target]
    return payload


def write_braid_file(path, result: SynthesisResult) -> None:
    Path(path).write_text(canonical_dumps(braid_payload(result)))


def _ints(value) -> bool:
    """A JSON list of integers (true and false are not integers here)."""
    return type(value) is list and all(type(x) is int for x in value)


def _number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def read_braid_file(path) -> dict:
    """A braid file's payload.  Raises ValueError unless it holds exactly
    the keys ``braid_payload`` writes, each with its JSON type."""
    payload = json.loads(Path(path).read_text())
    if type(payload) is not dict:
        raise ValueError("braid file must hold a JSON object")
    keys = ("k", "leaves", "grouping", "word", "target", "distance")
    for key in keys:
        if key not in payload:
            raise ValueError(f"braid file missing key {key!r}")
    unknown = sorted(set(payload) - set(keys) - {"target_matrix"})
    if unknown:
        raise ValueError(f"braid file has unknown keys {unknown}")
    grouping, word = payload["grouping"], payload["word"]
    matrix = payload.get("target_matrix", [])
    wrong = [key for key, ok in (
        ("k", type(payload["k"]) is int),
        ("leaves", _ints(payload["leaves"])),
        ("grouping", type(grouping) is list and all(map(_ints, grouping))),
        ("word", type(word) is list
         and all(type(letter) is list and len(letter) == 2 for letter in word)
         and _ints([x for letter in word for x in letter])),
        ("target", type(payload["target"]) is str),
        ("distance", _number(payload["distance"])),
        ("target_matrix", type(matrix) is list and all(
            type(row) is list and all(
                type(z) is list and len(z) == 2 and all(map(_number, z))
                for z in row)
            for row in matrix)),
    ) if not ok]
    if wrong:
        raise ValueError(f"braid file has malformed {', '.join(wrong)}")
    return payload


def target_from_payload(model: AnyonModel, payload: dict) -> SynthesisTarget:
    """Rebuild the synthesis target a braid file was produced against."""
    name = payload["target"]
    leaves = tuple(payload["leaves"])
    if len(leaves) < 2:
        raise ValueError("stored leaves hold no code")
    charges = (leaves[0], leaves[1])
    # The stored data decides: a payload with a matrix is a matrix target
    # whatever its name (a unitary target may be named "E" or "B1").
    if "target_matrix" in payload:
        coarse = np.array([[complex(re, im) for re, im in row]
                           for row in payload["target_matrix"]])
        # Rebuild the rule from the stored entries verbatim: full-precision
        # floats survive the text round trip bit for bit, so rescoring a
        # stored braid reproduces its distance exactly.  Routing through the
        # code frame instead would shift the matrix at machine precision,
        # which the square-root metric amplifies near an exact match.
        reference = make_target_unitary(model, np.eye(2), charges, name=name)
        if coarse.shape != np.array(reference.rules[0].target).shape:
            raise ValueError("stored target matrix has the wrong shape")
        if not np.allclose(coarse.conj().T @ coarse, np.eye(coarse.shape[0]),
                           atol=1e-9):
            raise ValueError("stored target matrix is not unitary")
        rule = MatrixRule(reference.rules[0].sector,
                          tuple(tuple(complex(z) for z in row) for row in coarse))
        target = replace(reference, rules=(rule,))
    elif name in BUILTIN_TARGETS:
        target = BUILTIN_TARGETS[name](model, charges)
    else:
        raise ValueError(f"unknown target id {name!r} and no stored matrix")
    stored_blocks = tuple(tuple(block) for block in payload["grouping"])
    if target.leaves != leaves or target.blocks != stored_blocks:
        raise ValueError("stored leaves/grouping do not match the target id")
    return target


def result_from_payload(model: AnyonModel, payload: dict):
    """Braid word and rebuilt target from a braid-file payload."""
    target = target_from_payload(model, payload)
    letters = tuple((int(p), int(e)) for p, e in payload["word"])
    return target, BraidWord(target.block_count, letters)


# --- convergence curves --------------------------------------------------

def curve_csv(stats: SearchStats) -> str:
    """One row per length; ``best_distance`` is ``inf`` while no word that
    short reaches the final arrangement (``float()`` reads it back)."""
    lines = ["length,best_distance,nodes_explored,seconds"]
    for length, best, nodes, _frontier, seconds in stats.rows:
        text = "inf" if best == float("inf") else _format_float(best)
        lines.append(f"{length},{text},{nodes},{seconds:.6f}")
    return "\n".join(lines) + "\n"


def write_curve_csv(path, stats: SearchStats) -> None:
    Path(path).write_text(curve_csv(stats))


# --- gate reports --------------------------------------------------------

def gate_report_payload(report) -> dict:
    """An assembled gate's verification record, in its canonical key order."""
    return {
        "gate": report.gate,
        "k": report.k,
        "distance_to_target": report.distance_to_target,
        "leakage": report.leakage,
        "component_budget": [[name, d] for name, d in report.component_budget],
        "budget_total": report.budget_total,
        "braid_length_total": report.braid_length_total,
        "diagonal_deviation": report.diagonal_deviation,
        "phases_cancelled": report.phases_cancelled,
        "bound_satisfied": report.bound_satisfied,
        "symmetry_deviation": report.symmetry_deviation,
        "logical_matrix": [[complex(z) for z in row] for row in report.logical_matrix],
    }


def assembled_braid_payload(report) -> dict:
    """Concatenated braid with one annotated entry per component segment."""
    segments = []
    for label, word, grouping in report.segments:
        segments.append({
            "label": label,
            "blocks": [list(block) for block in grouping.blocks],
            "word": [[pos, exp] for pos, exp in word.letters],
        })
    return {
        "gate": report.gate,
        "k": report.k,
        "braid_length_total": report.braid_length_total,
        "segments": segments,
    }
