"""Composition of synthesized braids into logical gates.

Three assemblies are provided.  A controlled-phase gate evaluates a phase
braid P on the six-anyon two-qubit code and compares the computational
block to controlled-Z.  A doubly-controlled phase gate runs the six-braid
sequence B1, P, B1^-1, B3, P^-1, B3^-1 on the eight-anyon three-qubit code,
where P acts with the first two qubit pairs treated as one joined composite
block (pure relabeling of blocks; the searched word is reused verbatim).
Register conversion applies the exchange braid E to the product of two
four-anyon registers and reads the result against the six-anyon code.

Every report carries the sum of component distances: the assembled gate's
distance never exceeds it (plus 1e-9 numerical headroom), because the
global-phase-invariant distance is unitarily invariant and telescopes over
the segment product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import CodeSpace, leakage as code_leakage, multi_qubit_code, single_qubit_code
from .model import AnyonModel
from .spaces import Grouping, enumerate_basis
from .synth import BraidWord, SynthesisResult, distance, evaluate, make_target_E

__all__ = [
    "AssemblyError",
    "GateReport",
    "assemble_controlled_phase",
    "assemble_ccz",
    "convert_registers",
    "braid_length_total",
]

BOUND_HEADROOM = 1e-9


class AssemblyError(ValueError):
    """A component does not fit the assembly it was passed to."""


@dataclass(frozen=True)
class GateReport:
    """Verification record for an assembled logical gate."""

    gate: str
    k: int
    logical_matrix: np.ndarray
    distance_to_target: float
    leakage: float
    component_budget: tuple[tuple[str, float], ...]
    braid_length_total: int
    diagonal_deviation: float
    phase_deviations: tuple[float, ...]
    phases_cancelled: bool
    bound_satisfied: bool
    symmetry_deviation: float
    segments: tuple[tuple[str, BraidWord, Grouping], ...]

    @property
    def budget_total(self) -> float:
        return sum(d for _, d in self.component_budget)


def braid_length_total(word: BraidWord, grouping: Grouping) -> int:
    """Elementary strand crossings performed by a block-level word."""
    if word.strand_count != len(grouping.blocks):
        raise AssemblyError("word strand count does not match block count")
    sizes = [len(block) for block in grouping.blocks]
    total = 0
    for pos, _ in word.letters:
        i = pos - 1
        total += sizes[i] * sizes[i + 1]
        sizes[i], sizes[i + 1] = sizes[i + 1], sizes[i]
    return total


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AssemblyError(message)


def _expect_two_qubit_component(result: SynthesisResult, model: AnyonModel,
                                label: str) -> None:
    target = result.target
    _require(target.k == model.k, f"{label}: component built for k={target.k}")
    code = multi_qubit_code(model, 2)
    _require(target.blocks == code.grouping.blocks,
             f"{label}: expected the six-anyon two-qubit block structure")
    _require(target.leaves == code.basis.leaves,
             f"{label}: component built for leaves {target.leaves}; the codes "
             f"assembled here have leaves {code.basis.leaves}")
    _require(result.braid.permutation() == (0, 1, 2, 3),
             f"{label}: braid must return every block to its place")


def _logical(code: CodeSpace, U_fine: np.ndarray):
    grouped = code.to_code_frame(U_fine)
    logical = code.logical_block(grouped)
    return logical, code_leakage(grouped, code)


def _finish_report(gate: str, model: AnyonModel, logical: np.ndarray,
                   target: np.ndarray, leak: float, budget, total_length: int,
                   flagged: tuple[int, ...], segments) -> GateReport:
    """Shared scoring: distance, diagonal structure, per-state phases."""
    n = logical.shape[0]
    dist = distance(logical, target)
    off = logical - np.diag(np.diag(logical))
    diag_dev = float(np.linalg.norm(off, ord=2))
    phase_devs = tuple(
        float(abs(logical[b, b] - 1.0)) for b in range(n) if b not in flagged)
    budget_total = sum(d for _, d in budget)
    threshold = budget_total + BOUND_HEADROOM
    cancelled = all(dev <= threshold for dev in phase_devs) and diag_dev <= threshold
    bound_ok = dist <= threshold

    sym_dev = 0.0
    if n == 8:
        for b in range(8):
            bits = ((b >> 2) & 1, (b >> 1) & 1, b & 1)
            swapped = (bits[1] << 2) | (bits[0] << 1) | bits[2]
            sym_dev = max(sym_dev, float(abs(logical[b, b] - logical[swapped, swapped])))
    return GateReport(
        gate=gate, k=model.k, logical_matrix=logical,
        distance_to_target=dist, leakage=leak,
        component_budget=tuple(budget), braid_length_total=total_length,
        diagonal_deviation=diag_dev, phase_deviations=phase_devs,
        phases_cancelled=cancelled, bound_satisfied=bound_ok,
        symmetry_deviation=sym_dev, segments=tuple(segments))


def assemble_controlled_phase(model: AnyonModel, P: SynthesisResult) -> GateReport:
    """Controlled-Z from the phase braid on the six-anyon two-qubit code."""
    _expect_two_qubit_component(P, model, "P")
    code = multi_qubit_code(model, 2)
    U = evaluate(model, code.basis, P.braid, code.grouping)
    logical, leak = _logical(code, U)
    target = np.diag([1, 1, 1, -1]).astype(np.complex128)
    budget = [("P", P.distance)]
    length = braid_length_total(P.braid, code.grouping)
    return _finish_report("cz", model, logical, target, leak, budget, length,
                          flagged=(3,), segments=[("P", P.braid, code.grouping)])


def assemble_ccz(model: AnyonModel, B1: SynthesisResult, P: SynthesisResult,
                 B3: SynthesisResult, half_sequence: bool = False) -> GateReport:
    """Doubly-controlled Z on the eight-anyon three-qubit code.

    Sequence: B1 joins the first two qubit pairs; P (with the joined
    four-anyon composite standing in for the first pair) puts -1 exactly
    when the composite carries charge 1 and the third qubit is 1; B1^-1
    restores the pairs and cancels B1's free sector phases; the mirrored
    B3, P^-1, B3^-1 half removes the unwanted phase when exactly one of the
    first two qubits is 1.  ``half_sequence`` stops after the first three
    braids — the negative control that leaves extra -1 phases on inputs
    with one of the first two qubits set and the third set.
    """
    for result, label in ((B1, "B1"), (P, "P"), (B3, "B3")):
        _expect_two_qubit_component(result, model, label)
    code = multi_qubit_code(model, 3)
    g5 = code.grouping
    g4 = Grouping(((1,), (2, 3, 4, 5), (6, 7), (8,)))

    segments = [
        ("B1", BraidWord(5, B1.braid.letters), g5),
        ("P", BraidWord(4, P.braid.letters), g4),
        ("B1_inv", BraidWord(5, B1.braid.letters).inverse(), g5),
    ]
    if not half_sequence:
        segments += [
            ("B3", BraidWord(5, B3.braid.letters), g5),
            ("P_inv", BraidWord(4, P.braid.letters).inverse(), g4),
            ("B3_inv", BraidWord(5, B3.braid.letters).inverse(), g5),
        ]

    U = np.eye(code.basis.dim, dtype=np.complex128)
    total_length = 0
    for _, word, grouping in segments:
        U = evaluate(model, code.basis, word, grouping) @ U
        total_length += braid_length_total(word, grouping)

    logical, leak = _logical(code, U)
    target = np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(np.complex128)
    budget = [("B1", B1.distance), ("P", P.distance), ("B1_inv", B1.distance)]
    if not half_sequence:
        budget += [("B3", B3.distance), ("P_inv", P.distance),
                   ("B3_inv", B3.distance)]
    gate = "ccz_half" if half_sequence else "ccz"
    return _finish_report(gate, model, logical, target, leak, budget,
                          total_length, flagged=(7,), segments=segments)


# --- register conversion ------------------------------------------------

def _embedded(model: AnyonModel, code: CodeSpace, bits: tuple[int, ...],
              tail: tuple[int, ...]) -> np.ndarray:
    """Fine vector on eight spin-1/2 anyons of the code state |bits> on the
    leading strands, each of its trees continued by the running charges
    ``tail`` over the remaining strands."""
    basis8 = enumerate_basis(model, (1,) * 8, 0)
    vec = np.zeros(basis8.dim, dtype=np.complex128)
    for amp, path in zip(code.fine_state(bits), code.basis.trees):
        vec[basis8.index(path + tail)] = amp
    return vec


def _product_states(model: AnyonModel):
    """Fine vectors of |q1> x |q2> on the eight-anyon exchange layout.

    Register one is the four-anyon code on strands 1..4; register two sits
    on strands 5..8 in pair-leading order (b b a a), where the state of
    qubit value q is the unique tree whose leading pair carries charge 2q.
    Returns the four vectors in bit order (00, 01, 10, 11).
    """
    code = single_qubit_code(model)
    return [_embedded(model, code, (b1,), (1, 2 * b2, 1, 0))
            for b1 in (0, 1) for b2 in (0, 1)]


def _merged_states(model: AnyonModel):
    """Fine vectors of six-anyon |q1 q2> with a trailing vacuum pair."""
    code = multi_qubit_code(model, 2)
    return [_embedded(model, code, bits, (1, 0)) for bits, _ in code.computational]


def convert_registers(model: AnyonModel, direction: str,
                      E: SynthesisResult) -> GateReport:
    """Move logical content between two four-anyon registers and one
    six-anyon register using the exchange braid.

    ``merge`` applies E to each product state |q1> x |q2> and reads the
    amplitudes against the six-anyon code states |q1 q2>; ``split`` applies
    the inverse braid in the opposite direction.  The logical matrix must
    be the identity up to one global phase.
    """
    if direction not in ("merge", "split"):
        raise AssemblyError(f"direction must be merge or split, not {direction!r}")
    target_e = E.target
    _require(target_e.k == model.k, f"E: component built for k={target_e.k}")
    reference = make_target_E(model)
    _require(target_e.blocks == reference.blocks,
             "E: expected the (3,1,3,1) exchange block structure")
    _require(E.braid.permutation() == reference.final_arrangement,
             "E: braid must move the singleton block past the second register")
    _require(target_e.leaves == reference.leaves,
             f"E: component built for leaves {target_e.leaves}; the registers "
             f"converted here have leaves {reference.leaves}")
    basis8 = enumerate_basis(model, reference.leaves, 0)

    U = evaluate(model, basis8, E.braid, target_e.grouping)
    products = _product_states(model)
    merged = _merged_states(model)
    if direction == "merge":
        ins, outs, word = products, merged, E.braid
    else:
        ins, outs, word = merged, products, E.braid.inverse()
        U = U.conj().T

    logical = np.zeros((4, 4), dtype=np.complex128)
    leak = 0.0
    for j, vin in enumerate(ins):
        image = U @ vin
        for i, vout in enumerate(outs):
            logical[i, j] = np.vdot(vout, image)
        leak = max(leak, float(np.sqrt(max(
            0.0, 1.0 - float(np.linalg.norm(logical[:, j]) ** 2)))))

    budget = [("E", E.distance)]
    length = braid_length_total(word, target_e.grouping)
    label = "E" if direction == "merge" else "E_inv"
    return _finish_report(direction, model, logical,
                          np.eye(4, dtype=np.complex128), leak, budget, length,
                          flagged=tuple(range(4)),
                          segments=[(label, word, target_e.grouping)])
