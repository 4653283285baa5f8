"""Qubit code spaces carved out of anyon fusion bases.

A register of n qubits uses 2n+2 anyons (a, b, b, ..., b, b, a) with total
charge 0.  Bits live in the channels of adjacent (b, b) pairs: pair charge 0
encodes bit 0 and pair charge 1 (twice-spin 2) encodes bit 1.  Computational
states additionally carry the a-charge on every coarse internal edge, so for
spin-1/2 anyons every internal between pair blocks is 1/2.  Everything else
in the space is non-computational; braids that populate it leak.

Code spaces are expressed in the block-regrouped basis (pairs as blocks) so
that the computational states are basis vectors; ``transform`` carries fine
tree amplitudes into this frame.  ``leakage`` returns one float: the
operator 2-norm of what a grouped-frame operator carries out of the code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AnyonModel
from .spaces import FusionBasis, GroupedBasis, Grouping, enumerate_basis, regroup

__all__ = [
    "EncodingError",
    "CodeSpace",
    "single_qubit_code",
    "multi_qubit_code",
    "leakage",
]


class EncodingError(ValueError):
    """The chosen charges cannot host the requested code."""


@dataclass(frozen=True)
class CodeSpace:
    """A classified, block-regrouped fusion space.

    ``computational[j]`` is (bits, grouped index) with bits in lexicographic
    order, so ``computational[j][1]`` is the grouped-basis position of the
    logical state |bits>.  ``transform`` maps fine amplitudes to the grouped
    frame: rows grouped labels, columns fine trees.
    """

    basis: FusionBasis
    grouping: Grouping
    grouped: GroupedBasis
    transform: np.ndarray
    computational: tuple[tuple[tuple[int, ...], int], ...]
    non_computational: tuple[int, ...]

    @property
    def qubit_count(self) -> int:
        # One (b, b) block per qubit between the two a singletons.
        return len(self.grouping.blocks) - 2

    @property
    def dim(self) -> int:
        return self.grouped.dim

    @property
    def computational_indices(self) -> tuple[int, ...]:
        return tuple(idx for _, idx in self.computational)

    def to_code_frame(self, fine_matrix: np.ndarray) -> np.ndarray:
        """Conjugate an operator on the fine basis into the grouped frame."""
        return self.transform @ fine_matrix @ self.transform.conj().T

    def fine_state(self, bits: tuple[int, ...]) -> np.ndarray:
        """Fine-basis amplitudes of the computational state |bits>."""
        for candidate, idx in self.computational:
            if candidate == tuple(bits):
                return self.transform.conj().T[:, idx].copy()
        raise KeyError(f"no computational state for bits {bits}")

    def logical_block(self, code_frame_matrix: np.ndarray) -> np.ndarray:
        """Restriction of a grouped-frame operator to computational states."""
        idx = list(self.computational_indices)
        return code_frame_matrix[np.ix_(idx, idx)]


def single_qubit_code(model: AnyonModel,
                      charges: tuple[int, int] = (1, 1)) -> CodeSpace:
    """One qubit in four anyons (a, b, b, a) with total charge 0.

    This space also carries the three-anyon sparse scheme: the trailing a
    is a spectator no braid touches, so dropping it changes bookkeeping
    only.
    """
    return multi_qubit_code(model, 1, charges)


def multi_qubit_code(model: AnyonModel, n: int,
                     charges: tuple[int, int] = (1, 1)) -> CodeSpace:
    """n qubits in 2n+2 anyons (a, b...b, a) with total charge 0."""
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    a, b = map(model.check_charge, charges)
    if 2 not in model.fuse(b, b):
        raise EncodingError(
            f"charge {b} pairs cannot carry a qubit: fuse({b},{b}) = {model.fuse(b, b)}"
        )
    leaves = (a,) + (b,) * (2 * n) + (a,)
    basis = enumerate_basis(model, leaves, 0)
    grouping = Grouping.of_sizes(1, *([2] * n), 1)
    grouped, transform = regroup(model, basis, grouping)

    computational: list[tuple[tuple[int, ...], int]] = []
    non_computational: list[int] = []
    comp_coarse = (a,) * (n + 1) + (0,)
    for idx, label in enumerate(grouped.labels):
        pair_charges = label.block_charges[1:-1]
        bits_ok = all(c in (0, 2) for c in pair_charges)
        if bits_ok and label.coarse == comp_coarse:
            bits = tuple(c // 2 for c in pair_charges)
            computational.append((bits, idx))
        else:
            non_computational.append(idx)
    computational.sort(key=lambda item: item[0])
    if len(computational) != 2**n:
        raise EncodingError(
            f"expected {2 ** n} computational states, found {len(computational)}"
        )
    return CodeSpace(
        basis=basis,
        grouping=grouping,
        grouped=grouped,
        transform=transform,
        computational=tuple(computational),
        non_computational=tuple(non_computational),
    )


def leakage(U: np.ndarray, code: CodeSpace) -> float:
    """Leakage of a grouped-frame operator out of the computational space:
    the operator 2-norm of (1 - P) U P, with P the projector onto the
    computational states (0.0 when every state is computational)."""
    U = np.asarray(U)
    if U.shape != (code.dim, code.dim):
        raise ValueError(f"operator shape {U.shape} does not match code dim {code.dim}")
    comp = list(code.computational_indices)
    rest = list(code.non_computational)
    if not rest:
        return 0.0
    return float(np.linalg.norm(U[np.ix_(rest, comp)], 2))
