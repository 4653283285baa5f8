"""Qubit encodings in fusion spaces: layouts, dimensions, leakage."""

import numpy as np
import pytest

from anyonforge import (
    AnyonModel,
    EncodingError,
    braid_generator,
    leakage,
    multi_qubit_code,
    single_qubit_code,
)


def test_two_qubit_code_census(model2, model3):
    code = multi_qubit_code(model3, 2)
    assert code.qubit_count == 2
    assert code.basis.leaves == (1, 1, 1, 1, 1, 1)
    assert code.grouping.blocks == ((1,), (2, 3), (4, 5), (6,))
    assert [bits for bits, _ in code.computational] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(code.non_computational) == 1
    assert code.dim == 5

    code2 = multi_qubit_code(model2, 2)
    assert len(code2.computational) == 4
    assert len(code2.non_computational) == 0
    assert code2.dim == 4

    for k in (5, 8):
        wide = multi_qubit_code(AnyonModel(k), 2)
        assert len(wide.computational) == 4
        assert len(wide.non_computational) == wide.dim - 4


def test_computational_labels_have_all_a_running_charge(model3):
    code = multi_qubit_code(model3, 2)
    for _, idx in code.computational:
        label = code.grouped.labels[idx]
        assert label.coarse == (1, 1, 1, 0)
        assert all(c in (0, 2) for c in label.block_charges[1:-1])


def test_bits_to_pair_charges(model3):
    code = multi_qubit_code(model3, 2)
    for bits, idx in code.computational:
        charges = code.grouped.labels[idx].block_charges
        assert charges[0] == charges[-1] == 1
        assert charges[1] == 2 * bits[0]
        assert charges[2] == 2 * bits[1]


def test_single_qubit_code(model3):
    code = single_qubit_code(model3)
    assert code.qubit_count == multi_qubit_code(model3, 1).qubit_count == 1
    assert code.basis.leaves == (1, 1, 1, 1)
    assert code.dim == 2
    assert len(code.computational) == 2
    assert len(code.non_computational) == 0


def test_three_qubit_code(model3):
    code = multi_qubit_code(model3, 3)
    assert code.qubit_count == 3
    assert code.basis.leaves == (1,) * 8
    assert code.basis.dim == 13
    assert [bits for bits, _ in code.computational] == [
        (b1, b2, b3) for b1 in (0, 1) for b2 in (0, 1) for b3 in (0, 1)]


def test_transform_unitary_and_states_normalized(model3):
    code = multi_qubit_code(model3, 2)
    T = code.transform
    assert np.allclose(T.conj().T @ T, np.eye(code.dim), atol=1e-12)
    for bits, _ in code.computational:
        vec = code.fine_state(bits)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_projector_and_logical_block(model3):
    code = multi_qubit_code(model3, 2)
    assert len(set(code.computational_indices)) == 4
    assert np.array_equal(code.logical_block(np.eye(code.dim)), np.eye(4))


def test_leakage_of_identity_is_zero(model3):
    code = multi_qubit_code(model3, 2)
    assert leakage(np.eye(code.dim), code) == 0.0


def test_leakage_detects_mixing(model3):
    code = multi_qubit_code(model3, 2)
    U = np.eye(code.dim, dtype=complex)
    comp = code.computational_indices[0]
    rogue = code.non_computational[0]
    theta = 0.3
    U[comp, comp] = U[rogue, rogue] = np.cos(theta)
    U[rogue, comp] = np.sin(theta)
    U[comp, rogue] = -np.sin(theta)
    assert leakage(U, code) == pytest.approx(np.sin(theta), abs=1e-12)


def test_braiding_inside_a_pair_does_not_leak(model3):
    """Exchanging the two anyons of one qubit pair is diagonal in the pair
    charge, so it must stay inside the computational structure."""
    code = multi_qubit_code(model3, 2)
    fine = braid_generator(model3, code.basis, 2)
    grouped = code.to_code_frame(fine)
    assert leakage(grouped, code) < 1e-12


def test_unencodable_charges_rejected(model3):
    with pytest.raises(EncodingError):
        multi_qubit_code(model3, 2, charges=(3, 3))


def test_fibonacci_subtheory_dimensions(model3):
    basis = AnyonModel(3)
    code = single_qubit_code(basis, charges=(2, 2))
    assert code.dim == 2
