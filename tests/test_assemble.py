"""Assembled logical gates: composition bounds, phase bookkeeping, negative
controls, and the register merge/split conversion."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonforge import (
    AnyonModel,
    AssemblyError,
    BraidWord,
    Grouping,
    SynthesisResult,
    assemble_ccz,
    assemble_controlled_phase,
    braid_length_total,
    convert_registers,
    enumerate_basis,
    make_target_B1,
    make_target_B3,
    make_target_E,
    make_target_P,
    multi_qubit_code,
    score_braid,
    search,
    single_qubit_code,
)
from anyonforge import assemble
from anyonforge.files import gate_report_payload


@pytest.fixture(scope="module")
def parts3(model3):
    """Moderately optimized k=3 components shared across assembly tests."""
    length = 10
    return {
        "P": search(model3, make_target_P(model3), length),
        "B1": search(model3, make_target_B1(model3), length),
        "B3": search(model3, make_target_B3(model3), length),
        "E": search(model3, make_target_E(model3), 11),
    }


def test_braid_length_total_counts_crossings():
    grouping = Grouping.of_sizes(1, 2, 2, 1)
    word = BraidWord(4, ((1, 1), (1, 1)))
    # block of 1 through block of 2, then (sizes now swapped) 2 through 1
    assert braid_length_total(word, grouping) == 4
    assert braid_length_total(BraidWord(4, ()), grouping) == 0
    with pytest.raises(AssemblyError, match="strand count"):
        braid_length_total(BraidWord(3, ()), grouping)


def _positional_crossings(word, grouping):
    """Crossings counted position by position, swapping the block sizes
    after each letter: the count ``braid_length_total`` gives by pair."""
    sizes = [len(block) for block in grouping.blocks]
    total = 0
    for pos, _ in word.letters:
        i = pos - 1
        total += sizes[i] * sizes[i + 1]
        sizes[i], sizes[i + 1] = sizes[i + 1], sizes[i]
    return total


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_braid_length_total_counts_each_pair_as_the_positional_walk(data):
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    letters = data.draw(st.lists(
        st.tuples(st.integers(1, len(sizes) - 1), st.sampled_from([1, -1])),
        max_size=20))
    word = BraidWord.reduced(len(sizes), letters)
    grouping = Grouping.of_sizes(*sizes)
    assert braid_length_total(word, grouping) == _positional_crossings(word, grouping)


def test_identity_phase_braid_gives_exact_cz_gap(model3):
    """The empty word scores honestly: the assembled 'gate' is the logical
    identity, a known distance sqrt(1/2) from controlled-Z."""
    stub = score_braid(model3, make_target_P(model3), BraidWord(4, ()))
    report = assemble_controlled_phase(model3, stub)
    assert np.allclose(report.logical_matrix, np.eye(4), atol=1e-12)
    assert report.distance_to_target == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert report.bound_satisfied  # the identity's own score covers the gap
    assert report.braid_length_total == 0


def test_cz_assembly_bound_and_diagonal(model3, parts3):
    report = assemble_controlled_phase(model3, parts3["P"])
    assert report.gate == "cz"
    assert report.distance_to_target <= report.budget_total + 1e-9
    assert report.bound_satisfied
    assert report.diagonal_deviation <= report.budget_total + 1e-9
    assert report.phases_cancelled
    # the |11> phase heads toward -1, not +1
    assert abs(report.logical_matrix[3, 3] + 1) <= report.budget_total + 1e-9
    assert report.segments[0][0] == "P"
    assert report.leakage <= report.budget_total + 1e-9


def test_cz_report_payload_shape(model3, parts3):
    payload = gate_report_payload(assemble_controlled_phase(model3, parts3["P"]))
    assert payload["gate"] == "cz"
    assert len(payload["logical_matrix"]) == 4
    assert payload["budget_total"] == pytest.approx(parts3["P"].distance)


def test_ccz_assembly(model3, parts3):
    report = assemble_ccz(model3, parts3["B1"], parts3["P"], parts3["B3"])
    budget = report.budget_total + 1e-9
    assert report.gate == "ccz"
    assert report.logical_matrix.shape == (8, 8)
    assert report.distance_to_target <= budget
    assert report.bound_satisfied and report.phases_cancelled
    # -1 lands on |111> alone; every other basis state keeps phase +1
    assert abs(report.logical_matrix[7, 7] + 1) <= budget
    assert all(dev <= budget for dev in report.phase_deviations)
    assert [label for label, _, _ in report.segments] == [
        "B1", "P", "B1_inv", "B3", "P_inv", "B3_inv"]
    # symmetry_deviation is a diagnostic: the worst diagonal mismatch under
    # swapping the first two qubits, recomputed here from the matrix itself.
    # (It is emergent, not structural: stray amplitude scattered into the
    # charge-3 coarse channel picks up different phases for |011> vs |101>
    # until the aggregation braids are accurate enough to suppress it.)
    diag = np.diag(report.logical_matrix)
    worst = max(abs(diag[(b & 1) | ((b >> 1 & 1) << 2) | ((b >> 2 & 1) << 1)]
                    - diag[b]) for b in range(8))
    assert report.symmetry_deviation == pytest.approx(worst, abs=1e-14)
    # budget counts each braid once per appearance (forward and inverse)
    assert len(report.component_budget) == 6


def test_ccz_half_sequence_fails_honestly(model3, parts3):
    """Stopping after the first three segments leaves stray -1 phases on the
    states where exactly one of the first two qubits is set."""
    report = assemble_ccz(model3, parts3["B1"], parts3["P"], parts3["B3"],
                          half_sequence=True)
    assert report.gate == "ccz_half"
    assert not report.phases_cancelled
    diag = np.diag(report.logical_matrix)
    budget = report.budget_total + 1e-9
    assert abs(diag[3] + 1) <= budget  # |011>
    assert abs(diag[5] + 1) <= budget  # |101>
    assert abs(diag[6] - 1) <= budget  # |110> is untouched
    assert report.phase_deviations[3] > 1.5
    assert report.phase_deviations[5] > 1.5


def test_fabricated_component_score_is_caught(model3, parts3):
    """A component whose claimed distance understates reality breaks the
    composition bound, and the report says so."""
    honest = parts3["P"]
    fake = SynthesisResult(
        target=honest.target, braid=BraidWord(4, ()), distance=0.0,
        leakage=0.0, converged=True, stats=None)
    report = assemble_controlled_phase(model3, fake)
    assert not report.bound_satisfied


def test_assembly_rejects_wrong_component_shape(model3, parts3):
    with pytest.raises(AssemblyError):
        assemble_controlled_phase(model3, parts3["E"])


def test_assembly_rejects_wrong_level(model2, model3):
    p2 = search(model2, make_target_P(model2), 2)
    with pytest.raises(AssemblyError):
        assemble_controlled_phase(model3, p2)


def _stub(target, letters=()):
    """A hand-built component: ``letters`` on ``target``, scored nothing."""
    return SynthesisResult(target=target, braid=BraidWord(target.block_count, letters),
                           distance=0.0, leakage=0.0, converged=False, stats=None)


_FACTORIES = {"P": make_target_P, "B1": make_target_B1, "B3": make_target_B3,
              "E": make_target_E}
# Letters that end on each slot's arrangement: identity for P, B1 and B3;
# the singleton moved past the second register for E.
_HOME = {"P": (), "B1": (), "B3": (), "E": ((2, 1),)}


def _assemble(model, gate, parts):
    if gate == "cz":
        return assemble_controlled_phase(model, parts["P"])
    if gate == "ccz":
        return assemble_ccz(model, parts["B1"], parts["P"], parts["B3"])
    return convert_registers(model, "merge", parts["E"])


@pytest.mark.parametrize("case", ["level", "blocks", "arrangement"])
@pytest.mark.parametrize("gate, slot", [("cz", "P"), ("ccz", "B1"), ("ccz", "P"),
                                        ("ccz", "B3"), ("convert", "E")])
def test_every_slot_refuses_a_foreign_component(model3, gate, slot, case):
    """Each slot checks its component against the built-in target that
    builds it: level, leaves and blocks, and the arrangement the braid ends
    on.  The refusal names the slot."""
    parts = {name: _stub(factory(model3), _HOME[name])
             for name, factory in _FACTORIES.items()}
    _assemble(model3, gate, parts)  # the well-formed stubs assemble
    own = parts[slot].target
    if case == "level":
        parts[slot] = _stub(_FACTORIES[slot](AnyonModel(4)), _HOME[slot])
    elif case == "blocks":
        sizes = (3, 3, 1, 1) if slot == "E" else (2, 2, 1, 1)
        parts[slot] = _stub(replace(own, blocks=Grouping.of_sizes(*sizes).blocks),
                            _HOME[slot])
    else:
        parts[slot] = _stub(own, () if slot == "E" else ((1, 1),))
    with pytest.raises(AssemblyError, match=f"^{slot}: "):
        _assemble(model3, gate, parts)


def test_convert_directions(model3, parts3):
    merge = convert_registers(model3, "merge", parts3["E"])
    split = convert_registers(model3, "split", parts3["E"])
    assert merge.gate == "merge"
    assert split.gate == "split"
    for report in (merge, split):
        assert report.logical_matrix.shape == (4, 4)
        assert report.bound_satisfied
    with pytest.raises(AssemblyError):
        convert_registers(model3, "sideways", parts3["E"])
    with pytest.raises(AssemblyError):
        convert_registers(model3, "merge", parts3["P"])


def _scanned_product_states(model):
    """|q1> x |q2> by walking every eight-anyon tree, as the conversion
    did before it embedded the code trees directly."""
    code1 = single_qubit_code(model)
    basis4 = code1.basis
    basis8 = enumerate_basis(model, (1,) * 8, 0)
    out = []
    for b1 in (0, 1):
        psi1 = code1.fine_state((b1,))
        for b2 in (0, 1):
            tail = (1, 2 * b2, 1, 0)
            vec = np.zeros(basis8.dim, dtype=np.complex128)
            for i, m in enumerate(basis8.trees):
                if m[3] != 0 or m[4:] != tail:
                    continue
                vec[i] = psi1[basis4.index(m[:4])]
            out.append(vec)
    return out


def _scanned_merged_states(model):
    """Six-anyon |q1 q2> plus a vacuum pair, by the same walk."""
    code = multi_qubit_code(model, 2)
    basis6 = code.basis
    basis8 = enumerate_basis(model, (1,) * 8, 0)
    out = []
    for b1 in (0, 1):
        for b2 in (0, 1):
            psi6 = code.fine_state((b1, b2))
            vec = np.zeros(basis8.dim, dtype=np.complex128)
            for i, m in enumerate(basis8.trees):
                if m[5] != 0:
                    continue
                vec[i] = psi6[basis6.index(m[:6])]
            out.append(vec)
    return out


@pytest.mark.parametrize("k", range(3, 8))
def test_register_states_equal_the_tree_walk(k):
    model = AnyonModel(k)
    for new, old in ((assemble._product_states(model), _scanned_product_states(model)),
                     (assemble._merged_states(model), _scanned_merged_states(model))):
        assert len(new) == len(old) == 4
        assert [v.tobytes() for v in new] == [v.tobytes() for v in old]


def test_merge_then_split_is_logical_identity(model3, parts3):
    """Round trip through the joined register returns every two-qubit state,
    within twice the conversion braid's own score."""
    merge = convert_registers(model3, "merge", parts3["E"])
    split = convert_registers(model3, "split", parts3["E"])
    roundtrip = split.logical_matrix @ merge.logical_matrix
    phase = roundtrip[0, 0] / abs(roundtrip[0, 0])
    residual = np.linalg.norm(roundtrip / phase - np.eye(4), ord=2)
    assert residual <= 2 * parts3["E"].distance + 1e-9


def test_ccz_braid_length_totals(model3, parts3):
    report = assemble_ccz(model3, parts3["B1"], parts3["P"], parts3["B3"])
    expected = 0
    for _, word, grouping in report.segments:
        expected += braid_length_total(word, grouping)
    assert report.braid_length_total == expected
    assert report.braid_length_total > 0


def test_code_frame_leakage_consistency(model3, parts3):
    """The CZ report's leakage agrees with a direct projector computation."""
    from anyonforge import evaluate, leakage

    code = multi_qubit_code(model3, 2)
    U = evaluate(model3, code.basis, parts3["P"].braid, code.grouping)
    direct = leakage(code.to_code_frame(U), code)
    report = assemble_controlled_phase(model3, parts3["P"])
    assert report.leakage == pytest.approx(direct, abs=1e-14)
