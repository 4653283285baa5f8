"""End-to-end acceptance runs for the library and CLI.

Each test covers one acceptance criterion and prints a single [PASS] line
(visible with -s or in captured output) once its assertions hold.  Pinned
"golden" values were produced by this code under numpy 2.2 / CPython 3.10
and double-checked against independent oracles where one exists; they are
exact-equality pins, so a legitimate numerical change (new BLAS, different
evaluation order) must be re-frozen deliberately, not waved through.
"""

import itertools
import json
import time

import numpy as np
import pytest

from anyonforge import (
    AnyonModel,
    BraidWord,
    assemble_ccz,
    assemble_controlled_phase,
    braid_generator,
    convert_registers,
    enumerate_basis,
    make_target_B1,
    make_target_B3,
    make_target_E,
    make_target_P,
    make_target_unitary,
    multi_qubit_code,
    search,
    verify_braid_relations,
)
from anyonforge.cli import main as cli_main


def announce(number, text):
    print(f"[PASS] criterion {number}: {text}")


@pytest.fixture(scope="module")
def gate_parts():
    """Acceptance-grade k=3 components for the assembly criteria."""
    model = AnyonModel(3)
    length = 16
    return model, {
        "P": search(model, make_target_P(model), length),
        "B1": search(model, make_target_B1(model), length),
        "B3": search(model, make_target_B3(model), length),
        "E": search(model, make_target_E(model), 15),
    }


def test_criterion_1_consistency_identities():
    """Pentagon and hexagon residuals below 1e-9 for k in {2,3,4,5,6,8},
    all within a 60 second budget."""
    start = time.perf_counter()
    worst = 0.0
    for k in (2, 3, 4, 5, 6, 8):
        model = AnyonModel(k)
        worst = max(worst, model.verify_pentagon(), model.verify_hexagon())
        assert worst < 1e-9, f"k={k} residual {worst}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(1, f"pentagon/hexagon worst {worst:.3e} over six levels "
                f"in {elapsed:.1f}s")


def test_criterion_2_braid_relations():
    """Yang-Baxter and far commutativity below 1e-9 for every charge
    assignment from {1, 2} on up to six strands, k in {2, 3, 5, 8}."""
    worst = 0.0
    systems = 0
    for k in (2, 3, 5, 8):
        model = AnyonModel(k)
        for n in range(2, 7):
            for leaves in itertools.product((1, 2), repeat=n):
                worst = max(worst, verify_braid_relations(model, leaves))
                systems += 1
                assert worst < 1e-9, f"k={k} leaves={leaves}"
    assert systems == 4 * (2**2 + 2**3 + 2**4 + 2**5 + 2**6)
    announce(2, f"braid relations worst {worst:.3e} across {systems} systems")


def test_criterion_3_code_spaces():
    """Fusion-space dimensions and computational censuses, as exact integers."""
    for k, dim in ((2, 4), (3, 5), (5, 5), (8, 5)):
        model = AnyonModel(k)
        basis = enumerate_basis(model, (1,) * 6, 0)
        assert basis.dim == dim
        code = multi_qubit_code(model, 2)
        assert len(code.computational) == 4
        expected_nc = 0 if k == 2 else 1
        assert len(code.non_computational) == expected_nc
    announce(3, "six-anyon dims 4/5/5/5 at k=2/3/5/8; two-qubit census "
                "4+1 above k=2, 4+0 at k=2")


def test_criterion_4_exchange_order_ten():
    """At k=3 the square of a two-strand exchange has order five: the tenth
    power of the generator is a global phase.  Oracle: direct matrix powers
    of the evaluated generator, sector by sector."""
    model = AnyonModel(3)
    entries = []
    for total in (0, 2):
        basis = enumerate_basis(model, (1, 1), total)
        assert basis.dim == 1
        entries.append(braid_generator(model, basis, 1)[0, 0])
    M = np.diag(entries)
    Z = np.linalg.matrix_power(M, 10)
    phase = Z[0, 0] / abs(Z[0, 0])
    residual = float(np.linalg.norm(Z - phase * np.eye(2), ord=2))
    assert residual < 1e-9
    announce(4, f"sigma^10 = phase * identity, residual {residual:.3e}")


def test_criterion_5_parallel_determinism(tmp_path, capsys):
    """Byte-identical synthesis artifacts for 1, 2, and 3 workers, and
    frontier sizes matching the closed form 2 * 3^floor(L/2)."""
    files = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}.json"
        cli_main(["synth", "--k", "3", "--target", "B1", "--max-length", "8",
                  "--workers", str(workers), "--out", str(out)])
        files.append(out.read_bytes())
    capsys.readouterr()
    assert files[0] == files[1] == files[2]

    model = AnyonModel(3)
    for workers in (1, 3):
        result = search(model, make_target_B1(model), 8, workers=workers)
        for length, _, _, frontier, _ in result.stats.rows:
            assert frontier == 2 * 3 ** (length // 2), (workers, length)
    announce(5, "1/2/3-worker artifacts byte-identical; frontier law "
                "2*3^(L//2) holds for both worker counts")


def test_criterion_6_no_exact_phase_weave_at_k2():
    """The k=2 phase-gate weave search terminates at length 12 with its
    best distance pinned; no braid reaches 1e-9, so the conditional
    controlled-Z assembly branch stays idle."""
    model = AnyonModel(2)
    result = search(model, make_target_P(model), 12)
    assert result.distance == 1.9999999999999822
    assert not result.converged
    if result.distance < 1e-9:  # pragma: no cover - documented dead branch
        report = assemble_controlled_phase(model, result)
        assert report.distance_to_target < 1e-8
    announce(6, f"k=2 phase weave bottoms out at {result.distance!r} "
                "(no exact braid; assembly branch not triggered)")


def test_criterion_7_deepening_curve_for_not_gate():
    """k=3 NOT-gate weave: pinned best distances at lengths 8, 10, 12,
    non-increasing, inside a 10 minute budget."""
    model = AnyonModel(3)
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    target = make_target_unitary(model, X, name="NOT")
    goldens = {8: 0.2753609053034861,
               10: 0.24476203637674993,
               12: 0.15595205719559732}
    start = time.perf_counter()
    best = {}
    for length in (8, 10, 12):
        best[length] = search(model, target, length).distance
    elapsed = time.perf_counter() - start
    assert best == goldens
    assert best[8] >= best[10] >= best[12]
    assert elapsed < 600.0
    announce(7, f"NOT distances {best[8]:.6f} >= {best[10]:.6f} >= "
                f"{best[12]:.6f} in {elapsed:.1f}s")


def test_criterion_8_assembled_gates(gate_parts):
    """Composition bound for CZ and CCZ; the CCZ phase lands on |111> alone;
    the truncated half sequence fails the trivial-sector phase check."""
    model, parts = gate_parts

    cz = assemble_controlled_phase(model, parts["P"])
    assert cz.distance_to_target <= cz.budget_total + 1e-9

    ccz = assemble_ccz(model, parts["B1"], parts["P"], parts["B3"])
    bound = ccz.budget_total + 1e-9
    assert bound < 2.0  # tight enough that the phase checks mean something
    assert ccz.distance_to_target <= bound
    assert abs(ccz.logical_matrix[7, 7] + 1) <= bound
    assert all(dev <= bound for dev in ccz.phase_deviations)
    assert ccz.diagonal_deviation <= bound
    assert ccz.phases_cancelled and ccz.bound_satisfied

    half = assemble_ccz(model, parts["B1"], parts["P"], parts["B3"],
                        half_sequence=True)
    assert not half.phases_cancelled
    assert max(half.phase_deviations) > half.budget_total + 1e-9
    announce(8, f"CZ {cz.distance_to_target:.4f} <= {cz.budget_total:.4f}; "
                f"CCZ {ccz.distance_to_target:.4f} <= {ccz.budget_total:.4f} "
                f"with -1 only on |111>; half sequence fails as it must")


def test_criterion_9_register_conversion(gate_parts):
    """Merging two four-anyon registers and splitting them back is the
    logical identity within twice the conversion braid's own score."""
    model, parts = gate_parts
    merge = convert_registers(model, "merge", parts["E"])
    split = convert_registers(model, "split", parts["E"])
    roundtrip = split.logical_matrix @ merge.logical_matrix
    phase = roundtrip[0, 0] / abs(roundtrip[0, 0])
    residual = float(np.linalg.norm(roundtrip / phase - np.eye(4), ord=2))
    allowed = 2 * parts["E"].distance + 1e-9
    assert residual <= allowed
    announce(9, f"merge-then-split residual {residual:.3e} <= {allowed:.3e}")
