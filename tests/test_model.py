"""Fusion rules, quantum dimensions, F/R symbols, and consistency checks."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonforge import (AnyonModel, ConsistencyError, braid_generator,
                        enumerate_basis)

GOLDEN = (1 + math.sqrt(5)) / 2


def test_charge_list_is_twice_spin_range(model3):
    assert model3.charges == (0, 1, 2, 3)
    assert AnyonModel(8).charges == tuple(range(9))


def test_fusion_rules_pinned(model2, model3):
    assert model3.fuse(1, 1) == (0, 2)
    assert model3.fuse(2, 2) == (0, 2)
    assert model3.fuse(1, 2) == (1, 3)
    assert model3.fuse(3, 3) == (0,)
    # level truncation: spin-1 pair at k=2 can only annihilate
    assert model2.fuse(2, 2) == (0,)
    assert model2.fuse(1, 1) == (0, 2)


def test_fusion_symmetry_and_vacuum():
    for k in (2, 3, 5, 8):
        model = AnyonModel(k)
        for a in model.charges:
            assert model.fuse(0, a) == (a,)
            for b in model.charges:
                assert model.fuse(a, b) == model.fuse(b, a)
                for c in model.fuse(a, b):
                    assert abs(a - b) <= c <= min(a + b, 2 * k - a - b)
                    assert (a + b - c) % 2 == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.data())
def test_fusion_is_associative_as_multisets(k, data):
    model = AnyonModel(k)
    a = data.draw(st.sampled_from(model.charges))
    b = data.draw(st.sampled_from(model.charges))
    c = data.draw(st.sampled_from(model.charges))
    left = sorted(x for e in model.fuse(a, b) for x in model.fuse(e, c))
    right = sorted(x for f in model.fuse(b, c) for x in model.fuse(a, f))
    assert left == right


def test_qdim_matches_sine_ratio():
    for k in (2, 3, 4, 5, 6, 8):
        model = AnyonModel(k)
        theta = math.pi / (k + 2)
        for a in model.charges:
            oracle = math.sin((a + 1) * theta) / math.sin(theta)
            assert model.qdim(a) == pytest.approx(oracle, abs=1e-12)


def test_qdim_pins(model2, model3):
    assert model3.qdim(0) == 1.0
    assert model3.qdim(1) == pytest.approx(GOLDEN, abs=1e-12)
    assert model3.qdim(2) == pytest.approx(GOLDEN, abs=1e-12)
    assert model3.qdim(3) == pytest.approx(1.0, abs=1e-12)
    assert model2.qdim(1) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_f_matrix_golden_literal(model3):
    fm = model3.f_symbol(1, 1, 1, 1)
    assert fm.rows == (0, 2) and fm.cols == (0, 2)
    expected = np.array([
        [-1 / GOLDEN, 1 / math.sqrt(GOLDEN)],
        [1 / math.sqrt(GOLDEN), 1 / GOLDEN],
    ])
    assert np.allclose(fm.matrix, expected, atol=1e-12)


def test_f_matrix_k2_literal(model2):
    fm = model2.f_symbol(1, 1, 1, 1)
    s = 1 / math.sqrt(2)
    assert np.allclose(fm.matrix, np.array([[-s, s], [s, s]]), atol=1e-12)


def test_f_with_vacuum_label_is_scalar_one(model3):
    for a, b, c, d in ((0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 0), (0, 0, 0, 0),
                       (2, 0, 2, 0), (0, 3, 1, 2)):
        fm = model3.f_symbol(a, b, c, d)
        assert fm.matrix.shape == (1, 1)
        assert fm.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_f_matrices_real_orthogonal():
    for k in (3, 5):
        model = AnyonModel(k)
        for a in model.charges:
            for b in model.charges:
                for d in model.charges:
                    for c in model.fuse(a, b):
                        for t in model.fuse(c, d):
                            fm = model.f_symbol(a, b, d, t)
                            M = fm.matrix
                            assert np.allclose(M.imag, 0, atol=1e-14)
                            assert np.allclose(M @ M.T, np.eye(M.shape[0]),
                                               atol=1e-12)
                            break


def test_r_symbol_literals(model2, model3):
    # (-1)^((a+b-c)/2) * exp(i pi (c(c+2) - a(a+2) - b(b+2)) / (4(k+2)))
    assert model3.r_symbol(1, 1, 0) == pytest.approx(
        -cmath.exp(-0.3j * cmath.pi), abs=1e-12)
    assert model3.r_symbol(1, 1, 2) == pytest.approx(
        cmath.exp(0.1j * cmath.pi), abs=1e-12)
    assert model2.r_symbol(1, 1, 0) == pytest.approx(
        -cmath.exp(-0.375j * cmath.pi), abs=1e-12)
    assert model2.r_symbol(1, 1, 2) == pytest.approx(
        cmath.exp(0.125j * cmath.pi), abs=1e-12)


def test_r_symbols_unimodular():
    for k in (2, 3, 8):
        model = AnyonModel(k)
        for a in model.charges:
            for b in model.charges:
                for c in model.fuse(a, b):
                    assert abs(abs(model.r_symbol(a, b, c)) - 1) < 1e-12


def test_pentagon_hexagon_tight(model2, model3):
    assert model2.verify_pentagon() < 1e-12
    assert model2.verify_hexagon() < 1e-12
    assert model3.verify_pentagon() < 1e-12
    assert model3.verify_hexagon() < 1e-12


def test_invalid_charge_rejected(model3):
    with pytest.raises(ValueError):
        model3.fuse(1, 4)
    with pytest.raises(ValueError):
        model3.qdim(-1)


def test_corruption_is_detected():
    model = AnyonModel(3)
    model.corrupt_f_symbol(1, 1, 1, 1)
    assert model.verify_pentagon() > 1e-4
    with pytest.raises(ConsistencyError):
        model.verify_pentagon(tolerance=1e-9)


def _dense_residuals(model):
    """Test-only oracle: the pentagon and hexagon residuals from dense
    zero-padded (k+1)^6 F and (k+1)^3 R tables contracted with einsum."""
    n = model.k + 1
    ftab = np.zeros((n,) * 6)
    for a in model.charges:
        for b in model.charges:
            for e in model.fuse(a, b):
                for c in model.charges:
                    for d in model.fuse(e, c):
                        block = model.f_symbol(a, b, c, d)
                        for i, ee in enumerate(block.rows):
                            for j, ff in enumerate(block.cols):
                                ftab[a, b, c, d, ee, ff] = block.matrix[i, j]
    rtab = np.zeros((n,) * 3, dtype=np.complex128)
    for a in model.charges:
        for b in model.charges:
            for c in model.fuse(a, b):
                rtab[a, b, c] = model.r_symbol(a, b, c)
    pentagon = 0.0
    for a in model.charges:
        for b in model.charges:
            ab = ftab[a, b]
            lhs = np.einsum("xcdtyz,ztxu->cdtxyzu", ftab, ab, optimize=True)
            rhs = np.einsum("cyxw,wdtyu,cduwz->cdtxyzu", ab, ftab[a], ftab[b],
                            optimize=True)
            pentagon = max(pentagon, float(np.abs(lhs - rhs).max()))
    hexagon = 0.0
    for rr in (rtab, np.conj(rtab)):
        lhs = np.einsum("cae,acbdeg,cbg->abcdeg", rr, ftab, rr, optimize=True)
        rhs = np.einsum("cabdef,cfd,abcdfg->abcdeg", ftab, rr, ftab, optimize=True)
        hexagon = max(hexagon, float(np.abs(lhs - rhs).max()))
    return pentagon, hexagon


@pytest.mark.parametrize("k, damaged", [
    (2, ()), (3, ()), (4, ()), (5, ()),
    (3, ((1, 1, 1, 1),)),
    (4, ((1, 2, 1, 2),)),
    (5, ((2, 2, 2, 2),)),
    (5, ((1, 1, 1, 1), (1, 2, 1, 2), (2, 3, 3, 2))),
])
def test_sparse_checks_match_dense_oracle(k, damaged):
    model = AnyonModel(k)
    for block in damaged:
        model.corrupt_f_symbol(*block)
    pentagon, hexagon = _dense_residuals(model)
    if damaged:
        assert pentagon > 1e-4
    assert abs(model.verify_pentagon() - pentagon) <= 1e-14
    assert abs(model.verify_hexagon() - hexagon) <= 1e-14


def test_precompute_fills_the_shared_table():
    AnyonModel(6).precompute()
    fresh = AnyonModel(6)
    blocks = {(a, b, c, d) for a in fresh.charges for b in fresh.charges
              for e in fresh.fuse(a, b) for c in fresh.charges
              for d in fresh.fuse(e, c)}
    phases = {(a, b, c) for a in fresh.charges for b in fresh.charges
              for c in fresh.fuse(a, b)}
    assert set(fresh.symbols.f_symbols) == blocks
    assert set(fresh.symbols.r_symbols) == phases
    assert fresh.f_symbol(2, 2, 2, 2) is fresh.symbols.f_symbols[(2, 2, 2, 2)]


def _sigma2_defect(model):
    basis = enumerate_basis(model, (1, 1, 1, 1), 0)
    G = braid_generator(model, basis, 2)
    return float(np.abs(G.conj().T @ G - np.eye(basis.dim)).max())


def test_corruption_does_not_leak_into_fresh_models():
    broken = AnyonModel(3)
    broken.corrupt_f_symbol(1, 1, 1, 1)
    assert _sigma2_defect(broken) > 1e-3
    assert _sigma2_defect(AnyonModel(3)) < 1e-12


def test_corrupted_models_do_not_share_a_table():
    first, second = AnyonModel(3), AnyonModel(3)
    first.corrupt_f_symbol(1, 1, 1, 1, delta=1e-2)
    second.corrupt_f_symbol(1, 1, 1, 1, delta=3e-2)
    clean = AnyonModel(3).symbols
    assert len({id(first.symbols), id(second.symbols), id(clean)}) == 3
    assert _sigma2_defect(second) > 2 * _sigma2_defect(first)
