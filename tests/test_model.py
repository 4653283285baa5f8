"""Fusion rules, quantum dimensions, F/R symbols, and consistency checks."""

import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonforge import (MAX_LEVEL, AnyonModel, SymbolCache, braid_generator,
                        enumerate_basis)
from anyonforge import model as model_module

GOLDEN = (1 + math.sqrt(5)) / 2


def test_charge_list_is_twice_spin_range(model3):
    assert model3.charges == (0, 1, 2, 3)
    assert AnyonModel(8).charges == tuple(range(9))


def test_level_bound_is_the_int32_index_limit():
    """The largest level is the largest whose (k+1)^5 flat F index fits in
    int32; any other level is refused before anything is built."""
    assert (MAX_LEVEL + 1) ** 5 <= np.iinfo(np.int32).max < (MAX_LEVEL + 2) ** 5
    assert AnyonModel(MAX_LEVEL).k == MAX_LEVEL
    for k in (1, MAX_LEVEL + 1, 10**9):
        with pytest.raises(ValueError):
            AnyonModel(k)


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


def test_symbol_cache_hits_still_reject_bad_labels(model3):
    block = model3.f_symbol(1, 1, 1, 1)
    phase = model3.r_symbol(1, 1, 0)
    assert model3.f_symbol(np.int64(1), 1, np.int32(1), 1) is block
    assert model3.r_symbol(np.int64(1), 1, np.int64(0)) == phase
    for labels in ((True, 1, 1, 1), (1, 1, 1, 9), (1, -1, 1, 1), (1.0, 1, 1, 1)):
        with pytest.raises(ValueError):
            model3.f_symbol(*labels)
    for labels in ((True, 1, 0), (1, 1, 4), (1, 1, -1), (1, 1, 0.0)):
        with pytest.raises(ValueError):
            model3.r_symbol(*labels)


def test_corruption_is_detected():
    model = AnyonModel(3)
    model.corrupt_f_symbol(1, 1, 1, 1)
    assert model.verify_pentagon() > 1e-4


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


def _f_block_keys(model):
    """Every admissible (a, b, c, d)."""
    return [(a, b, c, d) for a in model.charges for b in model.charges
            for e in model.fuse(a, b) for c in model.charges for d in model.fuse(e, c)]


def _table_block(model, a, b, c, d):
    """Block (a, b, c, d) read back from the flat F table: the channels its
    index marks, and a fresh array of the entries it holds."""
    F = model._f_table()
    at = F.at(a, b, c, d)
    rows = tuple(np.flatnonzero(F.rows[at:at + F.n]).tolist())
    cols = tuple(np.flatnonzero(F.cols[at:at + F.n]).tolist())
    return rows, cols, F(at, np.array(rows)[:, None], np.array(cols))


def test_precompute_leaves_the_lazy_f_cache_alone():
    """``precompute`` builds the flat F table; it neither adds nor replaces
    an F block in ``f_symbols``."""
    model = AnyonModel(6)
    model.symbols = SymbolCache(6)
    block = model.f_symbol(2, 2, 2, 2)
    before = {key: id(value) for key, value in model.symbols.f_symbols.items()}
    model.precompute()
    after = {key: id(value) for key, value in model.symbols.f_symbols.items()}
    assert after == before
    assert model.f_symbol(2, 2, 2, 2) is block
    assert not model.symbols.f_table.values.flags.writeable


def _sigma2_defect(model):
    basis = enumerate_basis(model, (1, 1, 1, 1), 0)
    G = braid_generator(model, basis, 2)
    return float(np.abs(G.conj().T @ G - np.eye(basis.dim)).max())


def test_corruption_does_not_leak_into_fresh_models():
    broken = AnyonModel(3)
    broken.corrupt_f_symbol(1, 1, 1, 1)
    assert _sigma2_defect(broken) > 1e-3
    assert _sigma2_defect(AnyonModel(3)) < 1e-12


def test_models_are_equal_only_when_they_read_one_table():
    clean, other, damaged = AnyonModel(3), AnyonModel(3), AnyonModel(3)
    damaged.corrupt_f_symbol(1, 1, 1, 1)
    assert clean == other and hash(clean) == hash(other)
    assert damaged != clean and damaged == damaged
    assert hash(damaged) == hash(clean)
    assert len({clean, other, damaged}) == 2
    assert AnyonModel(4) != clean


def test_corrupted_models_do_not_share_a_table():
    first, second = AnyonModel(3), AnyonModel(3)
    first.corrupt_f_symbol(1, 1, 1, 1, delta=1e-2)
    second.corrupt_f_symbol(1, 1, 1, 1, delta=3e-2)
    clean = AnyonModel(3).symbols
    assert len({id(first.symbols), id(second.symbols), id(clean)}) == 3
    assert _sigma2_defect(second) > 2 * _sigma2_defect(first)


def test_second_model_of_a_level_builds_no_table(monkeypatch):
    """A level's clean table is built once: a later model of that level
    takes it and constructs no ``SymbolCache`` of its own."""
    table = AnyonModel(3).symbols

    def unexpected(k):
        raise AssertionError("a model built a symbol table its level already has")

    monkeypatch.setattr(model_module, "SymbolCache", unexpected)
    assert AnyonModel(3).symbols is table


def test_batched_f_table_keeps_a_damaged_block():
    broken = AnyonModel(4)
    broken.symbols = SymbolCache(4)
    broken.corrupt_f_symbol(1, 2, 1, 2)
    damaged = broken.symbols.f_symbols[(1, 2, 1, 2)]
    broken.precompute()
    assert broken.symbols.f_symbols[(1, 2, 1, 2)] is damaged
    assert broken.f_symbol(1, 2, 1, 2) is damaged
    assert broken.verify_pentagon() > 1e-4


@pytest.mark.parametrize("k", range(2, 9))
def test_f_symbol_reads_the_flat_table_bit_for_bit(k, monkeypatch):
    """Once the level's flat table exists, ``f_symbol`` reads every block
    from it, with the rows, columns and bytes of a scalar build."""
    scalar = AnyonModel(k)
    scalar.symbols = SymbolCache(k)
    keys = _f_block_keys(scalar)
    want = [scalar.f_symbol(*key) for key in keys]
    assert scalar.symbols.f_table is None
    model = AnyonModel(k)
    model.symbols = SymbolCache(k)
    model.precompute()

    def unexpected(*args):
        raise AssertionError("a block was built by the scalar route")

    monkeypatch.setattr(AnyonModel, "_six_j", unexpected)
    for key, block in zip(keys, want):
        got = model.f_symbol(*key)
        assert (got.rows, got.cols) == (block.rows, block.cols)
        assert got.matrix.shape == block.matrix.shape
        assert got.matrix.tobytes() == block.matrix.tobytes()
        assert not got.matrix.flags.writeable
        assert model.f_symbol(*key) is got


def test_f_symbol_reads_a_damaged_block_over_the_table():
    """A block damaged before the table is built is the one ``f_symbol``
    reads after it; so is one damaged on a model whose clean table
    already has a flat table (the damage moves it onto a private copy)."""
    clean = AnyonModel(3)
    clean.precompute()
    for model in (AnyonModel(5), clean):
        model.corrupt_f_symbol(1, 1, 1, 1)
        damaged = model.symbols.f_symbols[(1, 1, 1, 1)]
        assert model.symbols.f_table is None
        model.precompute()
        assert model.f_symbol(1, 1, 1, 1) is damaged
        assert model.f_symbol(1, 1, 1, 1).matrix.tobytes() != \
            AnyonModel(model.k).f_symbol(1, 1, 1, 1).matrix.tobytes()


def test_f_symbol_never_builds_a_flat_table():
    """A path that reads only a few blocks pays for those blocks alone:
    without a flat table ``f_symbol`` builds each block by the scalar
    route and leaves the table unbuilt."""
    model = AnyonModel(6)
    model.symbols = SymbolCache(6)
    for key in _f_block_keys(model):
        model.f_symbol(*key)
    assert model.symbols.f_table is None


def test_batched_f_build_memory_is_bounded():
    """The F table's q-Racah pass runs in batches of ``_BATCH_ROWS``
    entries and lays its arrays straight into the flat table:
    ``precompute()`` at k=10 peaked at 2.5 MB and kept 1.2 MB, against
    5.2 MB and 3.7 MB when it also kept a read-only view of every block in
    ``f_symbols`` (5.9 MB peak for the per-block ``f_symbol`` loop before
    that).  The table's entries equal the lazily built blocks bit for
    bit."""
    model = AnyonModel(10)
    model.symbols = SymbolCache(10)
    tracemalloc.start()
    try:
        model.precompute()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.9e6
    assert retained <= 2.0e6
    assert not model.symbols.f_symbols
    lazy = AnyonModel(10)
    lazy.symbols = SymbolCache(10)
    for key in _f_block_keys(model):
        rows, cols, matrix = _table_block(model, *key)
        expected = lazy.f_symbol(*key)
        assert (rows, cols) == (expected.rows, expected.cols)
        assert matrix.tobytes() == expected.matrix.tobytes()


# --- the batched checks against the per-triple loops they replaced -----------

class _SparseTable:
    """Test-only copy of the symbol reads the loop oracle below uses:
    sorted keys and ``np.searchsorted``; absent tuples read 0."""

    def __init__(self, k, entries):
        labels = np.array(list(entries)).T
        self.dims = (k + 1,) * len(labels)
        keys = np.ravel_multi_index(labels, self.dims)
        order = np.argsort(keys)
        self.keys = keys[order]
        self.values = np.append(np.array(list(entries.values()))[order], 0)

    def __call__(self, *labels):
        key = np.ravel_multi_index(labels, self.dims)
        pos = np.searchsorted(self.keys, key)
        pos[self.keys.take(pos, mode="clip") != key] = len(self.keys)
        return self.values[pos]


def _loop_fan_out(k, columns, p, q):
    size = len(columns[0])
    lo = np.zeros(size, dtype=np.int64) + np.abs(p - q)
    count = (np.minimum(p + q, 2 * k - p - q) - lo) // 2 + 1
    row = np.repeat(np.arange(size), count)
    step = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    return [col[row] for col in columns] + [lo[row] + 2 * step]


def _loop_admissible(k, a, b, c):
    return ((a + b + c) % 2 == 0) & (np.abs(a - b) <= c) & (c <= a + b) \
        & (a + b + c <= 2 * k)


def _loop_tables(model):
    """Test-only oracle tables: every F and R symbol of the model, looked
    up by label tuple."""
    k = model.k
    phases = {}
    for a, b in itertools.product(model.charges, repeat=2):
        for e in model.fuse(a, b):
            phases[(a, b, e)] = model.r_symbol(a, b, e)
            for c in model.charges:
                for d in model.fuse(e, c):
                    model.f_symbol(a, b, c, d)
    F = _SparseTable(k, {
        (a, b, c, d, e, f): block.matrix[i, j]
        for (a, b, c, d), block in model.symbols.f_symbols.items()
        for i, e in enumerate(block.rows)
        for j, f in enumerate(block.cols)
    })
    return F, _SparseTable(k, phases)


def _loop_hexagon(model, F, R):
    """Per (a, b) pair, the hexagon residual of every label tuple: the
    counterclockwise array, then the clockwise one (every R conjugated)."""
    k = model.k
    for a, b in itertools.product(model.charges, repeat=2):
        c = np.arange(k + 1)
        c, e = _loop_fan_out(k, [c], a, c)
        c, e, d = _loop_fan_out(k, [c, e], e, b)
        c, e, d, g = _loop_fan_out(k, [c, e, d], b, c)
        keep = _loop_admissible(k, a, g, d)
        c, e, d, g = (v[keep] for v in (c, e, d, g))
        residuals = []
        for phase in (np.asarray, np.conj):
            lhs = phase(R(c, a, e)) * F(a, c, b, d, e, g) * phase(R(c, b, g))
            rhs = sum(F(c, a, b, d, e, f) * phase(R(c, f, d)) * F(a, b, c, d, f, g)
                      for f in model.fuse(a, b))
            residuals.append(np.abs(lhs - rhs))
        yield tuple(residuals)


def _loop_residuals(model):
    """Test-only oracle: the pentagon and hexagon residuals as one small
    numpy pipeline per (a, b, c) triple and per (a, b) pair, each identity's
    sum written as ``sum()`` over the channels; the hexagon over both
    chiralities."""
    k = model.k
    F, R = _loop_tables(model)
    pentagon = 0.0
    for a, b, c in itertools.product(model.charges, repeat=3):
        d, x = _loop_fan_out(k, [np.arange(k + 1)], a, b)
        d, x, y = _loop_fan_out(k, [d, x], x, c)
        d, x, y, t = _loop_fan_out(k, [d, x, y], y, d)
        d, x, y, t, z = _loop_fan_out(k, [d, x, y, t], c, d)
        d, x, y, t, z, u = _loop_fan_out(k, [d, x, y, t, z], b, z)
        keep = _loop_admissible(k, a, u, t)
        d, x, y, t, z, u = (v[keep] for v in (d, x, y, t, z, u))
        lhs = F(x, c, d, t, y, z) * F(a, b, z, t, x, u)
        rhs = sum(F(a, b, c, y, x, w) * F(a, w, d, t, y, u) * F(b, c, d, u, w, z)
                  for w in model.fuse(b, c))
        pentagon = max(pentagon, float(np.abs(lhs - rhs).max(initial=0.0)))
    hexagon = 0.0
    for residuals in _loop_hexagon(model, F, R):
        for residual in residuals:
            hexagon = max(hexagon, float(residual.max(initial=0.0)))
    return pentagon, hexagon


_ORACLE_CASES = [(k, ()) for k in range(2, 9)] + [
    (3, (1, 1, 1, 1)),
    (4, (1, 2, 1, 2)),
    (6, (2, 2, 2, 2)),
    (7, (3, 4, 3, 4)),
]


@pytest.mark.parametrize("k, damaged", _ORACLE_CASES)
def test_batched_checks_equal_the_loop_oracle_bit_for_bit(k, damaged):
    model = AnyonModel(k)
    if damaged:
        model.corrupt_f_symbol(*damaged)
    pentagon, hexagon = _loop_residuals(model)
    if damaged:
        assert pentagon > 1e-4
    assert model.verify_pentagon() == pentagon
    assert model.verify_hexagon() == hexagon


@pytest.mark.parametrize("k, damaged", _ORACLE_CASES)
def test_hexagon_chiralities_have_equal_residuals(k, damaged):
    """Every F is real, a damaged one too, so the clockwise hexagon is the
    complex conjugate of the counterclockwise one and every label tuple's
    residual is the same bit for bit: ``verify_hexagon`` checks one."""
    model = AnyonModel(k)
    if damaged:
        model.corrupt_f_symbol(*damaged)
    F, R = _loop_tables(model)
    for ccw, cw in _loop_hexagon(model, F, R):
        assert ccw.dtype == cw.dtype == np.float64
        assert ccw.tobytes() == cw.tobytes()


def test_corrupted_model_builds_its_own_flat_table():
    clean = AnyonModel(4)
    clean.precompute()
    table = clean.symbols.f_table
    before = table.values.tobytes()
    broken = AnyonModel(4)
    broken.corrupt_f_symbol(1, 2, 1, 2, delta=1e-2)
    assert broken.verify_pentagon() > 1e-4
    own = broken.symbols.f_table
    assert own is not table and own.values is not table.values
    assert table.values.tobytes() == before
    assert AnyonModel(4).symbols.f_table is table
    # Same layout, one damaged coefficient.
    changed = np.flatnonzero(own.values != table.values)
    assert len(changed) == 1
    assert own.values[changed[0]] == table.values[changed[0]] + 1e-2


@pytest.mark.parametrize("k, bound", [(10, 3.5e6), (12, 4.7e6)])
def test_pentagon_working_memory_is_bounded(k, bound):
    """Row batches of fixed size bound the check's own allocations; around
    them it keeps one (k+1)^5 int16 count of the trees.  Measured 2.4 MB
    at k=10 and 4.2 MB at k=12, against 4.0 MB at k=10 for the per-triple
    loops that built a sorted copy of every coefficient per call."""
    model = AnyonModel(k)
    model.precompute()
    tracemalloc.start()
    try:
        model.verify_pentagon()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("k", range(2, 17))
def test_left_and_right_trees_count_one_fusion_space(k):
    """Left trees and right trees are two bases of one fusion space, so
    the checks count each space once: the pentagon's two end trees agree
    for every (a, b, c, d, t), and the hexagon's two trees agree with the
    F table's block sizes for every (a, b, c, d)."""
    model = AnyonModel(k)
    N = np.array([[[model.can_fuse(a, b, c) for c in model.charges]
                   for b in model.charges] for a in model.charges], dtype=np.int16)
    left = np.einsum("abx,xcy,ydt->abcdt", N, N, N, optimize=True)
    right = np.einsum("cdz,bzu,aut->abcdt", N, N, N, optimize=True)
    assert np.array_equal(left, right)
    blocks = np.einsum("abe,ecd->abcd", N, N)
    assert np.array_equal(np.einsum("ace,ebd->abcd", N, N), blocks)
    assert np.array_equal(np.einsum("bcg,agd->abcd", N, N), blocks)


# --- the Racah internals against the f_symbol they replaced ------------------

def _public_triangle(model, a, b, c):
    fact = model._qfact
    num = fact[(-a + b + c) // 2] * fact[(a - b + c) // 2] * fact[(a + b - c) // 2]
    return math.sqrt(num / fact[(a + b + c) // 2 + 1])


def _public_six_j(model, a, b, e, c, d, f):
    if not (model.can_fuse(a, b, e) and model.can_fuse(a, d, f)
            and model.can_fuse(c, b, f) and model.can_fuse(c, d, e)):
        return 0.0
    triads = [(a + b + e) // 2, (a + d + f) // 2, (c + b + f) // 2, (c + d + e) // 2]
    quads = [(a + b + c + d) // 2, (a + e + c + f) // 2, (b + e + d + f) // 2]
    fact = model._qfact
    total = 0.0
    for z in range(max(triads), min(quads) + 1):
        term = fact[z + 1]
        if term == 0.0:
            continue
        for t in triads:
            term /= fact[z - t]
        for q in quads:
            term /= fact[q - z]
        total += -term if z % 2 else term
    return (total * _public_triangle(model, a, b, e) * _public_triangle(model, a, d, f)
            * _public_triangle(model, c, b, f) * _public_triangle(model, c, d, e))


def _public_f_block(model, a, b, c, d):
    """Test-only copy of ``f_symbol`` as it read labels through the public
    ``fuse``/``can_fuse``, which validate every label again."""
    rows = tuple(e for e in model.fuse(a, b) if model.can_fuse(e, c, d))
    cols = tuple(f for f in model.fuse(b, c) if model.can_fuse(a, f, d))
    sign = -1.0 if ((a + b + c + d) // 2) % 2 else 1.0
    matrix = np.empty((len(rows), len(cols)), dtype=np.float64)
    for i, e in enumerate(rows):
        for j, f in enumerate(cols):
            scale = math.sqrt(model._qint[e + 1] * model._qint[f + 1])
            matrix[i, j] = sign * scale * _public_six_j(model, a, b, e, c, d, f)
    return rows, cols, matrix


@pytest.mark.parametrize("k", [*range(2, 10), 12])
def test_f_blocks_equal_the_public_label_route_bit_for_bit(k):
    """Every block of a flat table built by the batched pass alone (no
    lazily built block to take over) against the public-label route."""
    model = AnyonModel(k)
    model.symbols = SymbolCache(k)
    model.precompute()
    for key in _f_block_keys(model):
        rows, cols, matrix = _table_block(model, *key)
        want_rows, want_cols, want = _public_f_block(model, *key)
        assert (rows, cols) == (want_rows, want_cols)
        assert matrix.tobytes() == want.tobytes()
