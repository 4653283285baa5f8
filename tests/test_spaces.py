"""Fusion-tree bases, braid generators, and block regrouping."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonforge import (
    AnyonModel,
    GroupedLabel,
    Grouping,
    braid_generator,
    composite_braid_generator,
    enumerate_basis,
    inverse_braid_generator,
    regroup,
    swap_leaves,
)
from anyonforge.spaces import _absorb, swap_blocks


def assert_unitary(M, tol=1e-12):
    assert M.shape[0] == M.shape[1]
    assert np.allclose(M.conj().T @ M, np.eye(M.shape[1]), atol=tol)


def test_six_half_spin_dimensions(model2, model3):
    assert enumerate_basis(model3, (1,) * 6, 0).dim == 5
    assert enumerate_basis(model2, (1,) * 6, 0).dim == 4
    assert enumerate_basis(AnyonModel(5), (1,) * 6, 0).dim == 5
    assert enumerate_basis(AnyonModel(8), (1,) * 6, 0).dim == 5


def test_basis_cache_hit_still_rejects_bad_labels(model3):
    basis = enumerate_basis(model3, (1, 1), 0)
    assert enumerate_basis(model3, [1, 1], 0) is basis
    for leaves, total in (((True, 1), 0), ((1, 1), False), ((1, 9), 0),
                          ((1, -1), 0), ((1, 1), 4), ((1.0, 1), 0)):
        with pytest.raises(ValueError):
            enumerate_basis(model3, leaves, total)


def test_numpy_int_leaves_hit_the_basis_cache(model3):
    basis = enumerate_basis(model3, (1, 2, 1), 0)
    assert enumerate_basis(model3, (np.int64(1), np.int64(2), np.int64(1)),
                           np.int64(0)) is basis
    assert enumerate_basis(model3, np.array([1, 2, 1]), 0) is basis


def test_basis_trees_lexicographic_and_valid(model3):
    basis = enumerate_basis(model3, (1,) * 6, 0)
    paths = list(basis.trees)
    assert paths == sorted(paths)
    assert paths == [
        (1, 0, 1, 0, 1, 0),
        (1, 0, 1, 2, 1, 0),
        (1, 2, 1, 0, 1, 0),
        (1, 2, 1, 2, 1, 0),
        (1, 2, 3, 2, 1, 0),
    ]
    for path in basis.trees:
        assert path[0] == basis.leaves[0]
        assert path[-1] == basis.total == 0
        for i in range(1, 6):
            assert path[i] in model3.fuse(path[i - 1], basis.leaves[i])


def test_basis_index_round_trip(model3):
    basis = enumerate_basis(model3, (1,) * 4, 0)
    assert basis.dim == 2
    for i, path in enumerate(basis.trees):
        assert basis.index(path) == i
    with pytest.raises(KeyError):
        basis.index((1, 2, 3, 0))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, 2]), min_size=2, max_size=5), st.data())
def test_dimension_equals_path_count(leaves, data):
    model = AnyonModel(3)
    total = data.draw(st.sampled_from(model.charges))
    paths = [(leaves[0],)]
    for leaf in leaves[1:]:
        paths = [p + (c,) for p in paths for c in model.fuse(p[-1], leaf)]
    expected = sum(1 for p in paths if p[-1] == total)
    assert enumerate_basis(model, tuple(leaves), total).dim == expected


def test_generators_unitary_and_relations(model3):
    basis = enumerate_basis(model3, (1,) * 6, 0)
    sig = [braid_generator(model3, basis, i) for i in range(1, 6)]
    for s in sig:
        assert_unitary(s)
    for i in range(4):
        assert np.allclose(sig[i] @ sig[i + 1] @ sig[i],
                           sig[i + 1] @ sig[i] @ sig[i + 1], atol=1e-12)
    for i in range(5):
        for j in range(i + 2, 5):
            assert np.allclose(sig[i] @ sig[j], sig[j] @ sig[i], atol=1e-12)


def test_inverse_generator_inverts(model3):
    basis = enumerate_basis(model3, (1,) * 6, 0)
    for pos in (1, 3, 5):
        forward = braid_generator(model3, basis, pos)
        backward = inverse_braid_generator(model3, basis, pos)
        assert np.allclose(backward @ forward, np.eye(basis.dim), atol=1e-12)


def test_mixed_charges_map_between_bases(model8):
    basis = enumerate_basis(model8, (1, 2), 1)
    swapped = enumerate_basis(model8, (2, 1), 1)
    s = braid_generator(model8, basis, 1)
    assert s.shape == (swapped.dim, basis.dim) == (1, 1)
    assert abs(abs(s[0, 0]) - 1) < 1e-12
    assert swap_leaves((1, 2), 1) == (2, 1)


def _entrywise_generator(model, basis, position):
    """Test-only copy of ``braid_generator`` as one R lookup and one tree
    lookup per matrix entry."""
    i = position - 1
    a, b = basis.leaves[i], basis.leaves[i + 1]
    target = enumerate_basis(model, swap_leaves(basis.leaves, position), basis.total)
    matrix = np.zeros((target.dim, basis.dim), dtype=np.complex128)
    for col, path in enumerate(basis.trees):
        prefix = path[i - 1] if i >= 1 else 0
        upper = path[i + 1] if i + 1 < len(path) else path[-1]
        fwd = model.f_symbol(prefix, a, b, upper)
        back = model.f_symbol(prefix, b, a, upper)
        row_of = fwd.rows.index(path[i])
        for e_new_idx, e_new in enumerate(back.rows):
            amp = 0.0j
            for g_idx, g in enumerate(fwd.cols):
                amp += (fwd.matrix[row_of, g_idx] * model.r_symbol(a, b, g)
                        * back.matrix[e_new_idx, g_idx])
            if amp == 0.0j:
                continue
            internals = list(path)
            internals[i] = e_new
            matrix[target.index(tuple(internals)), col] = amp
    return matrix


@pytest.mark.parametrize("k, count", [(2, 284), (3, 2466), (5, 3827), (8, 5618)])
def test_generators_equal_the_entrywise_route_bit_for_bit(k, count):
    model = AnyonModel(k)
    charges = [c for c in (1, 2, 3) if c <= k]
    built = 0
    for size in range(2, 6):
        for leaves in itertools.product(charges, repeat=size):
            for total in model.charges:
                basis = enumerate_basis(model, leaves, total)
                if basis.dim == 0:
                    continue
                for position in range(1, size):
                    matrix = braid_generator(model, basis, position)
                    expected = _entrywise_generator(model, basis, position)
                    assert matrix.shape == expected.shape
                    assert matrix.tobytes() == expected.tobytes()
                    assert not matrix.flags.writeable
                    built += 1
    assert built == count


@pytest.mark.parametrize("k", [3, 5, 8])
def test_single_strand_composite_is_the_generator_bit_for_bit(k):
    """Two one-strand blocks exchange by the elementary generator itself;
    a product with the identity would flip the sign of some zero parts."""
    model = AnyonModel(k)
    for size in range(2, 5):
        grouping = Grouping.of_sizes(*[1] * size)
        for leaves in itertools.product((1, 2), repeat=size):
            for total in model.charges:
                basis = enumerate_basis(model, leaves, total)
                if basis.dim == 0:
                    continue
                for position in range(1, size):
                    comp = composite_braid_generator(model, basis, grouping, position)
                    assert comp.tobytes() == braid_generator(model, basis, position).tobytes()
                    assert not comp.flags.writeable


def test_two_strand_exchange_order_ten(model3):
    blocks = []
    for total in (0, 2):
        basis = enumerate_basis(model3, (1, 1), total)
        blocks.append(braid_generator(model3, basis, 1)[0, 0])
    U = np.diag(blocks)
    power = np.linalg.matrix_power(U, 10)
    phase = power[0, 0]
    assert abs(abs(phase) - 1) < 1e-12
    assert np.allclose(power, phase * np.eye(2), atol=1e-12)
    for n in range(1, 10):
        partial = np.linalg.matrix_power(U, n)
        assert not np.allclose(partial, partial[0, 0] * np.eye(2), atol=1e-6)


def _projective_image(k: int, cap: int) -> int:
    """Classes up to phase of the braid group's image on four spin-1/2
    anyons with total 0, walked breadth first from the identity; stops
    once more than ``cap`` are found.  U (x) conj(U) is the class key:
    it forgets exactly the global phase."""
    model = AnyonModel(k)
    basis = enumerate_basis(model, (1, 1, 1, 1), 0)
    gens = [step(model, basis, pos) for pos in (1, 2, 3)
            for step in (braid_generator, inverse_braid_generator)]

    def key(U):
        return (np.round(np.kron(U, U.conj()), 8) + 0.0).tobytes()

    frontier = [np.eye(basis.dim, dtype=np.complex128)]
    seen = {key(frontier[0])}
    while frontier and len(seen) <= cap:
        grown = []
        for U in frontier:
            for G in gens:
                V = G @ U
                if key(V) not in seen:
                    seen.add(key(V))
                    grown.append(V)
        frontier = grown
    return len(seen)


@pytest.mark.parametrize("k, order", [(2, 24), (4, 12), (8, 60)])
def test_braid_image_is_finite_at_levels_2_4_8(k, order):
    """The paper's level boundary: at k = 2, 4 and 8 braiding alone
    reaches a finite set of qubit gates (up to phase), the icosahedral
    group at k = 8, so it cannot be universal there."""
    assert _projective_image(k, cap=1000) == order


@pytest.mark.parametrize("k", [3, 5])
def test_braid_image_is_not_closed_at_levels_3_5(k):
    """At k = 3 and 5 the image keeps growing: dense, hence universal."""
    assert _projective_image(k, cap=1000) > 1000


def test_regroup_unitary_and_sectors(model3):
    basis = enumerate_basis(model3, (1,) * 6, 0)
    grouped, U = regroup(model3, basis, Grouping.of_sizes(2, 2, 2))
    assert_unitary(U)
    counts = {key: len(val) for key, val in grouped.sectors.items()}
    assert counts == {(0, 0, 0): 1, (0, 2, 2): 1, (2, 0, 2): 1,
                      (2, 2, 0): 1, (2, 2, 2): 1}
    assert len(set(grouped.labels)) == grouped.dim


def test_trivial_grouping_is_identity(model3):
    basis = enumerate_basis(model3, (1,) * 6, 0)
    _, U = regroup(model3, basis, Grouping.of_sizes(*[1] * 6))
    assert np.array_equal(U, np.eye(5))


def _sorted_frame(model, basis, grouping):
    """The regrouped frame as the sort-based construction built it: every
    (block charges, block trees) choice, coarse sequences grown through
    ``fuse``, then all labels sorted."""
    block_leaves = grouping.block_charges(basis.leaves)
    per_block = [sorted({(c, path) for c in range(model.k + 1)
                         for path in enumerate_basis(model, leaves, c).trees})
                 for leaves in block_leaves]
    labels = []
    for choice in itertools.product(*per_block):
        charges = tuple(c for c, _ in choice)
        seqs = [(charges[0],)]
        for c in charges[1:]:
            seqs = [seq + (nxt,) for seq in seqs for nxt in model.fuse(seq[-1], c)]
        labels += [GroupedLabel(charges, seq, tuple(t for _, t in choice))
                   for seq in seqs if seq[-1] == basis.total]
    labels.sort(key=lambda label: (label.block_charges, label.coarse,
                                   label.block_internals))
    fine = {path: i for i, path in enumerate(basis.trees)}
    matrix = np.zeros((len(labels), basis.dim), dtype=np.complex128)
    for row, label in enumerate(labels):
        parts = [_absorb(model, label.coarse[j - 1] if j else 0, leaves,
                         label.block_internals[j], label.coarse[j]).items()
                 for j, leaves in enumerate(block_leaves)]
        for combo in itertools.product(*parts):
            col = fine.get(tuple(c for segment, _ in combo for c in segment))
            if col is None:
                continue
            amp = 1.0 + 0.0j
            for _, coeff in combo:
                amp *= coeff
            matrix[row, col] += np.conj(amp)
    return tuple(labels), matrix


def _groupings(n):
    """Every partition of n strands into contiguous blocks."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        sizes = [1]
        for cut in cuts:
            if cut:
                sizes.append(1)
            else:
                sizes[-1] += 1
        yield Grouping.of_sizes(*sizes)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_regroup_emits_the_sorted_frame_sector_by_sector(k):
    """Labels and transform bytes equal the sort-based construction, for
    every grouping of 2-6 strands from {1, 2, 3}: every (leaves, total)
    with a nonempty basis up to 3 strands, a fixed sample of 12, 6 and 3
    at 4, 5 and 6 strands.  Each sector is one run of the frame."""
    model = AnyonModel(k)
    charges = [c for c in (1, 2, 3) if c <= k]
    for n in range(2, 7):
        bases = [basis for leaves in itertools.product(charges, repeat=n)
                 for total in range(k + 1)
                 if (basis := enumerate_basis(model, leaves, total)).dim]
        for basis in bases if n <= 3 else random.Random(n).sample(bases, 24 >> n - 3):
            for grouping in _groupings(n):
                grouped, U = regroup(model, basis, grouping)
                labels, want = _sorted_frame(model, basis, grouping)
                assert grouped.labels == labels
                assert U.tobytes() == want.tobytes()
                for sector, run in grouped.sectors.items():
                    assert run == tuple(range(run[0], run[0] + len(run)))
                    assert {grouped.labels[i].block_charges for i in run} == {sector}


def test_sectors_are_built_once_and_read_only(model3):
    grouped, _ = regroup(model3, enumerate_basis(model3, (1,) * 6, 0),
                         Grouping.of_sizes(2, 2, 2))
    sectors = grouped.sectors
    assert grouped.sectors is sectors
    with pytest.raises(TypeError):
        sectors[(0, 0, 0)] = ()
    assert isinstance(sectors[(0, 0, 0)], tuple)


def test_pair_composite_equals_coarse_r(model3):
    basis = enumerate_basis(model3, (1, 1, 1, 1), 0)
    grouping = Grouping.of_sizes(2, 2)
    grouped, U = regroup(model3, basis, grouping)
    comp = composite_braid_generator(model3, basis, grouping, 1)
    assert not comp.flags.writeable
    G = U @ comp @ U.conj().T
    position = {grouped.labels[i].block_charges: i for i in range(grouped.dim)}
    assert G[position[(0, 0)], position[(0, 0)]] == pytest.approx(
        model3.r_symbol(0, 0, 0), abs=1e-12)
    assert G[position[(2, 2)], position[(2, 2)]] == pytest.approx(
        model3.r_symbol(2, 2, 0), abs=1e-12)
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) < 1e-12


def test_unbalanced_composite_transports_trees_uniformly(model3):
    """A (1,3)-block exchange must act as one coarse phase on the whole
    sector, independent of the big block's internal tree."""
    basis = enumerate_basis(model3, (1, 1, 1, 1), 0)
    grouping = Grouping.of_sizes(1, 3)
    grouped, U_in = regroup(model3, basis, grouping)
    comp = composite_braid_generator(model3, basis, grouping, 1)
    grouped_out, U_out = regroup(model3, basis, swap_blocks(basis.leaves, grouping, 1)[1])
    G = U_out @ comp @ U_in.conj().T
    phase = model3.r_symbol(1, 1, 0)
    src = {grouped.labels[i].block_internals: i for i in range(grouped.dim)}
    dst = {grouped_out.labels[i].block_internals: i
           for i in range(grouped_out.dim)}
    for tree in ((1, 0, 1), (1, 2, 1)):
        entry = G[dst[(tree, (1,))], src[((1,), tree)]]
        assert entry == pytest.approx(phase, abs=1e-12)


def test_grouping_validation():
    with pytest.raises(ValueError):
        Grouping(((1, 3), (2,)))  # blocks must be contiguous
    g = Grouping.of_sizes(1, 2, 2, 1)
    assert g.blocks == ((1,), (2, 3), (4, 5), (6,))
    assert g.strand_count == 6
