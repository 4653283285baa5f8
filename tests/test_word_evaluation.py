"""Braid-word evaluation through the level's symbol table.

Three independent routes must agree on random weaves: incremental sector
tracking, composite generators (``evaluate_tracked``, whose letters are
memoized in ``model.symbols.steps``), and the word spelled out as
elementary strand exchanges.  Memoized steps and regroup frames must give
the bytes a cold table gives, stay read-only, and stay with their table.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anyonforge import (
    AnyonModel,
    BraidWord,
    Grouping,
    MatrixRule,
    SynthesisTarget,
    braid_generator,
    composite_braid_generator,
    enumerate_basis,
    evaluate,
    evaluate_tracked,
    inverse_braid_generator,
    regroup,
    spaces,
    swap_leaves,
    synth,
    verify_braid_relations,
)
from anyonforge.model import SymbolCache
from anyonforge.spaces import swap_blocks


def _strand_letters(leaves: tuple, grouping: Grouping, pos: int, exp: int) -> list:
    """One block letter as elementary (position, exponent) exchanges.

    Spelled strand by strand of the right block, each moving left past the
    whole left block: the same positive permutation braid that
    ``composite_braid_generator`` builds in the other order.  An inverse
    letter is the inverse of the positive exchange from the swapped blocks.
    """
    if exp == -1:
        back = _strand_letters(*swap_blocks(leaves, grouping, pos), pos, 1)
        return [(p, -1) for p, _ in reversed(back)]
    left, right = grouping.blocks[pos - 1], grouping.blocks[pos]
    return [(left[0] + j + t, 1)
            for t in range(len(right)) for j in reversed(range(len(left)))]


def _elementary_route(model, basis, word, grouping):
    """``evaluate_tracked`` by products of elementary generators."""
    U = np.eye(basis.dim, dtype=np.complex128)
    leaves, g = basis.leaves, grouping
    for pos, exp in word.letters:
        letters = _strand_letters(leaves, g, pos, exp)
        g = swap_blocks(leaves, g, pos)[1]
        for p, e in letters:
            current = enumerate_basis(model, leaves, basis.total)
            gen = braid_generator if e == 1 else inverse_braid_generator
            U = gen(model, current, p) @ U
            leaves = swap_leaves(leaves, p)
    return U, leaves, g


def _weave(block_count: int, start: int, steps) -> BraidWord:
    """A freely reduced word moving one block from ``start`` (1-based)."""
    letters, pos = [], start
    for left, exp in steps:
        if (left and pos > 1) or pos == block_count:
            letters.append((pos - 1, exp))
            pos -= 1
        else:
            letters.append((pos, exp))
            pos += 1
    return BraidWord.reduced(block_count, letters)


@st.composite
def weave_problems(draw):
    k = draw(st.integers(2, 8))
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    assume(sum(sizes) <= 6)
    leaves = tuple(draw(st.sampled_from([1, 2])) for _ in range(sum(sizes)))
    model = AnyonModel(k)
    assume(enumerate_basis(model, leaves, 0).dim > 0)
    start = draw(st.integers(1, len(sizes)))
    steps = draw(st.lists(st.tuples(st.booleans(), st.sampled_from([1, -1])),
                          max_size=10))
    return model, leaves, Grouping.of_sizes(*sizes), _weave(len(sizes), start, steps)


def _target(model, leaves, grouping) -> SynthesisTarget:
    """A target scoring every block-charge sector of the system, so the
    incremental route tracks each of them."""
    grouped, _ = regroup(model, enumerate_basis(model, leaves, 0), grouping)
    rules = []
    for sector in sorted(grouped.sectors):
        dim = enumerate_basis(model, sector, 0).dim
        identity = tuple(tuple(complex(i == j) for j in range(dim))
                         for i in range(dim))
        rules.append(MatrixRule(sector, identity))
    n = len(grouping.blocks)
    return SynthesisTarget(
        name="routes", k=model.k, leaves=leaves,
        blocks=grouping.blocks, mobile=1, span=(1, n),
        final_arrangement=tuple(range(n)), rules=tuple(rules))


@settings(max_examples=40, deadline=None)
@given(weave_problems())
def test_three_evaluation_routes_agree(problem):
    model, leaves, grouping, word = problem
    basis = enumerate_basis(model, leaves, 0)

    U, final_leaves, final_grouping = evaluate_tracked(model, basis, word, grouping)
    U_fine, fine_leaves, fine_grouping = _elementary_route(model, basis, word, grouping)
    assert (final_leaves, final_grouping) == (fine_leaves, fine_grouping)
    assert np.abs(U - U_fine).max(initial=0.0) < 1e-12

    target = _target(model, leaves, grouping)
    tracker = synth._Problem(model, target)
    incremental = synth._replay(tracker, word.letters)
    composite = synth._coarse_from_full(tracker, word)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "evaluate_tracked", _elementary_route)
        elementary = synth._coarse_from_full(tracker, word)
    assert len(incremental) == len(composite) == len(elementary) == len(tracker.dims)
    for state, full, fine, dim in zip(incremental, composite, elementary, tracker.dims):
        tracked = np.array(state).reshape(dim, dim)
        assert np.abs(tracked - full).max() < 1e-12
        assert np.abs(tracked - fine).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(weave_problems())
def test_warm_table_repeats_cold_bytes(problem):
    model, leaves, grouping, word = problem
    model.symbols = SymbolCache(model.k)
    basis = enumerate_basis(model, leaves, 0)
    cold, cold_leaves, cold_grouping = evaluate_tracked(model, basis, word, grouping)
    steps = len(model.symbols.steps)
    warm, warm_leaves, warm_grouping = evaluate_tracked(model, basis, word, grouping)
    assert len(model.symbols.steps) == steps
    assert warm.tobytes() == cold.tobytes()
    assert (warm_leaves, warm_grouping) == (cold_leaves, cold_grouping)


def test_warm_letters_build_nothing(monkeypatch):
    model = AnyonModel(5)
    basis = enumerate_basis(model, (1, 1, 2, 1, 1, 2), 0)
    grouping = Grouping.of_sizes(2, 1, 2, 1)
    word = BraidWord(4, ((1, 1), (2, -1), (3, 1), (3, 1), (2, 1), (1, -1)))
    expected = evaluate(model, basis, word, grouping)

    def unexpected(*args, **kwargs):
        raise AssertionError("a warm letter rebuilt part of its step")

    for name in ("enumerate_basis", "composite_braid_generator", "swap_blocks"):
        monkeypatch.setattr(spaces, name, unexpected)
    monkeypatch.setattr(Grouping, "__post_init__", unexpected)
    assert evaluate(model, basis, word, grouping).tobytes() == expected.tobytes()


def _generator_product(model, leaves, total, positions):
    """The positive word with letters at ``positions`` over ``leaves`` at
    ``total``, as the product of its elementary generators, first letter
    first."""
    U = None
    for pos in positions:
        G = braid_generator(model, enumerate_basis(model, leaves, total), pos)
        U = G if U is None else G @ U
        leaves = swap_leaves(leaves, pos)
    return U


def _relation_gap_norms(model, leaves):
    """The 2-norm of every relation gap of ``leaves``, one at a time: both
    sides of each Yang-Baxter and far-commutativity word built from
    generator products, at every total with a nonempty basis."""
    n = len(leaves)
    words = [((i, i + 1, i), (i + 1, i, i + 1)) for i in range(1, n - 1)]
    words += [((i, j), (j, i)) for i in range(1, n - 1) for j in range(i + 2, n)]
    return [float(np.linalg.norm(_generator_product(model, leaves, total, left)
                                 - _generator_product(model, leaves, total, right), ord=2))
            for total in model.charges if enumerate_basis(model, leaves, total).dim
            for left, right in words]


def test_relation_words_equal_their_generator_products_bit_for_bit():
    """The braid-relation residual is the largest 2-norm of the gaps
    between both sides of every relation word, each side the product of
    its elementary generators, first letter first, to the last bit: one
    call per system and one call with all of them."""
    systems = ((1, 1, 1), (1, 2, 1, 2), (2, 1, 1, 1))
    gaps = 0
    for k in (3, 5, 8):
        model = AnyonModel(k)
        norms = {leaves: _relation_gap_norms(model, leaves) for leaves in systems}
        gaps += sum(map(len, norms.values()))
        for leaves in systems:
            assert repr(verify_braid_relations(model, leaves)) == repr(max(norms[leaves]))
        assert repr(verify_braid_relations(model, *systems)) == \
            repr(max(max(values) for values in norms.values()))
    assert gaps == 57


@pytest.mark.parametrize("letters", [(), ((2, 1),), ((2, -1),)])
def test_short_words_hand_out_their_own_array(letters):
    model = AnyonModel(3)
    basis = enumerate_basis(model, (1, 1, 1, 1), 0)
    word = BraidWord(4, letters)
    U = evaluate(model, basis, word)
    expected = U.tobytes()
    assert U.flags.writeable
    U[:] = 0.0
    assert evaluate(model, basis, word).tobytes() == expected


def test_grouping_must_cover_the_basis_strands():
    model = AnyonModel(3)
    model.symbols = SymbolCache(model.k)
    basis = enumerate_basis(model, (1, 1, 1, 1), 0)
    grouping = Grouping.of_sizes(1, 1)
    with pytest.raises(ValueError, match="covers 2 strands, basis has 4"):
        evaluate_tracked(model, basis, BraidWord(2, ((1, 1),)), grouping)
    with pytest.raises(ValueError, match="covers 2 strands, basis has 4"):
        composite_braid_generator(model, basis, grouping, 1)
    assert model.symbols.steps == {}


# --- cache isolation -----------------------------------------------------

def _evaluate_and_regroup(model):
    """Bytes of one block word and of both of its end frames at k=3; every
    one of them reads the F block (1, 1, 1, 1)."""
    basis = enumerate_basis(model, (1, 1, 1, 1), 0)
    grouping = Grouping.of_sizes(1, 3)
    word = BraidWord(2, ((1, 1), (1, 1)))
    U, leaves, final = evaluate_tracked(model, basis, word, grouping)
    _, t_in = regroup(model, basis, grouping)
    _, t_out = regroup(model, enumerate_basis(model, leaves, 0), final)
    return U.tobytes(), t_in.tobytes(), t_out.tobytes()


def test_corrupted_model_gets_its_own_steps_and_frames():
    clean = AnyonModel(3)
    before = _evaluate_and_regroup(clean)
    broken = AnyonModel(3)
    broken.corrupt_f_symbol(1, 1, 1, 1)
    assert broken.symbols.steps == {} and broken.symbols.frames == {}
    damaged = _evaluate_and_regroup(broken)
    for old, new in zip(before, damaged):
        assert old != new
    assert _evaluate_and_regroup(clean) == before
    assert _evaluate_and_regroup(AnyonModel(3)) == before


def test_cached_steps_and_frames_are_read_only():
    model = AnyonModel(3)
    basis = enumerate_basis(model, (1, 1, 1, 1, 1, 1), 0)
    grouping = Grouping.of_sizes(2, 1, 3)
    word = BraidWord(3, ((1, 1), (2, -1), (1, 1)))
    U = evaluate(model, basis, word, grouping)
    expected = U.tobytes()
    key = (basis.leaves, 0, grouping.blocks, 1, 1)
    matrix, _, _ = model.symbols.steps[key]
    with pytest.raises(ValueError):
        matrix[0, 0] = 0.0
    grouped, transform = regroup(model, basis, grouping)
    assert model.symbols.frames[(basis.leaves, 0, grouping.blocks)][1] is transform
    with pytest.raises(ValueError):
        transform[0, 0] = 0.0
    U[:] = 0.0
    assert evaluate(model, basis, word, grouping).tobytes() == expected
