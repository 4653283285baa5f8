"""Braid words, targets, the weave search, and its determinism contract."""

import inspect
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonforge import (
    AnyonModel,
    BraidWord,
    ColumnRule,
    ConsistencyError,
    DEFAULT_TOLERANCE,
    EncodingError,
    Grouping,
    MatrixRule,
    PhaseRule,
    SynthesisTarget,
    distance,
    enumerate_basis,
    evaluate,
    evaluate_tracked,
    exchange_counts,
    make_target_B1,
    make_target_B3,
    make_target_E,
    make_target_P,
    make_target_unitary,
    multi_qubit_code,
    regroup,
    score_braid,
    search,
    synth,
    verify_braid_relations,
    write_braid_file,
)
from anyonforge import _frontier, cli

X = np.array([[0, 1], [1, 0]], dtype=complex)


# --- braid words ---------------------------------------------------------

def test_braid_word_validation():
    word = BraidWord(4, ((1, 1), (2, -1)))
    assert len(word) == 2
    with pytest.raises(ValueError):
        BraidWord(4, ((4, 1),))  # position out of range
    with pytest.raises(ValueError):
        BraidWord(4, ((1, 2),))  # exponent must be +-1
    with pytest.raises(ValueError):
        BraidWord(4, ((1, 1), (1, -1)))  # not freely reduced


def test_braid_word_reduction_and_inverse():
    reduced = BraidWord.reduced(4, ((1, 1), (2, 1), (2, -1), (1, 1)))
    assert reduced.letters == ((1, 1), (1, 1))
    word = BraidWord(4, ((1, 1), (2, 1)))
    assert BraidWord.reduced(4, word.letters + word.inverse().letters).letters == ()
    assert word.inverse().letters == ((2, -1), (1, -1))
    assert word.permutation() == (1, 2, 0, 3)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])),
                max_size=14))
def test_free_reduction_is_stable(letters):
    word = BraidWord.reduced(4, tuple(letters))
    for (p1, e1), (p2, e2) in zip(word.letters, word.letters[1:]):
        assert not (p1 == p2 and e1 == -e2)
    # reducing again changes nothing
    assert BraidWord.reduced(4, word.letters).letters == word.letters
    # a word followed by its inverse always cancels completely
    assert BraidWord.reduced(4, word.letters + word.inverse().letters).letters == ()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])),
                max_size=10))
def test_exchange_counts_bookkeeping(letters):
    word = BraidWord.reduced(4, tuple(letters))
    counts = exchange_counts(word, Grouping.of_sizes(1, 1, 1, 1))
    assert sum(c["total"] for c in counts.values()) == len(word)
    for entry in counts.values():
        assert abs(entry["signed"]) <= entry["total"]
        assert (entry["signed"] - entry["total"]) % 2 == 0


def test_exchange_counts_pinned():
    word = BraidWord(4, ((1, 1), (2, 1), (2, 1)))
    counts = exchange_counts(word, Grouping.of_sizes(1, 1, 1, 1))
    assert counts == {(1, 2): {"signed": 1, "total": 1},
                      (1, 3): {"signed": 2, "total": 2}}


# --- distance ------------------------------------------------------------

def test_distance_examples():
    assert distance(np.eye(4), np.diag([1, 1, 1, -1])) == pytest.approx(
        np.sqrt(0.5), abs=1e-12)
    assert distance(np.eye(4), np.eye(4)) == 0.0
    assert distance(np.eye(4), 1j * np.eye(4)) == pytest.approx(0.0, abs=1e-8)


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_distance_subadditive_under_composition():
    """d(AB, A'B') <= d(A, A') + d(B, B'): the composition bound's engine."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        A, A2, B, B2 = (_random_unitary(rng, 4) for _ in range(4))
        lhs = distance(A @ B, A2 @ B2)
        rhs = distance(A, A2) + distance(B, B2)
        assert lhs <= rhs + 1e-12


# --- evaluation ----------------------------------------------------------

def test_evaluate_empty_word_is_identity(model3):
    basis = enumerate_basis(model3, (1,) * 6, 0)
    assert np.array_equal(evaluate(model3, basis, BraidWord(6, ())),
                          np.eye(basis.dim))


def test_evaluate_is_homomorphism(model3):
    basis = enumerate_basis(model3, (1,) * 6, 0)
    w1 = BraidWord(6, ((1, 1), (3, -1)))
    w2 = BraidWord(6, ((2, 1), (4, 1)))
    U1, leaves1, g1 = evaluate_tracked(model3, basis, w1)
    basis_mid = enumerate_basis(model3, leaves1, 0)
    U2 = evaluate(model3, basis_mid, w2, g1)
    joint = evaluate(model3, basis, BraidWord.reduced(6, w1.letters + w2.letters))
    assert np.allclose(U2 @ U1, joint, atol=1e-12)


def test_evaluate_inverse_word(model3):
    basis = enumerate_basis(model3, (1,) * 6, 0)
    word = BraidWord(6, ((1, 1), (2, 1), (3, -1), (2, 1)))
    U = evaluate(model3, basis, BraidWord.reduced(6, word.letters + word.inverse().letters))
    assert np.allclose(U, np.eye(basis.dim), atol=1e-12)


def test_composite_evaluation_matches_fine(model3):
    """A block word evaluated with composite generators equals the same
    exchanges spelled out strand by strand."""
    basis = enumerate_basis(model3, (1, 1, 1, 1), 0)
    pairs = Grouping.of_sizes(2, 2)
    coarse = evaluate(model3, basis, BraidWord(2, ((1, 1),)), pairs)
    fine = evaluate(model3, basis,
                    BraidWord(4, ((2, 1), (1, 1), (3, 1), (2, 1))))
    assert np.allclose(coarse, fine, atol=1e-12)


def test_verify_braid_relations_clean(model3):
    assert verify_braid_relations(model3, (1, 1, 2, 1)) < 1e-12


def _braid_relations_one_norm_at_a_time(model, leaves):
    """Test-only oracle: the residual with one ``norm`` call per pair."""
    n = len(leaves)
    worst = 0.0
    for total in model.charges:
        basis = enumerate_basis(model, leaves, total)
        if basis.dim == 0:
            continue
        pairs = [(((i, 1), (i + 1, 1), (i, 1)), ((i + 1, 1), (i, 1), (i + 1, 1)))
                 for i in range(1, n - 1)]
        pairs += [(((i, 1), (j, 1)), ((j, 1), (i, 1)))
                  for i in range(1, n - 1) for j in range(i + 2, n)]
        for left, right in pairs:
            gap = (evaluate(model, basis, BraidWord(n, left))
                   - evaluate(model, basis, BraidWord(n, right)))
            worst = max(worst, float(np.linalg.norm(gap, ord=2)))
    return worst


@pytest.mark.parametrize("leaves", [(1, 1), (1, 2, 1), (1, 1, 2, 1), (2, 1, 1, 2, 1)])
def test_braid_relation_norms_batch_bit_for_bit(leaves):
    broken = AnyonModel(3)
    broken.corrupt_f_symbol(1, 1, 1, 1)
    for model in (AnyonModel(3), AnyonModel(5), broken):
        assert verify_braid_relations(model, leaves) == \
            _braid_relations_one_norm_at_a_time(model, leaves)


# --- targets -------------------------------------------------------------

def test_phase_target_structure(model3):
    target = make_target_P(model3)
    assert target.name == "P"
    assert target.blocks == ((1,), (2, 3), (4, 5), (6,))
    assert target.final_arrangement == (0, 1, 2, 3)
    phase_rules = [r for r in target.rules if isinstance(r, PhaseRule)]
    column_rules = [r for r in target.rules if isinstance(r, ColumnRule)]
    assert len(phase_rules) == 3 and len(column_rules) == 1
    assert column_rules[0].sector == (1, 2, 2, 1)
    assert column_rules[0].exact_value == -1


def test_aggregation_target_structure(model3):
    b1 = make_target_B1(model3)
    (column,) = b1.rules  # the other sectors' phases cancel in the CCZ
    assert isinstance(column, ColumnRule) and column.sector == (1, 2, 2, 1)
    assert column.exact_value is None  # direction fixed, phase free


def test_aggregation_channels_depend_on_level(model2):
    """At k=2 two spin-1 pairs only fuse to the vacuum, so the charge-1
    aggregation target does not exist while the vacuum one does."""
    with pytest.raises(EncodingError):
        make_target_B1(model2)
    make_target_B3(model2)


def test_exchange_target_structure(model3):
    target = make_target_E(model3)
    assert target.blocks == ((1, 2, 3), (4,), (5, 6, 7), (8,))
    assert target.final_arrangement == (0, 2, 1, 3)
    assert target.mobile == 2


def _scanned_index(basis, internals) -> int:
    """A tree's position found by walking ``basis.trees``, as the target
    factories did before they asked ``FusionBasis.index``."""
    for i, path in enumerate(basis.trees):
        if path == internals:
            return i
    raise AssertionError(f"no tree {internals}")


def _scanned_column(model, name: str, a: int) -> ColumnRule:
    """The column rule of a gate-set target, built with the old scans."""
    if name == "E":
        sector = (a,) * 4
        basis = enumerate_basis(model, sector, 0)
        idx = _scanned_index(basis, (a, 0, a, 0))
        target = tuple(1.0 + 0.0j if i == idx else 0.0j for i in range(basis.dim))
        return ColumnRule(sector, idx, target, exact_value=None)
    sector = (a, 2, 2, a)
    basis = enumerate_basis(model, sector, 0)
    comp = _scanned_index(basis, (a, a, a, 0))
    if name == "P":
        target = tuple(1.0 + 0.0j if i == comp else 0.0j for i in range(basis.dim))
        return ColumnRule(sector, comp, target, exact_value=-1.0 + 0.0j)
    fm = model.f_symbol(a, 2, 2, a)
    col = fm.cols.index(2 if name == "B1" else 0)
    target = [0.0j] * basis.dim
    for r, m in enumerate(fm.rows):
        target[_scanned_index(basis, (a, m, a, 0))] = complex(fm.matrix[r, col])
    return ColumnRule(sector, comp, tuple(target), exact_value=None)


def test_target_columns_equal_the_tree_scans():
    factories = {"P": make_target_P, "B1": make_target_B1, "B3": make_target_B3,
                 "E": make_target_E}
    built = 0
    for k in range(3, 8):
        model = AnyonModel(k)
        for charges in ((1, 1), (1, 3), (3, 1), (2, 2), (3, 3)):
            for name, factory in factories.items():
                try:
                    target = factory(model, charges)
                except EncodingError:
                    continue
                columns = [r for r in target.rules if isinstance(r, ColumnRule)]
                assert columns == [_scanned_column(model, name, charges[0])]
                built += 1
    assert built == 91


def test_unitary_target_validation(model3):
    with pytest.raises(ValueError):
        make_target_unitary(model3, np.array([[1, 1], [0, 1]]))
    target = make_target_unitary(model3, X, name="NOT")
    (rule,) = target.rules
    assert isinstance(rule, MatrixRule)
    assert target.blocks == ((1,), (2,), (3,), (4,))


# --- search --------------------------------------------------------------

def test_search_config_tolerances(model3, monkeypatch):
    """``search`` judges convergence at ``DEFAULT_TOLERANCE`` unless told
    otherwise, and refuses a tolerance that is not positive, or a length
    below 1, before it walks any word."""
    default = inspect.signature(search).parameters["tolerance"].default
    assert default == DEFAULT_TOLERANCE == 1e-9

    def refuse(*args, **kwargs):
        raise AssertionError("the search walked")

    monkeypatch.setattr(_frontier, "worker_job", refuse)
    target = make_target_P(model3)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tolerance must be a positive number"):
            search(model3, target, 1, tolerance=bad)
    with pytest.raises(ValueError, match="max_length must be at least 1"):
        search(model3, target, 0)


def test_rules_that_do_not_fit_are_refused_before_any_walk(monkeypatch):
    """A sector that is not one reachable charge per block, one that does
    not fuse to the vacuum, and a rule whose shape does not match its
    sector's dimension are usage errors of ``search`` and ``score_braid``,
    raised before either route evaluates a word."""
    def refuse(*args, **kwargs):
        raise AssertionError("a word was evaluated")

    monkeypatch.setattr(_frontier, "worker_job", refuse)
    monkeypatch.setattr(synth, "_replay", refuse)
    monkeypatch.setattr(synth, "_coarse_from_full", refuse)
    model = AnyonModel(4)
    singletons = dict(name="T", k=4, blocks=((1,), (2,), (3,), (4,)), mobile=1,
                      span=(1, 4), final_arrangement=(0, 1, 2, 3))
    two = (1, 1, 1, 1)  # a two-dimensional sector of four spin-1/2 leaves
    cases = [
        ((1, 1, 1, 1), PhaseRule((0, 0, 0, 0)), "does not occur in the block system"),
        ((1, 1, 1, 1), PhaseRule((1, 1, 1)), "does not occur in the block system"),
        ((1, 1, 1, 2), PhaseRule((1, 1, 1, 2)), "does not occur in the block system"),
        ((1, 1, 1, 1), PhaseRule(two), "PhaseRule does not fit"),
        ((1, 1, 1, 1), ColumnRule(two, 2, (1, 0)), "ColumnRule does not fit"),
        ((1, 1, 1, 1), ColumnRule(two, -1, (1, 0)), "ColumnRule does not fit"),
        ((1, 1, 1, 1), ColumnRule(two, 0, (1, 0, 0)), "ColumnRule does not fit"),
        ((1, 1, 1, 1), MatrixRule(two, ((1, 0),)), "MatrixRule does not fit"),
        ((1, 1, 1, 1), MatrixRule(two, ((1, 0, 0), (0, 1, 0))), "MatrixRule does not fit"),
    ]
    word = BraidWord(4, ((1, 1), (1, 1)))
    for leaves, rule, message in cases:
        target = SynthesisTarget(leaves=leaves, rules=(rule,), **singletons)
        with pytest.raises(ValueError, match=message):
            search(model, target, 4)
        with pytest.raises(ValueError, match=message):
            score_braid(model, target, word)


def test_search_rejects_mismatched_model(monkeypatch, model2, model3):
    """A model of another level than the target's is refused by ``search``
    and ``score_braid`` alike, before a word is walked or scored."""
    def refuse(*args, **kwargs):
        raise AssertionError("a word was evaluated")

    monkeypatch.setattr(_frontier, "worker_job", refuse)
    monkeypatch.setattr(synth, "_replay", refuse)
    target = make_target_P(model3)
    message = "model k=2 does not match target k=3"
    with pytest.raises(ValueError, match=message):
        search(model2, target, 2)
    with pytest.raises(ValueError, match=message):
        score_braid(model2, target, BraidWord(4, ()))


def test_weave_frontier_counts(model3):
    """Nodes at depth L in the one-mobile-block language: 2 * 3^(L // 2)."""
    result = search(model3, make_target_B1(model3), 7)
    for length, _, _, frontier, _ in result.stats.rows:
        assert frontier == 2 * 3 ** (length // 2)


def test_search_deterministic_across_workers(model3):
    length = 8
    target = make_target_B1(model3)
    one = search(model3, target, length, workers=1)
    three = search(model3, target, length, workers=3)
    assert one.braid == three.braid
    assert repr(one.distance) == repr(three.distance)
    strip = lambda rows: [r[:4] for r in rows]
    assert strip(one.stats.rows) == strip(three.stats.rows)


@pytest.fixture
def inline_shares(monkeypatch):
    """A share runner that records the CPUs it is handed and runs every
    share in this process, so nothing forks; the usable CPUs read 0, 1 and
    2.  Returns the list of CPU lists handed to the runner."""
    runs = []

    def run_inline(job, cpus):
        runs.append(cpus)
        return [job(share) for share in range(len(cpus))]

    monkeypatch.setattr(_frontier, "_run_shares", run_inline)
    monkeypatch.setattr(_frontier.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    return runs


def _strip(rows):
    """The rows without their run-dependent seconds."""
    return [row[:4] for row in rows]


def test_worker_pool_is_capped_at_cpu_count(model3, monkeypatch, inline_shares):
    """``workers`` asks for up to one share per usable CPU, and the result
    does not depend on it; a platform that cannot pin runs one share."""
    runs = inline_shares
    length = 8
    target = make_target_B1(model3)
    one = search(model3, target, length, workers=1)
    assert runs == []
    for workers, size in ((2, 2), (64, 3)):
        many = search(model3, target, length, workers=workers)
        assert runs.pop() == [0, 1, 2][:size]
        assert many.braid == one.braid
        assert repr(many.distance) == repr(one.distance)
        assert _strip(many.stats.rows) == _strip(one.stats.rows)
    monkeypatch.delattr(_frontier.os, "sched_setaffinity")
    search(model3, target, length, workers=4)
    assert runs == []


@pytest.mark.parametrize("name", ["P", "B1", "E", "NOT"])
def test_stub_edges_do_not_depend_on_shares(model3, inline_shares, name):
    """Length limits up to one past the prefix depth, where the stub that
    worker 0 walks is empty or short: two and three shares give the one
    share's word, distance and rows."""
    if name == "NOT":
        target = make_target_unitary(model3, X, name="NOT")
    else:
        target = synth.BUILTIN_TARGETS[name](model3)
    for length in range(1, 6):
        one = search(model3, target, length)
        for workers in (2, 3):
            many = search(model3, target, length, workers=workers)
            assert many.braid == one.braid, (length, workers)
            assert repr(many.distance) == repr(one.distance), (length, workers)
            assert _strip(many.stats.rows) == _strip(one.stats.rows), (length, workers)


@pytest.mark.parametrize("name", ["P", "E", "NOT"])
def test_shares_without_prefixes(model3, monkeypatch, inline_shares, name):
    """Forty shares over the 18 prefixes of depth 4: 22 shares walk empty
    levels, and the result is still the one share's word, distance and
    rows."""
    runs = inline_shares
    monkeypatch.setattr(_frontier.os, "sched_getaffinity", lambda pid: set(range(40)))
    if name == "NOT":
        target = make_target_unitary(model3, X, name="NOT")
    else:
        target = synth.BUILTIN_TARGETS[name](model3)
    for length in (4, 5, 9):
        one = search(model3, target, length)
        assert one.stats.rows[3][3] == 18
        many = search(model3, target, length, workers=40)
        assert runs.pop() == list(range(40))
        assert many.braid == one.braid, length
        assert repr(many.distance) == repr(one.distance), length
        assert _strip(many.stats.rows) == _strip(one.stats.rows), length


def _counting_shares(monkeypatch, fail_in=None):
    """Patch the share walk to record, in this process, the share count it
    is dealt; the share ``fail_in`` raises instead of walking."""
    walk = _frontier.worker_job
    counts = []

    def job(problem, max_length, worker, worker_count):
        counts.append(worker_count)
        if worker == fail_in:
            raise ValueError(f"share {worker} of {worker_count} failed")
        return walk(problem, max_length, worker, worker_count)

    monkeypatch.setattr(_frontier, "worker_job", job)
    return counts


def test_shares_follow_the_usable_cpus(model3, monkeypatch):
    """A process confined to three CPUs of a 64-CPU machine deals three
    shares, forked for real, and pins this thread to the first CPU until
    the walk is done; word, distance and rows equal one share's."""
    pins = []
    monkeypatch.setattr(_frontier.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(_frontier.os, "sched_getaffinity", lambda pid: {7, 3, 5})
    monkeypatch.setattr(_frontier.os, "sched_setaffinity", lambda pid, cpus: pins.append(cpus))
    counts = _counting_shares(monkeypatch)
    target = make_target_P(model3)
    one = search(model3, target, 8)
    many = search(model3, target, 8, workers=64)
    assert counts == [1, 3]  # the forked shares count in their own memory
    assert pins == [{3}, {3, 5, 7}]
    assert many.braid == one.braid
    assert repr(many.distance) == repr(one.distance)
    assert _strip(many.stats.rows) == _strip(one.stats.rows)


@pytest.fixture
def two_shares(monkeypatch):
    """Two real shares on the CPUs this process may use (both on one CPU
    where it may use only one).  Returns the caller's CPU mask."""
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask) * 2
    monkeypatch.setattr(_frontier, "_usable_cpus", lambda: cpus[:2])
    return mask


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_share_leaves_no_trace(model3, monkeypatch, two_shares):
    """A two-share search matches one share, reaps its child and gives the
    caller back its CPU mask."""
    counts = _counting_shares(monkeypatch)
    target = make_target_unitary(model3, X, name="NOT")
    one = search(model3, target, 10)
    two = search(model3, target, 10, workers=2)
    assert counts == [1, 2]
    assert two.braid == one.braid
    assert repr(two.distance) == repr(one.distance)
    assert _strip(two.stats.rows) == _strip(one.stats.rows)
    assert os.sched_getaffinity(0) == two_shares
    _assert_no_child_left()


@pytest.mark.parametrize("failing", [0, 1])
def test_failing_share_raises_its_error(model3, monkeypatch, two_shares, failing):
    """An error in either share, here or in the forked child, reaches the
    caller with its type and message; the child is reaped and the
    caller's CPU mask restored."""
    _counting_shares(monkeypatch, fail_in=failing)
    with pytest.raises(ValueError, match=f"^share {failing} of 2 failed$"):
        search(model3, make_target_P(model3), 10, workers=2)
    assert os.sched_getaffinity(0) == two_shares
    _assert_no_child_left()


def test_search_walks_the_model_it_is_given(monkeypatch, two_shares):
    """On a model with a damaged F symbol, the search scores words with
    that model's symbols: the last curve row's best is the reported
    distance, which ``score_braid`` reproduces, and two shares, the second
    one forked, give the one share's word, distance and rows."""
    counts = _counting_shares(monkeypatch)
    model = AnyonModel(3)
    model.corrupt_f_symbol(1, 1, 1, 1, delta=0.3)
    target = make_target_unitary(model, X, name="NOT")
    one = search(model, target, 8)
    assert one.braid.letters == ((1, 1), (1, 1))
    assert abs(one.stats.rows[-1][1] - one.distance) <= 1e-12
    assert score_braid(model, target, one.braid).distance == \
        pytest.approx(one.distance, abs=1e-12)
    two = search(model, target, 8, workers=2)
    assert counts == [1, 2]
    assert two.braid == one.braid
    assert repr(two.distance) == repr(one.distance)
    assert _strip(two.stats.rows) == _strip(one.stats.rows)
    _assert_no_child_left()


def test_one_problem_per_search(model3, monkeypatch):
    """A one-share search builds one ``_Problem``, which its walk and its
    check share; ``score_braid`` builds one too."""
    built = []
    init = synth._Problem.__init__

    def counted(self, model, target):
        built.append(target.name)
        init(self, model, target)

    monkeypatch.setattr(synth._Problem, "__init__", counted)
    target = make_target_unitary(model3, X, name="NOT")
    found = search(model3, target, 6)
    assert built == ["NOT"]
    score_braid(model3, target, found.braid)
    assert built == ["NOT", "NOT"]


def test_search_monotone_in_length(model3):
    target = make_target_B1(model3)
    best = [search(model3, target, L).distance for L in (4, 6, 8)]
    assert best[0] >= best[1] >= best[2]


def test_converged_flag_with_achievable_tolerance(model2):
    """sigma_1^2 realizes NOT exactly at k=2; the sqrt-style metric turns
    float dust into ~1e-8, so convergence is judged at a matching tol."""
    target = make_target_unitary(model2, X, name="NOT")
    result = search(model2, target, 4, tolerance=1e-6)
    assert result.converged
    assert result.braid.letters == ((1, 1), (1, 1))
    assert result.distance < 1e-6


def test_score_braid_matches_search(model3):
    target = make_target_B1(model3)
    found = search(model3, target, 8)
    rescored = score_braid(model3, target, found.braid)
    assert rescored.distance == pytest.approx(found.distance, abs=1e-14)
    assert rescored.leakage == pytest.approx(found.leakage, abs=1e-14)


def test_scores_that_cancel_pass_the_dual_route_check(model3, b1_word):
    """The B1 word's two routes agree to about 4e-15 entry by entry, but
    their square-rooted scores differ by about 2e-12; the check compares
    the matrices, and the distance is the full-space route's."""
    result = score_braid(model3, make_target_B1(model3), b1_word)
    assert repr(result.distance) == "5.1970072174461156e-05"


def test_dual_route_check_sees_unscored_entries(model3, b1_word, monkeypatch):
    """A 1e-9 change to a sector entry outside the designated input
    column leaves the score as it is, and still fails the check."""
    target = make_target_B1(model3)
    (rule,) = target.rules
    assert isinstance(rule, ColumnRule) and rule.sector == (1, 2, 2, 1)
    replay = synth._replay

    def nudged(problem, letters):
        matrices = list(replay(problem, letters))
        i = problem.sectors.index(rule.sector)
        matrices[i] = matrices[i].copy()
        matrices[i][0, 1 - rule.input_index] += 1e-9
        return tuple(matrices)

    problem = synth._Problem(model3, target)
    scores = problem.score(*problem.rows([replay(problem, b1_word.letters),
                                          nudged(problem, b1_word.letters)]))
    assert scores[0] == scores[1]
    monkeypatch.setattr(synth, "_replay", nudged)
    with pytest.raises(ConsistencyError, match="disagree"):
        score_braid(model3, target, b1_word)


def test_dual_route_check_sees_internal_trees(model3, monkeypatch, tmp_path, capsys):
    """E's three-anyon blocks carry two internal trees each.  A phase on
    one regrouped input vector, in a later internal slice of the ruled
    sector, makes the braid act differently on that slice: ``score_braid``
    raises and ``verify`` exits 2, though the slice the routes compare is
    untouched."""
    target = make_target_E(model3)
    word = BraidWord(4, ((2, 1),))
    path = tmp_path / "E.json"
    write_braid_file(path, score_braid(model3, target, word))
    grouped, frame = regroup(model3, enumerate_basis(model3, target.leaves, 0),
                             target.grouping)
    (rule,) = target.rules
    run = grouped.sectors[rule.sector]
    labels = [grouped.labels[i] for i in run]
    assert labels[-1].block_internals != labels[0].block_internals
    twist = np.eye(grouped.dim, dtype=complex)
    twist[run[-1], run[-1]] = 1j
    tracked = synth.evaluate_tracked

    def twisted(model, basis, word, grouping=None):
        U, leaves, final_grouping = tracked(model, basis, word, grouping)
        if basis.leaves == target.leaves:  # the full space, not a coarse one
            U = U @ frame.conj().T @ twist @ frame
        return U, leaves, final_grouping

    monkeypatch.setattr(synth, "evaluate_tracked", twisted)
    with pytest.raises(ConsistencyError, match="varies across internal trees"):
        score_braid(model3, target, word)
    assert cli.main(["verify", str(path)]) == 2
    assert "varies across internal trees" in capsys.readouterr().err


def test_score_braid_rejects_wrong_arrangement(model3):
    target = make_target_E(model3)
    with pytest.raises(ValueError):
        score_braid(model3, target, BraidWord(4, ()))  # blocks not exchanged


def test_search_weave_restriction(model3):
    """Weave words only ever move the mobile block."""
    result = search(model3, make_target_P(model3), 6)
    counts = exchange_counts(result.braid, result.target.grouping)
    mobile = result.target.mobile
    for (i, j), entry in counts.items():
        assert mobile in (i, j)
