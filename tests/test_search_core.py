"""The batched search core: pinned results, bit-exact arithmetic, dedup keys."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonforge import (
    AnyonModel,
    ColumnRule,
    MatrixRule,
    PhaseRule,
    SynthesisTarget,
    enumerate_basis,
    make_target_B1,
    make_target_P,
    make_target_unitary,
    search,
    synth,
)
from anyonforge import _frontier
from anyonforge.model import SymbolCache
import make_finish_goldens
from make_search_goldens import GOLDENS, record, run_case

CASES = json.loads(GOLDENS.read_text())
FINISH_CASES = json.loads(make_finish_goldens.GOLDENS.read_text())


@pytest.mark.parametrize("key", list(CASES))
def test_search_goldens(key):
    """Best word, exact distance and (length, best, nodes, frontier) rows,
    frozen from the iterative-deepening search this core replaced."""
    want = CASES[key]
    got = record(run_case(tuple(want["case"])))
    assert got == {field: want[field] for field in ("letters", "distance", "rows")}


@pytest.mark.parametrize("key", list(FINISH_CASES))
def test_finish_goldens(key):
    """Exact distance, leakage and convergence of ``score_braid`` on fixed
    words, frozen from the scalar scoring route the batched scorer
    replaced."""
    want = FINISH_CASES[key]
    got = make_finish_goldens.record(make_finish_goldens.run_case(tuple(want["case"])))
    assert got == {field: want[field]
                   for field in ("distance", "leakage", "converged")}


def test_rows_do_not_depend_on_the_length_limit(model3):
    """Each depth is visited once, the same way whatever the limit."""
    target = make_target_P(model3)
    long = search(model3, target, 10).stats.rows
    short = search(model3, target, 7).stats.rows
    assert [row[:4] for row in long[:7]] == [row[:4] for row in short]


def test_wall_time_and_busy_time(model3):
    stats = search(model3, make_target_B1(model3), 8).stats
    busy = sum(row[4] for row in stats.rows)
    assert 0.0 < busy <= stats.wall_seconds


def test_dedup_survives_key_mix_collisions(model3, monkeypatch):
    """With every hash weight 0, every key hashes to the same value: dedup
    sorts by the keys themselves and still passes the same nodes."""
    target = make_target_P(model3)
    length = 9
    plain = search(model3, target, length)
    monkeypatch.setattr(_frontier, "_HASH", np.uint64(0))
    collided = search(model3, target, length)
    assert collided.braid == plain.braid
    assert [row[:4] for row in collided.stats.rows] == [row[:4] for row in plain.stats.rows]


# --- bit-exact batched arithmetic ------------------------------------------

def _sectors_by_dim(model, parity):
    """The four-block sectors whose block charges have these parities, by
    the dimension of their coarse basis."""
    out = {}
    for sector in np.ndindex(*([model.k + 1] * 4)):
        dim = enumerate_basis(model, sector, 0).dim
        if dim and all(c % 2 == p for c, p in zip(sector, parity)):
            out.setdefault(dim, []).append(tuple(sector))
    return out


def _pair_target(model, parity, rules):
    """Four blocks of two leaves each that hold every sector of these
    parities: with h = k // 2, a block (h, h) carries every even charge and
    a block (h, h + 1) every odd one."""
    h = model.k // 2
    return SynthesisTarget(
        name="T", k=model.k, leaves=tuple(c for p in parity for c in (h, h + p)),
        blocks=((1, 2), (3, 4), (5, 6), (7, 8)), mobile=1, span=(1, 4),
        final_arrangement=(0, 1, 2, 3), rules=tuple(rules))


def _unit_vector(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def _weave_problem(draw):
    """A four-block weave target with one to three random rules: phase
    rules on one-dimensional sectors, column rules with and without an
    exact value, and matrix rules, on sectors of any dimension (of one
    parity pattern, so that one block system holds them all)."""
    model = AnyonModel(draw(st.integers(2, 7), label="k"))
    parity = draw(st.sampled_from([p for p in itertools.product((0, 1), repeat=4)
                                   if sum(p) % 2 == 0]), label="parity")
    by_dim = _sectors_by_dim(model, parity)
    kinds = ["phase", "column", "exact", "matrix"] if 1 in by_dim \
        else ["column", "exact", "matrix"]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        dim = 1 if kind == "phase" else draw(st.sampled_from(sorted(by_dim)), label="dim")
        sector = draw(st.sampled_from(by_dim[dim]))
        if kind == "phase":
            rules.append(PhaseRule(sector, reference=complex(_unit_vector(rng, 1)[0])))
        elif kind == "matrix":
            rules.append(MatrixRule(sector, tuple(tuple(complex(z) for z in row)
                                                  for row in _unitary(rng, dim))))
        else:
            exact = complex(_unit_vector(rng, 1)[0]) if kind == "exact" else None
            rules.append(ColumnRule(sector, int(rng.integers(dim)),
                                    tuple(complex(z) for z in _unit_vector(rng, dim)),
                                    exact_value=exact))
    return synth._Problem(model, _pair_target(model, parity, rules))


@st.composite
def _weave_word(draw, problem):
    letters = []
    pos = problem.mobile + 1
    for _ in range(draw(st.integers(0, 12))):
        options = [m for m in problem.moves(pos)
                   if not letters or m != (letters[-1][0], -letters[-1][1])]
        p, e = draw(st.sampled_from(options))
        letters.append((p, e))
        pos = p if pos == p + 1 else p + 1
    return tuple(letters)


def _flat(state) -> tuple:
    return tuple(tuple(complex(z) for z in np.ravel(M)) for M in state)


def _rows(states):
    """Entry-major (re, im): one row per matrix entry, one column per state."""
    flat = [[z for M in state for z in M] for state in states]
    return ([[row[i].real for row in flat] for i in range(len(flat[0]))],
            [[row[i].imag for row in flat] for i in range(len(flat[0]))])


def _random_states(problem, rng, count):
    """Random (not unitary) sector matrices: last-bit differences such as
    sqrt against pow(x, 0.5) show on about one value in a thousand."""
    return [tuple(tuple(complex(z) for z in rng.normal(size=n * n) + 1j * rng.normal(size=n * n))
                  for n in problem.dims)
            for _ in range(count)]


# The scalar route the batched scorer replaced, kept as its oracle: complex
# Python arithmetic on flat sector matrices, sums left to right from zero
# in explicit loops (``sum`` of floats is compensated from CPython 3.12 on).

def _flat_mul(G: tuple, M: tuple, n: int) -> tuple:
    if n == 1:
        return (G[0] * M[0],)
    if n == 2:
        a, b, c, d = G
        e, f, g, h = M
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    out = []
    for i in range(n):
        for j in range(n):
            acc = 0.0j
            for t in range(n):
                acc += G[i * n + t] * M[t * n + j]
            out.append(acc)
    return tuple(out)


def _rule_deviation(rule, M: tuple, n: int) -> float:
    if isinstance(rule, PhaseRule):
        return abs(M[0] - rule.reference)
    if isinstance(rule, ColumnRule):
        col = [M[i * n + rule.input_index] for i in range(n)]
        total = 0.0
        if rule.exact_value is not None:
            for i in range(n):
                total += abs(col[i] - rule.exact_value * rule.target[i]) ** 2
            return total ** 0.5
        along = 0.0j
        for i, z in enumerate(col):
            total += abs(z) ** 2
            along += rule.target[i].conjugate() * z
        along = abs(along)
        return max(0.0, total - along * along) ** 0.5
    tr = 0.0j
    for i in range(n):
        for j in range(n):
            tr += M[i * n + j].conjugate() * rule.target[i][j]
    return max(0.0, 1.0 - abs(tr) / n) ** 0.5


def _scalar_score(problem, state: tuple) -> float:
    worst = 0.0
    for rule, si in problem.rules:
        dev = _rule_deviation(rule, state[si], problem.dims[si])
        if dev > worst:
            worst = dev
    return worst


def _signed_zero_states(problem, rng, count):
    """Sector matrices of exact zeros with random signs: a sum whose every
    term is -0.0 shows whether it started from 0.0j."""
    return [tuple(tuple(complex(*z) for z in np.copysign(0.0, rng.normal(size=(n * n, 2))))
                  for n in problem.dims)
            for _ in range(count)]


def _assert_batched_route(problem, words, rng):
    """_vmul and _Problem.score equal the scalar route byte for byte (so
    the sign of every zero too), on words, random states and signed
    zeros, many nodes per batch, each node multiplied by a letter of its
    own."""
    states = ([_flat(synth._replay(problem, word)) for word in words]
              + _random_states(problem, rng, 200) + _signed_zero_states(problem, rng, 50))
    re, im = (np.array(part) for part in _rows(states))
    assert problem.score(re, im).tobytes() == np.array(
        [_scalar_score(problem, state) for state in states]).tobytes()

    # One more letter for every node, batched and scalar.
    letters = problem.all_moves()
    node_gens = [problem.transition(problem.initial_arr, *letters[m])[1]
                 for m in rng.integers(len(letters), size=len(states))]
    stacked = tuple(np.stack(column, axis=2) for column in zip(*node_gens))
    re, im = _frontier._vmul(tuple((G.real, G.imag) for G in stacked),
                             problem.dims, re, im)
    states = [tuple(_flat_mul(g, M, n)
                    for g, M, n in zip(_flat(gens), state, problem.dims))
              for gens, state in zip(node_gens, states)]
    want_re, want_im = (np.array(part) for part in _rows(states))
    assert (re.tobytes(), im.tobytes()) == (want_re.tobytes(), want_im.tobytes())
    assert problem.score(re, im).tobytes() == np.array(
        [_scalar_score(problem, state) for state in states]).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_route_is_bit_exact(data):
    """The batched route against the scalar one, on random weave words."""
    problem = data.draw(_weave_problem())
    words = data.draw(st.lists(_weave_word(problem), min_size=1, max_size=5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="states"))
    _assert_batched_route(problem, words, rng)


def test_batched_route_keeps_the_sign_of_zero_from_three_rows_on():
    """Sums of three or more terms start from 0.0j in the scalar route;
    at k=4 the (2, 2, 2, 2) sector has dimension 3."""
    model = AnyonModel(4)
    sector = (2, 2, 2, 2)
    assert enumerate_basis(model, sector, 0).dim == 3
    rules = (MatrixRule(sector, tuple(tuple(complex(i == j) for j in range(3))
                                      for i in range(3))),
             PhaseRule((2, 2, 0, 0), reference=1 + 0j))
    problem = synth._Problem(model, _pair_target(model, (0, 0, 0, 0), rules))
    _assert_batched_route(problem, [((1, 1), (2, -1))], np.random.default_rng(0))


# --- children of a level ---------------------------------------------------

def _target(model, name):
    if name == "NOT":
        return make_target_unitary(model, np.array([[0, 1], [1, 0]]), name="NOT")
    return synth.BUILTIN_TARGETS[name](model)


def _column_state(level, node, dims) -> tuple:
    """A node's sector matrices, flat, from its entry-major column."""
    column = [complex(r, i) for r, i in zip(level.re[:, node], level.im[:, node])]
    out, start = [], 0
    for n in dims:
        out.append(tuple(column[start:start + n * n]))
        start += n * n
    return tuple(out)


def _children_one_by_one(walk, level, only_final):
    """The children ``expand`` must build, node by node and letter by
    letter: (arr, last, parent, tree, state) each, and their count."""
    problem = walk.problem
    kids, count = [], 0
    for node in range(len(level)):
        arr = walk.arrangements[level.arr[node]]
        state = _column_state(level, node, problem.dims)
        for p, e in problem.moves(arr.index(problem.mobile) + 1):
            m = walk.letters.index((p, e))
            if m == level.last[node] ^ 1:
                continue
            count += 1
            new_arr, gens = problem.transition(arr, p, e)
            b = walk.arrangements.index(new_arr)
            if only_final and b != walk.final:
                continue
            kids.append((b, m, node, int(level.tree[node]),
                         tuple(_flat_mul(g, M, n) for g, M, n
                               in zip(_flat(gens), state, problem.dims))))
    return kids, count


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("name", ["P", "E", "NOT"])
def test_expand_builds_children_in_lex_order(k, name):
    """``expand`` and ``expand(only_final=True)`` give, on levels a few
    depths down, the children a per-node loop over the letters gives: same
    order, arrangement, last letter, parent, subtree and count, and
    matrices equal bit for bit to the scalar products."""
    model = AnyonModel(k)
    walk = _frontier._Walk(synth._Problem(model, _target(model, name)), 8)
    level = walk.root()
    for depth in range(7):
        if depth == 3:  # subtrees, as the prefixes get them
            level.tree = np.arange(len(level), dtype=np.int32)
        for only_final in (False, True):
            kids, count = walk.expand(level, only_final=only_final)
            want, want_count = _children_one_by_one(walk, level, only_final)
            assert count == want_count
            assert kids.arr.tolist() == [kid[0] for kid in want]
            assert kids.last.tolist() == [kid[1] for kid in want]
            assert kids.parent.tolist() == [kid[2] for kid in want]
            assert kids.tree.tolist() == [kid[3] for kid in want]
            flat = np.array([[z for M in kid[4] for z in M] for kid in want],
                            dtype=np.complex128).reshape(len(want), kids.re.shape[0])
            assert kids.re.tobytes() == np.ascontiguousarray(flat.real.T).tobytes()
            assert kids.im.tobytes() == np.ascontiguousarray(flat.imag.T).tobytes()
        level, _ = walk.expand(level)
        level = level.take(level.first_per_key())


def test_batch_splits_do_not_change_results(monkeypatch):
    """With batches of at most 32 children, the walk splits levels down to
    single subtrees and still gives the default run's word, distance and
    rows."""
    cases = [(k, name) for k in (3, 5) for name in ("P", "E", "NOT")]
    default = {}
    for k, name in cases:
        model = AnyonModel(k)
        default[k, name] = search(model, _target(model, name), 12)
    monkeypatch.setattr(_frontier, "_BATCH_NODES", 32)
    for k, name in cases:
        model = AnyonModel(k)
        split = search(model, _target(model, name), 12)
        want = default[k, name]
        assert split.braid == want.braid, (k, name)
        assert repr(split.distance) == repr(want.distance), (k, name)
        assert [r[:4] for r in split.stats.rows] == [r[:4] for r in want.stats.rows]


@pytest.mark.parametrize("name", ["P", "E"])
def test_walk_and_replay_share_letters(name):
    """The walk's move table and ``_replay`` read the same letters, so
    replaying the walk's winner builds none."""
    model = AnyonModel(3)
    model.symbols = SymbolCache(3)
    problem = synth._Problem(model, _target(model, name))
    walk = _frontier._Walk(problem, 10)
    root = walk.root()
    walk.keep(0, root)
    walk.descend(root, 0, 10)
    built = len(model.symbols.steps)
    synth._replay(problem, walk.best[1])
    assert len(model.symbols.steps) == built


def test_search_working_memory_is_bounded():
    """Batches of at most ``_BATCH_NODES`` children bound the search's own
    allocations, as in ``test_pentagon_working_memory_is_bounded``:
    measured 2.8 MB for a one-worker NOT search at k=3, L=20."""
    model = AnyonModel(3)
    target = _target(model, "NOT")
    search(model, target, 6)  # symbols and letters, outside the count
    tracemalloc.start()
    try:
        search(model, target, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# --- dedup ---------------------------------------------------------------

def _walk_ulps(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def _keys12(values) -> np.ndarray:
    x = np.array(values, dtype=float)
    out = np.empty(x.shape, dtype=np.int64)
    _frontier._keys12(x, out)
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 12, 10 ** 12), st.integers(-4, 4))
def test_key_rounding_matches_round_near_half_steps(n, steps):
    x = _walk_ulps((n + 0.5) * 1e-12, steps)
    m = int(_keys12([x])[0])
    assert m / 1e12 == round(x, 12)


def test_key_rounding_batch_and_negative_zero():
    values = [_walk_ulps((n + 0.5) * 1e-12, s)
              for n in range(-300, 300, 7) for s in (-3, -1, 0, 1, 3)]
    values += [-0.0, 0.0, -1e-13, -4e-13, 1.0, -1.0, 0.7071067811865476]
    keys = _keys12(values).tolist()
    assert [m / 1e12 for m in keys] == [round(v, 12) for v in values]
    assert _keys12([[-0.0, 0.0], [-1e-13, 1e-13]]).tolist() == [[0, 0], [0, 0]]


# The dedup that first_per_key replaced, kept as its oracle: every entry
# rounded to a float with round(v, 12), a 64-bit mix of the keys sorted
# stably, and a lexsort of the keys where two keys share a mix.

def _round12(x: np.ndarray) -> np.ndarray:
    y = x * 1e12
    out = np.rint(y) / 1e12
    redo = (np.abs(y - np.floor(y) - 0.5) < 1e-3) | ~(np.abs(y) < 2.0 ** 40)
    if redo.any():
        out[redo] = [round(v, 12) for v in x[redo].tolist()]
    return out + 0.0


def _first_per_key_oracle(level) -> np.ndarray:
    keys = [level.tree.astype(np.int64), level.arr.astype(np.int64)]
    keys += [*_round12(level.re).view(np.int64), *_round12(level.im).view(np.int64)]

    def starts(order):
        new = np.zeros(len(order), dtype=bool)
        new[:1] = True
        for key in keys:
            ordered = key[order]
            new[1:] |= ordered[1:] != ordered[:-1]
        return new

    mix = np.zeros(len(level), dtype=np.uint64)
    for key in keys:
        mix ^= key.view(np.uint64)
        mix *= np.uint64(0x9E3779B97F4A7C15)
        mix ^= mix >> np.uint64(32)
    order = np.argsort(mix, kind="stable")
    new = starts(order)
    mixed = mix[order]
    if (new[1:] & (mixed[1:] == mixed[:-1])).any():
        order = np.lexsort(keys)
        new = starts(order)
    return np.sort(order[new])


def _synthetic_level(rng, values, nodes=400) -> "_frontier._Level":
    """Nodes of two subtrees and three arrangements whose eight entries
    (one 2x2 sector) each take one of three of ``values``, so that equal
    states recur within and across subtrees and arrangements."""
    pools = [rng.choice(np.array(values), size=3) for _ in range(8)]
    state = np.array([rng.choice(pool, size=nodes) for pool in pools])
    index = np.zeros(nodes, dtype=np.int32)
    return _frontier._Level(rng.integers(3, size=nodes).astype(np.int32), index,
                            index, rng.integers(2, size=nodes).astype(np.int32),
                            state[:4], state[4:])


_SYNTHETIC_VALUES = {
    # within a few ulps of half steps of 1e-12
    "half-steps": [_walk_ulps((n + 0.5) * 1e-12, s)
                   for n in (-3, 0, 2, 10 ** 6) for s in range(-3, 4)],
    # signed zeros and what rounds to them
    "zeros": [-0.0, 0.0, -1e-13, 4e-13, 1e-12, -1e-12],
    # beyond 2**40 / 1e12 and, as a 12-digit key, the same digits near 0
    "wide": [1.1, math.nextafter(1.1, 2.0), -1.1, 2.0, 2e-12, 1e6, 1e6 + 1e-10],
    # v * 1e12 on both sides of 2**40
    "edge": [(2 ** 40 + d) / 1e12 for d in (-1, -0.75, -0.5, -0.25, 0, 0.25, 0.5, 1)],
    "not finite": [math.inf, -math.inf, math.nan, 1.0, -0.0],
}


_ARGSORT = np.argsort


def _argsort_reversing_runs(a, *args, **kwargs):
    """A sort that returns each run of equal values in falling index order."""
    order = _ARGSORT(a, kind="stable")
    ordered = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    run = np.cumsum(new)
    return order[np.lexsort((-np.arange(len(a)), run))]


def _kept_as_by_the_oracle(level, monkeypatch,
                           first_per_key=_frontier._Level.first_per_key) -> int:
    """Assert that ``first_per_key`` keeps the oracle's nodes with the
    default sort, with each run of equal hashes reversed, and with every
    hash equal; return how many nodes it drops."""
    want = _first_per_key_oracle(level).tolist()
    for patches in ([], [(np, "argsort", _argsort_reversing_runs)],
                    [(_frontier, "_HASH", np.uint64(0))]):
        with monkeypatch.context() as patch:
            for obj, name, value in patches:
                patch.setattr(obj, name, value)
            assert first_per_key(level).tolist() == want
    return len(level) - len(want)


@pytest.mark.parametrize("k, length", [(3, 16), (5, 20)])
@pytest.mark.parametrize("name", ["P", "E", "NOT"])
def test_first_per_key_matches_the_old_dedup_on_search_levels(k, length, name, monkeypatch):
    """Every level a search dedups, from the depth where states first
    recur."""
    model = AnyonModel(k)
    dropped = []

    def checked(level):
        dropped.append(_kept_as_by_the_oracle(level, monkeypatch))
        return _first_per_key_oracle(level)

    monkeypatch.setattr(_frontier._Level, "first_per_key", checked)
    search(model, _target(model, name), length)
    assert sum(dropped) > 0


@pytest.mark.parametrize("group", list(_SYNTHETIC_VALUES))
def test_first_per_key_matches_the_old_dedup_on_edge_values(group, monkeypatch):
    """Entries near half steps, signed zeros, entries past 2**40 / 1e12 and
    non-finite ones, with equal states in different subtrees and
    arrangements; also a level of one node and an empty one."""
    rng = np.random.default_rng(sorted(_SYNTHETIC_VALUES).index(group))
    levels = [_synthetic_level(rng, _SYNTHETIC_VALUES[group]) for _ in range(3)]
    levels += [_synthetic_level(rng, _SYNTHETIC_VALUES[group], nodes=n) for n in (0, 1)]
    with np.errstate(invalid="ignore"):  # inf - inf in both key routes
        dropped = [_kept_as_by_the_oracle(level, monkeypatch) for level in levels]
        kept = _first_per_key_oracle(levels[0])
        state = np.concatenate((_round12(levels[0].re), _round12(levels[0].im)))
    assert dropped[0] > 0
    # Some kept nodes share a state: they differ in subtree or arrangement.
    assert len({state[:, i].tobytes() for i in kept}) < len(kept)


