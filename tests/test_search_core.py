"""The batched search core: pinned results, bit-exact arithmetic, dedup keys."""

import json
import math

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
    search,
    synth,
)
from anyonforge import _frontier
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
    """With every key mixed to the same value, dedup sorts by the keys
    themselves and still passes the same nodes."""
    target = make_target_P(model3)
    length = 9
    plain = search(model3, target, length)
    monkeypatch.setattr(_frontier, "_MIX", np.uint64(0))
    collided = search(model3, target, length)
    assert collided.braid == plain.braid
    assert [row[:4] for row in collided.stats.rows] == [row[:4] for row in plain.stats.rows]


# --- bit-exact batched arithmetic ------------------------------------------

def _sectors_by_dim(model):
    out = {}
    for sector in np.ndindex(*([model.k + 1] * 4)):
        dim = enumerate_basis(model, sector, 0).dim
        if dim:
            out.setdefault(dim, []).append(tuple(sector))
    return out


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
    exact value, and matrix rules, on sectors of any dimension."""
    model = AnyonModel(draw(st.integers(2, 7), label="k"))
    by_dim = _sectors_by_dim(model)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["phase", "column", "exact", "matrix"]))
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
    target = SynthesisTarget(
        name="T", k=model.k, leaves=(1, 1, 1, 1),
        blocks=((1,), (2,), (3,), (4,)), mobile=1, span=(1, 4),
        final_arrangement=(0, 1, 2, 3), rules=tuple(rules))
    return synth._Problem(model, target)


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
    flat = [[z for M in state for z in M] for state in states]
    return ([[z.real for z in row] for row in flat],
            [[z.imag for z in row] for row in flat])


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_route_is_bit_exact(data):
    """_vmul and _Problem.score equal the scalar route with float ==, on
    random weave words and on random states, many nodes per batch."""
    problem = data.draw(_weave_problem())
    words = data.draw(st.lists(_weave_word(problem), min_size=1, max_size=5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="states"))
    states = ([_flat(synth._replay(problem, word)) for word in words]
              + _random_states(problem, rng, 200))
    re, im = (np.array(part) for part in _rows(states))
    assert problem.score(re, im).tolist() == [
        _scalar_score(problem, state) for state in states]

    # One more letter for every node, batched and scalar.
    p, e = data.draw(st.sampled_from(problem.all_moves()))
    _, gens = problem.transition(problem.initial_arr, p, e)
    coef = tuple((G.real, G.imag) for G in gens)
    re, im = _frontier._vmul(coef, problem.dims, re, im)
    states = [tuple(_flat_mul(g, M, n)
                    for g, M, n in zip(_flat(gens), state, problem.dims))
              for state in states]
    assert (re.tolist(), im.tolist()) == _rows(states)
    assert problem.score(re, im).tolist() == [
        _scalar_score(problem, state) for state in states]


# --- dedup key rounding ----------------------------------------------------

def _walk_ulps(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 12, 10 ** 12), st.integers(-4, 4))
def test_key_rounding_matches_round_near_half_steps(n, steps):
    x = _walk_ulps((n + 0.5) * 1e-12, steps)
    got = float(_frontier._round12(np.array([x]))[0])
    assert got == round(x, 12)


def test_key_rounding_batch_and_negative_zero():
    values = [_walk_ulps((n + 0.5) * 1e-12, s)
              for n in range(-300, 300, 7) for s in (-3, -1, 0, 1, 3)]
    values += [-0.0, 0.0, -1e-13, -4e-13, 1.0, -1.0, 0.7071067811865476]
    got = _frontier._round12(np.array(values)).tolist()
    assert got == [round(v, 12) for v in values]
    assert all(math.copysign(1.0, v) == 1.0 for v in got if v == 0.0)
