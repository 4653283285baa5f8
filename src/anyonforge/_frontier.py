"""The one-pass weave search: a batched numpy frontier, depth by depth.

``synth.search`` imports this module on its first call, so commands that
run no search never load it.  It imports nothing from the package: every
share walks the one ``synth._Problem`` that ``search`` built.

The search walks the word forest one depth at a time.  A level holds every
node of one depth as parallel arrays, in lex order of the node's word (the
order of ``_Problem.all_moves``).  Its sector matrices are entry-major (see
``synth._Problem``): ``re`` and ``im`` hold one row per matrix entry and
one column per node, so every ufunc runs along a contiguous row of nodes.
``_Problem.score`` scores the columns.

A walk's move table lists, per arrangement, the mobile block's letters in
move order, each with its move index, next arrangement and, per sector, its
generator.  ``_Walk.expand`` reads all children of a level off the table at
once, already in lex order, and ``_vmul`` multiplies each child's generator
into its parent's matrices.  ``_vmul`` splits each complex product into
float64 ufuncs in the order of complex scalar arithmetic, so its products
equal the scalar ones bit for bit (``test_search_core`` keeps the scalar
route as the oracle); complex ufuncs and ``matmul`` do not.

Dedup (``_Level.first_per_key``) keeps the first node per subtree,
arrangement and state rounded to 12 digits.  Each entry's 12-digit value
becomes an exact int64 key (``_keys12``); the nodes are sorted by a hash
of their keys, and full keys are compared only where two hashes agree, so
the kept nodes do not depend on how the sort orders equal hashes.

A share's walk is one record per depth: nodes visited, busy seconds and
the winner by ``_rank``.  A level links to the level above (``_Level.up``),
so a node's word is read up the links.  ``walk`` cuts the forest at
``_PREFIX_DEPTH`` (``worker_job``), runs one share per usable CPU
(``_run_shares``) and merges the records (``merge``).
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from functools import partial

import numpy as np


def _vmul(gens: tuple, dims: tuple, re: np.ndarray, im: np.ndarray):
    """G @ M for every node, entry-major: ``re``/``im`` hold the nodes' M,
    and ``gens`` per sector the real and imaginary parts of each node's own
    G, shaped (n, n, nodes)."""
    out_re = np.empty_like(re)
    out_im = np.empty_like(im)
    start = 0
    for (gr, gi), n in zip(gens, dims):
        stop = start + n * n
        mr = re[start:stop].reshape(n, n, -1)
        mi = im[start:stop].reshape(n, n, -1)
        acc_r = out_re[start:stop].reshape(n, n, -1)
        acc_i = out_im[start:stop].reshape(n, n, -1)
        part, term = np.empty((2, *acc_r.shape))
        for t in range(n):
            a, b = gr[:, t, None], gi[:, t, None]   # G[i, t]
            xr, xi = mr[t], mi[t]                   # M[t, j]
            # G[i, t] * M[t, j] is (a*xr - b*xi) + (a*xi + b*xr)j; the first
            # term is formed in the sum, each later one whole, then added.
            real = np.multiply(a, xr, out=part if t else acc_r)
            real -= np.multiply(b, xi, out=term)
            if t:
                acc_r += real
            imag = np.multiply(a, xi, out=part if t else acc_i)
            imag += np.multiply(b, xr, out=term)
            if t:
                acc_i += imag
            elif n >= 3:  # from three rows on, the sum starts at 0.0j
                acc_r += 0.0
                acc_i += 0.0
        start = stop
    return out_re, out_im


def _keys12(x: np.ndarray, out: np.ndarray) -> None:
    """Write to ``out`` an int64 key per entry of ``x`` that is equal for
    two entries exactly when ``round(v, 12)`` is (-0.0 reads as 0.0).

    The key is the integer m whose nearest double to m / 1e12 is
    ``round(v, 12)``: ``rint(v * 1e12)``, unless ``v * 1e12`` lies within
    1e-3 of a half step, where the rounded product may tip either way.
    Those few entries, and any not finite or beyond 2**40, are redone with
    ``round``.  An entry whose m is beyond 2**40, or that is not finite, is
    keyed by the int64 bits of ``round(v, 12)`` instead; those bits lie
    outside +-2**40, so they equal no integer key.  The bound applies to m,
    not to ``v * 1e12``, so one value of ``round(v, 12)`` never gets a key
    of each kind.
    """
    y = x * 1e12
    m = np.rint(y)
    y -= m
    redo = np.abs(y, out=y) > 0.499
    if not (m.min(initial=0.0) >= -2.0 ** 40 and m.max(initial=0.0) <= 2.0 ** 40):
        redo |= ~(np.abs(m) <= 2.0 ** 40)  # also true where m is not finite
    redo = np.flatnonzero(redo)
    if not len(redo):
        out[...] = m
        return
    r = np.array([round(v, 12) for v in x.flat[redo].tolist()]) + 0.0
    n = np.rint(r * 1e12)
    wide = ~(np.abs(n) <= 2.0 ** 40)
    m.flat[redo] = np.where(wide, 0.0, n)
    out[...] = m
    out.flat[redo[wide]] = r[wide].view(np.int64)


class _Level:
    """The nodes of one depth, as parallel arrays in lex order of word:
    arrangement id, last move index, index of the parent in the level above,
    subtree (the scope of dedup), and the sector matrices, entry-major
    (one row per entry, one column per node); and ``up``, the
    ``(parent, last, up)`` of the level above, or None at the root."""

    __slots__ = ("arr", "last", "parent", "tree", "re", "im", "up")

    def __init__(self, arr, last, parent, tree, re, im, up):
        self.arr, self.last, self.parent, self.tree = arr, last, parent, tree
        self.re, self.im, self.up = re, im, up

    def __len__(self) -> int:
        return len(self.arr)

    def take(self, index: np.ndarray) -> "_Level":
        return _Level(*(getattr(self, f).take(index, axis=-1)
                        for f in self.__slots__[:-1]), self.up)

    def split(self, cut: int) -> list:
        """The nodes before ``cut`` and those from it on, as views."""
        return [_Level(*(getattr(self, f)[..., part] for f in self.__slots__[:-1]),
                       self.up)
                for part in (slice(cut), slice(cut, None))]

    def first_per_key(self) -> np.ndarray:
        """Indices, in order, of the first node per (subtree, arrangement,
        state rounded to 12 digits): the nodes a seen set lets through.

        A node's key is its subtree, arrangement and the ``_keys12`` key of
        every entry.  The nodes are sorted by a 64-bit hash of their keys,
        and each run of equal hashes keeps its smallest index, whatever the
        order within the run.  Where a hash equals its predecessor's but
        the key does not, the keys themselves are sorted instead.
        """
        entries = len(self.re)
        keys = np.empty((2 + 2 * entries, len(self)), dtype=np.int64)
        keys[0], keys[1] = self.tree, self.arr
        _keys12(self.re, keys[2:2 + entries])
        _keys12(self.im, keys[2 + entries:])
        # The hash: a wrapping sum of the key rows times odd weights, the
        # powers of _HASH.
        weights = np.multiply.accumulate(np.full(len(keys), _HASH))
        hashes = (keys.view(np.uint64) * weights[:, None]).sum(axis=0)
        order = np.argsort(hashes)
        hashes = hashes[order]
        new = np.ones(len(self), dtype=bool)
        np.not_equal(hashes[1:], hashes[:-1], out=new[1:])
        repeat = np.flatnonzero(~new)
        if not len(repeat):
            return np.arange(len(self))
        if (keys[:, order[repeat]] != keys[:, order[repeat - 1]]).any():
            # Two keys share a hash: sort by the keys (lexsort is stable, so
            # each run of equal keys starts with its smallest index).
            order = np.lexsort(keys)
            ordered = keys[:, order]
            new[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
            return np.sort(order[new])
        return np.sort(np.minimum.reduceat(order, np.flatnonzero(new)))


# Odd base of the dedup hash's weights (2**64 / golden ratio).
_HASH = np.uint64(0x9E3779B97F4A7C15)

# Children a batch of subtrees may have at one depth before the walk splits
# it; bounds the walk's memory: the tracemalloc peak of a one-worker NOT
# search at k=3, L=20 is 2.8 MB (numpy 2.4).
_BATCH_NODES = 1 << 13

# Length of the prefixes dealt to the shares; a shorter search deals none.
_PREFIX_DEPTH = 4

# The mobile block's four letters, one move-table slot each.  A node has at
# most _SLOTS - 1 children: every letter but the inverse of its last one.
_SLOTS = 4


def _rank(score: float, letters: tuple) -> tuple:
    """Order of candidate words: score, then length, then letters with
    each position's + before its -."""
    return score, len(letters), tuple((p, 0 if e == 1 else 1) for p, e in letters)


def _best(*winners):
    """The best of ``winners`` ((score, letters) or None) by ``_rank``."""
    return min(filter(None, winners), key=lambda w: _rank(*w), default=None)


class _Walk:
    """Level-by-level expansion of the word forest for one share, with its
    record per depth: nodes visited, busy seconds and the winner, the best
    (score, letters) by ``_rank`` or None."""

    def __init__(self, problem, max_length: int):
        self.problem = problem
        # Move index -> letter; (p, 1) and (p, -1) are 2(p-1) and 2(p-1)+1,
        # so index order is lex order and m ^ 1 is the inverse of m.
        self.letters = problem.all_moves()
        # The move table: slot a * _SLOTS + s holds the s-th letter of the
        # mobile block in arrangement id a, in move order: its move index,
        # next arrangement id (-1 in unused slots), and per sector its
        # generator G, stacked as (G.real, G.imag), each (n, n, slots).
        self.arrangements = [problem.initial_arr]
        edges = {}
        for a, arr in enumerate(self.arrangements):  # grows while the loop runs
            for s, (p, e) in enumerate(problem.moves(arr.index(problem.mobile) + 1)):
                new_arr, gens = problem.transition(arr, p, e)
                if new_arr not in self.arrangements:
                    self.arrangements.append(new_arr)
                edges[a * _SLOTS + s] = (self.letters.index((p, e)),
                                         self.arrangements.index(new_arr), gens)
        size = len(self.arrangements) * _SLOTS
        self.move = np.full((len(self.arrangements), _SLOTS), -1, dtype=np.int32)
        self.next = self.move.copy()
        self.gens = tuple((np.zeros((n, n, size)), np.zeros((n, n, size)))
                          for n in problem.dims)
        for slot, (m, b, gens) in edges.items():
            self.move.flat[slot], self.next.flat[slot] = m, b
            for (gr, gi), G in zip(self.gens, gens):
                gr[..., slot], gi[..., slot] = G.real, G.imag
        self.final = (self.arrangements.index(problem.final_arr)
                      if problem.final_arr in self.arrangements else -1)
        self.visited = [0] * (max_length + 1)
        self.seconds = [0.0] * (max_length + 1)
        self.winners = [None] * (max_length + 1)

    def root(self) -> _Level:
        """The empty word: identity sector matrices."""
        problem = self.problem
        re, im = problem.rows([[np.eye(n) for n in problem.dims]])
        one = np.zeros(1, dtype=np.int32)
        return _Level(one, one - 1, one - 1, one, re, im, None)

    def expand(self, level: _Level, only_final: bool = False):
        """(children of every node in lex order, number of children).

        With ``only_final``, children outside the final arrangement are
        counted but not built: at the last depth they are never expanded.
        """
        move = self.move.take(level.arr, axis=0)
        ok = (move >= 0) & (move != (level.last ^ 1)[:, None])
        count = int(np.count_nonzero(ok))
        if only_final:
            ok &= self.next.take(level.arr, axis=0) == self.final
        # Row-major order of (parent, slot) is lex order of the children.
        parent, slot = np.nonzero(ok)
        edge = level.arr.take(parent) * _SLOTS + slot
        parent = parent.astype(np.int32)
        re, im = _vmul(tuple((gr.take(edge, axis=2), gi.take(edge, axis=2))
                             for gr, gi in self.gens),
                       self.problem.dims,
                       level.re.take(parent, axis=1), level.im.take(parent, axis=1))
        return _Level(self.next.take(edge), move[ok], parent, level.tree.take(parent),
                      re, im, (level.parent, level.last, level.up)), count

    def tally(self, depth: int, visited: int, winner, t0: float) -> None:
        self.visited[depth] += visited
        self.seconds[depth] += time.perf_counter() - t0
        self.winners[depth] = _best(self.winners[depth], winner)

    def winner(self, level: _Level):
        """(score, letters) of the lex-first best node in the final
        arrangement, or None."""
        index = np.flatnonzero(level.arr == self.final)
        if not len(index):
            return None
        scores = self.problem.score(level.re.take(index, axis=1),
                                    level.im.take(index, axis=1))
        i = int(np.argmin(scores))  # first minimum: the lex-smallest word
        return float(scores[i]), self.word(level, int(index[i]))

    def word(self, level: _Level, node: int) -> tuple:
        """The letters of ``node``, read up the links to the root."""
        letters = []
        parent, last, up = level.parent, level.last, level.up
        while up is not None:
            letters.append(self.letters[last[node]])
            node = parent[node]
            parent, last, up = up
        return tuple(reversed(letters))

    def descend(self, level: _Level, depth: int, stop: int) -> None:
        """Walk every depth below ``level``, the nodes kept at ``depth``,
        down to ``stop``.

        A level whose children could pass ``_BATCH_NODES`` is walked one
        half of its subtrees at a time.  Dedup never crosses a subtree, so
        the halves visit the nodes the whole level would.
        """
        while depth < stop:
            tree = level.tree
            if len(level) * (_SLOTS - 1) > _BATCH_NODES and tree[0] != tree[-1]:
                cut = int(np.searchsorted(tree, tree[len(tree) // 2]))
                if cut == 0:
                    cut = int(np.searchsorted(tree, tree[0], side="right"))
                for part in level.split(cut):
                    self.descend(part, depth, stop)
                return
            t0 = time.perf_counter()
            depth += 1
            last_depth = depth == stop
            level, visited = self.expand(level, only_final=last_depth)
            winner = self.winner(level)
            if not last_depth:
                level = level.take(level.first_per_key())
            self.tally(depth, visited, winner, t0)


def worker_job(problem, max_length: int, worker: int, worker_count: int):
    """Walk this share of ``problem``'s word forest once, depth by depth.

    Words shorter than ``_PREFIX_DEPTH`` are the stub: share 0 walks them,
    up to ``max_length``, with ``descend`` and one seen set of its own, so
    below the prefix depth the stub is the whole walk and every other
    share's record is empty.  Every freely reduced word of exactly the
    prefix depth is a prefix; prefixes are dealt round-robin, and
    ``descend`` walks each one's subtree with a seen set of its own.  A
    seen set passes the first node per (depth, arrangement, rounded state)
    in lex order, and only nodes it passes are expanded.  The nodes visited
    at a depth, and so its winner, do not depend on the length limit or
    the worker count.

    Returns the share's record for ``merge``, per depth 0..``max_length``:
    the nodes visited, the winner ((score, letters) or None) and the busy
    seconds.
    """
    share = _Walk(problem, max_length)
    t0 = time.perf_counter()
    root = share.root()
    if worker == 0:
        if problem.initial_arr == problem.final_arr:
            share.tally(0, 0, (float(problem.score(root.re, root.im)[0]), ()), t0)
        share.descend(root, 0, min(_PREFIX_DEPTH - 1, max_length))
    if max_length >= _PREFIX_DEPTH:
        # The full tree down to the prefixes, so that every prefix is reached.
        t0 = time.perf_counter()
        level = root
        for _ in range(_PREFIX_DEPTH):
            level = share.expand(level)[0]
        level = level.take(np.arange(worker, len(level), worker_count))
        level.tree = np.arange(len(level), dtype=np.int32)
        share.tally(_PREFIX_DEPTH, len(level), share.winner(level), t0)
        share.descend(level, _PREFIX_DEPTH, max_length)
    return share.visited, share.winners, share.seconds


def merge(records) -> tuple:
    """The best word's letters by ``_rank`` and the ``synth.SearchStats``
    rows, from the shares' ``worker_job`` records in share order: each
    depth's counts are summed in share order, and row L's best is the best
    winner at depths <= L."""
    visited, winners, seconds = zip(*records)
    best = None
    rows = []
    nodes = 0
    for depth in range(len(visited[0])):
        best = _best(best, *(share[depth] for share in winners))
        if depth:
            frontier = sum(share[depth] for share in visited)
            nodes += frontier
            rows.append((depth, float("inf") if best is None else best[0], nodes,
                         frontier, sum(share[depth] for share in seconds)))
    if best is None:
        raise RuntimeError("no candidate word reached the final arrangement")
    return best[1], rows


def walk(problem, max_length: int, workers: int) -> tuple:
    """Search ``problem``'s words up to ``max_length`` in one pass: the
    best word's letters, the curve rows (see ``merge``) and the wall
    seconds.  The prefixes are dealt to one share per usable CPU, at most
    ``workers``, and the shares' records are merged in share order, so the
    result does not depend on the share count."""
    start = time.perf_counter()
    cpus = _usable_cpus()[:workers]
    job = partial(worker_job, problem, max_length, worker_count=len(cpus))
    records = [job(0)] if len(cpus) == 1 else _run_shares(job, cpus)
    letters, rows = merge(records)
    return letters, rows, time.perf_counter() - start


def _usable_cpus() -> list:
    """The CPUs this process may run on, one search share each; a single
    share where the platform cannot fork or pin."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")):
        return [None]
    return sorted(os.sched_getaffinity(0))


def _run_shares(job, cpus: list) -> list:
    """``job(share)`` for every share, in share order.  Share 0 runs on this
    thread pinned to ``cpus[0]``; each other share runs in a forked child
    pinned to its own CPU, which sends back its pickled outcome or
    exception.  On every path the thread's CPU mask is restored and every
    child is reaped."""
    mask = os.sched_getaffinity(0)
    children = []
    try:
        for share, cpu in enumerate(cpus[1:], 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _run_child(job, share, cpu, write)
            os.close(write)
            children.append((pid, read))
        os.sched_setaffinity(0, {cpus[0]})
        outcomes = [job(0)]
        for share, (_, read) in enumerate(children, 1):
            with os.fdopen(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise RuntimeError(f"search share {share} ended without a result")
            outcome = pickle.loads(data)
            if isinstance(outcome, BaseException):
                raise outcome
            outcomes.append(outcome)
        return outcomes
    finally:
        os.sched_setaffinity(0, mask)
        for pid, read in children:
            os.close(read)
            # Stops a share still walking after an error; a child that has
            # sent its outcome is leaving anyway.
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_child(job, share: int, cpu: int, write: int):
    """A forked share's whole life: pin, walk, send, and leave without
    running any of the parent's clean-up."""
    try:
        try:
            os.sched_setaffinity(0, {cpu})
            outcome = job(share)
        except Exception as exc:
            outcome = exc
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
    finally:
        os._exit(0)
