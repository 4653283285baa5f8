"""SU(2)_k anyon models: fusion algebra, F/R symbols, consistency checks.

Charges are twice-spin integers.  The model at level k has k+1 charges
0, 1, ..., k (twice-spin), i.e. spins 0, 1/2, ..., k/2.  Charge 0 is the
vacuum.  Fusion is the level-truncated angular momentum rule: a x b contains
every c with |a-b| <= c <= min(a+b, 2k-a-b) and c = a+b (mod 2).

Conventions (fixed once, everything downstream depends on them):

- F-move.  ``f_symbol(a, b, c, d)`` returns the unitary change of basis

      |((ab)^e c)^d>  =  sum_f  F[e, f] |(a (bc)^f)^d>

  with rows indexed by the (ab) channel e and columns by the (bc) channel f,
  both in ascending charge order.  For SU(2)_k the matrix is real orthogonal.

- R-move.  Counterclockwise exchange of a and b in definite channel c
  multiplies the state by

      r_symbol(a, b, c) = (-1)^((a+b-c)/2)
                          * exp(i*pi*(c(c+2) - a(a+2) - b(b+2)) / (4(k+2)))

  (twice-spin form).  Exchanging two spin-1/2 charges at k=3 gives
  exp(-4i*pi/5) in the vacuum channel and exp(3i*pi/5) in the charge-1
  channel.

Both structures are built from q-deformed Racah 6j symbols with q-integers
[n] = sin(n*pi/(k+2)) / sin(pi/(k+2)) and are validated against the pentagon
and hexagon identities by ``verify_pentagon`` / ``verify_hexagon``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TOLERANCE",
    "MAX_LEVEL",
    "ConsistencyError",
    "FMatrix",
    "SymbolCache",
    "AnyonModel",
]

# Default tolerance of the consistency identities and of a search's score.
DEFAULT_TOLERANCE = 1e-9

# The largest level: its (k+1)^5 flat F index (see ``_FTable``) is the
# largest that fits in int32.  A model refuses a larger level before it
# builds anything, so a level read from a file cannot exhaust memory.
MAX_LEVEL = 72


class ConsistencyError(Exception):
    """A number failed its independent check (exit code 2).

    Raised by ``score_braid`` and ``search`` when the tracked and
    full-space sector matrices disagree, or when a braid's action varies
    across block-internal trees; and by the CLI when a stored distance
    does not reproduce.  ``verify_pentagon`` and ``verify_hexagon`` only
    return their residuals: ``check`` compares them with its tolerance and
    exits 2 itself.
    """


@dataclass(frozen=True)
class FMatrix:
    """One F-move block: change of basis between the two fusion orders of
    three charges a, b, c with total d.

    ``rows`` lists the admissible (ab) channels e, ``cols`` the admissible
    (bc) channels f; ``matrix[i, j]`` is the coefficient for (rows[i],
    cols[j]).
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    matrix: np.ndarray


class SymbolCache:
    """One level's symbol table and everything derived from it.

    Holds the memoized F symbols, the flat F table the pentagon and
    hexagon checks read (``f_table``: built once, on first use; building
    it evaluates every F block in one batched pass and leaves
    ``f_symbols`` to ``AnyonModel.f_symbol``, but takes every block
    already there, a damaged one among them), the fusion bases built
    by ``spaces.enumerate_basis``, the exchange blocks read by
    ``spaces.braid_generator``, the regrouped frames built by
    ``spaces.regroup`` and the braid letters built by ``spaces._letter``.
    ``exchanges`` maps (prefix, a, b, upper) to the local exchange of a and
    b under ``prefix`` inside ``upper``: for each incoming channel e, the
    nonzero (e', amplitude) pairs of F-move, R phase and F-move back, from
    which every generator column over those charges is copied.  ``steps``
    maps (leaves, total, blocks, position, exponent) to the read-only
    matrix of that composite letter with the leaves and grouping it ends
    on; ``frames`` maps (leaves, total, blocks) to ``regroup``'s
    (grouped basis, transform).  All clean models of one level share one
    table; a model whose F symbols are damaged works on a private copy
    (see ``AnyonModel.corrupt_f_symbol``).
    """

    def __init__(self, k: int):
        self.k = k
        self.f_symbols: dict[tuple[int, int, int, int], FMatrix] = {}
        self.f_table: _FTable | None = None
        self.bases: dict = {}
        self.exchanges: dict = {}
        self.frames: dict = {}
        self.steps: dict = {}


# The clean table of each level, shared by every clean model of that level.
_CLEAN_TABLES: dict[int, SymbolCache] = {}

# Label tuples per batch of the F table build and of the pentagon and
# hexagon checks.  Every array a batch allocates has about this many
# entries; a single key whose tuples alone exceed it makes a batch of its
# own.
_BATCH_ROWS = 1 << 13


def _channels(k: int, a: int, b: int) -> range:
    """Fusion channels of a x b, ascending, for labels known to be charges."""
    return range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2)


def _can_fuse(k: int, a: int, b: int, c: int) -> bool:
    """``AnyonModel.can_fuse`` for labels known to be charges."""
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b and a + b + c <= 2 * k


def _admissible(k: int, a, b, c):
    """Vectorized ``_can_fuse``."""
    return ((a + b + c) % 2 == 0) & (np.abs(a - b) <= c) & (c <= a + b) \
        & (a + b + c <= 2 * k)


def _fusion_counts(k: int) -> np.ndarray:
    """N[a, b, c] = 1 when c is a fusion channel of a x b, else 0."""
    return _admissible(k, *np.indices((k + 1,) * 3, dtype=np.int16)).astype(np.int16)


def _runs(counts: np.ndarray):
    """For runs of the given lengths laid end to end: the run of each entry
    and its place within that run."""
    run = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    first = (np.cumsum(counts) - counts).astype(np.int32)
    return run, np.arange(len(run), dtype=np.int32) - first[run]


def _span(k: int, *pairs):
    """Per row of the label arrays: the lowest charge that is a fusion
    channel of every (p, q) in ``pairs``, and how many such charges there
    are (they step by 2).  The pairs of one row must agree in parity."""
    lo = functools.reduce(np.maximum, [np.abs(p - q) for p, q in pairs])
    hi = functools.reduce(np.minimum, [np.minimum(p + q, 2 * k - p - q) for p, q in pairs])
    return lo, np.maximum((hi - lo) // 2 + 1, 0)


def _fan_out(k: int, columns: list, *pairs) -> list:
    """Repeat each row of the label arrays ``columns`` once per charge of
    ``_span(k, *pairs)`` and append that charge as a new column: a
    vectorized, intersected ``AnyonModel.fuse``."""
    lo, count = _span(k, *pairs)
    row, step = _runs(count)
    return [col[row] for col in columns] + [lo[row] + 2 * step]


def _pairs(dims: np.ndarray):
    """Join every left tree with every right tree of its key.  Key i has
    ``dims[i]`` left trees and as many right trees, each kind in runs of
    the same key order.  Returns (key, left tree, right tree) per pair,
    key by key, each left tree with every right tree in turn."""
    key, place = _runs(dims * dims)
    first, dim = (np.cumsum(dims) - dims).astype(np.int32)[key], dims[key]
    return key, first + place // dim, first + place % dim


def _batches(dims: np.ndarray):
    """The keys of the nonzero entries of the dimension tensor ``dims``,
    ascending, in batches that pair at most ``_BATCH_ROWS`` trees in all
    (dims**2 per key; a single key over the budget makes a batch of its
    own).  Yields each batch's dimensions and its int32 label arrays, one
    per axis of ``dims``."""
    keys = np.flatnonzero(dims).astype(np.int32)
    sizes = dims.ravel()[keys]
    ends = sizes.astype(np.int64) ** 2
    np.cumsum(ends, out=ends)
    start = 0
    while start < len(keys):
        done = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, done + _BATCH_ROWS, side="right"))
        stop = max(stop, start + 1)
        labels = np.unravel_index(keys[start:stop], dims.shape)
        yield sizes[start:stop].astype(np.int32), [v.astype(np.int32) for v in labels]
        start = stop


class _FTable:
    """Every F coefficient of one symbol table in one flat array.

    ``values`` opens with n + 1 zeros (n = k + 1); the blocks follow, each
    row-major with one 0.0 before every row.  For block (a, b, c, d) at
    ``s = ((a*n + b)*n + c)*n + d``, ``rows[s*n + e]`` is where its row e
    starts in ``values`` (0 when e is no row channel) and ``cols[s*n + f]``
    is 1 + the place of its column f (0, the row's leading zero, when f is
    no column channel).  So F(a, b, c, d)[e, f] is
    ``values[rows[s*n + e] + cols[s*n + f]]`` for any labels, and reads 0.0
    for every absent one: three gathers per read, and (k+1)^5 int32 plus
    int16 index entries (``MAX_LEVEL`` keeps them within int32).
    """

    def __init__(self, k: int, a, b, c, d, size, entries, blocks: dict):
        # Per block: its labels and size (square); then all entries, each
        # block row-major.  Each ``FMatrix`` of ``blocks`` then takes over
        # its own entries.  Rows and columns start at the first channel and
        # step by 2.
        n = self.n = k + 1
        at = self.at(a, b, c, d)
        e0, f0 = _span(k, (a, b), (c, d))[0], _span(k, (b, c), (a, d))[0]
        stride = size + 1
        block, i = _runs(size)
        starts = (n + 1 + np.cumsum(size * stride) - size * stride)[block] \
            + i * stride[block]
        self.rows = np.zeros(n ** 5, dtype=np.int32)
        self.rows[at[block] + e0[block] + 2 * i] = starts
        self.cols = np.zeros(n ** 5, dtype=np.int16)
        self.cols[at[block] + f0[block] + 2 * i] = i + 1
        row, j = _runs(size[block])
        self.values = np.zeros(n + 1 + int(np.sum(size * stride)))
        self.values[starts[row] + j + 1] = entries
        for key, known in blocks.items():
            s = self.at(*key)
            self.values[self.rows[s + np.array(known.rows)][:, None]
                        + self.cols[s + np.array(known.cols)]] = known.matrix
        self.values.setflags(write=False)

    def at(self, a, b, c, d):
        """Block position s*n of F(a, b, c, d), per row of the label arrays."""
        n = self.n
        return (((a * n + b) * n + c) * n + d) * n

    def __call__(self, at, e, f) -> np.ndarray:
        """F[e, f] of the blocks at ``at`` (see ``at``); 0 where absent."""
        return self.values.take(self.rows.take(at + e) + self.cols.take(at + f))


class AnyonModel:
    """The SU(2)_k anyon model at integer level 2 <= k <= MAX_LEVEL."""

    def __init__(self, k: int):
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool) \
                or not 2 <= k <= MAX_LEVEL:
            raise ValueError(f"level must be an integer from 2 to {MAX_LEVEL}, got {k!r}")
        self.k = int(k)
        if self.k not in _CLEAN_TABLES:
            _CLEAN_TABLES[self.k] = SymbolCache(self.k)
        self.symbols = _CLEAN_TABLES[self.k]
        # q-integers [n] for n = 0 .. 2k+2, with exact zeros at n = 0 mod k+2
        # so that level-truncated Racah terms vanish identically.
        denom = math.sin(math.pi / (self.k + 2))
        self._qint = [
            0.0 if n % (self.k + 2) == 0 else math.sin(n * math.pi / (self.k + 2)) / denom
            for n in range(2 * self.k + 3)
        ]
        self._qfact = [1.0]
        for n in range(1, len(self._qint)):
            self._qfact.append(self._qfact[-1] * self._qint[n])

    # -- identity -------------------------------------------------------

    def __repr__(self) -> str:
        return f"AnyonModel(k={self.k})"

    def __eq__(self, other: object) -> bool:
        # Equal models read one symbol table: every clean model of a level
        # shares it, and a damaged model works on its own copy.
        return isinstance(other, AnyonModel) and other.symbols is self.symbols

    def __hash__(self) -> int:
        return hash(("su2k", self.k))

    # -- fusion algebra ---------------------------------------------------

    @property
    def charges(self) -> tuple[int, ...]:
        """All twice-spin charge labels, vacuum first."""
        return tuple(range(self.k + 1))

    def check_charge(self, a: int) -> int:
        if not isinstance(a, (int, np.integer)) or isinstance(a, bool):
            raise ValueError(f"charge must be a twice-spin integer, got {a!r}")
        if not 0 <= a <= self.k:
            raise ValueError(f"charge {a} outside 0..{self.k} (twice-spin) at k={self.k}")
        return int(a)

    def fuse(self, a: int, b: int) -> tuple[int, ...]:
        """Admissible fusion channels of a x b, ascending."""
        return tuple(_channels(self.k, self.check_charge(a), self.check_charge(b)))

    def can_fuse(self, a: int, b: int, c: int) -> bool:
        """True when c is an admissible channel of a x b."""
        return _can_fuse(self.k, self.check_charge(a), self.check_charge(b),
                         self.check_charge(c))

    def qdim(self, a: int) -> float:
        """Quantum dimension [a+1]."""
        return self._qint[self.check_charge(a) + 1]

    # -- q-deformed Racah machinery ---------------------------------------

    def _triangle(self, a: int, b: int, c: int) -> float:
        fact = self._qfact
        num = (
            fact[(-a + b + c) // 2]
            * fact[(a - b + c) // 2]
            * fact[(a + b - c) // 2]
        )
        return math.sqrt(num / fact[(a + b + c) // 2 + 1])

    def _six_j(self, a: int, b: int, e: int, c: int, d: int, f: int) -> float:
        """q-deformed {a/2 b/2 e/2; c/2 d/2 f/2}, twice-spin arguments that
        are known to be charges whose four triads (a, b, e), (a, d, f),
        (c, b, f) and (c, d, e) are admissible: ``f_symbol`` asks only for
        the rows and columns of a block, which all are."""
        triads = [(a + b + e) // 2, (a + d + f) // 2, (c + b + f) // 2, (c + d + e) // 2]
        quads = [(a + b + c + d) // 2, (a + e + c + f) // 2, (b + e + d + f) // 2]
        fact = self._qfact
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
        return (
            total
            * self._triangle(a, b, e)
            * self._triangle(a, d, f)
            * self._triangle(c, b, f)
            * self._triangle(c, d, e)
        )

    # -- F and R symbols ---------------------------------------------------

    def f_symbol(self, a: int, b: int, c: int, d: int) -> FMatrix:
        """F-move block for charges a, b, c with total d (see module doc)."""
        # Only valid labels are ever cached, so plain ints may look up first;
        # anything else (bools and numpy ints among them) is validated first.
        if type(a) is int and type(b) is int and type(c) is int and type(d) is int:
            cached = self.symbols.f_symbols.get((a, b, c, d))
            if cached is not None:
                return cached
        key = (self.check_charge(a), self.check_charge(b),
               self.check_charge(c), self.check_charge(d))
        cached = self.symbols.f_symbols.get(key)
        if cached is not None:
            return cached
        a, b, c, d = key
        k = self.k
        rows = tuple(e for e in _channels(k, a, b) if _can_fuse(k, e, c, d))
        cols = tuple(f for f in _channels(k, b, c) if _can_fuse(k, a, f, d))
        if not rows or not cols:
            raise ValueError(
                f"no admissible channels for F(a={a}, b={b}, c={c}, d={d}) at k={self.k}"
            )
        sign = -1.0 if ((a + b + c + d) // 2) % 2 else 1.0
        matrix = np.empty((len(rows), len(cols)), dtype=np.float64)
        for i, e in enumerate(rows):
            for j, f in enumerate(cols):
                scale = math.sqrt(self._qint[e + 1] * self._qint[f + 1])
                matrix[i, j] = sign * scale * self._six_j(a, b, e, c, d, f)
        matrix.setflags(write=False)
        block = FMatrix(rows, cols, matrix)
        self.symbols.f_symbols[key] = block
        return block

    def r_symbol(self, a: int, b: int, c: int) -> complex:
        """Counterclockwise exchange phase of a and b in channel c."""
        a, b, c = self.check_charge(a), self.check_charge(b), self.check_charge(c)
        if not _can_fuse(self.k, a, b, c):
            raise ValueError(f"channel {c} not in fuse({a}, {b}) at k={self.k}")
        sign = -1.0 if ((a + b - c) // 2) % 2 else 1.0
        angle = math.pi * (c * (c + 2) - a * (a + 2) - b * (b + 2)) / (4 * (self.k + 2))
        return sign * complex(math.cos(angle), math.sin(angle))

    def corrupt_f_symbol(self, a: int, b: int, c: int, d: int, delta: float = 1e-2) -> None:
        """Damage one F block (diagnostic aid).

        Used by the ``check --debug-corrupt`` path and the negative-control
        tests: a corrupted entry must make the pentagon residual blow up.
        The model first moves onto a private copy of its symbol table, so
        the shared clean table of this level, and every other model, stay
        untouched.  The copy holds the F symbols only: no bases, exchange
        blocks, frames or letters derived from the clean symbols.
        """
        block = self.f_symbol(a, b, c, d)
        table = SymbolCache(self.k)
        table.f_symbols = dict(self.symbols.f_symbols)
        damaged = block.matrix.copy()
        damaged[0, 0] += delta
        damaged.setflags(write=False)
        table.f_symbols[(a, b, c, d)] = FMatrix(block.rows, block.cols, damaged)
        self.symbols = table

    def precompute(self) -> None:
        """Build the flat F table the consistency checks read into the
        symbol table (F blocks stay with ``f_symbol``, which builds them on
        demand)."""
        self._f_table()

    def _f_table(self) -> _FTable:
        """The symbol table's flat F table, built on first use.

        Every block of the level is evaluated in one batched q-Racah pass
        (``_f_entries``); then each block already in ``f_symbols`` is
        written over its own entries, so a block damaged by
        ``corrupt_f_symbol`` is the one the table holds.  Nothing is
        written to ``f_symbols``.
        """
        table = self.symbols.f_table
        if table is None:
            k = self.k
            N = _fusion_counts(k)
            # Rows e of block (a, b, c, d) run over fuse(a, b) and fuse(c, d),
            # columns f over fuse(b, c) and fuse(a, d); both counts are the
            # block's dimension.
            size = np.einsum("abe,ecd->abcd", N, N)
            parts = [(a, b, c, d, sizes, self._f_entries(a, b, c, d))
                     for sizes, (a, b, c, d) in _batches(size)]
            table = _FTable(k, *map(np.concatenate, zip(*parts)), self.symbols.f_symbols)
            self.symbols.f_table = table
        return table

    def _f_entries(self, a, b, c, d) -> np.ndarray:
        """Every entry of the blocks (a, b, c, d), each row-major, laid end
        to end: ``f_symbol``'s arithmetic, vectorized over label arrays."""
        k = self.k
        qint, fact = np.array(self._qint), np.array(self._qfact)
        own = np.arange(len(a), dtype=np.int32)
        block, e = _fan_out(k, [own], (a, b), (c, d))
        block, e, f = _fan_out(k, [block, e], (b[block], c[block]), (a[block], d[block]))
        a, b, c, d = a[block], b[block], c[block], d[block]
        sign = np.where(((a + b + c + d) // 2) % 2 == 1, -1.0, 1.0)
        scale = np.sqrt(qint[e + 1] * qint[f + 1])
        triads = [(a + b + e) // 2, (a + d + f) // 2, (c + b + f) // 2, (c + d + e) // 2]
        quads = [(a + b + c + d) // 2, (a + e + c + f) // 2, (b + e + d + f) // 2]
        # The scalar route skips every z with fact[z + 1] == 0, which is
        # every z > k; the sum runs over the rest in ascending z from 0.0.
        low = functools.reduce(np.maximum, triads)
        count = np.minimum(functools.reduce(np.minimum, quads), k) - low + 1
        total = np.zeros(len(block))
        for j in range(int(count.max(initial=0))):
            on = np.flatnonzero(count > j)
            z = low[on] + j
            term = fact[z + 1]
            for t in triads:
                term = term / fact[z - t[on]]
            for q in quads:
                term = term / fact[q[on] - z]
            total[on] += np.where(z % 2 == 1, -term, term)

        def triangle(a, b, c):
            num = fact[(-a + b + c) // 2] * fact[(a - b + c) // 2] * fact[(a + b - c) // 2]
            return np.sqrt(num / fact[(a + b + c) // 2 + 1])

        six_j = (total * triangle(a, b, e) * triangle(a, d, f) * triangle(c, b, f)
                 * triangle(c, d, e))
        return sign * scale * six_j

    # -- consistency checks -------------------------------------------------

    def verify_pentagon(self) -> float:
        """Max pentagon residual over all admissible label tuples.

        The identity checked, for four charges a, b, c, d with total t:

            F(x,c,d,t)[y,z] * F(a,b,z,t)[x,u]
              = sum_w F(a,b,c,y)[x,w] * F(a,w,d,t)[y,u] * F(b,c,d,u)[w,z]

        Either side can be nonzero only where both end trees
        (((ab)^x c)^y d)^t and (a (b (cd)^z)^u)^t are admissible, so every
        left tree of (a, b, c, d, t) is paired with every right tree of it.
        The two kinds are two bases of one fusion space, so one (k+1)^5
        int16 count of the left trees is the dimension of both.
        """
        F = self._f_table()
        k, n = self.k, self.k + 1
        N = _fusion_counts(k)
        dims = np.einsum("abx,xcy,ydt->abcdt", N, N, N, optimize=True)
        worst = 0.0
        for dim, (a, b, c, d, t) in _batches(dims):
            # w runs over fuse(b, c).  Keys with more w channels come first,
            # so the rows that take the j-th w term are always a prefix.
            low, count = _span(k, (b, c))
            order = np.argsort(-count, kind="stable")
            dim, a, b, c, d, t, low, count = (
                v[order] for v in (dim, a, b, c, d, t, low, count))
            own = np.arange(len(a), dtype=np.int32)
            lkey, x = _fan_out(k, [own], (a, b))
            _, x, y = _fan_out(k, [lkey, x], (x, c[lkey]), (d[lkey], t[lkey]))
            rkey, z = _fan_out(k, [own], (c, d))
            _, z, u = _fan_out(k, [rkey, z], (b[rkey], z), (a[rkey], t[rkey]))
            key, lt, rt = _pairs(dim)
            x, y, z, u = x[lt], y[lt], z[rt], u[rt]
            # Block positions of F(x,c,d,t), F(a,b,z,t), F(a,b,c,y),
            # F(b,c,d,u), and of F(a,w,d,t) less its w part.
            n2 = n * n
            xcdt = F.at(0, c, d, t)[key] + x * n2 * n2
            abzt = F.at(a, b, 0, t)[key] + z * n2
            abcy = F.at(a, b, c, 0)[key] + y * n
            bcdu = F.at(b, c, d, 0)[key] + u * n
            a0dt = F.at(a, 0, d, t)[key]
            lhs = F(xcdt, y, z) * F(abzt, x, u)
            # Terms add in ascending w from 0.0, the order of the sum over
            # fuse(b, c), so no residual depends on the batching.
            rhs = np.zeros(len(key))
            low, row_count = low[key], count[key]
            for j in range(count[0]):
                on = slice(0, np.count_nonzero(row_count > j))
                w = low[on] + 2 * j
                rhs[on] += (F(abcy[on], x[on], w) * F(a0dt[on] + w * n2 * n, y[on], u[on])
                            * F(bcdu[on], w, z[on]))
            worst = max(worst, float(np.abs(lhs - rhs).max(initial=0.0)))
        return worst

    def verify_hexagon(self) -> float:
        """Max hexagon residual (both chiralities) over all label tuples.

        Checked for charges a, b braided with c, total d:

            r(c,a,e) F(a,c,b,d)[e,g] r(c,b,g)
              = sum_f F(c,a,b,d)[e,f] r(c,f,d) F(a,b,c,d)[f,g]

        One pass checks both chiralities: every F is a real float64, a
        damaged one too, so the clockwise identity (every r conjugated) is
        the exact complex conjugate of this one, with equal residuals.
        Either side can be nonzero only where the trees (a c)^e b -> d and
        a (b c)^g -> d are admissible; both kinds are bases of the fusion
        space of a, b, c with total d, so both are counted by the F table's
        (k+1)^4 block sizes.
        """
        F = self._f_table()
        k, n = self.k, self.k + 1
        N = _fusion_counts(k)
        # Every R symbol, flat at (a*n + b)*n + c; 0 where c is no channel
        # of a x b.
        R = np.zeros(n ** 3, dtype=np.complex128)
        for a, b, c in np.argwhere(N).tolist():
            R[(a * n + b) * n + c] = self.r_symbol(a, b, c)
        dims = np.einsum("abe,ecd->abcd", N, N)
        worst = 0.0
        for dim, (a, b, c, d) in _batches(dims):
            # f runs over fuse(a, b); keys with more f channels come first.
            low, count = _span(k, (a, b))
            order = np.argsort(-count, kind="stable")
            dim, a, b, c, d, low, count = (v[order] for v in (dim, a, b, c, d, low, count))
            own = np.arange(len(a), dtype=np.int32)
            _, e = _fan_out(k, [own], (a, c), (b, d))
            _, g = _fan_out(k, [own], (b, c), (a, d))
            key, lt, rt = _pairs(dim)
            e, g = e[lt], g[rt]
            acbd = F.at(a, c, b, d)[key]
            cabd, abcd = F.at(c, a, b, d)[key], F.at(a, b, c, d)[key]
            # R positions of (c, a, .), (c, b, .) and (c, ., d).
            ca, cb, cd = ((c * n + a) * n)[key], ((c * n + b) * n)[key], (c * n * n + d)[key]
            low, row_count = low[key], count[key]
            lhs = R[ca + e] * F(acbd, e, g) * R[cb + g]
            rhs = np.zeros(len(key), dtype=np.complex128)
            for j in range(count[0]):
                on = slice(0, np.count_nonzero(row_count > j))
                f = low[on] + 2 * j
                rhs[on] += (F(cabd[on], e[on], f) * R[cd[on] + f * n]
                            * F(abcd[on], f, g[on]))
            worst = max(worst, float(np.abs(lhs - rhs).max(initial=0.0)))
        return worst
