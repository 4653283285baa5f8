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

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_PHASE_TOLERANCE",
    "ConsistencyError",
    "FMatrix",
    "SymbolCache",
    "AnyonModel",
]

# Default tolerances: consistency identities vs. exact-phase checks.
DEFAULT_TOLERANCE = 1e-9
DEFAULT_PHASE_TOLERANCE = 1e-12


class ConsistencyError(Exception):
    """A consistency identity (pentagon, hexagon, unitarity) failed."""


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

    Holds the memoized F and R symbols, the fusion bases built by
    ``spaces.enumerate_basis``, the braid generators built from the
    symbols by ``spaces.braid_generator``, the regrouped frames built by
    ``spaces.regroup`` and the word steps of ``synth.evaluate_tracked``.
    ``steps`` maps (leaves, total, blocks, position, exponent) to the
    read-only matrix of that composite letter with the leaves and grouping
    it ends on; ``frames`` maps (leaves, total, blocks) to ``regroup``'s
    (grouped basis, transform).  All clean models of one level share one
    table; a model whose F symbols are damaged works on a private copy
    (see ``AnyonModel.corrupt_f_symbol``).
    """

    def __init__(self, k: int):
        self.k = k
        self.f_symbols: dict[tuple[int, int, int, int], FMatrix] = {}
        self.r_symbols: dict[tuple[int, int, int], complex] = {}
        self.bases: dict = {}
        self.generators: dict = {}
        self.frames: dict = {}
        self.steps: dict = {}


# The clean table of each level, shared by every clean model of that level.
_CLEAN_TABLES: dict[int, SymbolCache] = {}


def _fan_out(k: int, columns: list, p, q) -> list:
    """Repeat each row of the label arrays ``columns`` once per fusion
    channel of p x q (arrays over the rows, or scalars) and append that
    channel as a new column: a vectorized ``AnyonModel.fuse``."""
    size = len(columns[0])
    lo = np.zeros(size, dtype=np.int64) + np.abs(p - q)
    count = (np.minimum(p + q, 2 * k - p - q) - lo) // 2 + 1
    row = np.repeat(np.arange(size), count)
    step = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    return [col[row] for col in columns] + [lo[row] + 2 * step]


def _admissible(k: int, a, b, c):
    """Vectorized ``AnyonModel.can_fuse``."""
    return ((a + b + c) % 2 == 0) & (np.abs(a - b) <= c) & (c <= a + b) \
        & (a + b + c <= 2 * k)


class _SparseTable:
    """Vectorized reads of a {label tuple: value} table; absent tuples
    read 0.  Memory grows with the entries, not with (k+1)**len(labels)."""

    def __init__(self, k: int, entries: dict):
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


class AnyonModel:
    """The SU(2)_k anyon model at integer level k >= 2."""

    def __init__(self, k: int):
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
            raise ValueError(f"level must be an integer >= 2, got {k!r}")
        if k < 2:
            raise ValueError(f"level must be an integer >= 2, got {k}")
        self.k = int(k)
        self.symbols = _CLEAN_TABLES.setdefault(self.k, SymbolCache(self.k))
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
        return isinstance(other, AnyonModel) and other.k == self.k

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
        a = self.check_charge(a)
        b = self.check_charge(b)
        top = min(a + b, 2 * self.k - a - b)
        return tuple(range(abs(a - b), top + 1, 2))

    def can_fuse(self, a: int, b: int, c: int) -> bool:
        """True when c is an admissible channel of a x b."""
        a, b = self.check_charge(a), self.check_charge(b)
        c = self.check_charge(c)
        return (
            (a + b + c) % 2 == 0
            and abs(a - b) <= c <= a + b
            and a + b + c <= 2 * self.k
        )

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
        """q-deformed {a/2 b/2 e/2; c/2 d/2 f/2}, twice-spin arguments."""
        if not (
            self.can_fuse(a, b, e)
            and self.can_fuse(a, d, f)
            and self.can_fuse(c, b, f)
            and self.can_fuse(c, d, e)
        ):
            return 0.0
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
        key = (self.check_charge(a), self.check_charge(b),
               self.check_charge(c), self.check_charge(d))
        cached = self.symbols.f_symbols.get(key)
        if cached is not None:
            return cached
        a, b, c, d = key
        rows = tuple(e for e in self.fuse(a, b) if self.can_fuse(e, c, d))
        cols = tuple(f for f in self.fuse(b, c) if self.can_fuse(a, f, d))
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
        key = (self.check_charge(a), self.check_charge(b), self.check_charge(c))
        cached = self.symbols.r_symbols.get(key)
        if cached is not None:
            return cached
        a, b, c = key
        if not self.can_fuse(a, b, c):
            raise ValueError(f"channel {c} not in fuse({a}, {b}) at k={self.k}")
        sign = -1.0 if ((a + b - c) // 2) % 2 else 1.0
        angle = math.pi * (c * (c + 2) - a * (a + 2) - b * (b + 2)) / (4 * (self.k + 2))
        value = sign * complex(math.cos(angle), math.sin(angle))
        self.symbols.r_symbols[key] = value
        return value

    def corrupt_f_symbol(self, a: int, b: int, c: int, d: int, delta: float = 1e-2) -> None:
        """Damage one F block (diagnostic aid).

        Used by the ``check --debug-corrupt`` path and the negative-control
        tests: a corrupted entry must make the pentagon residual blow up.
        The model first moves onto a private copy of its symbol table, so
        the shared clean table of this level, and every other model, stay
        untouched.  The copy holds the F and R symbols only: no bases,
        generators, frames or word steps derived from the clean symbols.
        """
        block = self.f_symbol(a, b, c, d)
        table = SymbolCache(self.k)
        table.f_symbols = dict(self.symbols.f_symbols)
        table.r_symbols = dict(self.symbols.r_symbols)
        damaged = block.matrix.copy()
        damaged[0, 0] += delta
        damaged.setflags(write=False)
        table.f_symbols[(a, b, c, d)] = FMatrix(block.rows, block.cols, damaged)
        self.symbols = table

    def precompute(self) -> None:
        """Build every F and R symbol of this level into the symbol table."""
        for a in self.charges:
            for b in self.charges:
                for e in self.fuse(a, b):
                    self.r_symbol(a, b, e)
                    for c in self.charges:
                        for d in self.fuse(e, c):
                            self.f_symbol(a, b, c, d)

    def _f_entries(self) -> _SparseTable:
        """Every F coefficient, read as F(a, b, c, d, e, f) -> F(a,b,c,d)[e,f]."""
        self.precompute()
        return _SparseTable(self.k, {
            (a, b, c, d, e, f): block.matrix[i, j]
            for (a, b, c, d), block in self.symbols.f_symbols.items()
            for i, e in enumerate(block.rows)
            for j, f in enumerate(block.cols)
        })

    # -- consistency checks -------------------------------------------------

    def verify_pentagon(self, tolerance: float | None = None) -> float:
        """Max pentagon residual over all admissible label tuples.

        The identity checked, for four charges a, b, c, d with total t:

            F(x,c,d,t)[y,z] * F(a,b,z,t)[x,u]
              = sum_w F(a,b,c,y)[x,w] * F(a,w,d,t)[y,u] * F(b,c,d,u)[w,z]

        If ``tolerance`` is given and exceeded, raises ConsistencyError.
        """
        F = self._f_entries()
        k = self.k
        worst = 0.0
        # Either side can be nonzero only where both end trees
        # (((ab)^x c)^y d)^t and (a (b (cd)^z)^u)^t are admissible; one
        # (a, b, c) triple at a time keeps the arrays small at large k.
        for a, b, c in itertools.product(self.charges, repeat=3):
            d, x = _fan_out(k, [np.arange(k + 1)], a, b)
            d, x, y = _fan_out(k, [d, x], x, c)
            d, x, y, t = _fan_out(k, [d, x, y], y, d)
            d, x, y, t, z = _fan_out(k, [d, x, y, t], c, d)
            d, x, y, t, z, u = _fan_out(k, [d, x, y, t, z], b, z)
            keep = _admissible(k, a, u, t)
            d, x, y, t, z, u = (v[keep] for v in (d, x, y, t, z, u))
            lhs = F(x, c, d, t, y, z) * F(a, b, z, t, x, u)
            rhs = sum(F(a, b, c, y, x, w) * F(a, w, d, t, y, u) * F(b, c, d, u, w, z)
                      for w in self.fuse(b, c))
            worst = max(worst, float(np.abs(lhs - rhs).max(initial=0.0)))
        if tolerance is not None and worst > tolerance:
            raise ConsistencyError(f"pentagon residual {worst:.3e} > {tolerance:.3e}")
        return worst

    def verify_hexagon(self, tolerance: float | None = None) -> float:
        """Max hexagon residual (both chiralities) over all label tuples.

        Checked for charges a, b braided with c, total d:

            r(c,a,e) F(a,c,b,d)[e,g] r(c,b,g)
              = sum_f F(c,a,b,d)[e,f] r(c,f,d) F(a,b,c,d)[f,g]

        and the same with every r conjugated (clockwise exchange).
        """
        F = self._f_entries()
        R = _SparseTable(self.k, self.symbols.r_symbols)
        k = self.k
        worst = 0.0
        # Either side can be nonzero only where (a c)^e b -> d and
        # a (b c)^g -> d are admissible.
        for a, b in itertools.product(self.charges, repeat=2):
            c = np.arange(k + 1)
            c, e = _fan_out(k, [c], a, c)
            c, e, d = _fan_out(k, [c, e], e, b)
            c, e, d, g = _fan_out(k, [c, e, d], b, c)
            keep = _admissible(k, a, g, d)
            c, e, d, g = (v[keep] for v in (c, e, d, g))
            for phase in (np.asarray, np.conj):
                lhs = phase(R(c, a, e)) * F(a, c, b, d, e, g) * phase(R(c, b, g))
                rhs = sum(F(c, a, b, d, e, f) * phase(R(c, f, d)) * F(a, b, c, d, f, g)
                          for f in self.fuse(a, b))
                worst = max(worst, float(np.abs(lhs - rhs).max(initial=0.0)))
        if tolerance is not None and worst > tolerance:
            raise ConsistencyError(f"hexagon residual {worst:.3e} > {tolerance:.3e}")
        return worst
