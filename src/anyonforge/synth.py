"""Braid words, weave evaluation, and exhaustive gate search.

A braid word acts on an ordered row of blocks (composite strands).  Letters
are (position, exponent) pairs, position 1-based, freely reduced.  Words are
evaluated temporally: ``letters[0]`` is applied first, so the matrix of a
concatenation is ``evaluate(w2) @ evaluate(w1)``.

The search enumerates weaves: words in which one designated mobile block
does all the moving inside an allowed span of positions.  Because composite
exchanges preserve every block's charge and act on coarse trees only
(block-internal states ride along untouched), the search tracks one small
coarse matrix per constrained charge sector and scores candidates directly
from those.  It visits each word length once, all words of one length
together as numpy arrays (``_frontier``).  The returned braid's sector
matrices are re-derived on the full fusion space by an independent route
(products of composite generators) and compared entry by entry.

Targets are data: each names the block system, the mobile block, and a set
of per-sector rules (pinned phases, required image columns, or exact
unitaries).  The score of a word is the worst rule deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .codes import EncodingError, multi_qubit_code, single_qubit_code
from .model import AnyonModel, ConsistencyError, DEFAULT_TOLERANCE
from .spaces import (
    Grouping,
    _letter,
    _require_cover,
    _singletons,
    enumerate_basis,
    regroup,
    swap_leaves,
)

__all__ = [
    "BraidWord",
    "SearchStats",
    "SynthesisResult",
    "SynthesisTarget",
    "PhaseRule",
    "ColumnRule",
    "MatrixRule",
    "distance",
    "evaluate",
    "evaluate_tracked",
    "exchange_counts",
    "score_braid",
    "verify_braid_relations",
    "make_target_P",
    "make_target_B1",
    "make_target_B3",
    "make_target_E",
    "make_target_unitary",
    "BUILTIN_TARGETS",
    "search",
]

@dataclass(frozen=True)
class BraidWord:
    """Freely reduced word in the braid group on ``strand_count`` strands."""

    strand_count: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.strand_count < 1:
            raise ValueError("strand_count must be positive")
        letters = tuple((int(p), int(e)) for p, e in self.letters)
        object.__setattr__(self, "letters", letters)
        prev = None
        for pos, exp in letters:
            if not 1 <= pos < self.strand_count:
                raise ValueError(f"position {pos} outside 1..{self.strand_count - 1}")
            if exp not in (1, -1):
                raise ValueError(f"exponent must be +-1, got {exp}")
            if prev == (pos, -exp):
                raise ValueError(f"word is not freely reduced at sigma_{pos}")
            prev = (pos, exp)

    @classmethod
    def reduced(cls, strand_count: int, letters) -> "BraidWord":
        """Build a word, cancelling adjacent inverse pairs."""
        out: list[tuple[int, int]] = []
        for pos, exp in letters:
            if out and out[-1] == (pos, -exp):
                out.pop()
            else:
                out.append((int(pos), int(exp)))
        return cls(strand_count, tuple(out))

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strand_count,
                         tuple((p, -e) for p, e in reversed(self.letters)))

    def permutation(self) -> tuple[int, ...]:
        """0-based original index of the strand at each final position."""
        arr = list(range(self.strand_count))
        for pos, _ in self.letters:
            i = pos - 1
            arr[i], arr[i + 1] = arr[i + 1], arr[i]
        return tuple(arr)

    def __len__(self) -> int:
        return len(self.letters)


def distance(U: np.ndarray, V: np.ndarray) -> float:
    """Global-phase-invariant gate distance sqrt(max(0, 1 - |tr(U^dag V)|/n))."""
    U = np.asarray(U)
    V = np.asarray(V)
    if U.shape != V.shape or U.shape[0] != U.shape[1]:
        raise ValueError(f"shape mismatch: {U.shape} vs {V.shape}")
    n = U.shape[0]
    return float(np.sqrt(max(0.0, 1.0 - abs(np.trace(U.conj().T @ V)) / n)))


def evaluate_tracked(model: AnyonModel, basis, word: BraidWord,
                     grouping: Grouping | None = None):
    """Product of composite generator matrices, applied letters[0] first.

    Returns (matrix, final_leaves, final_grouping); the matrix maps the
    given basis to the basis over the final leaf arrangement, and belongs
    to the caller.  Each letter's matrix and end arrangement is built once
    per symbol table (``spaces._letter``); a letter seen before costs
    one lookup and one matrix product.  ``grouping`` must cover the
    basis's strands; by default every strand is a block.
    """
    if grouping is None:
        grouping = _singletons(len(basis.leaves))
    else:
        _require_cover(grouping, basis)
    if word.strand_count != len(grouping.blocks):
        raise ValueError("word strand count does not match block count")
    U = None
    leaves, g = basis.leaves, grouping
    for pos, exp in word.letters:
        M, leaves, g = _letter(model, leaves, basis.total, g, pos, exp)
        U = M if U is None else M @ U
    if U is None:
        U = np.eye(basis.dim, dtype=np.complex128)
    elif len(word.letters) == 1:
        U = U.copy()  # the shared, read-only letter matrix
    return U, leaves, g


def evaluate(model: AnyonModel, basis, word: BraidWord,
             grouping: Grouping | None = None) -> np.ndarray:
    """Unitary of a braid word on the given basis (see evaluate_tracked)."""
    U, _, _ = evaluate_tracked(model, basis, word, grouping)
    return U


def exchange_counts(word: BraidWord, grouping: Grouping) -> dict:
    """Signed and total crossing counts per original block pair (1-based)."""
    if word.strand_count != len(grouping.blocks):
        raise ValueError("word strand count does not match block count")
    arr = list(range(word.strand_count))
    counts: dict[tuple[int, int], dict[str, int]] = {}
    for pos, exp in word.letters:
        i = pos - 1
        a, b = arr[i], arr[i + 1]
        key = (min(a, b) + 1, max(a, b) + 1)
        entry = counts.setdefault(key, {"signed": 0, "total": 0})
        entry["signed"] += exp
        entry["total"] += 1
        arr[i], arr[i + 1] = arr[i + 1], arr[i]
    return counts


def verify_braid_relations(model: AnyonModel, *systems: tuple[int, ...]) -> float:
    """Worst braid-relation residual over every total charge of every
    system of leaves.

    Checks the Yang-Baxter identity s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}
    and far commutativity s_i s_j = s_j s_i for |i - j| >= 2, comparing the
    two composite unitaries in operator norm (both sides end on the same
    leaf arrangement, so the comparison is frame-free).  All systems are
    scored in one pass: the gaps are grouped by dimension, each side's
    letters (``spaces._letter``) multiplied as stacks, first letter first,
    and each group's 2-norms taken in one call.  A stacked product or norm
    gives every matrix the bytes of its own two-dimensional call, so the
    residual is the largest ``np.linalg.norm(gap, ord=2)`` of the words'
    generator products, to the last bit.
    """
    # (dimension, word length) -> per side, per letter, one matrix per gap.
    stacks: dict[tuple[int, int], tuple[list, list]] = {}
    for leaves in systems:
        n = len(leaves)
        # Both sides of each relation, as the positions of positive letters.
        words = [((i, i + 1, i), (i + 1, i, i + 1)) for i in range(1, n - 1)]
        words += [((i, j), (j, i)) for i in range(1, n - 1) for j in range(i + 2, n)]
        singletons = _singletons(n)
        for total in model.charges:
            dim = enumerate_basis(model, leaves, total).dim
            if dim == 0:
                continue
            for pair in words:
                sides = stacks.setdefault(
                    (dim, len(pair[0])), ([[] for _ in pair[0]], [[] for _ in pair[0]]))
                for word, side in zip(pair, sides):
                    current = leaves
                    for pos, matrices in zip(word, side):
                        matrix, current, _ = _letter(model, current, total, singletons, pos, 1)
                        matrices.append(matrix)
    gaps: dict[int, list] = {}
    for (dim, _), sides in stacks.items():
        products = []
        for side in sides:
            U = np.array(side[0])
            for matrices in side[1:]:
                U = np.array(matrices) @ U
            products.append(U)
        gaps.setdefault(dim, []).append(products[0] - products[1])
    worst = 0.0
    for parts in gaps.values():
        norms = np.linalg.norm(np.concatenate(parts), ord=2, axis=(1, 2))
        worst = max(worst, float(norms.max()))
    return worst


# --- targets -----------------------------------------------------------

@dataclass(frozen=True)
class PhaseRule:
    """One-dimensional sector pinned to a reference phase."""

    sector: tuple[int, ...]
    reference: complex = 1.0 + 0.0j


@dataclass(frozen=True)
class ColumnRule:
    """A designated input column must land on a target direction.

    With ``exact_value`` set, the column must equal value * target entrywise;
    otherwise only the direction is constrained and the phase is free.
    """

    sector: tuple[int, ...]
    input_index: int
    target: tuple[complex, ...]
    exact_value: complex | None = None


@dataclass(frozen=True)
class MatrixRule:
    """The whole sector must match a unitary up to global phase."""

    sector: tuple[int, ...]
    target: tuple[tuple[complex, ...], ...]


@dataclass(frozen=True)
class SynthesisTarget:
    """A block system plus the per-sector rules its score is the worst
    of; plain data."""

    name: str
    k: int
    leaves: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    mobile: int
    span: tuple[int, int]
    final_arrangement: tuple[int, ...]
    rules: tuple

    @property
    def grouping(self) -> Grouping:
        return Grouping(self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)


@dataclass
class SearchStats:
    """Search accounting: one row per length L from 1 to max_length.

    A row is (length, best, nodes, frontier, seconds): the best score over
    words of length <= L; the words of length <= L visited (after dedup);
    the words of exactly length L visited; and the time spent at depth L,
    summed over workers (busy time).  ``wall_seconds`` is the wall-clock
    time of the whole enumeration.
    """

    rows: list = field(default_factory=list)
    wall_seconds: float = 0.0


@dataclass(frozen=True)
class SynthesisResult:
    target: SynthesisTarget
    braid: BraidWord
    distance: float
    leakage: float
    converged: bool
    stats: SearchStats = field(compare=False)


# --- target factories --------------------------------------------------

def _two_qubit_system(model: AnyonModel, charges: tuple[int, int]):
    code = multi_qubit_code(model, 2, charges)
    return code.basis.leaves, code.grouping


def _pair_sectors(a: int):
    """Block charge assignments (a, q1, q2, a) over the bit channels."""
    return [(a, q1, q2, a) for q1 in (0, 2) for q2 in (0, 2)]


def _comp_index(model: AnyonModel, sector: tuple[int, ...], a: int) -> int:
    """Index of the all-a coarse tree inside a sector's coarse basis."""
    basis = enumerate_basis(model, sector, 0)
    return basis.index((a,) * (len(sector) - 1) + (0,))


def make_target_P(model: AnyonModel, charges: tuple[int, int] = (1, 1)) -> SynthesisTarget:
    """Phase gate on the two-qubit code: -1 on |11>, +1 on the other
    computational states, free phase on the non-computational direction."""
    a, _ = charges
    leaves, grouping = _two_qubit_system(model, charges)
    rules = []
    for sector in _pair_sectors(a):
        dim = enumerate_basis(model, sector, 0).dim
        if sector[1] == 2 and sector[2] == 2:
            if dim == 1:
                rules.append(PhaseRule(sector, reference=-1.0 + 0.0j))
            else:
                comp = _comp_index(model, sector, a)
                target = tuple(1.0 + 0.0j if i == comp else 0.0j for i in range(dim))
                rules.append(ColumnRule(sector, comp, target, exact_value=-1.0 + 0.0j))
        else:
            rules.append(PhaseRule(sector))
    return SynthesisTarget(
        name="P", k=model.k, leaves=leaves,
        blocks=grouping.blocks, mobile=1, span=(1, 3),
        final_arrangement=tuple(range(len(grouping.blocks))), rules=tuple(rules))


def _aggregation_target(model: AnyonModel, charges: tuple[int, int], joined: int,
                        name: str) -> SynthesisTarget:
    """Send the |11> state onto the branch where the two middle pairs
    carry joint charge ``joined``.  The other sectors are one-dimensional
    and need no rule: the CCZ (B1, P, B1^-1, B3, P^-1, B3^-1) runs each
    aggregation braid's inverse, which cancels their phases, and
    ``assemble_ccz`` checks that it did."""
    a, _ = charges
    leaves, grouping = _two_qubit_system(model, charges)
    sector = (a, 2, 2, a)
    basis = enumerate_basis(model, sector, 0)
    if basis.dim == 0:
        raise EncodingError(f"sector {sector} is empty for k={model.k}")
    fm = model.f_symbol(a, 2, 2, a)
    if joined not in fm.cols:
        raise EncodingError(
            f"joined charge {joined} not reachable: channels are {fm.cols}")
    col = fm.cols.index(joined)
    target = [0.0j] * basis.dim
    for r, m in enumerate(fm.rows):
        target[basis.index((a, m, a, 0))] = complex(fm.matrix[r, col])
    comp = _comp_index(model, sector, a)
    rules = (ColumnRule(sector, comp, tuple(target), exact_value=None),)
    return SynthesisTarget(
        name=name, k=model.k, leaves=leaves,
        blocks=grouping.blocks, mobile=1, span=(1, 3),
        final_arrangement=tuple(range(len(grouping.blocks))), rules=rules)


def make_target_B1(model: AnyonModel, charges: tuple[int, int] = (1, 1)) -> SynthesisTarget:
    """Aggregation braid: on |11>, the joint charge of the two middle pairs
    becomes 1 (twice-spin 2)."""
    return _aggregation_target(model, charges, joined=2, name="B1")


def make_target_B3(model: AnyonModel, charges: tuple[int, int] = (1, 1)) -> SynthesisTarget:
    """Aggregation braid: on |11>, the joint charge becomes 0."""
    return _aggregation_target(model, charges, joined=0, name="B3")


def make_target_E(model: AnyonModel, charges: tuple[int, int] = (1, 1)) -> SynthesisTarget:
    """Anyon-exchange move joining two four-anyon registers.

    Strand layout (a1 b2 b3 | a4 | b6 b7 a8 | a5): the singleton a4 block
    weaves past the second register's three-anyon block and parks between it
    and the trailing a5, so strands 1..6 afterwards carry a six-anyon
    register while the displaced pair (a4, a5) fuses to the vacuum.  Every
    register is a charge-0 code, so in the (a, a, a, a) sector the input
    whose first register carries charge 0 must land on the direction where
    the joined six-strand register carries charge 0; every other sector is
    one-dimensional.
    """
    a, b = charges
    leaves = (a, b, b, a, b, b, a, a)
    grouping = Grouping.of_sizes(3, 1, 3, 1)
    sector = (a, a, a, a)
    basis = enumerate_basis(model, sector, 0)
    channel0 = basis.index((a, 0, a, 0))
    target = tuple(1.0 + 0.0j if i == channel0 else 0.0j for i in range(basis.dim))
    rules = (ColumnRule(sector, channel0, target, exact_value=None),)
    return SynthesisTarget(
        name="E", k=model.k, leaves=leaves,
        blocks=grouping.blocks, mobile=2, span=(2, 4),
        final_arrangement=(0, 2, 1, 3), rules=rules)


# Target factories of the paper's gate set, by the id braid files store.
BUILTIN_TARGETS = {
    "P": make_target_P,
    "B1": make_target_B1,
    "B3": make_target_B3,
    "E": make_target_E,
}


def make_target_unitary(model: AnyonModel, matrix: np.ndarray,
                        charges: tuple[int, int] = (1, 1),
                        name: str = "U") -> SynthesisTarget:
    """Exact single-qubit unitary (up to global phase) on the 4-anyon code,
    woven by the leftmost anyon moving through the two middle ones."""
    code = single_qubit_code(model, charges=charges)
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (2, 2):
        raise ValueError("single-qubit target must be 2x2")
    if not np.allclose(matrix.conj().T @ matrix, np.eye(2), atol=1e-12):
        raise ValueError("target is not unitary within 1e-12")
    rows = [index for _, index in code.computational]
    frame = code.transform[rows, :]
    coarse_target = frame.conj().T @ matrix @ frame
    target = tuple(tuple(complex(z) for z in row) for row in coarse_target)
    rules = (MatrixRule(code.basis.leaves, target),)
    return SynthesisTarget(
        name=name, k=model.k, leaves=code.basis.leaves,
        blocks=Grouping.of_sizes(1, 1, 1, 1).blocks, mobile=1, span=(1, 3),
        final_arrangement=(0, 1, 2, 3), rules=rules)


# --- search core -------------------------------------------------------

class _Problem:
    """One search's context, walked by every share: move generation,
    sector generators from the model's symbol table, and the one rule scorer.

    States are stored entry-major: one column of ``re`` and one of ``im``
    per state, holding each ruled sector's n x n matrix flat, sector after
    sector, so entry i of every state is the contiguous row ``re[i]``.  The
    scorer works on many states at once in float64 ufuncs (``np.hypot`` for
    ``abs``, ``np.float_power`` for ``**``), summing left to right from
    zero; ``test_search_core`` checks it bit for bit against complex scalar
    arithmetic.
    """

    def __init__(self, model: AnyonModel, target: SynthesisTarget):
        if model.k != target.k:
            raise ValueError(f"model k={model.k} does not match target k={target.k}")
        self.model = model
        self.target = target
        self.block_count = target.block_count
        self.initial_arr = tuple(range(self.block_count))
        self.final_arr = target.final_arrangement
        self.mobile = target.mobile - 1
        self.sectors = tuple(sorted({r.sector for r in target.rules}))
        # Refuse, before any walk, a sector the block system cannot hold
        # and a rule that does not fit its sector.
        held = regroup(model, enumerate_basis(model, target.leaves, 0), target.grouping)[0]
        for sector in self.sectors:
            if sector not in held.sectors:
                raise ValueError(f"sector {sector} does not occur in the block system")
        sector_pos = {s: i for i, s in enumerate(self.sectors)}
        self.dims = tuple(enumerate_basis(model, s, 0).dim for s in self.sectors)
        # First row of each sector's entries.
        self.offsets = tuple(sum(d * d for d in self.dims[:i])
                             for i in range(len(self.dims)))
        self.rules = tuple((rule, sector_pos[rule.sector]) for rule in target.rules)
        for rule, si in self.rules:
            n = self.dims[si]
            if not (n == 1 if isinstance(rule, PhaseRule)
                    else 0 <= rule.input_index < n == len(rule.target)
                    if isinstance(rule, ColumnRule)
                    else [len(row) for row in rule.target] == [n] * n):
                raise ValueError(f"{type(rule).__name__} does not fit sector "
                                 f"{rule.sector} of dimension {n}")

    def moves(self, pos: int):
        """Canonical-order letters available to the mobile block at ``pos``."""
        lo, hi = self.target.span
        out = []
        if pos > lo:
            out.append((pos - 1, 1))
            out.append((pos - 1, -1))
        if pos < hi:
            out.append((pos, 1))
            out.append((pos, -1))
        return out

    def all_moves(self):
        out = []
        for p in range(1, self.block_count):
            out.append((p, 1))
            out.append((p, -1))
        return out

    def transition(self, arr: tuple, pos: int, exp: int):
        """The arrangement after letter (pos, exp) from ``arr``, and the
        letter's generator on each sector (``spaces._letter``, as ``_replay``)."""
        gens = tuple(_letter(self.model, tuple(sector[b] for b in arr), 0,
                             _singletons(self.block_count), pos, exp)[0]
                     for sector in self.sectors)
        return swap_leaves(arr, pos), gens

    def rows(self, states) -> tuple[np.ndarray, np.ndarray]:
        """(re, im), entry-major, of states given as per-sector matrices."""
        flat = np.array([[z for M in state for z in np.ravel(M)] for state in states],
                        dtype=np.complex128).T
        return np.ascontiguousarray(flat.real), np.ascontiguousarray(flat.imag)

    def deviations(self, re: np.ndarray, im: np.ndarray, rules) -> list:
        """Per (rule, sector index) of ``rules``, its deviation on every state."""
        out = []
        for rule, si in rules:
            n = self.dims[si]
            o = self.offsets[si]
            if isinstance(rule, PhaseRule):
                ref = complex(rule.reference)
                dev = np.hypot(re[o] - ref.real, im[o] - ref.imag)
            elif isinstance(rule, ColumnRule):
                cols = [o + i * n + rule.input_index for i in range(n)]
                total = 0.0
                if rule.exact_value is not None:
                    for i, c in enumerate(cols):
                        w = rule.exact_value * rule.target[i]
                        total = total + np.float_power(
                            np.hypot(re[c] - w.real, im[c] - w.imag), 2)
                    dev = np.float_power(total, 0.5)
                else:
                    # Norm of the column's part orthogonal to the target.
                    along_r = along_i = 0.0
                    for i, c in enumerate(cols):
                        total = total + np.float_power(np.hypot(re[c], im[c]), 2)
                        t = rule.target[i].conjugate()
                        along_r = along_r + (t.real * re[c] - t.imag * im[c])
                        along_i = along_i + (t.real * im[c] + t.imag * re[c])
                    along = np.hypot(along_r, along_i)
                    dev = np.float_power(np.maximum(0.0, total - along * along), 0.5)
            else:
                tr_r = tr_i = 0.0
                for i in range(n):
                    for j in range(n):
                        t = rule.target[i][j]
                        # M[i, j].conjugate() * t
                        mr, mi = re[o + i * n + j], -im[o + i * n + j]
                        tr_r = tr_r + (mr * t.real - mi * t.imag)
                        tr_i = tr_i + (mr * t.imag + mi * t.real)
                dev = np.float_power(
                    np.maximum(0.0, 1.0 - np.hypot(tr_r, tr_i) / n), 0.5)
            out.append(dev)
        return out

    def score(self, re: np.ndarray, im: np.ndarray) -> np.ndarray:
        """Worst rule deviation of every state."""
        worst = np.zeros(re.shape[1])
        for dev in self.deviations(re, im, self.rules):
            np.maximum(worst, dev, out=worst)
        return worst


def _replay(problem: _Problem, letters: tuple) -> tuple:
    """Each ruled sector's coarse matrix after ``letters``."""
    word = BraidWord(problem.block_count, letters)
    return tuple(evaluate(problem.model, enumerate_basis(problem.model, sector, 0), word)
                 for sector in problem.sectors)


def search(model: AnyonModel, target: SynthesisTarget, max_length: int,
           tolerance: float = DEFAULT_TOLERANCE, workers: int = 1) -> SynthesisResult:
    """Exhaustive enumeration of words up to ``max_length``, in one pass.

    ``_frontier.walk`` walks this call's ``_Problem``, so words are scored
    with ``model``'s own symbols, damaged or not.  Deterministic regardless
    of worker count: share 0 walks the short words (the stub), the prefixes
    at a fixed depth are dealt round-robin to one share per usable CPU, at
    most ``workers`` (share 0 in this thread, each other one in a forked
    child, each pinned to its own CPU; this thread's CPU mask is restored
    afterwards), and the shares' per-depth winners are merged by (score,
    length, letters).  Without ``os.fork`` or ``os.sched_setaffinity``
    there is one share.  The best word is re-verified on the full fusion
    space; it converged if its distance is <= ``tolerance``.
    """
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    if not tolerance > 0:
        raise ValueError("tolerance must be a positive number")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    problem = _Problem(model, target)  # refuses a misfit level or rule before any walk
    # Loaded on the first search, so commands that run none skip it.
    from ._frontier import walk

    letters, rows, seconds = walk(problem, max_length, workers)
    return _finish(problem, tolerance, BraidWord(target.block_count, letters),
                   SearchStats(rows, seconds))


def score_braid(model: AnyonModel, target: SynthesisTarget,
                braid: BraidWord) -> SynthesisResult:
    """Score a stored word against a target without searching.

    Runs the same dual-route verification as search: every entry of the
    incrementally tracked sector matrices must agree with the full-space
    product within 1e-12.
    Convergence is judged at ``DEFAULT_TOLERANCE``.
    """
    if braid.strand_count != target.block_count:
        raise ValueError("braid strand count does not match the block system")
    if braid.permutation() != target.final_arrangement:
        raise ValueError("braid does not realize the target arrangement")
    return _finish(_Problem(model, target), DEFAULT_TOLERANCE, braid, SearchStats())


def _finish(problem: _Problem, tolerance: float, word: BraidWord,
            stats: SearchStats) -> SynthesisResult:
    """Check the two routes' sector matrices agree entry by entry, then
    build the result from the full-space route: ``problem``'s target, with
    ``stats`` as its curve, converged if its distance is <= ``tolerance``."""
    re, im = problem.rows([_replay(problem, word.letters),
                           _coarse_from_full(problem, word)])
    gap = float(np.hypot(re[:, 0] - re[:, 1], im[:, 0] - im[:, 1]).max())
    if not gap <= 1e-12:
        raise ConsistencyError(
            f"coarse tracking and full-space evaluation disagree: sector "
            f"entries differ by up to {gap!r}")

    re, im = re[:, 1:], im[:, 1:]
    full_score = float(problem.score(re, im)[0])
    # Leakage: the part of each designated column off its target direction.
    leaks = [(replace(rule, exact_value=None), si) for rule, si in problem.rules
             if isinstance(rule, ColumnRule)]
    leak = max([0.0] + [float(dev[0]) for dev in problem.deviations(re, im, leaks)])
    return SynthesisResult(
        target=problem.target, braid=word, distance=full_score, leakage=leak,
        converged=full_score <= tolerance, stats=stats)


def _coarse_from_full(problem: _Problem, word: BraidWord) -> tuple:
    """Each ruled sector's coarse matrix, from the full-space product route.

    Evaluates the word with composite generators on the fine basis, regroups
    both ends, and checks that every block-internal slice of a sector agrees
    (a composite exchange must not see internal trees); raises otherwise.
    Each sector's run of a frame is a (coarse trees, internal trees) grid
    (``GroupedBasis``); the output's internal axes are put back in input
    block order, and every slice is read with one gather.
    The matrices come in ``problem.sectors`` order, as ``_replay``'s do.
    """
    model, target = problem.model, problem.target
    basis = enumerate_basis(model, target.leaves, 0)
    grouping = target.grouping
    U, final_leaves, final_grouping = evaluate_tracked(model, basis, word, grouping)
    g_in, t_in = regroup(model, basis, grouping)
    g_out, t_out = regroup(model, enumerate_basis(model, final_leaves, 0),
                           final_grouping)
    Ug = t_out @ U @ t_in.conj().T

    perm = word.permutation()
    back = [0] + [perm.index(b) + 1 for b in range(len(perm))]
    block_leaves = grouping.block_charges(target.leaves)
    out = []
    for sector in problem.sectors:
        trees = [enumerate_basis(model, leaves, c).dim
                 for leaves, c in zip(block_leaves, sector)]
        cols = np.reshape(g_in.sectors[sector], (-1, *trees))
        rows = np.reshape(g_out.sectors[tuple(sector[b] for b in perm)],
                          (-1, *(trees[b] for b in perm))).transpose(back)
        # (internal trees, coarse trees) index grids, one slice per tree
        rows, cols = (grid.reshape(len(grid), -1).T for grid in (rows, cols))
        blocks = Ug[rows[:, :, None], cols[:, None, :]]
        if len(blocks) > 1 and not np.allclose(blocks[0], blocks[1:], atol=1e-10):
            raise ConsistencyError(
                f"sector {sector}: braid action varies across internal trees")
        out.append(blocks[0])
    return tuple(out)
