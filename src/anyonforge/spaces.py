"""Fusion-tree bases, elementary braid generators, and block regrouping.

A state space is spanned by left-comb fusion trees: leaves are absorbed one
at a time, so a tree over leaves (l1, ..., ln) is its path of running
internal charges m_i = charge(l1 ... li), with m_1 = l_1 and m_n equal to the
total charge.  Basis order is lexicographic in the path.

Exchanging adjacent strands swaps their charge labels: when the two charges
differ, the braid generator is a unitary from the basis over (.., a, b, ..)
to the basis over (.., b, a, ..).  Callers track the current leaf ordering;
``swap_leaves`` gives the target ordering.

``regroup`` re-expresses the fine basis in trees adapted to a partition of
the strands into contiguous blocks: each basis vector gets a definite charge
per block, an internal tree per block, and a coarse tree over the block
charges.  Braiding whole blocks (``composite_braid_generator``) is the
product of elementary exchanges and, within a definite-charge sector of both
blocks, agrees with the elementary generator of the coarse system.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from types import MappingProxyType

import numpy as np

from .model import AnyonModel, _channels

__all__ = [
    "FusionBasis",
    "Grouping",
    "GroupedLabel",
    "GroupedBasis",
    "enumerate_basis",
    "swap_leaves",
    "braid_generator",
    "inverse_braid_generator",
    "regroup",
    "composite_braid_generator",
]


@dataclass(frozen=True)
class FusionBasis:
    """Ordered basis of fusion trees over fixed leaves and total charge.

    Each tree is its path of running charges: ``trees[j][i]`` is the total
    charge of ``leaves[:i+1]``, so a path starts at ``leaves[0]`` and ends
    at ``total``.
    """

    leaves: tuple[int, ...]
    total: int
    trees: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.trees)

    @cached_property
    def _positions(self) -> dict[tuple[int, ...], int]:
        """Position of each tree, by its path."""
        return {path: i for i, path in enumerate(self.trees)}

    def index(self, path: tuple[int, ...]) -> int:
        """Position of the tree with running charges ``path``; KeyError if
        no tree of this basis has that path."""
        position = self._positions.get(path)
        if position is None:
            raise KeyError(f"path {path} not in basis")
        return position


def enumerate_basis(model: AnyonModel, leaves: tuple[int, ...], total: int) -> FusionBasis:
    """All left-comb trees over ``leaves`` with the given total charge."""
    cache = model.symbols.bases
    # Only valid labels are ever cached, so plain ints may look up first;
    # anything else (bools and numpy ints among them) is validated first.
    if type(total) is int and all(type(c) is int for c in leaves):
        hit = cache.get((tuple(leaves), total))
        if hit is not None:
            return hit
    leaves = tuple(model.check_charge(c) for c in leaves)
    total = model.check_charge(total)
    if not leaves:
        raise ValueError("at least one leaf required")
    key = (leaves, total)
    hit = cache.get(key)
    if hit is not None:
        return hit
    # Each path extended by its channels in ascending order keeps the paths
    # lexicographic.
    paths = [(leaves[0],)]
    for leaf in leaves[1:]:
        paths = [path + (c,) for path in paths for c in _channels(model.k, path[-1], leaf)]
    basis = FusionBasis(leaves, total, tuple(path for path in paths if path[-1] == total))
    cache[key] = basis
    return basis


def swap_leaves(leaves: tuple[int, ...], position: int) -> tuple[int, ...]:
    """Leaf ordering after exchanging strands at 1-based ``position``; any
    row (block charges, block sizes, an arrangement) swaps the same way.
    A position outside 1..n-1 raises ValueError."""
    if not 1 <= position < len(leaves):
        raise ValueError(f"position {position} outside 1..{len(leaves) - 1}")
    i = position - 1
    swapped = list(leaves)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    return tuple(swapped)


def _exchange_block(model: AnyonModel, prefix: int, a: int, b: int,
                    upper: int) -> dict[int, tuple[tuple[int, complex], ...]]:
    """The exchange of a and b under ``prefix`` inside ``upper``, memoized
    per symbol table (``model.symbols.exchanges``).

    Maps each incoming (prefix a) channel e to its nonzero
    ``(e', amp)`` pairs, e' ascending, with
    ``amp = sum_g F[e, g] * R(a, b, g) * F'[e', g]``: F the F-move
    (prefix, a, b, upper) into the pair channel g, F' the one with a and b
    exchanged.  Each amp is summed from 0.0j in ascending g.
    """
    key = (prefix, a, b, upper)
    cache = model.symbols.exchanges
    block = cache.get(key)
    if block is None:
        fwd = model.f_symbol(prefix, a, b, upper)
        back = model.f_symbol(prefix, b, a, upper)
        phases = [model.r_symbol(a, b, g) for g in fwd.cols]
        block = {}
        for e, row in zip(fwd.rows, fwd.matrix):
            weights = [coeff * phase for coeff, phase in zip(row, phases)]
            entries = []
            for e_new, coeffs in zip(back.rows, back.matrix):
                amp = 0.0j
                for weight, coeff in zip(weights, coeffs):
                    amp += weight * coeff
                if amp != 0.0j:
                    entries.append((e_new, amp))
            block[e] = tuple(entries)
        cache[key] = block
    return block


def braid_generator(model: AnyonModel, basis: FusionBasis, position: int) -> np.ndarray:
    """Counterclockwise exchange of strands ``position`` and ``position``+1.

    Returns the unitary whose columns are indexed by ``basis`` and whose rows
    are indexed by ``enumerate_basis`` over the swapped leaf ordering.  Built
    by an F-move into the definite pair channel, the R phase, and the F-move
    back with the leaves exchanged.  A column's tree enters that exchange
    only through its charges around the pair: the charge before it
    (prefix), after its first strand (e) and after both (upper).  The
    level's exchange block at (prefix, a, b, upper) is built once per
    symbol table; a column copies the block's entries for its e into the
    rows of the trees that differ from it in e alone.  The matrix is
    read-only and built on every call (``_letter`` memoizes letters).
    """
    if not 1 <= position < len(basis.leaves):
        raise ValueError(f"position {position} outside 1..{len(basis.leaves) - 1}")
    i = position - 1
    a, b = basis.leaves[i], basis.leaves[i + 1]
    target = enumerate_basis(model, swap_leaves(basis.leaves, position), basis.total)
    rows = target._positions
    matrix = np.zeros((target.dim, basis.dim), dtype=np.complex128)
    for col, path in enumerate(basis.trees):
        prefix = path[i - 1] if i >= 1 else 0
        head, tail = path[:i], path[i + 1:]
        block = _exchange_block(model, prefix, a, b, tail[0])
        for e_new, amp in block[path[i]]:
            matrix[rows[head + (e_new,) + tail], col] = amp
    matrix.setflags(write=False)
    return matrix


def inverse_braid_generator(model: AnyonModel, basis: FusionBasis, position: int) -> np.ndarray:
    """Clockwise exchange: the adjoint of the generator taken from the
    swapped ordering back to this one (read-only, from ``_letter``)."""
    return _letter(model, basis.leaves, basis.total, _singletons(len(basis.leaves)),
                   position, -1)[0]


@dataclass(frozen=True)
class Grouping:
    """Partition of strand positions 1..n into contiguous ordered blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        flat = [p for block in self.blocks for p in block]
        if flat != list(range(1, len(flat) + 1)):
            raise ValueError(f"blocks must tile positions 1..n in order, got {self.blocks}")
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))

    @classmethod
    def of_sizes(cls, *sizes: int) -> "Grouping":
        blocks, start = [], 1
        for size in sizes:
            blocks.append(tuple(range(start, start + size)))
            start += size
        return cls(tuple(blocks))

    @property
    def strand_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    def block_charges(self, leaves: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Leaf charges per block."""
        return tuple(tuple(leaves[p - 1] for p in block) for block in self.blocks)


def _require_cover(grouping: Grouping, basis: FusionBasis) -> None:
    """Refuse a grouping whose blocks do not tile the basis's strands."""
    if grouping.strand_count != len(basis.leaves):
        raise ValueError(
            f"grouping covers {grouping.strand_count} strands, basis has {len(basis.leaves)}"
        )


@dataclass(frozen=True)
class GroupedLabel:
    """Label of one regrouped basis vector.

    ``block_charges[j]`` is the total charge of block j, ``coarse`` the
    coarse tree's path (``coarse[j]`` the running charge of blocks 0..j),
    and ``block_internals[j]`` the path of block j's internal tree (one
    running charge per leaf of the block).
    """

    block_charges: tuple[int, ...]
    coarse: tuple[int, ...]
    block_internals: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GroupedBasis:
    """Ordered regrouped basis, a grid per sector; ``regroup`` builds it.

    Labels come sector by sector, block charges ascending.  Within a
    sector they run coarse tree major (the coarse basis's order), then
    over the product of the blocks' internal trees (each block's basis
    order), so a sector's run reshapes to (coarse trees, internal trees).
    """

    labels: tuple[GroupedLabel, ...]

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def sectors(self) -> Mapping[tuple[int, ...], tuple[int, ...]]:
        """Map block-charge assignment -> indices of its basis vectors
        (one contiguous run each); built once per frame, read-only."""
        out: dict[tuple[int, ...], list[int]] = {}
        for i, label in enumerate(self.labels):
            out.setdefault(label.block_charges, []).append(i)
        return MappingProxyType({key: tuple(val) for key, val in out.items()})


def _absorb(model: AnyonModel, prefix: int, block_leaves: tuple[int, ...],
            internals: tuple[int, ...], result: int) -> dict[tuple[int, ...], complex]:
    """Expand |(prefix x block-tree)^result> over comb segments.

    Returns {segment: coefficient} where segment[j] is the charge of
    prefix + block_leaves[:j+1]; segment[-1] == result always.
    """
    if len(block_leaves) == 1:
        return {(result,): 1.0 + 0.0j}
    inner_charge = internals[-2]
    last = block_leaves[-1]
    block = model.f_symbol(prefix, inner_charge, last, result)
    out: dict[tuple[int, ...], complex] = {}
    g_idx = block.cols.index(internals[-1])
    for p_idx, p in enumerate(block.rows):
        coeff = block.matrix[p_idx, g_idx]
        if coeff == 0.0:
            continue
        for segment, sub in _absorb(model, prefix, block_leaves[:-1], internals[:-1],
                                    p).items():
            out[segment + (result,)] = out.get(segment + (result,), 0.0j) + coeff * sub
    return out


def regroup(model: AnyonModel, basis: FusionBasis, grouping: Grouping
            ) -> tuple[GroupedBasis, np.ndarray]:
    """Unitary change of basis from fine comb trees to block-adapted trees.

    Returns ``(grouped, U)`` with ``U[g, f] = <grouped_g | fine_f>``; U is
    unitary (read-only), and for the all-singletons grouping it is the
    identity.  Labels are emitted in ``GroupedBasis`` order: sector by
    sector, block charges ascending, then each coarse tree times the
    product of the blocks' trees.  Each frame is built once per symbol
    table.
    """
    _require_cover(grouping, basis)
    key = (basis.leaves, basis.total, grouping.blocks)
    cache = model.symbols.frames
    hit = cache.get(key)
    if hit is not None:
        return hit
    block_leaf_charges = grouping.block_charges(basis.leaves)
    per_block = [[(c, trees) for c in range(model.k + 1)
                  if (trees := enumerate_basis(model, leaves, c).trees)]
                 for leaves in block_leaf_charges]
    labels: list[GroupedLabel] = []
    for sector in product(*per_block):
        charges = tuple(c for c, _ in sector)
        for coarse in enumerate_basis(model, charges, basis.total).trees:
            for choice in product(*(trees for _, trees in sector)):
                labels.append(GroupedLabel(charges, coarse, choice))
    grouped = GroupedBasis(tuple(labels))

    matrix = np.zeros((len(labels), basis.dim), dtype=np.complex128)
    for row, label in enumerate(labels):
        expansions = []
        for j, block_charges in enumerate(block_leaf_charges):
            prefix = label.coarse[j - 1] if j else 0
            expansions.append(
                _absorb(model, prefix, block_charges, label.block_internals[j],
                        label.coarse[j])
            )
        for combo in product(*[e.items() for e in expansions]):
            internals = tuple(c for segment, _ in combo for c in segment)
            col = basis._positions.get(internals)
            if col is None:
                continue
            amp = 1.0 + 0.0j
            for _, coeff in combo:
                amp *= coeff
            matrix[row, col] += np.conj(amp)
    matrix.setflags(write=False)
    cache[key] = grouped, matrix
    return grouped, matrix


def composite_braid_generator(model: AnyonModel, basis: FusionBasis,
                              grouping: Grouping, position: int) -> np.ndarray:
    """Exchange of whole blocks ``position`` and ``position``+1.

    The product of elementary strand exchanges (each a ``_letter``) that
    carries every strand of the left block past every strand of the right
    block, preserving the order inside each block.  Columns are indexed by
    ``basis``, rows by the basis over the block-swapped leaf ordering.  The
    result is read-only: for two single-strand blocks it is the level's
    elementary generator itself.
    """
    if not 1 <= position < len(grouping.blocks):
        raise ValueError(f"position {position} outside 1..{len(grouping.blocks) - 1}")
    _require_cover(grouping, basis)
    left = grouping.blocks[position - 1]
    right = grouping.blocks[position]
    start = left[0]
    if len(left) == len(right) == 1:
        return braid_generator(model, basis, start)
    singletons = _singletons(len(basis.leaves))
    matrix = np.eye(basis.dim, dtype=np.complex128)
    leaves = basis.leaves
    # rightmost strand of the left block crosses first
    for j in range(len(left) - 1, -1, -1):
        for t in range(len(right)):
            step, leaves, _ = _letter(model, leaves, basis.total, singletons, start + j + t, 1)
            matrix = step @ matrix
    matrix.setflags(write=False)
    return matrix


def swap_blocks(leaves: tuple[int, ...], grouping: Grouping,
                position: int) -> tuple[tuple[int, ...], Grouping]:
    """Leaves and grouping after exchanging blocks at 1-based ``position``:
    the two blocks' leaf runs trade places and their sizes swap (the
    grouping is ``grouping`` itself when the sizes are equal)."""
    blocks = swap_leaves(grouping.block_charges(leaves), position)
    swapped = tuple(c for block in blocks for c in block)
    sizes = tuple(len(b) for b in grouping.blocks)
    if sizes[position - 1] == sizes[position]:
        return swapped, grouping
    return swapped, Grouping.of_sizes(*swap_leaves(sizes, position))


@cache
def _singletons(strand_count: int) -> Grouping:
    """The grouping with every strand a block of its own."""
    return Grouping.of_sizes(*([1] * strand_count))


def _letter(model: AnyonModel, leaves: tuple[int, ...], total: int, grouping: Grouping,
            position: int, exponent: int) -> tuple:
    """The exchange of blocks ``position`` and ``position``+1 of
    ``grouping`` over ``leaves`` and ``total`` (exponent 1 counterclockwise,
    -1 clockwise): its read-only matrix, and the leaves and grouping it
    ends on.  The only builder of letters, each once per symbol table
    (``model.symbols.steps``); -1 is the adjoint of the +1 letter from the
    swapped arrangement.  ``grouping`` must cover ``leaves``."""
    key = (leaves, total, grouping.blocks, position, exponent)
    steps = model.symbols.steps
    step = steps.get(key)
    if step is None:
        new_leaves, new_grouping = swap_blocks(leaves, grouping, position)
        if exponent == 1:
            matrix = composite_braid_generator(
                model, enumerate_basis(model, leaves, total), grouping, position)
        else:
            forward = _letter(model, new_leaves, total, new_grouping, position, 1)[0]
            matrix = forward.conj().T
            matrix.setflags(write=False)
        step = steps[key] = (matrix, new_leaves, new_grouping)
    return step
