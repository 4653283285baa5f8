"""Seeded inputs for the ``replay`` workload.

The inputs come from a fixed pool.  Each level k in ``LEVELS`` has
``SLOTS`` slots, and each slot has ``VARIANTS`` sets of random weave words,
one word per block system (P, B1, B3, E).  The pool words are drawn from
fixed pool seeds, and ``reference.json`` pins every pool set's scores and
gate reports as the library gave them when this benchmark was added.  The
workload seed only picks one variant per slot.  So every seed asks for the
same amount of work, and every output of every seed has a pinned value.
Word lengths are a fixed spread over 20..60.

Each word is freely reduced, keeps the mobile block inside the target's
span, and ends on ``target.final_arrangement``.  The same seed produces
byte-identical files.

Run as a module, it scores the picked words and writes them as braid files,
then prints one JSON line describing the sets:

    python3 -m perfbench.replay_inputs --seed 1 --out DIR

The replay pass runs it in an interpreter of its own.  The library's
generator and basis caches are module-global, so this keeps the timed
commands on cold caches, as each CLI invocation is; the library only ever
sees the written files.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import anyonforge as af

SYSTEMS = ("P", "B1", "B3", "E")
LEVELS = (3, 5, 8)
SLOTS = 3
VARIANTS = 4
MIN_LENGTH, MAX_LENGTH = 20, 60


def weave_word(rng: random.Random, mobile: int, span: tuple[int, int],
               final_position: int, length: int) -> tuple:
    """A freely reduced weave of ``length`` letters.

    The mobile block starts at position ``mobile`` and ends at
    ``final_position``; every letter exchanges it with a neighbour inside
    ``span``.  ``length`` must have the parity of the distance travelled.
    """
    lo, hi = span
    if (length - abs(final_position - mobile)) % 2:
        raise ValueError("length has the wrong parity for this weave")
    pos, letters = mobile, []
    for step in range(length):
        remaining = length - step - 1
        options = []
        for p in ((pos - 1,) if pos > lo else ()) + ((pos,) if pos < hi else ()):
            new_pos = p if p == pos - 1 else p + 1
            if abs(new_pos - final_position) > remaining:
                continue
            for e in (1, -1):
                if letters and letters[-1] == (p, -e):
                    continue
                options.append(((p, e), new_pos))
        letter, pos = rng.choice(options)
        letters.append(letter)
    return tuple(letters)


def word_length(index: int, count: int, parity: int) -> int:
    """Length of the ``index``-th of ``count`` words: spread evenly over
    [MIN_LENGTH, MAX_LENGTH] and nudged to ``parity``."""
    length = MIN_LENGTH + round((MAX_LENGTH - MIN_LENGTH) * index / (count - 1))
    if length % 2 != parity:
        length += 1 if length < MAX_LENGTH else -1
    return length


def pool_key(k: int, slot: int, variant: int) -> str:
    """Name of a pool set in ``reference.json``."""
    return f"k{k}/slot{slot}/v{variant}"


def pick_variants(seed: int) -> list[tuple[int, int, int]]:
    """The ``(k, slot, variant)`` pool sets a seed replays, in order."""
    rng = random.Random(f"replay:{seed}")
    return [(k, slot, rng.randrange(VARIANTS))
            for k in LEVELS for slot in range(SLOTS)]


def pool_words(k: int, targets: dict, slot: int, variant: int) -> dict:
    """The words of one pool set, by block system."""
    words = {}
    for n, name in enumerate(SYSTEMS):
        target = targets[name]
        final_position = target.final_arrangement.index(target.mobile - 1) + 1
        rng = random.Random(f"replay-pool:{k}:{slot}:{variant}:{name}")
        length = word_length(slot * len(SYSTEMS) + n, SLOTS * len(SYSTEMS),
                             abs(final_position - target.mobile) % 2)
        words[name] = weave_word(rng, target.mobile, target.span,
                                 final_position, length)
    return words


def write_set(model, targets: dict, slot: int, variant: int,
              directory: Path) -> dict:
    """Score one pool set and write its braid files; return its entry:
    the pool key, the level, and each system's file."""
    directory.mkdir(parents=True, exist_ok=True)
    entry = {"key": pool_key(model.k, slot, variant), "k": model.k, "files": {}}
    for name, letters in pool_words(model.k, targets, slot, variant).items():
        target = targets[name]
        result = af.score_braid(model, target,
                                af.BraidWord(target.block_count, letters))
        path = directory / f"{name}.json"
        af.write_braid_file(path, result)
        entry["files"][name] = str(path)
    return entry


def level_targets(k: int) -> tuple:
    model = af.AnyonModel(k)
    return model, {name: getattr(af, f"make_target_{name}")(model)
                   for name in SYSTEMS}


def write_inputs(seed: int, out_dir: Path) -> list[dict]:
    """Score and write the braid files of every set the seed picks."""
    sets, levels = [], {}
    for k, slot, variant in pick_variants(seed):
        if k not in levels:
            levels[k] = level_targets(k)
        model, targets = levels[k]
        sets.append(write_set(model, targets, slot, variant,
                              Path(out_dir) / f"k{k}" / f"slot{slot}"))
    return sets


def main() -> None:
    parser = argparse.ArgumentParser(description="write the replay inputs")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    print(json.dumps(write_inputs(args.seed, args.out)))


if __name__ == "__main__":
    main()
