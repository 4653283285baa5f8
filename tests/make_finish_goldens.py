"""Write ``tests/data/finish_goldens.json``: pinned outcomes of ``score_braid``.

Each case scores one fixed weave word against one target and records the
``repr`` of its distance and leakage and whether it converged.  The words are the best
words of a length-10 search (length 12 for NOT), written out so the pins
do not depend on the search.  ``test_finish_goldens`` in
``test_search_core.py`` re-scores every case and compares.

Run from the repository root::

    PYTHONPATH=src python tests/make_finish_goldens.py

The file is a frozen reference: regenerate it only for a deliberate change
of scoring results, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from anyonforge import AnyonModel, BraidWord, make_target_unitary, score_braid
from anyonforge.synth import BUILTIN_TARGETS

GOLDENS = Path(__file__).parent / "data" / "finish_goldens.json"

NOT = [[0, 1], [1, 0]]

# (k, target, letters)
CASES = [
    (3, "P", "1+ 2- 2- 1- 1- 2+ 2+ 1+"),
    (3, "B1", "1+ 2+ 2+ 1+ 1+ 2- 2- 1+ 1+ 1+"),
    (3, "B3", "1+ 2- 2- 1+ 1+ 2+ 2+ 1-"),
    (3, "E", "2+ 3- 3- 2+ 2+ 3- 3- 2- 2-"),
    (5, "P", "1- 2+ 2+ 2+ 2+ 1+ 1+ 2+ 2+ 1-"),
    (5, "B1", "1+ 2+ 2+ 2+ 2+ 2+ 2+ 1- 1- 1-"),
    (5, "B3", "1+ 1+ 1+ 2+ 2+ 1- 1- 1- 1- 1-"),
    (5, "E", "2+ 3- 3- 2+ 2+ 3- 3- 2- 2-"),
    (8, "P", "1+ 2+ 2+ 2+ 2+ 2+ 2+ 2+ 2+ 1-"),
    (8, "B1", "1- 1- 1- 2+ 2+ 2+ 2+ 1- 1- 1-"),
    (8, "B3", "1+ 2+ 2+ 1- 1- 2+ 2+ 2+ 2+ 1-"),
    (8, "E", "2+ 2+ 2+ 2+ 2+"),
    (3, "NOT", "1- 2+ 2+ 1+ 1+ 2- 2- 1+ 1+ 2+ 2+ 1-"),
]


def case_id(case) -> str:
    k, name, _ = case
    return f"k{k}-{name}"


def run_case(case):
    """The ``score_braid`` result of one case."""
    k, name, letters = case
    model = AnyonModel(k)
    if name in BUILTIN_TARGETS:
        target = BUILTIN_TARGETS[name](model)
    else:
        target = make_target_unitary(model, np.array(NOT, dtype=complex), name=name)
    word = BraidWord(target.block_count,
                     tuple((int(t[:-1]), 1 if t[-1] == "+" else -1)
                           for t in letters.split()))
    return score_braid(model, target, word)


def record(result) -> dict:
    return {
        "distance": repr(result.distance),
        "leakage": repr(result.leakage),
        "converged": result.converged,
    }


def main() -> None:
    out = {case_id(case): {"case": list(case), **record(run_case(case))}
           for case in CASES}
    GOLDENS.parent.mkdir(exist_ok=True)
    lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in out.items()]
    GOLDENS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
