"""Write ``tests/data/search_goldens.json``: pinned outcomes of ``search``.

Each case runs one weave search and records the best word's letters, the
``repr`` of its distance and the first four fields of every curve row
(length, best distance, nodes explored, frontier).  ``test_search_goldens``
in ``test_search_core.py`` re-runs every case and compares.

Run from the repository root::

    PYTHONPATH=src python tests/make_search_goldens.py

The file is a frozen reference: regenerate it only for a deliberate change
of search results, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from anyonforge import AnyonModel, make_target_unitary, search
from anyonforge.synth import BUILTIN_TARGETS

GOLDENS = Path(__file__).parent / "data" / "search_goldens.json"

MATRICES = {
    "NOT": [[0, 1], [1, 0]],
    "H": [[2 ** -0.5, 2 ** -0.5], [2 ** -0.5, -(2 ** -0.5)]],
}

# (k, target, max_length, workers)
CASES = [
    (2, "P", 12, 1),
    (2, "B3", 10, 1),
    (2, "E", 10, 1),
    (2, "NOT", 12, 1),
    (2, "H", 8, 1),
    (3, "P", 12, 1),
    (3, "P", 10, 3),
    (3, "B1", 12, 1),
    (3, "B3", 12, 1),
    (3, "E", 12, 1),
    (3, "NOT", 12, 1),
    (3, "NOT", 3, 2),
    (3, "H", 10, 1),
    (4, "P", 10, 1),
    (4, "B1", 10, 1),
    (4, "E", 10, 1),
    (4, "NOT", 10, 1),
    (5, "P", 12, 1),
    (5, "B1", 10, 1),
    (5, "B3", 10, 1),
    (5, "E", 10, 1),
    (5, "NOT", 11, 2),
    (5, "H", 10, 1),
    (6, "P", 10, 1),
    (6, "B1", 12, 1),
    (6, "E", 10, 1),
    (6, "NOT", 10, 1),
    (7, "P", 10, 1),
    (7, "B3", 10, 1),
    (7, "E", 12, 1),
    (7, "NOT", 8, 1),
    (7, "H", 10, 1),
]


def case_id(case) -> str:
    k, name, length, workers = case
    return f"k{k}-{name}-L{length}-w{workers}"


def run_case(case):
    """The search result of one case."""
    k, name, length, workers = case
    model = AnyonModel(k)
    if name in BUILTIN_TARGETS:
        target = BUILTIN_TARGETS[name](model)
    else:
        target = make_target_unitary(model, np.array(MATRICES[name], dtype=complex),
                                     name=name)
    return search(model, target, length, workers=workers)


def record(result) -> dict:
    return {
        "letters": [list(letter) for letter in result.braid.letters],
        "distance": repr(result.distance),
        "rows": [list(row[:4]) for row in result.stats.rows],
    }


def main() -> None:
    out = {case_id(case): {"case": list(case), **record(run_case(case))}
           for case in CASES}
    GOLDENS.parent.mkdir(exist_ok=True)
    lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in out.items()]
    GOLDENS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
