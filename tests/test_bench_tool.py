"""The summary of the paired benchmark tool (``tools/bench.py``)."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def test_summary_of_fixed_pairs():
    pairs = [(1.0, 0.9), (2.0, 2.0), (3.0, 3.5), (4.0, 3.0), (5.0, 4.0)]
    lower = bench.summarize(pairs, "lower")
    assert lower["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert lower["head"] == {"median": 3.0, "q1": 2.0, "q3": 3.5}
    assert (lower["pairs"], lower["head_won"]) == (5, 3)
    # The tie counts for neither side.
    assert bench.summarize(pairs, "higher")["head_won"] == 1
    with pytest.raises(ValueError):
        bench.summarize(pairs[:1], "lower")
