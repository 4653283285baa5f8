"""Canonical serialization: stable bytes, full float precision, round trips."""

import json
from dataclasses import replace

import numpy as np
import pytest

from anyonforge import (
    AnyonModel,
    SearchStats,
    canonical_dumps,
    curve_csv,
    make_target_B1,
    make_target_unitary,
    read_braid_file,
    result_from_payload,
    score_braid,
    search,
    write_braid_file,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


# --- canonical JSON ------------------------------------------------------

def test_canonical_dumps_is_deterministic():
    payload = {"b": [1, 2, 3], "a": {"x": 0.5, "y": True, "z": None}}
    assert canonical_dumps(payload) == canonical_dumps(payload)
    assert canonical_dumps(payload).endswith("\n")
    # insertion order is preserved, not sorted: the writer controls layout
    assert canonical_dumps({"b": 1, "a": 2}) != canonical_dumps({"a": 2, "b": 1})


def test_canonical_dumps_float_precision():
    text = canonical_dumps({"x": 0.1})
    assert "0.10000000000000001" in text
    # every emitted float parses back to the identical double
    assert json.loads(text)["x"] == 0.1
    assert "1.0" in canonical_dumps({"x": 1.0})  # floats keep a decimal point
    value = 0.2753609053034861
    assert json.loads(canonical_dumps({"d": value}))["d"] == value


def test_canonical_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("inf")})


def test_canonical_dumps_rejects_non_string_keys():
    with pytest.raises(TypeError):
        canonical_dumps({1: "a"})


def test_canonical_dumps_complex_and_arrays():
    text = canonical_dumps({"z": 1 + 2j, "m": np.array([[1.0, 0.0], [0.0, 1.0]])})
    data = json.loads(text)
    assert data["z"] == [1.0, 2.0]
    assert data["m"] == [[1.0, 0.0], [0.0, 1.0]]


def test_canonical_dumps_is_valid_json():
    payload = {"word": [[1, 1], [2, -1]], "leaves": [1, 1, 1, 1],
               "nested": {"deep": [0.25, [1, 2]]}}
    assert json.loads(canonical_dumps(payload)) == payload


def test_canonical_dumps_flat_list_layout():
    """Lists and tuples of numbers only (plain ints, bools, numpy scalars,
    floats, complex numbers; the empty one too) share one layout; an
    ndarray is written as its nested lists."""
    payload = {"ints": [3, -1, 0], "bools": [1, True], "mixed": [np.int64(2), 1.0],
               "word": [[1, 1], [2, -1]],
               "numbers": [0.5, np.float64(-2.0), 1j, np.complex128(1 - 0.25j)],
               "empty": [], "pair": (1, 2.5),
               "nested": {"m": np.array([[1.0, 0.0], [0.5, -1.0]])}}
    assert canonical_dumps(payload) == (
        '{\n  "ints": [3, -1, 0],\n  "bools": [1, true],\n  "mixed": [2, 1.0],\n'
        '  "word": [\n    [1, 1],\n    [2, -1]\n  ],\n'
        '  "numbers": [0.5, -2.0, [0.0, 1.0], [1.0, -0.25]],\n'
        '  "empty": [],\n  "pair": [1, 2.5],\n'
        '  "nested": {\n    "m": [\n      [1.0, 0.0],\n      [0.5, -1.0]\n    ]\n  }\n}\n')


# --- braid files ---------------------------------------------------------

def test_braid_file_round_trip(tmp_path, model3):
    target = make_target_B1(model3)
    found = search(model3, target, 8)
    path = tmp_path / "b1.json"
    write_braid_file(path, found)

    payload = read_braid_file(path)
    rebuilt_target, word = result_from_payload(model3, payload)
    assert word == found.braid
    rescored = score_braid(model3, rebuilt_target, word)
    assert abs(rescored.distance - found.distance) <= 1e-12

    # the file itself is canonical: writing the same result again is identical
    path2 = tmp_path / "again.json"
    write_braid_file(path2, found)
    assert path.read_bytes() == path2.read_bytes()


def test_braid_file_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"k": 3, "leaves": [1, 1]}')
    with pytest.raises(ValueError):
        read_braid_file(path)


def test_braid_file_unknown_target(tmp_path, model3):
    target = make_target_B1(model3)
    found = search(model3, target, 4)
    path = tmp_path / "b1.json"
    write_braid_file(path, found)
    payload = read_braid_file(path)
    payload["target"] = "Q"
    with pytest.raises(ValueError):
        result_from_payload(model3, payload)


def test_unitary_braid_file_round_trip(tmp_path, model2):
    """Matrix targets persist their sector matrix and rebuild from it."""
    target = make_target_unitary(model2, X, name="NOT")
    found = search(model2, target, 4, tolerance=1e-6)
    path = tmp_path / "not.json"
    write_braid_file(path, found)
    payload = read_braid_file(path)
    assert "target_matrix" in payload
    rebuilt, word = result_from_payload(model2, payload)
    rescored = score_braid(model2, rebuilt, word)
    assert abs(rescored.distance - found.distance) <= 1e-12


# --- search curves -------------------------------------------------------

def test_curve_csv_layout():
    # rows: (length, best, nodes, frontier, seconds)
    stats = SearchStats([(1, 0.5, 2, 2, 0.001), (2, 0.25, 8, 6, 0.002)])
    text = curve_csv(stats)
    lines = text.strip().splitlines()
    assert lines[0] == "length,best_distance,nodes_explored,seconds"
    assert lines[1].startswith("1,0.5")
    assert len(lines) == 3
    # distances survive text round trips at full precision
    best = float(lines[2].split(",")[1])
    assert best == 0.25


def test_curve_csv_writes_inf_before_the_arrangement_is_reached(model3):
    """No word of one letter ends on this arrangement, so row 1 has no best
    distance yet; it is written as inf and every row keeps four fields."""
    target = replace(make_target_B1(model3), final_arrangement=(1, 2, 0, 3))
    result = search(model3, target, 4)
    lines = curve_csv(result.stats).splitlines()
    assert lines[0] == "length,best_distance,nodes_explored,seconds"
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == 4 for row in rows)
    assert rows[0][1] == "inf" and float(rows[0][1]) == float("inf")
    assert [float(row[1]) for row in rows[1:]] == [r[1] for r in result.stats.rows[1:]]
