"""Command-line interface: exit codes, stdout formats, file artifacts."""

import contextlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import anyonforge
from anyonforge import (AnyonModel, BraidWord, braid_generator, cli, enumerate_basis,
                        evaluate, make_target_B1, score_braid, search, synth,
                        verify_braid_relations, write_braid_file)
from anyonforge.cli import main
from anyonforge.model import MAX_LEVEL, SymbolCache
from anyonforge.synth import BUILTIN_TARGETS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- model ----------------------------------------------------------------

def test_model_fusion_table(capsys):
    code, out, _ = run(capsys, "model", "--k", "3")
    assert code == 0
    assert "1 x 1 = 0 + 1" in out  # spin labels, not doubled charges


def test_model_json(capsys):
    code, out, _ = run(capsys, "model", "--k", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["charges"]) == 4
    assert data["k"] == 3


def test_model_rejects_bad_level(capsys):
    assert run(capsys, "model", "--k", "1")[0] == 1
    assert run(capsys, "model")[0] == 1


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0


@pytest.mark.parametrize("command", ["model", "check", "basis", "synth",
                                     "assemble", "verify"])
def test_every_command_prints_its_help(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0 and out.startswith(f"usage: anyonforge {command}")


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_one_parser_serves_every_call(capsys):
    """The parser is built once per process; each call still gets its own
    defaults, exit code and output streams."""
    code, out, err = run(capsys, "basis", "--k", "3", "--leaves", "1/2,1/2",
                         "--total", "1", "--format", "json")
    assert (code, json.loads(out)["total"], err) == (0, 2, "")
    code, out, err = run(capsys, "basis", "--k", "3", "--bogus")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --bogus" in err
    code, out, err = run(capsys, "basis", "--k", "3", "--leaves", "1/2,1/2",
                         "--format", "json")
    assert (code, json.loads(out)["total"], err) == (0, 0, "")
    code, out, err = run(capsys, "model", "--k", "3", "--format", "json")
    assert (code, json.loads(out)["k"], err) == (0, 3, "")
    code, out, _ = run(capsys, "synth", "--help")
    assert code == 0 and "--max-length" in out
    assert cli._build_parser() is cli._build_parser()


# --- check ------------------------------------------------------------------

def test_check_clean(capsys):
    code, out, _ = run(capsys, "check", "--k", "2")
    assert code == 0
    assert "pass" in out.lower()


def test_check_detects_corruption(capsys):
    code, _, _ = run(capsys, "check", "--k", "2", "--debug-corrupt")
    assert code == 2


# The exact residuals ``check`` reports: pentagon, hexagon, braid relations.
_CHECK_RESIDUALS = {
    ("--k", "2"): (6.661338147750939e-16, 5.551115123125783e-16, 5.551115123125784e-16),
    ("--k", "3"): (9.992007221626409e-16, 4.965068306494546e-16, 1.7778093677574228e-15),
    ("--k", "4"): (8.881784197001252e-16, 8.005932084973443e-16, 1.5572965943949588e-15),
    ("--k", "5"): (1.3322676295501878e-15, 1.1778964011900897e-15, 1.4655364458042816e-15),
    ("--k", "6"): (1.887379141862766e-15, 1.2658490090568385e-15, 2.1986610499509687e-15),
    ("--k", "7"): (1.9984014443252818e-15, 1.807312143953211e-15, 2.0368755414638747e-15),
    ("--k", "8"): (1.9984014443252818e-15, 2.4781859104316644e-15, 2.2915357555953874e-15),
    ("--k", "10"): (3.552713678800501e-15, 4.930985021797528e-15, 1.1361156005631323e-15),
    ("--k", "3", "--debug-corrupt"): (0.012260679774998173, 0.013211703156057523,
                                      0.029105543690265148),
    ("--k", "5", "--debug-corrupt"): (0.010999162641747606, 0.01642962134972066,
                                      0.032411780381188394),
}

# The braid-relation residual of the sixteen four-strand systems at levels
# whose pentagon is too slow for this suite, and on the damaged k=5 table
# (F(1, 1, 1, 1) damaged as by ``--debug-corrupt``).
_BRAID_RESIDUALS = {
    (8, False): 2.2915357555953874e-15,
    (10, False): 1.1361156005631323e-15,
    (12, False): 1.8420756424069343e-15,
    (16, False): 2.0471501066083613e-15,
    (5, True): 0.032411780381188394,
}


@pytest.mark.parametrize("argv", sorted(_CHECK_RESIDUALS))
def test_check_payload_is_pinned(capsys, argv):
    code, out, _ = run(capsys, "check", *argv, "--format", "json")
    corrupt = "--debug-corrupt" in argv
    assert code == (2 if corrupt else 0)
    pentagon, hexagon, braid = _CHECK_RESIDUALS[argv]
    expected = {"k": int(argv[1]), "pentagon_residual": pentagon,
                "hexagon_residual": hexagon, "braid_relation_residual": braid,
                "tolerance": 1e-9, "passed": not corrupt}
    payload = json.loads(out)
    assert payload == expected
    assert [repr(payload[name]) for name in expected] == \
        [repr(value) for value in expected.values()]


@pytest.mark.parametrize("k, corrupt", sorted(_BRAID_RESIDUALS))
def test_braid_residual_is_pinned_on_both_f_routes(k, corrupt):
    """The pinned residual, with every F block built by the scalar route
    and with every one read from the level's flat table, as ``check``
    reads them after its pentagon."""
    residuals = []
    for table in (False, True):
        model = AnyonModel(k)
        model.symbols = SymbolCache(k)
        if corrupt:
            model.corrupt_f_symbol(1, 1, 1, 1)
        if table:
            model.precompute()
        residuals.append(repr(verify_braid_relations(
            model, *itertools.product((1, 2), repeat=4))))
        assert (model.symbols.f_table is not None) == table
    assert residuals == [repr(_BRAID_RESIDUALS[k, corrupt])] * 2


def _three_and_four_strand_residual(model):
    """The braid-relation residual over the eight three-strand and sixteen
    four-strand systems, as ``check`` once computed it: the oracle of the
    four-strand suite."""
    return max(verify_braid_relations(model, system)
               for size in (3, 4) for system in itertools.product((1, 2), repeat=size))


@pytest.mark.parametrize("argv", [("--k", str(k)) for k in range(2, 9)]
                         + [("--k", "3", "--debug-corrupt")])
def test_four_strand_suite_equals_the_24_system_residual(capsys, argv):
    code, out, _ = run(capsys, "check", *argv, "--format", "json")
    model = AnyonModel(int(argv[1]))
    if "--debug-corrupt" in argv:
        model.corrupt_f_symbol(1, 1, 1, 1)
    assert repr(json.loads(out)["braid_relation_residual"]) == \
        repr(_three_and_four_strand_residual(model))


def test_four_strand_suite_is_within_rounding_of_the_24_system_one_at_every_level():
    """Above k = 8 the two residuals may part by rounding: measured, the
    four-strand one is 3.9e-31 lower at k = 21, 51 and 71 and bit-equal at
    every other level up to ``MAX_LEVEL``."""
    for k in range(2, MAX_LEVEL + 1):
        model = AnyonModel(k)
        four = max(verify_braid_relations(model, system)
                   for system in itertools.product((1, 2), repeat=4))
        assert 0 <= _three_and_four_strand_residual(model) - four <= 1e-15


def _yang_baxter_gap(model, basis):
    """s1 s2 s1 - s2 s1 s2 on a basis, columns ``basis``, rows the basis
    over strands 1 and 3 exchanged."""
    n = len(basis.leaves)
    left = BraidWord(n, ((1, 1), (2, 1), (1, 1)))
    right = BraidWord(n, ((2, 1), (1, 1), (2, 1)))
    return evaluate(model, basis, left) - evaluate(model, basis, right)


@pytest.mark.parametrize("k, corrupt", [(k, False) for k in range(2, 9)] + [(3, True)])
def test_three_strand_relations_are_blocks_of_the_four_strand_ones(k, corrupt):
    """At total m, the relation of (a, b, c) is the block of the i=1
    relation in (a, b, c, d) whose first three strands fuse to m, for every
    d and every total of the four strands; every nonempty (a, b, c) at
    every m is such a block."""
    model = AnyonModel(k)
    if corrupt:
        model.corrupt_f_symbol(1, 1, 1, 1)
    covered = set()
    for leaves in itertools.product((1, 2), repeat=4):
        swapped = (leaves[2], leaves[1], leaves[0], leaves[3])
        for total in model.charges:
            basis = enumerate_basis(model, leaves, total)
            if basis.dim == 0:
                continue
            out = enumerate_basis(model, swapped, total)
            gap = _yang_baxter_gap(model, basis)
            for m in sorted({path[2] for path in basis.trees}):
                small = enumerate_basis(model, leaves[:3], m)
                small_out = enumerate_basis(model, swapped[:3], m)
                cols = [basis.index(path + (total,)) for path in small.trees]
                rows = [out.index(path + (total,)) for path in small_out.trees]
                block = gap[np.ix_(rows, cols)]
                assert np.abs(block - _yang_baxter_gap(model, small)).max() <= 2e-15
                covered.add((leaves[:3], m))
    assert covered == {(leaves, m) for leaves in itertools.product((1, 2), repeat=3)
                       for m in model.charges if enumerate_basis(model, leaves, m).dim}


def test_corrupt_check_does_not_reuse_clean_generators(capsys):
    assert run(capsys, "check", "--k", "4")[0] == 0
    code, out, _ = run(capsys, "check", "--k", "4", "--debug-corrupt",
                       "--format", "json")
    assert code == 2
    report = json.loads(out)
    assert report["braid_relation_residual"] > report["tolerance"]
    # The damaged run's steps and frames stay on its private table.
    code, out, _ = run(capsys, "check", "--k", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["braid_relation_residual"] < 1e-12


def test_corrupt_model_builds_its_own_exchange_blocks(capsys):
    """``check --debug-corrupt`` damages F(1, 1, 1, 1): the exchange block
    at those charges feeds the middle exchange of three spin-1/2 strands."""
    assert run(capsys, "check", "--k", "4")[0] == 0
    clean = AnyonModel(4)
    basis = enumerate_basis(clean, (1, 1, 1), 1)
    word = BraidWord(3, ((1, 1), (2, 1), (1, 1)))
    before = evaluate(clean, basis, word).tobytes()
    block = clean.symbols.exchanges[(1, 1, 1, 1)]
    broken = AnyonModel(4)
    broken.corrupt_f_symbol(1, 1, 1, 1)
    assert broken.symbols.exchanges == {}
    damaged = braid_generator(broken, enumerate_basis(broken, (1, 1, 1), 1), 2)
    assert damaged.tobytes() != braid_generator(clean, basis, 2).tobytes()
    assert broken.symbols.exchanges[(1, 1, 1, 1)] != block
    assert clean.symbols.exchanges[(1, 1, 1, 1)] is block
    assert evaluate(clean, basis, word).tobytes() == before


# --- basis ------------------------------------------------------------------

def test_basis_dimension(capsys):
    spins = ",".join(["1/2"] * 6)
    code, out, _ = run(capsys, "basis", "--k", "3", "--leaves", spins,
                       "--total", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["dim"] == 5
    code, out, _ = run(capsys, "basis", "--k", "2", "--leaves", spins,
                       "--total", "0", "--format", "json")
    assert json.loads(out)["dim"] == 4


def test_basis_requires_leaves(capsys):
    assert run(capsys, "basis", "--k", "3")[0] == 1


# --- synth / verify -----------------------------------------------------------

def test_synth_writes_artifacts(capsys, tmp_path):
    out = tmp_path / "b1.json"
    code, _, _ = run(capsys, "synth", "--k", "3", "--target", "B1",
                     "--max-length", "4", "--out", str(out))
    assert code == 3  # terminated without reaching tolerance
    assert out.exists()
    curve = out.with_suffix(".csv")
    assert curve.exists()
    assert curve.read_text().splitlines()[0] == (
        "length,best_distance,nodes_explored,seconds")
    payload = json.loads(out.read_text())
    assert payload["target"] == "B1"
    assert payload["k"] == 3


def test_synth_csv_format_prints_curve(capsys):
    code, out, _ = run(capsys, "synth", "--k", "3", "--target", "B3",
                       "--max-length", "2", "--format", "csv")
    assert code == 3
    assert out.splitlines()[0] == "length,best_distance,nodes_explored,seconds"


def test_synth_unknown_target(capsys, tmp_path):
    code, _, _ = run(capsys, "synth", "--k", "3", "--target",
                     str(tmp_path / "missing.json"))
    assert code == 1


def test_verify_accepts_fresh_file(capsys, tmp_path):
    out = tmp_path / "p.json"
    run(capsys, "synth", "--k", "2", "--target", "P", "--max-length", "4",
        "--out", str(out))
    assert run(capsys, "verify", str(out))[0] == 0


def test_verify_rejects_tampering(capsys, tmp_path):
    out = tmp_path / "p.json"
    run(capsys, "synth", "--k", "2", "--target", "P", "--max-length", "4",
        "--out", str(out))
    payload = json.loads(out.read_text())
    payload["distance"] = payload["distance"] * 0.5
    out.write_text(json.dumps(payload))
    assert run(capsys, "verify", str(out))[0] == 2


def test_dual_route_mismatch_exits_2(capsys, tmp_path, monkeypatch):
    out = tmp_path / "p.json"
    run(capsys, "synth", "--k", "2", "--target", "P", "--max-length", "4",
        "--out", str(out))
    replay = synth._replay
    # The incremental route drops the last letter; the full-space route
    # does not, so the two disagree.
    monkeypatch.setattr(synth, "_replay",
                        lambda problem, letters: replay(problem, letters[:-1]))
    code, _, err = run(capsys, "verify", str(out))
    assert code == 2
    assert "disagree" in err


def test_verify_accepts_words_whose_scores_cancel(capsys, tmp_path, model3, b1_word):
    """The routes' sector matrices agree; their square-rooted scores need not."""
    path = tmp_path / "b1.json"
    write_braid_file(path, score_braid(model3, make_target_B1(model3), b1_word))
    assert run(capsys, "verify", str(path))[0] == 0


@pytest.mark.parametrize("stem, spec", [
    ("E", {"matrix": [[0, 1], [1, 0]]}),
    ("not", {"name": "B1", "matrix": [[0, 1], [1, 0]]}),
])
def test_unitary_target_named_like_a_builtin_round_trips(capsys, tmp_path, stem, spec):
    """A stored target matrix decides the target, whatever its name: the
    file verifies, and assembly refuses it, as no gate's component."""
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "u.json"
    code, _, _ = run(capsys, "synth", "--k", "3", "--target", str(path),
                     "--max-length", "6", "--out", str(out))
    assert code == 3
    stored = json.loads(out.read_text())
    assert stored["target"] == spec.get("name", stem)
    assert "target_matrix" in stored
    code, text, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert f"recomputed {stored['distance']!r}" in text
    code, _, err = run(capsys, "assemble", "--gate", "convert", "--direction",
                       "merge", str(out))
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_synth_deterministic_across_workers(capsys, tmp_path):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    run(capsys, "synth", "--k", "3", "--target", "B1", "--max-length", "6",
        "--workers", "1", "--out", str(one))
    run(capsys, "synth", "--k", "3", "--target", "B1", "--max-length", "6",
        "--workers", "2", "--out", str(two))
    assert one.read_bytes() == two.read_bytes()


def test_cli_loads_no_process_pool(tmp_path):
    """A fresh interpreter imports the CLI and runs a two-worker search
    without loading ``multiprocessing`` or ``concurrent.futures``."""
    script = (
        "import sys\n"
        "import anyonforge.cli\n"
        "pool = ('multiprocessing', 'concurrent.futures')\n"
        "assert not any(m in sys.modules for m in pool), 'on import'\n"
        "code = anyonforge.cli.main(['synth', '--k', '3', '--target', 'P', '--max-length', '6',\n"
        "                            '--workers', '2', '--out', sys.argv[1]])\n"
        "assert code == 3, code\n"
        "assert not any(m in sys.modules for m in pool), 'after a search'\n")
    env = dict(os.environ, PYTHONPATH=str(Path(anyonforge.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "p.json")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# --- assemble ------------------------------------------------------------------

def test_assemble_cz_roundtrip(capsys, tmp_path):
    component = tmp_path / "p.json"
    run(capsys, "synth", "--k", "3", "--target", "P", "--max-length", "8",
        "--out", str(component))
    report = tmp_path / "cz.json"
    code, out, _ = run(capsys, "assemble", "--gate", "cz", str(component),
                       "--out", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["gate"] == "cz"
    assert payload["bound_satisfied"] is True
    braid_export = tmp_path / "cz.braid.json"
    assert braid_export.exists()
    assert json.loads(braid_export.read_text())["gate"] == "cz"


def test_assemble_needs_all_components(capsys, tmp_path):
    component = tmp_path / "p.json"
    run(capsys, "synth", "--k", "3", "--target", "P", "--max-length", "4",
        "--out", str(component))
    code, _, _ = run(capsys, "assemble", "--gate", "ccz", str(component))
    assert code == 1


def test_assemble_takes_exactly_the_gates_components(capsys, tmp_path):
    """A gate takes one file per component it names, in any order; a
    missing, extra, repeated or foreign component is a usage error."""
    paths = {}
    for name in ("B1", "P", "B3", "E"):
        paths[name] = str(tmp_path / f"{name}.json")
        run(capsys, "synth", "--k", "3", "--target", name, "--max-length", "4",
            "--out", paths[name])
    gates = {"cz": ["--gate", "cz"], "ccz": ["--gate", "ccz"],
             "convert": ["--gate", "convert", "--direction", "merge"]}
    for gate, names in [("cz", "P B1"), ("cz", "P P"), ("cz", "E"),
                        ("ccz", "B1 P"), ("ccz", "B1 P P"), ("ccz", "B1 P B3 B3"),
                        ("convert", "E P")]:
        code, _, err = run(capsys, "assemble", *gates[gate],
                           *(paths[name] for name in names.split()))
        assert code == 1 and "takes one component each" in err, (gate, names)
    reports = []
    for order in ("B1 P B3", "B3 B1 P"):
        out = tmp_path / f"ccz-{order.replace(' ', '-')}.json"
        code, _, _ = run(capsys, "assemble", "--gate", "ccz",
                         *(paths[name] for name in order.split()), "--out", str(out))
        assert code in (0, 2)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_convert_needs_direction(capsys, tmp_path):
    component = tmp_path / "e.json"
    run(capsys, "synth", "--k", "3", "--target", "E", "--max-length", "4",
        "--out", str(component))
    code, _, _ = run(capsys, "assemble", "--gate", "convert", str(component))
    assert code == 1
    code, _, _ = run(capsys, "assemble", "--gate", "convert", "--direction",
                     "merge", str(component))
    assert code == 0


@pytest.mark.parametrize("name, charges, length, gate", [
    ("P", (1, 3), 8, ["--gate", "cz"]),
    ("E", (3, 1), 9, ["--gate", "convert", "--direction", "merge"]),
])
def test_assemble_refuses_components_for_other_charges(capsys, tmp_path, name,
                                                       charges, length, gate):
    """The assembled codes are spin-1/2: a k=5 component searched for other
    charges verifies, but is refused by the assembly instead of being
    evaluated on the spin-1/2 system."""
    model = AnyonModel(5)
    result = search(model, BUILTIN_TARGETS[name](model, charges), length)
    assert result.target.leaves != (1,) * len(result.target.leaves)
    path = tmp_path / f"{name}.json"
    write_braid_file(path, result)
    assert run(capsys, "verify", str(path))[0] == 0
    code, _, err = run(capsys, "assemble", *gate, str(path))
    assert code == 1
    assert "leaves" in err and "Traceback" not in err


def test_assemble_rejects_mixed_levels(capsys, tmp_path):
    p2 = tmp_path / "p2.json"
    p3 = tmp_path / "b1.json"
    run(capsys, "synth", "--k", "2", "--target", "P", "--max-length", "2",
        "--out", str(p2))
    run(capsys, "synth", "--k", "3", "--target", "B1", "--max-length", "2",
        "--out", str(p3))
    code, _, _ = run(capsys, "assemble", "--gate", "cz", str(p2), str(p3))
    assert code == 1


def test_assemble_reads_each_component_once(capsys, tmp_path, monkeypatch):
    paths = []
    for name in ("B1", "P", "B3"):
        path = tmp_path / f"{name}.json"
        run(capsys, "synth", "--k", "3", "--target", name, "--max-length", "4",
            "--out", str(path))
        paths.append(str(path))
    reads = []
    read = cli.read_braid_file
    monkeypatch.setattr(cli, "read_braid_file",
                        lambda path: reads.append(path) or read(path))
    code, _, _ = run(capsys, "assemble", "--gate", "ccz", *paths)
    assert code in (0, 2)
    assert sorted(map(str, reads)) == sorted(paths)


def test_unreadable_braid_files_exit_1(capsys, tmp_path):
    good = tmp_path / "p.json"
    run(capsys, "synth", "--k", "3", "--target", "P", "--max-length", "4",
        "--out", str(good))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    missing = tmp_path / "missing.json"
    for bad in (broken, missing):
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 1 and "cannot read braid file" in err
        code, _, err = run(capsys, "assemble", "--gate", "cz", str(good), str(bad))
        assert code == 1 and "cannot read braid file" in err


# --- malformed input files ------------------------------------------------------

_TEXT = st.text(max_size=3)
_INTS = st.lists(st.integers(), max_size=2)
_OBJECT = st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.floats(allow_nan=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6)

# Values of another JSON type than the one a field holds.  An int field
# takes no float; a float field takes an int, and no list (a number in a
# unitary matrix may also be written as an [re, im] pair).
_WRONG_TYPE = {
    int: st.floats(allow_nan=False) | st.booleans() | st.none() | _TEXT | _INTS | _OBJECT,
    float: st.booleans() | st.none() | _TEXT | _OBJECT,
    str: st.integers() | st.floats(allow_nan=False) | st.booleans() | st.none() | _INTS,
    list: st.integers() | st.floats(allow_nan=False) | st.booleans() | st.none() | _TEXT
    | _OBJECT,
    dict: st.integers() | st.none() | _TEXT | _INTS,
}


def _paths(value, path=()):
    """Every place in a JSON value, the value itself first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, inner in items:
        yield from _paths(inner, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def _malformed(draw, payload, required, allowed):
    """File text that truncates, mistypes or adds to a valid payload."""
    kind = draw(st.sampled_from(["cut", "drop", "mistype", "extra"]))
    if kind == "cut":
        text = json.dumps(payload)
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "drop":
        key = draw(st.sampled_from(required))
        return json.dumps({k: v for k, v in payload.items() if k != key})
    if kind == "mistype":
        path = draw(st.sampled_from(list(_paths(payload))))
        new = draw(_WRONG_TYPE[type(_at(payload, path))])
        return json.dumps(_replaced(payload, path, new))
    key = draw(st.text(max_size=8).filter(lambda key: key not in allowed))
    return json.dumps(dict(payload, **{key: draw(_JSON)}))


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A stored P braid, a stored NOT braid (it carries a target matrix) and
    a unitary target file, as payloads; and a working directory."""
    work = tmp_path_factory.mktemp("fuzz")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        main(["synth", "--k", "3", "--target", "P", "--max-length", "2",
              "--out", str(work / "p.json")])
        (work / "not.json").write_text(json.dumps(
            {"name": "NOT", "matrix": [[0.0, 1.0], [1.0, 0.0]]}))
        main(["synth", "--k", "3", "--target", str(work / "not.json"),
              "--max-length", "2", "--out", str(work / "notb.json")])
    return {name: json.loads((work / f"{name}.json").read_text())
            for name in ("p", "notb", "not")}, work


def _exit_code(*argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(list(argv))
    assert "Traceback" not in sink.getvalue()
    return code


_BRAID_KEYS = ["k", "leaves", "grouping", "word", "target", "distance"]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_braid_files_exit_1(valid_inputs, data):
    payloads, work = valid_inputs
    payload = payloads[data.draw(st.sampled_from(["p", "notb"]))]
    path = work / "bad.json"
    path.write_text(data.draw(_malformed(
        payload, _BRAID_KEYS, _BRAID_KEYS + ["target_matrix"])))
    assert _exit_code("verify", str(path)) == 1
    assert _exit_code("assemble", "--gate", "cz", str(path)) == 1


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_unitary_target_files_exit_1(valid_inputs, data):
    payloads, work = valid_inputs
    path = work / "bad-target.json"
    path.write_text(data.draw(_malformed(payloads["not"], ["matrix"], ["matrix", "name"])))
    assert _exit_code("synth", "--k", "3", "--target", str(path),
                      "--max-length", "2") == 1


# --- the flag surface -------------------------------------------------------------

@pytest.mark.parametrize("argv, code", [
    # Each command takes only the flags it reads.
    ("model --k 3 --tol 1e-6", 1),
    ("basis --k 3 --leaves 1/2,1/2 --format csv", 1),
    ("verify --k 3 {p}", 1),
    ("assemble --k 3 --gate cz {p}", 1),
    ("verify {p}", 0),
    ("assemble --gate cz {p}", 0),
    # The level comes from --k, or from the braid files, and is bounded.
    ("check", 1),
    ("basis --leaves 1/2,1/2", 1),
    ("synth --target P", 1),
    ("model --k 72", 0),
    ("model --k 73", 1),
    ("model --k 1000000000", 1),
    ("verify {huge}", 1),
    ("assemble --gate cz {huge}", 1),
    # --direction goes with --gate convert, and only with it.
    ("assemble --gate cz --direction split {p}", 1),
    # Tolerances are finite and positive.
    ("check --k 2 --tol 1e-6", 0),
    ("check --k 2 --tol nan", 1),
    ("check --k 2 --tol -1", 1),
    ("check --k 2 --tol inf", 1),
    ("synth --k 3 --target P --tol nan", 1),
    ("synth --k 3 --target P --tol 0", 1),
    ("synth --k 3 --target P --phase-tol nan", 1),
    # The search has one tolerance and walks weaves only.
    ("synth --k 3 --target P --phase-tol 1e-9", 1),
    ("synth --k 3 --target P --weave-only", 1),
    ("synth --k 3 --target P --no-weave-only", 1),
    # --out must take the JSON artifact, and not where the curve CSV goes.
    ("check --k 2 --out {out}/missing/check.json", 1),
    ("synth --k 3 --target P --out {out}/missing/p.json", 1),
    ("synth --k 3 --target P --out {out}/p.csv", 1),
    # --out names a file, not a directory, inside a directory.
    ("model --k 3 --out {out}", 1),
    ("model --k 3 --out ''", 1),
    ("synth --k 3 --target P --out {out}", 1),
    ("synth --k 3 --target P --out {p}/x.json", 1),
])
def test_flag_surface(valid_inputs, tmp_path, monkeypatch, argv, code):
    """Every argv is settled before any search and writes no file."""
    payloads, work = valid_inputs
    (work / "huge.json").write_text(json.dumps(dict(payloads["p"], k=10**9)))

    def refuse(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "search", refuse)
    argv = argv.format(p=work / "p.json", huge=work / "huge.json", out=tmp_path)
    assert _exit_code(*shlex.split(argv)) == code
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, sibling", [
    ("synth --k 3 --target P --out {out}/d/p.json", "d/p.csv"),
    ("assemble --gate cz {p} --out {out}/e/r.json", "e/r.braid.json"),
])
def test_sibling_directory_is_refused(valid_inputs, tmp_path, monkeypatch, argv, sibling):
    """A command that writes a second file beside --out refuses, before any
    work, when that file's name is a directory, and writes nothing."""
    payloads, work = valid_inputs
    (tmp_path / sibling).mkdir(parents=True)

    def refuse(*args, **kwargs):
        raise AssertionError("the command did its work")

    monkeypatch.setattr(cli, "search", refuse)
    monkeypatch.setattr(cli, "_read_braid", refuse)
    argv = argv.format(p=work / "p.json", out=tmp_path)
    assert _exit_code(*shlex.split(argv)) == 1
    assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == []
