"""The summary of the paired benchmark tool (``tools/bench.py``)."""

import importlib.util
import json
import subprocess
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


def test_machine_records_usable_cpus_and_bytecode_writing(monkeypatch):
    """The machine record counts the CPUs this process may use beside the
    CPU count, and says whether Python writes bytecode."""
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {3, 5, 7})
    for flag in (True, False):
        monkeypatch.setattr(bench.sys, "dont_write_bytecode", flag)
        record = bench.machine()
        assert (record["cpu_count"], record["usable_cpus"]) == (64, 3)
        assert record["dont_write_bytecode"] is flag
    assert json.loads(json.dumps(record)) == record


@pytest.mark.parametrize("last_line", ["warning: a late message", "[1, 2]"])
def test_unreadable_run_result_fails_like_a_failed_run(last_line, tmp_path, monkeypatch,
                                                       capsys):
    """A run that exits 0 but whose last stdout line is no JSON object is
    reported with an ``error:`` line and exit 1, and no file is written."""
    def export(tree, directory):
        directory.mkdir()
        spec = {"run_seconds": 1, "workloads": [{"name": "w"}],
                "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower"}]}
        (directory / "BENCHMARK.json").write_text(json.dumps(spec))

    def run(cmd, **kwargs):
        stdout = "tree\n" if cmd[0] == "git" else f'{{"correct": true}}\n{last_line}\n'
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench, "_export", export)
    monkeypatch.setattr(bench.subprocess, "run", run)
    out = tmp_path / "bench.json"
    assert bench.main(["--pairs", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
