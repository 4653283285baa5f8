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


def test_check_scale_runs_are_recorded_once_per_side(tmp_path, monkeypatch):
    """After the pairs, each side runs ``check --k 12`` and ``--k 16`` once;
    the file keeps each run's wall seconds and peak RSS (KiB to MB) under
    ``check_scale``, beside the workloads it leaves alone."""
    def export(tree, directory):
        directory.mkdir()
        spec = {"run_seconds": 1, "workloads": [{"name": "w"}],
                "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower"}]}
        (directory / "BENCHMARK.json").write_text(json.dumps(spec))

    scale = {("base", "12"): (2.5, 51200), ("head", "12"): (2.0, 52224),
             ("base", "16"): (20.0, 102400), ("head", "16"): (19.0, 101376)}
    calls = []

    def run(cmd, cwd=None, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, stdout="tree\n", stderr="")
        if cmd[1] == "perfbench/run.py":
            result = {"correct": True, "metrics": {"run_s": {"value": 1.0}}}
            return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(result) + "\n",
                                               stderr="")
        side, k = Path(cwd).name, cmd[cmd.index("--k") + 1]
        calls.append((side, k))
        wall, peak = scale[side, k]
        line = json.dumps({"exit": 0, "wall_s": wall, "peak_kib": peak})
        return subprocess.CompletedProcess(cmd, 0, stdout="{}\n", stderr=f"note\n{line}\n")

    monkeypatch.setattr(bench, "_export", export)
    monkeypatch.setattr(bench.subprocess, "run", run)
    out = tmp_path / "bench.json"
    assert bench.main(["--pairs", "2", "--out", str(out)]) == 0
    assert sorted(calls) == sorted(scale)
    record = json.loads(out.read_text())
    assert record["check_scale"] == {
        "check --k 12": {"base": {"wall_s": 2.5, "peak_rss_mb": 50.0},
                         "head": {"wall_s": 2.0, "peak_rss_mb": 51.0}},
        "check --k 16": {"base": {"wall_s": 20.0, "peak_rss_mb": 100.0},
                         "head": {"wall_s": 19.0, "peak_rss_mb": 99.0}},
    }
    assert record["workloads"]["w"]["run_s"]["head_won"] == 0


def test_failed_check_scale_run_fails_the_tool(tmp_path, monkeypatch, capsys):
    def export(tree, directory):
        directory.mkdir()
        spec = {"run_seconds": 1, "workloads": [],
                "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower"}]}
        (directory / "BENCHMARK.json").write_text(json.dumps(spec))

    def run(cmd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, stdout="tree\n", stderr="")
        return subprocess.CompletedProcess(cmd, 2, stdout="", stderr="Traceback\n")

    monkeypatch.setattr(bench, "_export", export)
    monkeypatch.setattr(bench.subprocess, "run", run)
    out = tmp_path / "bench.json"
    assert bench.main(["--pairs", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
