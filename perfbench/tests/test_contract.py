"""BENCHMARK.json agrees with the code, and the benchmark refuses to run
without the library sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import run, workloads

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_and_end_to_end_metrics_match_the_code():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    for metric in BENCH["per_layer"]:
        assert run.layer_unit(metric["name"]) == metric["unit"]


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gateset",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
