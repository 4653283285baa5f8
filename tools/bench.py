"""Paired benchmark of two trees of this repository: base against head.

    python3 tools/bench.py --base HEAD --pairs 10 --out BENCH_<n>.json

Both sides are built the same way: ``git archive`` into a fresh directory,
of the ``--base`` tree-ish and of the staged tree (``git write-tree``), so
staged, uncommitted changes are measured against the last commit.  For
every workload that the head's ``BENCHMARK.json`` names, each pair runs
``perfbench/run.py --workload W --seed 1 --seconds T --trace 0`` once per
side, unchanged, with T the file's ``run_seconds``, and alternates which
side runs first.  A run that exits non-zero, whose last stdout line is no
JSON object, or whose result is not ``correct`` stops the tool with exit 1
and no file written.

The output file records the machine (``machine()``: CPU counts, bytecode
writing, Python, numpy, load at the start), both tree ids and the
settings, and per workload and end-to-end metric: each side's median and
quartiles, the pairs run, the pairs the head won (strictly better by the
metric's direction) and every pair's values.

After the pairs, each side runs ``check --k 12`` and ``check --k 16`` once
(``SCALE_LEVELS``), in an interpreter of its own, and the file records
each run's wall seconds (the command alone, without interpreter start)
and the peak resident memory of its process under ``check_scale``.  These
runs are reported only: no bound or comparison reads them.  A run that
exits non-zero stops the tool like a failed workload run.  This script
imports nothing from the package it measures.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEED = 1
SCALE_LEVELS = (12, 16)

# Runs one CLI command and prints, as the last stderr line, its wall
# seconds and the process's peak resident memory (ru_maxrss, KiB on Linux).
_SCALE_RUN = """\
import json, resource, sys, time
from anyonforge.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"exit": code, "wall_s": wall, "peak_kib": peak}), file=sys.stderr)
"""


def summarize(pairs: list[tuple[float, float]], better: str) -> dict:
    """Medians and quartiles of both sides of (base, head) value pairs, and
    how many pairs the head won; ``better`` is "lower" or "higher"."""
    if len(pairs) < 2:
        raise ValueError("need at least two pairs")
    sign = 1 if better == "lower" else -1
    out = {}
    for side, values in zip(("base", "head"), zip(*pairs)):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[side] = {"median": median, "q1": q1, "q3": q3}
    out["pairs"] = len(pairs)
    out["head_won"] = sum(sign * (head - base) < 0 for base, head in pairs)
    return out


def machine() -> dict:
    """The facts of this machine that bear on the numbers: the CPU count,
    the CPUs this process may use (a search deals one share per usable
    CPU), whether Python writes bytecode (when it does not, every run
    compiles the package inside its measured seconds), and the versions."""
    return {"cpu_count": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "dont_write_bytecode": sys.dont_write_bytecode,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "load_at_start": list(os.getloadavg())}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(tree: str, directory: Path) -> None:
    """Unpack ``git archive`` of ``tree`` into a new ``directory``."""
    directory.mkdir()
    archive = directory.with_suffix(".tar")
    _git("archive", "--format=tar", "-o", str(archive), tree)
    subprocess.run(["tar", "-x", "-f", str(archive), "-C", str(directory)], check=True)
    archive.unlink()


def _last_json(proc: subprocess.CompletedProcess, output: str) -> dict:
    """The JSON object on the last line of a run's ``output`` (its stdout
    or stderr); {} when the run exited non-zero or that line is no JSON
    object."""
    lines = output.splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    except json.JSONDecodeError:
        return {}
    return result if isinstance(result, dict) else {}


def _run(root: Path, workload: str, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run of a side; its end-to-end
    metric values.  A failed or incorrect run, or one whose last stdout
    line is no JSON object, raises ``RuntimeError``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    result = _last_json(proc, proc.stdout)
    if not result.get("correct"):
        raise RuntimeError(f"{root.name} {workload}: exit {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def _scale_run(root: Path, k: int) -> dict:
    """One report-only ``check --k k`` run of a side: its wall seconds and
    peak RSS in MB.  A run that fails or reports nothing raises
    ``RuntimeError``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _SCALE_RUN, "check", "--k", str(k), "--format", "json"],
        cwd=root, env=env, capture_output=True, text=True)
    result = _last_json(proc, proc.stderr)
    if result.get("exit") != 0:
        raise RuntimeError(f"{root.name} check --k {k}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return {"wall_s": result["wall_s"], "peak_rss_mb": result["peak_kib"] / 1024}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="tree-ish (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    trees = {"base": _git("rev-parse", args.base), "head": _git("write-tree")}
    record = {
        "machine": machine(),
        "trees": trees,
        "settings": {"pairs": args.pairs, "seed": SEED, "trace": 0},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-") as work:
        roots = {side: Path(work) / side for side in trees}
        for side, tree in trees.items():
            _export(tree, roots[side])
        spec = json.loads((roots["head"] / "BENCHMARK.json").read_text())
        record["settings"]["seconds"] = seconds = spec["run_seconds"]
        try:
            for workload in (w["name"] for w in spec["workloads"]):
                runs = []
                for i in range(args.pairs):
                    order = ("base", "head") if i % 2 == 0 else ("head", "base")
                    values = {side: _run(roots[side], workload, seconds)
                              for side in order}
                    runs.append(values)
                    print(f"{workload} pair {i + 1}/{args.pairs}", file=sys.stderr)
                summary = record["workloads"][workload] = {}
                for metric in spec["end_to_end"]:
                    name = metric["name"]
                    pairs = [(r["base"][name], r["head"][name]) for r in runs]
                    summary[name] = dict(summarize(pairs, metric["better"]),
                                         unit=metric["unit"], values=pairs)
            record["check_scale"] = {
                f"check --k {k}": {side: _scale_run(roots[side], k) for side in trees}
                for k in SCALE_LEVELS}
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for workload, metrics in record["workloads"].items():
        for name, s in metrics.items():
            print(f"{workload:15} {name:12} {s['base']['median']:.4g} -> "
                  f"{s['head']['median']:.4g} (head won {s['head_won']}/{s['pairs']}; "
                  f"base IQR {s['base']['q3'] - s['base']['q1']:.3g})")
    for command, sides in record["check_scale"].items():
        print(f"{command:15} " + "; ".join(
            f"{side} {run['wall_s']:.3g} s, {run['peak_rss_mb']:.4g} MB"
            for side, run in sides.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
