"""Regenerate ``perfbench/baseline.json``: the benchmark's recorded baseline.

    python3 perfbench/baseline.py --seeds 1-10 --repeat-seeds 11-20

Runs ``perfbench/run.py`` once per workload and seed (untraced), one run at
a time, and a traced run per workload on the first seed.  For every
end-to-end metric it records the ten values, their median and quartiles,
and the spread (interquartile distance over the median) next to the bound
from ``BENCHMARK.json``.  It then runs a second, separate set on the repeat
seeds and records, per metric, its median, its spread, its change against
the first set's median, and whether both stay within the bound.  It also
records provenance, each workload's reason, the per-layer to end-to-end map
below, and the rows of the library's own baseline table that these
workloads cover.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"

# Which end-to-end metric each per-layer metric should move, on which
# workload, written down before any optimisation is measured against it.
LAYER_MAP = [
    {"layers": ["model.pentagon_s", "model.hexagon_s", "model.f_symbol.calls",
                "model.f_symbol_s", "model.r_symbol.calls"],
     "moves": ["run_s on consistency", "peak_rss_mb on consistency"],
     "still": ["gateset", "replay"]},
    {"layers": ["spaces.enumerate_basis.calls", "spaces.enumerate_basis_s",
                "spaces.braid_generator.calls", "spaces.braid_generator.distinct",
                "spaces.braid_generator_s", "spaces.composite_braid_generator_s",
                "spaces.regroup.calls", "spaces.regroup_s"],
     "moves": ["run_s on replay (most)", "run_s on consistency (braid relations)"],
     "still": ["gateset (barely)"]},
    {"layers": ["codes.build.calls", "codes.build_s"],
     "moves": ["run_s on replay", "run_s on gateset"],
     "still": ["consistency"]},
    {"layers": ["synth.search.calls", "synth.search_s", "synth.search.self_s",
                "synth.nodes", "synth.frontier", "synth.nodes_per_s",
                "synth.deepening_ratio"],
     "moves": ["run_s on deep-search", "run_s on deep-search-w2", "run_s on gateset"],
     "still": ["replay (synth.search.calls is 0)",
               "consistency (synth.search.calls is 0)"]},
    {"layers": ["synth.worker_busy_s", "synth.parallel_efficiency"],
     "moves": ["run_s on deep-search-w2 (the two-worker time)"],
     "still": ["deep-search"]},
    {"layers": ["synth.score_braid.calls", "synth.score_braid_s", "synth.evaluate_s",
                "synth.braid_relations_s"],
     "moves": ["run_s on replay", "run_s on consistency"],
     "still": []},
    {"layers": ["assemble.calls", "assemble.ccz_s", "assemble.cz_s",
                "assemble.convert_s"],
     "moves": ["run_s on replay"],
     "still": ["consistency", "deep-search"]},
    {"layers": ["files.write_s", "files.read_s", "files.bytes_written"],
     "moves": ["run_s on replay", "setup_s on replay"],
     "still": []},
    {"layers": ["cli.main.calls", "cli.main.self_s"],
     "moves": ["run_s on replay"],
     "still": []},
    {"layers": ["trace.overhead_s"],
     "moves": [], "still": ["every end-to-end metric (traced runs are separate)"]},
]


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound,
            "spread_within_third_of_bound": spread < bound / 3}


def pentagon_by_level(workload_spans: Path) -> dict:
    """Pentagon seconds per level k from a traced consistency pass."""
    data = json.loads(workload_spans.read_text())
    out: dict = {}
    for name, start, end, _parent, tag in data["spans"]:
        if name == "model.verify_pentagon":
            out[str(tag)] = out.get(str(tag), 0.0) + (end - start)
    return out


def provenance(seeds: list[int]) -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True).stdout.strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "load_average_at_start": list(os.getloadavg()),
            "commit": commit or "unknown", "seeds": seeds,
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def untraced_set(names: list[str], seeds: list[int], run_seconds: int,
                 bounds: dict) -> dict:
    """One set of untraced runs: per workload, correctness and a summary of
    every end-to-end metric."""
    out = {}
    for workload in names:
        results = [run(workload, s, run_seconds, 0) for s in seeds]
        out[workload] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            **{m: summarize([r["metrics"][m]["value"] for r in results], bounds[m])
               for m in bounds}}
        e2e = out[workload]
        print(workload, "correct" if e2e["correct"] else "INCORRECT",
              f"fail_ratio={e2e['failed'] / e2e['attempted']:.3g}",
              " ".join(f"{m}={e2e[m]['median']:.4g} (spread {e2e[m]['spread']:.3f})"
                       for m in bounds), flush=True)
    return out


def compare(first: dict, second: dict, bounds: dict) -> dict:
    """The second set against the first: change of each median and whether
    spread and change stay within the metric's bound (``setup_s``'s spread
    is exempt, as in the acceptance rule)."""
    out = {}
    for workload, metrics in second.items():
        out[workload] = {"correct": metrics["correct"]}
        for m, bound in bounds.items():
            change = metrics[m]["median"] / first[workload][m]["median"] - 1.0
            out[workload][m] = {
                "median": metrics[m]["median"], "spread": metrics[m]["spread"],
                "change_vs_first": change,
                "within_bound": change <= bound and (
                    m == "setup_s" or metrics[m]["spread"] <= bound)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--repeat-seeds", required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds, repeat_seeds = parse_seeds(args.seeds), parse_seeds(args.repeat_seeds)
    trace_seed = seeds[0]
    names = [w["name"] for w in bench["workloads"]]
    record = {"provenance": provenance(seeds),
              "run_seconds": bench["run_seconds"],
              "why": {w["name"]: w["why"] for w in bench["workloads"]},
              "layer_map": LAYER_MAP}

    e2e = record["end_to_end"] = untraced_set(names, seeds, bench["run_seconds"], bounds)
    layers = record["per_layer"] = {
        workload: {m: v["value"] for m, v in
                   run(workload, trace_seed, bench["run_seconds"], 1)["metrics"].items()}
        for workload in names}
    spans = ROOT / ".bench_work" / "trace" / f"consistency-seed{trace_seed}.json"
    record["library_baseline"] = {
        "pentagon_s_by_k": pentagon_by_level(spans),
        "not_L20_workers1_s": e2e["deep-search"]["run_s"]["median"],
        "not_L20_workers2_s": e2e["deep-search-w2"]["run_s"]["median"],
        "not_L20_deepening_ratio": layers["deep-search"]["synth.deepening_ratio"],
    }

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    load = list(os.getloadavg())
    second = untraced_set(names, repeat_seeds, bench["run_seconds"], bounds)
    record["repeat_set"] = {"seeds": repeat_seeds, "started": started,
                            "load_average_at_start": load,
                            "end_to_end": compare(e2e, second, bounds)}
    (ROOT / "perfbench" / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(w["correct"] for w in (*e2e.values(), *second.values())) else 1


if __name__ == "__main__":
    sys.exit(main())
