"""anyonforge benchmark: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload gateset --seed 1 --seconds 15 --trace 0

Run from anywhere; the checkout root is this file's parent directory.  The
benchmark needs the checkout's ``src/anyonforge`` and refuses to run (exit
2, no result) without it.

Each pass of the workload runs in a fresh interpreter (``perfbench.one_pass``)
because every CLI invocation pays for cold caches.  Passes repeat while
another one should still end within ``--seconds``; every reported time is a
median over passes.

End-to-end metrics (``--trace 0``), all from untraced passes:

- ``setup_s``: interpreter start to the first timed command (import, input
  construction and input files).
- ``run_s``: wall time of the workload's command sequence.
- ``peak_rss_mb``: peak resident memory of the pass, worker processes
  included.  The kernel's own peak for the pass (which covers its largest
  reaped child) is combined with the sum of current RSS over the pass and
  its descendants, sampled every 20 ms.

Failed operations divided by attempted ones (``fail_ratio``) is printed in
the summary line and carried by the result's ``attempted`` and ``failed``.

With ``--trace 1`` the runs alternate untraced and traced passes; the
per-layer metrics are medians over the traced ones, and
``trace.overhead_s`` is the traced median ``run_s`` minus the untraced one.
The spans of the last traced pass are written under ``.bench_work/trace``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.tracer import layer_unit  # noqa: E402  (needs ROOT on the path)

WORK = ROOT / ".bench_work"
# Same names as perfbench.workloads.WORKLOADS, which imports the library;
# this process must not (tests/test_contract.py keeps the two in step).
WORKLOADS = ("gateset", "deep-search", "deep-search-w2", "consistency", "replay")
# Multi-worker workloads: their one-worker twin and their worker count.
ONE_WORKER = {"deep-search-w2": ("deep-search", 2)}
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
RSS_SAMPLE_S = 0.02
RUN_BUDGET_S = 170.0


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _tree_rss_kb(pid: int) -> int:
    """Current RSS summed over ``pid`` and all its descendants."""
    total, stack = 0, [pid]
    while stack:
        current = stack.pop()
        total += _rss_kb(current)
        try:
            with open(f"/proc/{current}/task/{current}/children") as handle:
                stack.extend(int(c) for c in handle.read().split())
        except OSError:
            pass
    return total


def run_pass(workload: str, seed: int, index: int, trace: bool,
             deadline: float) -> dict:
    """Run one pass in a fresh interpreter; return its report plus set-up
    time and peak memory as measured from here."""
    work = WORK / f"{workload}-{seed}-{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, "-m", "perfbench.one_pass", "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--trace", str(int(trace))]
    if trace:
        (WORK / "trace").mkdir(exist_ok=True)
        cmd += ["--spans-out", str(WORK / "trace" / f"{workload}-seed{seed}.json")]
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    # The library would load F/R symbols from a disk cache outside the
    # checkout, changing both the timings and the values checked.
    env.pop("ANYONFORGE_CACHE_DIR", None)
    stdout_path = work / "pass.out"
    with open(stdout_path, "w") as out, open(work / "pass.err", "w") as err:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err,
                                start_new_session=True)
    peak_tree_kb, timed_out = 0, False
    try:
        while not os.waitid(os.P_PID, proc.pid,
                            os.WEXITED | os.WNOHANG | os.WNOWAIT):
            peak_tree_kb = max(peak_tree_kb, _tree_rss_kb(proc.pid))
            if time.monotonic() > deadline:
                timed_out = True
                break
            time.sleep(RSS_SAMPLE_S)
    finally:
        # The unreaped leader keeps the group id ours: stop any straggler
        # (or the whole pass on time-out), then reap it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)

    report = None
    lines = stdout_path.read_text().splitlines()
    if proc.returncode == 0 and lines:
        try:
            report = json.loads(lines[-1])
        except ValueError:
            report = None
    if report is None:
        reason = "timed out" if timed_out else f"exit {proc.returncode}"
        tail = (work / "pass.err").read_text()[-2000:]
        report = {"attempted": 1, "failures": [f"pass {reason}: {tail}"],
                  "problems": [], "run_s": None, "first_op": None}
    report["setup_s"] = (report["first_op"] - spawned
                         if report["first_op"] is not None else None)
    report["peak_rss_mb"] = max(usage.ru_maxrss, peak_tree_kb) / 1024.0
    shutil.rmtree(work, ignore_errors=True)
    return report


def median_of(passes: list, key: str) -> float:
    values = [p[key] for p in passes if p.get(key) is not None]
    return statistics.median(values) if values else float("nan")


def parallel_efficiency(workload: str, searches, plain: list, one_worker: list) -> float:
    """One-worker run_s over (workers x run_s) of the same query; 1.0 for a
    one-worker search and 0.0 where nothing searches."""
    if workload in ONE_WORKER:
        workers = ONE_WORKER[workload][1]
        return median_of(one_worker, "run_s") / (workers * median_of(plain, "run_s"))
    return 1.0 if searches else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="anyonforge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "anyonforge" / "__init__.py").is_file():
        print(f"error: no anyonforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Pass kinds, in rotation.  A traced run interleaves untraced passes for
    # trace.overhead_s and, for a multi-worker workload, one-worker passes
    # of the same query for synth.parallel_efficiency.
    kinds = ["plain"]
    if args.trace:
        kinds.append("traced")
        if args.workload in ONE_WORKER:
            kinds.append("one-worker")
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    passes, durations = [], []
    while True:
        kind = kinds[len(passes) % len(kinds)]
        workload = ONE_WORKER[args.workload][0] if kind == "one-worker" else args.workload
        began = time.monotonic()
        report = run_pass(workload, args.seed, len(passes), kind == "traced", deadline)
        passes.append(dict(report, kind=kind))
        durations.append(time.monotonic() - began)
        # Start another pass only if it should end within --seconds, once
        # every pass kind has run.
        elapsed = time.monotonic() - start
        if len(passes) >= len(kinds) and (
                elapsed + statistics.median(durations) > args.seconds
                or elapsed >= RUN_BUDGET_S):
            break

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    problems = sorted({f for p in passes for f in p["problems"]})
    plain = [p for p in passes if p["kind"] == "plain"]
    if args.trace:
        traced = [p for p in passes if p["kind"] == "traced" and "layers" in p]
        names = list(traced[0]["layers"]) if traced else []
        values = {n: statistics.median(p["layers"][n] for p in traced) for n in names}
        values["synth.parallel_efficiency"] = parallel_efficiency(
            args.workload, values.get("synth.search.calls"), plain,
            [p for p in passes if p["kind"] == "one-worker"])
        values["trace.overhead_s"] = median_of(traced, "run_s") - median_of(plain, "run_s")
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in values.items()}
    else:
        metrics = {n: {"value": median_of(plain, n), "unit": unit}
                   for n, unit in END_TO_END.items()}

    for failure in failures[:20] + problems:
        print(f"FAILED: {failure}")
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={attempted} failed={len(failures)} "
          f"fail_ratio={len(failures) / attempted:.6g}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print("  run_s per pass: " + " ".join(
        f"{p['run_s']:.4g}{'' if p['kind'] == 'plain' else '(' + p['kind'] + ')'}"
        for p in passes
        if p["run_s"] is not None))
    correct = not failures and not problems and all(
        m["value"] == m["value"] for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
