"""One pass of one workload, in a fresh interpreter.

Run by ``perfbench/run.py`` as ``python3 -m perfbench.one_pass`` from the
checkout root, with ``src`` on ``PYTHONPATH``.  The pass builds its inputs,
runs the workload's command sequence through ``anyonforge.cli.main``, checks
every output, and prints one JSON object as its last line of output:
``first_op`` (the CLOCK_MONOTONIC time the first timed command started,
so the parent can measure set-up from interpreter start), ``run_s``,
``attempted``, ``failures`` (one per failed command), ``problems`` (trace
guard findings) and, when traced, ``layers``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import time
import traceback
from pathlib import Path

import anyonforge.cli

from perfbench import tracer as tracing
from perfbench import workloads


def _run_op(op) -> tuple[int | None, str]:
    """Exit code and captured output of one command."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = anyonforge.cli.main(op.argv)
        except Exception:  # the library raised through main: a failed command
            code = None
            traceback.print_exc(limit=3)
    return code, sink.getvalue()


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run(workload: str, seed: int, work: Path, trace: bool,
        spans_out: Path | None = None) -> dict:
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    ops = workloads.WORKLOADS[workload](seed, work)

    first_op = time.clock_gettime(time.CLOCK_MONOTONIC)
    start = time.monotonic()
    outcomes = [_run_op(op) for op in ops]
    run_s = time.monotonic() - start

    failures = []
    for op, (code, output) in zip(ops, outcomes):
        try:
            if code != op.expect_exit:
                raise workloads.CheckFailed(
                    f"exit {code}, expected {op.expect_exit}: {output[-500:]}")
            op.check()
        except (workloads.CheckFailed, KeyError, TypeError) as exc:
            failures.append(f"{op.label}: {exc}")

    result = {"first_op": first_op, "run_s": run_s, "attempted": len(ops),
              "failures": failures, "problems": []}
    if tracer is not None:
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer)
        layers["files.bytes_written"] = _bytes_under(work / "out")
        result["problems"] = workloads.trace_problems(workload, tracer.calls)
        result["layers"] = layers
        if spans_out is not None:
            spans_out.write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "tag"],
                 "spans": tracer.spans}))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.work, bool(args.trace), args.spans_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
