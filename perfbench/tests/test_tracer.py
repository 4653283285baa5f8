"""Guards for the traced run: the patch list must match the package, and a
layer a workload must call must not read as zero."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import anyonforge
import anyonforge.spaces
import anyonforge.synth
from perfbench import tracer as tracing
from perfbench import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_patch_list_matches_the_package():
    assert tracing.patch_list_problems() == []


def test_a_renamed_public_function_breaks_the_patch_list(monkeypatch):
    monkeypatch.delattr(anyonforge.spaces, "regroup")
    monkeypatch.setattr(anyonforge.spaces, "__all__",
                        [n for n in anyonforge.spaces.__all__ if n != "regroup"]
                        + ["regroup_blocks"])
    renamed = types.FunctionType(anyonforge.spaces.swap_leaves.__code__,
                                 anyonforge.spaces.__dict__, "regroup_blocks")
    monkeypatch.setattr(anyonforge.spaces, "regroup_blocks", renamed, raising=False)
    problems = tracing.patch_list_problems()
    assert any("spaces.regroup is listed" in p for p in problems)
    assert any("spaces.regroup_blocks is public" in p for p in problems)
    with pytest.raises(tracing.TraceSetupError):
        tracing.Tracer().install()


def test_install_rebinds_every_alias_and_uninstall_restores():
    original = anyonforge.spaces.enumerate_basis
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert anyonforge.synth.enumerate_basis is anyonforge.spaces.enumerate_basis
        assert anyonforge.enumerate_basis is anyonforge.spaces.enumerate_basis
        assert anyonforge.spaces.enumerate_basis is not original
        model = anyonforge.AnyonModel(3)
        anyonforge.verify_braid_relations(model, (1, 1, 1))
    finally:
        tracer.uninstall()
    assert anyonforge.spaces.enumerate_basis is original
    assert anyonforge.synth.enumerate_basis is original
    assert tracer.calls["synth.verify_braid_relations"] == 1
    assert tracer.calls["spaces.enumerate_basis"] > 0
    assert tracer.calls["model.f_symbol"] > 0
    top = [s for s in tracer.spans if s[3] < 0]
    assert [s[0] for s in top] == ["synth.verify_braid_relations"]


def test_self_time_subtracts_direct_children_only():
    tracer = tracing.Tracer()
    tracer.spans[:] = [("a", 0.0, 10.0, -1, None), ("b", 1.0, 4.0, 0, None),
                       ("c", 2.0, 3.0, 1, None), ("b", 5.0, 6.0, 0, None)]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]
    assert tracer.covered({"b", "c"}) == 4.0
    assert tracer.self_time("b") == 3.0


def test_a_layer_that_reads_zero_is_reported():
    calls = {name: 1 for name in workloads.REQUIRED_CALLS["replay"]}
    assert workloads.trace_problems("replay", calls) == []
    calls["spaces.regroup"] = 0
    calls["synth.search"] = 2
    assert workloads.trace_problems("replay", calls) == [
        "trace: spaces.regroup shows zero calls", "trace: synth.search was called"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_calls_every_required_layer(workload, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    env.pop("ANYONFORGE_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.one_pass", "--workload", workload,
         "--seed", "1", "--work", str(tmp_path / "work"), "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failures"] == [] and report["problems"] == []
    layers = report["layers"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(layers) | {"trace.overhead_s", "synth.parallel_efficiency"} == {m["name"] for m in bench["per_layer"]}
    if workload in ("consistency", "replay"):
        assert layers["synth.search.calls"] == 0
    if workload == "consistency":
        own = {n: v for n, v in layers.items() if tracing.layer_unit(n) == "s"}
        assert max(own, key=own.get) == "model.pentagon_s"
    if workload in ("gateset", "deep-search"):
        own = {n: v for n, v in layers.items() if tracing.layer_unit(n) == "s"
               and n not in ("synth.search_s", "synth.worker_busy_s")}
        assert max(own, key=own.get) == "synth.search.self_s"
