"""The package's public surface is its modules' ``__all__``, and the
benchmark's span tracer still covers its public functions.

``perfbench.tracer`` refuses to install when its TRACED and UNTRACED lists
no longer name exactly the public functions, so a public rename or removal
that forgets those lists would stop every traced benchmark pass.  A traced
``check`` must still call every layer the consistency workload requires,
and a traced ``synth`` every layer the search workloads require.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import anyonforge  # noqa: E402
from anyonforge import assemble, cli, codes, files, model, spaces, synth  # noqa: E402
from perfbench.tracer import Tracer, patch_list_problems  # noqa: E402
from perfbench.workloads import NOT_MATRIX, trace_problems  # noqa: E402


def test_tracer_patch_list_matches_the_public_functions():
    assert patch_list_problems() == []


def test_package_reexports_each_modules_all_once():
    modules = (model, spaces, codes, synth, assemble, files)
    names = [name for module in modules for name in module.__all__]
    assert anyonforge.__all__ == [*names, "__version__"]
    assert len(set(anyonforge.__all__)) == len(anyonforge.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(anyonforge, name) is getattr(module, name)


def test_traced_check_calls_every_consistency_layer(monkeypatch, capsys):
    """One ``check`` on a fresh symbol table calls each traced layer that a
    traced pass of the consistency workload must show calls for."""
    monkeypatch.setattr(model, "_CLEAN_TABLES", {})
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["check", "--k", "3"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert trace_problems("consistency", tracer.calls) == []


def test_traced_synth_calls_every_search_layer(monkeypatch, capsys, tmp_path):
    """One NOT search through ``synth`` on a fresh symbol table, at one
    worker and at two, calls each traced layer that a traced pass of the
    matching search workload must show calls for."""
    target = tmp_path / "NOT.json"
    target.write_text(json.dumps({"name": "NOT", "matrix": NOT_MATRIX}))
    for workers, workload in ((1, "deep-search"), (2, "deep-search-w2")):
        monkeypatch.setattr(model, "_CLEAN_TABLES", {})
        tracer = Tracer()
        tracer.install()
        try:
            status = cli.main(["synth", "--k", "3", "--target", str(target),
                               "--max-length", "8", "--workers", str(workers),
                               "--out", str(tmp_path / f"NOT-{workers}.json")])
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert status == 3
        assert trace_problems(workload, tracer.calls) == []
