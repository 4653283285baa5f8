"""Span tracer that wraps anyonforge's public functions from outside.

Tracing changes no library code.  ``Tracer.install`` rebinds every traced
function, in every ``anyonforge`` module that binds it (found by object
identity, so aliases are covered too), to a wrapper that records one span
``(name, start, end, parent, tag)`` and a call count.  Model methods are
patched on the ``AnyonModel`` class.  Spans stay in memory until the pass
writes them out.

``TRACED`` and ``UNTRACED`` together must name every public function of the
package, and nothing else: ``patch_list_problems`` reports any difference,
and ``install`` refuses to run with one, so a renamed or rebound public
function fails loudly instead of reading as zero seconds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("model", "spaces", "codes", "synth", "assemble", "files", "cli")

# Traced public functions per layer; "AnyonModel.x" names a model method.
TRACED = {
    "model": ("AnyonModel.f_symbol", "AnyonModel.r_symbol",
              "AnyonModel.verify_pentagon", "AnyonModel.verify_hexagon"),
    "spaces": ("enumerate_basis", "braid_generator", "inverse_braid_generator",
               "composite_braid_generator", "regroup"),
    "codes": ("single_qubit_code", "multi_qubit_code", "leakage"),
    "synth": ("search", "score_braid", "evaluate", "evaluate_tracked",
              "verify_braid_relations", "distance", "make_target_P",
              "make_target_B1", "make_target_B3", "make_target_E",
              "make_target_unitary"),
    "assemble": ("assemble_controlled_phase", "assemble_ccz",
                 "convert_registers"),
    "files": ("canonical_dumps", "write_braid_file", "read_braid_file",
              "target_from_payload", "result_from_payload", "curve_csv",
              "write_curve_csv"),
    "cli": ("main",),
}

# Public functions left unwrapped.  The small helpers run inside loops that
# are themselves traced; a wrapper per call would cost more than the call.
# The cli commands are reached through a private dispatch table, so their
# own work shows as cli.main self time.
UNTRACED = {
    "model": ("AnyonModel.check_charge", "AnyonModel.fuse",
              "AnyonModel.can_fuse", "AnyonModel.qdim",
              "AnyonModel.corrupt_f_symbol", "AnyonModel.precompute"),
    "spaces": ("swap_leaves",),
    "codes": (),
    "synth": ("exchange_counts",),
    "assemble": ("braid_length_total",),
    "files": ("braid_payload", "gate_report_payload",
              "assembled_braid_payload"),
    "cli": ("parse_spin", "spin_label", "cmd_model", "cmd_check", "cmd_basis",
            "cmd_synth", "cmd_assemble", "cmd_verify"),
}

# Unit of a per-layer metric, by the last part of its name; the rest are
# seconds.
_UNITS = {"calls": "count", "distinct": "count", "nodes": "count",
          "frontier": "count", "bytes_written": "B", "nodes_per_s": "1/s",
          "deepening_ratio": "ratio", "parallel_efficiency": "ratio"}


def layer_unit(name: str) -> str:
    return _UNITS.get(name.rsplit(".", 1)[-1], "s")


class TraceSetupError(RuntimeError):
    """The patch list no longer matches the package."""


def _module(layer: str):
    return importlib.import_module(f"anyonforge.{layer}")


def public_functions(layer: str) -> set[str]:
    """Public functions defined in a layer's module, plus AnyonModel methods
    for the model layer.  Uses ``__all__`` where the module declares one."""
    mod = _module(layer)
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    out = {n for n in names
           if inspect.isfunction(getattr(mod, n, None))
           and getattr(mod, n).__module__ == mod.__name__}
    if layer == "model":
        out |= {f"AnyonModel.{n}" for n, v in vars(mod.AnyonModel).items()
                if not n.startswith("_") and inspect.isfunction(v)}
    return out


def patch_list_problems() -> list[str]:
    """Differences between TRACED + UNTRACED and the package's public API."""
    problems = []
    for layer in LAYERS:
        listed = set(TRACED[layer]) | set(UNTRACED[layer])
        actual = public_functions(layer)
        for name in sorted(actual - listed):
            problems.append(f"{layer}.{name} is public but in neither list")
        for name in sorted(listed - actual):
            problems.append(f"{layer}.{name} is listed but not a public function")
        for name in sorted(set(TRACED[layer]) & set(UNTRACED[layer])):
            problems.append(f"{layer}.{name} is in both lists")
    return problems


class Tracer:
    """Records spans and call counts for the traced functions."""

    def __init__(self):
        self.spans: list = []
        self.calls: dict[str, int] = {}
        self.generator_keys: set = set()
        self.search_rows: list = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        problems = patch_list_problems()
        if problems:
            raise TraceSetupError("; ".join(problems))
        modules = _all_modules()
        for layer in LAYERS:
            mod = _module(layer)
            for name in TRACED[layer]:
                span_name = f"{layer}.{name.rsplit('.', 1)[-1]}"
                self.calls[span_name] = 0
                if name.startswith("AnyonModel."):
                    attr = name.split(".", 1)[1]
                    original = vars(mod.AnyonModel)[attr]
                    self._set(mod.AnyonModel, attr,
                              self._wrap(span_name, original))
                    continue
                original = getattr(mod, name)
                wrapper = self._wrap(span_name, original)
                bound = 0
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper)
                            bound += 1
                if not bound:
                    raise TraceSetupError(f"{span_name} is bound nowhere")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter
        observe = {
            "spaces.braid_generator": self._observe_generator,
            "synth.search": self._observe_search,
            "model.verify_pentagon": _tag_level,
            "model.verify_hexagon": _tag_level,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                tag = observe(args, result) if observe else None
                spans[index] = (name, start, end, parent, tag)

        return wrapper

    def _observe_generator(self, args, result):
        model, basis, position = args[:3]
        self.generator_keys.add((model.k, basis.leaves, basis.total, position))

    def _observe_search(self, args, result):
        if result is not None:
            self.search_rows.append(list(result.stats.rows))

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def covered(self, names) -> float:
        """Wall time inside spans named in ``names``, counting a span only
        when no ancestor is also in ``names`` (no double counting)."""
        names = set(names)
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] not in names:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                total += end - start
        return total

    def self_time(self, name: str) -> float:
        own = self.self_times()
        return sum(t for t, span in zip(own, self.spans) if span[0] == name)


def _tag_level(args, result):
    return args[0].k


def _all_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "anyonforge" or name.startswith("anyonforge."))]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass.  ``files.bytes_written``,
    ``synth.parallel_efficiency`` and ``trace.overhead_s`` need more than
    the spans and are added by the callers."""
    t, calls = tracer, tracer.calls
    last_passes = [rows[-1] for rows in t.search_rows if rows]
    all_rows = [row for rows in t.search_rows for row in rows]
    nodes = sum(row[2] for row in all_rows)
    search_self = t.self_time("synth.search")
    # SearchStats row seconds are summed across workers, so they measure
    # busy time, not wall time; they feed only worker_busy_s.  Wall times
    # all come from the benchmark's own clock.
    busy = sum(row[4] for row in all_rows)
    last_nodes = sum(row[2] for row in last_passes)
    return {
        "model.pentagon_s": t.covered({"model.verify_pentagon"}),
        "model.hexagon_s": t.covered({"model.verify_hexagon"}),
        "model.f_symbol.calls": calls["model.f_symbol"],
        "model.f_symbol_s": t.covered({"model.f_symbol"}),
        "model.r_symbol.calls": calls["model.r_symbol"],
        "spaces.enumerate_basis.calls": calls["spaces.enumerate_basis"],
        "spaces.enumerate_basis_s": t.covered({"spaces.enumerate_basis"}),
        "spaces.braid_generator.calls": calls["spaces.braid_generator"],
        "spaces.braid_generator.distinct": len(t.generator_keys),
        "spaces.braid_generator_s": t.covered(
            {"spaces.braid_generator", "spaces.inverse_braid_generator"}),
        "spaces.composite_braid_generator_s": t.covered(
            {"spaces.composite_braid_generator"}),
        "spaces.regroup.calls": calls["spaces.regroup"],
        "spaces.regroup_s": t.covered({"spaces.regroup"}),
        "codes.build.calls": (calls["codes.single_qubit_code"]
                              + calls["codes.multi_qubit_code"]),
        "codes.build_s": t.covered({"codes.single_qubit_code",
                                    "codes.multi_qubit_code"}),
        "synth.search.calls": calls["synth.search"],
        "synth.search_s": t.covered({"synth.search"}),
        "synth.search.self_s": search_self,
        "synth.nodes": nodes,
        "synth.frontier": sum(row[3] for row in last_passes),
        "synth.nodes_per_s": nodes / search_self if search_self > 0 else 0.0,
        "synth.deepening_ratio": nodes / last_nodes if last_nodes else 0.0,
        "synth.worker_busy_s": busy,
        "synth.score_braid.calls": calls["synth.score_braid"],
        "synth.score_braid_s": t.covered({"synth.score_braid"}),
        "synth.evaluate_s": t.covered({"synth.evaluate", "synth.evaluate_tracked"}),
        "synth.braid_relations_s": t.covered({"synth.verify_braid_relations"}),
        "assemble.calls": (calls["assemble.assemble_ccz"]
                           + calls["assemble.assemble_controlled_phase"]
                           + calls["assemble.convert_registers"]),
        "assemble.ccz_s": t.covered({"assemble.assemble_ccz"}),
        "assemble.cz_s": t.covered({"assemble.assemble_controlled_phase"}),
        "assemble.convert_s": t.covered({"assemble.convert_registers"}),
        "files.write_s": t.covered({"files.canonical_dumps", "files.write_braid_file",
                                    "files.curve_csv", "files.write_curve_csv"}),
        "files.read_s": t.covered({"files.read_braid_file"}),
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": t.self_time("cli.main"),
    }
