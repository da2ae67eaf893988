"""Per-layer timing from outside the program.

The benchmark times each layer by wrapping public functions of
``repro`` from here, without touching ``src/``.  A wrapper records one
span (name, pid, tid, start, end) per call, or only a call count for hot
inner functions.  Spans stay in memory and are written when the run
ends; a layer's self time is its spans' duration minus the part of that
interval covered by child spans on the same pid/tid.

A target that no longer exists is reported as ``absent`` and skipped, so
a rewrite of the program cannot break the harness.  An ``async def``
target is ``refused``: its span would include idle awaits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (name, pid, tid, start_ns, end_ns)
Span = Tuple[str, int, int, int, int]

#: Extra counts a wrapper derives from one call: ``(arguments, result)``
#: to ``{counter name: increment}``.
CountHook = Callable[[inspect.BoundArguments, Any], Dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One public function or method to time.

    ``attr`` is ``"func"`` or ``"Class.method"`` inside ``module``.
    ``spans=False`` keeps only a call count, for hot inner calls.
    """

    layer: str
    module: str
    attr: str
    spans: bool = True
    count: Optional[CountHook] = None


def _mc_samples(args: inspect.BoundArguments, result: Any) -> Dict[str, float]:
    return {"core.mc_win_probability.samples": args.arguments["n_samples"]}


def _iss_counts(args: inspect.BoundArguments, stats: Any) -> Dict[str, float]:
    return {"cpu.cycles": stats.cycles, "cpu.instructions": stats.instructions}


def _lane_counts(args: inspect.BoundArguments, result: Any) -> Dict[str, float]:
    # A run that fell back to scalar lanes is counted by CortexM0.run.
    if not result.vectorized:
        return {}
    return {
        "cpu.lanes_vectorized": len(result.lanes),
        "cpu.cycles": sum(lane.cycles for lane in result.lanes),
        "cpu.instructions": result.total_instructions,
    }


def _batch_points(args: inspect.BoundArguments, result: Any) -> Dict[str, float]:
    return {"serve.evaluate_points.points": len(args.arguments["queries"])}


#: Every wrapped target.  Which end-to-end metric each group should
#: move is listed in bench/README.md.
TARGETS: Tuple[Target, ...] = (
    # SPICE eDRAM timing and the case study around it.
    Target("analysis.build_case_study", "repro.analysis.case_study", "build_case_study"),
    Target("edram.characterize", "repro.edram.timing", "characterize"),
    Target("edram.simulate_write", "repro.edram.timing", "simulate_write"),
    Target("edram.simulate_read", "repro.edram.timing", "simulate_read"),
    Target("spice.transient", "repro.spice.transient", "transient"),
    Target("spice.newton_solve", "repro.spice.mna", "newton_solve", spans=False),
    Target("devices.fet_ids", "repro.devices.fet", "FET.ids", spans=False),
    Target("physical.select_design", "repro.physical.power", "CorePowerModel.select_design"),
    Target("physical.dies_per_wafer", "repro.physical.die", "dies_per_wafer"),
    Target("core.embodied_evaluate", "repro.core.embodied", "EmbodiedCarbonModel.evaluate"),
    # The artifact pipeline and Monte Carlo.
    Target("analysis.pipeline", "repro.analysis.artifacts", "run_artifact_pipeline"),
    Target("analysis.table1", "repro.analysis.figures", "table1_fet_figures"),
    Target("analysis.table2", "repro.analysis.ppatc", "comparison_with_paper"),
    Target("analysis.fig2c", "repro.analysis.figures", "fig2c_embodied_per_wafer"),
    Target("analysis.fig2d", "repro.analysis.figures", "fig2d_euv_metal_steps"),
    Target("analysis.fig4_energy", "repro.analysis.figures", "fig4_energy_vs_clock"),
    Target("analysis.fig4_critical_path", "repro.analysis.figures", "fig4_critical_path"),
    Target("analysis.fig5", "repro.analysis.figures", "fig5_tc_and_tcdp"),
    Target("analysis.fig6a", "repro.analysis.figures", "fig6a_tradeoff_map"),
    Target("analysis.fig6b", "repro.analysis.figures", "fig6b_isoline_uncertainty"),
    Target("analysis.tornado", "repro.analysis.sensitivity", "tornado_analysis"),
    Target("analysis.canonical_json", "repro.analysis.artifacts", "canonical_json"),
    Target("core.mc_win_probability", "repro.core.uncertainty", "monte_carlo_win_probability", count=_mc_samples),
    Target("core.batched_ratio_grid", "repro.core.isoline", "batched_ratio_grid"),
    # The instruction-set simulator.
    Target("cpu.assemble", "repro.cpu.assembler", "assemble"),
    Target("cpu.run", "repro.cpu.simulator", "CortexM0.run", count=_iss_counts),
    Target("cpu.run_lanes", "repro.cpu.vector_engine", "run_lanes", count=_lane_counts),
    # The query server.
    Target("serve.parse", "repro.serve.model", "PointQuery.from_payload"),
    Target("serve.parse", "repro.serve.model", "GridQuery.from_payload"),
    Target("serve.evaluate_points", "repro.serve.model", "evaluate_points_batched", count=_batch_points),
    Target("serve.evaluate_grid", "repro.serve.model", "evaluate_grid"),
    Target("serve.serialize", "repro.serve.http", "json_response"),
    # The linter; one target per rule is added by lint_rule_targets().
    Target("quality.lint_source", "repro.quality.engine", "LintEngine.lint_source"),
    Target("quality.flow", "repro.quality.flow", "analyze_scopes"),
    Target("quality.shapes", "repro.quality.shapes", "analyze_shape_scopes"),
)

#: The rule ids whose ``check`` gets its own row.
LINT_RULES = tuple(f"RPL{n:03d}" for n in range(1, 17))


def lint_rule_targets() -> List[Target]:
    """One target per registered lint rule's ``check``; missing ids
    are reported absent through a placeholder target."""
    try:
        from repro.quality.rules import RULE_REGISTRY
    except ImportError:
        RULE_REGISTRY = {}
    targets = []
    for rule_id in LINT_RULES:
        cls = RULE_REGISTRY.get(rule_id)
        module = cls.__module__ if cls is not None else "repro.quality.rules"
        name = cls.__name__ if cls is not None else f"<{rule_id}>"
        targets.append(Target(f"quality.rule.{rule_id}", module, f"{name}.check"))
    return targets


def all_targets() -> List[Target]:
    return list(TARGETS) + lint_rule_targets()


class Recorder:
    """Spans and counts of one process; appended to by every wrapper."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.lock = threading.Lock()

    def add(self, counts: Dict[str, float]) -> None:
        with self.lock:
            for key, n in counts.items():
                self.counts[key] = self.counts.get(key, 0) + n

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def extend(self, data: dict) -> None:
        """Fold in what another process recorded."""
        self.spans.extend(tuple(s) for s in data["spans"])
        self.add(data["counts"])


def _wrap(fn: Callable, target: Target, recorder: Recorder) -> Callable:
    name = target.layer
    pid = os.getpid()
    clock = time.perf_counter_ns
    spans = recorder.spans
    signature = inspect.signature(fn) if target.count is not None else None

    def finish(args: tuple, kwargs: dict, result: Any) -> None:
        if signature is None:
            return
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counts = target.count(bound, result)
        except (TypeError, KeyError, AttributeError):
            # The program changed shape under the hook; the call itself
            # succeeded, so count the miss instead of failing it.
            counts = {f"{name}.count_errors": 1}
        recorder.add(counts)

    if not target.spans:
        # Hot inner calls: the cheapest count that is still thread-safe.
        key = f"{name}.calls"
        counts, lock = recorder.counts, recorder.lock
        with lock:
            counts.setdefault(key, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with lock:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    if inspect.isgeneratorfunction(fn):
        # The work happens while the caller iterates, so the span covers
        # the whole iteration, not the call that builds the generator.
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            start = clock()
            try:
                yield from fn(*args, **kwargs)
            finally:
                spans.append((name, pid, threading.get_ident(), start, clock()))

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.append((name, pid, threading.get_ident(), start, clock()))
        finish(args, kwargs, result)
        return result

    return wrapper


def _is_async(fn: Callable) -> bool:
    return inspect.iscoroutinefunction(fn) or inspect.isasyncgenfunction(fn)


class Patcher:
    """Installs wrappers for a set of targets and restores them all.

    A module-level function is patched in its defining module and in
    every loaded ``repro.*`` module that imported it by name; a method
    is patched on its class.  ``status`` maps each target to
    ``wrapped``, ``absent`` or ``refused``.
    """

    def __init__(self, targets: Iterable[Target], recorder: Recorder) -> None:
        self.targets = list(targets)
        self.recorder = recorder
        self.status: Dict[str, str] = {}
        self._patched: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[int, object] = {}  # id(wrapper) -> original

    def __enter__(self) -> "Patcher":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def install(self) -> None:
        for target in self.targets:
            key = f"{target.layer}:{target.module}:{target.attr}"
            self.status[key] = self._install_one(target)

    def _install_one(self, target: Target) -> str:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return "absent"
        owner_name, _, attr = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if not isinstance(owner, type) or attr not in owner.__dict__:
                return "absent"
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not callable(fn):
                return "absent"
            if _is_async(fn):
                return "refused"
            wrapped = _wrap(fn, target, self.recorder)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            self._set(owner, attr, raw, wrapped)
            return "wrapped"
        fn = getattr(module, attr, None)
        if fn is None or not callable(fn):
            return "absent"
        if _is_async(fn):
            return "refused"
        wrapped = _wrap(fn, target, self.recorder)
        for mod in _repro_modules():
            if mod.__dict__.get(attr) is fn:
                self._set(mod, attr, fn, wrapped)
        return "wrapped"

    def _set(self, owner: object, attr: str, original: object, wrapped: object) -> None:
        self._patched.append((owner, attr, original))
        self._wrappers[id(wrapped)] = original
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        # Modules imported while the wrappers were in place may have
        # bound a wrapper by name; put the original back there too.
        for mod in _repro_modules():
            for attr, value in list(mod.__dict__.items()):
                original = self._wrappers.get(id(value))
                if original is not None:
                    setattr(mod, attr, original)
        self._patched.clear()
        self._wrappers.clear()


def _repro_modules() -> List[Any]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> Dict[str, int]:
    """Self time per span name, in ns.

    Spans nest per (pid, tid): a span's direct children are the spans
    that start and end inside it on the same thread.  Self time is its
    duration minus its direct children's durations.
    """
    totals: Dict[str, int] = {}
    by_thread: Dict[Tuple[int, int], List[Span]] = {}
    for span in spans:
        by_thread.setdefault((span[1], span[2]), []).append(span)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s[3], -s[4]))
        # Each stack entry: [end_ns, name, duration_ns, child_ns].
        stack: List[list] = []

        def close(entry: list) -> None:
            totals[entry[1]] = totals.get(entry[1], 0) + entry[2] - entry[3]

        for name, _pid, _tid, start, end in thread_spans:
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack and end <= stack[-1][0]:
                stack[-1][3] += end - start
            stack.append([end, name, end - start, 0])
        while stack:
            close(stack.pop())
    return totals


def span_calls(spans: Sequence[Span]) -> Counter:
    """Calls per span name."""
    return Counter(span[0] for span in spans)


# ---------------------------------------------------------------------------
# Chrome trace
# ---------------------------------------------------------------------------
def write_chrome_trace(path: Path, spans: Sequence[Span], counts: Dict[str, float]) -> None:
    """Write spans as a Chrome/Perfetto ``traceEvents`` file."""
    origin = min((s[3] for s in spans), default=0)
    events: List[dict] = [
        {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": (start - origin) / 1e3,
            "dur": (end - start) / 1e3,
        }
        for name, pid, tid, start, end in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": events, "otherData": {"counts": counts}}),
        encoding="utf-8",
    )
