"""Process-pool fan-out with a serial fallback, and the cached ISS suite.

:func:`map_parallel` is the one fan-out: apply a picklable function to
a list of payloads, preserving order, over a ``ProcessPoolExecutor``.
It runs serially in-process when one job is requested, when only one
CPU is available, or when worker processes cannot be spawned at all
(sandboxed environments).  With tracing or metrics on, each worker call
hands back the spans and counter increments it recorded, and the parent
records them again, so ``repro trace`` and ``repro metrics`` see the
same spans and counters at any job count.  The Monte Carlo sweeps, the
linter and the suite runner all fan out through it.

:func:`run_workloads` executes a list of workloads and returns results
in input order.  Cache hits resolve in the parent without spawning
anything; only misses go to :func:`map_parallel`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union,
)

_T = TypeVar("_T")
_R = TypeVar("_R")

from repro import obs
from repro.obs.perf import RunPerf
from repro.obs.trace import SpanRecord
from repro.runtime.cache import ResultCache
from repro.workloads.suite import Workload, WorkloadResult, run_workload


@dataclass
class SuiteRunReport:
    """Outcome of one suite fan-out."""

    results: List[WorkloadResult]
    perfs: List[RunPerf]
    wall_seconds: float
    #: Worker processes the cache misses were given (1 with none).
    jobs: int
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def total_instructions(self) -> int:
        return sum(r.instructions for r in self.results)

    @property
    def mips(self) -> float:
        """Aggregate simulated MIPS over the suite wall time."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_instructions / self.wall_seconds / 1e6


def resolve_jobs(requested: Optional[int], n_tasks: int) -> int:
    """The worker count to use: explicit, else one per available CPU."""
    if requested is not None:
        if requested < 1:
            raise ValueError(f"jobs must be >= 1, got {requested}")
        return min(requested, max(n_tasks, 1))
    return min(os.cpu_count() or 1, max(n_tasks, 1))


def map_parallel(
    func: "Callable[[_T], _R]",
    payloads: Sequence[_T],
    jobs: Optional[int] = None,
    label: Optional[str] = None,
) -> "List[_R]":
    """Apply ``func`` to every payload, preserving input order.

    ``func`` must be a module-level (picklable) callable.  ``jobs=None``
    auto-sizes to the CPU count; ``jobs=1`` runs serially in-process.
    When worker processes cannot be spawned (sandboxes), the payloads
    fall back to serial execution — results are identical either way,
    only wall time changes.

    ``label`` names the fan-out in trace spans (defaults to the
    function name): one ``parallel.map.<label>`` span around the map and
    one ``<label>`` span per payload, under which a worker's own spans
    nest.  With tracing and metrics off the pool maps ``func`` directly.
    """
    workers = resolve_jobs(jobs, len(payloads))
    tracer, metrics = obs.get_tracer(), obs.get_metrics()
    flags = (tracer.enabled, metrics.enabled)
    label = label or getattr(func, "__name__", "call")
    if metrics.enabled:
        metrics.counter("parallel.maps").inc()
        metrics.counter("parallel.chunks").inc(len(payloads))
    with tracer.span(
        f"parallel.map.{label}", items=len(payloads), jobs=workers
    ) as sp:
        if len(payloads) > 1 and workers > 1:
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    if not any(flags):
                        return list(pool.map(func, payloads))
                    raw = list(pool.map(
                        _observed_call, [(func, p, *flags) for p in payloads]
                    ))
            except (OSError, PermissionError):
                sp.set(fallback="serial")
            else:
                return [_replay(label, i, *out) for i, out in enumerate(raw)]
        results = []
        for i, p in enumerate(payloads):
            with tracer.span(label, index=i):
                results.append(func(p))
        return results


def _observed_call(
    payload: "Tuple[Callable[[_T], _R], _T, bool, bool]",
) -> "Tuple[_R, int, int, int, List[SpanRecord], Dict[str, int]]":
    """Worker-side shim (module-level for pickling).

    Runs one payload under the parent's tracing and metrics flags and
    returns ``(result, pid, start_ns, duration_ns, spans, counters)``:
    the spans and non-zero counter increments recorded during the call.
    The worker's recorders are cleared first, so nothing inherited from
    the parent or from an earlier payload is sent back.  On Linux
    ``perf_counter_ns`` is system-wide ``CLOCK_MONOTONIC``, so worker
    timestamps share the parent's time axis.
    """
    func, item, tracing, counting = payload
    tracer, metrics = obs.get_tracer(), obs.get_metrics()
    tracer.enabled, metrics.enabled = tracing, counting
    tracer.reset()
    metrics.reset()
    start_ns = time.perf_counter_ns()
    result = func(item)
    duration_ns = time.perf_counter_ns() - start_ns
    counters = {
        name: value
        for name, value in metrics.snapshot()["counters"].items()
        if value
    }
    return result, os.getpid(), start_ns, duration_ns, tracer.spans, counters


def _replay(
    label: str,
    index: int,
    result: "_R",
    pid: int,
    start_ns: int,
    duration_ns: int,
    spans: List[SpanRecord],
    counters: Dict[str, int],
) -> "_R":
    """Record one worker call's span, its worker spans (nested under
    it) and its counter increments in the parent; return its result.

    A forked worker inherits the forking thread's span depth, so worker
    depths are rebased on the outermost span of the call.
    """
    tracer, metrics = obs.get_tracer(), obs.get_metrics()
    tracer.add_span(
        label, start_ns, duration_ns, pid=pid, args={"index": index}
    )
    base = min((record.depth for record in spans), default=0)
    for record in spans:
        tracer.add_span(
            record.name,
            record.start_ns,
            record.duration_ns,
            pid=pid,
            depth=record.depth - base + 1,
            args=record.args,
        )
    for name, value in counters.items():
        metrics.counter(name).inc(value)
    return result


def _execute_one(payload: Tuple[Workload, int]) -> Tuple[WorkloadResult, float]:
    """Worker-side entry point (module-level for pickling)."""
    workload, max_cycles = payload
    start = time.perf_counter()
    result = run_workload(workload, max_cycles=max_cycles)
    return result, time.perf_counter() - start


def run_workloads(
    workloads: Sequence[Workload],
    max_cycles: int = 500_000_000,
    jobs: Optional[int] = None,
    cache: Union[ResultCache, None, bool] = None,
) -> SuiteRunReport:
    """Run workloads, preserving order, via cache + :func:`map_parallel`.

    Args:
        workloads: Workloads to execute.
        max_cycles: Cycle budget per run (part of the cache key).
        jobs: Worker processes; ``None`` auto-sizes to the CPU count,
            ``1`` forces serial execution in-process.
        cache: A :class:`ResultCache`, ``None`` for the default cache,
            or ``False`` to disable caching entirely.
    """
    start = time.perf_counter()
    use_cache = cache is not False
    result_cache: Optional[ResultCache] = None
    if use_cache:
        result_cache = cache if isinstance(cache, ResultCache) else ResultCache()

    n = len(workloads)
    results: List[Optional[WorkloadResult]] = [None] * n
    perfs: List[Optional[RunPerf]] = [None] * n

    # Resolve cache hits in the parent; only misses fan out.
    pending: List[int] = []
    hits = 0
    for i, workload in enumerate(workloads):
        if result_cache is not None:
            t0 = time.perf_counter()
            found = result_cache.get(workload, max_cycles)
            if found is not None:
                results[i] = found
                perfs[i] = RunPerf(
                    name=workload.name,
                    wall_seconds=time.perf_counter() - t0,
                    cycles=found.cycles,
                    instructions=found.instructions,
                    cached=True,
                )
                hits += 1
                continue
        pending.append(i)

    workers = resolve_jobs(jobs, len(pending))
    if pending:
        payloads = [(workloads[i], max_cycles) for i in pending]
        runs = map_parallel(
            _execute_one, payloads, jobs=workers, label="iss.workload"
        )
        for i, (result, wall) in zip(pending, runs):
            results[i] = result
            perfs[i] = RunPerf(
                name=result.workload.name,
                wall_seconds=wall,
                cycles=result.cycles,
                instructions=result.instructions,
                cached=False,
            )
            if result_cache is not None:
                result_cache.put(result, max_cycles)

    return SuiteRunReport(
        results=[r for r in results if r is not None],
        perfs=[p for p in perfs if p is not None],
        wall_seconds=time.perf_counter() - start,
        jobs=workers,
        cache_hits=hits,
        cache_misses=len(pending),
    )
