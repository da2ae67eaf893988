"""``repro.obs`` — zero-dependency tracing + metrics for the simulator.

One process-wide :class:`~repro.obs.trace.Tracer` and one
:class:`~repro.obs.metrics.MetricsRegistry`, both **disabled by
default**: every instrumentation site in the ISS, the Monte Carlo
engine, the caches, and the artifact pipeline goes through the
singletons below and costs one flag check when observability is off
(``python -m bench`` runs every workload with tracing off).

Enabling:

- ``REPRO_TRACE=1`` in the environment (read once at import);
- the ``repro trace <cmd>`` / ``repro metrics <cmd>`` CLI passthroughs;
- programmatically via :func:`enable` / :func:`disable` /
  :func:`enabled_scope`.

Typical instrumentation::

    from repro import obs

    with obs.span("mc.batch", index=i, samples=n):
        evaluate(chunk)
    obs.get_metrics().counter("mc.samples").inc(n)

Export: ``repro trace artifacts`` writes a Chrome-trace JSON
(``chrome://tracing`` / Perfetto) and prints the span tree;
``repro metrics <cmd>`` prints the counter/gauge/histogram table.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.carbon import CarbonSelfTelemetry
from repro.obs.exposition import (
    negotiate_format,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_buckets,
)
from repro.obs.perf import RunPerf, Stopwatch, render_perf_table, stopwatch
from repro.obs.profiler import ProfileReport, SamplingProfiler, profile_call
from repro.obs.slo import SloObjective, SloTracker
from repro.obs.trace import NULL_SPAN, SpanRecord, Tracer

__all__ = [
    "Tracer",
    "SpanRecord",
    "NULL_SPAN",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_SECONDS_BUCKETS",
    "QUANTILES",
    "quantile_from_buckets",
    "CarbonSelfTelemetry",
    "ProfileReport",
    "SamplingProfiler",
    "profile_call",
    "SloObjective",
    "SloTracker",
    "negotiate_format",
    "render_prometheus",
    "sanitize_metric_name",
    "RunPerf",
    "Stopwatch",
    "stopwatch",
    "render_perf_table",
    "get_tracer",
    "get_metrics",
    "span",
    "traced",
    "enable",
    "disable",
    "enabled",
    "enabled_scope",
    "reset",
    "env_requests_tracing",
    "ENV_TRACE",
    "ENV_TRACE_OUT",
]

#: Environment variable that switches observability on for any entry
#: point (CLI, pytest, library use).  Falsy values: unset, "", "0",
#: "false", "no", "off" (case-insensitive).
ENV_TRACE = "REPRO_TRACE"

#: Where the CLI writes the Chrome trace when env-enabled (optional).
ENV_TRACE_OUT = "REPRO_TRACE_OUT"

_FALSY = {"", "0", "false", "no", "off"}

_TRACER = Tracer()
_METRICS = MetricsRegistry()


def get_tracer() -> Tracer:
    """The process-wide tracer singleton."""
    return _TRACER


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry singleton."""
    return _METRICS


def span(name: str, **args):
    """Open a span on the global tracer (no-op object when disabled)."""
    if not _TRACER.enabled:
        return NULL_SPAN
    return _TRACER.span(name, **args)


def traced(func=None, *, name: Optional[str] = None):
    """Decorator wrapping a function call in a span.

    Usable bare (``@traced``) or configured (``@traced(name="...")``).
    When tracing is disabled the wrapper costs one flag check.
    """
    import functools

    def decorate(target):
        label = name or f"{target.__module__}.{target.__qualname__}"

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if not _TRACER.enabled:
                return target(*args, **kwargs)
            with _TRACER.span(label):
                return target(*args, **kwargs)

        return wrapper

    if func is not None:
        return decorate(func)
    return decorate


def enable(tracing: bool = True, metrics: bool = True) -> None:
    """Switch the global tracer and/or metrics registry on."""
    if tracing:
        _TRACER.enabled = True
    if metrics:
        _METRICS.enabled = True


def disable() -> None:
    """Switch both tracing and metrics off (records are kept)."""
    _TRACER.enabled = False
    _METRICS.enabled = False


def enabled() -> bool:
    """True when either tracing or metrics collection is on."""
    return _TRACER.enabled or _METRICS.enabled


def reset() -> None:
    """Drop all recorded spans and zero every metric."""
    _TRACER.reset()
    _METRICS.reset()


@contextmanager
def enabled_scope(
    tracing: bool = True, metrics: bool = True
) -> Iterator[None]:
    """Temporarily enable observability; restores prior state on exit."""
    prior = (_TRACER.enabled, _METRICS.enabled)
    enable(tracing=tracing, metrics=metrics)
    try:
        yield
    finally:
        _TRACER.enabled, _METRICS.enabled = prior


def env_requests_tracing(environ=None) -> bool:
    """Whether ``REPRO_TRACE`` asks for observability to be on."""
    env = environ if environ is not None else os.environ
    return str(env.get(ENV_TRACE, "")).strip().lower() not in _FALSY


def _configure_from_env() -> None:
    if env_requests_tracing():
        enable()


_configure_from_env()
