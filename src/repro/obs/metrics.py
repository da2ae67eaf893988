"""Counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` owns named instruments.  Creation
(:meth:`~MetricsRegistry.counter` etc.) is locked and idempotent — the
same name always returns the same instrument.  The write path
(:meth:`Counter.inc`, :meth:`Gauge.set`, :meth:`Histogram.observe`)
takes the registry lock too: instruments are updated from the event
loop, the grid executor, and fan-out threads at once, and ``+=`` is a
read-modify-write that loses updates under that interleaving.  While
the registry is *disabled* the write path is still a single flag check
that allocates nothing, so the disabled path adds no measurable
cost.  ISS instruction-mix
numbers are aggregated from the simulator's own
:class:`~repro.cpu.simulator.ExecutionStats` *after* each run, so the
execute loop itself is never touched.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-able dicts;
:meth:`MetricsRegistry.render_text` is the ``repro metrics`` table.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "QUANTILES",
    "quantile_from_buckets",
]

#: The derived quantiles exported in snapshots and ``render_text``.
QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


def quantile_from_buckets(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Estimate the ``q``-quantile from fixed-bucket counts.

    Linear interpolation inside the bucket that contains the target
    rank, mirroring Prometheus's ``histogram_quantile``: the first
    bucket interpolates from ``min(0, bound)``; observations in the
    implicit overflow bucket clamp to the last finite bound (there is
    no upper edge to interpolate toward).  Returns 0.0 for an empty
    histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0.0
    for i, bucket_count in enumerate(counts):
        if not bucket_count:
            continue
        if cumulative + bucket_count >= rank:
            if i >= len(bounds):  # overflow bucket: clamp
                return float(bounds[-1])
            upper = float(bounds[i])
            lower = float(bounds[i - 1]) if i > 0 else min(0.0, upper)
            fraction = (rank - cumulative) / bucket_count
            return lower + (upper - lower) * fraction
        cumulative += bucket_count
    return float(bounds[-1])

#: Default histogram bucket upper bounds, tuned for wall-clock seconds.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.value = 0
        self._registry = registry

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (no-op while the registry is disabled)."""
        if self._registry.enabled:
            with self._registry._lock:
                self.value += amount


class Gauge:
    """A last-write-wins numeric metric."""

    __slots__ = ("name", "value", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.value: float = 0.0
        self._registry = registry

    def set(self, value: float) -> None:
        """Record the current level (no-op while disabled)."""
        if self._registry.enabled:
            with self._registry._lock:
                self.value = value


class Histogram:
    """A fixed-bucket histogram of observed values.

    ``bounds`` are inclusive upper edges in ascending order; an implicit
    overflow bucket catches everything above the last bound, so
    ``len(counts) == len(bounds) + 1``.
    """

    __slots__ = (
        "name", "bounds", "counts", "count", "total", "exemplars",
        "_registry",
    )

    def __init__(
        self,
        name: str,
        bounds: Sequence[float],
        registry: "MetricsRegistry",
    ) -> None:
        ordered = tuple(float(b) for b in bounds)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"histogram bounds must be non-empty, unique, and "
                f"ascending; got {bounds!r}"
            )
        self.name = name
        self.bounds = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        #: Per-bucket last exemplar: ``(value, span_id)`` or None.
        self.exemplars: List[Optional[Tuple[float, str]]] = (
            [None] * (len(ordered) + 1)
        )
        self._registry = registry

    def observe(self, value: float, span_id: Optional[str] = None) -> None:
        """Record one observation (no-op while disabled).

        ``span_id`` attaches an exemplar to the bucket the value lands
        in — the Prometheus/OpenMetrics bridge from an aggregate bucket
        back to one concrete traced request.  Only the most recent
        exemplar per bucket is kept.
        """
        if not self._registry.enabled:
            return
        with self._registry._lock:
            index = bisect.bisect_left(self.bounds, value)
            self.counts[index] += 1
            self.count += 1
            self.total += value
            if span_id is not None:
                self.exemplars[index] = (value, span_id)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The estimated ``q``-quantile (see :func:`quantile_from_buckets`)."""
        with self._registry._lock:
            return quantile_from_buckets(self.bounds, self.counts, q)


class MetricsRegistry:
    """Named counters/gauges/histograms with JSON snapshots.

    Instruments are process-local; worker processes aggregate into their
    own registry copies, and fan-out sites fold what matters back into
    the parent (see :mod:`repro.runtime.parallel`).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument creation (idempotent) ------------------------------
    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name, self)
            return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name, self)
            return instrument

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram named ``name``, created on first use.

        Re-requesting an existing histogram with *different* explicit
        bounds raises — silently returning mismatched buckets would
        corrupt the aggregation.
        """
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    name, bounds or DEFAULT_SECONDS_BUCKETS, self
                )
            elif bounds is not None and tuple(
                float(b) for b in bounds
            ) != instrument.bounds:
                raise ValueError(
                    f"histogram {name!r} already exists with bounds "
                    f"{instrument.bounds}"
                )
            return instrument

    # -- lifecycle -----------------------------------------------------
    def reset(self) -> None:
        """Zero every instrument (registrations and bounds survive)."""
        with self._lock:
            for counter in self._counters.values():
                counter.value = 0
            for gauge in self._gauges.values():
                gauge.value = 0.0
            for hist in self._histograms.values():
                hist.counts = [0] * (len(hist.bounds) + 1)
                hist.count = 0
                hist.total = 0.0
                hist.exemplars = [None] * (len(hist.bounds) + 1)

    # -- export --------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able copy of every instrument's current state."""
        with self._lock:
            return {
                "counters": {
                    name: c.value
                    for name, c in sorted(self._counters.items())
                },
                "gauges": {
                    name: g.value
                    for name, g in sorted(self._gauges.items())
                },
                "histograms": {
                    name: {
                        "bounds": list(h.bounds),
                        "counts": list(h.counts),
                        "count": h.count,
                        "sum": h.total,
                        "mean": h.mean,
                        **{
                            f"p{q * 100:g}": quantile_from_buckets(
                                h.bounds, h.counts, q
                            )
                            for q in QUANTILES
                        },
                    }
                    for name, h in sorted(self._histograms.items())
                },
            }

    def exemplar_snapshot(
        self,
    ) -> Dict[str, List[Optional[Tuple[float, str]]]]:
        """Per-histogram bucket exemplars (for OpenMetrics exposition).

        Histograms with no exemplars at all are omitted, so the common
        no-tracing case costs nothing to render.
        """
        with self._lock:
            return {
                name: list(h.exemplars)
                for name, h in sorted(self._histograms.items())
                if any(e is not None for e in h.exemplars)
            }

    def render_text(self, skip_zero: bool = True) -> str:
        """The ``repro metrics`` summary table."""
        snap = self.snapshot()
        lines: List[str] = []
        counters = {
            k: v
            for k, v in snap["counters"].items()
            if v or not skip_zero
        }
        if counters:
            lines.append(f"{'counter':40s} {'value':>14s}")
            lines.extend(
                f"{name:40s} {value:>14,}"
                for name, value in counters.items()
            )
        gauges = {
            k: v for k, v in snap["gauges"].items() if v or not skip_zero
        }
        if gauges:
            if lines:
                lines.append("")
            lines.append(f"{'gauge':40s} {'value':>14s}")
            lines.extend(
                f"{name:40s} {value:>14.6g}"
                for name, value in gauges.items()
            )
        histograms = {
            k: v
            for k, v in snap["histograms"].items()
            if v["count"] or not skip_zero
        }
        if histograms:
            if lines:
                lines.append("")
            lines.append(
                f"{'histogram':40s} {'count':>8s} {'mean':>12s} "
                f"{'p50':>10s} {'p90':>10s} {'p99':>10s} "
                f"{'buckets (<=bound: n)':s}"
            )
            for name, h in histograms.items():
                cells = [
                    f"{bound:g}:{n}"
                    for bound, n in zip(h["bounds"], h["counts"])
                    if n
                ]
                if h["counts"][-1]:
                    cells.append(f">{h['bounds'][-1]:g}:{h['counts'][-1]}")
                lines.append(
                    f"{name:40s} {h['count']:>8,} {h['mean']:>12.6g} "
                    f"{h['p50']:>10.4g} {h['p90']:>10.4g} "
                    f"{h['p99']:>10.4g} "
                    f"{' '.join(cells)}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"
