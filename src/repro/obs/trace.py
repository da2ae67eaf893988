"""Nestable-span tracer with Chrome-trace export.

A :class:`Tracer` records *spans* — named, timed regions of execution —
with monotonic ``time.perf_counter_ns`` clocks and thread/process-safe
identity (every span carries the recording ``pid`` and thread id, and
nesting depth is tracked per thread).  Spans are recorded on close, so
a parent span appears after its children in the raw record list; the
renderers re-derive the tree from timestamps and depths.

Two export formats:

- :meth:`Tracer.to_chrome_trace` — the Chrome trace-event format
  (``chrome://tracing`` / Perfetto ``trace.json``): complete events
  (``"ph": "X"``) with microsecond timestamps, plus one counter event
  (``"ph": "C"``) per metric when a metrics snapshot is supplied;
- :meth:`Tracer.render_tree` — a human text tree, one line per span,
  indented by nesting depth and grouped by (pid, tid).

Disabled cost is the design constraint: :meth:`Tracer.span` returns a
single shared no-op context manager when tracing is off, so an
instrumented hot path pays one attribute read and one call per span
site and allocates nothing.

Cross-process spans: worker processes cannot append to the parent's
record list, so the fan-out (:func:`repro.runtime.parallel
.map_parallel`) times each call worker-side, returns it with the spans
the worker recorded, and replays them into the parent tracer via
:meth:`Tracer.add_span`.  On Linux
``perf_counter_ns`` is the system-wide ``CLOCK_MONOTONIC``, so worker
timestamps land on the same axis as parent spans.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "SpanRecord",
    "Tracer",
    "NULL_SPAN",
]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: a named interval on the monotonic clock."""

    span_id: int
    name: str
    start_ns: int
    duration_ns: int
    pid: int
    tid: int
    depth: int
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **args: Any) -> "_NullSpan":
        """Accept and drop attributes (mirrors :meth:`_Span.set`)."""
        return self


#: Singleton no-op span: ``span()`` returns this when tracing is off.
NULL_SPAN = _NullSpan()


class _Span:
    """A live span context manager; records itself on ``__exit__``."""

    __slots__ = ("_tracer", "name", "args", "_start_ns", "_depth")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.args = args

    def set(self, **args: Any) -> "_Span":
        """Attach/override attributes mid-span; chainable."""
        self.args.update(args)
        return self

    def __enter__(self) -> "_Span":
        self._depth = self._tracer._push()
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()
        tracer = self._tracer
        tracer._pop()
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        tracer._record(
            SpanRecord(
                span_id=next(tracer._ids),
                name=self.name,
                start_ns=self._start_ns,
                duration_ns=end_ns - self._start_ns,
                pid=os.getpid(),
                tid=threading.get_ident(),
                depth=self._depth,
                args=self.args,
            )
        )
        return False


class Tracer:
    """Thread-safe span recorder with Chrome-trace and text-tree export.

    Spans may nest arbitrarily (per-thread depth tracking); records from
    worker processes are replayed in via :meth:`add_span`.  All public
    methods are safe to call from multiple threads.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._records: List[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- recording -----------------------------------------------------
    def span(self, name: str, **args: Any):
        """A context manager timing one region; no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, args)

    def add_span(
        self,
        name: str,
        start_ns: int,
        duration_ns: int,
        pid: Optional[int] = None,
        tid: int = 0,
        depth: int = 0,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a span measured elsewhere (e.g. in a worker process)."""
        if not self.enabled:
            return
        self._record(
            SpanRecord(
                span_id=next(self._ids),
                name=name,
                start_ns=start_ns,
                duration_ns=duration_ns,
                pid=pid if pid is not None else os.getpid(),
                tid=tid,
                depth=depth,
                args=dict(args) if args else {},
            )
        )

    def _push(self) -> int:
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        return depth

    def _pop(self) -> None:
        self._local.depth = max(0, getattr(self._local, "depth", 1) - 1)

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    # -- inspection ----------------------------------------------------
    @property
    def spans(self) -> List[SpanRecord]:
        """A snapshot copy of every recorded span."""
        with self._lock:
            return list(self._records)

    def reset(self) -> None:
        """Drop all recorded spans (enabled state is unchanged)."""
        with self._lock:
            self._records.clear()

    # -- export --------------------------------------------------------
    def to_chrome_trace(
        self, metrics: Optional[object] = None
    ) -> Dict[str, Any]:
        """The trace as a Chrome trace-event JSON object.

        Timestamps are rebased to the earliest span so the trace starts
        near zero.  When ``metrics`` (a
        :class:`~repro.obs.metrics.MetricsRegistry`) is given, every
        counter and gauge is appended as a Chrome counter event
        (``"ph": "C"``) stamped at the end of the trace.
        """
        records = self.spans
        base_ns = min((r.start_ns for r in records), default=0)
        end_ns = max((r.end_ns for r in records), default=0)
        events: List[Dict[str, Any]] = []
        for r in records:
            events.append(
                {
                    "name": r.name,
                    "cat": r.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (r.start_ns - base_ns) / 1e3,
                    "dur": r.duration_ns / 1e3,
                    "pid": r.pid,
                    "tid": r.tid,
                    "args": r.args,
                }
            )
        if metrics is not None:
            snapshot = metrics.snapshot()
            ts = (end_ns - base_ns) / 1e3
            for kind in ("counters", "gauges"):
                for name, value in snapshot.get(kind, {}).items():
                    events.append(
                        {
                            "name": name,
                            "ph": "C",
                            "ts": ts,
                            "pid": os.getpid(),
                            "tid": 0,
                            "args": {"value": value},
                        }
                    )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(
        self, path, metrics: Optional[object] = None
    ) -> int:
        """Write the Chrome trace JSON to ``path``; returns span count."""
        payload = self.to_chrome_trace(metrics=metrics)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True, default=str)
            fh.write("\n")
        return len([e for e in payload["traceEvents"] if e["ph"] == "X"])

    def render_tree(self, max_spans: int = 200) -> str:
        """A human text tree: spans indented by depth, per (pid, tid)."""
        records = self.spans
        if not records:
            return "(no spans recorded)"
        base_ns = min(r.start_ns for r in records)
        groups: Dict[Tuple[int, int], List[SpanRecord]] = {}
        for r in records:
            groups.setdefault((r.pid, r.tid), []).append(r)
        own_pid = os.getpid()
        lines: List[str] = []
        shown = 0
        for (pid, tid), group in sorted(groups.items()):
            tag = "main" if pid == own_pid else f"worker pid={pid}"
            lines.append(f"[{tag} tid={tid}]")
            for r in sorted(group, key=lambda r: (r.start_ns, -r.duration_ns)):
                if shown >= max_spans:
                    lines.append(
                        f"  ... {len(records) - shown} more span(s)"
                    )
                    return "\n".join(lines)
                shown += 1
                offset_ms = (r.start_ns - base_ns) / 1e6
                attrs = " ".join(
                    f"{k}={v}" for k, v in sorted(r.args.items())
                )
                lines.append(
                    f"  {'  ' * r.depth}{r.name:<32s} "
                    f"{r.duration_ns / 1e6:>10.3f} ms  "
                    f"@{offset_ms:>10.3f} ms"
                    + (f"  [{attrs}]" if attrs else "")
                )
        return "\n".join(lines)
