"""Work-conserving request coalescing for point queries.

Concurrent ``POST /v1/tcdp`` requests land here as individual
``(PointQuery, Future)`` pairs.  The worker wakes on the first
submission, yields to the event loop once so requests submitted in the
same turn can join, and hands everything queued (up to ``max_batch``)
to a single tensor evaluation.  No timer holds a lone request back;
requests that arrive while a batch evaluates form the next batch, so
under load batches still grow with the arrival rate.  An optional
``window_s`` instead waits a fixed time for stragglers.  Because the
batched evaluator is bit-identical to the scalar stack, coalescing is
invisible to clients — it only changes how much numpy dispatch
overhead each request amortizes.

Queue depth is bounded: when ``max_pending`` requests are already
waiting, new submissions are shed immediately with
:class:`QueueFullError` (served as HTTP 429) instead of growing an
unbounded backlog.  :meth:`RequestBatcher.stop` drains — every request
already admitted is evaluated and resolved before the worker exits,
which is what makes SIGTERM graceful.

Observability: ``serve.batch.count`` / ``serve.batch.queries`` counters,
a ``serve.batch.occupancy`` histogram (the evidence that coalescing
actually happened), live ``serve.queue.depth``
and ``serve.batch.last_occupancy`` gauges (scraped via ``/metricz`` and
stamped into every access-log line), and ``serve.shed.total`` for 429s.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Awaitable, Callable, List, Optional, Sequence, Tuple

from repro import obs

__all__ = ["QueueFullError", "RequestBatcher", "OCCUPANCY_BOUNDS"]

#: Batch-occupancy histogram buckets (inclusive upper edges; the
#: registry adds an overflow bucket above the last bound).
OCCUPANCY_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class QueueFullError(RuntimeError):
    """Raised by :meth:`RequestBatcher.submit` when the queue is full."""


class RequestBatcher:
    """Coalesce submitted items into batched evaluator calls.

    Args:
        evaluate: called with the list of queued items; returns one
            result per item, in order.  Runs on the event loop thread —
            for the PPAtC point evaluator (tens of microseconds per
            query) that is the right trade; a heavier model would hand
            off to a thread.
        window_s: how long the worker waits after the first item of a
            batch for stragglers to join it.  The default ``0`` is
            work-conserving: it evaluates whatever is queued after one
            event-loop turn.
        max_batch: hard cap on items per evaluator call.
        max_pending: queue-depth bound; beyond it submissions shed.
    """

    def __init__(
        self,
        evaluate: Callable[[Sequence[Any]], Sequence[Any]],
        window_s: float = 0.0,
        max_batch: int = 128,
        max_pending: int = 1024,
    ) -> None:
        if not (0.0 <= window_s < math.inf):  # NaN fails too
            raise ValueError(f"window_s must be finite and >= 0, got {window_s}")
        if max_batch < 1 or max_pending < 1:
            raise ValueError("max_batch and max_pending must be >= 1")
        self._evaluate = evaluate
        self.window_s = window_s
        self.max_batch = max_batch
        self.max_pending = max_pending
        self._pending: List[Tuple[Any, "asyncio.Future[Any]"]] = []
        self._wakeup: Optional["asyncio.Event"] = None
        self._stop_event: Optional["asyncio.Event"] = None
        self._worker: Optional["asyncio.Task[None]"] = None
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start the worker task on the running event loop."""
        if self._worker is not None:
            raise RuntimeError("batcher already started")
        self._stopping = False
        self._wakeup = asyncio.Event()
        self._stop_event = asyncio.Event()
        self._worker = asyncio.get_running_loop().create_task(
            self._run(), name="repro-serve-batcher"
        )

    async def stop(self) -> None:
        """Drain the queue, then stop the worker."""
        if self._worker is None:
            return
        self._stopping = True
        assert self._wakeup is not None and self._stop_event is not None
        self._stop_event.set()
        self._wakeup.set()
        await self._worker
        self._worker = None
        self._wakeup = None
        self._stop_event = None

    @property
    def pending(self) -> int:
        return len(self._pending)

    # -- submission --------------------------------------------------------
    def submit(self, item: Any) -> "Awaitable[Any]":
        """Queue one item; the returned future resolves to its result."""
        if self._worker is None or self._stopping:
            raise RuntimeError("batcher is not accepting work")
        if len(self._pending) >= self.max_pending:
            obs.get_metrics().counter("serve.shed.total").inc()
            raise QueueFullError(
                f"queue depth {self.max_pending} exceeded"
            )
        future: "asyncio.Future[Any]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending.append((item, future))
        obs.get_metrics().gauge("serve.queue.depth").set(
            len(self._pending)
        )
        assert self._wakeup is not None
        self._wakeup.set()
        return future

    # -- worker ------------------------------------------------------------
    async def _run(self) -> None:
        assert self._wakeup is not None
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if not self._pending:
                if self._stopping:
                    return
                continue
            # With no window (the default), yield once so coroutines
            # submitting in this turn join the batch, then evaluate.  A
            # window opens on the first arrival; stop() ends it early so
            # drain never waits out a long window.
            if not self._stopping:
                if self.window_s == 0:
                    await asyncio.sleep(0)
                else:
                    assert self._stop_event is not None
                    waiter = asyncio.get_running_loop().create_task(
                        self._stop_event.wait()
                    )
                    await asyncio.wait({waiter}, timeout=self.window_s)
                    if not waiter.done():
                        waiter.cancel()
            while self._pending:
                self._flush(self._pending[: self.max_batch])
                del self._pending[: self.max_batch]
            obs.get_metrics().gauge("serve.queue.depth").set(0)
            if self._stopping and not self._pending:
                return

    def _flush(
        self, batch: Sequence[Tuple[Any, "asyncio.Future[Any]"]]
    ) -> None:
        metrics = obs.get_metrics()
        metrics.counter("serve.batch.count").inc()
        metrics.counter("serve.batch.queries").inc(len(batch))
        metrics.histogram(
            "serve.batch.occupancy", OCCUPANCY_BOUNDS
        ).observe(len(batch))
        metrics.gauge("serve.batch.last_occupancy").set(len(batch))
        items = [item for item, _ in batch]
        try:
            with obs.span("serve.batch", occupancy=len(batch)):
                results = self._evaluate(items)
        except Exception as exc:  # propagate one failure to all waiters
            for _, future in batch:
                if not future.cancelled():
                    future.set_exception(exc)
            return
        for (_, future), result in zip(batch, results):
            if not future.cancelled():
                future.set_result(result)
