"""The PPAtC query server: asyncio front door over the model stack.

Routes:

- ``POST /v1/tcdp``    — one design-point query (``ppatc-point/1``);
  point queries ride the request batcher, so concurrent clients are
  coalesced into single tensor evaluations.
- ``POST /v1/grid``    — one trade-off-map tile (``ppatc-grid/1``);
  already a tensor evaluation, dispatched inline, Monte Carlo overlays
  memoized through the shared warm ``SweepCache``.
- ``GET /healthz``     — liveness + readiness (bases warmed), SLO
  burn rates, and the process's own live operational gCO2e.
- ``GET /metricz``     — the ``repro.obs`` metrics snapshot; content
  negotiation serves Prometheus text 0.0.4 to ``Accept: text/plain``
  scrapers and OpenMetrics (with request-id exemplars) to
  ``Accept: application/openmetrics-text``; JSON stays the default.
- ``GET /debugz``      — the flight recorder's tail-sampled dump: the
  last N requests in full, plus every retained error and the slowest-K.
- ``GET /profilez``    — live continuous-profiler snapshot (enabled
  with ``--profile-hz``); collapsed flamegraph text via
  ``Accept: text/plain``, JSON folded stacks otherwise.

Operational behavior: bounded batcher queue with HTTP 429 shedding,
per-request ``serve.request`` spans, a flush-per-record JSON-lines
access log carrying live queue depth, HTTP/1.1 keep-alive, SIGUSR2
flight-recorder dumps to disk, periodic carbon self-telemetry sampling
(``serve.carbon.*`` gauges), and graceful drain — SIGTERM/SIGINT stop
the listener, let in-flight requests finish (draining the batcher
queue), then close.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, TextIO

from repro import obs
from repro.core.carbon_intensity import grid_intensity
from repro.obs.carbon import CarbonSelfTelemetry
from repro.obs.exposition import (
    CONTENT_TYPE_OPENMETRICS,
    CONTENT_TYPE_TEXT,
    negotiate_format,
    render_prometheus,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.slo import SloObjective, SloTracker
from repro.serve.flight import FlightRecorder
from repro.serve.http import (
    HttpError,
    HttpRequest,
    error_response,
    json_response,
    read_request,
    text_response,
)
from repro.serve.model import (
    SUPPORTED_GRIDS,
    GridQuery,
    ModelContext,
    PointQuery,
    QueryError,
    evaluate_grid,
    evaluate_points_batched,
)
from repro.serve.batcher import (
    BatcherClosedError,
    QueueFullError,
    RequestBatcher,
)

__all__ = ["ServerConfig", "PpatcServer", "run_server"]

#: Request-latency histogram buckets, in seconds.
_LATENCY_BOUNDS = (
    0.0005, 0.001, 0.002, 0.005, 0.010, 0.025, 0.050, 0.100, 0.250, 1.0
)


@dataclass(frozen=True)
class ServerConfig:
    """Everything `repro serve` can tune."""

    host: str = "127.0.0.1"
    port: int = 8080  # 0 = ephemeral (the bound port is on PpatcServer)
    grids: Sequence[str] = SUPPORTED_GRIDS
    clock_mhz: float = 500.0
    batch_window_s: float = 0.0  # 0 = work-conserving batching
    max_batch: int = 128
    max_pending: int = 1024
    access_log: Optional[str] = None  # JSON-lines path; None = stderr off
    sweep_cache: bool = True
    # -- observability ----------------------------------------------------
    profile_hz: float = 0.0  # 0 = continuous profiler off
    flight_capacity: int = 256
    flight_slowest: int = 16
    flight_dump_path: Optional[str] = None  # SIGUSR2 target; None = cwd
    carbon_grid: str = "us"  # CI the self-telemetry charges energy at
    carbon_sample_s: float = 5.0
    slo_availability_target: float = 0.999
    slo_latency_target: float = 0.99
    slo_latency_ms: float = 100.0


class PpatcServer:
    """One server instance; start/serve/stop are all asyncio-native."""

    def __init__(
        self, config: ServerConfig, access_log_stream: Optional[TextIO] = None
    ) -> None:
        self.config = config
        cache = None
        if config.sweep_cache:
            from repro.runtime.cache import SweepCache

            cache = SweepCache()
        self.context = ModelContext(
            grids=config.grids,
            clock_mhz=config.clock_mhz,
            sweep_cache=cache,
        )
        self.batcher = RequestBatcher(
            self._evaluate_batch,
            window_s=config.batch_window_s,
            max_batch=config.max_batch,
            max_pending=config.max_pending,
        )
        # Grid tiles are full tensor evaluations; they run on this
        # single-thread executor so they never stall the event loop
        # (RPL009) while staying serialized exactly as they were when
        # dispatched inline — same evaluation order, same SweepCache
        # access pattern, bit-identical responses.
        self._grid_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="ppatc-grid"
        )
        self.flight = FlightRecorder(
            capacity=config.flight_capacity,
            slowest_k=config.flight_slowest,
        )
        self.slo = SloTracker(
            [
                SloObjective(
                    "availability", target=config.slo_availability_target
                ),
                SloObjective(
                    "latency",
                    target=config.slo_latency_target,
                    latency_threshold_s=config.slo_latency_ms / 1e3,
                ),
            ]
        )
        self.carbon = CarbonSelfTelemetry(
            ci=None
            if config.carbon_grid == "us"
            else _carbon_ci(config.carbon_grid),
            registry=obs.get_metrics(),
        )
        self.profiler: Optional[SamplingProfiler] = (
            SamplingProfiler(
                hz=config.profile_hz, registry=obs.get_metrics()
            )
            if config.profile_hz > 0
            else None
        )
        self._carbon_task: Optional["asyncio.Task[None]"] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._started_at: Optional[float] = None
        self._access_log = access_log_stream
        self._access_log_owned = False
        self.requests_served = 0
        self._request_seq = 0

    # -- lifecycle ---------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        assert self._server is not None and self._server.sockets
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        """Warm the model bases and open the listening socket."""
        obs.enable(tracing=False, metrics=True)
        warmed = self.context.warm()
        obs.get_metrics().gauge("serve.bases.warm").set(warmed)
        if self.config.access_log and self._access_log is None:
            # One-time open before the listener accepts traffic; no
            # requests are in flight yet, so nothing can stall.
            self._access_log = open(  # noqa: SIM115 - closed in stop()  # repro-lint: disable=RPL009 - one-time startup open before the listener accepts traffic
                self.config.access_log, "a", encoding="utf-8"
            )
            self._access_log_owned = True
        if self.profiler is not None:
            self.profiler.start()
        self.batcher.start()
        self.carbon.sample()
        self._carbon_task = asyncio.get_running_loop().create_task(
            self._carbon_loop(), name="repro-serve-carbon"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        # time.time() is wall-clock for the uptime report only; it never
        # enters a model result.
        self._started_at = time.time()  # repro-lint: disable=RPL002 - uptime metadata, not model output

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, close."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.batcher.stop()
        self._grid_executor.shutdown(wait=True)
        if self._carbon_task is not None:
            self._carbon_task.cancel()
            try:
                await self._carbon_task
            except asyncio.CancelledError:
                pass
            self._carbon_task = None
            self.carbon.sample()  # final accounting up to shutdown
        if self.profiler is not None and self.profiler.running:
            self.profiler.stop()
        if self._access_log is not None:
            self._access_log.flush()
            if self._access_log_owned:
                self._access_log.close()
            self._access_log = None

    async def serve_until_signal(
        self, signals: Sequence[int] = (signal.SIGTERM, signal.SIGINT)
    ) -> None:
        """Run until one of ``signals`` arrives, then drain and return.

        SIGUSR2 (where the platform has it) is additionally wired to
        dump the flight recorder to disk without stopping the server.
        """
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in signals:
            loop.add_signal_handler(sig, stop_event.set)
        usr2 = getattr(signal, "SIGUSR2", None)
        if usr2 is not None:
            loop.add_signal_handler(usr2, self.dump_flight)
        try:
            await stop_event.wait()
        finally:
            for sig in signals:
                loop.remove_signal_handler(sig)
            if usr2 is not None:
                loop.remove_signal_handler(usr2)
            await self.stop()

    def dump_flight(self, path: Optional[str] = None) -> str:
        """Write the flight-recorder dump as JSON; returns the path."""
        target = path or self.config.flight_dump_path
        if target is None:
            target = f"ppatc-flight-{os.getpid()}.json"
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(self.flight.dump(), fh, indent=1)
            fh.write("\n")
        obs.get_metrics().counter("serve.flight.dumps").inc()
        return target

    async def _carbon_loop(self) -> None:
        """Periodically advance the operational-carbon accounting."""
        while True:
            await asyncio.sleep(self.config.carbon_sample_s)
            self.carbon.sample()

    # -- evaluation --------------------------------------------------------
    def _evaluate_batch(
        self, queries: Sequence[PointQuery]
    ) -> List[Dict[str, Any]]:
        return evaluate_points_batched(self.context, queries)

    async def _evaluate_point(self, query: PointQuery) -> Dict[str, Any]:
        try:
            return await self.batcher.submit(query)
        except QueueFullError as exc:
            raise HttpError(429, str(exc), keep_alive=True)
        except BatcherClosedError:
            raise HttpError(503, "server is draining", keep_alive=False)
        except QueryError as exc:
            raise HttpError(400, str(exc), keep_alive=True)

    # -- request handling --------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        metrics = obs.get_metrics()
        metrics.counter("serve.connections.total").inc()
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    metrics.counter("serve.errors.protocol").inc()
                    writer.write(error_response(exc))
                    await writer.drain()
                    if not exc.keep_alive:
                        break
                    continue
                if request is None:
                    break
                keep_alive = request.keep_alive and not self._draining
                keep_alive = await self._respond(request, writer, keep_alive)
                self.requests_served += 1
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            metrics.counter("serve.connections.reset").inc()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> bool:
        """Serve one request; returns whether to keep the connection."""
        metrics = obs.get_metrics()
        loop = asyncio.get_running_loop()
        self._request_seq += 1
        request_id = f"{self._request_seq:08x}"
        queue_depth = self.batcher.pending
        start = loop.time()  # monotonic event-loop clock, RPL002-clean
        status = 200
        with obs.span(
            "serve.request", method=request.method, target=request.target
        ) as span:
            try:
                body = await self._route(request)
                if isinstance(body, bytes):
                    response = body  # pre-rendered (content-negotiated)
                else:
                    response = json_response(
                        200, body, keep_alive=keep_alive
                    )
            except HttpError as exc:
                status = exc.status
                keep_alive = keep_alive and exc.keep_alive
                exc.keep_alive = keep_alive
                response = error_response(exc)
            except Exception:
                status = 500
                keep_alive = False
                metrics.counter("serve.errors.internal").inc()
                response = error_response(
                    HttpError(500, "internal error", keep_alive=False)
                )
            span.set(status=status)
            writer.write(response)
            await writer.drain()
        elapsed = loop.time() - start
        metrics.counter("serve.requests.total").inc()
        metrics.counter(f"serve.status.{status}").inc()
        metrics.histogram("serve.request.seconds", _LATENCY_BOUNDS).observe(
            elapsed, span_id=request_id
        )
        self.slo.record(elapsed, ok=status < 500)
        self.flight.record(
            request_id=request_id,
            method=request.method,
            target=request.target,
            status=status,
            latency_s=elapsed,
            ts=time.time(),  # repro-lint: disable=RPL002 - flight-recorder timestamp, not model output
            queue_depth=queue_depth,
            bytes_in=len(request.body),
        )
        self._log_access(request, status, elapsed, request_id, queue_depth)
        return keep_alive

    async def _route(self, request: HttpRequest) -> Any:
        method, target = request.method, request.target.split("?", 1)[0]
        if target == "/healthz":
            if method != "GET":
                raise HttpError(405, "use GET", keep_alive=True)
            return self._healthz()
        if target == "/metricz":
            if method != "GET":
                raise HttpError(405, "use GET", keep_alive=True)
            return self._metricz(request)
        if target == "/debugz":
            if method != "GET":
                raise HttpError(405, "use GET", keep_alive=True)
            return self.flight.dump()
        if target == "/profilez":
            if method != "GET":
                raise HttpError(405, "use GET", keep_alive=True)
            return self._profilez(request)
        if target == "/v1/tcdp":
            if method != "POST":
                raise HttpError(405, "use POST", keep_alive=True)
            query = self._parse(PointQuery, request)
            return await self._evaluate_point(query)
        if target == "/v1/grid":
            if method != "POST":
                raise HttpError(405, "use POST", keep_alive=True)
            grid_query = self._parse(GridQuery, request)
            try:
                return await asyncio.get_running_loop().run_in_executor(
                    self._grid_executor, evaluate_grid, self.context, grid_query
                )
            except QueryError as exc:
                raise HttpError(400, str(exc), keep_alive=True)
        raise HttpError(404, f"no route for {target}", keep_alive=True)

    def _metricz(self, request: HttpRequest) -> Any:
        """JSON snapshot by default; Prometheus text when asked for."""
        fmt = negotiate_format(request.headers.get("accept"))
        if fmt == "json":
            return obs.get_metrics().snapshot()
        openmetrics = fmt == "openmetrics"
        text = render_prometheus(
            obs.get_metrics(), openmetrics=openmetrics
        )
        content_type = (
            CONTENT_TYPE_OPENMETRICS if openmetrics else CONTENT_TYPE_TEXT
        )
        return text_response(200, text, content_type=content_type)

    def _profilez(self, request: HttpRequest) -> Any:
        if self.profiler is None:
            raise HttpError(
                404,
                "profiler disabled; start the server with --profile-hz",
                keep_alive=True,
            )
        report = self.profiler.snapshot()
        if negotiate_format(request.headers.get("accept")) != "json":
            return text_response(200, report.to_collapsed())
        return report.to_json()

    @staticmethod
    def _parse(query_cls: Any, request: HttpRequest) -> Any:
        try:
            return query_cls.from_payload(request.json_body())
        except QueryError as exc:
            raise HttpError(400, str(exc), keep_alive=True)

    def _healthz(self) -> Dict[str, Any]:
        uptime = 0.0
        if self._started_at is not None:
            uptime = time.time() - self._started_at  # repro-lint: disable=RPL002 - uptime metadata, not model output
        return {
            "status": "draining" if self._draining else "ok",
            "mode": "batched",
            "grids": list(self.context.grids),
            "clock_mhz": self.context.clock_mhz,
            "uptime_s": uptime,
            "requests_served": self.requests_served,
            "queue_depth": self.batcher.pending,
            "slo": self.slo.report(),
            "carbon": self.carbon.sample(),
            "profiler_hz": (
                self.profiler.hz if self.profiler is not None else 0.0
            ),
            "flight_recorded": self.flight.recorded,
        }

    def _log_access(
        self,
        request: HttpRequest,
        status: int,
        elapsed_s: float,
        request_id: str,
        queue_depth: int,
    ) -> None:
        if self._access_log is None:
            return
        record = {
            "ts": time.time(),  # repro-lint: disable=RPL002 - access-log timestamp, not model output
            "request_id": request_id,
            "method": request.method,
            "target": request.target,
            "status": status,
            "elapsed_ms": round(elapsed_s * 1e3, 3),
            "bytes_in": len(request.body),
            "queue_depth": queue_depth,
            "batch_occupancy": obs.get_metrics()
            .gauge("serve.batch.last_occupancy")
            .value,
        }
        self._access_log.write(json.dumps(record, separators=(",", ":")))
        self._access_log.write("\n")
        # Flush per record: a SIGTERM drain (or a crash right after it)
        # must never lose the lines describing the requests it drained.
        self._access_log.flush()


def _carbon_ci(grid: str) -> Any:
    from repro.core.carbon_intensity import ConstantCarbonIntensity

    return ConstantCarbonIntensity(grid_intensity(grid), name=grid)


async def run_server(
    config: ServerConfig, announce: Optional[TextIO] = None
) -> None:
    """Boot, announce the bound address, and serve until SIGTERM/SIGINT."""
    server = PpatcServer(config)
    await server.start()
    stream = announce if announce is not None else sys.stdout
    print(
        f"repro-serve listening on http://{config.host}:{server.port} "
        f"(batched mode, grids: {','.join(server.context.grids)})",
        file=stream,
        flush=True,
    )
    await server.serve_until_signal()
