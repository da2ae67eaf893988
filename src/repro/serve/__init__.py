"""PPAtC-as-a-service: the async query front door (`repro serve`).

A zero-dependency asyncio HTTP server exposing the paper's trade-off
model as an API — ``POST /v1/tcdp`` for single design points,
``POST /v1/grid`` for trade-off-map tiles, plus ``/healthz`` and
``/metricz``.  Concurrent point queries are coalesced by a request
batcher into single tensor evaluations that are bit-identical to the
scalar model stack, which the differential tests in ``tests/serve``
and the ``serve_mix`` workload of ``python -m bench`` verify.

Modules:

- :mod:`repro.serve.http` — minimal HTTP/1.1 framing over asyncio streams;
- :mod:`repro.serve.model` — query validation + the two bit-equal
  evaluators (scalar oracle, batched tensor path);
- :mod:`repro.serve.batcher` — work-conserving coalescing, 429 shedding;
- :mod:`repro.serve.flight` — tail-sampled flight recorder (``/debugz``);
- :mod:`repro.serve.server` — routes, obs integration, graceful drain;
- :mod:`repro.serve.loadgen` — deterministic closed-loop load.
"""

from repro.serve.batcher import (
    BatcherClosedError,
    QueueFullError,
    RequestBatcher,
)
from repro.serve.flight import FlightRecorder
from repro.serve.model import (
    GridQuery,
    ModelContext,
    PointQuery,
    QueryError,
    evaluate_grid,
    evaluate_point_scalar,
    evaluate_points_batched,
)
from repro.serve.server import PpatcServer, ServerConfig, run_server

__all__ = [
    "BatcherClosedError",
    "FlightRecorder",
    "GridQuery",
    "ModelContext",
    "PointQuery",
    "PpatcServer",
    "QueryError",
    "QueueFullError",
    "RequestBatcher",
    "ServerConfig",
    "evaluate_grid",
    "evaluate_point_scalar",
    "evaluate_points_batched",
    "run_server",
]
