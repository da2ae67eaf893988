"""HTTP load for the ``serve_mix`` workload: corpus, closed and open loop.

This lives in the benchmark, not in ``repro.serve``, so a change to the
program cannot alter the load it is measured under.  Every request body
comes from a ``random.Random`` seeded by the benchmark; the server only
ever sees those bytes.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

POINT = "/v1/tcdp"
GRID = "/v1/grid"

#: (target, body)
Request = Tuple[str, bytes]

_GRIDS = ("us", "coal", "solar", "taiwan")


def _body(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def point_request(rng: random.Random) -> Request:
    payload = {
        "grid": rng.choice(_GRIDS),
        "lifetime_months": round(rng.uniform(1.0, 48.0), 6),
        "ci_use_scale": round(rng.uniform(0.2, 4.0), 6),
        "emb_scale": round(rng.uniform(0.0, 3.0), 6),
        "op_scale": round(rng.uniform(0.0, 3.0), 6),
    }
    if rng.random() < 0.3:
        payload["candidate_yield"] = round(rng.uniform(0.05, 0.95), 6)
    return POINT, _body(payload)


def grid_request(rng: random.Random, mc_seed: int) -> Request:
    """A 20x20 trade-off tile with a 500-sample Monte Carlo overlay."""
    payload = {
        "grid": rng.choice(_GRIDS),
        "lifetime_months": round(rng.uniform(6.0, 36.0), 6),
        "ci_use_scale": round(rng.uniform(0.5, 2.0), 6),
        "emb_scales": {"start": 0.05, "stop": 2.0, "n": 20},
        "op_scales": {"start": 0.05, "stop": 2.0, "n": 20},
        "mc_samples": 500,
        "mc_seed": mc_seed,
    }
    return GRID, _body(payload)


def point_corpus(seed: int, n: int) -> List[Request]:
    rng = random.Random(seed)
    return [point_request(rng) for _ in range(n)]


def mixed_corpus(seed: int, n: int, tile_every: int) -> List[Request]:
    """Point queries with every ``tile_every``-th request a grid tile.

    Tiles sit at fixed positions, so every seed carries the same share
    of heavy requests; each tile has a distinct ``mc_seed`` so no two do
    the same work.
    """
    rng = random.Random(seed)
    return [
        grid_request(rng, mc_seed=seed * 100_003 + i) if i % tile_every == tile_every - 1 else point_request(rng)
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# HTTP/1.1 over asyncio streams
# ---------------------------------------------------------------------------
class Connection:
    """One keep-alive connection; one request in flight at a time."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, target: str, body: bytes) -> Tuple[int, bytes]:
        head = (
            f"POST {target} HTTP/1.1\r\nhost: bench\r\n"
            f"content-type: application/json\r\ncontent-length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.writer.write(head + body)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        lines = raw[:-4].split(b"\r\n")
        status = int(lines[0].split(b" ")[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


@dataclass
class Phase:
    """What one load phase observed; ``bodies[i]`` answers request ``i``."""

    latencies_s: List[float] = field(default_factory=list)
    statuses: List[int] = field(default_factory=list)
    bodies: List[bytes] = field(default_factory=list)
    elapsed_s: float = 0.0
    max_lag_s: float = 0.0

    @property
    def requests(self) -> int:
        return len(self.statuses)

    @property
    def non_200(self) -> int:
        return sum(1 for status in self.statuses if status != 200)


async def closed_loop(
    port: int,
    corpus: Sequence[Request],
    connections: int,
    deadline: Optional[float] = None,
) -> Phase:
    """Each connection sends its next request when the last one returns.

    Connection ``c`` takes requests ``c, c + connections, ...``.  With a
    ``deadline`` (a ``perf_counter`` time) no request starts after it.
    """
    phase = Phase()
    results: List[Optional[Tuple[int, bytes, float]]] = [None] * len(corpus)

    async def client(offset: int) -> None:
        conn = await Connection.open(port)
        try:
            for index in range(offset, len(corpus), connections):
                t0 = time.perf_counter()
                if deadline is not None and t0 >= deadline:
                    return
                status, body = await conn.request(*corpus[index])
                results[index] = (status, body, time.perf_counter() - t0)
        finally:
            await conn.close()

    start = time.perf_counter()
    await asyncio.gather(*(client(c) for c in range(connections)))
    phase.elapsed_s = time.perf_counter() - start
    # Keep the answered prefix only, so bodies[i] answers corpus[i].
    for result in results:
        if result is None:
            break
        status, body, latency = result
        phase.statuses.append(status)
        phase.bodies.append(body)
        phase.latencies_s.append(latency)
    return phase


async def open_loop(
    port: int,
    corpus: Sequence[Request],
    rate_qps: float,
    connections: int,
    seed: int,
) -> Phase:
    """Poisson arrivals at ``rate_qps`` over a pool of ``connections``.

    Each request is timed from its scheduled send time, so a stall also
    counts against the requests queued behind it.  ``max_lag_s`` is how
    late the generator itself got to a scheduled send.
    """
    rng = random.Random(seed)
    phase = Phase()
    results: List[Optional[Tuple[int, bytes, float]]] = [None] * len(corpus)
    pool: "asyncio.Queue[Connection]" = asyncio.Queue()
    for _ in range(connections):
        pool.put_nowait(await Connection.open(port))

    async def send(index: int, due: float) -> None:
        conn = await pool.get()
        try:
            status, body = await conn.request(*corpus[index])
            results[index] = (status, body, time.perf_counter() - due)
        finally:
            pool.put_nowait(conn)

    tasks: List["asyncio.Task[None]"] = []
    start = time.perf_counter()
    due = start
    for index in range(len(corpus)):
        due += rng.expovariate(rate_qps)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.max_lag_s = max(phase.max_lag_s, time.perf_counter() - due)
        tasks.append(asyncio.get_running_loop().create_task(send(index, due)))
    await asyncio.gather(*tasks)
    phase.elapsed_s = time.perf_counter() - start
    while not pool.empty():
        await pool.get_nowait().close()
    for status, body, latency in results:  # every task completed
        phase.statuses.append(status)
        phase.bodies.append(body)
        phase.latencies_s.append(latency)
    return phase
