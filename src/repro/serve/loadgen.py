"""Deterministic closed-loop load against a running PPAtC server.

``run_closed_loop`` drives ``connections`` concurrent clients, each
issuing its share of a seeded request corpus back-to-back over one
keep-alive connection, and keeps a SHA-256 digest of every response
body, keyed by request id, so callers can byte-compare responses
against an oracle.

The corpus is seeded (``random.Random(seed)``) and parameter-diverse on
purpose: distinct float parameters make every evaluation a trade-off-map
cache miss, so the load measures real model work rather than
``lru_cache`` hits.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "LoadPhaseResult",
    "build_corpus",
    "fetch_json",
    "run_closed_loop",
]

_GRIDS = ("us", "coal", "solar", "taiwan")


def build_corpus(seed: int, n: int) -> List[bytes]:
    """``n`` deterministic point-query bodies (JSON bytes)."""
    rng = random.Random(seed)
    corpus: List[bytes] = []
    for _ in range(n):
        payload = {
            "grid": rng.choice(_GRIDS),
            "lifetime_months": round(rng.uniform(1.0, 48.0), 6),
            "ci_use_scale": round(rng.uniform(0.2, 4.0), 6),
            "emb_scale": round(rng.uniform(0.0, 3.0), 6),
            "op_scale": round(rng.uniform(0.0, 3.0), 6),
        }
        if rng.random() < 0.3:
            payload["candidate_yield"] = round(rng.uniform(0.05, 0.95), 6)
        corpus.append(
            json.dumps(payload, separators=(",", ":")).encode("utf-8")
        )
    return corpus


@dataclass
class LoadPhaseResult:
    """What one load phase observed."""

    requests: int
    errors: int
    #: request index -> SHA-256 hex digest of the response body
    response_digests: Dict[int, str] = field(repr=False, default_factory=dict)


def _post_bytes(body: bytes, target: str = "/v1/tcdp") -> bytes:
    return (
        f"POST {target} HTTP/1.1\r\n"
        f"host: loadgen\r\n"
        f"content-type: application/json\r\n"
        f"content-length: {len(body)}\r\n"
        f"\r\n"
    ).encode("ascii") + body


async def _read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, bytes]:
    """Read one response; returns (status, body)."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head[:-4].split(b"\r\n")
    status = int(lines[0].split(b" ")[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


async def fetch_json(host: str, port: int, target: str) -> dict:
    """One GET (healthz/metricz) returning the decoded JSON body."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {target} HTTP/1.1\r\nhost: loadgen\r\n"
            f"connection: close\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        status, body = await _read_response(reader)
        if status != 200:
            raise RuntimeError(f"GET {target} -> {status}")
        return json.loads(body)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def run_closed_loop(
    host: str,
    port: int,
    corpus: Sequence[bytes],
    connections: int = 32,
) -> LoadPhaseResult:
    """All connections replay their corpus shares as fast as possible."""
    result = LoadPhaseResult(requests=0, errors=0)
    shares: List[List[Tuple[int, bytes]]] = [
        [] for _ in range(connections)
    ]
    for index, body in enumerate(corpus):
        shares[index % connections].append((index, body))

    async def client(share: List[Tuple[int, bytes]]) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for index, body in share:
                writer.write(_post_bytes(body))
                await writer.drain()
                status, payload = await _read_response(reader)
                result.requests += 1
                if status != 200:
                    result.errors += 1
                result.response_digests[index] = hashlib.sha256(
                    payload
                ).hexdigest()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    await asyncio.gather(*(client(share) for share in shares if share))
    return result
