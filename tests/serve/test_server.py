"""In-process server tests: routes, errors, drain, scalar equivalence.

Each test boots a real ``PpatcServer`` on an ephemeral port inside
``asyncio.run`` and talks actual HTTP over loopback through the load
generator's client helpers.
"""

import asyncio
import hashlib
import json

import pytest

from repro.serve import (
    ModelContext,
    PointQuery,
    PpatcServer,
    ServerConfig,
    evaluate_point_scalar,
)
from repro.serve.loadgen import (
    _post_bytes,
    _read_response,
    build_corpus,
    fetch_json,
    run_closed_loop,
)

pytestmark = pytest.mark.usefixtures("clean_obs")

#: One warmed grid keeps per-test server boots fast.
TEST_CONFIG = dict(port=0, grids=("us",), sweep_cache=False)


async def post_json(port, payload, target="/v1/tcdp"):
    """One POST; returns (status, decoded-or-None body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = json.dumps(payload).encode()
        writer.write(_post_bytes(body, target=target))
        await writer.drain()
        status, raw = await _read_response(reader)
        return status, json.loads(raw) if raw else None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


@pytest.mark.smoke
def test_end_to_end_point_request():
    async def run():
        server = PpatcServer(ServerConfig(**TEST_CONFIG))
        await server.start()
        try:
            status, body = await post_json(
                server.port,
                {"grid": "us", "lifetime_months": 24.0},
            )
        finally:
            await server.stop()
        return status, body

    status, body = asyncio.run(run())
    assert status == 200
    assert body["schema"] == "ppatc-point/1"
    assert body["query"]["grid"] == "us"
    assert 0 < body["tcdp_ratio"]
    assert body["candidate"]["tcdp_gs"] > 0
    assert len(body["lifetime"]["months"]) == 24


def test_healthz_and_metricz():
    async def run():
        server = PpatcServer(ServerConfig(**TEST_CONFIG))
        await server.start()
        try:
            health = await fetch_json(
                "127.0.0.1", server.port, "/healthz"
            )
            await post_json(server.port, {})
            metrics = await fetch_json(
                "127.0.0.1", server.port, "/metricz"
            )
        finally:
            await server.stop()
        return health, metrics

    health, metrics = asyncio.run(run())
    assert health["status"] == "ok"
    assert health["mode"] == "batched"
    assert health["grids"] == ["us"]
    assert metrics["counters"]["serve.requests.total"] >= 1
    assert metrics["gauges"]["serve.bases.warm"] == 1.0


def test_error_statuses():
    async def run():
        server = PpatcServer(ServerConfig(**TEST_CONFIG))
        await server.start()
        try:
            results = {
                "unknown_route": await post_json(
                    server.port, {}, target="/v2/nope"
                ),
                "bad_method": None,
                "bad_field": await post_json(
                    server.port, {"grid": "mars"}
                ),
                "unwarmed_ok": await post_json(
                    server.port, {"grid": "coal"}
                ),
            }
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"PUT /v1/tcdp HTTP/1.1\r\ncontent-length: 0\r\n\r\n"
            )
            await writer.drain()
            results["bad_method"] = await _read_response(reader)
            writer.close()
            await writer.wait_closed()
        finally:
            await server.stop()
        return results

    results = asyncio.run(run())
    assert results["unknown_route"][0] == 404
    assert results["bad_method"][0] == 405
    status, body = results["bad_field"]
    assert status == 400
    assert "grid" in body["error"]
    # Grids outside the warmed set still work (memoized on first use).
    assert results["unwarmed_ok"][0] == 200


def test_degenerate_query_fails_alone_in_a_coalesced_batch():
    """A query the model cannot answer (both scales 0: ratio 0) is a
    400 of its own; the valid queries riding the same batch get 200s."""

    async def run():
        server = PpatcServer(
            ServerConfig(batch_window_s=0.05, **TEST_CONFIG)
        )
        await server.start()
        try:
            outcomes = await asyncio.gather(
                post_json(server.port, {}),
                post_json(server.port, {"emb_scale": 0, "op_scale": 0}),
                post_json(server.port, {"op_scale": 0.5}),
            )
        finally:
            await server.stop()
        return outcomes

    (ok, ok_status), (bad, bad_status), (ok2, ok2_status) = [
        (body, status) for status, body in asyncio.run(run())
    ]
    assert (ok_status, bad_status, ok2_status) == (200, 400, 200)
    assert ok["schema"] == ok2["schema"] == "ppatc-point/1"
    assert "emb_scale" in bad["error"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_query_without_finite_answer_fails_alone_in_a_coalesced_batch():
    """A query that parses but overflows the model (emb_scale 1e308:
    ratio inf) is a 400 of its own; its batch-mates get 200s."""

    async def run():
        server = PpatcServer(
            ServerConfig(batch_window_s=0.05, **TEST_CONFIG)
        )
        await server.start()
        try:
            outcomes = await asyncio.gather(
                post_json(server.port, {}),
                post_json(server.port, {"emb_scale": 1e308}),
                post_json(server.port, {"op_scale": 0.5}),
            )
        finally:
            await server.stop()
        return outcomes

    (ok, ok_status), (bad, bad_status), (ok2, ok2_status) = [
        (body, status) for status, body in asyncio.run(run())
    ]
    assert (ok_status, bad_status, ok2_status) == (200, 400, 200)
    assert ok["schema"] == ok2["schema"] == "ppatc-point/1"
    assert "no finite answer" in bad["error"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_without_finite_nominal_ratio_is_a_400():
    """A subnormal yield overflows the candidate's embodied carbon; with
    no ratio map asked for, the tile's nominal ratio must not reach the
    client as a bare ``Infinity`` token (which is not JSON)."""

    async def run():
        server = PpatcServer(ServerConfig(**TEST_CONFIG))
        await server.start()
        try:
            return await post_json(
                server.port,
                {"candidate_yield": 5e-324, "include_ratio_map": False},
                target="/v1/grid",
            )
        finally:
            await server.stop()

    status, body = asyncio.run(run())
    assert status == 400
    assert "no finite answer" in body["error"]


def test_request_read_after_the_batcher_drains_gets_503():
    """The drain stops the batcher while connections may still deliver
    requests; those are told the server is unavailable, not that it
    failed internally."""

    async def run():
        server = PpatcServer(ServerConfig(**TEST_CONFIG))
        await server.start()
        try:
            await server.batcher.stop()
            return await post_json(server.port, {})
        finally:
            await server.stop()

    status, body = asyncio.run(run())
    assert status == 503
    assert body["error"] == "server is draining"


@pytest.mark.parametrize(
    "payload",
    [
        {"emb_scale": float("nan")},
        {"op_scale": float("inf")},
        {"grid": "us", "emb_scales": [0.5, float("nan")]},
        {"emb_scales": {"start": 0.0, "stop": float("inf"), "n": 4}},
    ],
)
def test_non_finite_json_numbers_are_rejected(payload):
    """Python's json reads NaN / Infinity tokens; the server must answer
    400 rather than echo them into a response."""
    target = "/v1/grid" if "emb_scales" in payload else "/v1/tcdp"

    async def run():
        server = PpatcServer(ServerConfig(**TEST_CONFIG))
        await server.start()
        try:
            # json.dumps writes NaN / Infinity tokens for these floats.
            return await post_json(server.port, payload, target=target)
        finally:
            await server.stop()

    status, body = asyncio.run(run())
    assert status == 400
    assert "finite" in body["error"]


def test_grid_endpoint():
    async def run():
        server = PpatcServer(ServerConfig(**TEST_CONFIG))
        await server.start()
        try:
            status, body = await post_json(
                server.port,
                {
                    "grid": "us",
                    "emb_scales": {"start": 0.1, "stop": 2.0, "n": 4},
                    "op_scales": [0.5, 1.0],
                },
                target="/v1/grid",
            )
        finally:
            await server.stop()
        return status, body

    status, body = asyncio.run(run())
    assert status == 200
    assert body["schema"] == "ppatc-grid/1"
    assert len(body["ratio_map"]) == 2
    assert len(body["ratio_map"][0]) == 4


def test_serial_and_batched_responses_are_bit_equal():
    """Batched server responses == in-process scalar evaluation, byte
    for byte, whatever batch each query rode in."""
    corpus = build_corpus(seed=3, n=64)

    async def drive():
        server = PpatcServer(ServerConfig(**TEST_CONFIG))
        await server.start()
        try:
            return await run_closed_loop(
                "127.0.0.1", server.port, corpus, connections=8
            )
        finally:
            await server.stop()

    batched = asyncio.run(drive())
    assert batched.errors == 0
    assert batched.requests == 64
    context = ModelContext(grids=TEST_CONFIG["grids"])
    for index, body in enumerate(corpus):
        query = PointQuery.from_payload(json.loads(body))
        expected = json.dumps(
            evaluate_point_scalar(context, query), separators=(",", ":")
        ).encode("utf-8")
        assert batched.response_digests[index] == (
            hashlib.sha256(expected).hexdigest()
        ), f"response {index} differs from the scalar evaluation"


def test_concurrent_clients_coalesce(clean_obs):
    """N concurrent clients -> far fewer tensor evaluations than N."""
    corpus = build_corpus(seed=5, n=64)

    async def run():
        server = PpatcServer(
            ServerConfig(batch_window_s=0.02, **TEST_CONFIG)
        )
        await server.start()
        try:
            result = await run_closed_loop(
                "127.0.0.1", server.port, corpus, connections=16
            )
            metrics = await fetch_json(
                "127.0.0.1", server.port, "/metricz"
            )
        finally:
            await server.stop()
        return result, metrics

    result, metrics = asyncio.run(run())
    assert result.errors == 0
    batches = metrics["counters"]["serve.batch.count"]
    queries = metrics["counters"]["serve.batch.queries"]
    assert queries == 64
    # 16 clients in lockstep over a 20 ms window: every round coalesces,
    # so evaluations number ~requests/16, far below one per request.
    assert batches <= 16
    occupancy = metrics["histograms"]["serve.batch.occupancy"]
    assert occupancy["mean"] >= 4.0


def test_queue_full_returns_429():
    async def run():
        server = PpatcServer(
            ServerConfig(
                batch_window_s=0.2,
                max_pending=2,
                **TEST_CONFIG,
            )
        )
        await server.start()
        try:
            statuses = await asyncio.gather(
                *[post_json(server.port, {}) for _ in range(12)]
            )
        finally:
            await server.stop()
        return [status for status, _ in statuses]

    statuses = asyncio.run(run())
    assert statuses.count(429) > 0
    assert statuses.count(200) > 0
    assert set(statuses) <= {200, 429}


def test_graceful_drain_finishes_inflight_requests():
    """stop() mid-flight: admitted requests still get 200s."""

    async def run():
        server = PpatcServer(
            ServerConfig(batch_window_s=0.1, **TEST_CONFIG)
        )
        await server.start()
        inflight = [
            asyncio.ensure_future(post_json(server.port, {}))
            for _ in range(6)
        ]
        # Let all six enter the batch window (bounded: 5 s).
        for _ in range(5000):
            if server.batcher.pending == 6:
                break
            await asyncio.sleep(0.001)
        assert server.batcher.pending == 6
        await server.stop()
        return await asyncio.gather(*inflight)

    outcomes = asyncio.run(run())
    assert [status for status, _ in outcomes] == [200] * 6
    assert all(body["schema"] == "ppatc-point/1" for _, body in outcomes)


def test_keep_alive_reuses_connection():
    async def run():
        server = PpatcServer(ServerConfig(**TEST_CONFIG))
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            statuses = []
            for _ in range(3):
                writer.write(_post_bytes(b"{}"))
                await writer.drain()
                status, _ = await _read_response(reader)
                statuses.append(status)
            writer.close()
            await writer.wait_closed()
            served = server.requests_served
        finally:
            await server.stop()
        return statuses, served

    statuses, served = asyncio.run(run())
    assert statuses == [200, 200, 200]
    assert served == 3


def test_access_log_written(tmp_path):
    log_path = tmp_path / "access.jsonl"

    async def run():
        server = PpatcServer(
            ServerConfig(access_log=str(log_path), **TEST_CONFIG)
        )
        await server.start()
        try:
            await post_json(server.port, {})
            await post_json(server.port, {"grid": "mars"})
        finally:
            await server.stop()

    asyncio.run(run())
    records = [
        json.loads(line)
        for line in log_path.read_text().splitlines()
    ]
    assert len(records) == 2
    assert records[0]["target"] == "/v1/tcdp"
    assert records[0]["status"] == 200
    assert records[1]["status"] == 400
    assert records[0]["elapsed_ms"] >= 0


# -- observability endpoints ----------------------------------------------


async def get_with_accept(port, target, accept=None):
    """One GET with an optional Accept header; returns (status, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = f"GET {target} HTTP/1.1\r\nhost: test\r\n"
        if accept:
            head += f"accept: {accept}\r\n"
        head += "connection: close\r\n\r\n"
        writer.write(head.encode("ascii"))
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def test_metricz_content_negotiation():
    """JSON default; Prometheus text and OpenMetrics on request."""

    async def run():
        server = PpatcServer(ServerConfig(**TEST_CONFIG))
        await server.start()
        try:
            await post_json(server.port, {})
            as_json = await fetch_json("127.0.0.1", server.port, "/metricz")
            _, text = await get_with_accept(
                server.port, "/metricz", accept="text/plain"
            )
            _, om = await get_with_accept(
                server.port,
                "/metricz",
                accept="application/openmetrics-text; version=1.0.0",
            )
        finally:
            await server.stop()
        return as_json, text.decode(), om.decode()

    as_json, text, om = asyncio.run(run())
    # The JSON default is the pre-existing snapshot shape, untouched.
    assert as_json["counters"]["serve.requests.total"] >= 1
    # Prometheus text 0.0.4: typed series with sanitized names.
    assert "# TYPE serve_requests_total counter" in text
    assert "# TYPE serve_request_seconds histogram" in text
    assert 'serve_request_seconds_bucket{le="+Inf"}' in text
    assert "# EOF" not in text
    # OpenMetrics adds the EOF trailer and request-id exemplars.
    assert om.rstrip().endswith("# EOF")
    assert 'span_id="' in om


def test_debugz_serves_the_flight_dump():
    async def run():
        server = PpatcServer(
            ServerConfig(flight_capacity=8, flight_slowest=2, **TEST_CONFIG)
        )
        await server.start()
        try:
            await post_json(server.port, {})
            await post_json(server.port, {"grid": "mars"})  # a 400
            dump = await fetch_json("127.0.0.1", server.port, "/debugz")
        finally:
            await server.stop()
        return dump

    dump = asyncio.run(run())
    assert dump["schema"] == "flight-recorder/1"
    assert dump["capacity"] == 8
    assert dump["recorded"] == 2
    assert dump["errors_total"] == 1
    assert dump["errors"][0]["status"] == 400
    targets = [r["target"] for r in dump["recent"]]
    assert targets == ["/v1/tcdp", "/v1/tcdp"]
    ids = [r["request_id"] for r in dump["recent"]]
    assert len(set(ids)) == 2
    assert all(r["latency_ms"] > 0 for r in dump["recent"])
    # The slowest view retained both (k=2) and orders worst-first.
    latencies = [r["latency_ms"] for r in dump["slowest"]]
    assert latencies == sorted(latencies, reverse=True)


def test_healthz_reports_slo_and_carbon():
    async def run():
        server = PpatcServer(ServerConfig(**TEST_CONFIG))
        await server.start()
        try:
            await post_json(server.port, {})
            health = await fetch_json("127.0.0.1", server.port, "/healthz")
        finally:
            await server.stop()
        return health

    health = asyncio.run(run())
    slo = health["slo"]
    assert set(slo) == {"availability", "latency"}
    for objective in slo.values():
        for window in objective["windows"].values():
            assert window["compliant"] is True
            assert window["burn_rate"] == 0.0
    # One good request has been scored already.
    window = slo["availability"]["windows"]["300s"]
    assert window["events"] >= 1
    carbon = health["carbon"]
    assert carbon["operational_gco2e"] >= 0.0
    assert carbon["energy_kwh"] > 0.0
    assert carbon["ci_gco2e_per_kwh"] == 380.0
    assert health["profiler_hz"] == 0.0
    assert health["flight_recorded"] >= 1


def test_profilez_disabled_by_default_enabled_by_config():
    async def run():
        server = PpatcServer(ServerConfig(**TEST_CONFIG))
        await server.start()
        try:
            off_status, _ = await get_with_accept(server.port, "/profilez")
        finally:
            await server.stop()

        server = PpatcServer(
            ServerConfig(profile_hz=250.0, **TEST_CONFIG)
        )
        await server.start()
        try:
            # Give the sampler a few periods of a busy event loop.  Five
            # requests can finish inside one 4 ms period, so also wait
            # out a dozen periods before reading the tick count.
            for _ in range(5):
                await post_json(server.port, {})
            await asyncio.sleep(12 / 250.0)
            report = await fetch_json(
                "127.0.0.1", server.port, "/profilez"
            )
            _, collapsed = await get_with_accept(
                server.port, "/profilez", accept="text/plain"
            )
            health = await fetch_json(
                "127.0.0.1", server.port, "/healthz"
            )
        finally:
            await server.stop()
        return off_status, report, collapsed.decode(), health

    off_status, report, collapsed, health = asyncio.run(run())
    assert off_status == 404
    assert report["schema"] == "repro-profile/1"
    assert report["hz"] == 250.0
    assert report["ticks"] > 0
    assert health["profiler_hz"] == 250.0
    for line in collapsed.strip().split("\n"):
        if line:
            assert int(line.rsplit(" ", 1)[1]) > 0


def test_dump_flight_writes_json(tmp_path):
    dump_path = tmp_path / "flight.json"

    async def run():
        server = PpatcServer(
            ServerConfig(flight_dump_path=str(dump_path), **TEST_CONFIG)
        )
        await server.start()
        try:
            await post_json(server.port, {})
            written = server.dump_flight()
            metrics = await fetch_json(
                "127.0.0.1", server.port, "/metricz"
            )
        finally:
            await server.stop()
        return written, metrics

    written, metrics = asyncio.run(run())
    assert written == str(dump_path)
    on_disk = json.loads(dump_path.read_text(encoding="utf-8"))
    assert on_disk["schema"] == "flight-recorder/1"
    assert on_disk["recorded"] == 1
    assert metrics["counters"]["serve.flight.dumps"] == 1


def test_access_log_carries_observability_fields(tmp_path):
    log_path = tmp_path / "access.jsonl"

    async def run():
        server = PpatcServer(
            ServerConfig(access_log=str(log_path), **TEST_CONFIG)
        )
        await server.start()
        try:
            await post_json(server.port, {})
        finally:
            await server.stop()

    asyncio.run(run())
    (record,) = [
        json.loads(line) for line in log_path.read_text().splitlines()
    ]
    assert record["request_id"] == "00000001"
    assert record["queue_depth"] >= 0
    assert record["batch_occupancy"] >= 1.0
    assert record["status"] == 200


def test_queue_depth_gauge_settles_to_zero():
    async def run():
        server = PpatcServer(
            ServerConfig(batch_window_s=0.02, **TEST_CONFIG)
        )
        await server.start()
        try:
            await asyncio.gather(
                *[post_json(server.port, {}) for _ in range(8)]
            )
            metrics = await fetch_json(
                "127.0.0.1", server.port, "/metricz"
            )
        finally:
            await server.stop()
        return metrics

    metrics = asyncio.run(run())
    # All submissions flushed: depth is back to zero, and the last
    # batch's occupancy was published for the access log to pick up.
    assert metrics["gauges"]["serve.queue.depth"] == 0.0
    assert metrics["gauges"]["serve.batch.last_occupancy"] >= 1.0


def test_latency_histogram_reports_quantiles():
    async def run():
        server = PpatcServer(ServerConfig(**TEST_CONFIG))
        await server.start()
        try:
            for _ in range(5):
                await post_json(server.port, {})
            metrics = await fetch_json(
                "127.0.0.1", server.port, "/metricz"
            )
        finally:
            await server.stop()
        return metrics

    metrics = asyncio.run(run())
    hist = metrics["histograms"]["serve.request.seconds"]
    assert hist["count"] == 5
    assert 0.0 < hist["p50"] <= hist["p90"] <= hist["p99"]
