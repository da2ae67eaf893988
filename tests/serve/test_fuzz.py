"""Property fuzz of the front door: query parsing and HTTP framing.

Whatever a client sends, the parsers either accept it or fail with the
documented error — never another exception, which the server would turn
into a 500:

- ``PointQuery`` / ``GridQuery.from_payload`` return a query with finite
  numbers or raise :class:`QueryError` (HTTP 400), for any JSON object,
  ``NaN`` and ``Infinity`` included (Python's ``json`` accepts both);
- ``read_request`` returns ``None`` or a request, or raises
  :class:`HttpError` with status 400, 413, 431 or 501, and leaves no
  asyncio task behind.
"""

import asyncio
import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.http import HttpError, HttpRequest, read_request
from repro.serve.model import GridQuery, PointQuery, QueryError

#: Numbers near the accepted ranges, the non-finite values, and
#: integers too large for a float.
numbers = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0, 1, 24, 500, 1e-300, -0.0, 10**400])
    | st.integers()
)
#: Non-negative scales, plus the values a scale must not take.
scales = st.floats(min_value=0.0) | st.sampled_from(
    [0, 2, math.nan, -math.inf, 10**400]
)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@st.composite
def fields(draw, **valid):
    """A JSON object whose fields are each absent or drawn from their
    strategy in ``valid``; then, half the time, one field (known or not)
    set to any JSON value."""
    payload = draw(st.fixed_dictionaries({}, optional=valid))
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(valid)) | st.text(max_size=4))
        payload[key] = draw(json_values)
    return payload


point_fields = dict(
    grid=st.sampled_from(["us", "coal", "solar", "taiwan"]),
    clock_mhz=st.floats(50.0, 2000.0),
    lifetime_months=st.floats(0.01, 1200.0),
    ci_use_scale=st.floats(0.01, 1000.0),
    candidate_yield=st.none() | st.floats(0.01, 1.0),
)
axes = st.lists(scales, min_size=1, max_size=4) | fields(
    start=scales, stop=scales, n=st.integers(0, 300)
)


def assert_finite_fields(query):
    for field in dataclasses.fields(query):
        values = getattr(query, field.name)
        for value in values if isinstance(values, tuple) else (values,):
            if isinstance(value, float):
                assert math.isfinite(value), (field.name, value)


@given(fields(**point_fields, emb_scale=scales, op_scale=scales))
@settings(max_examples=200)
def test_point_payloads_parse_or_raise_query_error(payload):
    try:
        query = PointQuery.from_payload(payload)
    except QueryError:
        return
    assert_finite_fields(query)
    assert query.emb_scale > 0 or query.op_scale > 0


@given(
    fields(
        **point_fields,
        emb_scales=axes,
        op_scales=axes,
        include_ratio_map=st.booleans(),
        mc_samples=st.integers(0, 10**6),
        mc_seed=st.integers(),
    )
)
@settings(max_examples=200)
def test_grid_payloads_parse_or_raise_query_error(payload):
    try:
        query = GridQuery.from_payload(payload)
    except QueryError:
        return
    assert_finite_fields(query)
    assert min(query.emb_scales) >= 0 and min(query.op_scales) >= 0


# ---------------------------------------------------------------------------
# HTTP framing
# ---------------------------------------------------------------------------
#: Small limits, so the size checks are reachable with short inputs.
STREAM_LIMIT = 256
MAX_HEADER_BYTES = 128
MAX_BODY_BYTES = 32

content_lengths = st.sampled_from(
    [None, b"0", b"5", b"32", b"33", b"-1", b"-7", b"x", b"1_0", b"9" * 5000]
)


def sometimes(draw, strategy, default):
    """A draw from ``strategy`` one time in four, else ``default``."""
    return draw(strategy) if draw(st.integers(0, 3)) == 0 else default


@st.composite
def raw_requests(draw):
    """Request-shaped bytes: mostly well-formed request lines and
    headers, with a corrupt line, an oversized head or a truncation
    (of the head or the body) mixed in one time in four each."""
    request_line = draw(
        st.sampled_from([b"POST /v1/tcdp HTTP/1.1", b"GET / HTTP/1.0"] * 3 + [b""])
    )
    request_line = sometimes(draw, st.binary(max_size=24), request_line)
    names = st.sampled_from([b"Transfer-Encoding", b"Connection", b"Host"])
    values = st.sampled_from([b"chunked", b"close", b"x"]) | st.binary(max_size=8)
    headers = [
        name + b":" + value
        for name, value in draw(st.lists(st.tuples(names, values), max_size=3))
    ]
    content_length = draw(content_lengths)
    if content_length is not None:
        headers.append(b"Content-Length: " + content_length)
    headers.append(sometimes(draw, st.binary(max_size=12), b"Host: x"))
    padding = b"X-Pad: " + b"p" * sometimes(draw, st.sampled_from([100, 300]), 0)
    body = draw(st.binary(max_size=48))
    raw = b"\r\n".join([request_line, padding] + headers) + b"\r\n\r\n" + body
    return raw[: sometimes(draw, st.integers(0, len(raw)), len(raw))]


def read(raw: bytes):
    """Parse ``raw`` as a closed stream; return the outcome and the
    tasks still pending afterwards."""

    async def run():
        reader = asyncio.StreamReader(limit=STREAM_LIMIT)
        reader.feed_data(raw)
        reader.feed_eof()
        try:
            outcome = await read_request(
                reader,
                max_header_bytes=MAX_HEADER_BYTES,
                max_body_bytes=MAX_BODY_BYTES,
            )
        except HttpError as exc:
            outcome = exc
        return outcome, asyncio.all_tasks() - {asyncio.current_task()}

    return asyncio.run(run())


def check_outcome(raw, outcome, leftover):
    assert not leftover
    if isinstance(outcome, HttpError):
        assert outcome.status in (400, 413, 431, 501)
    else:
        assert outcome is None or isinstance(outcome, HttpRequest)
    if isinstance(outcome, HttpRequest):
        assert raw.index(b"\r\n\r\n") + 4 <= MAX_HEADER_BYTES
        assert len(outcome.body) <= MAX_BODY_BYTES


@given(raw_requests())
@settings(max_examples=200)
def test_request_shaped_bytes_frame_or_fail_documented(raw):
    check_outcome(raw, *read(raw))


@given(st.binary(max_size=400))
@settings(max_examples=200)
def test_arbitrary_bytes_frame_or_fail_documented(raw):
    check_outcome(raw, *read(raw))
