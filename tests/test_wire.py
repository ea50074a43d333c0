"""Fuzzing the one HTTP request reader both front doors share.

Whatever bytes a client sends, :func:`repro.serve.wire.read_request`
either returns a request, returns ``None`` (the peer went away), or
raises one of the three typed framing errors the server answers — and
a live router fed the same kind of garbage answers or closes every
connection without asyncio logging a thing.
"""

import asyncio
import logging
import socket
import urllib.parse

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import HashRing, ShardTable
from repro.cluster.router import ClusterRouter
from repro.errors import HeadersTooLarge, MalformedRequest, PayloadTooLarge
from repro.serve.wire import MAX_LINE_BYTES, read_request, read_response

#: Plausible and implausible message parts, assembled into requests so
#: generated streams reach past the request line into headers, lengths,
#: and bodies; raw bytes cover the rest.
_REQUEST_LINES = st.sampled_from([
    b"GET /healthz HTTP/1.1\r\n",
    b"POST /query HTTP/1.1\r\n",
    b"GET / HTTP/1.0\r\n",
    b"GET /\r\n",
    b"\r\n",
]) | st.binary(max_size=24)
_HEADERS = st.sampled_from([
    b"Host: t\r\n",
    b"Connection: close\r\n",
    b"Content-Length: 5\r\n",
    b"Content-Length: abc\r\n",
    b"Content-Length: -1\r\n",
    b"Content-Length: 99999999999999999999\r\n",
    b"Content-Length: " + b"9" * 5000 + b"\r\n",
    b"no colon\r\n",
    b": empty name\r\n",
    b"X-Long: " + b"a" * MAX_LINE_BYTES + b"\r\n",
]) | st.binary(max_size=24)
_MESSAGES = st.builds(
    lambda line, headers, end, body: line + b"".join(headers) + end + body,
    _REQUEST_LINES,
    st.lists(_HEADERS, max_size=8),
    st.sampled_from([b"\r\n", b"\n", b""]),
    st.binary(max_size=8),
)
STREAMS = st.one_of(
    st.binary(max_size=512), st.lists(_MESSAGES, max_size=3).map(b"".join)
)

FRAMING_ERRORS = (MalformedRequest, PayloadTooLarge, HeadersTooLarge)


async def _read_all(data: bytes) -> list:
    """Every outcome of reading ``data`` the way a connection does:
    requests until ``None`` or a framing error."""
    reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
    reader.feed_data(data)
    reader.feed_eof()
    outcomes = []
    while True:
        try:
            request = await read_request(reader)
        except FRAMING_ERRORS as exc:
            return outcomes + [exc]
        outcomes.append(request)
        if request is None:
            return outcomes


@settings(max_examples=300, deadline=None)
@given(STREAMS)
@example(b"GET / HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n")
@example(b"GET / HTTP/1.1\r\nX: " + b"a" * (4 * MAX_LINE_BYTES) + b"\r\n")
def test_reader_returns_a_request_none_or_a_framing_error(data):
    outcomes = asyncio.run(_read_all(data))
    assert outcomes[-1] is None or isinstance(outcomes[-1], FRAMING_ERRORS)


async def _read_reply(data: bytes):
    reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
    reader.feed_data(data)
    reader.feed_eof()
    try:
        return await read_response(reader)
    except ConnectionError as exc:
        return exc


@settings(max_examples=200, deadline=None)
@given(STREAMS.map(lambda data: b"HTTP/1.1 200 OK\r\n" + data) | STREAMS)
@example(b"HTTP/1.1 " + b"9" * 5000 + b" OK\r\n\r\n")
@example(b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n")
def test_reply_reader_returns_a_reply_or_a_connection_error(data):
    """The router's worker pool counts any malformed reply as a shard
    transport failure, so nothing but :class:`ConnectionError` escapes."""
    asyncio.run(_read_reply(data))


def _answered_or_closed(url: str, data: bytes) -> None:
    address = urllib.parse.urlsplit(url)
    with socket.create_connection(
        (address.hostname, address.port), timeout=10
    ) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            while sock.recv(65536):
                pass
        except socket.timeout:
            raise AssertionError(f"{data[:80]!r}: neither answered nor closed")
        except OSError:
            pass  # closed (reset) with part of the stream unsent or unread


def test_router_answers_or_closes_generated_streams(caplog):
    router = ClusterRouter(
        ShardTable([0]), HashRing([0], vnodes=16, seed=0), spill=0
    ).start()

    @settings(max_examples=12, deadline=None, database=None)
    @given(STREAMS)
    def check(data):
        _answered_or_closed(router.url, data)

    try:
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            check()
            router.stop()
    finally:
        router.stop()
    assert caplog.text == ""
