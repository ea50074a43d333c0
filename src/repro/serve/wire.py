"""The one HTTP/1.1 layer under ``repro-serve`` and the cluster router.

A worker's front door (:mod:`repro.serve.http`) and the router
(:mod:`repro.cluster.router`) both subclass :class:`HttpServer`, so they
frame, bound, and refuse requests the same way; the router reads its
workers' replies with :func:`read_response`.  Stdlib only; asyncio
transports set ``TCP_NODELAY``, so small writes never wait on a delayed
ACK.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import Any

from repro.errors import (
    HeadersTooLarge,
    MalformedRequest,
    PayloadTooLarge,
    ReproError,
)

__all__ = [
    "HttpServer",
    "MAX_BODY_BYTES",
    "NO_STORE_HEADER",
    "Request",
    "Response",
    "STATUS_BY_CODE",
    "error_response",
    "json_response",
    "read_request",
    "read_response",
    "text_response",
]

#: The one code→HTTP-status table.  Codes absent here answer 500; the
#: ``code`` field still rides in the payload, so even a 500 is typed.
STATUS_BY_CODE: dict[str, int] = {
    "query_validation": 400,
    "malformed_request": 400,
    "payload_too_large": 413,
    "headers_too_large": 431,
    "scenario_error": 400,
    "fault_plan_error": 400,
    "service_overloaded": 429,
    "circuit_open": 503,
    "service_draining": 503,
    "shard_unavailable": 503,
    "operation_cancelled": 503,
    "query_timeout": 504,
    "deadline_exhausted": 504,
    "integrity_error": 500,
}

#: Largest body read in either direction.  A query is a few hundred
#: bytes and an inline scenario a few KiB; a larger declared body is
#: refused before any of it is read.
MAX_BODY_BYTES = 1 << 20

#: Most header lines one message may carry (the stdlib's own bound).
MAX_HEADER_LINES = 100

#: Longest request, status, or header line, terminator included.
MAX_LINE_BYTES = 64 << 10

#: Listen backlog.  The default of 5 resets connections when a burst of
#: clients connects at once; a burst must reach the engine, which sheds
#: with typed 429s instead.
LISTEN_BACKLOG = 128

#: Request header asking the engine not to cache the answer.  Sent by
#: the cluster router's hedged-request backup: a duplicate answer
#: inserted into the *backup* shard's LRU would evict entries that
#: shard is actually warm for (cache pollution).
NO_STORE_HEADER = "X-Repro-No-Store"

_REASONS = {status.value: status.phrase for status in HTTPStatus}


def parse_content_length(value: str | None) -> int:
    """The body length a ``Content-Length`` header declares.

    No header means no body.  Anything but a plain decimal count
    (``abc``, ``-5``, ``+5``) raises :class:`MalformedRequest` (400);
    a count over :data:`MAX_BODY_BYTES` raises :class:`PayloadTooLarge`
    (413)."""
    if value is None:
        return 0
    text = value.strip()
    if not (text.isascii() and text.isdigit()):
        raise MalformedRequest(f"malformed Content-Length {value[:40]!r}")
    # int() refuses thousands of digits, and no count that long fits.
    if len(text) > 20 or int(text) > MAX_BODY_BYTES:
        raise PayloadTooLarge(
            f"request body of {text[:20]} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit"
        )
    return int(text)


@dataclass(frozen=True)
class Request:
    """One parsed request; header names are lower-cased."""

    method: str
    target: str
    version: str
    headers: dict[str, str]
    body: bytes

    def header(self, name: str) -> str | None:
        return self.headers.get(name.lower())

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


@dataclass(frozen=True)
class Response:
    """One reply: status, body, and any extra headers."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    def encode(self, keep_alive: bool) -> bytes:
        head = [
            f"HTTP/1.1 {self.status} {_REASONS.get(self.status, '')}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            "Connection: " + ("keep-alive" if keep_alive else "close"),
        ] + [f"{name}: {value}" for name, value in self.headers.items()]
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + self.body


def json_response(
    status: int, payload: Any, headers: dict[str, str] | None = None
) -> Response:
    return Response(status, json.dumps(payload).encode("utf-8"),
                    headers=headers or {})


def text_response(status: int, text: str) -> Response:
    return Response(status, text.encode("utf-8"), "text/plain; charset=utf-8")


def error_response(exc: ReproError) -> Response:
    """``exc``'s typed reply.  Its retry hint rides ``Retry-After``,
    spread across ±50% (deliberately unseeded) so clients rejected
    together do not come back as one synchronized herd."""
    headers = {}
    if exc.retry_after is not None:
        spread = max(0.05, exc.retry_after * random.uniform(0.5, 1.5))
        headers["Retry-After"] = f"{spread:g}"
    status = STATUS_BY_CODE.get(exc.code, 500)
    return json_response(status, exc.to_dict(), headers)


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readline()
        if len(line) <= MAX_LINE_BYTES:
            return line
    except ValueError:  # over the reader's own buffer limit
        pass
    raise HeadersTooLarge(f"a line exceeds {MAX_LINE_BYTES} bytes")


async def _read_rest(
    reader: asyncio.StreamReader,
) -> tuple[dict[str, str], bytes] | None:
    """A message's headers (names lower-cased) and body, read after its
    first line; ``None`` when the stream ends first."""
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES + 1):
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n"):
            length = parse_content_length(headers.get("content-length"))
            try:
                return headers, await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None
        if not line:
            return None
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name.strip():
            raise MalformedRequest(f"malformed header line {line[:40]!r}")
        headers[name.strip().lower()] = value.strip()
    raise HeadersTooLarge(f"more than {MAX_HEADER_LINES} header lines")


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Read one request; ``None`` when the peer closed the connection
    before (or part-way through) it.  Only :class:`MalformedRequest` and
    its subclasses escape."""
    line = await _read_line(reader)
    if not line.strip():
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise MalformedRequest(f"malformed request line {line[:40]!r}")
    rest = await _read_rest(reader)
    return None if rest is None else Request(*parts, *rest)


async def read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    """Read one reply: ``(status, headers, body)``.  A closed, truncated,
    or malformed reply raises :class:`ConnectionError`."""
    try:
        line = await _read_line(reader)
        parts = line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or len(parts[1]) != 3 or not parts[1].isdecimal():
            raise ConnectionError(f"malformed status line {line[:40]!r}")
        rest = await _read_rest(reader)
    except MalformedRequest as exc:
        raise ConnectionError(f"malformed reply: {exc}") from None
    if rest is None:
        raise ConnectionError("reply truncated")
    return int(parts[1]), *rest


class HttpServer:
    """An asyncio HTTP/1.1 server; subclasses answer :meth:`respond`.

    Driven from outside the loop's thread: :meth:`listen` binds,
    :meth:`start` serves, :meth:`stop` closes the listener and cancels
    every open connection.  After :meth:`begin_drain` subclasses turn
    new work away; :meth:`await_quiescence` waits out the requests in
    flight.
    """

    def __init__(self, *, verbose: bool = False) -> None:
        self.verbose = verbose
        self.url: str | None = None
        self._draining = False
        self._active = 0  # requests read and not yet answered
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None  # an own loop's
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[asyncio.Task] = set()

    async def respond(self, request: Request) -> Response:
        raise NotImplementedError

    def _call(self, coro: Any) -> Any:
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(30)

    def listen(self, host: str, port: int,
               loop: asyncio.AbstractEventLoop | None = None) -> None:
        """Bind ``host:port`` (``0`` picks a free port; read :attr:`url`),
        not yet serving, on ``loop`` — running on another thread — or on
        a loop thread of the server's own."""
        if loop is None:
            loop = asyncio.new_event_loop()
            self._thread = threading.Thread(
                target=loop.run_forever, name=type(self).__name__,
                daemon=True,
            )
            self._thread.start()
        self._loop = loop
        self._server = self._call(asyncio.start_server(
            self._connection, host, port, limit=MAX_LINE_BYTES,
            backlog=LISTEN_BACKLOG, start_serving=False,
        ))
        bound = self._server.sockets[0].getsockname()
        self.url = f"http://{bound[0]}:{bound[1]}"

    def start(self) -> "HttpServer":
        self._call(self._server.start_serving())
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._call(self._teardown())
        self._server = None
        if self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
            self._loop.close()
            self._thread = None

    async def _teardown(self) -> None:
        self._server.close()
        # An idle keep-alive connection would otherwise keep its handler
        # pending past the loop's close: destroyed pending, closing its
        # transport on a closed loop.
        for task in self._conns:
            task.cancel()
        await asyncio.gather(*self._conns, return_exceptions=True)
        await self._server.wait_closed()

    def begin_drain(self) -> None:
        """Flip to draining: new work answers 503 + ``Retry-After``."""
        self._draining = True

    def await_quiescence(self, timeout_s: float) -> bool:
        """Wait for the in-flight requests to finish (``True``) or the
        deadline (``False``)."""
        deadline = time.monotonic() + timeout_s
        while self._active > 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)
        return True

    async def _connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conns.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except MalformedRequest as exc:
                    # The stream cannot be resynchronised: answer, close.
                    await self._write(writer, None, error_response(exc))
                    break
                if request is None:
                    break
                self._active += 1
                try:
                    response = await self._answer(request)
                    await self._write(writer, request, response)
                finally:
                    self._active -= 1
                if not request.keep_alive:
                    break
        except (OSError, asyncio.CancelledError):
            # The peer went away, or stop() ended the connection: return
            # normally (asyncio 3.11 logs a cancelled handler as an error).
            pass
        finally:
            writer.close()
            self._conns.discard(task)

    async def _answer(self, request: Request) -> Response:
        try:
            return await self.respond(request)
        except ReproError as exc:
            return error_response(exc)
        except Exception as exc:  # a server bug: typed, not bare
            traceback.print_exc()
            return error_response(
                ReproError(f"{type(self).__name__} failure: {exc}")
            )

    async def _write(self, writer: asyncio.StreamWriter,
                     request: Request | None, response: Response) -> None:
        writer.write(response.encode(bool(request and request.keep_alive)))
        await writer.drain()
        if self.verbose:
            peer = writer.get_extra_info("peername")[0]
            what = f"{request.method} {request.target}" if request else "-"
            print(f'{peer} "{what}" {response.status}', file=sys.stderr,
                  flush=True)
