"""Stdlib-asyncio HTTP/1.1 front-end for the query service.

Two layers, split so the routing logic is unit-testable without
sockets:

* :func:`handle_request` -- a pure function from (state, method,
  target) to ``(status, content_type, body)``.  All endpoint logic
  lives here; it touches nothing but the :class:`QueryState` handed
  to it, so a test can drive every route synchronously.
* :class:`QueryService` -- a minimal GET-only HTTP/1.1 keep-alive
  server, one ``asyncio.Protocol`` per connection, wrapping every
  request in per-endpoint telemetry (``repro_query_requests_total`` /
  ``repro_query_request_seconds``).

The server is deliberately not a general web server: no TLS, no
bodies, no chunked encoding -- exactly what serving JSON snapshots on
a trusted network needs, with zero dependencies beyond the stdlib.

:class:`QueryClient` is the matching keep-alive client used by tests,
the hammer test, and the ``serve_live`` benchmark's load generator.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from urllib.parse import parse_qs, unquote, urlsplit

from repro.net.addr import format_ipv4, parse_ipv4
from repro.telemetry.export import prometheus_text
from repro.telemetry.metrics import registry
from repro.telemetry.tracing import parse_traceparent, span, tracer

from repro.query.liveness import infer_liveness
from repro.query.snapshot import PROTO_NUMBERS, compact_json
from repro.query.state import QueryState

#: Suffixes accepted by ``since=`` (e.g. ``12h``, ``30m``, ``2d``).
_SINCE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}

#: Latency buckets for request histograms: 10 us .. ~0.3 s.
_LATENCY_BUCKETS = tuple(1e-5 * 2**i for i in range(15))


#: Bounds of one request head, each answered ``431`` and a close: bytes
#: before a line's end, and header lines (Apache's default).
_MAX_LINE = 1 << 16
_MAX_HEADER_LINES = 100


class _BadRequest(Exception):
    """A client error turned into a 400 JSON response."""


def parse_since(text: str) -> float:
    """``since=`` value: raw seconds or a number with s/m/h/d suffix."""
    text = text.strip()
    unit = 1.0
    if text and text[-1].lower() in _SINCE_UNITS:
        unit = _SINCE_UNITS[text[-1].lower()]
        text = text[:-1]
    try:
        seconds = float(text) * unit
    except ValueError:
        raise _BadRequest(f"bad since value: {text!r}")
    if math.isnan(seconds):
        # A NaN cutoff fails every comparison, so it would list every row.
        raise _BadRequest(f"bad since value: {text!r}")
    if seconds < 0:
        raise _BadRequest("since must be non-negative")
    return seconds


def _parse_address(text: str) -> int:
    try:
        return parse_ipv4(unquote(text))
    except (ValueError, AttributeError):
        raise _BadRequest(f"bad IPv4 address: {text!r}")


def _snapshot_info(snapshot) -> dict:
    return {
        "version": snapshot.version,
        "now": snapshot.now,
        "records": snapshot.records,
    }


def _json(status: int, payload) -> tuple[int, str, bytes]:
    return status, "application/json", compact_json(payload).encode()


def _services_body(head: dict, rows: list[bytes]) -> tuple[int, str, bytes]:
    """``_json`` of ``{**head, "services": rows}`` from each row's bytes."""
    prefix = compact_json(head).encode()[:-1]
    return 200, "application/json", b'%s,"services":[%s]}' % (
        prefix, b",".join(rows)
    )


def _error(status: int, message: str) -> tuple[int, str, bytes]:
    return _json(status, {"error": message})


def endpoint_label(path: str) -> str:
    """The telemetry label for a request path (bounded cardinality)."""
    head = path.split("/", 2)[1] if path.startswith("/") else ""
    known = {"host", "services", "liveness", "watermarks", "healthz",
             "metricsz", "tracez"}
    return head if head in known else "other"


def handle_request(
    state: QueryState, method: str, target: str
) -> tuple[int, str, bytes]:
    """Route one request; returns ``(status, content_type, body)``.

    Every response is computed against exactly one snapshot reference,
    taken once at the top -- a request never observes two versions.
    """
    if method != "GET":
        return _error(405, f"method {method} not allowed")
    parts = urlsplit(target)
    path = parts.path
    try:
        query = parse_qs(parts.query)
        snapshot = state.snapshot()
        if path == "/healthz":
            health = state.health()
            return _json(200 if health["ok"] else 503, health)
        if path == "/metricsz":
            return 200, "text/plain; charset=utf-8", prometheus_text(
                registry()
            ).encode()
        if path == "/tracez":
            # The serving process's flight-recorder ring: the most
            # recent trace events, newest last, without touching disk.
            trc = tracer()
            events = trc.flight.snapshot()
            if "limit" in query:
                try:
                    limit = int(query["limit"][-1])
                except ValueError:
                    raise _BadRequest(f"bad limit: {query['limit'][-1]!r}")
                if limit < 0:
                    raise _BadRequest("limit must be non-negative")
                events = events[-limit:] if limit else []
            return _json(
                200,
                {
                    "enabled": trc.enabled,
                    "trace_id": trc.trace_id,
                    "process": trc.process,
                    "flight": trc.flight.state(),
                    "events": events,
                },
            )
        if path == "/watermarks":
            marks = [
                {
                    "time": mark.time,
                    "records": mark.records,
                    "union": mark.summary.union,
                    "both": mark.summary.both,
                    "active_only": mark.summary.active_only,
                    "passive_only": mark.summary.passive_only,
                }
                for mark in snapshot.watermarks
            ]
            return _json(
                200, {"snapshot": _snapshot_info(snapshot), "watermarks": marks}
            )
        if path == "/services":
            return _services_body(
                {"snapshot": _snapshot_info(snapshot)},
                _services_query(snapshot, query),
            )
        if path.startswith("/host/"):
            address = _parse_address(path[len("/host/") :])
            services = snapshot.host_services_json(address)
            if not services:
                return _error(404, "no services discovered for address")
            head = {"address": format_ipv4(address),
                    "snapshot": _snapshot_info(snapshot)}
            return _services_body(head, services)
        if path.startswith("/liveness/"):
            address = _parse_address(path[len("/liveness/") :])
            body = infer_liveness(address, snapshot, state.active)
            body["snapshot"] = _snapshot_info(snapshot)
            return _json(200, body)
        return _error(404, f"no such endpoint: {path}")
    except _BadRequest as exc:
        return _error(400, str(exc))


def _services_query(snapshot, query: dict) -> list[bytes]:
    proto = port = since = limit = None
    if "proto" in query:
        raw = query["proto"][-1].lower()
        if raw not in PROTO_NUMBERS:
            raise _BadRequest(f"bad proto: {raw!r} (want tcp or udp)")
        proto = PROTO_NUMBERS[raw]
    if "port" in query:
        try:
            port = int(query["port"][-1])
        except ValueError:
            raise _BadRequest(f"bad port: {query['port'][-1]!r}")
    if "since" in query:
        since = parse_since(query["since"][-1])
    if "limit" in query:
        try:
            limit = int(query["limit"][-1])
        except ValueError:
            raise _BadRequest(f"bad limit: {query['limit'][-1]!r}")
        if limit < 0:
            raise _BadRequest("limit must be non-negative")
    return snapshot.services_json(
        proto=proto, port=port, since=since, limit=limit
    )


class QueryService:
    """GET-only HTTP/1.1 keep-alive server over a :class:`QueryState`."""

    def __init__(self, state: QueryState, host: str = "127.0.0.1", port: int = 0):
        self.state = state
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None
        self._connections: set[asyncio.Transport] = set()

    async def start(self) -> None:
        """Bind and start accepting; resolves ``port`` when it was 0."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self._dispatch, self._connections),
            self.host, self.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for transport in list(self._connections):
            transport.close()

    def _dispatch(
        self, method: str, target: str, traceparent: str | None = None
    ) -> tuple[int, str, bytes]:
        reg = registry()
        trc = tracer()
        label = endpoint_label(urlsplit(target).path)
        started = time.perf_counter()
        # A valid W3C traceparent header links this request span into
        # the caller's trace; otherwise it roots in this process.
        parent = parse_traceparent(traceparent) if trc.enabled else None
        with span("query.request", parent=parent, endpoint=label) as request:
            try:
                status, content_type, body = handle_request(
                    self.state, method, target
                )
            except Exception as exc:  # defensive: a bug must not kill the server
                status, content_type, body = _error(
                    500, f"internal error: {exc}"
                )
            request.fields["status"] = status
        reg.histogram(
            "repro_query_request_seconds",
            "Query service request latency.",
            bounds=_LATENCY_BUCKETS,
            endpoint=label,
        ).observe(time.perf_counter() - started)
        reg.counter(
            "repro_query_requests_total",
            "Query service requests by endpoint and status code.",
            endpoint=label,
            code=str(status),
        ).inc()
        return status, content_type, body


class _Connection(asyncio.Protocol):
    """One client connection: request heads parsed out of one buffer.

    ``\\n`` ends a line (bare LF or CRLF), a line with more than 64 KiB
    before its end is refused, and EOF ends the last line and the head
    it cuts short, which is still answered.  While the transport is
    over its high-water mark, reading pauses and buffered heads wait.
    """

    def __init__(self, dispatch, connections: set):
        self._dispatch = dispatch
        self._connections = connections
        self._buffer = bytearray()
        #: ``[method, target, traceparent, keep_alive, header lines]``
        #: of the head being read, or None between requests.
        self._head: list | None = None
        self._eof = self._paused = False

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._connections.add(transport)

    def connection_lost(self, exc) -> None:
        self._connections.discard(self._transport)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._serve()

    def eof_received(self) -> bool:
        self._eof = True
        self._serve()
        return True  # the transport closes once every head is answered

    def pause_writing(self) -> None:
        self._paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self._transport.resume_reading()
        self._serve()

    def _reply(self, response: tuple, keep_alive: bool) -> None:
        self._transport.write(_render_response(*response, keep_alive))
        if not keep_alive:
            self._transport.close()

    def _serve(self) -> None:
        """Answer every head the buffer completes, in order."""
        buffer, start, transport = self._buffer, 0, self._transport
        while not (self._paused or transport.is_closing()):
            end = buffer.find(b"\n", start) + 1
            if (end or len(buffer) + 1) - start > _MAX_LINE + 1:
                self._reply(_error(431, "request head too large"), False)
                continue
            if not end:
                if not self._eof:
                    break
                if start == len(buffer):
                    if self._head is None:
                        transport.close()
                        continue
                    buffer += b"\n"  # EOF ends a head cut short
                end = len(buffer)
            line, start, head = buffer[start:end], end, self._head
            if head is None:
                try:
                    method, target, version = line.decode("latin-1").split()
                except ValueError:
                    self._reply(self._dispatch("BAD", "/"), False)
                    continue
                keep_alive = version.upper() != "HTTP/1.0"
                self._head = [method, target, None, keep_alive, 0]
            elif line == b"\r\n" or line == b"\n":
                self._head = None
                self._reply(self._dispatch(*head[:3]), head[3])
            elif head[4] == _MAX_HEADER_LINES:
                self._reply(_error(431, "request head too large"), False)
            else:
                head[4] += 1
                name, _, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "connection":
                    head[3] = value.strip().lower() != "close"
                elif name == "traceparent":
                    head[2] = value.strip()
        del buffer[:start]


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error",
            503: "Service Unavailable"}


def _render_response(
    status: int, content_type: str, body: bytes, keep_alive: bool
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


class QueryClient:
    """Minimal keep-alive client for tests, hammers, and benchmarks."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._reader = self._writer = None

    async def get(self, target: str, headers: dict | None = None):
        """GET *target*; returns ``(status, body)`` with JSON decoded.

        *headers* adds extra request headers (e.g. ``traceparent``).
        """
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        extra = ""
        if headers:
            extra = "".join(f"{k}: {v}\r\n" for k, v in headers.items())
        self._writer.write(
            f"GET {target} HTTP/1.1\r\nHost: {self.host}\r\n{extra}\r\n".encode()
        )
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split()[1])
        content_length = 0
        content_type = ""
        while True:
            header = await self._reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                content_length = int(value.strip())
            elif name == "content-type":
                content_type = value.strip()
        body = await self._reader.readexactly(content_length)
        if content_type.startswith("application/json"):
            return status, json.loads(body)
        return status, body.decode()
