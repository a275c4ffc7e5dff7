"""Stdlib-asyncio HTTP/1.1 front-end for the query service.

Two layers, split so the routing logic is unit-testable without
sockets:

* :func:`handle_request` -- a pure function from (state, method,
  target) to ``(status, content_type, body)``.  All endpoint logic
  lives here; it touches nothing but the :class:`QueryState` handed
  to it, so a test can drive every route synchronously.
* :class:`QueryService` -- a minimal GET-only HTTP/1.1 server on
  ``asyncio.start_server`` with keep-alive, wrapping every request in
  per-endpoint telemetry (``repro_query_requests_total`` /
  ``repro_query_request_seconds``).

The server is deliberately not a general web server: no TLS, no
bodies, no chunked encoding -- exactly what serving JSON snapshots on
a trusted network needs, with zero dependencies beyond the stdlib.

:class:`QueryClient` is the matching keep-alive client used by tests,
the hammer test, and the ``query_service`` benchmark.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from urllib.parse import parse_qs, unquote, urlsplit

from repro.net.addr import parse_ipv4
from repro.telemetry.export import prometheus_text
from repro.telemetry.metrics import registry
from repro.telemetry.tracing import parse_traceparent, span, tracer

from repro.query.liveness import infer_liveness
from repro.query.state import QueryState

#: Suffixes accepted by ``since=`` (e.g. ``12h``, ``30m``, ``2d``).
_SINCE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}

#: Latency buckets for request histograms: 10 us .. ~0.3 s.
_LATENCY_BUCKETS = tuple(1e-5 * 2**i for i in range(15))


#: Header lines one request may carry (Apache's default).  A single line
#: is bounded by the ``StreamReader``'s 64 KiB limit.
_MAX_HEADER_LINES = 100


class _HeadTooLarge(Exception):
    """A request head over either bound: answered ``431``, then closed."""


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
    body = json.dumps(payload, separators=(",", ":")).encode()
    return status, "application/json", body


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
            return _json(
                200,
                {
                    "snapshot": _snapshot_info(snapshot),
                    "services": _services_query(snapshot, query),
                },
            )
        if path.startswith("/host/"):
            address = _parse_address(path[len("/host/") :])
            services = snapshot.host_services(address)
            if not services:
                return _error(404, "no services discovered for address")
            return _json(
                200,
                {
                    "address": services[0]["address"],
                    "snapshot": _snapshot_info(snapshot),
                    "services": services,
                },
            )
        if path.startswith("/liveness/"):
            address = _parse_address(path[len("/liveness/") :])
            body = infer_liveness(address, snapshot, state.active)
            body["snapshot"] = _snapshot_info(snapshot)
            return _json(200, body)
        return _error(404, f"no such endpoint: {path}")
    except _BadRequest as exc:
        return _error(400, str(exc))


def _services_query(snapshot, query: dict) -> list[dict]:
    proto = port = since = limit = None
    if "proto" in query:
        from repro.query.snapshot import PROTO_NUMBERS

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
    return snapshot.services(proto=proto, port=port, since=since, limit=limit)


class QueryService:
    """GET-only HTTP/1.1 keep-alive server over a :class:`QueryState`."""

    def __init__(self, state: QueryState, host: str = "127.0.0.1", port: int = 0):
        self.state = state
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None

    async def start(self) -> None:
        """Bind and start accepting; resolves ``port`` when it was 0."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
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

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HeadTooLarge:
                    writer.write(_render_response(
                        *_error(431, "request head too large"), False
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, keep_alive, traceparent = request
                status, content_type, body = self._dispatch(
                    method, target, traceparent
                )
                writer.write(_render_response(status, content_type, body, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            # Loop teardown cancels lingering keep-alive handlers;
            # finishing quietly avoids 3.11's streams-callback noise.
            asyncio.CancelledError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

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

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """One request head; None at EOF.  Bodies are not supported.

        Returns ``(method, target, keep_alive, traceparent)`` -- the
        only headers inspected are ``Connection`` and ``traceparent``.
        """

        async def readline() -> bytes:
            try:
                return await reader.readline()
            except ValueError:  # the line outran the reader's limit
                raise _HeadTooLarge from None

        line = await readline()
        if not line:
            return None
        try:
            method, target, version = line.decode("latin-1").split()
        except ValueError:
            return "BAD", "/", False, None
        keep_alive = version.upper() != "HTTP/1.0"
        traceparent = None
        for _line in range(_MAX_HEADER_LINES + 1):
            header = await readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "connection":
                keep_alive = value.strip().lower() != "close"
            elif name == "traceparent":
                traceparent = value.strip()
        else:
            raise _HeadTooLarge
        return method, target, keep_alive, traceparent


def _render_response(
    status: int, content_type: str, body: bytes, keep_alive: bool
) -> bytes:
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
              405: "Method Not Allowed",
              431: "Request Header Fields Too Large",
              500: "Internal Server Error",
              503: "Service Unavailable"}.get(status, "Unknown")
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
