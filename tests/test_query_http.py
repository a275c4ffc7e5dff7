"""The query server's request loop on raw sockets, and the ingest status.

Each case sends bytes as a client could, closes its write side, and
reads every answer until the server closes.  The expected answers are
what the stream-reader server this loop replaced gave for the same
bytes: its line rules (bare LF, a cut-short last line at EOF, the
64 KiB line bound), its 405 for an unparseable request line, and
keep-alive decided by ``Connection`` and HTTP/1.0.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.query import QueryService, QueryState
from repro.query.http import _Connection
from repro.simkernel.clock import hours
from repro.stream import StreamConfig, StreamEngine

#: Must match the session-scoped ``small_dtcp18`` fixture's build.
SMALL = dict(dataset="DTCP1-18d", seed=7, scale=0.04)

HEAD = b"GET /healthz HTTP/1.1\r\n\r\n"
OK = (200, "keep-alive", None)


def split_answers(reply: bytes) -> list[tuple]:
    """``(status, Connection, error message or None)`` per answer."""
    answers = []
    while reply:
        head, _, rest = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        fields = dict(line.split(": ", 1) for line in lines[1:])
        length = int(fields["Content-Length"])
        body, reply = json.loads(rest[:length]), rest[length:]
        answers.append(
            (int(lines[0].split()[1]), fields["Connection"], body.get("error"))
        )
    return answers


def exchange(chunks: list[bytes]) -> list[tuple]:
    """Send *chunks* one write each, half-close, return every answer."""

    async def run():
        state = QueryState()
        state.mark_finished()
        service = QueryService(state, port=0)
        await service.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            for chunk in chunks:
                writer.write(chunk)
                await writer.drain()
                if len(chunks) > 1:
                    await asyncio.sleep(0.001)  # one segment per write
            writer.write_eof()
            reply = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            return reply
        finally:
            await service.close()

    return split_answers(asyncio.run(run()))


BAD = (405, "close", "method BAD not allowed")
TOO_LARGE = (431, "close", "request head too large")


@pytest.mark.parametrize("chunks, answers", [
    # A head cut short by EOF is still answered.
    ([b"GET /healthz HTTP/1.1\r\nHost: x"], [OK]),
    ([b"GET /healthz HTTP/1.1\r\n"], [OK]),
    ([b"GET /healthz HTTP/1.1"], [OK]),
    ([b"GET /healthz\r\n\r\n"], [BAD]),
    ([HEAD + b"GET /nope HTTP/1.1\r\n\r\n"],
     [OK, (404, "keep-alive", "no such endpoint: /nope")]),
    ([b"\r\n" + HEAD], [BAD]),
    # The body is not read: it is the next request line.
    ([b"POST /healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"],
     [(405, "keep-alive", "method POST not allowed"), BAD]),
    ([bytes([byte]) for byte in b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"],
     [OK]),
    ([b"GET /healthz HTTP/1.1\nHost: x\n\nGET /nope HTTP/1.1\n\n"],
     [OK, (404, "keep-alive", "no such endpoint: /nope")]),
    ([b"GET /healthz HTTP/1.1\r\n\n"], [OK]),
    ([b"GET /healthz HTTP/1.0\r\n\r\n" * 2], [(200, "close", None)]),
    ([b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"], [OK]),
    ([b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n" + HEAD],
     [(200, "close", None)]),
    ([HEAD + b"BAD\r\n" + HEAD], [OK, BAD]),
    # 100 header lines are read; the 101st, even cut short, is refused.
    ([b"GET /healthz HTTP/1.1\r\n" + b"x: y\r\n" * 100], [OK]),
    ([b"GET /healthz HTTP/1.1\r\n" + b"x: y\r\n" * 100 + b"x"], [TOO_LARGE]),
], ids=[
    "eof-cut-head", "request-line-alone", "request-line-cut", "no-version",
    "pipelined", "leading-blank-line", "post-with-body", "dribbled", "bare-lf",
    "mixed-line-ends", "http-1.0", "http-1.0-keep-alive", "connection-close",
    "bad-after-good", "100-headers", "101st-header-cut",
])
def test_raw_heads_are_answered_as_before(chunks, answers):
    assert exchange(chunks) == answers


def test_line_bound_is_exact():
    """64 KiB before a line's end is accepted; one byte more is not."""
    for before_end, answers in (
        (1 << 16, [(404, "keep-alive", None)]),
        ((1 << 16) + 1, [TOO_LARGE]),
    ):
        target = b"/" + b"a" * (before_end - len(b"GET  HTTP/1.1\r/"))
        line = b"GET " + target + b" HTTP/1.1\r\n"
        assert line.index(b"\n") == before_end
        got = exchange([line + b"\r\n"])
        assert [answer[:2] for answer in got] == [a[:2] for a in answers]
    # Without a line end, the bound holds at EOF too.
    assert exchange([b"a" * (1 << 16)]) == [BAD]
    assert exchange([b"a" * ((1 << 16) + 1)]) == [TOO_LARGE]


class _FakeTransport:
    """Records writes; calls back ``pause_writing`` on the first one,
    as a transport over its high-water mark would."""

    def __init__(self):
        self.writes: list[bytes] = []
        self.reading = True
        self.closed = False
        self.protocol = None

    def write(self, data: bytes) -> None:
        self.writes.append(data)
        if len(self.writes) == 1:
            self.protocol.pause_writing()

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True


def test_pause_writing_pauses_reading_and_holds_buffered_heads():
    served = []

    def dispatch(method, target, traceparent=None):
        served.append(target)
        return 200, "application/json", b"{}"

    connections: set = set()
    transport = _FakeTransport()
    protocol = transport.protocol = _Connection(dispatch, connections)
    protocol.connection_made(transport)
    protocol.data_received(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
    # The first answer filled the buffer: reading stops, /b waits.
    assert served == ["/a"] and not transport.reading
    assert protocol.eof_received() is True
    assert not transport.closed  # /b is still owed
    protocol.resume_writing()
    assert served == ["/a", "/b"] and transport.reading
    assert transport.closed  # EOF seen and every head answered
    assert len(transport.writes) == 2
    protocol.connection_lost(None)
    assert not connections


def test_request_stop_reads_ingest_stopped(small_dtcp18):
    """An ingest cut short by ``request_stop()`` is ``stopped``, not
    ``finished``; the status stays ok (the exit code is 0)."""
    from repro.query.serve import ingest

    config = StreamConfig(**SMALL, shards=2, snapshot_every=hours(6))
    engine = StreamEngine(config, dataset=small_dtcp18)

    class StopOnFirstPublish(QueryState):
        def publish(self, snapshot):
            engine.request_stop()
            return super().publish(snapshot)

    finished = QueryState()
    ingest(finished, StreamEngine(config, dataset=small_dtcp18))
    assert finished.health()["ingest"] == "finished"

    state = StopOnFirstPublish()
    ingest(state, engine)
    health = state.health()
    assert health["ingest"] == "stopped" and health["ok"]
    assert 0 < health["records"] < finished.health()["records"]
