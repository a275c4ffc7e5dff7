"""Tests for the live query service (:mod:`repro.query.http`/``serve``).

Three layers of confidence:

* endpoint tests against a real asyncio server over a finished stream's
  published snapshot (JSON shapes, filters, telemetry counters);
* the concurrent hammer: asyncio client fleets issue mixed queries
  while ingest replays a *faulted* trace through the engine and through
  the process fabric -- zero 5xx responses, snapshot versions monotone
  per client, watermark lists monotone within every response, and the
  final report byte-identical to a no-query run of the same config;
* the CLI: a real ``python -m repro serve`` subprocess answers over
  HTTP and exits cleanly on SIGTERM.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.faults.plan import FaultPlan
from repro.query import ActiveView, QueryClient, QueryService, QueryState
from repro.simkernel.clock import hours
from repro.stream import (
    FabricConfig,
    FabricSupervisor,
    StreamConfig,
    StreamEngine,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Must match the session-scoped ``small_dtcp18`` fixture's build.
SMALL = dict(dataset="DTCP1-18d", seed=7, scale=0.04)

#: Same capture-fault mix the stream equivalence tests use.
CAPTURE_FAULTS = FaultPlan(
    seed=3,
    capture_loss_rate=0.01,
    burst_loss_rate=0.0005,
    burst_mean_length=40,
    outage_fraction=0.03,
    outage_count=2,
)


@pytest.fixture(scope="module")
def served_state(small_dtcp18):
    """A QueryState holding a completed small stream's final snapshot."""
    config = StreamConfig(**SMALL, shards=2, snapshot_every=hours(6))
    engine = StreamEngine(config, dataset=small_dtcp18)
    state = QueryState(ActiveView.from_dataset(small_dtcp18))
    engine.run(publisher=state)
    state.mark_finished()
    return state


async def _with_service(state, body):
    service = QueryService(state, port=0)
    await service.start()
    client = QueryClient("127.0.0.1", service.port)
    try:
        return await body(client)
    finally:
        await client.close()
        await service.close()


def query(state, *targets):
    """GET each target over a real socket; returns (status, body) list."""

    async def body(client):
        return [await client.get(target) for target in targets]

    return asyncio.run(_with_service(state, body))


class TestServiceEndpoints:
    def test_services_and_host_agree(self, served_state):
        (status, listing), = query(served_state, "/services?proto=tcp")
        assert status == 200
        assert listing["services"], "stream discovered no services"
        row = listing["services"][0]
        assert set(row) == {"address", "port", "proto", "evidence",
                            "first_seen", "last_seen", "flows", "clients"}
        (status, host), = query(served_state, f"/host/{row['address']}")
        assert status == 200
        assert row in host["services"]

    def test_liveness_over_http(self, served_state):
        (_, listing), = query(served_state, "/services")
        address = listing["services"][0]["address"]
        (status, body), = query(served_state, f"/liveness/{address}")
        assert status == 200
        assert body["verdict"] in {"alive", "stale", "likely-down"}
        assert body["sweeps_completed"] > 0

    def test_watermarks_shape(self, served_state):
        (status, body), = query(served_state, "/watermarks")
        assert status == 200
        assert body["snapshot"]["version"] >= 1
        for mark in body["watermarks"]:
            assert set(mark) == {"time", "records", "union", "both",
                                 "active_only", "passive_only"}

    def test_healthz_finished(self, served_state):
        (status, body), = query(served_state, "/healthz")
        assert status == 200
        assert body["ingest"] == "finished"
        assert body["records"] > 0

    @pytest.fixture()
    def enabled_registry(self):
        from repro.telemetry import enable
        from repro.telemetry.metrics import disable

        yield enable()
        disable()  # leave the suite on the no-op default

    def test_metricsz_counts_requests(self, served_state, enabled_registry):
        _, (status, text) = query(
            served_state, "/services", "/metricsz"
        )
        assert status == 200
        assert "repro_query_requests_total" in text
        assert 'endpoint="services"' in text
        assert "repro_query_request_seconds" in text

    def test_errors_are_json_not_5xx(self, served_state):
        results = query(
            served_state,
            "/host/none.such.addr",
            "/host/10.99.99.99",
            "/bogus",
        )
        assert [status for status, _ in results] == [400, 404, 404]
        assert all("error" in body for _, body in results)


class TestHostileRequestHeads:
    """A request head over either bound -- a line past the reader's
    64 KiB limit, or more header lines than any client sends -- is
    answered ``431`` and the connection closed; the server carries on."""

    HEAD = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
    FLOOD = b"x: y\r\n" * 1000

    @staticmethod
    async def _exchange(reader, writer, payload):
        """Send *payload*; everything the server says before closing."""
        try:
            writer.write(payload)
            await writer.drain()
            return await asyncio.wait_for(reader.read(), timeout=10)
        finally:
            writer.close()

    @pytest.mark.parametrize("payload", [
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        HEAD + b"x-pad: " + b"a" * 70_000 + b"\r\n\r\n",
        HEAD + FLOOD + b"\r\n",
    ], ids=["request-line", "header-line", "header-flood"])
    def test_oversized_head_is_answered_431(self, served_state, payload):
        async def body(client):
            hostile = await asyncio.open_connection(client.host, client.port)
            reply = await self._exchange(*hostile, payload)
            # The refusal cost the server nothing but that connection.
            return reply, await client.get("/healthz")

        reply, (status, _) = asyncio.run(_with_service(served_state, body))
        head, _, rest = reply.partition(b"\r\n")
        assert head == b"HTTP/1.1 431 Request Header Fields Too Large"
        assert b"Connection: close" in rest
        assert json.loads(rest.partition(b"\r\n\r\n")[2])["error"]
        assert status == 200

    def test_header_count_bound_is_exact(self, served_state):
        async def body(client):
            # QueryClient sends Host itself: 100 header lines, then 101.
            extra = {f"x-{n}": "y" for n in range(100)}
            at_bound = dict(list(extra.items())[:99])
            return (
                await client.get("/healthz", headers=at_bound),
                await client.get("/healthz", headers=extra),
            )

        (at_bound, _), (over, _) = asyncio.run(
            _with_service(served_state, body)
        )
        assert (at_bound, over) == (200, 431)

    def test_second_connection_is_answered_during_a_refusal(
        self, served_state
    ):
        async def body(client):
            reader, writer = await asyncio.open_connection(
                client.host, client.port
            )
            # The hostile head is under way on its connection...
            writer.write(self.HEAD + self.FLOOD[:300])
            await writer.drain()
            during = await client.get("/healthz")
            # ... and refused once it crosses the bound.
            reply = await self._exchange(reader, writer, self.FLOOD + b"\r\n")
            return during, reply, await client.get("/healthz")

        during, reply, after = asyncio.run(_with_service(served_state, body))
        assert during[0] == 200 and after[0] == 200
        assert reply.startswith(b"HTTP/1.1 431 ")


class _Hammer:
    """One client task's collected evidence, asserted after the run."""

    def __init__(self):
        self.responses = 0
        self.errors = []
        self.last_version = -1

    def check(self, status, body, target):
        self.responses += 1
        if status >= 500:
            self.errors.append((status, target, body))
        if isinstance(body, dict) and "snapshot" in body:
            version = body["snapshot"]["version"]
            # Versions observed by a single connection never go back.
            if version < self.last_version:
                self.errors.append(("version-regress", version, self.last_version))
            self.last_version = version
        if isinstance(body, dict) and "watermarks" in body:
            times = [mark["time"] for mark in body["watermarks"]]
            if times != sorted(times):
                self.errors.append(("watermarks-unordered", target, times))


def _hammer_run(mode, dataset):
    config = StreamConfig(
        **SMALL, shards=2, snapshot_every=hours(3), emit_every=hours(48),
        faults=CAPTURE_FAULTS,
    )
    state = QueryState(ActiveView.from_dataset(dataset))
    done = threading.Event()
    failures = []

    def ingest():
        try:
            if mode == "fabric":
                FabricSupervisor(config, FabricConfig(), dataset).run(
                    publisher=state
                )
            else:
                StreamEngine(config, dataset=dataset).run(publisher=state)
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            failures.append(exc)
        finally:
            done.set()

    async def client_task(index, service):
        rng = random.Random(index)
        hammer = _Hammer()
        client = QueryClient("127.0.0.1", service.port)
        addresses = ["128.125.0.1"]
        try:
            while not done.is_set() or hammer.responses < 20:
                choice = rng.randrange(6)
                if choice == 0:
                    target = "/services?proto=tcp&since=48h"
                elif choice == 1:
                    target = "/services?limit=5"
                elif choice == 2:
                    target = f"/host/{rng.choice(addresses)}"
                elif choice == 3:
                    target = f"/liveness/{rng.choice(addresses)}"
                elif choice == 4:
                    target = "/watermarks"
                else:
                    target = "/healthz"
                status, body = await client.get(target)
                hammer.check(status, body, target)
                rows = body.get("services") if isinstance(body, dict) else None
                if isinstance(rows, list) and rows:
                    addresses = [row["address"] for row in rows]
        finally:
            await client.close()
        return hammer

    async def main():
        service = QueryService(state, port=0)
        await service.start()
        loop = asyncio.get_running_loop()
        ingest_future = loop.run_in_executor(None, ingest)
        hammers = await asyncio.gather(
            *(client_task(index, service) for index in range(6))
        )
        await ingest_future
        await service.close()
        return hammers

    hammers = asyncio.run(main())
    assert not failures, f"ingest failed under query load: {failures!r}"
    return state, hammers


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["engine", "fabric"])
def test_hammer_queries_never_disturb_ingest(mode, small_dtcp18):
    state, hammers = _hammer_run(mode, small_dtcp18)

    total = sum(hammer.responses for hammer in hammers)
    assert total >= 120, "hammer issued too few queries to mean anything"
    for hammer in hammers:
        assert not hammer.errors, hammer.errors[:3]

    # Byte-identical final report vs. a run that served no queries.
    config = StreamConfig(
        **SMALL, shards=2, snapshot_every=hours(3), emit_every=hours(48),
        faults=CAPTURE_FAULTS,
    )
    quiet = StreamEngine(config, dataset=small_dtcp18).run()
    assert mode == "fabric" or type(
        StreamEngine(config, dataset=small_dtcp18)._transport(state)
    ).__name__ == "_InlineTransport"
    served = state.snapshot()
    assert dict(served.first_seen) == dict(quiet.snapshot.first_seen)
    assert dict(served.last_seen) == dict(quiet.snapshot.last_seen)
    assert served.records == quiet.snapshot.records
    assert [mark.time for mark in served.watermarks] == [
        mark.time for mark in quiet.watermarks
    ]


SERVE_ARGS = [
    "serve", "DTCP1-18d",
    "--scale", "0.03",
    "--seed", "11",
    "--shards", "2",
    "--port", "0",
    "--snapshot-every", "6",
    "--outage-fraction", "0.02",
    "--fault-seed", "5",
]


@pytest.mark.slow
def test_cli_serve_answers_and_exits_on_sigterm(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.setdefault("REPRO_TRACE_CACHE", str(tmp_path / "trace-cache"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *SERVE_ARGS],
        cwd=tmp_path, env=env, stderr=subprocess.PIPE, text=True,
    )
    try:
        url = None
        deadline = time.monotonic() + 120.0
        for line in proc.stderr:
            match = re.search(r"serving on (http://\S+)", line)
            if match:
                url = match.group(1)
                break
            if time.monotonic() > deadline:
                break
        assert url, "serve never announced its address"

        health = None
        while time.monotonic() < deadline:
            health = json.load(urllib.request.urlopen(url + "/healthz"))
            if health["ingest"] == "finished":
                break
            time.sleep(0.2)
        assert health is not None and health["ingest"] == "finished"
        assert health["endpoints"] > 0

        def get(path):
            return json.load(urllib.request.urlopen(url + path))

        def status(path):
            try:
                return urllib.request.urlopen(url + path).status
            except urllib.error.HTTPError as error:
                return error.code

        listing = get("/services?proto=tcp&limit=10")
        assert listing["snapshot"]["version"] >= 1
        row = listing["services"][0]
        assert sorted(row) == [
            "address", "clients", "evidence", "first_seen", "flows",
            "last_seen", "port", "proto",
        ]

        # /host and /liveness agree with the listing they were picked from.
        address = row["address"]
        host = get(f"/host/{address}")
        assert host["address"] == address
        assert row in host["services"]
        assert get(f"/liveness/{address}")["verdict"] in (
            "alive", "stale", "likely-down"
        )

        marks = get("/watermarks")["watermarks"]
        times = [mark["time"] for mark in marks]
        assert times and times == sorted(times)
        assert sorted(marks[0]) == [
            "active_only", "both", "passive_only", "records", "time", "union",
        ]

        # Bad requests stay 4xx JSON.
        assert status("/host/not.an.addr") == 400
        assert status("/nope") == 404

        metrics = urllib.request.urlopen(url + "/metricsz").read().decode()
        assert re.search(
            r'repro_query_requests_total\{.*endpoint="services"', metrics
        )
        assert "repro_stream_snapshots_total" in metrics

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        assert "serve: shutdown" in proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stderr.close()
