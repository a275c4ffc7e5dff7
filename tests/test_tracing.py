"""Distributed event tracing + crash flight recorder.

The tracing layer's contract mirrors the metric registry's (PR 3):
*off by default and free* -- reports stay byte-identical and the
disabled gate costs under 2% on the batched replay workload -- while
*on*, every process of a run (supervisor, shard worker incarnations,
the query service) emits causally linked events sharing one trace_id.
The chaos tests here assert the hard part: trace context survives
worker crashes and failover (replacement incarnations parent on the
supervisor's reassign span), the flight recorder dumps its ring
exactly once per incident, and the Chrome-trace exporter stitches the
per-process files into one loadable timeline.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.faults.worker import WorkerFaultPlan
from repro.query import ActiveView, QueryClient, QueryService, QueryState
from repro.query.http import handle_request
from repro.simkernel.clock import hours
from repro.stream import (
    FabricConfig,
    FabricDegradedError,
    FabricSupervisor,
    IngestStallError,
    Membership,
    StreamConfig,
    StreamIngestor,
    batch_survey_report,
)
from repro.telemetry import (
    FlightRecorder,
    NullFlightRecorder,
    NullTracer,
    SpanContext,
    Tracer,
    chrome_trace,
    disable,
    disable_tracing,
    enable_tracing,
    load_events,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    set_tracer,
    span,
    summarize,
    tracer,
    tracing_enabled,
    write_chrome_trace,
)
from tests import overhead_harness

#: Must match the session-scoped ``small_dtcp18`` fixture's build.
SMALL = dict(dataset="DTCP1-18d", seed=7, scale=0.04)

#: Fault triggers must fire below the smallest per-shard record count.
HORIZON = 20_000


@pytest.fixture(autouse=True)
def reset_telemetry():
    yield
    disable()
    disable_tracing()


def _config(**overrides) -> StreamConfig:
    base = dict(SMALL, emit_every=24 * 3600.0)
    base.update(overrides)
    return StreamConfig(**base)


@pytest.fixture(scope="module")
def batch_reference(small_dtcp18):
    return batch_survey_report(_config(shards=1), dataset=small_dtcp18)


# ---- span context and traceparent -------------------------------------


class TestSpanContext:
    def test_traceparent_round_trip(self):
        ctx = SpanContext(new_trace_id(), new_span_id())
        header = ctx.to_traceparent()
        assert header.startswith("00-") and header.endswith("-01")
        assert parse_traceparent(header) == ctx

    def test_malformed_headers_rejected(self):
        good_trace, good_span = new_trace_id(), new_span_id()
        for header in (
            None,
            "",
            "garbage",
            f"01-{good_trace}-{good_span}-01",          # unknown version
            f"00-{good_trace[:-2]}-{good_span}-01",     # short trace id
            f"00-{good_trace}-{good_span}ab-01",        # long span id
            f"00-{'0' * 32}-{good_span}-01",            # all-zero trace id
            f"00-{good_trace}-{'0' * 16}-01",           # all-zero span id
            f"00-{'g' * 32}-{good_span}-01",            # non-hex
        ):
            assert parse_traceparent(header) is None, header

    def test_ids_are_fresh_and_well_formed(self):
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16
        assert new_trace_id() != new_trace_id()


# ---- tracer unit behaviour --------------------------------------------


class TestTracer:
    def test_disabled_by_default_and_null_is_free(self):
        assert not tracing_enabled()
        trc = tracer()
        assert isinstance(trc, NullTracer)
        assert trc.current_ids() is None
        trc.event("ignored", anything=1)
        trc.note("ignored")
        nothing = span("ignored")
        with nothing:
            pass
        assert span("again") is nothing  # shared null span
        assert trc.dump_flight("k", "r") is None

    def test_event_is_durable_and_note_is_ring_only(self, tmp_path):
        trc = enable_tracing(tmp_path, process="p1")
        assert tracing_enabled()
        trc.event("lifecycle", step=1)
        trc.note("hot", records=5)
        disable_tracing()
        events = load_events(tmp_path)
        names = [record["name"] for record in events]
        assert "process.start" in names and "lifecycle" in names
        assert "hot" not in names  # notes never reach the file
        # ... but the note did reach the flight ring before close.
        assert any(r["name"] == "hot" for r in trc.flight.snapshot())

    def test_span_nesting_and_parents(self, tmp_path):
        trc = enable_tracing(tmp_path, process="p1")
        with span("outer") as outer:
            assert trc.current_ids() == (trc.trace_id, outer.span_id)
            with span("inner", detail=7) as inner:
                inner.fields["late"] = True
        assert trc.current_ids() == (trc.trace_id, trc.root_id)
        disable_tracing()
        by_name = {r["name"]: r for r in load_events(tmp_path)}
        assert by_name["outer"]["parent"] == trc.root_id
        assert by_name["inner"]["parent"] == outer.span_id
        assert by_name["inner"]["fields"] == {"detail": 7, "late": True}
        assert by_name["inner"]["dur"] >= 0

    def test_one_span_feeds_every_enabled_sink_once(self, tmp_path):
        """Registry, durable file and flight ring all on: one record in
        each, under the one name the site gave."""
        from repro.telemetry import MetricRegistry, set_registry

        reg = MetricRegistry()
        set_registry(reg)
        trc = enable_tracing(tmp_path, process="p1")
        with span("phase", step=1):
            pass
        with span("hot") as hot:
            hot.durable = False
        ring = [r["name"] for r in trc.flight.snapshot()]
        disable_tracing()
        written = [r["name"] for r in load_events(tmp_path)]
        assert written.count("phase") == ring.count("phase") == 1
        assert reg.histogram("repro_span_seconds", span="phase").count == 1
        # The ring-only tier skips the file and nothing else.
        assert written.count("hot") == 0 and ring.count("hot") == 1
        assert reg.histogram("repro_span_seconds", span="hot").count == 1

    def test_span_records_error_field_on_exception(self, tmp_path):
        trc = enable_tracing(tmp_path, process="p1")
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("boom")
        disable_tracing()
        by_name = {r["name"]: r for r in load_events(tmp_path)}
        assert by_name["doomed"]["fields"]["error"] == "ValueError"

    def test_foreign_parent_becomes_link_trace(self, tmp_path):
        trc = enable_tracing(tmp_path, process="p1")
        foreign = SpanContext(new_trace_id(), new_span_id())
        trc.event("linked", parent=foreign)
        disable_tracing()
        by_name = {r["name"]: r for r in load_events(tmp_path)}
        assert by_name["linked"]["parent"] == foreign.span_id
        assert by_name["linked"]["link_trace"] == foreign.trace_id

    def test_set_tracer_none_restores_null(self, tmp_path):
        enable_tracing(tmp_path)
        assert tracing_enabled()
        set_tracer(None)
        assert not tracing_enabled()


# ---- flight recorder --------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        flight = FlightRecorder(limit=4, process="t")
        for index in range(10):
            flight.record({"n": index})
        kept = flight.snapshot()
        assert len(kept) == 4
        assert [r["n"] for r in kept] == [6, 7, 8, 9]

    def test_dump_writes_once_per_key(self, tmp_path):
        flight = FlightRecorder(limit=8, process="t")
        flight.record({"n": 1})
        first = flight.dump(tmp_path, "crash", "injected")
        again = flight.dump(tmp_path, "crash", "injected")
        other = flight.dump(tmp_path, "other", "different incident")
        assert first is not None and first.exists()
        assert again is None
        assert other is not None and other != first
        payload = json.loads(first.read_text(encoding="utf-8"))
        assert payload["process"] == "t"
        assert payload["reason"] == "injected"
        assert payload["events"] == [{"n": 1}]
        assert sorted(flight.state()["dumps"]) == sorted(
            [first.name, other.name]
        )

    def test_null_recorder_is_inert(self, tmp_path):
        flight = NullFlightRecorder()
        flight.record({"n": 1})
        assert flight.snapshot() == []
        assert flight.dump(tmp_path, "k", "r") is None
        assert flight.state() == {"limit": 0, "buffered": 0, "dumps": []}


# ---- chrome exporter --------------------------------------------------


class TestChromeExport:
    def _two_process_trace(self, tmp_path):
        sup = set_tracer(Tracer(tmp_path, process="supervisor"))
        with span("fabric.reassign", shard=0):
            handoff = sup.current_ids()
        set_tracer(None)
        worker = Tracer(tmp_path, trace_id=sup.trace_id, process="shard0-i1")
        worker.event("worker.start", parent=handoff, shard=0, incarnation=1)
        worker.close()
        sup.close()
        return sup, worker

    def test_chrome_trace_structure_and_flow_arrows(self, tmp_path):
        sup, worker = self._two_process_trace(tmp_path)
        events = load_events(tmp_path)
        assert {r["trace"] for r in events} == {sup.trace_id}
        doc = chrome_trace(events)
        assert doc["displayTimeUnit"] == "ms"
        phases = {entry["ph"] for entry in doc["traceEvents"]}
        # Metadata, complete spans, instants, and a cross-process flow.
        assert {"M", "X", "i", "s", "f"} <= phases
        names = {
            entry["args"]["name"]
            for entry in doc["traceEvents"]
            if entry["ph"] == "M"
        }
        assert names == {"supervisor", "shard0-i1"}
        path, count = write_chrome_trace(tmp_path)
        assert path.name == "trace.json"
        assert count == len(events)
        json.loads(path.read_text())  # loadable output

    def test_summary_names_the_failover(self, tmp_path):
        self._two_process_trace(tmp_path)
        text = summarize(load_events(tmp_path))
        assert "Processes" in text
        assert "Failover timeline" in text
        assert "worker.start" in text

    def test_empty_directory_loads_nothing(self, tmp_path):
        assert load_events(tmp_path) == []


# ---- fabric trace propagation under chaos -----------------------------


class TestFabricTracePropagation:
    def test_failover_is_one_causal_chain(
        self, tmp_path, small_dtcp18, batch_reference, capsys, fast_fabric
    ):
        """Crash chaos: one trace_id spans supervisor + both worker
        incarnations, replacement workers parent on the reassign span,
        and every death dumps the flight ring -- while the report stays
        byte-identical to the batch path."""
        fast_fabric(max_restarts=25)
        enable_tracing(tmp_path, process="supervisor")
        faults = WorkerFaultPlan(
            seed=13, crash_rate=1.0, horizon_records=HORIZON
        )
        result = FabricSupervisor(
            _config(shards=2),
            FabricConfig(worker_faults=faults),
            dataset=small_dtcp18,
        ).run()
        disable_tracing()
        assert result.report == batch_reference

        events = load_events(tmp_path)
        assert {r["trace"] for r in events} == {events[0]["trace"]}
        processes = {r["process"] for r in events}
        assert "supervisor" in processes
        # Every shard crashed once, so both have a second incarnation.
        assert {"shard0-i0", "shard0-i1", "shard1-i0", "shard1-i1"} \
            <= processes

        reassign_spans = {
            r["span"] for r in events
            if r["process"] == "supervisor" and r["name"] == "fabric.reassign"
        }
        replacement_starts = [
            r for r in events
            if r["name"] == "worker.start" and not r["process"].endswith("-i0")
        ]
        assert replacement_starts
        for record in replacement_starts:
            assert record["parent"] in reassign_spans

        # One flight dump per detected death, plus the injected crashes'
        # own dumps from inside the dying workers.
        deaths = [r for r in events if r["name"] == "fabric.dead"]
        failover_dumps = sorted(
            tmp_path.glob("flight-supervisor-failover-*.json")
        )
        assert len(failover_dumps) == len(deaths) >= 2
        crash_dumps = sorted(tmp_path.glob("flight-shard*-crash.json"))
        assert len(crash_dumps) == 2
        payload = json.loads(crash_dumps[0].read_text(encoding="utf-8"))
        # The ring had history at the moment: the per-batch spans, which
        # are ring-only -- timed like any span, never a JSONL line each.
        batches = [
            r for r in payload["events"] if r["name"] == "worker.batch"
        ]
        assert batches
        assert all(r["kind"] == "span" and r["dur"] >= 0 for r in batches)
        assert batches[-1]["fields"]["records"] > 0
        assert not any(r["name"] == "worker.batch" for r in events)
        assert any(r["name"] == "worker.mark" for r in events)

        # The merged view is loadable and narrates the failover.
        path, count = write_chrome_trace(tmp_path)
        assert count == len(events)
        json.loads(path.read_text())
        text = summarize(events)
        assert "fabric.dead" in text and "fabric.restore" in text

        # And so does the CLI, over a chaos run's directory: the summary
        # on stdout, the Chrome trace (flow arrows across at least two
        # incarnations of a shard) beside the event files.
        from repro.cli import main

        capsys.readouterr()
        assert main(["trace-view", str(tmp_path)]) == 0
        shown = capsys.readouterr()
        assert "Failover timeline" in shown.out
        assert "fabric.restore" in shown.out
        assert f"-> {tmp_path / 'trace.json'}" in shown.err
        entries = json.loads((tmp_path / "trace.json").read_text())[
            "traceEvents"
        ]
        assert {"M", "X", "i", "s", "f"} <= {e["ph"] for e in entries}
        assert {"supervisor", "shard0-i0", "shard0-i1"} <= {
            e["args"]["name"] for e in entries if e["ph"] == "M"
        }

    def test_degraded_run_dumps_flight_exactly_once(
        self, tmp_path, small_dtcp18, fast_fabric
    ):
        fast_fabric(max_restarts=1)
        enable_tracing(tmp_path, process="supervisor")
        faults = WorkerFaultPlan(
            seed=21, crash_rate=1.0, crashes_per_shard=99,
            horizon_records=5_000,
        )
        with pytest.raises(FabricDegradedError):
            FabricSupervisor(
                _config(shards=2, emit_every=None),
                FabricConfig(worker_faults=faults),
                dataset=small_dtcp18,
            ).run()
        disable_tracing()
        degraded = list(tmp_path.glob("flight-supervisor-degraded.json"))
        assert len(degraded) == 1
        payload = json.loads(degraded[0].read_text(encoding="utf-8"))
        assert "restarted" in payload["reason"]
        events = load_events(tmp_path)
        assert any(r["name"] == "fabric.degraded" for r in events)


class TestByteIdenticalWithTracing:
    def test_stream_stdout_identical(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["stream", "DTCP1-18d", "--scale", "0.04", "--seed", "7",
                "--shards", "2"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--trace", str(tmp_path / "tr")]) == 0
        traced = capsys.readouterr().out
        assert traced == plain
        assert not tracing_enabled()  # the CLI closed its tracer
        assert load_events(tmp_path / "tr")


# ---- ingest stall dumps -----------------------------------------------


class _BlockedState:
    """A wedged shard consumer (same shape test_stream_fabric uses)."""

    def __init__(self):
        import threading

        self.release = threading.Event()
        self.index = 0
        self.records = 0
        self.last_seen = {}

    def observe_columns(self, cols):  # pragma: no cover - timing-dependent
        # Bounded, far above the stall budgets: a test that fails before
        # it releases must not leave close() joining a wedged thread.
        self.release.wait(30.0)


class TestIngestStallDump:
    def test_stall_error_dumps_flight_ring(self, tmp_path, timings):
        timings(queue_chunks=1, ingest_put_timeout=0.01,
                ingest_stall_timeout=0.05)
        enable_tracing(tmp_path)
        state = _BlockedState()
        ingestor = StreamIngestor([state])
        try:
            with pytest.raises(IngestStallError):
                for _ in range(50):
                    ingestor.dispatch([[object()]])
        finally:
            state.release.set()
            ingestor.close()
        disable_tracing()
        dumps = list(tmp_path.glob("flight-main-ingest-stall-shard0.json"))
        assert len(dumps) == 1
        events = load_events(tmp_path)
        assert any(r["name"] == "stream.ingest_stall" for r in events)


# ---- membership health ------------------------------------------------


class TestMembershipHealth:
    def test_health_reports_per_shard_state(self):
        ms = Membership(shards=2)
        inc = ms.launch(0, now=0.0)
        ms.join(0, inc, now=0.2, pid=42)
        ms.answer(0, inc, now=0.5)
        ms.owe(0, True, now=0.6)
        health = ms.health(now=1.0)
        assert [h["shard"] for h in health] == [0, 1]
        first = health[0]
        assert first["incarnation"] == 0
        assert first["pid"] == 42
        assert first["joined"] is True
        assert first["restarts"] == 0
        assert first["answer_age"] == pytest.approx(0.5)
        assert first["owes"] is True
        assert health[1]["joined"] is False
        assert health[1]["owes"] is False


# ---- query service: /tracez, /healthz, traceparent --------------------


class TestQueryTraceSurface:
    def test_tracez_disabled(self):
        status, _, body = handle_request(QueryState(), "GET", "/tracez")
        data = json.loads(body)
        assert status == 200
        assert data["enabled"] is False
        assert data["events"] == []

    def test_tracez_serves_recent_ring(self, tmp_path):
        trc = enable_tracing(tmp_path, process="engine")
        for index in range(5):
            trc.note("tick", n=index)
        status, _, body = handle_request(
            QueryState(), "GET", "/tracez?limit=3"
        )
        data = json.loads(body)
        assert status == 200
        assert data["enabled"] is True
        assert data["trace_id"] == trc.trace_id
        assert data["process"] == "engine"
        assert len(data["events"]) == 3
        assert [r["fields"]["n"] for r in data["events"]] == [2, 3, 4]
        assert data["flight"]["buffered"] >= 5
        # No limit returns the whole ring; limit=0 returns state only.
        _, _, body = handle_request(QueryState(), "GET", "/tracez")
        assert len(json.loads(body)["events"]) == 6  # process.start + 5
        _, _, body = handle_request(QueryState(), "GET", "/tracez?limit=0")
        assert json.loads(body)["events"] == []

    def test_tracez_limit_past_the_ring_returns_every_event(self, tmp_path):
        trc = enable_tracing(tmp_path, process="engine")
        for index in range(5):
            trc.note("tick", n=index)
        _, _, body = handle_request(QueryState(), "GET", "/tracez")
        events = json.loads(body)["events"]
        expected = {len(events) - 1: events[1:], len(events): events,
                    len(events) + 2: events, 0: []}
        for limit, want in expected.items():
            _, _, body = handle_request(
                QueryState(), "GET", f"/tracez?limit={limit}"
            )
            assert json.loads(body)["events"] == want, limit

    def test_tracez_bad_limit_is_400(self):
        status, _, _ = handle_request(QueryState(), "GET", "/tracez?limit=x")
        assert status == 400

    def test_healthz_carries_fabric_and_flight(self, tmp_path):
        state = QueryState()
        state.update_fabric([
            {"shard": 0, "incarnation": 1, "pid": 7, "joined": True,
             "restarts": 1, "answer_age": 0.1, "owes": False},
        ])
        enable_tracing(tmp_path, process="engine")
        _, _, body = handle_request(state, "GET", "/healthz")
        data = json.loads(body)
        assert data["fabric"][0]["shard"] == 0
        assert data["fabric"][0]["restarts"] == 1
        assert data["flight"]["limit"] > 0
        disable_tracing()
        _, _, body = handle_request(state, "GET", "/healthz")
        data = json.loads(body)
        assert "flight" not in data
        assert data["fabric"][0]["incarnation"] == 1

    def test_traceparent_links_request_span(self, tmp_path):
        enable_tracing(tmp_path, process="engine")
        caller = SpanContext(new_trace_id(), new_span_id())

        async def body(client):
            return await client.get(
                "/healthz", headers={"traceparent": caller.to_traceparent()}
            )

        async def run():
            service = QueryService(
                QueryState(ActiveView(sweeps=())),
                port=0,
            )
            await service.start()
            client = QueryClient("127.0.0.1", service.port)
            try:
                return await body(client)
            finally:
                await client.close()
                await service.close()

        status, _ = asyncio.run(run())
        assert status == 200
        disable_tracing()
        requests = [
            r for r in load_events(tmp_path) if r["name"] == "query.request"
        ]
        assert len(requests) == 1
        span = requests[0]
        assert span["parent"] == caller.span_id
        assert span["link_trace"] == caller.trace_id
        assert span["fields"]["endpoint"] == "healthz"
        assert span["fields"]["status"] == 200


# ---- stats --per-process ----------------------------------------------


@pytest.mark.slow
def test_cli_serve_trace_answers_tracez_and_exits_on_sigterm(tmp_path):
    """A real ``serve --workers 2 --trace`` subprocess: ``/tracez`` and
    the fabric/flight half of ``/healthz`` over a real socket, exit 0
    on SIGTERM (what ``scripts/trace_smoke.sh`` held with curl and jq)."""
    import os
    import re
    import signal
    import subprocess
    import sys
    import urllib.request
    from pathlib import Path

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env.setdefault("REPRO_TRACE_CACHE", str(tmp_path / "trace-cache"))
    trace_dir = tmp_path / "serve-trace"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "DTCP1-18d",
         "--scale", "0.03", "--seed", "11", "--workers", "2", "--port", "0",
         "--snapshot-every", "6", "--trace", str(trace_dir)],
        cwd=tmp_path, env=env, stderr=subprocess.PIPE, text=True,
    )
    try:
        url = None
        for line in proc.stderr:
            match = re.search(r"serving on (http://\S+)", line)
            if match:
                url = match.group(1)
                break
        assert url, "serve never announced its address"

        def get(path):
            return json.load(urllib.request.urlopen(url + path))

        tracez = get("/tracez?limit=20")
        assert tracez["enabled"] and len(tracez["trace_id"]) == 32
        assert tracez["process"] == "supervisor"
        assert tracez["events"] and tracez["flight"]["limit"] > 0

        deadline = time.monotonic() + 120.0
        health = get("/healthz")
        while health["ingest"] != "finished" and time.monotonic() < deadline:
            time.sleep(0.2)
            health = get("/healthz")
        assert health["ok"] and health["ingest"] == "finished"
        assert health["flight"]["limit"] > 0
        assert len(health["fabric"]) == 2
        assert {"incarnation", "restarts", "answer_age", "owes"} <= set(
            health["fabric"][0]
        )

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        assert f"trace: events in {trace_dir}" in proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    assert load_events(trace_dir)


class TestStatsPerProcess:
    def _export(self, tmp_path):
        from repro.telemetry import MetricRegistry, set_registry, write_exports

        reg = MetricRegistry()
        for process in (None, "shard0", "shard1"):
            worker = MetricRegistry(process=process)
            set_registry(worker)
            with span("fold"):
                pass
            reg.merge_snapshot(worker.snapshot())
        return write_exports(tmp_path, reg)

    def test_flag_reveals_process_attribution(self, tmp_path, capsys):
        from repro.cli import main

        self._export(tmp_path)
        assert main(["stats", str(tmp_path)]) == 0
        default_view = capsys.readouterr().out
        assert "Spans by process" not in default_view
        assert main(["stats", str(tmp_path), "--per-process"]) == 0
        per_process = capsys.readouterr().out
        assert "Spans by process" in per_process
        assert "| shard0  | fold | 1 " in per_process
        assert "| shard1  | fold | 1 " in per_process

    def test_default_view_sums_a_span_over_processes_once(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        self._export(tmp_path)
        assert main(["stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        # One row for the path, counting home + shard0 + shard1 once
        # each, and the labelled series do not reappear elsewhere.
        assert out.count("fold") == 1
        assert "| fold | 3 " in out


# ---- disabled-path overhead -------------------------------------------


class TestNoOpTracingOverhead:
    """The per-batch gate (``if trc.enabled: trc.note(...)``) -- exactly
    as the engine and worker hot loops write it -- must stay within
    noise of the ungated fold."""

    @staticmethod
    def _plain_pass(chunks, observer):
        count = 0
        for batch in chunks:
            observer.observe_columns(batch)
            count += len(batch)
        return count

    @staticmethod
    def _gated_pass(chunks, observer):
        trc = tracer()
        count = 0
        for batch in chunks:
            observer.observe_columns(batch)
            count += len(batch)
            if trc.enabled:
                trc.note("engine.batch", records=count)
        return count

    def test_disabled_engine_reaches_nothing_per_batch(
        self, small_dtcp18, monkeypatch
    ):
        """The timing check's deterministic companion: with tracing and
        telemetry off, a stream run cut into 8x as many batches reaches
        the tracer and the registry exactly as often -- so a cost in the
        per-batch gate fails on every run."""
        from repro.stream import StreamEngine, engine

        assert not tracing_enabled()
        batches = []
        route = engine.route_columns

        def counting_route(batch, *args):
            batches.append(len(batch))
            return route(batch, *args)

        monkeypatch.setattr(engine, "route_columns", counting_route)

        def reach(batch_records):
            batches.clear()
            config = _config(shards=2, end=hours(48),
                             batch_records=batch_records)

            def run(tally):
                StreamEngine(config, dataset=small_dtcp18).run()

            tally = overhead_harness.disabled_reach(run)
            return tally, len(batches)

        coarse, coarse_batches = reach(8192)
        fine, fine_batches = reach(1024)
        assert fine_batches >= 8 * (coarse_batches - 1) > 0
        assert fine == coarse

    def test_disabled_gate_below_two_percent(self):
        assert not tracing_enabled()
        cost = overhead_harness.overhead(self._plain_pass, self._gated_pass)
        assert cost < overhead_harness.BOUND, (
            f"disabled-tracing overhead {cost:.2%}"
        )
