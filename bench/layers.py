"""The traced layer run: every layer's public calls, timed from outside.

The end-to-end workloads say *that* a number moved; this run says
*where*.  The bench drives each stage itself, single-threaded, over the
same recorded trace in the batches the engine reads it in, with a
:class:`harness.SpanRecorder` span around every call into a layer's
public functions -- no code under ``src/`` is instrumented.  The cold
stages (build, generate, write, scalar observe, report) run once and
double as the preparation of the trace; the warm stages repeat in
rounds until the time budget is spent, and each metric is the median
over rounds, at nominal machine speed (:class:`harness.Reference`
samples taken between stages).  A layer's self time is its span minus
its children.

The run does not depend on ``--workload``: the layers are the same
whichever workload a reader came from, and the contract wants every
per-layer metric from every traced run.  ``bench/README.md`` lists
which end-to-end number each layer metric is expected to move.
"""

from __future__ import annotations

import asyncio
import pickle
from time import perf_counter

import harness
from harness import DATASET, PARALLELISM, SpanRecorder, metric
from workloads import FAULT_RATES, PROBE_RATE, ROUTES, Context

#: Calls per route per round for the handler and round-trip medians.
ROUTE_CALLS = 100
#: Seconds of the six-way mix per round for ``http.static_query_per_s``.
STATIC_MIX_SECONDS = 0.5
#: Calls per round for the per-call snapshot/publish/checkpoint medians.
SMALL_CALLS = 10

INLINE_STAGES = (
    "trace.decode", "shard.split_columns", "shard.observe_columns",
    "watermark.summary", "engine.finalize",
)


class _NoopShard:
    """A shard state that folds nothing: isolates the queue hop."""

    def observe_columns(self, cols) -> None:
        pass

    observe_batch = observe_columns


class _CountingPublisher:
    def __init__(self) -> None:
        self.count = 0

    def publish(self, snapshot) -> None:
        self.count += 1


def _fresh_states(dataset):
    from repro.stream import ShardState

    return [
        ShardState(index, harness.passive_table(dataset))
        for index in range(PARALLELISM)
    ]


def cold_stages(rec: SpanRecorder, ctx: Context):
    """Build, generate, write, observe, report -- once, on an empty cache.

    Returns ``(dataset, record_count, report)``; the written file is the
    shared trace every warm stage reads.
    """
    from repro.datasets import build_dataset
    from repro.passive.monitor import replay
    from repro.trace.cache import default_trace_cache
    from repro.trace.columnar import ColumnarTraceWriter

    harness.use_trace_cache(ctx.scratch / "cache", ctx.scratch)
    rec.tick(ctx.reference, 0.1)
    with rec.span("datasets.build_dataset"):
        dataset = build_dataset(DATASET, seed=ctx.seed, scale=ctx.scale)
    rec.tick(ctx.reference, 0.1)
    with rec.span("traffic.generate"):
        records = list(dataset.packet_stream())
    rec.tick(ctx.reference, 0.1)
    pending = default_trace_cache().begin_write(dataset.trace_cache_key)
    with rec.span("trace.write"):
        with ColumnarTraceWriter.open(pending.tmp_path) as writer:
            write = writer.write
            for record in records:
                write(record)
        pending.commit()
    table = harness.passive_table(dataset)
    with rec.span("passive.observe_scalar"):
        replay(records, table)
    rec.tick(ctx.reference, 0.1)
    with rec.span("core.report"):
        report = harness.survey_report(
            dataset, table, len(records), ctx.seed, ctx.scale
        )
    return dataset, len(records), report


def inline_pass(rec: SpanRecorder, dataset, path, config, marks):
    """``stream_clean``'s stages driven inline on one thread.

    Decode, split, observe, watermark and finalize are the engine's own
    public functions called in the engine's order; what is missing is
    the run loop and the thread hand-off, which is what
    ``engine.unaccounted_ms`` measures.  Returns ``(result, states,
    shard_record_counts, batch_end_times, wall_seconds)``, the wall
    clocked over exactly what the ``engine.inline_pass`` span covers.
    """
    from repro.stream import ActiveTimeline, Watermark, finalize_result, windowed_summary
    from repro.stream.shard import split_columns
    from repro.trace.columnar import read_trace_columns

    states = _fresh_states(dataset)
    active = ActiveTimeline(dataset.scan_reports, dataset.udp_report)
    is_campus = dataset.is_campus
    counts = [0] * PARALLELISM
    ends: list[float] = []
    watermarks = []
    records = 0
    now = 0.0

    def watermark(mark: float) -> None:
        with rec.span("watermark.summary"):
            passive = {
                address
                for state in states
                for (address, _, _), seen in state.table.first_seen.items()
                if seen <= mark
            }
            summary = windowed_summary(passive, active, mark)
        watermarks.append(Watermark(time=mark, records=records, summary=summary))

    started = perf_counter()
    with rec.span("engine.inline_pass"):
        batches = read_trace_columns(path, chunk_records=config.batch_records)
        while True:
            with rec.span("trace.decode"):
                batch = next(batches, None)
            if batch is None:
                break
            records += len(batch)
            now = float(batch.time[-1])
            ends.append(now)
            with rec.span("shard.split_columns"):
                parts = split_columns(batch, is_campus, PARALLELISM)
            for index, part in enumerate(parts):
                counts[index] += len(part)
                if len(part):
                    with rec.span("shard.observe_columns"):
                        states[index].observe_columns(part)
            while len(watermarks) < len(marks) and now >= marks[len(watermarks)]:
                watermark(marks[len(watermarks)])
        while len(watermarks) < len(marks):
            watermark(marks[len(watermarks)])
        with rec.span("engine.finalize"):
            result = finalize_result(
                config, dataset, states, watermarks, records, records, 0,
                False, now=now,
            )
    return result, states, counts, ends, perf_counter() - started


def warm_round(rec: SpanRecorder, ctx: Context, dataset, path, facts: dict) -> None:
    """One round of every warm stage; exact counts land in *facts*."""
    from repro.faults.plan import FaultPlan
    from repro.passive.monitor import replay_columnar
    from repro.passive.scandetect import ExternalScanDetector
    from repro.probe import build_prober
    from repro.query import ActiveView, QueryState
    from repro.query.http import handle_request
    from repro.query.snapshot import snapshot_states
    from repro.simkernel.clock import hours
    from repro.stream import (
        FabricConfig,
        FabricSupervisor,
        StreamEngine,
        StreamIngestor,
        checkpoint_config,
        emit_schedule,
        load_checkpoint,
        merge_shards,
        merged_last_seen,
        save_checkpoint,
    )
    from repro.stream.shard import split_columns
    from repro.trace.columnar import read_trace_columns

    config = harness.stream_config(ctx.seed, ctx.scale)
    marks = emit_schedule(dataset.duration, config.emit_every)
    checks = facts.setdefault("reports", [])

    def tick() -> None:
        rec.tick(ctx.reference)

    tick()
    with rec.span("passive.replay_columnar"):
        replay_columnar(
            read_trace_columns(path), harness.passive_table(dataset),
            ExternalScanDetector(is_campus=dataset.is_campus),
        )

    # The inline pipeline twice: spans on for the layer rows, spans off
    # for the cost of recording them (order alternates by round, so
    # neither twin always runs on the warmer page cache).
    def untraced() -> None:
        *_, wall = inline_pass(
            SpanRecorder(enabled=False), dataset, path, config, marks
        )
        facts.setdefault("untraced_inline_s", []).append(wall)

    if rec.pass_id % 2 == 0:
        untraced()
    result, states, counts, ends, _ = inline_pass(rec, dataset, path, config, marks)
    checks.append(result.report)
    if rec.pass_id % 2:
        untraced()
    facts["records"] = result.records_read
    facts["batches"] = len(ends)
    facts["skew"] = max(counts) / (sum(counts) / len(counts))

    tick()
    plan = FaultPlan(seed=ctx.seed + 1, **FAULT_RATES)
    capture = plan.capture_filter(dataset.duration)
    kept = 0
    for batch in read_trace_columns(path, chunk_records=config.batch_records):
        # Exactly engine.run's faulted branch, list conversions included.
        with rec.span("faults.keep_mask"):
            mask = capture.keep_mask(
                batch.time.tolist(), batch.link.tolist(), batch.link_names
            )
            if not mask.all():
                batch = batch.compress(mask)
        kept += len(batch)
    facts["dropped_share"] = 1.0 - kept / facts["records"]

    tick()
    routed = [
        split_columns(batch, dataset.is_campus, PARALLELISM)
        for batch in read_trace_columns(path, chunk_records=config.batch_records)
    ]
    hop = StreamIngestor([_NoopShard() for _ in range(PARALLELISM)])
    with rec.span("ingest.queue_hop"):
        for parts in routed:
            hop.dispatch(parts)
        hop.drain()
    hop.close()

    states = _fresh_states(dataset)
    ingestor = StreamIngestor(states)
    started = perf_counter()
    with rec.span("ingest.run"):
        for parts in routed:
            ingestor.dispatch(parts)
        ingestor.drain()
    wall = perf_counter() - started
    ingestor.close()
    facts.setdefault("busy_share", []).append(
        sum(ingestor.shard_seconds) / (PARALLELISM * wall)
    )
    facts["max_queued_records"] = ingestor.max_queued_records
    facts["put_timeouts"] = ingestor.put_timeouts

    with rec.span("shard.merge"):
        merge_shards(states, harness.passive_table(dataset))
        merged_last_seen(states)

    with rec.span("fabric.part_pickle"):
        facts["part_pickle_bytes"] = sum(
            len(pickle.dumps(part)) for parts in routed for part in parts
            if len(part)
        )
    del routed

    with rec.span("engine.single_shard"):
        single = StreamEngine(
            harness.stream_config(ctx.seed, ctx.scale, shards=1),
            dataset=dataset,
        ).run()
    with rec.span("engine.two_shards"):
        double = StreamEngine(config, dataset=dataset).run()
    checks += [single.report, double.report]

    tick()
    end = dataset.duration
    prober = build_prober(dataset, "heartbeat", PROBE_RATE, None, ctx.seed, end)
    with rec.span("probe.advance"):
        for now in ends:
            prober.advance(now)
        prober.advance(end)
    facts["probes_issued"] = prober.issued
    with rec.span("probe.view"):
        prober.view()
    day = hours(24)
    sweeper = build_prober(dataset, "periodic", 50, None, ctx.seed, day)
    with rec.span("probe.periodic"):
        for now in ends:
            if now > day:
                break
            sweeper.advance(now)
        sweeper.advance(day)
    facts["periodic_issued"] = sweeper.issued

    tick()
    identity = checkpoint_config(DATASET, ctx.seed, ctx.scale, PARALLELISM, None)
    payload = {
        "config": identity, "faults": None,
        "shards": [state.state_dict() for state in states],
        "records_read": facts["records"], "records_delivered": facts["records"],
        "now": ends[-1], "emitted_index": len(marks),
        "watermarks": list(result.watermarks), "probes": None,
    }
    checkpoint = ctx.scratch / "layer.ckpt"
    for _ in range(SMALL_CALLS):
        with rec.span("checkpoint.save"):
            facts["checkpoint_bytes"] = save_checkpoint(checkpoint, payload)
        with rec.span("checkpoint.load"):
            load_checkpoint(checkpoint, identity)

    plain = harness.stream_config(ctx.seed, ctx.scale, emit_every=None)
    with rec.span("fabric.pass_no_ckpt"):
        bare = FabricSupervisor(plain, FabricConfig(), dataset=dataset).run()
    with rec.span("fabric.pass_ckpt"):
        saved = FabricSupervisor(
            harness.stream_config(
                ctx.seed, ctx.scale, emit_every=None,
                checkpoint_every=day,
                checkpoint_path=str(ctx.scratch / "layer-checkpoints"),
            ),
            FabricConfig(), dataset=dataset,
        ).run()
    checks += [bare.report, saved.report]
    facts["generations"] = saved.checkpoints_written

    tick()
    counting = _CountingPublisher()
    StreamEngine(
        harness.stream_config(
            ctx.seed, ctx.scale, emit_every=None,
            snapshot_every=hours(6),
        ),
        dataset=dataset,
    ).run(publisher=counting)
    facts["publishes"] = counting.count
    state = QueryState(ActiveView.from_dataset(dataset))
    for _ in range(SMALL_CALLS):
        with rec.span("query.snapshot_states"):
            snapshot = snapshot_states(
                states, now=ends[-1], records=facts["records"],
                watermarks=result.watermarks,
            )
        with rec.span("query.publish"):
            state.publish(snapshot)

    addresses = [row["address"] for row in snapshot.services()[:25]]
    for route, target in ROUTES:
        for call in range(ROUTE_CALLS):
            url = target.replace("{a}", addresses[call % len(addresses)])
            with rec.span(f"http.handle_request.{route}"):
                status, _, _ = handle_request(state, "GET", url)
            if status != 200:
                raise RuntimeError(f"{url} answered {status} on a full snapshot")
    tick()
    rate = asyncio.run(_round_trips(rec, state, addresses, ctx.seed))
    tick()
    facts.setdefault("static_query_per_s", []).append(rate)


async def _round_trips(rec: SpanRecorder, state, addresses, seed: int) -> float:
    """Real sockets against a static snapshot; returns the mix's rate."""
    from repro.query import QueryClient, QueryService

    service = QueryService(state, port=0)
    await service.start()
    clients = [QueryClient("127.0.0.1", service.port) for _ in range(PARALLELISM)]
    try:
        for route, target in ROUTES:
            for call in range(ROUTE_CALLS):
                url = target.replace("{a}", addresses[call % len(addresses)])
                with rec.span(f"http.roundtrip.{route}"):
                    await clients[0].get(url)

        async def mix(index: int, client) -> int:
            n = 0
            while perf_counter() < deadline:
                _, target = ROUTES[(index + n + seed) % len(ROUTES)]
                await client.get(
                    target.replace("{a}", addresses[n % len(addresses)])
                )
                n += 1
            return n

        started = perf_counter()
        deadline = started + STATIC_MIX_SECONDS
        done = await asyncio.gather(
            *(mix(index, client) for index, client in enumerate(clients))
        )
        return sum(done) / (perf_counter() - started)
    finally:
        for client in clients:
            await client.close()
        await service.close()


def run(ctx: Context, label: str) -> dict:
    """The whole traced run; returns the contract's result dict."""
    from repro.stream import batch_survey_report

    harness.quiet_telemetry()
    rec = SpanRecorder()
    dataset, records, cold_report = cold_stages(rec, ctx)
    path = harness.trace_path(dataset)
    facts: dict = {}
    started = perf_counter()
    while True:
        rec.pass_id += 1
        warm_round(rec, ctx, dataset, path, facts)
        if ctx.passes is not None:
            if rec.pass_id >= ctx.passes:
                break
        elif perf_counter() - started >= ctx.seconds:
            break
    rec.write(harness.OUT / f"spans-{label}.jsonl")

    # Every report any stage rendered must be the batch oracle's bytes.
    oracle = batch_survey_report(
        harness.stream_config(ctx.seed, ctx.scale), dataset
    )
    reports = [cold_report] + facts["reports"]
    failed = sum(report != oracle for report in reports)
    failed += facts["probes_issued"] != int(PROBE_RATE * dataset.duration)

    def seconds(name: str) -> float:
        """Median over rounds of the stage's self time in a round."""
        return harness.median(rec.per_pass(name))

    def per_call_us(name: str) -> float:
        return harness.median(rec.durations(name)) * 1e6

    def per_call_ms(name: str) -> float:
        return harness.median(rec.durations(name)) * 1e3

    # The shards=1 engine runs every inline stage but the two-way split.
    inline_stage_s = sum(
        seconds(name) for name in INLINE_STAGES if name != "shard.split_columns"
    )
    inline_s = harness.median(rec.durations("engine.inline_pass"))
    # Per-round facts clocked outside the recorder, scaled like its spans.
    rounds = range(1, rec.pass_id + 1)
    untraced_s = harness.median(
        [s * rec.speed(p) for p, s in zip(rounds, facts["untraced_inline_s"])]
    )
    static_per_s = harness.median(
        [r / rec.speed(p) for p, r in zip(rounds, facts["static_query_per_s"])]
    )
    single_s = seconds("engine.single_shard")
    engine_s = seconds("engine.two_shards")
    bare_s = seconds("fabric.pass_no_ckpt")
    saved_s = seconds("fabric.pass_ckpt")
    advance_s = seconds("probe.advance")

    metrics = {
        "datasets.build_dataset_s": metric(seconds("datasets.build_dataset"), "s"),
        "traffic.generate_records_per_s": metric(
            records / seconds("traffic.generate"), "rec/s"),
        "trace.write_records_per_s": metric(
            records / seconds("trace.write"), "rec/s"),
        "passive.observe_scalar_records_per_s": metric(
            records / seconds("passive.observe_scalar"), "rec/s"),
        "passive.replay_columnar_records_per_s": metric(
            records / seconds("passive.replay_columnar"), "rec/s"),
        "core.report_ms": metric(seconds("core.report") * 1e3, "ms"),
        "trace.decode_ms": metric(seconds("trace.decode") * 1e3, "ms"),
        "trace.batches": metric(facts["batches"], "count"),
        "faults.keep_mask_ms": metric(seconds("faults.keep_mask") * 1e3, "ms"),
        "faults.dropped_share": metric(facts["dropped_share"], "fraction"),
        "shard.split_columns_ms": metric(
            seconds("shard.split_columns") * 1e3, "ms"),
        "shard.skew": metric(facts["skew"], "ratio"),
        "shard.observe_columns_ms": metric(
            seconds("shard.observe_columns") * 1e3, "ms"),
        "ingest.queue_hop_ms": metric(seconds("ingest.queue_hop") * 1e3, "ms"),
        "ingest.busy_share": metric(
            harness.median(facts["busy_share"]), "fraction"),
        "ingest.max_queued_records": metric(
            facts["max_queued_records"], "count"),
        "ingest.put_timeouts": metric(facts["put_timeouts"], "count"),
        "shard.merge_ms": metric(seconds("shard.merge") * 1e3, "ms"),
        "engine.finalize_ms": metric(seconds("engine.finalize") * 1e3, "ms"),
        "watermark.summary_ms": metric(
            seconds("watermark.summary") * 1e3, "ms"),
        "engine.single_shard_records_per_s": metric(
            records / single_s, "rec/s"),
        "engine.unaccounted_ms": metric(
            (single_s - inline_stage_s) * 1e3, "ms"),
        "probe.advance_ms": metric(advance_s * 1e3, "ms"),
        "probe.probes_per_s": metric(facts["probes_issued"] / advance_s, "1/s"),
        "probe.issued": metric(facts["probes_issued"], "count"),
        "probe.periodic_probes_per_s": metric(
            facts["periodic_issued"] / seconds("probe.periodic"), "1/s"),
        "probe.view_ms": metric(seconds("probe.view") * 1e3, "ms"),
        "checkpoint.save_ms": metric(per_call_ms("checkpoint.save"), "ms"),
        "checkpoint.load_ms": metric(per_call_ms("checkpoint.load"), "ms"),
        "checkpoint.bytes": metric(facts["checkpoint_bytes"], "bytes"),
        "fabric.pass_no_ckpt_s": metric(bare_s, "s"),
        "fabric.ckpt_ms_per_generation": metric(
            (saved_s - bare_s) * 1e3 / max(1, facts["generations"]), "ms"),
        "fabric.overhead_vs_engine": metric(bare_s / engine_s, "ratio"),
        "fabric.part_pickle_bytes": metric(facts["part_pickle_bytes"], "bytes"),
        "fabric.part_pickle_ms": metric(
            seconds("fabric.part_pickle") * 1e3, "ms"),
        "query.snapshot_states_ms": metric(
            per_call_ms("query.snapshot_states"), "ms"),
        "query.publish_ms": metric(per_call_ms("query.publish"), "ms"),
        "query.publishes": metric(facts["publishes"], "count"),
    }
    for route, _ in ROUTES:
        metrics[f"http.handle_request.{route}_p50_us"] = metric(
            per_call_us(f"http.handle_request.{route}"), "us")
    for route, _ in ROUTES:
        metrics[f"http.roundtrip.{route}_p50_us"] = metric(
            per_call_us(f"http.roundtrip.{route}"), "us")
    metrics["http.static_query_per_s"] = metric(static_per_s, "1/s")
    # Not a layer of the program: the machine's speed during this run,
    # which every time above has already been scaled by.
    metrics["bench.reference_kernel_ms"] = metric(
        harness.median(
            [sample for samples in rec.kernel.values() for sample in samples]
        ) * 1e3, "ms")

    print(
        f"layers: {rec.pass_id} round(s) over {records:,} records in "
        f"{facts['batches']} batches, {len(rec.spans):,} spans -> "
        f"bench/out/spans-{label}.jsonl"
    )
    print(
        f"  shards=1 engine pass {single_s * 1e3:.2f} ms = inline stage self "
        f"times without the split {inline_stage_s * 1e3:.2f} ms + "
        f"engine.unaccounted_ms {(single_s - inline_stage_s) * 1e3:.2f} ms "
        f"(run loop + thread hand-off)"
    )
    print(
        f"  inline pass traced {inline_s * 1e3:.2f} ms vs untraced "
        f"{untraced_s * 1e3:.2f} ms: tracing overhead "
        f"{(inline_s / untraced_s - 1) * 100:+.1f} % of the untraced pass"
    )
    print(
        f"  fabric without checkpoints {bare_s * 1e3:.1f} ms = "
        f"{bare_s / engine_s:.2f} x the 2-thread engine pass "
        f"({engine_s * 1e3:.1f} ms); {facts['generations']} checkpoint "
        f"generations add {(saved_s - bare_s) * 1e3:.1f} ms"
    )
    return {
        "correct": failed == 0,
        "attempted": len(reports) + 1,
        "failed": failed,
        "metrics": metrics,
    }
