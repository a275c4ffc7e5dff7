"""The streaming discovery engine: the one run loop, resume, final merge.

:class:`StreamEngine` consumes a dataset's border capture as an
unbounded stream of :class:`~repro.trace.columnar.RecordColumns`
batches -- ``dataset.column_batches``, the one source every pass over a
dataset iterates: zero-copy views of the record-once trace cache when a
recording exists (the resume offset is a seek), regenerated from the
traffic model and columnised batch by batch otherwise, never written
from here -- and drives the sharded pipeline end to end.  One run
(:class:`_Run`) owns everything a run *decides*; a shard transport owns
only how shard state is *reached* -- the run's own thread when a query
publisher is attached (:class:`_InlineTransport`), worker threads
otherwise (:class:`_ThreadTransport`), worker processes in
:mod:`repro.stream.fabric`.  :meth:`StreamEngine._drive` moves the run:

1. ``restore`` -- on resume, the newest checkpoint manifest's progress;
2. ``step``, per batch -- the run's fault filter decides which records
   are kept (capture loss and monitor outages, in stream order: the
   batch path's drop pattern); :func:`repro.stream.shard.route_columns`
   routes the kept rows, mask in hand (row indices only: a record is
   copied where it is folded); the parts go to the transport, and the
   online prober advances to stream time.  Crossing an emission mark
   asks the shards, in band behind the parts fed before it, for the
   passive addresses first seen by the mark, and emits a
   :class:`repro.stream.watermark.Watermark` once answered: windowed
   completeness without replay.  Crossing a snapshot or checkpoint
   mark publishes the merged cut of an in-band snapshot round, or
   requests a checkpoint generation that commits behind the stream
   with the progress as it stood at the request
   (:mod:`repro.stream.checkpoint`): a killed run resumes from it and
   converges to the identical final report;
3. ``drain`` -- at end of stream, every probe, mark and generation settles;
4. ``finish`` -- the shard states merge into one ordinary
   :class:`~repro.passive.monitor.PassiveServiceTable` and the report
   renders through the same function as ``python -m repro survey`` --
   byte-identical to the batch path on the same (seed, scale, faults).

Every transport carries the same requests: a shard's
:class:`~repro.stream.shard.ShardServant` answers each behind the parts
fed before it, and one :class:`AckLedger` files the answers and commits
the checkpoint generations; a transport only sends and waits.

Memory is flat in trace length: the engine holds one decoded batch
plus, on shard threads, their bounded queues (a queued part holds its
batch); nothing retains the stream.
"""

from __future__ import annotations

import queue
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from repro.core.completeness import CompletenessSummary, summarize_overlap
from repro.core.report import survey_table
from repro.passive.monitor import PassiveServiceTable
from repro.probe import POLICY_NAMES, build_prober
from repro.query.snapshot import (
    DiscoverySnapshot,
    merge_snapshot_payloads,
    snapshot_states,
)
from repro.stream.checkpoint import (
    CheckpointError,
    ShardCheckpointStore,
    checkpoint_config,
)
from repro.stream.ingest import StreamIngestor
from repro.stream.ingest import fold_telemetry
from repro.stream.shard import ShardServant, ShardState
from repro.stream.shard import merge_shards, route_columns
from repro.stream.watermark import (
    ActiveTimeline,
    Watermark,
    emit_schedule,
    windowed_summary,
)
from repro.telemetry.metrics import registry as _telemetry_registry
from repro.telemetry.tracing import span as _span
from repro.telemetry.tracing import tracer as _tracer
from repro.trace.columnar import DEFAULT_BATCH_RECORDS


@dataclass(frozen=True)
class StreamConfig:
    """Everything one stream run is a function of.

    ``emit_every`` and ``checkpoint_every`` are in dataset seconds
    (the CLI converts from sim-hours); ``None`` disables periodic
    emission (a final watermark at end of stream is always produced)
    or checkpointing respectively.  ``end`` truncates the stream (the
    memory-flatness test compares 1x vs 4x duration); ``None`` streams
    the dataset's full observation.  ``batch_records`` is handed to
    ``dataset.column_batches``: it sizes the batches of a *regenerated*
    stream (cache off, cache miss, truncated ``end``); a cached trace
    is read in the 65,536-record chunks it was recorded in.
    """

    dataset: str
    seed: int = 0
    scale: float = 1.0
    shards: int = 1
    batch_records: int = DEFAULT_BATCH_RECORDS
    emit_every: float | None = None
    checkpoint_every: float | None = None
    checkpoint_path: str | None = None
    faults: object | None = None
    end: float | None = None
    #: Publish a query snapshot every this many dataset seconds (needs a
    #: ``publisher`` passed to :meth:`StreamEngine.run`).  Like
    #: ``emit_every`` this is outside the checkpoint identity: it only
    #: controls how often read-side copies are taken, never the result.
    snapshot_every: float | None = None
    #: Inert: column batches are the only batch type, and nothing
    #: reads this.  The field survives (``False`` is rejected) only
    #: because the frozen ``bench/harness.py`` passes ``columnar=True``;
    #: the next ``benchmark`` PR drops the kwarg and the field together.
    columnar: bool = True
    #: Online probing policy (``"periodic"`` or ``"heartbeat"``); None
    #: streams passively against build-time scan reports, exactly as
    #: before.  With a policy set, the run's active side comes
    #: exclusively from the in-stream :class:`repro.probe.ProbeScheduler`
    #: -- watermarks, the final report, and published snapshots all
    #: read its live evidence.
    probe_policy: str | None = None
    #: Probes per second: the heartbeat's uniform rate, the periodic
    #: sweep's polite-timing cap.  0 (the default) schedules no probes
    #: -- an online run at rate 0 is byte-identical to the passive path.
    probe_rate: float = 0.0
    #: Ports to probe; None means the dataset's watched port list.
    probe_ports: tuple | None = None

    def __post_init__(self) -> None:
        if not self.columnar:
            raise ValueError(
                "columnar=False was removed: column batches are the only "
                "batch type"
            )
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.batch_records < 1:
            raise ValueError("batch_records must be >= 1")
        if self.emit_every is not None and self.emit_every <= 0:
            raise ValueError("emit_every must be positive")
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if self.snapshot_every is not None and self.snapshot_every <= 0:
            raise ValueError("snapshot_every must be positive")
        if self.probe_policy is not None and self.probe_policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown probe policy {self.probe_policy!r}; "
                f"expected one of {POLICY_NAMES}"
            )
        if self.probe_rate < 0:
            raise ValueError("probe_rate must be >= 0")
        if self.probe_ports is not None and not self.probe_ports:
            raise ValueError("probe_ports must be None or non-empty")

    def probe_identity(self) -> dict | None:
        """The online-probing part of the checkpoint identity.

        Everything the probe schedule is a pure function of (beyond
        the dataset/seed/scale already in the identity): policy, rate
        (keyed by ``repr`` like the scale), and the explicit port list.
        ``None`` when probing is off, keeping passive checkpoint
        identities exactly as they were.
        """
        if self.probe_policy is None:
            return None
        return {
            "policy": self.probe_policy,
            "rate": repr(float(self.probe_rate)),
            "ports": (
                sorted(self.probe_ports)
                if self.probe_ports is not None
                else None
            ),
        }


@dataclass
class StreamResult:
    """What a stream run produced.

    ``finished`` is False only for runs stopped early via
    ``stop_after_records`` (the in-process kill simulation); such
    results carry progress counters but no report.
    """

    finished: bool
    records_read: int
    records_delivered: int
    checkpoints_written: int
    resumed: bool
    watermarks: list[Watermark] = field(default_factory=list)
    summary: CompletenessSummary | None = None
    report: str | None = None
    table: PassiveServiceTable | None = None
    #: The final merged state as the query path's snapshot structure --
    #: the same object type the live service answers from, so a query
    #: response and this result cannot disagree.
    snapshot: DiscoverySnapshot | None = None


def _fresh_table(dataset) -> PassiveServiceTable:
    """An empty passive table watching *dataset*'s campus and ports."""
    return PassiveServiceTable(
        is_campus=dataset.is_campus,
        tcp_ports=dataset.tcp_ports,
        udp_ports=dataset.udp_ports,
    )


def _keep_mask(faults, batch) -> np.ndarray | None:
    """Which rows of *batch* the capture filter keeps, or ``None`` when
    it keeps them all (or there is no filter)."""
    if faults is None:
        return None
    keep = faults.keep_mask(batch.time, batch.link, batch.link_names)
    return None if keep.all() else keep


def finalize_result(
    config: StreamConfig,
    dataset,
    states: list[ShardState] | None,
    watermarks: list[Watermark],
    records_read: int,
    records_delivered: int,
    checkpoints_written: int,
    resumed: bool,
    now: float = 0.0,
    probes=None,
) -> StreamResult:
    """Merge finished shard states and render the final report.

    The single funnel every streaming front-end finishes through --
    the threaded engine and the process fabric both call this, so
    "byte-identical to batch" is one code path, not a convention.
    The completeness summary is computed from the *query snapshot's*
    view of the merged state (:func:`snapshot_states`), so the rendered
    report and an exhaustive ``/services`` query share one aggregation.
    *states* ``None`` (a run stopped early) gives the progress counters
    and no report.

    *probes* is the run's :class:`~repro.probe.ProbeScheduler` when it
    probed online (advanced to the stream end by the caller); its live
    evidence then replaces the build-time scan reports as the report's
    active side, and the scan count is the sweeps it completed.
    """
    result = StreamResult(
        finished=states is not None,
        records_read=records_read,
        records_delivered=records_delivered,
        checkpoints_written=checkpoints_written,
        resumed=resumed,
        watermarks=watermarks,
    )
    if states is None:
        return result
    result.table = merge_shards(states, _fresh_table(dataset))
    result.snapshot = snapshot = snapshot_states(
        states, now=now, records=records_delivered, watermarks=watermarks,
        probes=probes.view() if probes is not None else None,
    )
    if probes is not None:
        active_addresses = probes.open_addresses()
        scans = probes.sweeps_recorded()
    else:
        active_addresses = dataset.active_addresses()
        scans = len(dataset.scan_reports)
    result.summary = summary = summarize_overlap(
        snapshot.server_addresses(), active_addresses
    )
    result.report = survey_table(
        config.dataset, config.scale, config.seed,
        records_delivered, scans, summary,
    ).render()
    return result


class StreamEngine:
    """Drive one streaming discovery run (see the module docstring)."""

    def __init__(self, config: StreamConfig, dataset=None) -> None:
        self.config = config
        plan = config.faults
        if plan is not None and getattr(plan, "is_null", False):
            plan = None
        self.plan = plan
        if dataset is None:
            from repro.datasets import build_dataset

            dataset = build_dataset(
                config.dataset, seed=config.seed, scale=config.scale,
                faults=plan,
            )
        self.dataset = dataset
        self._stop_requested = False

    def request_stop(self) -> None:
        """Have :meth:`_Run.step` raise ``KeyboardInterrupt`` at the next
        batch boundary.  What a signal handler (or another thread) calls
        instead of raising into the loop, so what the transport leaves
        behind never counts a batch no shard folded."""
        self._stop_requested = True

    # ---- identity ------------------------------------------------------

    def _identity(self) -> dict:
        digest = None
        if self.plan is not None:
            from repro.telemetry.manifest import fault_plan_digest

            digest = fault_plan_digest(self.plan)
        config = self.config
        return checkpoint_config(
            config.dataset, config.seed, config.scale, config.shards, digest,
            probe=config.probe_identity(),
        )

    def _effective_end(self) -> float:
        duration = self.dataset.duration
        if self.config.end is None:
            return duration
        return min(self.config.end, duration)

    # ---- the run loop ---------------------------------------------------

    def run(
        self,
        resume: bool = False,
        stop_after_records: int | None = None,
        progress: Callable[[Watermark], None] | None = None,
        publisher=None,
    ) -> StreamResult:
        """Stream the dataset to completion (or resume a killed run).

        With ``resume=True`` and an existing checkpoint at
        ``config.checkpoint_path``, the run restores shard state, the
        fault filter's per-link loss processes, and the source offset,
        then continues -- converging to the same final report as an
        uninterrupted run.  ``stop_after_records`` aborts the run
        after roughly that many records *without* a final checkpoint
        (simulating a kill for the recovery tests).  *progress* is
        called with each emitted watermark.

        On ``KeyboardInterrupt`` (the CLI's SIGTERM/SIGINT handlers
        call :meth:`request_stop`, which raises it at the next batch
        boundary) the engine emits the marks still pending, commits a
        checkpoint generation when a path is configured, and re-raises
        -- the graceful half of kill/resume.

        *publisher* is a :class:`repro.query.state.QueryState` (or
        anything with ``publish(snapshot)``); when set together with
        ``config.snapshot_every``, the engine collects an in-band
        snapshot round at each snapshot mark and publishes a copy-on-publish
        :class:`~repro.query.snapshot.DiscoverySnapshot` of the merged
        shard state.  The final snapshot is always published so the
        service keeps answering after the stream ends.  A run with a
        publisher folds its shards on this thread (:meth:`_transport`).
        """
        return self._drive(
            self._transport(publisher), resume, stop_after_records,
            progress, publisher,
        )

    def _transport(self, publisher) -> _InlineTransport:
        """The in-process shard transport for a run: folds on the run's
        thread when a query publisher is attached (the run serves while
        it ingests, and fewer threads want the GIL), shard threads
        otherwise."""
        return (_ThreadTransport if publisher is None else _InlineTransport)(
            self
        )

    def _drive(
        self,
        transport,
        resume: bool = False,
        stop_after_records: int | None = None,
        progress: Callable[[Watermark], None] | None = None,
        publisher=None,
    ) -> StreamResult:
        """The one stream run loop, over any shard transport (the
        surface is :class:`_InlineTransport`'s methods, most of them its
        :class:`AckLedger`'s): a :class:`_Run` restored, stepped batch
        by batch, drained and finished.  Telemetry reads the run's
        counters once, as it ends."""
        run = _Run(self, transport, stop_after_records, progress, publisher)
        if resume:
            if not self.config.checkpoint_path:
                raise ValueError("resume requires config.checkpoint_path")
            payload = transport.restore()
            if payload is not None:
                run.restore(payload)
        run.trc.event(
            "stream.start", shards=self.config.shards,
            records=run.records_read, resumed=run.resumed,
        )
        wall_start = perf_counter()
        try:
            transport.start(run.records_read)
            for batch in run.batches():
                if run.step(batch):
                    break
            else:
                run.drain()
        except KeyboardInterrupt as exc:
            # The transport says what it left behind to resume from.
            exc.args = (transport.interrupt(run.progress()),)
            raise
        finally:
            transport.close()
            reg = run.reg
            if reg.enabled:
                if run.tap is not None:
                    run.tap.flush_into(reg)
                elapsed = perf_counter() - wall_start
                read = run.records_read - run.read_at_start
                for name, text, value in (
                    ("repro_stream_read_records_total",
                     "Records pulled from the stream source this run.", read),
                    ("repro_stream_records_total",
                     "Records delivered to the shards this run (post-faults).",
                     run.records_delivered - run.delivered_at_start),
                    ("repro_stream_seconds_total",
                     "Wall time spent inside stream run loops.", elapsed),
                ):
                    reg.counter(name, text).inc(value)
                if run.faults is not None:
                    stats = run.faults.stats
                    for cause, dropped, at_start in zip(
                        ("loss", "outage"),
                        (stats.dropped_loss, stats.dropped_outage),
                        run.drops_at_start,
                    ):
                        reg.counter(
                            "repro_passive_dropped_total",
                            "Records the monitors failed to capture, by cause.",
                            cause=cause,
                        ).inc(dropped - at_start)
                if elapsed > 0:
                    reg.gauge(
                        "repro_stream_records_per_sec",
                        "Source throughput of the most recent stream run.",
                    ).set(read / elapsed)
        return run.finish()

    def replay_gap(self, base: int, target: int, faults_state: dict | None):
        """Source records ``[base, target)`` again, one ``route_columns``
        list per source batch: what catches a shard up from an older
        checkpoint generation (a corrupt newest file, a fabric failover).

        A scratch fault filter restored to *faults_state* (the filter's
        state at offset *base*, from the manifest the shard state came
        with) reproduces the primary pass's drop pattern exactly, and
        the kept rows are routed as the live feed routes them, so
        ``parts[shard]`` is the sub-stream the shard folded the first time.
        """
        left = target - base
        if left <= 0:
            return
        scratch = None
        if self.plan is not None:
            scratch = self.plan.capture_filter(self.dataset.duration)
            if faults_state is not None:
                scratch.restore_state(faults_state)
        for batch in self.dataset.column_batches(
            self._effective_end(), skip=base,
            batch_records=self.config.batch_records,
        ):
            if len(batch) > left:
                batch = batch.slice(0, left)
            left -= len(batch)
            yield route_columns(
                batch, self.dataset.is_campus, self.config.shards,
                _keep_mask(scratch, batch),
            )
            if left <= 0:
                return


class _Run:
    """One stream run between two batches -- what
    :meth:`StreamEngine._drive` carries from batch to batch -- and the
    steps that move it, in order: :meth:`restore`, :meth:`step` per
    batch, :meth:`drain` at end of stream, :meth:`finish`.

    Marks and checkpoints are pipelined on every transport: the run
    requests them in order and takes up whatever the transport reports
    complete, waiting for marks only before a checkpoint, and for both
    at end of stream and at a stop -- so what a stop at a given batch
    leaves committed (and emitted) is the same on every run.
    """

    def __init__(
        self,
        engine: StreamEngine,
        transport,
        stop_after_records: int | None = None,
        on_watermark: Callable[[Watermark], None] | None = None,
        publisher=None,
    ) -> None:
        config = self.config = engine.config
        dataset = self.dataset = engine.dataset
        self.engine, self.transport = engine, transport
        self.stop_after_records = stop_after_records
        self.on_watermark, self.publisher = on_watermark, publisher
        self.end = end = engine._effective_end()
        plan = engine.plan
        self.faults = (
            plan.capture_filter(dataset.duration) if plan is not None else None
        )
        self.prober = prober = build_prober(
            dataset, config.probe_policy, config.probe_rate,
            config.probe_ports, config.seed, end,
        )
        # With online probing the scheduler IS the active side: its live
        # evidence feeds watermarks (same addresses_by contract) instead
        # of a cursor over the dataset's build-time scan events.  It
        # lives with the run, never in a worker, so shard failover
        # cannot perturb it.
        self.active = prober or ActiveTimeline.over(dataset.active_events)
        every = config.emit_every
        self.marks = emit_schedule(end, every) if every else [end]
        every = config.snapshot_every if publisher is not None else None
        self.snap_marks = emit_schedule(end, every) if every else []
        self.records_read = self.records_delivered = 0
        self.emitted_index = self.snap_index = self.checkpoints_written = 0
        self.now = 0.0
        self.watermarks: list[Watermark] = []
        #: Requested, not yet emitted marks: (mark, records at request).
        self.pending: deque[tuple[float, int]] = deque()
        self.resumed = False
        #: The final shard states, once :meth:`drain` took them.
        self.states: list[ShardState] | None = None
        self.reg, self.trc = _telemetry_registry(), _tracer()
        self.tap = None
        if self.reg.enabled:
            from repro.telemetry.tap import ReplayTap

            self.tap = ReplayTap()
        #: Where this run started: its telemetry counts from here.
        self.read_at_start = self.delivered_at_start = 0
        self.drops_at_start = (0, 0)  # (capture loss, outage)
        self.next_checkpoint = (
            config.checkpoint_every if config.checkpoint_path else None
        )

    def progress(self) -> dict:
        """The run's position, as a checkpoint manifest stores it."""
        return {
            "records_read": self.records_read,
            "records_delivered": self.records_delivered,
            "now": self.now,
            "emitted_index": self.emitted_index,
            "watermarks": list(self.watermarks),
            "faults": (
                self.faults.state_dict() if self.faults is not None else None
            ),
            "probes": (
                self.prober.state_dict() if self.prober is not None else None
            ),
        }

    def restore(self, payload: dict) -> None:
        """Continue from a :meth:`progress` payload."""
        self.records_read = int(payload["records_read"])
        self.records_delivered = int(payload["records_delivered"])
        self.now = float(payload["now"])
        self.emitted_index = int(payload["emitted_index"])
        self.watermarks = list(payload["watermarks"])
        if self.faults is not None and payload.get("faults") is not None:
            self.faults.restore_state(payload["faults"])
            stats = self.faults.stats
            self.drops_at_start = (stats.dropped_loss, stats.dropped_outage)
        if self.prober is not None and payload.get("probes") is not None:
            try:
                self.prober.restore_state(payload["probes"])
            except ValueError as exc:
                raise CheckpointError(str(exc)) from exc
        self.resumed = True
        self.read_at_start = self.records_read
        self.delivered_at_start = self.records_delivered
        while (
            self.next_checkpoint is not None
            and self.next_checkpoint <= self.now
        ):
            self.next_checkpoint += self.config.checkpoint_every

    def batches(self):
        """The source from the run's read offset on."""
        return self.dataset.column_batches(
            self.end, skip=self.records_read,
            batch_records=self.config.batch_records,
        )

    def step(self, batch) -> bool:
        """One batch, in the fixed order: filter and route, feed, advance
        the prober to stream time, poll, marks, snapshot, checkpoint,
        stop check -- so a mark sees the probes fired up to it, and a
        checkpoint's payload holds every watermark before it.  True when
        ``stop_after_records`` stops the run here; a requested stop
        raises ``KeyboardInterrupt``."""
        transport = self.transport
        self.records_read += len(batch)
        keep = _keep_mask(self.faults, batch)
        parts = route_columns(
            batch, self.dataset.is_campus, self.config.shards, keep
        )
        delivered = sum(map(len, parts))
        self.records_delivered += delivered
        if delivered:
            last = len(batch) - 1
            if keep is not None:  # the last row the filter kept
                last -= int(np.argmax(keep[::-1]))
            self.now = max(self.now, float(batch.time[last]))
            if self.tap is not None:
                self.tap.observe_columns(
                    batch if keep is None else batch.compress(keep)
                )
            transport.feed(parts, self.records_read)
            if self.trc.enabled:
                self.trc.note("engine.batch", records=self.records_read)
        now = self.now
        if self.prober is not None:
            self.prober.advance(now)
        transport.poll()
        self.request_due_marks(now)
        self.emit(transport.completed_marks())
        due = bisect_right(self.snap_marks, now)
        if due > self.snap_index:  # however many marks passed, copy once
            self.snap_index = due
            self.publish_snapshot()
        if self.next_checkpoint is not None:
            if now >= self.next_checkpoint:
                # Pending marks are emitted first, so the payload's
                # emission cursor matches its watermark list.
                self.emit(transport.completed_marks(wait=True))
                with _span("stream.checkpoint", records=self.records_read):
                    transport.checkpoint(self.progress())
                while self.next_checkpoint <= now:
                    self.next_checkpoint += self.config.checkpoint_every
            self.count_commits()
        if self.engine._stop_requested or (
            self.stop_after_records is not None
            and self.records_read >= self.stop_after_records
        ):
            # Pending marks are emitted first, so the progress an
            # interrupt checkpoints holds every requested mark; a resume
            # would otherwise request them again, one batch later, with
            # another record count.
            self.emit(transport.completed_marks(wait=True))
            if self.engine._stop_requested:
                raise KeyboardInterrupt
            self.count_commits(wait=True)
            return True
        return False

    def drain(self) -> None:
        """End of stream: every probe (they can outlast the last packet),
        mark (at least the final one) and checkpoint generation settles,
        and the transport hands over the final shard states."""
        if self.prober is not None:
            self.prober.advance(self.end)
        self.request_due_marks(self.end)
        self.emit(self.transport.completed_marks(wait=True))
        self.count_commits(wait=True)
        self.states = self.transport.finish()

    def finish(self) -> StreamResult:
        """The run's result: after :meth:`drain`, with the final report
        (and snapshot, published; the checkpoints are cleared), else
        the progress counters alone."""
        if self.states is not None:
            self.trc.event(
                "stream.end", records=self.records_read,
                watermarks=len(self.watermarks),
            )
        result = finalize_result(
            self.config, self.dataset, self.states, self.watermarks,
            self.records_read, self.records_delivered,
            self.checkpoints_written, self.resumed,
            now=self.now, probes=self.prober,
        )
        if result.finished:
            # A stale checkpoint must not hijack the next run.
            self.transport.clear_checkpoints()
            if self.publisher is not None:
                self.publisher.publish(result.snapshot)
        return result

    def request_due_marks(self, upto: float) -> None:
        marks = self.marks
        index = self.emitted_index + len(self.pending)
        while index < len(marks) and upto >= marks[index]:
            self.pending.append((marks[index], self.records_delivered))
            self.transport.request_mark(index, marks[index])
            index += 1

    def emit(self, completed: list[set[int]]) -> None:
        """A watermark per answered mark.  A batch may straddle its mark,
        so the transport filters passive state by evidence time: exactly
        the addresses a batch replay truncated at the mark would report."""
        reg, trc = self.reg, self.trc
        for passive in completed:
            mark, records = self.pending.popleft()
            watermark = Watermark(
                time=mark, records=records,
                summary=windowed_summary(passive, self.active, mark),
            )
            self.watermarks.append(watermark)
            self.emitted_index += 1
            if trc.enabled:
                trc.event("stream.watermark", mark=mark, records=records)
            if reg.enabled:
                reg.counter(
                    "repro_stream_watermarks_total",
                    "Watermarks emitted by stream runs.",
                ).inc()
                reg.histogram(
                    "repro_stream_watermark_lag_seconds",
                    "Stream-time lag between a mark and its emission.",
                ).observe(max(0.0, self.now - mark))
            if self.on_watermark is not None:
                self.on_watermark(watermark)

    def publish_snapshot(self) -> None:
        """Publish a snapshot round's merged cut, if no failover aborted it."""
        payloads = self.transport.snapshot_payloads()
        if payloads is None:
            return
        prober = self.prober
        self.publisher.publish(merge_snapshot_payloads(
            payloads, now=self.now, records=self.records_delivered,
            watermarks=list(self.watermarks),
            probes=prober.view() if prober is not None else None,
        ))
        if self.trc.enabled:
            self.trc.event("stream.snapshot", records=self.records_delivered)
        if self.reg.enabled:
            self.reg.counter(
                "repro_stream_snapshots_total",
                "Query snapshots published by stream runs.",
            ).inc()

    def count_commits(self, wait: bool = False) -> None:
        reg = self.reg
        for seconds, size in self.transport.committed_checkpoints(wait):
            self.checkpoints_written += 1
            if reg.enabled:
                reg.counter(
                    "repro_stream_checkpoints_total",
                    "Checkpoints written by stream runs.",
                ).inc()
                reg.histogram(
                    "repro_stream_checkpoint_seconds",
                    "Wall time from requesting a checkpoint "
                    "generation to its committed manifest.",
                ).observe(seconds)
                reg.histogram(
                    "repro_stream_checkpoint_bytes",
                    "Size of each written stream checkpoint.",
                ).observe(size)


#: How long a wait for shard replies blocks before it checks for failure.
_REPLY_WAIT_SECONDS = 0.02


@dataclass
class _Request:
    """One request sent to every shard, and their answers so far: *key*
    is the mark index, generation or snapshot round; *arg* the mark, or
    the progress a generation's manifest will carry."""

    key: int
    arg: object = None
    started: float = 0.0
    acks: dict = field(default_factory=dict)


class AckLedger:
    """The driver's half of the in-band protocol, for every transport.

    Marks, checkpoint generations and snapshot rounds go to every
    shard's :class:`~repro.stream.shard.ShardServant` behind its parts;
    the ledger files the answers (:meth:`_ack`), commits a generation
    (writes its manifest) once every shard acked, and aborts what is in
    flight on a failover (:meth:`_abort`).  A transport supplies
    ``_broadcast(request)`` and ``_wait(timeout)``: take replies in,
    waiting up to *timeout*; raise, or fail over, for a dead shard.
    """

    def _open_ledger(self, engine: StreamEngine) -> None:
        """Fresh bookkeeping for one run of *engine*'s config."""
        config = engine.config
        self.shards = shards = config.shards
        self.store = (
            ShardCheckpointStore(config.checkpoint_path)
            if config.checkpoint_path
            else None
        )
        self.identity = engine._identity()
        self._restores: tuple = (None,) * shards
        self._marks: dict[int, _Request] = {}
        self._generation: _Request | None = None
        self._snapshot: _Request | None = None
        self._last_generation = 0
        self._committed = 0
        self._commits: list[tuple[float, int]] = []
        self._rounds = 0

    def restore(self) -> dict | None:
        """Plan the restore; return the newest manifest's progress, if any.

        Each shard restarts from its newest good generation and
        :meth:`start` replays the difference.
        """
        plan = self.store.plan_restore(self.identity)
        if plan is None:
            return None
        self._last_generation = self._committed = plan.generation
        self._restores = plan.shards
        return plan.manifest

    def poll(self) -> None:
        """Take in whatever the shards answered since the last look."""
        self._wait(0.0)

    def _ack(self, kind: str, key: int, shard: int, answer) -> None:
        """File one shard's answer; commit a generation all have acked."""
        if kind == "mark":
            pending = self._marks.get(key)
        else:
            pending = self._generation if kind == "ckpt" else self._snapshot
        if pending is None or pending.key != key:
            return  # aborted, or answered by a replaced worker
        pending.acks[shard] = answer
        if kind == "ckpt" and len(pending.acks) == self.shards:
            self._generation = None
            size = sum(pending.acks.values()) + self.store.save_manifest(
                pending.key, self.identity, pending.arg
            )
            self._committed = pending.key
            self._commits.append((perf_counter() - pending.started, size))
            self._on_commit(pending.key, pending.arg["records_read"])

    def _on_commit(self, generation: int, records: int) -> None:
        """Hook: a generation's manifest was just written."""

    def _abort(self) -> None:
        """Drop the generation and the snapshot round in flight."""
        self._generation = None
        self._snapshot = None

    def request_mark(self, index: int, mark: float) -> None:
        """Ask for the passive addresses first seen at or before *mark*."""
        self._marks[index] = _Request(index, mark)
        self._broadcast(("mark", index, mark))

    def completed_marks(self, wait: bool = False) -> list[set[int]]:
        """Passive address sets of fully answered marks, in request
        order; with *wait*, every requested mark is answered first."""
        completed: list[set[int]] = []
        marks = self._marks
        while marks:
            pending = next(iter(marks.values()))  # the oldest
            if len(pending.acks) < self.shards:
                if not wait:
                    break
                self._wait()
                continue
            completed.append(set().union(*pending.acks.values()))
            del marks[pending.key]
        return completed

    def checkpoint(self, progress: dict) -> None:
        """Request one generation (the one in flight settles first).

        Each shard writes its file in band -- by FIFO, exactly the
        records fed before the request -- and the manifest, carrying
        *progress* as it stood now, commits it once all have acked.
        """
        self._settle()
        self._last_generation += 1
        self._generation = _Request(
            self._last_generation, progress, perf_counter()
        )
        self._broadcast(("ckpt", self._last_generation, None))

    def _settle(self) -> None:
        """Wait out the generation in flight: committed, or aborted."""
        while self._generation is not None:
            self._wait()

    def committed_checkpoints(self, wait: bool = False) -> list[tuple]:
        """``(request-to-commit seconds, bytes)`` per generation
        committed since the last call; with *wait*, the generation in
        flight settles first."""
        if wait:
            self._settle()
        commits, self._commits = self._commits, []
        return commits

    def snapshot_payloads(self) -> list[dict] | None:
        """One payload per shard, in shard order, each covering exactly
        the batches fed before the request; ``None`` if a failover
        aborted the round."""
        self._rounds += 1
        snapshot = self._snapshot = _Request(self._rounds)
        self._broadcast(("snap", self._rounds, None))
        while self._snapshot is snapshot:
            if len(snapshot.acks) == self.shards:
                self._snapshot = None
                return [snapshot.acks[shard] for shard in range(self.shards)]
            self._wait()
        return None

    def clear_checkpoints(self) -> None:
        if self.store is not None:
            self.store.clear()


class _InlineTransport(AckLedger):
    """Shard state folded on the driver's own thread: each part and each
    request goes straight to its shard's servant, so a request is
    answered, and filed, as it is sent, and :meth:`_wait` has nothing to
    wait for.  :meth:`StreamEngine.run` picks it when a query publisher
    is attached, so ingest holds the GIL as one thread beside the request
    handlers, not three (DESIGN.md §14); :meth:`finish` returns the live
    states.  With :class:`AckLedger`'s, its methods are the transport
    surface :class:`_Run` uses.

    Its telemetry is the fold counters: batches fed, and each shard's
    records and fold seconds.  Nothing is queued, so it exports no
    queue-peak or backpressure series.
    """

    def __init__(self, engine: StreamEngine) -> None:
        self.engine = engine
        self._open_ledger(engine)
        self.states = [
            ShardState(index, _fresh_table(engine.dataset))
            for index in range(self.shards)
        ]
        self.servants = [
            ShardServant(state, self.store, self.identity)
            for state in self.states
        ]
        self.batches_dispatched = 0
        self.shard_records = [0] * self.shards
        self.shard_seconds = [0.0] * self.shards

    def start(self, offset: int) -> None:
        """Bring the shards up, holding the stream's first *offset* records.

        Each shard restarts from its newest good generation; one that
        lags the manifest (its newest file was corrupt) folds the gap
        again before the stream is fed.
        """
        for servant, restore in zip(self.servants, self._restores):
            if restore is None:
                continue
            shard = servant.state.index
            if restore.state is not None:
                servant.state.restore_state(restore.state)
            for parts in self.engine.replay_gap(
                restore.records_read, offset, restore.faults
            ):
                if len(parts[shard]):
                    servant.handle(("rows", None, parts[shard]))

    def feed(self, parts: list, offset: int) -> None:
        """Fold one routed batch; *offset* is the source position after it."""
        for index, part in enumerate(parts):
            if len(part):
                started = perf_counter()
                self.servants[index].handle(("rows", None, part))
                self.shard_seconds[index] += perf_counter() - started
                self.shard_records[index] += len(part)
        self.batches_dispatched += 1

    def _broadcast(self, request: tuple) -> None:
        kind, key, _arg = request
        for index, servant in enumerate(self.servants):
            self._ack(kind, key, index, servant.handle(request))

    def _wait(self, timeout: float = _REPLY_WAIT_SECONDS) -> None:
        """Every request was answered as it was sent."""

    def interrupt(self, progress: dict) -> str:
        """Commit one more generation; say what a resume will start from."""
        if self.store is None:
            return "no checkpoint configured"
        self.checkpoint(progress)
        self._settle()
        return f"checkpoint saved to {self.store.root}"

    def finish(self) -> list[ShardState]:
        """The final shard states."""
        return self.states

    def close(self) -> None:
        reg = _telemetry_registry()
        if reg.enabled:
            fold_telemetry(reg, self)


class _ThreadTransport(_InlineTransport):
    """The inline transport with each shard's servant on a worker thread
    (:class:`StreamIngestor`): parts and requests queue behind one
    another, each shard's thread answers onto one reply queue, and the
    driver routes on while the shards fold.  Restore, gap catch-up and
    :meth:`interrupt` are the inline transport's."""

    ingestor: StreamIngestor | None = None

    def start(self, offset: int) -> None:
        super().start(offset)  # catch up before any shard thread runs
        self.ingestor = StreamIngestor(
            self.states, store=self.store, identity=self.identity
        )

    def feed(self, parts: list, offset: int) -> None:
        self.ingestor.dispatch(parts)

    def _broadcast(self, request: tuple) -> None:
        self.ingestor.request(request)

    def _wait(self, timeout: float = _REPLY_WAIT_SECONDS) -> None:
        replies = self.ingestor.replies
        try:
            reply = replies.get(timeout > 0, timeout)
            while True:
                for answer in reply:
                    self._ack(*answer)
                reply = replies.get_nowait()
        except queue.Empty:
            pass
        self.ingestor.raise_if_failed()

    def finish(self) -> list[ShardState]:
        """Stop the shard threads and return their final states."""
        self.ingestor.close()
        return self.states

    def close(self) -> None:
        """Tear down (idempotent; also runs after a failure)."""
        if self.ingestor is None:
            return
        try:
            self.ingestor.close()
        finally:
            reg = _telemetry_registry()
            if reg.enabled:
                self.ingestor.flush_telemetry(reg)


def batch_survey_report(config: StreamConfig, dataset=None) -> str:
    """The batch path's report for *config* -- the equivalence oracle.

    Builds the dataset, replays it through one monolithic passive table
    (with the same fault plan a stream run would apply), and renders
    through the shared :func:`repro.core.report.survey_table`.  Tests
    assert ``StreamEngine(config).run().report == batch_survey_report(config)``
    byte for byte, at any shard count.
    """
    engine = StreamEngine(config, dataset)
    dataset, plan = engine.dataset, engine.plan
    table = _fresh_table(dataset)
    faults = plan.capture_filter(dataset.duration) if plan is not None else None
    records = dataset.replay(table, faults=faults)
    summary = summarize_overlap(
        table.server_addresses(), dataset.active_addresses()
    )
    return survey_table(
        config.dataset, config.scale, config.seed,
        records, len(dataset.scan_reports), summary,
    ).render()
