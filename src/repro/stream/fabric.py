"""The distributed shard fabric: supervised worker processes.

The threaded engine (:mod:`repro.stream.engine`) shards across worker
*threads*, so folding throughput is GIL-bound and any crash kills the
whole run.  This module promotes shards to shared-nothing worker
**processes**.  The run loop is still the engine's (its
:class:`~repro.stream.engine._Run` reads the source and applies the
run's fault filter once, in stream order -- the drop
pattern is decided before any process boundary, so it cannot depend on
worker scheduling or deaths); a :class:`FabricSupervisor` is the shard
transport it feeds.  Routed batches cross to the workers *by reference*:
the supervisor gathers each shard's routed rows of a batch straight
into a slot of a ring that lives in one anonymous shared mapping
created before the fleet forks (:class:`_Arena`) -- the only copy a
record gets -- and sends each worker a message of tens of bytes
naming the slot and its rows; the worker folds zero-copy views of them
into its own :class:`~repro.stream.shard.ShardState`.  A slot is
reused only when every worker sent rows of it has published a sequence
number past it, or has been declared dead.

**Membership and liveness.**  Workers join with a registration
handshake and are never probed: :meth:`FabricSupervisor._reap` declares
a worker dead when its process exits (its pipe at EOF), it reports an
error, or :class:`~repro.stream.membership.Membership` finds it overdue
-- not joined in time, or owing an answer (rows past its progress
cell, an unacked request, ``done`` after ``stop``) it has not given in
time.
Every worker message carries an incarnation number, so traffic from a
declared-dead process that lingers in a queue is discarded.

**Failover.**  A dead shard is dropped and reassigned: the supervisor
SIGKILLs the old process, restores the shard from the newest good
per-shard checkpoint generation (:class:`ShardCheckpointStore`),
replays the gap from the trace
(:meth:`~repro.stream.engine.StreamEngine.replay_gap`: the drop pattern
is bit-identical to what the dead worker saw), and resumes -- with
bounded retries and exponential backoff.
Exhausting :data:`MAX_RESTARTS` raises :class:`FabricDegradedError`
("degraded: shard N restarted K times") instead of hanging.

**Consistency.**  Watermark, snapshot and checkpoint requests travel
*in band* on the same FIFO queues as the row messages, and a worker
hands them to the same :class:`~repro.stream.shard.ShardServant` a
shard thread uses, so it answers only after folding everything that
preceded them.  The supervisor files the answers in the
:class:`~repro.stream.engine.AckLedger` the thread transport uses too:
marks and checkpoint generations are *pipelined*, a generation commits
(its manifest, carrying the run progress frozen at the request) only
once every shard acked its own file, and a failover between request
and commit aborts it (the orphan shard files are never referenced and
later pruned).

The invariant all of this machinery serves: the final report is
**byte-identical** to the single-process batch path at any worker
count -- including under injected worker crashes and stalls, healthy
workers declared dead, and a SIGKILL'd supervisor resumed from the
manifest --
because the merge is the same order-independent shard union and every
replayed record is filtered by the same deterministic RNG streams.
"""

from __future__ import annotations

import mmap
import multiprocessing
from multiprocessing.connection import wait as _wait_readable
import os
import queue
import signal
import time
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Callable

import numpy as np

from repro.faults.worker import WorkerFaultEvents, WorkerFaultPlan
from repro.stream.checkpoint import (
    ShardCheckpointStore,
    ShardRestore,
)
from repro.stream.engine import (
    _REPLY_WAIT_SECONDS,
    AckLedger,
    StreamConfig,
    StreamEngine,
    StreamResult,
    _fresh_table,
)
from repro.stream import membership as _membership
from repro.stream.shard import RoutedPart, ShardServant, ShardState, as_routed
from repro.stream.watermark import Watermark
from repro.telemetry.metrics import MetricRegistry, set_registry
from repro.telemetry.metrics import registry as _telemetry_registry
from repro.telemetry.tracing import Tracer, set_tracer
from repro.telemetry.tracing import span as _span
from repro.telemetry.tracing import tracer as _tracer
from repro.trace.columnar import (
    COLUMN_FIELDS,
    DEFAULT_CHUNK_RECORDS,
    V1_DTYPE,
    RecordColumns,
)

#: Ring geometry.  A slot holds one chunk of a cached trace, the largest
#: batch the v2 reader hands out (a bigger one is fed as slot-sized
#: pieces); four of them let the supervisor route three batches ahead
#: of the slowest worker.  4 x 65,536 records x 24 B is 6.3 MB, the
#: fabric's bound on records in flight and its only resident cost.
_SLOT_RECORDS = DEFAULT_CHUNK_RECORDS
_RING_SLOTS = 4

#: How long the supervisor sleeps in its message pump between looks at
#: the progress cells while every slot is held (a fold is ~10 ms).
_SLOT_POLL_SECONDS = 0.0005

#: The unit the supervisor counts backpressure in while it waits for a
#: ring slot (``repro_stream_backpressure_timeouts_total``): ten folds,
#: so a count means the workers, not the router, set the pace.
PUT_TIMEOUT_SECONDS = 0.1

#: How long an idle worker waits for work between looks at whether
#: its supervisor is still alive (``getppid``): an orphan exits within
#: this of its supervisor's death.
_ORPHAN_POLL_SECONDS = 0.125

#: Failovers a shard may take before the run fails as degraded.  One
#: seeded fault per shard (the chaos plan's default cap) needs one; the
#: other two absorb a real death on top of it.
MAX_RESTARTS = 3

#: The pause before a shard's relaunch, doubled per restart of that
#: shard up to the cap: one failover waits 50 ms, short beside the
#: catch-up replay that follows, while a crash loop slows to a relaunch
#: every 2 s.
RESTART_BACKOFF_SECONDS = 0.05
RESTART_BACKOFF_MAX_SECONDS = 2.0


class _Arena:
    """The batch ring and the workers' progress cells, in shared memory.

    One anonymous shared mapping, created by the supervisor before the
    fleet forks: every worker -- replacements too, which fork from the
    supervisor like the first launch -- inherits it the way it inherits
    the dataset's closure, so no batch is ever pickled or copied across
    a pipe.  ``columns[slot]`` are the slot's nine column arrays in
    :data:`~repro.trace.columnar.COLUMN_FIELDS` order; ``progress`` has
    one cell per shard, written only by that shard's current worker:
    the sequence number of the last slot whose rows it finished
    folding.
    """

    def __init__(self, shards: int) -> None:
        slot_bytes = _SLOT_RECORDS * V1_DTYPE.itemsize
        buffer = mmap.mmap(-1, _RING_SLOTS * slot_bytes + 8 * shards)
        self.columns: list[list[np.ndarray]] = []
        offset = 0
        for _slot in range(_RING_SLOTS):
            columns = []
            # Widest dtype first, and a power-of-two slot: every column
            # starts aligned.
            for _name, dtype in COLUMN_FIELDS:
                columns.append(np.frombuffer(
                    buffer, dtype=dtype, count=_SLOT_RECORDS, offset=offset
                ))
                offset += _SLOT_RECORDS * dtype.itemsize
            self.columns.append(columns)
        self.progress = np.frombuffer(
            buffer, dtype="<i8", count=shards, offset=offset
        )

    def write(self, slot: int, at: int, part, start: int, stop: int) -> None:
        """Gather rows ``[start, stop)`` of *part* into *slot* from row *at*.

        *part* is a :class:`~repro.stream.shard.RoutedPart` (or a plain
        batch: all of its rows); each column is gathered from the source
        batch straight into the slot, with no intermediate copy.
        """
        part = as_routed(part)
        rows = (
            np.arange(start, stop) if part.rows is None
            else part.rows[start:stop]
        )
        end = at + stop - start
        for column, (name, _dtype) in zip(self.columns[slot], COLUMN_FIELDS):
            # "clip": in-range indices either way, and mode="raise"
            # would gather through a temporary buffer.
            np.take(getattr(part.batch, name), rows, out=column[at:end],
                    mode="clip")

    def rows(self, slot: int, lo: int, hi: int,
             link_names: tuple[str, ...]) -> RecordColumns:
        """Rows ``[lo, hi)`` of *slot* as zero-copy column views."""
        return RecordColumns(
            *(column[lo:hi] for column in self.columns[slot]),
            link_names=link_names,
        )


class FabricError(RuntimeError):
    """The fabric could not complete the run."""


class FabricDegradedError(FabricError):
    """A shard exhausted its restart budget; the run fails structurally.

    Raised instead of hanging or silently dropping the shard: a report
    missing one shard's endpoints would be *wrong*, not late, so the
    degraded contract is fail-stop with a machine-readable reason.
    """

    def __init__(self, shard: int, restarts: int, reason: str) -> None:
        super().__init__(
            f"degraded: shard {shard} restarted {restarts} times ({reason})"
        )
        self.shard = shard
        self.restarts = restarts
        self.reason = reason


@dataclass(frozen=True)
class FabricConfig:
    """What a fabric run takes beside its stream config: the seeded
    worker chaos plan, if any.

    It never affects the report's bytes -- injected faults change *when*
    failovers happen, never what the merged shard states contain -- so
    it does not enter the checkpoint identity.  The supervision timings
    are module constants (:data:`MAX_RESTARTS` and its neighbours, the
    liveness ones in :mod:`repro.stream.membership`).
    """

    worker_faults: WorkerFaultPlan | None = None


# ---- the worker process -----------------------------------------------


def _shard_worker(
    shard: int,
    incarnation: int,
    dataset,
    identity: dict,
    store: ShardCheckpointStore | None,
    initial_state: dict | None,
    arena: _Arena,
    work_queues: list,
    inboxes: list,
    outbox,
    events: WorkerFaultEvents,
    trace_config: dict | None = None,
) -> None:
    """Child main: hand each work item to the shard's servant, answer.

    Runs under the ``fork`` start method, so arguments (including the
    dataset with its closure-based campus predicate, and the arena)
    arrive by memory inheritance, never pickling.  The worker owns its
    shard's state exclusively; the shared surfaces are its work queue
    (``work_queues[shard]``), *outbox* -- the write end of a pipe of its
    own to the supervisor, written from this thread, so no lock is
    shared with a sibling and a worker that dies mid-message can wedge
    nobody -- and the arena, where it reads the rows a ``rows`` message
    names and writes its own progress cell.  Exits via ``os._exit`` on
    injected crashes (no atexit -- indistinguishable from SIGKILL) and
    when orphaned by a dead supervisor.

    A work item is a :class:`~repro.stream.shard.ShardServant` request
    plus the supervisor's trace context, ``(kind, key, arg, ctx)``: a
    ``rows`` item's *arg* names arena rows and the records they stand
    for, and its *key* is the sequence the worker publishes once they
    are folded; ``stop`` ships the state home.  With tracing on, the
    worker's events parent on *ctx*, which stitches a failover into one
    causal chain across the process boundary.  The inherited tracer and registry are never written from
    the child: the tracer is replaced first thing (per incarnation, or
    the null tracer), and a fresh registry is swapped in iff telemetry
    is enabled, its snapshot shipped home on ``done``.
    """
    parent = os.getppid()
    # The fork copied every pipe end the supervisor held.  Keep only the
    # two this worker uses: while any process holds the write end of its
    # work pipe, a supervisor SIGKILLed half way through a message leaves
    # the worker blocked in ``recv_bytes`` for the rest of it, never back
    # at the ``getppid`` check below; with every copy closed the read
    # returns EOF instead (and a send to a dead supervisor fails, with
    # every copy of the inboxes closed).  ``Queue`` has no public name
    # for its ends.
    work_queue = work_queues[shard]
    work_queue._writer.close()
    for other in work_queues:
        if other is not None and other is not work_queue:
            other._reader.close()
            other._writer.close()
    for inbox in inboxes:
        if inbox is not None:
            inbox.close()
    # The fork inherited the CLI's handlers.  A terminal's Ctrl-C reaches
    # the whole process group, and the supervisor decides when the fleet
    # stops (it kills us); SIGTERM aimed at one worker is an induced death.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if trace_config is not None:
        trc = set_tracer(
            Tracer(
                trace_config["directory"],
                trace_id=trace_config["trace_id"],
                process=f"shard{shard}-i{incarnation}",
            )
        )
        trc.event(
            "worker.start",
            parent=trace_config["parent"],
            shard=shard,
            incarnation=incarnation,
        )
    else:
        trc = set_tracer(None)
    snapshot_home = _telemetry_registry().enabled
    if snapshot_home:
        # The forked registry holds the parent's counts; a fresh one
        # isolates this worker's contribution for the merge at "done".
        set_registry(MetricRegistry(process=f"shard{shard}"))
    state = ShardState(shard, _fresh_table(dataset))
    if initial_state is not None:
        state.restore_state(initial_state)
    servant = ShardServant(state, store, identity)
    outbox.send(("join", shard, incarnation, os.getpid()))
    try:
        while True:
            if os.getppid() != parent:
                os._exit(2)  # supervisor died; no one will reap us
            try:
                kind, key, arg, ctx = work_queue.get(
                    timeout=_ORPHAN_POLL_SECONDS
                )
            except queue.Empty:
                continue
            except EOFError:
                os._exit(2)  # every write end is closed: supervisor died
            if kind == "stop":
                if trc.enabled:
                    trc.event("worker.done", parent=ctx, shard=shard,
                              incarnation=incarnation, records=state.records)
                    trc.close()
                outbox.send(
                    ("done", shard, incarnation, state.state_dict(),
                     _telemetry_registry().snapshot() if snapshot_home else None)
                )
                return
            if kind != "rows":
                with _span(f"worker.{kind}", parent=ctx, key=key,
                           records=state.records):
                    answer = servant.handle((kind, key, arg))
                outbox.send(("ack", shard, incarnation, kind, key, answer))
                continue
            with _span("worker.batch", parent=ctx) as batch:
                batch.durable = False  # per batch: the ring only
                slot, lo, hi, link_names, records = arg
                servant.handle(("rows", key, RoutedPart(
                    arena.rows(slot, lo, hi, link_names), None, records
                )))
                batch.fields["records"] = state.records
            # Nothing here reads the slot again: hand it back.
            arena.progress[shard] = key
            if events.crash_at is not None and state.records >= events.crash_at:
                if trc.enabled:
                    trc.event("worker.crash", parent=ctx, shard=shard,
                              incarnation=incarnation,
                              records=state.records)
                    trc.dump_flight(
                        "crash",
                        f"injected crash at {state.records} records",
                    )
                os._exit(137)  # injected crash: as abrupt as SIGKILL
            if events.stall_at is not None and state.records >= events.stall_at:
                # Injected stall: stop consuming, so what we are sent
                # goes unanswered and the owed-answer deadline ends us.
                if trc.enabled:
                    trc.event("worker.stall", parent=ctx, shard=shard,
                              incarnation=incarnation,
                              records=state.records)
                    trc.dump_flight(
                        "stall",
                        f"injected stall at {state.records} records",
                    )
                while True:
                    time.sleep(_ORPHAN_POLL_SECONDS)
                    if os.getppid() != parent:
                        os._exit(2)
    except BaseException as exc:  # noqa: BLE001 - reported, then hard exit
        try:
            if trc.enabled:
                trc.event("worker.error", shard=shard,
                          incarnation=incarnation, error=repr(exc))
                trc.dump_flight("error", repr(exc))
            outbox.send(("error", shard, incarnation, repr(exc)))
        finally:
            os._exit(1)


# ---- the supervisor ---------------------------------------------------


class FabricSupervisor(AckLedger):
    """Run one stream as a fleet of supervised shard worker processes.

    Wraps a :class:`~repro.stream.engine.StreamEngine` for everything
    that defines the run (identity, source batches, dataset, the run
    loop) and is the shard transport that loop feeds: the arena and the
    message queues, membership, failover, generations, in-band
    barriers.  ``shards`` in the stream config is the worker count.
    The checkpoint store and its identity are the threaded transport's
    too, so a run checkpointed under either resumes under the other.
    *clock* is what membership decisions read (tests inject one).
    """

    def __init__(
        self,
        config: StreamConfig,
        fabric: FabricConfig | None = None,
        dataset=None,
        clock: Callable[[], float] = monotonic,
    ) -> None:
        self.engine = StreamEngine(config, dataset)
        self.config = config
        self._wall = clock
        self.dataset = self.engine.dataset
        worker_faults = fabric.worker_faults if fabric is not None else None
        if worker_faults is not None and worker_faults.is_null:
            worker_faults = None
        self._worker_faults = worker_faults
        # The dataset's campus predicate is a closure, so workers must
        # inherit it by fork; spawn would have to pickle it and fail.
        self._ctx = multiprocessing.get_context("fork")

    # ---- small helpers ------------------------------------------------

    def _event(self, message: str) -> None:
        if self._on_event is not None:
            self._on_event(message)

    # ---- worker lifecycle ---------------------------------------------

    def _spawn(self, shard: int, initial_state: dict | None) -> int:
        incarnation = self.membership.launch(shard, self._wall())
        # A fresh queue per incarnation: the dead worker's queue may
        # hold unanswered messages and a feeder mid-write; never reuse
        # it.  Unbounded: a message is tens of bytes, and what bounds the
        # records in flight is the ring.
        self._queues[shard] = self._ctx.Queue()
        # What the worker says comes back on a pipe of its own.
        self._inboxes[shard], outbox = self._ctx.Pipe(duplex=False)
        events = (
            self._worker_faults.events_for(shard, incarnation)
            if self._worker_faults is not None
            else WorkerFaultEvents()
        )
        trc = _tracer()
        if trc.enabled:
            # Flush so the child's inherited file buffer is empty, and
            # hand it the current span as the parent of worker.start.
            trc.flush()
            trace_config = {
                "directory": str(trc.directory),
                "trace_id": trc.trace_id,
                "parent": trc.current_ids(),
            }
        else:
            trace_config = None
        process = self._ctx.Process(
            target=_shard_worker,
            args=(
                shard, incarnation, self.dataset, self.identity,
                self.store, initial_state, self._arena, self._queues,
                self._inboxes, outbox, events, trace_config,
            ),
            name=f"repro-fabric-shard-{shard}",
            daemon=True,
        )
        process.start()
        # The worker's copy is now the only write end: its death reads
        # here as EOF, even half way through a message.
        outbox.close()
        self.membership.members[shard].pid = process.pid
        self._procs[shard] = process
        # The new worker owes none of the rows its predecessor left.
        self._sent[shard] = int(self._arena.progress[shard])
        reg = _telemetry_registry()
        if reg.enabled:
            reg.counter(
                "repro_fabric_launches_total",
                "Worker processes launched (first launches and restarts).",
            ).inc()
        trc.event(
            "fabric.launch", shard=shard, incarnation=incarnation,
            worker_pid=process.pid,
        )
        self._event(
            f"fabric: launch shard={shard} incarnation={incarnation} "
            f"pid={process.pid}"
        )
        return incarnation

    def _kill_worker(self, shard: int) -> None:
        process = self._procs[shard]
        if process is None:
            return
        old_queue = self._queues[shard]
        try:
            if process.is_alive():
                process.kill()
            process.join(timeout=5.0)
        finally:
            self._procs[shard] = None
        self._drop_inbox(shard)
        if old_queue is not None:
            # The abandoned queue's feeder may be blocked on a full
            # pipe; cancel it so it cannot wedge interpreter exit.
            old_queue.close()
            old_queue.cancel_join_thread()

    def _kill_all(self) -> None:
        for shard in range(self.config.shards):
            try:
                self._kill_worker(shard)
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass

    # ---- message pump & the liveness rule -----------------------------

    def _drop_inbox(self, shard: int) -> None:
        inbox = self._inboxes[shard]
        if inbox is not None:
            self._inboxes[shard] = None
            inbox.close()

    def _pump(self, timeout: float = 0.0) -> None:
        """Drain worker messages into membership/ack state.

        Waits up to *timeout* for the first one.  An inbox at EOF is a
        worker that exited (``done`` sent, or dead: :meth:`_reap` sees
        the process gone); it is dropped, not read again.
        """
        while True:
            ready = _wait_readable(
                [inbox for inbox in self._inboxes if inbox is not None],
                timeout,
            )
            if not ready:
                return
            timeout = 0.0
            for inbox in ready:
                try:
                    message = inbox.recv()
                except (EOFError, OSError):
                    self._drop_inbox(self._inboxes.index(inbox))
                else:
                    self._handle(message)

    def _handle(self, message: tuple) -> None:
        """Fold one worker message into membership/ack state."""
        kind, shard, incarnation = message[0], message[1], message[2]
        if not self.membership.is_current(shard, incarnation):
            return  # stale incarnation; its process is already dead
        if kind == "join":
            self.membership.join(shard, incarnation, self._wall(),
                                 pid=message[3])
            reg = _telemetry_registry()
            if reg.enabled:
                reg.counter(
                    "repro_fabric_joins_total",
                    "Registration handshakes completed by workers.",
                ).inc()
            _tracer().event(
                "fabric.join", shard=shard, incarnation=incarnation,
                worker_pid=message[3],
            )
            self._event(
                f"fabric: join shard={shard} incarnation={incarnation} "
                f"pid={message[3]}"
            )
        elif kind == "ack":
            self.membership.answer(shard, incarnation, self._wall())
            self._ack(message[3], message[4], shard, message[5])
        elif kind == "done":
            self.membership.answer(shard, incarnation, self._wall())
            self._done[shard] = message[3]
            if len(message) > 4 and message[4] is not None:
                reg = _telemetry_registry()
                if reg.enabled:
                    reg.merge_snapshot(message[4])
        elif kind == "error":
            self._worker_errors[shard] = message[3]

    def _owes(self, shard: int) -> bool:
        """Whether *shard*'s current worker owes an answer: rows sent
        past its progress cell, a mark, generation or snapshot request
        it has not acked, or ``done`` after a ``stop``."""
        if self._arena.progress[shard] < self._sent[shard]:
            return True
        incarnation = self.membership.members[shard].incarnation
        if self._stopped.get(shard) == incarnation:
            return True
        requests = [*self._marks.values(), self._generation, self._snapshot]
        return any(
            request is not None and shard not in request.acks
            for request in requests
        )

    def _dead_reason(self, shard: int, now: float) -> str | None:
        """Why *shard* must be declared dead at *now*, or ``None``."""
        error = self._worker_errors.pop(shard, None)
        if error is not None:
            return f"worker error: {error}"
        process = self._procs[shard]
        if process is not None and not process.is_alive():
            return f"process exited with code {process.exitcode}"
        return self.membership.overdue(shard, now)

    def _reap(self) -> None:
        """Apply the liveness rule: fail over every shard dead now.

        Runs after :meth:`_pump` took in the answers that came by pipe;
        the progress cells are read here, so a worker is judged on
        every answer it gave.
        """
        reg = _telemetry_registry()
        progress = self._arena.progress
        membership = self.membership
        for shard in range(self.config.shards):
            if shard in self._done:
                continue
            now = self._wall()
            if progress[shard] != self._seen[shard]:
                self._seen[shard] = int(progress[shard])
                membership.answer(
                    shard, membership.members[shard].incarnation, now
                )
            membership.owe(shard, self._owes(shard), now)
            if reg.enabled:
                reg.gauge(
                    "repro_fabric_answer_age_seconds",
                    "Seconds since each shard worker last answered.",
                    shard=str(shard),
                ).set(membership.answer_age(shard, now))
            reason = self._dead_reason(shard, now)
            if reason is not None:
                self._failover(shard, reason)
        if self._on_health is not None:
            # _reap runs per batch; throttle pushes so the serving side
            # sees fresh-enough membership without per-batch overhead.
            now = self._wall()
            if now - self._last_health_push >= 0.25:
                self._last_health_push = now
                self._on_health(self.membership.health(self._wall()))

    # ---- data movement ------------------------------------------------

    def _claim_slot(self) -> tuple[int, int]:
        """The next ring slot and its sequence number, once it is free.

        A slot is free when every worker that was sent rows of it has
        published a sequence number at or past the slot's, or is no
        longer the shard's current incarnation (a failover SIGKILLs and
        joins the old process before it launches the next).  The wait
        is the fabric's backpressure: it pumps and reaps like every
        other wait here, so it may fail over any shard -- a holder that
        owes its rows too long among them -- and callers hold nothing
        across it.
        """
        progress = self._arena.progress
        deadline = perf_counter() + PUT_TIMEOUT_SECONDS
        while True:
            # Recomputed every turn: a failover's catch-up claims slots.
            slot = self._sequence % _RING_SLOTS
            holders = [
                reader
                for reader in self._slot_readers[slot].items()
                if self.membership.is_current(*reader)
                and progress[reader[0]] < self._slot_sequence[slot]
            ]
            if not holders:
                break
            self._pump(_SLOT_POLL_SECONDS)
            self._reap()
            if perf_counter() >= deadline:
                deadline += PUT_TIMEOUT_SECONDS
                self._backpressure_timeouts += 1
        sequence = self._sequence
        self._sequence += 1
        self._slot_readers[slot] = {}
        self._slot_sequence[slot] = sequence
        return slot, sequence

    def _place(self, routed, offset: int | None = None) -> bool:
        """Put routed rows in the ring and tell each worker where its are.

        The one way records reach a worker.  *routed* is ``(shard,
        part)`` pairs of one source batch (parts from
        :func:`~repro.stream.shard.route_columns`, gathered into the
        slot by :meth:`_Arena.write`); parts are packed into a slot
        back to back (a batch larger than a slot goes out as slot-sized
        pieces), and each piece is announced with a ``rows`` message
        once it is written, naming the records it stands for.  A part
        with records but no rows is one message naming no rows, under
        the last sequence the shard was sent, so its worker still
        counts them, in order.  Only claiming a slot can fail a shard
        over.  With *offset* (the live feed: the source position after
        the batch) a shard replaced mid-part is sent the part again
        from its first row -- its catch-up stopped at the batch before
        -- and is recorded as fed through *offset* once the part is
        out.  Without (a catch-up) the call gives up and returns
        ``False``: the nested failover's own catch-up covered the rest.
        """
        ctx = _tracer().current_ids()
        members = self.membership.members
        slot = sequence = -1
        room = 0
        for shard, part in routed:
            incarnation = members[shard].incarnation
            size = part.size
            start = 0
            while len(part):  # a part of no records sends nothing
                if start < size and not room:
                    slot, sequence = self._claim_slot()
                    room = _SLOT_RECORDS
                    if members[shard].incarnation != incarnation:
                        if offset is None:
                            return False
                        incarnation = members[shard].incarnation
                        start = 0
                stop = min(size, start + room)
                if stop > start:
                    at = _SLOT_RECORDS - room
                    self._arena.write(slot, at, part, start, stop)
                    self._slot_readers[slot][shard] = incarnation
                    self._sent[shard] = sequence
                    rows = (slot, at, at + stop - start)
                else:  # no rows left to carry, only the records' count
                    rows = (0, 0, 0)
                # The last piece counts the part's records no rule reads.
                records = stop - start if stop < size else len(part) - start
                self._queues[shard].put((
                    "rows", self._sent[shard],
                    (*rows, part.link_names, records), ctx,
                ))
                room -= stop - start
                start = stop
                if stop == size:
                    break
            if offset is not None:
                self._records_fed[shard] = offset
        return True

    def _feed_catchup(
        self,
        shard: int,
        base: int,
        target: int,
        faults_state: dict | None,
    ) -> bool:
        """Replay source records ``[base, target)`` into one shard.

        The gap comes from the engine's
        :meth:`~repro.stream.engine.StreamEngine.replay_gap`, so the
        replacement folds the identical sub-stream the dead worker saw,
        and reaches it through :meth:`_place` like the live feed.
        Returns ``False`` when a nested failover replaced the worker
        mid-feed -- that failover's own catch-up covered the rest.
        """
        for parts in self.engine.replay_gap(base, target, faults_state):
            if not self._place([(shard, parts[shard])]):
                return False
        reg = _telemetry_registry()
        if reg.enabled:
            reg.counter(
                "repro_fabric_catchup_records_total",
                "Source records replayed to restore failed-over shards.",
            ).inc(max(0, target - base))
        return True

    # ---- failover -----------------------------------------------------

    def _failover(self, shard: int, reason: str) -> None:
        """Drop a dead shard's worker and reassign the shard.

        Kill, back off, restore from the newest good committed
        generation, relaunch, replay the gap, re-send the unanswered
        marks as one request.  Any checkpoint generation in flight is
        aborted (its manifest is never written).  Exhausting the
        restart budget raises :class:`FabricDegradedError` after
        tearing the fleet down.
        """
        restarts = self.membership.note_restart(shard)
        self._abort()
        reg = _telemetry_registry()
        if reg.enabled:
            reg.counter(
                "repro_fabric_restarts_total",
                "Shard failovers performed, by shard.",
                shard=str(shard),
            ).inc()
        trc = _tracer()
        trc.event("fabric.dead", shard=shard, restarts=restarts, reason=reason)
        # Every induced death gets a post-mortem ring dump; the key is
        # unique per (shard, restart) so repeat failovers each get one.
        trc.dump_flight(f"failover-shard{shard}-r{restarts}", reason)
        self._event(
            f"fabric: dead shard={shard} restarts={restarts} reason={reason!r}"
        )
        if restarts > MAX_RESTARTS:
            trc.event(
                "fabric.degraded", shard=shard, restarts=restarts - 1,
                reason=reason,
            )
            trc.dump_flight(
                "degraded",
                f"shard {shard} restarted {restarts - 1} times ({reason})",
            )
            self._kill_all()
            raise FabricDegradedError(shard, restarts - 1, reason)
        started = perf_counter()
        with _span("fabric.reassign", shard=shard, restarts=restarts):
            self._kill_worker(shard)
            backoff = min(
                RESTART_BACKOFF_SECONDS * (2 ** (restarts - 1)),
                RESTART_BACKOFF_MAX_SECONDS,
            )
            time.sleep(backoff)
            if self.store is not None:
                restore = self.store.restore_shard(
                    shard, self.identity, self._committed
                )
            else:
                restore = ShardRestore(
                    shard=shard, state=None, records_read=0, faults=None
                )
            incarnation = self._spawn(shard, restore.state)
            trc.event(
                "fabric.restore", shard=shard, incarnation=incarnation,
                from_records=restore.records_read,
                records=self._records_fed[shard],
            )
            self._event(
                f"fabric: reassign shard={shard} incarnation={incarnation} "
                f"from_records={restore.records_read} "
                f"to_records={self._records_fed[shard]}"
            )
            caught_up = self._feed_catchup(
                shard, restore.records_read, self._records_fed[shard],
                restore.faults,
            )
            owed = [
                pending for pending in self._marks.values()
                if shard not in pending.acks
            ]
            if caught_up and owed:
                # Unanswered marks reach the replacement as one request;
                # already-acked ones stay valid (the dead worker
                # answered them from the same deterministic prefix the
                # replacement now holds).  A worker answers in order, so
                # the owed marks are the newest, consecutive ones.
                self._queues[shard].put((
                    "marks", owed[0].key,
                    tuple(pending.arg for pending in owed),
                    trc.current_ids(),
                ))
        if reg.enabled:
            reg.histogram(
                "repro_fabric_reassign_seconds",
                "Wall time to restore, relaunch, and catch up a shard.",
            ).observe(perf_counter() - started)

    # ---- the transport surface (what the engine's _Run calls) ----------

    def start(self, offset: int) -> None:
        for shard, restore in enumerate(self._restores):
            self._records_fed[shard] = offset
            self._spawn(shard, restore.state if restore is not None else None)
            if restore is not None:
                # This shard's newest good generation may lag the
                # manifest we resumed from; replay the difference.
                self._feed_catchup(
                    shard, restore.records_read, offset, restore.faults
                )

    def feed(self, parts: list, offset: int) -> None:
        self._place(enumerate(parts), offset)

    def _broadcast(self, request: tuple) -> None:
        """Send one in-band request to every shard's current worker."""
        item = request + (_tracer().current_ids(),)
        for work_queue in self._queues:
            work_queue.put(item)

    def _wait(self, timeout: float = _REPLY_WAIT_SECONDS) -> None:
        # An acked generation commits in the pump, before the reap: it is
        # durable whatever has happened to its writers since.
        self._pump(timeout)
        self._reap()

    def _on_commit(self, generation: int, records: int) -> None:
        _tracer().event(
            "fabric.manifest", generation=generation, records=records
        )
        self._event(
            f"fabric: manifest generation={generation} "
            f"records={records} path={self.store.manifest_path(generation)}"
        )

    def interrupt(self, progress: dict) -> str:
        """No checkpoint on interrupt: resume uses the last manifest.

        A generation already requested settles first, so what a stop at
        a given batch leaves committed does not depend on how fast the
        workers were.
        """
        self._settle()
        if self._committed:
            return (
                f"fleet torn down; resume from committed generation "
                f"{self._committed} in {self.store.root}"
            )
        return "fleet torn down; no checkpoint generation committed"

    def finish(self) -> list[ShardState]:
        """Stop every worker and gather final shard states."""
        while len(self._done) < self.config.shards:
            for shard in range(self.config.shards):
                if shard in self._done:
                    continue
                incarnation = self.membership.members[shard].incarnation
                if self._stopped.get(shard) != incarnation:
                    self._queues[shard].put(
                        ("stop", None, None, _tracer().current_ids())
                    )
                    self._stopped[shard] = incarnation
            self._wait()
        states = []
        for shard in range(self.config.shards):
            state = ShardState(shard, _fresh_table(self.dataset))
            state.restore_state(self._done[shard])
            states.append(state)
        return states

    def close(self) -> None:
        self._kill_all()
        self._arena = None  # the mapping goes with its last view
        reg = _telemetry_registry()
        if reg.enabled:
            reg.counter(
                "repro_stream_backpressure_timeouts_total",
                "Bounded-put timeouts while shard queues were full.",
            ).inc(self._backpressure_timeouts)

    # ---- run ----------------------------------------------------------

    def run(
        self,
        resume: bool = False,
        progress: Callable[[Watermark], None] | None = None,
        on_event: Callable[[str], None] | None = None,
        publisher=None,
        on_health: Callable[[list[dict]], None] | None = None,
        stop_after_records: int | None = None,
    ) -> StreamResult:
        """Stream the dataset through the worker fleet to completion.

        Resets the fleet bookkeeping and hands itself, as the shard
        transport, to the one run loop, whose
        :class:`~repro.stream.engine._Run` owns everything else a run
        does -- including the online prober, so shard failover cannot
        perturb the probe schedule.

        With ``resume=True`` and a committed manifest in the checkpoint
        store, the run restores run-level progress from the newest
        manifest, per-shard state from each shard's newest good
        generation (catching stragglers up by source replay), and
        continues -- converging to the identical final report.
        *on_event* receives human-readable fabric lifecycle lines
        (launch/join/dead/reassign/manifest).  *publisher* plus
        ``config.snapshot_every`` publishes merged query snapshots
        aggregated from per-worker payloads (see
        :meth:`snapshot_payloads`), exactly like the threaded engine's
        ``publisher`` hook.  *on_health* receives throttled
        :meth:`~repro.stream.membership.Membership.health` summaries
        (per-shard answer age / incarnation / restarts) so a serving
        layer can expose fabric liveness on ``/healthz``.

        On ``KeyboardInterrupt`` the fleet is torn down and the
        interrupt re-raised, saying which committed generation a resume
        will start from; no checkpoint is written (one already requested
        settles), which is why ``checkpoint_every`` matters in
        production runs.  *stop_after_records* is the engine's kill
        simulation: stop at that batch boundary with no report.
        """
        shards = self.config.shards
        self._open_ledger(self.engine)
        self._on_event = on_event
        self._on_health = on_health
        self._last_health_push = 0.0
        self.membership = _membership.Membership(shards)
        # Before any fork, so the whole fleet maps the same pages.
        self._arena = _Arena(shards)
        self._sequence = 1  # the progress cells start at 0: nothing folded
        self._slot_sequence = [0] * _RING_SLOTS
        #: Per slot, the incarnation of each shard that was sent rows of it.
        self._slot_readers: list[dict[int, int]] = [
            {} for _ in range(_RING_SLOTS)
        ]
        self._procs: list = [None] * shards
        self._queues: list = [None] * shards
        self._inboxes: list = [None] * shards
        self._records_fed = [0] * shards
        #: Per shard, the last sequence its worker was sent rows of, and
        #: the last value of its progress cell the reap saw.
        self._sent = [0] * shards
        self._seen = [0] * shards
        #: Per shard, the incarnation ``finish`` sent ``stop``.
        self._stopped: dict[int, int] = {}
        self._done: dict[int, dict] = {}
        self._worker_errors: dict[int, str] = {}
        self._backpressure_timeouts = 0
        return self.engine._drive(
            self, resume, stop_after_records, progress, publisher
        )
