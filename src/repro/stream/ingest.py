"""The stream ingestor: bounded fan-out of record batches to shards.

:class:`StreamIngestor` owns one worker thread and one bounded queue
per shard.  The driving thread routes each decoded batch
(:func:`repro.stream.shard.route_columns`: row indices, no copy) and
enqueues the per-shard parts; each worker hands them, in arrival order,
to its :class:`~repro.stream.shard.ShardServant`, which gathers the
part's rows and folds them into the shard's state.

Memory stays flat regardless of trace length because nothing in the
pipeline buffers unboundedly: the source yields fixed-size batches, at
most :data:`MAX_QUEUE_CHUNKS` parts per shard are queued or folding (a
shard out of room *blocks the producer* -- backpressure, not growth),
and shard state is keyed by endpoints, whose count is bounded by the
population rather than the observation length.

Marks, snapshot rounds and checkpoint generations travel in band
(:meth:`StreamIngestor.request`) on the same FIFO as the parts but take
none of their room: a request queued behind a shard's pending parts is
answered by that shard's thread when it gets there, onto
:attr:`StreamIngestor.replies`, and sending one never waits, so the
producer goes on routing while the shards fold.
"""

from __future__ import annotations

import queue
import threading
from time import perf_counter

from repro.stream.shard import ShardServant, ShardState

#: Bound on parts queued or folding per shard thread.  A part
#: is one shard's rows of one source batch -- 8192 records when the
#: stream is regenerated, 65,536 (a cached trace's chunk, whatever
#: ``batch_records`` says) when it is read -- so the threads hold at
#: most 8 source batches in flight however long the stream runs.
#: Marks do not count against it.  The process fabric does not use
#: this: its bound is its ring (:mod:`repro.stream.fabric`).
MAX_QUEUE_CHUNKS = 8

#: How long one ``put`` attempt waits before re-checking worker health:
#: a few folds, so a failed shard's error surfaces within 50 ms.
PUT_TIMEOUT_SECONDS = 0.05

#: Total time a single enqueue may stay blocked before the producer
#: gives up and raises :class:`IngestStallError` instead of deadlocking
#: on a queue nobody will ever drain.  A part folds in milliseconds; a
#: minute is long enough that only a wedged shard reaches it.
STALL_TIMEOUT_SECONDS = 60.0

#: How long an idle worker sleeps before looking at its queue again.
#: A worker is normally woken by the ``put``; the poll is for the wakeup
#: that never comes.  A signal handler that raises (the CLI maps SIGTERM
#: onto ``KeyboardInterrupt``) can interrupt the producer inside
#: ``Condition.notify`` after it released a waiter and before it
#: forgot it -- exactly where the producer waits for the GIL the woken
#: worker just took -- and the next notify then spends itself on that
#: stale waiter (CPython gh-92530 covers only the case where nobody
#: re-acquired it).  With a blocking ``get`` the item, or the stop
#: marker, sat in the queue for ever and ``close`` never returned.
_WORKER_POLL_SECONDS = 0.1

_STOP = ("stop", None, None)


class ShardWorkerError(RuntimeError):
    """A shard worker raised; carries the shard index and original error."""

    def __init__(self, index: int, error: BaseException) -> None:
        super().__init__(f"shard {index} worker failed: {error!r}")
        self.index = index
        self.error = error


class IngestStallError(RuntimeError):
    """A shard had no room for a part past the stall budget.

    Raised by the producer when bounded retries exhaust
    :data:`STALL_TIMEOUT_SECONDS` without the consumer making room -- the
    structured alternative to blocking forever on a queue whose worker
    has died or wedged.
    """

    def __init__(self, index: int, waited: float, timeouts: int) -> None:
        super().__init__(
            f"shard {index} queue stayed full for {waited:.1f}s "
            f"({timeouts} put timeouts): consumer dead or stalled"
        )
        self.index = index
        self.waited = waited
        self.timeouts = timeouts


class StreamIngestor:
    """Fan record batches out to per-shard workers with backpressure.

    Parameters
    ----------
    states:
        One :class:`ShardState` per shard; workers mutate them.
    store, identity:
        Where a ``ckpt`` request writes shard files, and under which
        run identity (see :class:`ShardServant`).

    A shard holding :data:`MAX_QUEUE_CHUNKS` parts blocks
    :meth:`dispatch` until its worker catches up; requests ride the same
    FIFO without taking room.
    """

    def __init__(
        self,
        states: list[ShardState],
        store=None,
        identity: dict | None = None,
    ) -> None:
        if not states:
            raise ValueError("at least one shard is required")
        self.states = states
        self.servants = [ShardServant(s, store, identity) for s in states]
        #: Answers: lists of ``(kind, key, shard, answer)``, one list
        #: per shard per run of requests.
        self.replies: queue.Queue = queue.Queue()
        self.put_timeouts = 0
        self._queues: list[queue.Queue] = [queue.Queue() for _ in states]
        #: Per shard, room for parts: taken by dispatch, given back by
        #: the worker once a part is folded (or skipped after a failure).
        self._room = [threading.Semaphore(MAX_QUEUE_CHUNKS) for _ in states]
        self._errors: list[ShardWorkerError] = []
        self._closed = False
        # Observability accumulators (flushed once, at close).
        self.max_queued_records = 0
        self._queued_records = [0] * len(states)
        self._queued_lock = threading.Lock()
        self.shard_records = [0] * len(states)
        self.shard_seconds = [0.0] * len(states)
        self.batches_dispatched = 0
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(index,),
                name=f"repro-stream-shard-{index}",
                daemon=True,
            )
            for index in range(len(states))
        ]
        for thread in self._threads:
            thread.start()

    @property
    def shards(self) -> int:
        return len(self.states)

    def _worker(self, index: int) -> None:
        servant = self.servants[index]
        work = self._queues[index]
        room = self._room[index]
        failed = False
        # Answers to a run of requests go out together, before the next
        # fold or once the queue is empty: a waiting driver wakes once
        # per run, not once per answer.
        answers: list = []
        while True:
            try:
                item = work.get(timeout=_WORKER_POLL_SECONDS)
            except queue.Empty:
                continue
            kind = item[0]
            try:
                if kind == "stop":
                    return
                if failed:
                    # Consumed unhandled, so drain() and close() return
                    # (and raise the error) instead of waiting for ever.
                    continue
                if kind != "rows":
                    answer = servant.handle(item)
                    answers.append((kind, item[1], index, answer))
                    continue
                if answers:
                    self.replies.put(answers)
                    answers = []
                # Held until the next part replaces it: released by a
                # request, it frees the driver's routing arrays before
                # the next route, which then page-faults (DESIGN.md §11).
                part = item[2]
                started = perf_counter()
                servant.handle(item)
                self.shard_seconds[index] += perf_counter() - started
                self.shard_records[index] += len(part)
                with self._queued_lock:
                    self._queued_records[index] -= len(part)
            except BaseException as exc:  # noqa: BLE001 - surfaced on drain
                failed = True
                self._errors.append(ShardWorkerError(index, exc))
            finally:
                if kind == "rows":
                    room.release()
                if answers and work.empty():
                    self.replies.put(answers)
                    answers = []
                work.task_done()

    def raise_if_failed(self) -> None:
        """Raise the first shard worker's error, if one has failed."""
        if self._errors:
            raise self._errors[0]

    def _put_bounded(self, index: int, part) -> None:
        """Take room for *part*, then enqueue it -- timeout + bounded
        retries instead of blocking forever.

        Each timeout re-checks worker health (a dead worker's pending
        error surfaces immediately rather than after a deadlock) and
        counts toward the stall budget; exhausting the budget raises
        :class:`IngestStallError` naming the wedged shard.
        """
        room = self._room[index]
        waited = 0.0
        timeouts = 0
        while True:
            if room.acquire(timeout=PUT_TIMEOUT_SECONDS):
                self._queues[index].put(("rows", None, part))
                return
            timeouts += 1
            self.put_timeouts += 1
            waited += PUT_TIMEOUT_SECONDS
            self.raise_if_failed()
            if waited >= STALL_TIMEOUT_SECONDS:
                from repro.telemetry.tracing import tracer

                trc = tracer()
                if trc.enabled:
                    trc.event(
                        "stream.ingest_stall", shard=index,
                        waited=round(waited, 3), timeouts=timeouts,
                    )
                    trc.dump_flight(
                        f"ingest-stall-shard{index}",
                        f"shard {index} queue full for {waited:.1f}s",
                    )
                raise IngestStallError(index, waited, timeouts) from None

    def dispatch(self, parts: list) -> None:
        """Enqueue one routed batch (backpressure-blocks, never deadlocks).

        Each part is a :class:`repro.stream.shard.RoutedPart` from
        :func:`repro.stream.shard.route_columns` (the shard's thread
        gathers its rows) or a plain
        :class:`repro.trace.columnar.RecordColumns` batch (all of it).

        A shard out of room applies backpressure through the bounded
        retry loop in :meth:`_put_bounded`; one that stays out of room
        for :data:`STALL_TIMEOUT_SECONDS` raises :class:`IngestStallError`.
        """
        if self._closed:
            raise RuntimeError("ingestor already closed")
        self.raise_if_failed()
        for index, part in enumerate(parts):
            if not part:
                continue
            with self._queued_lock:
                self._queued_records[index] += len(part)
                in_flight = sum(self._queued_records)
                if in_flight > self.max_queued_records:
                    self.max_queued_records = in_flight
            try:
                self._put_bounded(index, part)
            except BaseException:
                with self._queued_lock:
                    self._queued_records[index] -= len(part)
                raise
        self.batches_dispatched += 1

    def request(self, request: tuple) -> None:
        """Queue a :class:`ShardServant` request behind every shard's
        parts, taking no room; each shard's thread answers it on
        :attr:`replies` when it gets there."""
        if self._closed:
            raise RuntimeError("ingestor already closed")
        self.raise_if_failed()
        for work in self._queues:
            work.put(request)

    def drain(self) -> None:
        """Block until every queued part is folded and request answered."""
        for work in self._queues:
            work.join()
        self.raise_if_failed()

    def close(self) -> None:
        """Drain, stop the workers, and join the threads (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for work in self._queues:
            work.put(_STOP)
        for thread in self._threads:
            thread.join()
        self.raise_if_failed()

    def flush_telemetry(self, registry) -> None:
        """Fold the ingestor's accumulated counters into *registry*."""
        registry.gauge(
            "repro_stream_queue_peak_records",
            "Peak records in flight across all shard queues.",
        ).set(self.max_queued_records)
        registry.counter(
            "repro_stream_backpressure_timeouts_total",
            "Bounded-put timeouts while shard queues were full.",
        ).inc(self.put_timeouts)
        fold_telemetry(registry, self)


def fold_telemetry(registry, counts) -> None:
    """Export what every in-process transport counts (*counts*'
    ``batches_dispatched``, ``shard_records``, ``shard_seconds``):
    batches fed, and per shard the records folded and the seconds spent
    folding them."""
    registry.counter(
        "repro_stream_batches_total",
        "Routed batches fed to the shards.",
    ).inc(counts.batches_dispatched)
    for index, (records, seconds) in enumerate(
        zip(counts.shard_records, counts.shard_seconds)
    ):
        registry.counter(
            "repro_stream_shard_records_total",
            "Records folded into each shard's state.",
            shard=str(index),
        ).inc(records)
        registry.counter(
            "repro_stream_shard_seconds_total",
            "Wall time spent folding records into each shard.",
            shard=str(index),
        ).inc(seconds)
