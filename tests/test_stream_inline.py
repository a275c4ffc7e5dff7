"""The inline transport: a run with a query publisher folds its shards on
the driver's own thread.

It must be invisible in everything a run produces: the report, the
final snapshot's rows and every checkpoint generation are the thread
transport's and the process fabric's, byte for byte, and a generation
any of the three writes resumes under the other two.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import threading

import pytest

from repro.query import ActiveView, QueryState
from repro.simkernel.clock import days, hours
from repro.stream import ShardCheckpointStore, StreamEngine
from repro.stream.engine import _InlineTransport
from tests.test_stream import CAPTURE_FAULTS, kill_mid_run, run_front, small_config

SHARD_THREAD = "repro-stream-shard-"

VARIANTS = {
    "faulted": dict(faults=CAPTURE_FAULTS),
    "heartbeat": dict(probe_policy="heartbeat", probe_rate=0.5),
}


def publisher_for(dataset) -> QueryState:
    return QueryState(ActiveView.from_dataset(dataset))


def rows(snapshot) -> str:
    return json.dumps(snapshot.services())


def shard_threads(before: set) -> list[str]:
    """Shard threads alive now that were not in *before* (an earlier
    test's unclosed ingestor may have left its own behind)."""
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(SHARD_THREAD) and thread not in before
    ]


def test_a_publisher_run_starts_no_shard_thread(small_dtcp18):
    config = small_config(
        shards=2, emit_every=hours(48), snapshot_every=hours(6)
    )
    seen: dict[str, list] = {"inline": [], "threads": []}
    before = set(threading.enumerate())

    def watch(key):
        return lambda _watermark: seen[key].append(shard_threads(before))

    engine = StreamEngine(config, dataset=small_dtcp18)
    assert type(engine._transport(object())) is _InlineTransport
    engine.run(publisher=publisher_for(small_dtcp18), progress=watch("inline"))
    StreamEngine(config, dataset=small_dtcp18).run(progress=watch("threads"))
    assert len(seen["inline"]) >= 3
    assert all(names == [] for names in seen["inline"])
    # The check can see shard threads: a run without a publisher has them.
    assert all(len(names) == 2 for names in seen["threads"])


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("shards", [1, 2, 8])
def test_inline_matches_threads_and_fabric(small_dtcp18, shards, variant):
    config = small_config(
        shards=shards, emit_every=hours(96), snapshot_every=hours(12),
        **VARIANTS[variant],
    )
    publisher = publisher_for(small_dtcp18)
    inline = run_front("threads", config, small_dtcp18, publisher=publisher)
    threads = run_front("threads", config, small_dtcp18)
    fabric = run_front("fabric", config, small_dtcp18)
    assert inline.report == threads.report == fabric.report
    assert inline.watermarks == threads.watermarks == fabric.watermarks
    assert rows(inline.snapshot) == rows(threads.snapshot) == rows(fabric.snapshot)
    assert rows(publisher.snapshot()) == rows(inline.snapshot)


def checkpointing(tmp_path, **overrides):
    return small_config(**{
        "shards": 2, "emit_every": hours(96), "checkpoint_every": hours(48),
        "snapshot_every": hours(12), "checkpoint_path": str(tmp_path / "store"),
        "faults": CAPTURE_FAULTS, **overrides,
    })


def resume_everywhere(config, dataset, reference, tmp_path):
    """Resume a copy of *config*'s store under threads and under the
    fabric; both must finish as *reference* did."""
    for front in ("threads", "fabric"):
        store = tmp_path / front
        shutil.copytree(config.checkpoint_path, store)
        resumed = run_front(
            front, dataclasses.replace(config, checkpoint_path=str(store)),
            dataset, resume=True,
        )
        assert resumed.resumed, front
        assert resumed.report == reference.report, front
        assert resumed.watermarks == reference.watermarks, front
        assert rows(resumed.snapshot) == rows(reference.snapshot), front


class TestCrossTransportResume:
    def test_stopped_after_records_resumes_on_threads_and_fabric(
        self, small_dtcp18, tmp_path
    ):
        config = checkpointing(tmp_path)
        reference = StreamEngine(config, dataset=small_dtcp18).run()
        partial = StreamEngine(config, dataset=small_dtcp18).run(
            publisher=publisher_for(small_dtcp18),
            stop_after_records=reference.records_read // 2,
        )
        assert not partial.finished and partial.checkpoints_written >= 2
        resume_everywhere(config, small_dtcp18, reference, tmp_path)

    def test_request_stop_resumes_on_threads_and_fabric(
        self, small_dtcp18, tmp_path
    ):
        """The path ``serve`` takes on SIGTERM: the interrupt commits one
        more generation, holding every batch folded before the stop.
        No periodic generation exists, so a resume starts from that one."""
        config = checkpointing(
            tmp_path, checkpoint_every=None, end=days(6), batch_records=2000
        )
        reference = StreamEngine(config, dataset=small_dtcp18).run()
        engine = StreamEngine(config, dataset=small_dtcp18)
        state = publisher_for(small_dtcp18)

        class StopOnThirdPublish:
            publishes = 0

            def publish(self, snapshot):
                state.publish(snapshot)
                self.publishes += 1
                if self.publishes == 3:
                    engine.request_stop()

        with pytest.raises(KeyboardInterrupt, match="checkpoint saved"):
            engine.run(publisher=StopOnThirdPublish())
        store = ShardCheckpointStore(config.checkpoint_path)
        assert store.generations() == [1]
        plan = store.plan_restore(engine._identity())
        assert plan.manifest["records_delivered"] == state.snapshot().records
        assert plan.manifest["records_read"] < reference.records_read
        resume_everywhere(config, small_dtcp18, reference, tmp_path)

    def test_a_thread_generation_resumes_under_a_publisher(
        self, small_dtcp18, tmp_path
    ):
        config = checkpointing(tmp_path)
        reference = StreamEngine(config, dataset=small_dtcp18).run()
        kill_mid_run(
            "threads", config, small_dtcp18, reference.records_read // 2
        )
        publisher = publisher_for(small_dtcp18)
        resumed = StreamEngine(config, dataset=small_dtcp18).run(
            resume=True, publisher=publisher
        )
        assert resumed.resumed
        assert resumed.report == reference.report
        assert resumed.watermarks == reference.watermarks
        assert rows(publisher.snapshot()) == rows(reference.snapshot)


def test_publisher_run_exports_the_fold_counters(small_dtcp18):
    """``repro stats`` reads a ``serve`` export as it reads a ``stream``
    one: batches and per-shard fold counters, equal to a thread run's
    where they count the same thing.  Nothing is queued inline, so
    there is no queue-peak or backpressure series."""
    from repro.telemetry import disable, enable

    config = small_config(shards=2, snapshot_every=hours(6))

    def export(publisher):
        reg = enable()
        try:
            result = StreamEngine(config, dataset=small_dtcp18).run(
                publisher=publisher
            )
        finally:
            disable()
        return reg, result

    inline, result = export(publisher_for(small_dtcp18))
    threads, _ = export(None)
    assert inline.value("repro_stream_batches_total") == threads.value(
        "repro_stream_batches_total"
    ) > 0
    for shard in ("0", "1"):
        records = inline.value("repro_stream_shard_records_total", shard=shard)
        assert records == threads.value(
            "repro_stream_shard_records_total", shard=shard
        ) > 0
        assert inline.value("repro_stream_shard_seconds_total", shard=shard) > 0
    assert inline.total("repro_stream_shard_records_total") == (
        result.records_delivered
    )
    assert inline.value("repro_stream_queue_peak_records") is None
    assert inline.value("repro_stream_backpressure_timeouts_total") is None
