"""Tests for the streaming discovery engine (:mod:`repro.stream`).

The load-bearing property is equivalence: a stream run's final report
must be byte-identical to the batch path's for the same (seed, scale,
faults), at any shard count, with or without an interruption/resume in
the middle.  The suite also pins the supporting invariants: shard
routing partitions records deterministically, checkpoints validate
their identity, the fault filter's loss processes survive a snapshot,
and peak memory stays flat as the stream gets longer.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.plan import FaultPlan
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.simkernel.clock import days, hours
from repro.stream import (
    CheckpointError,
    FabricConfig,
    FabricSupervisor,
    IngestStallError,
    StreamConfig,
    StreamEngine,
    StreamIngestor,
    ShardCheckpointStore,
    ShardServant,
    ShardState,
    ShardWorkerError,
    batch_survey_report,
    emit_schedule,
    load_checkpoint,
    owning_address,
    route_columns,
    save_checkpoint,
    shard_of,
    split_columns,
)
from repro.passive.monitor import PassiveServiceTable
from repro.stream import ingest as ingest_module
from repro.trace.columnar import RecordColumns
from tests.passive_reference import capture_filter

#: Must match the session-scoped ``small_dtcp18`` fixture's build.
SMALL = dict(dataset="DTCP1-18d", seed=7, scale=0.04)

#: A fault plan exercising every capture failure mode.
CAPTURE_FAULTS = FaultPlan(
    seed=3,
    capture_loss_rate=0.01,
    burst_loss_rate=0.0005,
    burst_mean_length=40,
    outage_fraction=0.03,
    outage_count=2,
)


def small_config(**overrides) -> StreamConfig:
    return StreamConfig(**{**SMALL, **overrides})


@pytest.fixture(scope="module")
def batch_report(small_dtcp18):
    return batch_survey_report(small_config(), dataset=small_dtcp18)


class TestShardRouting:
    def test_owning_address_rules(self, small_dtcp18, record_sample):
        is_campus = small_dtcp18.is_campus
        for record in record_sample:
            owner = owning_address(record, is_campus)
            if record.proto == PROTO_TCP:
                flags = int(record.flags)
                if flags & 0x02 and flags & 0x10:
                    assert owner == record.src  # SYN-ACK is about its sender
                else:
                    assert owner == record.dst
            elif record.proto == PROTO_UDP:
                expected = record.src if is_campus(record.src) else record.dst
                assert owner == expected
            else:
                assert owner == record.dst

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_shard_of_deterministic_and_in_range(self, shards):
        for address in range(0, 1 << 16, 997):
            index = shard_of(address, shards)
            assert 0 <= index < shards
            assert index == shard_of(address, shards)

    @pytest.mark.parametrize("shards", [2, 8])
    def test_split_batch_partitions_in_order(
        self, small_dtcp18, record_sample, shards
    ):
        is_campus = small_dtcp18.is_campus
        batch = RecordColumns.from_records(record_sample)
        parts = split_columns(batch, is_campus, shards)
        assert len(parts) == shards
        # The routed parts stand for every record ...
        assert sum(map(len, route_columns(batch, is_campus, shards))) == len(
            record_sample
        )
        # ... and each carries exactly the per-record routing rule's
        # sub-stream of the rows a passive rule reads, in stream order.
        read = [
            record for record in record_sample
            if record.proto == PROTO_UDP
            or (record.proto == PROTO_TCP and int(record.flags) & 0x10)
        ]
        assert 0 < sum(map(len, parts)) == len(read) < len(record_sample)
        for index, part in enumerate(parts):
            assert part.to_records() == [
                record
                for record in read
                if shard_of(owning_address(record, is_campus), shards) == index
            ]


class TestEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_stream_matches_batch_bytes(self, small_dtcp18, batch_report, shards):
        result = StreamEngine(
            small_config(shards=shards, emit_every=hours(96)),
            dataset=small_dtcp18,
        ).run()
        assert result.finished
        assert result.report == batch_report

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_faulted_stream_matches_faulted_batch(self, small_dtcp18, shards):
        config = small_config(shards=shards, faults=CAPTURE_FAULTS)
        result = StreamEngine(config, dataset=small_dtcp18).run()
        assert result.report == batch_survey_report(config, dataset=small_dtcp18)
        assert result.records_delivered < result.records_read  # faults dropped

    def test_truncated_stream_matches_its_own_oracle(self, small_dtcp18,
                                                     batch_report):
        """The oracle replays to the config's end, not the dataset's."""
        config = small_config(shards=2, end=days(2))
        result = StreamEngine(config, dataset=small_dtcp18).run()
        assert result.report == batch_survey_report(config, dataset=small_dtcp18)
        assert result.report != batch_report

    def test_merged_table_matches_batch_table(self, small_dtcp18):
        result = StreamEngine(small_config(shards=4), dataset=small_dtcp18).run()
        reference = PassiveServiceTable(
            is_campus=small_dtcp18.is_campus,
            tcp_ports=small_dtcp18.tcp_ports,
            udp_ports=small_dtcp18.udp_ports,
        )
        small_dtcp18.replay(reference)
        assert result.table.first_seen == reference.first_seen
        assert result.table.flow_counts == reference.flow_counts
        assert result.table.clients == reference.clients
        assert result.table.last_seen == reference.last_seen

    def test_driver_thread_copies_no_records(self, small_dtcp18, monkeypatch):
        """The driver decides rows -- which ones the capture filter keeps,
        which shard owns each -- and the shard threads gather them: no
        ``take`` or ``compress`` runs on the driver thread (telemetry is
        off, so no tap wants the filtered batch)."""
        from repro.telemetry.metrics import telemetry_enabled

        assert not telemetry_enabled()
        config = small_config(shards=2, faults=CAPTURE_FAULTS)
        reference = batch_survey_report(config, dataset=small_dtcp18)
        # Read the source first: a regenerated stream sorts its windows
        # with ``take`` on whatever thread iterates it.
        batches = list(
            small_dtcp18.column_batches(batch_records=config.batch_records)
        )

        def column_batches(end=None, skip=0, batch_records=None):
            assert skip == 0
            return iter(batches)

        monkeypatch.setitem(
            vars(small_dtcp18), "column_batches", column_batches
        )
        calls = []
        for name in ("take", "compress"):
            def spy(cols, selector, name=name,
                    method=getattr(RecordColumns, name)):
                calls.append((name, threading.get_ident()))
                return method(cols, selector)

            monkeypatch.setattr(RecordColumns, name, spy)
        result = StreamEngine(config, dataset=small_dtcp18).run()
        driver = threading.get_ident()
        assert result.records_delivered < result.records_read  # rows dropped
        assert [name for name, thread in calls if thread == driver] == []
        assert any(name == "take" for name, _ in calls)  # the shards gathered
        assert result.report == reference

    def test_faulted_fabric_with_a_failover_matches_faulted_batch(
        self, small_dtcp18, fast_fabric
    ):
        """A crashed worker's replacement catches up through
        ``replay_gap``: the scratch filter's kept rows, routed as the
        live feed routes them, gathered into the ring by ``_place``."""
        from repro.faults.worker import WorkerFaultPlan

        fast_fabric(max_restarts=25)
        config = small_config(shards=2, faults=CAPTURE_FAULTS)
        events = []
        result = FabricSupervisor(
            config,
            FabricConfig(
                worker_faults=WorkerFaultPlan(seed=1, crash_rate=1.0),
            ),
            dataset=small_dtcp18,
        ).run(on_event=events.append)
        assert result.report == batch_survey_report(config, dataset=small_dtcp18)
        assert result.records_delivered < result.records_read  # rows dropped
        assert any(line.startswith("fabric: reassign") for line in events)


class TestOneBatchType:
    def test_list_tier_is_gone(self):
        """Columns are the only batch type: no option selects another."""
        import repro.stream

        assert small_config(columnar=True).columnar  # bench/ still passes it
        with pytest.raises(ValueError, match="columnar"):
            small_config(columnar=False)
        assert "split_batch" not in repro.stream.__all__
        assert not hasattr(ShardState, "observe_batch")


class TestWatermarks:
    def test_emit_schedule_covers_end(self):
        marks = emit_schedule(days(18), hours(96))
        assert marks[-1] == days(18)
        assert all(b > a for a, b in zip(marks, marks[1:]))
        with pytest.raises(ValueError):
            emit_schedule(days(1), 0)

    def test_watermarks_monotone_and_final_equals_summary(self, small_dtcp18):
        result = StreamEngine(
            small_config(shards=2, emit_every=hours(96)), dataset=small_dtcp18
        ).run()
        times = [watermark.time for watermark in result.watermarks]
        assert times == sorted(times)
        assert times[-1] == small_dtcp18.duration
        assert result.watermarks[-1].summary == result.summary
        # Discovery is cumulative: the union never shrinks.
        unions = [watermark.summary.union for watermark in result.watermarks]
        assert all(b >= a for a, b in zip(unions, unions[1:]))

    def test_mid_stream_watermark_matches_time_filtered_state(self, small_dtcp18):
        mark = hours(96)
        result = StreamEngine(
            small_config(shards=2, emit_every=mark), dataset=small_dtcp18
        ).run()
        watermark = result.watermarks[0]
        assert watermark.time == mark
        expected = {
            address
            for (address, _port, _proto), seen in result.table.first_seen.items()
            if seen <= mark
        }
        passive_at_mark = (
            watermark.summary.both + watermark.summary.passive_only
        )
        assert passive_at_mark == len(expected)

    def test_last_seen_timeline(self, small_dtcp18):
        result = StreamEngine(small_config(shards=2), dataset=small_dtcp18).run()
        last_seen = result.table.last_seen
        assert last_seen  # endpoints were observed
        assert last_seen.keys() == result.table.first_seen.keys()
        for endpoint, last in last_seen.items():
            first = result.table.first_seen.get(endpoint)
            assert first is not None and last >= first


def run_front(front, config, dataset, **kwargs):
    """One run of *config* on the thread transport or the process fabric
    (at the supervision speed its caller's ``fast_fabric`` set)."""
    if front == "threads":
        return StreamEngine(config, dataset=dataset).run(**kwargs)
    return FabricSupervisor(config, FabricConfig(), dataset=dataset).run(
        **kwargs
    )


def kill_mid_run(front, config, dataset, records):
    """Stop a run so that only its periodic checkpoints survive.

    Threads stop after *records* without a final checkpoint; the fabric
    is interrupted as its second generation commits -- it writes nothing
    on interrupt beyond settling a generation already requested, and
    says so.
    """
    if front == "threads":
        partial = run_front(
            front, config, dataset, stop_after_records=records
        )
        assert not partial.finished
        return
    manifests = []

    def interrupt(line):
        manifests.append(line.startswith("fabric: manifest"))
        if sum(manifests) == 2:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt, match="committed generation 2"):
        run_front(front, config, dataset, on_event=interrupt)


class TestCheckpointResume:
    @pytest.fixture(autouse=True)
    def _fast_supervision(self, fast_fabric):
        """Every fabric run here supervises at ``FAST_FABRIC`` speed."""

    @pytest.mark.parametrize("front", ["threads", "fabric"])
    def test_interrupt_and_resume_identical(self, small_dtcp18, tmp_path, front):
        ckpt = tmp_path / "stream.ckpt"
        config = small_config(
            shards=2,
            emit_every=hours(96),
            checkpoint_every=hours(48),
            checkpoint_path=str(ckpt),
            faults=CAPTURE_FAULTS,
        )
        reference = StreamEngine(config, dataset=small_dtcp18).run()
        assert reference.finished and not ckpt.exists()

        kill_mid_run(front, config, small_dtcp18, reference.records_read // 2)
        assert ckpt.exists()  # periodic checkpoint survived the "kill"

        resumed = run_front(front, config, small_dtcp18, resume=True)
        assert resumed.resumed
        assert resumed.report == reference.report
        assert resumed.watermarks == reference.watermarks
        assert resumed.records_delivered == reference.records_delivered
        assert not ckpt.exists()  # cleaned up after the successful finish

    @staticmethod
    def _checkpointing(tmp_path, **overrides):
        return small_config(
            shards=2,
            emit_every=hours(96),
            checkpoint_every=hours(48),
            checkpoint_path=str(tmp_path / "stream.ckpt"),
            faults=CAPTURE_FAULTS,
            **overrides,
        )

    @staticmethod
    def _assert_same_run(resumed, reference):
        assert resumed.resumed
        assert resumed.report == reference.report
        assert resumed.watermarks == reference.watermarks
        assert resumed.records_delivered == reference.records_delivered
        assert resumed.table.flow_counts == reference.table.flow_counts
        assert resumed.table.last_seen == reference.table.last_seen

    @pytest.mark.parametrize(
        "probing", [{}, dict(probe_policy="periodic", probe_rate=5.0)],
        ids=["passive", "periodic"],
    )
    @pytest.mark.parametrize(
        "killed,resumed_on", [("threads", "fabric"), ("fabric", "threads")]
    )
    def test_resume_crosses_transports(
        self, small_dtcp18, tmp_path, killed, resumed_on, probing
    ):
        """One layout: what either transport left, the other resumes
        from -- under a capture-fault plan, with and without the online
        prober's mid-sweep state in the manifest."""
        config = self._checkpointing(tmp_path, **probing)
        # The oracle first: its replay records the trace, and a
        # watermark's record count depends on where batches end.
        oracle = None if probing else batch_survey_report(
            config, dataset=small_dtcp18
        )
        reference = StreamEngine(config, dataset=small_dtcp18).run()
        assert oracle is None or reference.report == oracle
        kill_mid_run(killed, config, small_dtcp18, reference.records_read // 2)
        resumed = run_front(resumed_on, config, small_dtcp18, resume=True)
        self._assert_same_run(resumed, reference)
        assert not (tmp_path / "stream.ckpt").exists()

    @pytest.mark.parametrize("resumed_on", ["threads", "fabric"])
    def test_store_with_udp_requests_resumes(
        self, small_dtcp18, tmp_path, monkeypatch, resumed_on
    ):
        """Shard payloads that carry ``udp_requests`` -- an empty set in
        every stream table, kept by the layout from before the
        bidirectional UDP rule left -- resume on either transport to
        the batch report."""
        config = self._checkpointing(tmp_path)
        oracle = batch_survey_report(config, dataset=small_dtcp18)
        state_dict = ShardState.state_dict
        written = []

        def old_layout(state):
            written.append(state.index)
            return {**state_dict(state), "udp_requests": set()}

        with monkeypatch.context() as patch:
            patch.setattr(ShardState, "state_dict", old_layout)
            kill_mid_run("threads", config, small_dtcp18, 100_000)
        assert sorted(set(written)) == [0, 1]
        resumed = run_front(resumed_on, config, small_dtcp18, resume=True)
        assert resumed.resumed
        assert resumed.report == oracle

    @pytest.mark.parametrize("front", ["threads", "fabric"])
    def test_corrupt_newest_shard_file_falls_back_a_generation(
        self, small_dtcp18, tmp_path, front
    ):
        """A bit flip in the newest generation costs one shard one
        generation: it restarts from the previous one and folds the gap
        again, through the fault filter as that manifest left it."""
        config = self._checkpointing(tmp_path)
        reference = StreamEngine(config, dataset=small_dtcp18).run()
        kill_mid_run(front, config, small_dtcp18, reference.records_read // 2)

        store = ShardCheckpointStore(config.checkpoint_path)
        newest, previous = store.generations()
        victim = store.shard_path(1, newest)
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        victim.write_bytes(bytes(raw))
        identity = StreamEngine(config, dataset=small_dtcp18)._identity()
        plan = store.plan_restore(identity)
        assert plan.generation == newest
        assert (
            plan.shards[1].records_read
            == store.load_manifest(previous, identity)["records_read"]
            < plan.shards[0].records_read
        )

        resumed = run_front(front, config, small_dtcp18, resume=True)
        self._assert_same_run(resumed, reference)

    @pytest.mark.parametrize("front", ["threads", "fabric"])
    def test_single_file_checkpoint_at_the_store_path_is_refused(
        self, small_dtcp18, tmp_path, front
    ):
        """What an older version's ``--shards N`` run left behind."""
        config = self._checkpointing(tmp_path)
        Path(config.checkpoint_path).write_bytes(b"an old single-file checkpoint")
        with pytest.raises(CheckpointError, match="stream.ckpt is a file"):
            run_front(front, config, small_dtcp18, resume=True)

    def test_prune_command_on_a_threaded_runs_store(
        self, small_dtcp18, tmp_path, capsys
    ):
        from repro.cli import main

        config = self._checkpointing(tmp_path)
        reference = StreamEngine(config, dataset=small_dtcp18).run()
        kill_mid_run(
            "threads", config, small_dtcp18, reference.records_read // 2
        )
        store = ShardCheckpointStore(config.checkpoint_path)
        newest, _previous = store.generations()
        assert main(
            ["checkpoint", "prune", config.checkpoint_path, "--keep", "1"]
        ) == 0
        assert "kept 1 generation(s)" in capsys.readouterr().out
        assert store.generations() == [newest]
        assert sorted(entry.name for entry in store.root.iterdir()) == [
            store.manifest_path(newest).name,
            store.shard_path(0, newest).name,
            store.shard_path(1, newest).name,
        ]
        resumed = StreamEngine(config, dataset=small_dtcp18).run(resume=True)
        self._assert_same_run(resumed, reference)

    def test_threaded_checkpoint_reports_its_generations_bytes(
        self, small_dtcp18, tmp_path
    ):
        from repro.telemetry import disable, enable

        config = self._checkpointing(tmp_path)
        reg = enable()
        try:
            killed = StreamEngine(config, dataset=small_dtcp18).run(
                stop_after_records=100_000
            )
        finally:
            disable()
        sizes = reg.histogram(
            "repro_stream_checkpoint_bytes",
            "Size of each written stream checkpoint.",
        )
        assert sizes.count == killed.checkpoints_written >= 2
        store = ShardCheckpointStore(config.checkpoint_path)
        newest = store.generations()[0]
        on_disk = sum(
            path.stat().st_size
            for path in (
                store.manifest_path(newest),
                store.shard_path(0, newest),
                store.shard_path(1, newest),
            )
        )
        # State only grows, so the newest generation is the largest.
        assert on_disk <= sizes.sum <= on_disk * sizes.count

    @pytest.mark.parametrize("front", ["threads", "fabric"])
    def test_every_committed_generation_reports_its_bytes(
        self, small_dtcp18, tmp_path, front
    ):
        """Both transports commit through one ledger: every generation
        observes ``repro_stream_checkpoint_bytes`` (its shard files plus
        the manifest), the fabric's included."""
        from repro.telemetry import disable, enable

        config = self._checkpointing(tmp_path)
        reg = enable()
        try:
            result = run_front(front, config, small_dtcp18)
        finally:
            disable()
        sizes = reg.histogram(
            "repro_stream_checkpoint_bytes",
            "Size of each written stream checkpoint.",
        )
        assert sizes.count == result.checkpoints_written >= 2
        assert sizes.sum > 0

    def test_sigterm_inside_feed_lands_on_the_batch_boundary(
        self, tmp_path, monkeypatch, capsys
    ):
        """The CLI's handler sets a flag; the run loop interrupts itself
        after the batch is fed.  A handler that raised would unwind out
        of ``feed`` with the batch counted (offset, fault RNG) but in no
        shard, and the resumed run would skip it."""
        import os
        import signal

        from repro.cli import _stream_config, build_parser, main
        from repro.datasets import build_dataset
        from repro.stream import engine as engine_module

        ckpt, out = tmp_path / "stream.ckpt", tmp_path / "report.txt"
        argv = [
            "stream", SMALL["dataset"], "--seed", str(SMALL["seed"]),
            "--scale", str(SMALL["scale"]), "--shards", "2",
            "--loss-rate", "0.02", "--outage-fraction", "0.02",
            "--checkpoint", str(ckpt), "--out", str(out),
        ]
        feed = engine_module._ThreadTransport.feed
        fed = []

        def signalled_feed(transport, parts, offset):
            fed.append(offset)
            if len(fed) == 2:
                os.kill(os.getpid(), signal.SIGTERM)
            feed(transport, parts, offset)

        monkeypatch.setattr(engine_module._ThreadTransport, "feed", signalled_feed)
        assert main(argv) == 130
        assert f"interrupted; checkpoint saved to {ckpt}" in capsys.readouterr().err
        assert len(fed) == 2 and not out.exists()

        args = build_parser().parse_args(argv)
        config = _stream_config(args)
        dataset = build_dataset(
            config.dataset, seed=config.seed, scale=config.scale,
            faults=config.faults,
        )
        plan = ShardCheckpointStore(ckpt).plan_restore(
            StreamEngine(config, dataset=dataset)._identity()
        )
        assert plan.manifest["records_read"] == fed[-1]
        assert plan.manifest["records_delivered"] == sum(
            restore.state["records"] for restore in plan.shards
        )

        monkeypatch.setattr(engine_module._ThreadTransport, "feed", feed)
        assert main(argv + ["--resume"]) == 0
        assert f"resuming: {ckpt}" in capsys.readouterr().err
        assert out.read_text() == (
            batch_survey_report(config, dataset=dataset) + "\n"
        )

    @pytest.mark.parametrize("front", ["threads", "fabric"])
    def test_interrupt_without_checkpoint_path_says_so(self, small_dtcp18, front):
        def interrupt(_watermark):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt, match="no checkpoint"):
            run_front(
                front, small_config(shards=2, emit_every=hours(96)),
                small_dtcp18, progress=interrupt,
            )

    def test_resume_without_checkpoint_path_raises(self, small_dtcp18):
        engine = StreamEngine(small_config(), dataset=small_dtcp18)
        with pytest.raises(ValueError):
            engine.run(resume=True)

    def test_checkpoint_rejects_other_identity(self, tmp_path):
        path = tmp_path / "c.ckpt"
        config = {"dataset": "DTCP1-18d", "seed": 7, "scale": "0.04",
                  "shards": 2, "fault_digest": None}
        save_checkpoint(path, {"config": config, "records_read": 0})
        assert load_checkpoint(path, config)["records_read"] == 0
        other = dict(config, shards=4)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, other)

    def test_checkpoint_rejects_unknown_version(self, tmp_path):
        import pickle

        path = tmp_path / "c.ckpt"
        path.write_bytes(pickle.dumps({"version": 999, "config": {}}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, {})

    def test_capture_filter_state_roundtrip(self, record_sample):
        duration = days(18)
        uninterrupted = capture_filter(CAPTURE_FAULTS, duration)
        expected = [r for r in record_sample if uninterrupted.keep(r)]

        first = capture_filter(CAPTURE_FAULTS, duration)
        half = len(record_sample) // 2
        head = [r for r in record_sample[:half] if first.keep(r)]
        snapshot = first.state_dict()

        second = capture_filter(CAPTURE_FAULTS, duration)
        second.restore_state(snapshot)
        tail = [r for r in record_sample[half:] if second.keep(r)]
        assert [r.time for r in head + tail] == [r.time for r in expected]
        assert second.stats.seen == uninterrupted.stats.seen


def request_marks(ingestor, index, marks):
    """Queue marks *index* on as one request on every shard thread; the
    returned answer slots (one list per mark) stay ``None`` until
    :func:`collect_marks` files a reply."""
    ingestor.request(("marks", index, tuple(marks)))
    return [[None] * ingestor.shards for _ in marks]


def collect_marks(ingestor, answers):
    """File every mark reply the shard threads have put out so far."""
    while not ingestor.replies.empty():
        for _kind, index, shard, answer in ingestor.replies.get_nowait():
            for offset, passive in enumerate(answer):
                answers[index + offset][shard] = passive


class RecordingTransport:
    """A shard transport with no threads and no processes.

    Folds on ``feed`` and appends every call the driver makes to *log*
    (shared with the probe spy and the publisher, so it is one ordered
    trace).  Marks are answered lazily -- only when the driver waits --
    so any watermark a checkpoint payload holds got there because the
    driver drained pending marks first.
    """

    def __init__(self, dataset, shards, log, saved=None):
        self.log = log
        self.saved = saved
        self.checkpoints: list[dict] = []
        self.counted = 0
        self.unanswered: list[float] = []
        self.states = [
            ShardState(
                index,
                PassiveServiceTable(
                    is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports,
                    udp_ports=dataset.udp_ports,
                ),
            )
            for index in range(shards)
        ]
        self.servants = [ShardServant(state) for state in self.states]

    def restore(self):
        if self.saved is None:
            return None
        for state, saved in zip(self.states, self.saved["shards"]):
            state.restore_state(saved)
        return self.saved

    def start(self, offset):
        self.log.append(("start", offset))

    def feed(self, parts, offset):
        self.log.append(("feed", offset))
        for servant, part in zip(self.servants, parts):
            if len(part):
                servant.handle(("rows", None, part))

    def poll(self):
        pass

    def request_marks(self, index, marks):
        self.log.append(("marks", index))
        self.unanswered.extend(marks)

    def completed_marks(self, wait=False):
        if not wait:
            return []
        marks, self.unanswered = tuple(self.unanswered), []
        answers = [
            servant.handle(("marks", 0, marks)) for servant in self.servants
        ]
        return [set().union(*passive) for passive in zip(*answers)]

    def snapshot_payloads(self):
        self.log.append(("snapshot",))
        return [servant.handle(("snap", 0, None)) for servant in self.servants]

    def checkpoint(self, progress):
        self.log.append(("checkpoint", progress["now"]))
        self.checkpoints.append(
            dict(progress, shards=[s.state_dict() for s in self.states])
        )

    def committed_checkpoints(self, wait=False):
        # Like the marks: a generation commits only when waited on.
        if not wait:
            return []
        commits = [(0.0, 0)] * (len(self.checkpoints) - self.counted)
        self.counted = len(self.checkpoints)
        return commits

    def interrupt(self, progress):
        return "fake"

    def finish(self):
        self.log.append(("finish",))
        return self.states

    def clear_checkpoints(self):
        self.log.append(("clear",))

    def close(self):
        self.log.append(("close",))


class TestDriverContract:
    """A :class:`~repro.stream.engine._Run` stepped over a fake
    transport, as ``StreamEngine._drive`` steps it: what the one run
    loop promises every transport, checked without threads."""

    EVERY = hours(6)

    @pytest.fixture()
    def drive(self, small_dtcp18, monkeypatch):
        from repro.probe import ProbeScheduler

        advance = ProbeScheduler.advance

        def spy(prober, now):
            log.append(("advance", now))
            return advance(prober, now)

        monkeypatch.setattr(ProbeScheduler, "advance", spy)
        log: list[tuple] = []
        config = small_config(
            shards=2, end=days(2), batch_records=500,
            probe_policy="periodic", probe_rate=5.0,
            emit_every=self.EVERY, snapshot_every=self.EVERY,
            checkpoint_every=self.EVERY, checkpoint_path="unused-by-the-fake",
        )
        engine = StreamEngine(config, dataset=small_dtcp18)

        class Publisher:
            def publish(self, snapshot):
                log.append(("publish", len(snapshot.watermarks)))

        def drive(saved=None, stop_after_records=None):
            from repro.stream.engine import _Run

            del log[:]
            transport = RecordingTransport(small_dtcp18, 2, log, saved)
            run = _Run(engine, transport, stop_after_records,
                       publisher=Publisher())
            if saved is not None:
                run.restore(transport.restore())
            transport.start(run.records_read)
            for batch in run.batches():
                if run.step(batch):
                    break
            else:
                run.drain()
            transport.close()
            return transport, run.finish(), list(log)

        drive.engine = engine
        return drive

    def test_per_batch_order_and_checkpoint_payloads(self, drive):
        transport, result, log = drive()
        assert result.finished
        assert result.report == drive.engine.run().report

        # Between two feeds: advance -> marks -> snapshot -> checkpoint.
        rank = {"advance": 0, "marks": 1, "snapshot": 2, "publish": 2,
                "checkpoint": 3}
        batches, seen_all = [], False
        for entry in log:
            if entry[0] == "feed":
                batches.append([])
            elif entry[0] in rank and batches:
                batches[-1].append(entry[0])
        for names in batches[:-1]:  # the last also holds the end flush
            assert names[0] == "advance"
            assert [rank[n] for n in names] == sorted(rank[n] for n in names)
            seen_all |= set(names) == set(rank)
        assert seen_all
        assert [e[0] for e in log[-4:]] == ["finish", "close", "clear", "publish"]

        # Every checkpoint already holds each watermark at or before it,
        # though this transport answers marks only when waited on.
        marks = emit_schedule(days(2), self.EVERY)
        assert result.checkpoints_written == len(transport.checkpoints) >= 3
        for payload in transport.checkpoints:
            times = [w.time for w in payload["watermarks"]]
            assert times == [m for m in marks if m <= payload["now"]]
            assert payload["emitted_index"] == len(times)
            assert payload["probes"] is not None

    def test_resume_reenters_at_the_restored_cursors(self, drive):
        first, reference, log = drive()
        # Resume from a checkpoint that several batches separate from
        # the next one, so a checkpoint repeated on re-entry would show.
        steps = [e[0] for e in log if e[0] in ("feed", "checkpoint")]
        cuts = [i for i, name in enumerate(steps) if name == "checkpoint"]
        chosen = next(
            k for k in range(len(cuts) - 1) if cuts[k + 1] - cuts[k] > 3
        )
        saved = first.checkpoints[chosen]
        _, resumed, log = drive(saved=saved)
        assert resumed.resumed
        assert resumed.report == reference.report
        assert resumed.watermarks == reference.watermarks
        assert log[0] == ("start", saved["records_read"])
        assert next(e for e in log if e[0] == "feed")[1] > saved["records_read"]
        assert next(e for e in log if e[0] == "marks") == (
            "marks", saved["emitted_index"]
        )
        # Checkpoints continue at the next boundary, not with a repeat.
        assert [e[1] for e in log if e[0] == "checkpoint"] == [
            later["now"] for later in first.checkpoints[chosen + 1:]
        ]

    def test_stop_after_records_does_not_finalise(self, drive):
        transport, result, log = drive(stop_after_records=6000)
        assert not result.finished and result.report is None
        assert 6000 <= result.records_read < 6000 + 500
        # The stop settles what was requested: this transport commits a
        # generation only when waited on.
        assert result.checkpoints_written == len(transport.checkpoints) > 0
        names = [entry[0] for entry in log]
        assert names[-1] == "close"
        assert "finish" not in names and "clear" not in names


#: First-seen times with ties, signed zeros, infinities and NaN.
_SEEN = st.sampled_from((-0.0, 0.0, 1.0, 2.0)) | st.floats()
#: Marks: stream times, never NaN.
_MARKS = st.sampled_from((-0.0, 0.0, 1.0, 2.0)) | st.floats(allow_nan=False)


class TestMarksAnswer:
    @settings(deadline=None, max_examples=200)
    @given(
        first_seen=st.dictionaries(
            st.tuples(
                st.sampled_from((1, 2, 3)) | st.integers(0, 0xFFFF_FFFF),
                st.sampled_from((22, 53, 80)),
                st.sampled_from((PROTO_TCP, PROTO_UDP)),
            ),
            _SEEN, max_size=40,
        ),
        marks=st.lists(_MARKS, max_size=8),
    )
    def test_one_pass_answers_each_mark_by_its_definition(
        self, first_seen, marks
    ):
        """A ``marks`` request's answer holds, per mark, exactly
        :meth:`ShardState.addresses_by` of that mark."""
        state = ShardState(0, PassiveServiceTable(is_campus=lambda _: True))
        state.table.first_seen.update(first_seen)
        expected = [state.addresses_by(mark) for mark in marks]
        assert state.addresses_by_marks(marks) == expected
        assert ShardServant(state).handle(("marks", 5, tuple(marks))) == expected


class TestInBandMarks:
    """The thread transport answers marks, checkpoints and snapshots on
    the shard threads, behind the parts queued before them, instead of
    draining at the request."""

    @staticmethod
    def _transport(dataset, shards=2, **overrides):
        from repro.stream.engine import _ThreadTransport

        config = small_config(shards=shards, **overrides)
        return _ThreadTransport(StreamEngine(config, dataset=dataset))

    @staticmethod
    def _parts(dataset, record_sample):
        parts = split_columns(
            RecordColumns.from_records(record_sample), dataset.is_campus, 2
        )
        assert all(len(part) for part in parts)
        return parts

    def test_a_blocked_shard_does_not_block_the_driver(
        self, small_dtcp18, record_sample
    ):
        transport = self._transport(small_dtcp18)
        release = threading.Event()
        fold = transport.states[0].observe_columns

        def blocked(cols):
            release.wait(10.0)
            fold(cols)

        transport.states[0].observe_columns = blocked
        mark = record_sample[-1].time
        transport.start(0)
        try:
            transport.feed(
                self._parts(small_dtcp18, record_sample), len(record_sample)
            )
            transport.request_marks(0, [mark])
            assert not release.is_set()  # both calls returned while blocked
            assert transport.completed_marks() == []
            release.set()
            answered = transport.completed_marks(wait=True)
        finally:
            release.set()
            transport.close()
        table = PassiveServiceTable(
            is_campus=small_dtcp18.is_campus,
            tcp_ports=small_dtcp18.tcp_ports,
            udp_ports=small_dtcp18.udp_ports,
        )
        table.observe_columns(RecordColumns.from_records(record_sample))
        expected = {address for address, _port, _proto in table.first_seen}
        assert expected and answered == [expected]
        assert transport.completed_marks(wait=True) == []

    def test_marks_answer_their_prefix_under_contention(
        self, small_dtcp18, record_sample, timings
    ):
        """More shard threads than cores, a tiny switch interval and
        short queues: every mark still sees exactly the parts queued
        before it, whichever thread wrote its slot when."""
        import sys

        def table():
            return PassiveServiceTable(
                is_campus=small_dtcp18.is_campus,
                tcp_ports=small_dtcp18.tcp_ports,
                udp_ports=small_dtcp18.udp_ports,
            )

        shards = 4
        chunks = [
            RecordColumns.from_records(record_sample[lo:lo + 250])
            for lo in range(0, len(record_sample), 250)
        ]
        reference, expected = table(), []
        for chunk in chunks:
            reference.observe_columns(chunk)
            mark = float(chunk.time[-1])
            expected.append({
                address
                for (address, _port, _proto), seen in reference.first_seen.items()
                if seen <= mark
            })
        states = [ShardState(index, table()) for index in range(shards)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            timings(queue_chunks=2)
            ingestor = StreamIngestor(states)
            answers = []
            for chunk in chunks:
                ingestor.dispatch(
                    split_columns(chunk, small_dtcp18.is_campus, shards)
                )
                answers += request_marks(
                    ingestor, len(answers), [float(chunk.time[-1])]
                )
            ingestor.close()
            collect_marks(ingestor, answers)
        finally:
            sys.setswitchinterval(interval)
        assert [set().union(*answer) for answer in answers] == expected

    def test_checkpoint_and_snapshot_wait_behind_a_blocked_shard(
        self, small_dtcp18, record_sample, tmp_path
    ):
        """A checkpoint request returns at once and commits, once the
        shards get there, exactly the prefix fed before it; a snapshot
        round is answered behind the same parts, after the release."""
        transport = self._transport(
            small_dtcp18, checkpoint_path=str(tmp_path / "store")
        )
        release = threading.Event()
        fold = transport.states[0].observe_columns

        def blocked(cols):
            release.wait(10.0)
            fold(cols)

        transport.states[0].observe_columns = blocked
        half = len(record_sample) // 2
        head = self._parts(small_dtcp18, record_sample[:half])
        tail = self._parts(small_dtcp18, record_sample[half:])
        payloads = []
        transport.start(0)
        try:
            transport.feed(head, half)
            transport.checkpoint({"records_read": half})
            transport.feed(tail, len(record_sample))
            snapshot = threading.Thread(
                target=lambda: payloads.append(transport.snapshot_payloads())
            )
            snapshot.start()
            assert not release.is_set()  # both calls returned while blocked
            snapshot.join(0.2)
            assert snapshot.is_alive() and not payloads
            release.set()
            snapshot.join(10.0)
            commits = transport.committed_checkpoints(wait=True)
        finally:
            release.set()
            transport.close()
        assert len(commits) == 1
        store = ShardCheckpointStore(tmp_path / "store")
        identity = transport.identity
        assert [
            store.load_shard(shard, 1, identity)["state"]["records"]
            for shard in range(2)
        ] == [len(part) for part in head]
        assert [payload["records"] for payload in payloads[0]] == [
            len(a) + len(b) for a, b in zip(head, tail)
        ]

    @pytest.mark.parametrize("wait_on", ["mark", "checkpoint", "snapshot"])
    def test_a_failed_shard_surfaces_from_the_wait(
        self, small_dtcp18, record_sample, tmp_path, wait_on
    ):
        transport = self._transport(
            small_dtcp18, checkpoint_path=str(tmp_path / "store")
        )
        failing = threading.Event()

        def explode(cols):
            failing.wait(10.0)
            raise RuntimeError("boom")

        transport.states[1].observe_columns = explode
        requests = {
            "mark": (
                lambda: transport.request_marks(0, [record_sample[-1].time]),
                lambda: transport.completed_marks(wait=True),
            ),
            "checkpoint": (
                lambda: transport.checkpoint({"records_read": 0}),
                lambda: transport.committed_checkpoints(wait=True),
            ),
            "snapshot": (lambda: None, transport.snapshot_payloads),
        }
        request, wait = requests[wait_on]
        transport.start(0)
        try:
            transport.feed(
                self._parts(small_dtcp18, record_sample), len(record_sample)
            )
            request()  # sent while shard 1 is still folding
            failing.set()
            with pytest.raises(ShardWorkerError, match="shard 1"):
                wait()
        finally:
            failing.set()
            with pytest.raises(ShardWorkerError):
                transport.close()

    def test_a_failed_shard_still_exports_ingest_telemetry(
        self, small_dtcp18, record_sample
    ):
        from repro.telemetry import disable, enable

        transport = self._transport(small_dtcp18)

        def explode(cols):
            raise RuntimeError("boom")

        transport.states[1].observe_columns = explode
        reg = enable()
        try:
            transport.start(0)
            transport.feed(
                self._parts(small_dtcp18, record_sample), len(record_sample)
            )
            with pytest.raises(ShardWorkerError):
                transport.close()
        finally:
            disable()
        assert reg.value("repro_stream_batches_total") == 1
        assert reg.value("repro_stream_queue_peak_records") > 0
        assert reg.total("repro_stream_shard_records_total") > 0

    def test_marks_never_wait_for_part_room(self, small_dtcp18, record_sample,
                                            timings):
        """``MAX_QUEUE_CHUNKS`` bounds parts: with shard 0 wedged on the
        one part it has room for, marks still queue at once -- and are
        answered from that prefix once it folds -- while another part
        is refused."""

        def table():
            return PassiveServiceTable(
                is_campus=small_dtcp18.is_campus,
                tcp_ports=small_dtcp18.tcp_ports,
                udp_ports=small_dtcp18.udp_ports,
            )

        half = len(record_sample) // 2
        first = RecordColumns.from_records(record_sample[:half])
        second = RecordColumns.from_records(record_sample[half:])
        marks = [
            record_sample[lo].time for lo in (half // 4, half // 2, half - 1)
        ]
        reference = table()
        reference.observe_columns(first)
        expected = [
            {
                address
                for (address, _port, _proto), seen in reference.first_seen.items()
                if seen <= mark
            }
            for mark in marks
        ]

        states = [ShardState(index, table()) for index in range(2)]
        release = threading.Event()
        fold = states[0].observe_columns

        def blocked(part):
            release.wait(10.0)
            fold(part)

        states[0].observe_columns = blocked
        timings(queue_chunks=1, ingest_put_timeout=0.01,
                ingest_stall_timeout=0.1)
        ingestor = StreamIngestor(states)
        parts = [
            route_columns(batch, small_dtcp18.is_campus, 2)
            for batch in (first, second)
        ]
        assert all(len(part) for routed in parts for part in routed)
        try:
            ingestor.dispatch(parts[0])
            # No room is left for a part: a request that needed some
            # would raise IngestStallError here.
            answers = request_marks(ingestor, 0, marks[:1])
            answers += request_marks(ingestor, 1, marks[1:])
            with pytest.raises(IngestStallError) as excinfo:
                ingestor.dispatch(parts[1])
            assert excinfo.value.index == 0
            collect_marks(ingestor, answers)
            assert all(answer[0] is None for answer in answers)
            release.set()
            ingestor.drain()
            collect_marks(ingestor, answers)
        finally:
            release.set()
            ingestor.close()
        assert [set().union(*answer) for answer in answers] == expected

    def test_stop_with_marks_pending_resumes_identically(
        self, small_dtcp18, tmp_path, monkeypatch
    ):
        """The stop lands while the shard threads still owe a mark: the
        interrupt checkpoint must hold that watermark, or the resumed
        run requests it again a batch later with another record count."""
        from repro.stream.engine import _ThreadTransport

        config = small_config(
            shards=2, end=days(4), batch_records=1000,
            emit_every=hours(30), checkpoint_every=hours(48),
            checkpoint_path=str(tmp_path / "store"),
        )
        reference = StreamEngine(config, dataset=small_dtcp18).run()
        assert len(reference.watermarks) >= 3

        engine = StreamEngine(config, dataset=small_dtcp18)
        release = threading.Event()
        owed_at_stop = []
        answer = ShardState.addresses_by_marks
        request_marks = _ThreadTransport.request_marks
        completed_marks = _ThreadTransport.completed_marks

        def held_answer(state, marks):
            release.wait(10.0)
            return answer(state, marks)

        def stop_at_first_mark(transport, index, marks):
            request_marks(transport, index, marks)
            engine.request_stop()

        def completed(transport, wait=False):
            if wait and not release.is_set():
                owed_at_stop.append(len(transport._marks))
                release.set()
            return completed_marks(transport, wait)

        with monkeypatch.context() as patch:
            patch.setattr(ShardState, "addresses_by_marks", held_answer)
            patch.setattr(_ThreadTransport, "request_marks", stop_at_first_mark)
            patch.setattr(_ThreadTransport, "completed_marks", completed)
            with pytest.raises(KeyboardInterrupt, match="checkpoint saved"):
                engine.run()
        assert owed_at_stop == [1]
        store = ShardCheckpointStore(config.checkpoint_path)
        assert store.generations() == [1]  # the interrupt's, nothing before
        plan = store.plan_restore(engine._identity())
        assert plan.manifest["watermarks"] == reference.watermarks[:1]
        assert plan.manifest["emitted_index"] == 1

        resumed = StreamEngine(config, dataset=small_dtcp18).run(resume=True)
        assert resumed.resumed
        assert resumed.watermarks == reference.watermarks
        assert resumed.report == reference.report


class TestActiveSide:
    """The build-time active side is derived once per dataset."""

    @pytest.mark.parametrize("name", ["small_dtcp18", "small_dudp"])
    def test_dataset_timeline_matches_a_fresh_one(self, request, name):
        from repro.stream import ActiveTimeline

        dataset = request.getfixturevalue(name)
        fresh = ActiveTimeline(dataset.scan_reports, dataset.udp_report)
        shared = ActiveTimeline.over(dataset.active_events)
        assert dataset.active_events
        if dataset.udp_report is not None:
            # UDP findings are stamped at the sweep's end.
            assert {t for t, _ in dataset.active_events} == {
                dataset.udp_report.end
            }
        for mark in emit_schedule(dataset.duration, hours(6)):
            assert shared.addresses_by(mark) == fresh.addresses_by(mark)
        assert shared.addresses_by(dataset.duration) == dataset.active_addresses()

    def test_two_runs_over_one_dataset_agree(self, small_dtcp18):
        config = small_config(shards=2, emit_every=hours(24))
        first = StreamEngine(config, dataset=small_dtcp18).run()
        second = StreamEngine(config, dataset=small_dtcp18).run()
        assert len(first.watermarks) > 1
        assert first.watermarks == second.watermarks
        assert first.report == second.report

    def test_active_addresses_is_cached_and_frozen(self, small_dtcp18):
        from repro.active.results import union_open_endpoints

        active = small_dtcp18.active_addresses()
        assert active is small_dtcp18.active_addresses()
        assert active == {
            address
            for address, _port in union_open_endpoints(small_dtcp18.scan_reports)
        }
        with pytest.raises(AttributeError):
            active.add(1)


class TestIngestor:
    def _states(self, n=2):
        return [
            ShardState(i, PassiveServiceTable(is_campus=lambda a: True))
            for i in range(n)
        ]

    def test_dispatch_after_close_raises(self):
        ingestor = StreamIngestor(self._states())
        ingestor.close()
        with pytest.raises(RuntimeError):
            ingestor.dispatch([[], []])
        ingestor.close()  # idempotent

    def test_worker_that_missed_a_wakeup_still_drains_and_stops(
        self, record_sample
    ):
        """An interrupt raised inside ``Queue.put``'s notify can cost a
        worker its wakeup (see ``_WORKER_POLL_SECONDS``): the item is
        queued and counted, nobody is told.  The worker must find it
        anyway, or the interrupt checkpoint's drain -- and then
        ``close`` -- waits for ever."""
        states = self._states(1)
        ingestor = StreamIngestor(states)
        work = ingestor._queues[0]
        deadline = time.monotonic() + 5.0
        while not work.not_empty._waiters:  # the worker is asleep in get()
            assert time.monotonic() < deadline
            time.sleep(0.001)

        def put_without_notify(item):
            with work.mutex:
                work.queue.append(item)
                work.unfinished_tasks += 1

        put_without_notify(
            ("rows", None, RecordColumns.from_records(record_sample[:10]))
        )
        finished = threading.Event()

        def drain_and_close():
            ingestor.drain()
            ingestor._closed = True
            put_without_notify(ingest_module._STOP)
            for thread in ingestor._threads:
                thread.join()
            finished.set()

        threading.Thread(target=drain_and_close, daemon=True).start()
        assert finished.wait(5.0), "worker never looked at its queue again"
        assert states[0].records == 10

    def test_worker_error_surfaces(self, record_sample):
        class Exploding:
            is_campus = staticmethod(lambda a: True)

            def observe_columns(self, cols):
                raise RuntimeError("boom")

        states = self._states(1)
        states[0].table = Exploding()
        ingestor = StreamIngestor(states)
        try:
            ingestor.dispatch([RecordColumns.from_records(record_sample[:10])])
            with pytest.raises(ShardWorkerError):
                ingestor.drain()
        finally:
            # Joins the shard thread, which would otherwise poll its
            # queue for the rest of the session.
            with pytest.raises(ShardWorkerError):
                ingestor.close()

    def test_failed_shard_gives_back_room_and_surfaces_from_dispatch(
        self, record_sample, timings
    ):
        """A shard whose fold raised still returns the room of every part
        it consumes, so the next dispatch names the failure instead of
        stalling on a shard that will never fold again."""

        def explode(part):
            raise RuntimeError("boom")

        states = self._states(1)
        states[0].observe_columns = explode
        timings(queue_chunks=1, ingest_put_timeout=0.01,
                ingest_stall_timeout=0.1)
        ingestor = StreamIngestor(states)
        part = RecordColumns.from_records(record_sample[:10])
        try:
            with pytest.raises(ShardWorkerError, match="shard 0"):
                for _ in range(50):
                    ingestor.dispatch([part])
            with pytest.raises(ShardWorkerError):
                ingestor.drain()
            # Every part is consumed: all of the room is back.
            assert ingestor._room[0].acquire(blocking=False)
            ingestor._room[0].release()
        finally:
            with pytest.raises(ShardWorkerError):
                ingestor.close()

    def test_accounting(self, small_dtcp18, record_sample, timings):
        states = [
            ShardState(
                i,
                PassiveServiceTable(
                    is_campus=small_dtcp18.is_campus,
                    tcp_ports=small_dtcp18.tcp_ports,
                ),
            )
            for i in range(2)
        ]
        timings(queue_chunks=4)
        ingestor = StreamIngestor(states)
        parts = route_columns(
            RecordColumns.from_records(record_sample), small_dtcp18.is_campus, 2
        )
        ingestor.dispatch(parts)
        ingestor.drain()
        ingestor.close()
        assert sum(ingestor.shard_records) == len(record_sample)
        assert ingestor.max_queued_records <= len(record_sample)
        assert sum(state.records for state in states) == len(record_sample)


class TestMemoryFlat:
    def test_peak_memory_flat_in_stream_length(self, small_dtcp18):
        """4x the stream length must not grow peak memory materially.

        Both runs regenerate (truncated passes bypass the trace cache)
        with small batches, so the only length-dependent state would be
        a buffering bug.  Discovery state itself is bounded by the
        population, not the observation, and most endpoints appear in
        the first days -- hence the conservative 1.5x bound.
        """

        def peak_for(end_days: float) -> tuple[int, int]:
            config = small_config(
                shards=2, batch_records=1024, end=days(end_days)
            )
            engine = StreamEngine(config, dataset=small_dtcp18)
            tracemalloc.start()
            try:
                result = engine.run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak, result.records_read

        peak_short, records_short = peak_for(2)
        peak_long, records_long = peak_for(8)
        assert records_long > 2.5 * records_short  # genuinely 4x the stream
        assert peak_long < peak_short * 1.5 + 512 * 1024
