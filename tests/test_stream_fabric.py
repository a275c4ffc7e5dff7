"""Distributed shard fabric: membership, chaos identity, checkpoint store.

The fabric's contract is that supervision is *invisible in the output*:
whatever combination of worker crashes, stalls, and healthy workers
declared dead occurs, the merged report must stay byte-identical to the
single-process batch path.  The chaos tests here inject every fault
kind deterministically (seeded :class:`WorkerFaultPlan`, or a worker
made slow inside one answer) and assert exactly that.  The checkpoint
tests cover the new durability layers: CRC-trailer corruption
detection and per-shard generation fallback.
SIGKILL-based failure injection (worker and supervisor) lives in
``test_fabric_recovery.py``.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import threading
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.faults.worker import WorkerFaultPlan
from repro.simkernel.clock import hours
from repro.stream import (
    CheckpointCorrupt,
    CheckpointError,
    FabricConfig,
    FabricDegradedError,
    FabricSupervisor,
    IngestStallError,
    Membership,
    ShardCheckpointStore,
    StreamConfig,
    StreamEngine,
    StreamIngestor,
    batch_survey_report,
    checkpoint_config,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.engine import _fresh_table
from repro.stream.shard import ShardServant, ShardState

SMALL = dict(dataset="DTCP1-18d", seed=7, scale=0.04)


# ---- membership -------------------------------------------------------


@pytest.fixture
def liveness(timings):
    """A 0.3 s owed-answer deadline and a 5 s join timeout."""
    timings(stall_timeout=0.3, join_timeout=5.0)
    return timings


def test_membership_owing_member_is_overdue_just_past_the_deadline(liveness):
    ms = Membership(shards=2)
    assert not ms.overdue(0, now=100.0)  # never launched

    inc = ms.launch(0, now=0.0)
    assert inc == 0
    assert not ms.members[0].joined
    assert ms.join(0, inc, now=0.2, pid=42)
    assert ms.members[0].pid == 42
    assert ms.answer(0, inc, now=0.5)
    assert ms.answer_age(0, now=0.7) == pytest.approx(0.2)
    # Owing since 0.4, answered at 0.5: the clock runs from the answer.
    ms.owe(0, True, now=0.4)
    ms.owe(0, True, now=0.6)  # still the same obligation
    assert not ms.overdue(0, now=0.5 + 0.29)
    assert ms.overdue(0, now=0.5 + 0.31)
    # An obligation that begins long after the last answer gets the
    # whole deadline from its own start.
    ms.owe(0, False, now=0.9)
    ms.owe(0, True, now=10.0)
    assert not ms.overdue(0, now=10.29)
    assert ms.overdue(0, now=10.31)
    # A replacement joining late is judged from its join.
    inc = ms.launch(0, now=20.0)
    ms.owe(0, True, now=20.0)
    ms.join(0, inc, now=21.0)
    assert not ms.overdue(0, now=21.29)
    assert ms.overdue(0, now=21.31)


@settings(max_examples=50, deadline=None)
@given(
    joined=st.floats(0.0, 1e6),
    answered=st.none() | st.floats(0.0, 1e6),
    later=st.floats(0.0, 1e9),
)
def test_membership_idle_joined_member_is_never_overdue(joined, answered,
                                                        later):
    ms = Membership(shards=1)
    inc = ms.launch(0, now=0.0)
    ms.join(0, inc, now=joined)
    if answered is not None:
        ms.answer(0, inc, now=answered)
    ms.owe(0, True, now=joined)
    ms.owe(0, False, now=joined)  # answered all it owed
    assert not ms.overdue(0, now=joined + later)


def test_membership_unjoined_worker_times_out(liveness):
    liveness(join_timeout=2.0)
    ms = Membership(shards=1)
    ms.launch(0, now=10.0)
    assert not ms.overdue(0, now=11.9)
    assert ms.overdue(0, now=12.1)


def test_membership_rejects_stale_incarnations(liveness):
    ms = Membership(shards=1)
    old = ms.launch(0, now=0.0)
    ms.join(0, old, now=0.1)
    new = ms.launch(0, now=1.0)
    assert new == old + 1
    assert not ms.join(0, old, now=1.1)
    assert not ms.is_current(0, old)
    assert ms.is_current(0, new)
    # The relaunch reset liveness evidence: the new worker must join.
    assert not ms.members[0].joined
    ms.join(0, new, now=1.2)
    ms.owe(0, True, now=1.5)
    # A stale incarnation's answer changes nothing.
    before = ms.health(now=1.9)
    assert not ms.answer(0, old, now=1.8)
    assert ms.health(now=1.9) == before
    assert ms.overdue(0, now=1.5 + 0.31)


def test_membership_restart_counter(liveness):
    ms = Membership(shards=2)
    assert ms.restarts(1) == 0
    assert ms.note_restart(1) == 1
    assert ms.note_restart(1) == 2
    assert ms.restarts(0) == 0


# ---- worker fault plans ----------------------------------------------


def test_worker_fault_plan_is_deterministic():
    plan = WorkerFaultPlan(seed=3, crash_rate=1.0, stall_rate=0.5)
    again = WorkerFaultPlan(seed=3, crash_rate=1.0, stall_rate=0.5)
    for shard in range(4):
        assert plan.events_for(shard, 0) == again.events_for(shard, 0)
    other = WorkerFaultPlan(seed=4, crash_rate=1.0, stall_rate=0.5)
    assert any(
        plan.events_for(shard, 0) != other.events_for(shard, 0)
        for shard in range(8)
    )


def test_worker_fault_plan_caps_per_shard():
    plan = WorkerFaultPlan(seed=1, crash_rate=1.0, crashes_per_shard=1)
    assert plan.events_for(0, 0).crash_at is not None
    # The replacement incarnation rolls no dice: runs converge.
    assert plan.events_for(0, 1).is_null
    deep = WorkerFaultPlan(seed=1, crash_rate=1.0, crashes_per_shard=3)
    assert deep.events_for(0, 2).crash_at is not None
    assert deep.events_for(0, 3).is_null


def test_worker_fault_plan_null():
    assert WorkerFaultPlan().is_null
    assert WorkerFaultPlan(seed=9).events_for(0, 0).is_null
    assert not WorkerFaultPlan(crash_rate=0.1).is_null


# ---- checkpoint integrity (CRC trailer satellite) ---------------------


def _identity():
    return checkpoint_config("DTCP1-18d", 7, 0.04, 2, None)


def _payload():
    return {
        "config": _identity(),
        "records_read": 1000,
        "records_delivered": 990,
        "now": 3600.0,
        "emitted_index": 1,
        "watermarks": [],
        "faults": None,
        "shards": [],
    }


def test_checkpoint_roundtrip_with_trailer(tmp_path):
    path = tmp_path / "stream.ckpt"
    save_checkpoint(path, _payload())
    loaded = load_checkpoint(path, _identity())
    assert loaded["records_read"] == 1000


def test_truncated_checkpoint_is_corrupt_and_names_file(tmp_path):
    path = tmp_path / "stream.ckpt"
    save_checkpoint(path, _payload())
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointCorrupt) as excinfo:
        load_checkpoint(path, _identity())
    assert str(path) in str(excinfo.value)
    assert excinfo.value.path == path


def test_bit_flipped_checkpoint_is_corrupt(tmp_path):
    path = tmp_path / "stream.ckpt"
    save_checkpoint(path, _payload())
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointCorrupt, match="CRC32 mismatch"):
        load_checkpoint(path, _identity())


def test_valid_crc_but_garbage_payload_is_corrupt(tmp_path):
    path = tmp_path / "stream.ckpt"
    data = b"not a pickle at all"
    import struct

    path.write_bytes(data + struct.pack("<II", len(data), zlib.crc32(data)))
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path, _identity())


def test_checkpoint_identity_mismatch_still_loud(tmp_path):
    path = tmp_path / "stream.ckpt"
    save_checkpoint(path, _payload())
    with pytest.raises(CheckpointError, match="different run identity"):
        load_checkpoint(
            path, checkpoint_config("DTCP1-18d", 8, 0.04, 2, None)
        )


# ---- the per-shard store ---------------------------------------------


def _shard_state(shard: int) -> dict:
    return {
        "index": shard,
        "first_seen": {(10 + shard, 80, "tcp"): 60.0},
        "flow_counts": {},
        "clients": {},
        "pending_handshake": {},
        "last_seen": {},
        "records": 100 + shard,
    }


def _progress(records: int = 500) -> dict:
    return {
        "records_read": records,
        "records_delivered": records - 5,
        "now": 7200.0,
        "emitted_index": 0,
        "watermarks": [],
        "faults": None,
    }


def test_store_commit_and_restore(tmp_path):
    store = ShardCheckpointStore(tmp_path / "store")
    identity = _identity()
    for shard in range(2):
        store.save_shard(shard, 1, identity, _shard_state(shard))
    store.save_manifest(1, identity, _progress())
    assert store.generations() == [1]

    plan = store.plan_restore(identity)
    assert plan is not None
    assert plan.generation == 1
    assert plan.manifest["records_read"] == 500
    assert [r.shard for r in plan.shards] == [0, 1]
    assert all(not r.fresh for r in plan.shards)
    assert plan.shards[1].state["records"] == 101
    assert plan.shards[1].records_read == 500


def test_store_uncommitted_generation_is_invisible(tmp_path):
    """Shard files without a manifest never influence a restore."""
    store = ShardCheckpointStore(tmp_path / "store")
    identity = _identity()
    store.save_shard(0, 1, identity, _shard_state(0))
    store.save_shard(1, 1, identity, _shard_state(1))
    # Crash before the manifest: generation 1 was never committed.
    assert store.generations() == []
    assert store.plan_restore(identity) is None
    restore = store.restore_shard(0, identity, upto_generation=99)
    assert restore.fresh and restore.records_read == 0


def test_store_corrupt_shard_falls_back_a_generation(tmp_path):
    store = ShardCheckpointStore(tmp_path / "store")
    identity = _identity()
    for generation in (1, 2):
        for shard in range(2):
            store.save_shard(shard, generation, identity, _shard_state(shard))
        store.save_manifest(generation, identity,
                            _progress(records=100 * generation))
    # Flip a bit in shard 1's newest file; shard 0's stays good.
    victim = store.shard_path(1, 2)
    raw = bytearray(victim.read_bytes())
    raw[10] ^= 0x01
    victim.write_bytes(bytes(raw))

    plan = store.plan_restore(identity)
    assert plan.generation == 2
    assert plan.shards[0].records_read == 200  # newest generation
    assert plan.shards[1].records_read == 100  # fell back to generation 1
    assert not plan.shards[1].fresh


def test_store_corrupt_manifest_falls_back_whole_generation(tmp_path):
    store = ShardCheckpointStore(tmp_path / "store")
    identity = _identity()
    for generation in (1, 2):
        for shard in range(2):
            store.save_shard(shard, generation, identity, _shard_state(shard))
        store.save_manifest(generation, identity,
                            _progress(records=100 * generation))
    manifest = store.manifest_path(2)
    manifest.write_bytes(manifest.read_bytes()[:-3])
    plan = store.plan_restore(identity)
    assert plan.generation == 1
    assert all(r.records_read == 100 for r in plan.shards)


def test_store_prunes_old_generations_and_clears(tmp_path):
    store = ShardCheckpointStore(tmp_path / "store", keep_generations=2)
    identity = _identity()
    for generation in (1, 2, 3):
        store.save_shard(0, generation, identity, _shard_state(0))
        store.save_manifest(generation, identity, _progress())
    assert store.generations() == [3, 2]
    assert not store.shard_path(0, 1).exists()
    store.clear()
    assert store.generations() == []
    assert not store.root.exists()


def test_store_prune_spares_a_newer_generations_files(tmp_path):
    """A commit sweeps torn temp files up to its own generation only: a
    ``.tmp`` above it may be a live writer between fsync and rename."""
    store = ShardCheckpointStore(tmp_path / "store", keep_generations=2)
    identity = _identity()
    for generation in (1, 2, 3):
        store.save_shard(0, generation, identity, _shard_state(0))

    def tmp_of(path):
        return path.with_name(path.name + ".tmp")

    torn = tmp_of(store.shard_path(1, 1))
    live = tmp_of(store.shard_path(1, 3))
    torn.write_bytes(b"a killed writer's leftovers")
    live.write_bytes(b"fsynced, not yet renamed")

    store.save_manifest(2, identity, _progress())
    assert not torn.exists()
    assert live.exists() and store.shard_path(0, 3).exists()
    store.save_shard(1, 2, identity, _shard_state(1))
    assert store.plan_restore(identity).generation == 2

    # The commit that passes it sweeps it, if its writer died.
    store.save_manifest(3, identity, _progress())
    assert not live.exists()


@settings(max_examples=25, deadline=None)
@given(
    records=st.integers(min_value=0, max_value=2**48),
    delivered=st.integers(min_value=0, max_value=2**48),
    now=st.floats(min_value=0.0, max_value=2e6, allow_nan=False),
    emitted=st.integers(min_value=0, max_value=10_000),
    generation=st.integers(min_value=1, max_value=999_999),
    faults=st.none() | st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.integers() | st.floats(allow_nan=False) | st.binary(max_size=16),
        max_size=4,
    ),
)
def test_manifest_roundtrip_property(records, delivered, now, emitted,
                                     generation, faults):
    """Per-shard checkpoint manifests round-trip exactly."""
    identity = _identity()
    payload = {
        "records_read": records,
        "records_delivered": delivered,
        "now": now,
        "emitted_index": emitted,
        "watermarks": [],
        "faults": faults,
    }
    with tempfile.TemporaryDirectory() as tmp:
        store = ShardCheckpointStore(Path(tmp) / "store")
        store.save_manifest(generation, identity, payload)
        loaded = store.load_manifest(generation, identity)
        for key, value in payload.items():
            assert loaded[key] == value
        assert loaded["generation"] == generation
        assert loaded["config"] == identity


# ---- ingest backpressure (satellite) ----------------------------------


class _BlockedState(ShardState):
    """A shard whose folds block until released -- a wedged consumer."""

    def __init__(self):
        self.release = threading.Event()
        self.index = 0
        self.records = 0
        self.last_seen = {}

    def observe_columns(self, cols):  # pragma: no cover - timing-dependent
        # Bounded, far above the stall budgets: a test that fails before
        # it releases must not leave close() joining a wedged thread.
        self.release.wait(30.0)


def test_ingest_put_raises_stall_error_instead_of_deadlocking(timings):
    timings(queue_chunks=1, ingest_put_timeout=0.01, ingest_stall_timeout=0.1)
    state = _BlockedState()
    ingestor = StreamIngestor([state])
    try:
        with pytest.raises(IngestStallError) as excinfo:
            for _ in range(50):
                ingestor.dispatch([[object()]])
        assert excinfo.value.index == 0
        assert ingestor.put_timeouts >= excinfo.value.timeouts > 0
    finally:
        state.release.set()
        ingestor.close()


def test_ingest_stall_counter_reaches_telemetry(timings):
    from repro.telemetry.metrics import MetricRegistry

    timings(queue_chunks=1, ingest_put_timeout=0.01, ingest_stall_timeout=0.05)
    state = _BlockedState()
    ingestor = StreamIngestor([state])
    try:
        with pytest.raises(IngestStallError):
            for _ in range(50):
                ingestor.dispatch([[object()]])
    finally:
        state.release.set()
        ingestor.close()
    reg = MetricRegistry()
    ingestor.flush_telemetry(reg)
    counter = reg.counter(
        "repro_stream_backpressure_timeouts_total",
        "Bounded-put timeouts while shard queues were full.",
    )
    assert counter.value > 0


# ---- fabric equivalence and chaos -------------------------------------


def _config(**overrides) -> StreamConfig:
    base = dict(SMALL, emit_every=24 * 3600.0)
    base.update(overrides)
    return StreamConfig(**base)


#: Trigger records must stay below the smallest per-shard record count
#: (~38k at 4 shards for the small build) or a drawn fault never fires.
HORIZON = 20_000


@pytest.fixture(scope="module")
def batch_reference(small_dtcp18):
    config = _config(shards=1)
    return batch_survey_report(config, dataset=small_dtcp18)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fabric_report_matches_batch(workers, small_dtcp18, batch_reference,
                                    fast_fabric):
    config = _config(shards=workers)
    result = FabricSupervisor(
        config, FabricConfig(), dataset=small_dtcp18
    ).run()
    assert result.finished
    assert result.report == batch_reference


def test_fabric_merged_table_matches_batch_table(small_dtcp18, fast_fabric):
    """The merged worker tables are the batch table, last-seen included."""
    result = FabricSupervisor(
        _config(shards=2), FabricConfig(), dataset=small_dtcp18
    ).run()
    reference = _fresh_table(small_dtcp18)
    small_dtcp18.replay(reference)
    assert result.table.first_seen == reference.first_seen
    assert result.table.last_seen == reference.last_seen
    assert result.table.flow_counts == reference.flow_counts
    assert result.table.clients == reference.clients


def test_fabric_crash_chaos_is_byte_identical(small_dtcp18, batch_reference,
                                              fast_fabric):
    """Every worker crashes once mid-ingest; failover must be invisible."""
    fast_fabric(max_restarts=25)
    config = _config(shards=4)
    faults = WorkerFaultPlan(seed=13, crash_rate=1.0, horizon_records=HORIZON)
    events = []
    result = FabricSupervisor(
        config, FabricConfig(worker_faults=faults), dataset=small_dtcp18,
    ).run(on_event=events.append)
    assert result.report == batch_reference
    # The injected crashes are the only deaths: a healthy worker that
    # keeps answering what it owes is never declared dead.
    dead = [line for line in events if line.startswith("fabric: dead")]
    assert len(dead) == 4, dead
    assert all("process exited with code 137" in line for line in dead)


def test_fabric_stall_chaos_is_byte_identical(small_dtcp18, batch_reference,
                                              fast_fabric):
    """A stalled worker leaves the rows it was sent unanswered and is
    failed over by the owed-answer deadline.  In the recorded trace's
    large chunks the ring never fills: the supervisor finds it between
    batches."""
    faults = WorkerFaultPlan(seed=5, stall_rate=1.0, horizon_records=HORIZON)
    events = []
    result = FabricSupervisor(
        _config(shards=2), FabricConfig(worker_faults=faults),
        dataset=small_dtcp18,
    ).run(on_event=events.append)
    assert result.report == batch_reference
    assert any(
        line.startswith("fabric: dead") and "owes an answer" in line
        for line in events
    )


def test_fabric_worker_holding_the_ring_is_failed_over(
    small_dtcp18, batch_reference, monkeypatch, fast_fabric
):
    """In small regenerated batches a stalled worker holds the ring
    slots it was sent rows of, and the supervisor waits for one of them
    until the owed-answer deadline fails the worker over."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    claiming = []
    failovers_while_claiming = []
    claim_slot = FabricSupervisor._claim_slot
    failover = FabricSupervisor._failover

    def tracked_claim_slot(supervisor):
        claiming.append(True)
        try:
            return claim_slot(supervisor)
        finally:
            claiming.pop()

    def tracked_failover(supervisor, shard, reason):
        failovers_while_claiming.append(bool(claiming))
        return failover(supervisor, shard, reason)

    monkeypatch.setattr(FabricSupervisor, "_claim_slot", tracked_claim_slot)
    monkeypatch.setattr(FabricSupervisor, "_failover", tracked_failover)
    faults = WorkerFaultPlan(seed=5, stall_rate=1.0, horizon_records=HORIZON)
    events = []
    result = FabricSupervisor(
        _config(shards=2, batch_records=2048),
        FabricConfig(worker_faults=faults),
        dataset=small_dtcp18,
    ).run(on_event=events.append)
    assert result.report == batch_reference
    assert any(
        line.startswith("fabric: dead") and "owes an answer" in line
        for line in events
    )
    assert any(failovers_while_claiming), failovers_while_claiming


def _slow_first_answer(monkeypatch, kind: str, seconds: float) -> None:
    """Shard 0's first worker sleeps *seconds* inside its first *kind*
    request; every other worker, its replacement included, runs at full
    speed.  Patched before the fleet forks, so the workers inherit it;
    the event they share says whether the sleep was taken."""
    slept = multiprocessing.get_context("fork").Event()
    handle = ShardServant.handle

    def slow_handle(servant, request):
        if (request[0] == kind and servant.state.index == 0
                and not slept.is_set()):
            slept.set()
            time.sleep(seconds)
        return handle(servant, request)

    monkeypatch.setattr(ShardServant, "handle", slow_handle)


def test_fabric_worker_wedged_in_a_checkpoint_is_failed_over(
    small_dtcp18, batch_reference, tmp_path, monkeypatch, fast_fabric
):
    """A worker wedged in the generation it was asked to write (for far
    longer than the deadline) owes that answer: it is failed over, the
    generation aborts and a later one commits."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    _slow_first_answer(monkeypatch, "ckpt", 30.0)
    config = _config(
        shards=2, batch_records=8192, checkpoint_every=hours(24),
        checkpoint_path=str(tmp_path / "store"),
    )
    events = []
    result = FabricSupervisor(
        config, FabricConfig(), dataset=small_dtcp18
    ).run(on_event=events.append)
    assert result.report == batch_reference
    dead = [line for line in events if line.startswith("fabric: dead")]
    assert len(dead) == 1 and "shard=0" in dead[0], dead
    assert "owes an answer" in dead[0]
    manifests = [line for line in events
                 if line.startswith("fabric: manifest")]
    assert manifests
    assert not any("generation=1 " in line for line in manifests)


def test_fabric_worker_owing_only_an_ack_is_failed_over(
    small_dtcp18, batch_reference, monkeypatch, fast_fabric
):
    """The end-of-stream mark comes after every row: a worker wedged in
    it has folded all it was sent and owes that ack alone."""
    _slow_first_answer(monkeypatch, "marks", 30.0)
    events = []
    result = FabricSupervisor(
        _config(shards=2, emit_every=None), FabricConfig(),
        dataset=small_dtcp18,
    ).run(on_event=events.append)
    assert result.report == batch_reference
    dead = [line for line in events if line.startswith("fabric: dead")]
    assert len(dead) == 1 and "shard=0" in dead[0], dead
    assert "owes an answer" in dead[0]


def test_fabric_worker_always_behind_is_not_declared_dead(
    small_dtcp18, batch_reference, monkeypatch, fast_fabric
):
    """Workers slower than the supervisor owe rows from the first batch
    to the last, for longer than the deadline, and are sent nothing else
    to answer; each fold they finish is an answer, so none of them is
    declared dead."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    handle = ShardServant.handle

    def slow_handle(servant, request):
        if request[0] == "rows":
            time.sleep(0.01)
        return handle(servant, request)

    monkeypatch.setattr(ShardServant, "handle", slow_handle)
    fast_fabric(stall_timeout=0.3)
    events = []
    result = FabricSupervisor(
        _config(shards=2, batch_records=2048, emit_every=None),
        FabricConfig(), dataset=small_dtcp18,
    ).run(on_event=events.append)
    assert result.report == batch_reference
    assert not [line for line in events if line.startswith("fabric: dead")]


class TickingClock:
    """A supervisor clock that advances a fixed step each time it is read.

    Membership deadlines then elapse in supervisor steps, not seconds: a
    worker that owes an answer is overdue after a fixed number of reads
    however fast the pass runs, and a worker that answers has the real
    time those reads take in which to be heard.
    """

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def test_fabric_late_answer_false_positive_is_byte_identical(
    small_dtcp18, batch_reference, monkeypatch, timings
):
    """Killing a *healthy* worker whose answer is merely late must also
    be invisible."""
    # Regenerate the stream in small batches, so the run is a few
    # thousand supervisor steps long whatever the machine's speed.
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    config = _config(shards=2, batch_records=2048)
    # The deadline is a thousand clock reads (a few hundred supervisor
    # steps, a fraction of a second) in which a healthy worker answers
    # a batch many times over; shard 0's first one takes two seconds
    # over its first batch, long after it is declared dead.  A late
    # answer on a loaded machine is another false positive the fabric
    # must absorb, hence the roomy restart budget.
    _slow_first_answer(monkeypatch, "rows", 2.0)
    timings(stall_timeout=0.01, max_restarts=25,
            restart_backoff=0.01, restart_backoff_max=0.05)
    events = []
    result = FabricSupervisor(
        config,
        FabricConfig(),
        dataset=small_dtcp18,
        clock=TickingClock(0.01 / 1000),
    ).run(on_event=events.append)
    assert result.report == batch_reference
    assert any(
        line.startswith("fabric: dead shard=0") and "owes an answer" in line
        for line in events
    )


def test_fabric_with_capture_faults_matches_batch(small_dtcp18, fast_fabric):
    """Measurement faults and process chaos compose deterministically."""
    plan = FaultPlan(seed=5, capture_loss_rate=0.02, outage_fraction=0.02)
    config = _config(shards=4, faults=plan)
    reference = batch_survey_report(config, dataset=small_dtcp18)
    result = FabricSupervisor(
        config,
        FabricConfig(
            worker_faults=WorkerFaultPlan(seed=2, crash_rate=1.0,
                                          horizon_records=HORIZON),
        ),
        dataset=small_dtcp18,
    ).run()
    assert result.report == reference


def test_fabric_periodic_manifests_and_clean_clear(small_dtcp18,
                                                   batch_reference, tmp_path,
                                                   fast_fabric):
    store_dir = tmp_path / "fabric-ckpt"
    config = _config(
        shards=2,
        checkpoint_every=48 * 3600.0,
        checkpoint_path=str(store_dir),
    )
    result = FabricSupervisor(
        config, FabricConfig(), dataset=small_dtcp18
    ).run()
    assert result.report == batch_reference
    assert result.checkpoints_written > 0
    # Clean finish: the store is cleared so it cannot hijack a later run.
    assert not store_dir.exists() or not list(store_dir.iterdir())


def _recut_cached_trace(dataset, chunk_records):
    """Record *dataset*'s trace into the current cache, then rewrite the
    entry in *chunk_records*-record chunks (what a reader hands out)."""
    from repro.trace.cache import default_trace_cache
    from repro.trace.columnar import convert_trace, read_trace_columns

    dataset.replay(_fresh_table(dataset))
    entry = default_trace_cache().lookup(dataset.trace_cache_key)
    recut = entry.with_name(entry.name + ".recut")
    convert_trace(entry, recut, chunk_records=chunk_records)
    recut.replace(entry)
    assert max(len(batch) for batch in read_trace_columns(entry)) > 65_536


#: name -> (StreamConfig overrides, WorkerFaultPlan or None).  Every
#: schedule checkpoints every stream minute, which is less than a batch
#: below spans: a generation is due at each batch, so one is nearly
#: always in flight while the supervisor runs ahead in the ring.
SCHEDULES = {
    "checkpoint-every-batch": (dict(batch_records=8192), None),
    # ~120 batches through a 4-slot ring.
    "ring-wraps": (dict(batch_records=1024), None),
    "crash": (
        dict(batch_records=2048),
        WorkerFaultPlan(seed=13, crash_rate=1.0, horizon_records=HORIZON),
    ),
    "stall": (
        dict(batch_records=2048),
        WorkerFaultPlan(seed=5, stall_rate=1.0, horizon_records=HORIZON),
    ),
    "capture-faults": (
        dict(
            batch_records=8192,
            faults=FaultPlan(
                seed=5, capture_loss_rate=0.02, outage_fraction=0.02
            ),
        ),
        None,
    ),
    # A cached trace whose chunks are larger than a ring slot.
    "oversized-chunks": (dict(), None),
}


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_fabric_schedules_match_batch_and_stop_deterministically(
    schedule, small_dtcp18, tmp_path, monkeypatch, fast_fabric
):
    """The arena and the generation pipeline against the batch oracle.

    A full run reports what the batch survey reports.  A run stopped
    after N records leaves only complete generations -- every manifest
    on disk loads, with all of its shard files -- and resumes to the
    same bytes; and without worker faults two such runs leave the same
    generations at the same offsets, however the workers were scheduled
    (a failover aborts the generation in flight, and when a death is
    noticed is the one thing here that is timing).
    """
    overrides, worker_faults = SCHEDULES[schedule]
    if schedule == "oversized-chunks":
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "trace-cache"))
        _recut_cached_trace(small_dtcp18, 100_000)
    else:
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    fast_fabric(max_restarts=25)
    fabric = FabricConfig(worker_faults=worker_faults)

    def run(store, **kwargs):
        config = _config(
            shards=2, checkpoint_every=60.0,
            checkpoint_path=str(tmp_path / store), **overrides,
        )
        result = FabricSupervisor(config, fabric, dataset=small_dtcp18).run(
            **kwargs
        )
        return config, result

    config, full = run("full")
    oracle = batch_survey_report(config, dataset=small_dtcp18)
    assert full.report == oracle
    assert full.checkpoints_written > 0

    left = []
    for name in ("first", "second"):
        config, stopped = run(name, stop_after_records=60_000)
        assert not stopped.finished
        store = ShardCheckpointStore(config.checkpoint_path)
        identity = StreamEngine(config, dataset=small_dtcp18)._identity()
        offsets = []
        for generation in store.generations():
            offsets.append(
                store.load_manifest(generation, identity)["records_read"]
            )
            for shard in range(2):
                store.load_shard(shard, generation, identity)
        assert offsets and offsets[0] <= stopped.records_read
        left.append((store.generations(), offsets))
        if worker_faults is None:
            assert stopped.checkpoints_written == store.generations()[0]
    if worker_faults is None:
        assert left[0] == left[1]
    for name in ("first", "second"):
        _, resumed = run(name, resume=True)
        assert resumed.resumed and resumed.report == oracle


def test_fabric_requested_stop_settles_the_generation_in_flight(
    small_dtcp18, batch_reference, tmp_path, monkeypatch, fast_fabric
):
    """A stop request lands after the batch's checkpoint step, so the
    generation that step requested is in flight when the loop
    interrupts itself; it must be committed before the fleet goes."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    # Due at every batch: none spans less than a stream minute.
    config = _config(
        shards=2, batch_records=8192, checkpoint_every=60.0,
        checkpoint_path=str(tmp_path / "store"),
    )
    supervisor = FabricSupervisor(
        config, FabricConfig(), dataset=small_dtcp18
    )

    def stop_at_first_commit(line):
        if line.startswith("fabric: manifest generation=1 "):
            supervisor.engine.request_stop()

    with pytest.raises(KeyboardInterrupt, match="committed generation 2"):
        supervisor.run(on_event=stop_at_first_commit)
    store = ShardCheckpointStore(config.checkpoint_path)
    assert store.generations() == [2, 1]
    resumed = FabricSupervisor(
        config, FabricConfig(), dataset=small_dtcp18
    ).run(resume=True)
    assert resumed.resumed and resumed.report == batch_reference


def test_fabric_restart_budget_degrades_structurally(small_dtcp18,
                                                     fast_fabric):
    """Crash-looping past the restart budget fails loudly, never hangs."""
    fast_fabric(max_restarts=1)
    config = _config(shards=2, emit_every=None)
    faults = WorkerFaultPlan(seed=21, crash_rate=1.0, crashes_per_shard=99,
                             horizon_records=5_000)
    with pytest.raises(FabricDegradedError, match=r"degraded: shard \d+ "
                                                  r"restarted \d+ times"):
        FabricSupervisor(
            config,
            FabricConfig(worker_faults=faults),
            dataset=small_dtcp18,
        ).run()


def test_fabric_resume_requires_checkpoint_path(small_dtcp18, fast_fabric):
    supervisor = FabricSupervisor(
        _config(shards=2), FabricConfig(), dataset=small_dtcp18
    )
    with pytest.raises(ValueError, match="checkpoint_path"):
        supervisor.run(resume=True)
