"""Tests for the record-once trace cache and the batched replay engine.

The acceptance bar for the whole subsystem is *bit-identical* analysis:
an observer fed from a cached trace, as columns or as the records they
materialise to, must end in exactly the state it reaches on the freshly
generated stream.
"""

from __future__ import annotations

import errno
import hashlib
import io
import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import build_dataset
from repro.faults.plan import FaultPlan
from repro.net.packet import (
    ICMP_PORT_UNREACHABLE,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    PacketRecord,
    TcpFlags,
)
from repro.passive.monitor import PassiveServiceTable, replay_columnar
from repro.passive.sampling import SamplingTable
from repro.passive.scandetect import ExternalScanDetector
from repro.stream.shard import ShardState
from repro.trace import cache as cache_module
from repro.trace.cache import (
    ENV_VAR,
    TraceCache,
    default_trace_cache,
)
from repro.trace.columnar import (
    COLUMN_FIELDS,
    RecordColumns,
    read_trace,
    read_trace_columns,
    write_trace,
)
from tests.passive_reference import (
    ReferenceFixedPeriodSampler,
    ReferenceMultiLinkMonitor,
    ReferenceProbabilisticSampler,
    ReferenceReplayTap,
    ReferenceSamplingTable,
    ReferenceScanDetector,
    ReferenceWindowActivityObserver,
    capture_filter,
    replay,
)
from tests.trace_v1_reference import v1_trace_bytes
from tests.traffic_reference import border_packet_stream as reference_packet_stream

#: Cheap full-scale build with scans and all three record protocols.
DATASET = "DTCPall"
SEED = 11


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DATASET, seed=SEED, scale=1.0)


@pytest.fixture(scope="module")
def generated_records(dataset):
    """The dataset's full border stream, regenerated (no cache)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(ENV_VAR, "off")
        return list(dataset.packet_stream())


def generated_pass(dataset, end=None) -> RecordColumns:
    """``dataset.column_batches(end)`` with the cache off, as one batch."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(ENV_VAR, "off")
        chunks = list(dataset.column_batches(end))
    chunks = chunks or [RecordColumns.from_records([])]
    return RecordColumns(
        *(np.concatenate([getattr(chunk, name) for chunk in chunks])
          for name, _dtype in COLUMN_FIELDS),
        link_names=chunks[0].link_names,
    )


@pytest.fixture(scope="module")
def generated_columns(dataset):
    """The dataset's full border stream as one column batch (no cache)."""
    return generated_pass(dataset)


def standard_observers(dataset, detector=ExternalScanDetector):
    table = PassiveServiceTable(
        is_campus=dataset.is_campus,
        tcp_ports=dataset.tcp_ports,
        udp_ports=dataset.udp_ports,
        links=frozenset(dataset.spec.monitored_links),
    )
    detector = detector(is_campus=dataset.is_campus)
    return table, detector


def assert_same_analysis(a_table, b_table, a_detector, b_detector):
    assert a_table.first_seen == b_table.first_seen
    assert a_table.flow_counts == b_table.flow_counts
    assert a_table.clients == b_table.clients
    assert a_detector.scanners() == b_detector.scanners()
    assert a_detector._targets == b_detector._targets
    assert a_detector._rst_sources == b_detector._rst_sources


class TestChunkedReader:
    """``read_trace_columns`` as the cache-hit paths call it."""

    def test_truncated_trace_rejected(self, tmp_path, generated_records):
        path = tmp_path / "t.rprt"
        write_trace(path, generated_records[:10])
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ValueError, match="truncated"):
            for _ in read_trace_columns(path):
                pass

    def test_bad_batch_size_rejected(self, tmp_path):
        path = tmp_path / "t.rprt"
        write_trace(path, [])
        with pytest.raises(ValueError):
            list(read_trace_columns(path, chunk_records=0))
        with pytest.raises(ValueError):
            list(read_trace_columns(path, skip_records=-1))


class TestRoundTripFidelity:
    """The paper's record-once/analyze-many premise: offline == online."""

    def test_observers_identical_via_trace(self, tmp_path, dataset, generated_records):
        path = tmp_path / "capture.rprt"
        write_trace(path, generated_records)

        direct_table, direct_detector = standard_observers(
            dataset, ReferenceScanDetector
        )
        direct_count = replay(iter(generated_records), direct_table, direct_detector)

        stream_table, stream_detector = standard_observers(
            dataset, ReferenceScanDetector
        )
        stream_count = replay(
            iter(read_trace(path)), stream_table, stream_detector
        )

        batch_table, batch_detector = standard_observers(dataset)
        batch_count = replay_columnar(
            read_trace_columns(path), batch_table, batch_detector
        )

        assert direct_count == stream_count == batch_count
        assert_same_analysis(direct_table, stream_table, direct_detector, stream_detector)
        assert_same_analysis(direct_table, batch_table, direct_detector, batch_detector)

    def test_cached_replay_identical_to_generation(self, dataset):
        """``BuiltDataset.replay``: miss (tee) and hit give equal state."""
        first_table, first_detector = standard_observers(dataset)
        first = dataset.replay(first_table, first_detector)
        assert default_trace_cache().lookup(dataset.trace_cache_key) is not None

        second_table, second_detector = standard_observers(dataset)
        second = dataset.replay(second_table, second_detector)
        assert first == second
        assert_same_analysis(first_table, second_table, first_detector, second_detector)

    def test_packet_stream_served_from_cache(self, dataset, generated_records):
        dataset.replay(PassiveServiceTable(is_campus=dataset.is_campus))
        assert list(dataset.packet_stream()) == generated_records

    def test_partial_replay_regenerates(self, dataset):
        """``end`` before the dataset end must not read the full trace."""
        table = PassiveServiceTable(
            is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports
        )
        partial = dataset.replay(table, end=dataset.duration / 4)
        full = dataset.replay(
            PassiveServiceTable(
                is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports
            )
        )
        assert partial < full


#: A small universe, so generated records collide on endpoints, clients
#: and scan buckets: three campus addresses (inside the DTCPall /16),
#: three outside ones, two watched ports per protocol and one unwatched.
_CAMPUS = (0x80_7D_FA_01, 0x80_7D_FA_02, 0x80_7D_01_FE)
_OUTSIDE = (0x08_08_08_08, 0x08_08_04_04, 0x01_01_01_01)
_LINKS = ("", "commercial1", "commercial2", "internet2")
_TCP_PORTS = frozenset({22, 80})
_UDP_PORTS = frozenset({53, 123})
_FAULTS = FaultPlan(
    seed=31, capture_loss_rate=0.2, burst_loss_rate=0.05,
    burst_mean_length=3, outage_fraction=0.2,
)


def _record_pool(size=1500):
    """Seeded records over that universe, dense in the ones that carry
    evidence: five in six are one packet of a client/server
    conversation (mostly outside client, campus server), the rest noise
    with every field independent -- flag bits on non-TCP records
    included.  Timestamps repeat and are unordered."""
    rng = random.Random(20070824)
    everyone = _CAMPUS + _OUTSIDE
    ports = (22, 80, 53, 123, 40000)
    #: kind -> (server sends it, protocol, flag bits)
    kinds = {
        "synack": (True, PROTO_TCP, 0x12), "ack": (False, PROTO_TCP, 0x10),
        "syn": (False, PROTO_TCP, 0x02), "rst": (True, PROTO_TCP, 0x04),
        "reply": (True, PROTO_UDP, 0), "request": (False, PROTO_UDP, 0),
        "icmp": (True, PROTO_ICMP, 0),
    }
    pool = []
    for _ in range(size):
        src = rng.choice(_CAMPUS if rng.random() < 0.8 else everyone)
        dst = rng.choice(_OUTSIDE if rng.random() < 0.8 else everyone)
        sport, dport = rng.choice(ports), rng.choice((40000, 40001))
        if rng.random() < 1 / 6:
            src, dst, dport = rng.choice(everyone), rng.choice(everyone), 80
            proto = rng.choice((PROTO_TCP, PROTO_UDP, PROTO_ICMP))
            bits = rng.choice((0x12, 0x10, 0x02, 0x04, 0x16, 0x14, 0x00))
        else:
            from_server, proto, bits = kinds[rng.choice(
                ["synack", "synack", "ack", "ack", "syn", "rst", "reply",
                 "reply", "request", "icmp"]
            )]
            if not from_server:
                src, dst, sport, dport = dst, src, dport, sport
        pool.append(PacketRecord(
            time=rng.choice(
                [0.0, 30.0, 3599.0, 3600.0, 43_200.0, rng.uniform(0, 2e5)]
            ),
            src=src, dst=dst, sport=sport, dport=dport, proto=proto,
            flags=TcpFlags(bits), link=rng.choice(_LINKS),
            icmp=ICMP_PORT_UNREACHABLE if proto == PROTO_ICMP else None,
        ))
    return pool


#: Streams are hypothesis-drawn sequences from the pool (one draw per
#: record keeps generation cheap): any order, any repetition.
_RECORDS = st.lists(st.sampled_from(_record_pool()), min_size=20, max_size=80)
#: Where to cut a stream into batches (repeats = empty batches).
_CUTS = st.lists(st.integers(min_value=0, max_value=80), max_size=6)


def _batches(records, cuts):
    """*records* as consecutive column batches cut at *cuts*, then an
    empty one."""
    bounds = [0, *sorted(min(cut, len(records)) for cut in cuts), len(records)]
    for lo, hi in zip(bounds, bounds[1:]):
        yield RecordColumns.from_records(records[lo:hi])
    yield RecordColumns.from_records([])


def differential(make, state_of, observe=None):
    """The observer contract as a property: ``observe_columns`` over
    any batch cuts of any stream leaves exactly the state per-record
    ``observe`` (the reference in ``tests/passive_reference.py``)
    leaves, and never materialises a record (*observe* stands in where
    an observer has no per-record method of its own)."""
    observe = observe or (lambda observer, record: observer.observe(record))

    @settings(deadline=None, max_examples=60)
    @given(records=_RECORDS, cuts=_CUTS)
    def contract(records, cuts):
        reference, batched = make(), make()
        for record in records:
            observe(reference, record)
        for cols in _batches(records, cuts):
            cols._records = None
            batched.observe_columns(cols)
            assert cols._records is None
        assert state_of(reference) == state_of(batched)

    contract()


def _table_state(table):
    return (
        table.first_seen, table.last_seen, table.flow_counts, table.clients,
        table._pending_handshake,
    )


def _sampled_state(wrapper):
    return _table_state(wrapper.table), wrapper.kept, wrapper.dropped


def _fault_counts(faults):
    stats = faults.stats
    return (stats.kept, stats.dropped_loss, stats.dropped_outage)


def _shard_observe(state, record):
    """Per-record definition of ``ShardState.observe_columns``: the
    table's ``observe`` plus the record count."""
    state.table.observe(record)
    state.records += 1


class TestBatchedObservers:
    """One differential property per observer, on its vectorised
    configurations and on every fallback."""

    @staticmethod
    def table(dataset, **overrides):
        config = dict(
            is_campus=dataset.is_campus, tcp_ports=_TCP_PORTS,
            udp_ports=_UDP_PORTS,
        )
        config.update(overrides)
        return lambda: PassiveServiceTable(**config)

    @staticmethod
    def predicates(dataset):
        """The prefix-parameterised predicate and an opaque twin."""
        is_campus = dataset.is_campus
        return is_campus, lambda address: is_campus(address)

    @staticmethod
    def sampled(make, **sampler):
        """*make*'s table behind a fixed-period sampler."""
        return lambda: ReferenceSamplingTable(
            make(), ReferenceFixedPeriodSampler(**sampler)
        )

    def test_passive_table(self, dataset):
        for overrides in (
            {},
            {"tcp_ports": None, "udp_ports": frozenset()},
            {"links": frozenset({"commercial1", "internet2"}),
             "exclude_sources": frozenset(_OUTSIDE[:1])},
            # A campus predicate without prefix parameters stays
            # vectorised.
            {"is_campus": self.predicates(dataset)[1]},
            {"is_campus": self.predicates(dataset)[1],
             "exclude_sources": frozenset(_OUTSIDE[:1])},
        ):
            differential(self.table(dataset, **overrides), _table_state)
        # So does a sampler with a batch mask, in front of the table.
        for sampler, overrides in (
            ({"sample_minutes": 30}, {}),
            ({"sample_minutes": 2},
             {"links": frozenset({"internet2"})}),
        ):
            differential(
                self.sampled(self.table(dataset, **overrides), **sampler),
                _sampled_state,
            )

    def test_passive_table_handshake_signal(self, dataset):
        """The order-dependent rules are vectorised and equal to the
        reference, behind a sampler too; a sampler without a batch mask
        is refused."""
        from repro.passive.monitor import ServiceSignal

        for overrides in (
            {"signal": ServiceSignal.HANDSHAKE},
            {"signal": ServiceSignal.HANDSHAKE,
             "tcp_ports": None,
             "is_campus": self.predicates(dataset)[1]},
        ):
            differential(self.table(dataset, **overrides), _table_state)
        differential(
            self.sampled(
                self.table(
                    dataset,
                    signal=ServiceSignal.HANDSHAKE,
                    links=frozenset({"commercial1", "internet2"}),
                    exclude_sources=frozenset(_OUTSIDE[:1]),
                ),
                sample_minutes=30,
            ),
            _sampled_state,
        )
        # A bare callable has no batch mask.
        with pytest.raises(TypeError, match="keep_mask"):
            SamplingTable(
                self.table(dataset)(),
                ReferenceFixedPeriodSampler(sample_minutes=30).keep_record,
            )

    def test_scan_detector(self, dataset):
        for predicate in self.predicates(dataset):
            differential(
                lambda: ReferenceScanDetector(is_campus=predicate),
                lambda d: (d._targets, d._rst_sources, d.scanners_with(2, 1)),
            )

    def test_window_observer(self, dataset):
        windows = ((0.0, 30.0), (30.0, 3600.0), (40_000.0, 60_000.0))
        for predicate in self.predicates(dataset):
            differential(
                lambda: ReferenceWindowActivityObserver(
                    windows=windows, is_campus=predicate,
                    tcp_ports=_TCP_PORTS, udp_ports=_UDP_PORTS,
                ),
                lambda observer: observer.hits,
            )

    def monitor(self, dataset):
        return ReferenceMultiLinkMonitor(
            links=_LINKS[1:3], is_campus=dataset.is_campus,
            tcp_ports=_TCP_PORTS, udp_ports=_UDP_PORTS,
        )

    @staticmethod
    def monitor_state(monitor):
        return (
            _table_state(monitor.combined),
            [_table_state(tap) for tap in monitor.taps.values()],
        )

    def test_multilink_monitor(self, dataset):
        differential(lambda: self.monitor(dataset), self.monitor_state)

    @settings(deadline=None, max_examples=60)
    @given(records=_RECORDS, cuts=_CUTS)
    def test_multilink_monitor_behind_pass_faults(self, dataset, records, cuts):
        """The pass drops a lost record before every table: the
        columnar pass equals the per-record one, loss state included."""

        def run(replay_fn, stream):
            monitor = self.monitor(dataset)
            faults = capture_filter(_FAULTS, 200_000.0)
            count = replay_fn(stream, monitor, faults=faults)
            return count, self.monitor_state(monitor), faults.state_dict()

        assert run(replay, iter(records)) == run(
            replay_columnar, _batches(records, cuts)
        )

    def test_shard_state(self, dataset):
        for overrides in (
            {},
            {"tcp_ports": None, "exclude_sources": frozenset(_OUTSIDE[:1])},
            {"is_campus": self.predicates(dataset)[1]},
        ):
            make = self.table(dataset, **overrides)
            differential(
                lambda: ShardState(0, make()), ShardState.state_dict,
                observe=_shard_observe,
            )

    def test_replay_tap(self):
        differential(
            ReferenceReplayTap,
            lambda tap: (tap.records, tap.synacks, tap.by_link, tap.by_proto),
        )

    @settings(deadline=None, max_examples=60)
    @given(records=_RECORDS, cuts=_CUTS)
    def test_replay_columnar_falls_back_to_observe(self, dataset, records, cuts):
        """A record-level sampler behind a fault filter: the columnar
        pass equals the per-record reference pass."""

        def run(replay_fn, stream):
            observer = ReferenceSamplingTable(
                self.table(dataset)(), ReferenceProbabilisticSampler(0.5, salt=3)
            )
            faults = capture_filter(_FAULTS, 200_000.0)
            count = replay_fn(stream, observer, faults=faults)
            return (
                count, observer.kept, observer.dropped,
                _table_state(observer.table), _fault_counts(faults),
            )

        assert run(replay, iter(records)) == run(
            replay_columnar, _batches(records, cuts)
        )


class _Collector:
    """An observer that keeps each batch's ``to_records()``."""

    def __init__(self):
        self.seen = []

    def observe(self, record):
        self.seen.append(record)

    def observe_columns(self, cols):
        for record in cols.to_records():
            self.observe(record)


def _pass_observers(dataset):
    """A SYNACK table, a HANDSHAKE one and a tap."""
    from repro.passive.monitor import ServiceSignal

    config = dict(
        is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports,
        udp_ports=dataset.udp_ports,
    )
    return (
        PassiveServiceTable(**config),
        PassiveServiceTable(signal=ServiceSignal.HANDSHAKE, **config),
        ReferenceReplayTap(),
    )


def _leftovers(root):
    """Cache entries and temporary files under *root*."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(p.name for p in root.iterdir() if ".rprt" in p.name)


class TestOneSource:
    """Every pass is ``replay_columnar`` over ``column_batches``: which
    source served it -- the generator being recorded, the recording, the
    generator with the cache off, a truncated generation -- changes
    nothing an observer, the caller or the fault filter can see."""

    @staticmethod
    def _outcome(run, dataset, plan, collect=False):
        observers = _pass_observers(dataset)
        if collect:
            observers += (_Collector(),)
        faults = plan and capture_filter(plan, dataset.duration)
        count = run(*observers, faults=faults)
        synack, handshake, tap = observers[:3]
        return (
            count, _table_state(synack), _table_state(handshake),
            (tap.records, tap.synacks, tap.by_link, tap.by_proto),
            faults and faults.state_dict(),
        ), observers

    @pytest.mark.parametrize("plan", [None, _FAULTS], ids=["clean", "faults"])
    def test_every_source_is_the_same_pass(
        self, monkeypatch, tmp_path, dataset, generated_records, plan
    ):
        end = dataset.duration / 4
        truncated = list(dataset.packet_stream(end))
        # The definition: per-record observe over the generated stream.
        full, _ = self._outcome(
            lambda *obs, faults: replay(
                iter(generated_records), *obs, faults=faults
            ), dataset, plan,
        )
        short, _ = self._outcome(
            lambda *obs, faults: replay(iter(truncated), *obs, faults=faults),
            dataset, plan,
        )
        assert short[0] < full[0]

        root = tmp_path / "cache"
        monkeypatch.setenv(ENV_VAR, str(root))
        entry = default_trace_cache().path_for(dataset.trace_cache_key).name
        assert self._outcome(dataset.replay, dataset, plan)[0] == full  # cold
        assert _leftovers(root) == [entry]
        recorded = (root / entry).read_bytes()
        assert self._outcome(dataset.replay, dataset, plan)[0] == full  # warm
        assert default_trace_cache().stats.hits == 1

        def partial(*obs, faults):
            return dataset.replay(*obs, end=end, faults=faults)

        assert self._outcome(partial, dataset, plan)[0] == short
        assert _leftovers(root) == [entry]
        assert (root / entry).read_bytes() == recorded

        monkeypatch.setenv(ENV_VAR, "off")
        assert self._outcome(dataset.replay, dataset, plan)[0] == full
        assert self._outcome(partial, dataset, plan)[0] == short

    @settings(deadline=None, max_examples=15)
    @given(data=st.data())
    def test_truncated_pass_is_a_prefix(self, dataset, generated_columns, data):
        """A pass to *end* is the full pass's first rows, whether *end*
        falls between packets or on one; every row it leaves out is at
        or after *end* (it may keep some of those too: see below)."""
        full = generated_columns
        end = data.draw(
            st.floats(0.0, dataset.duration)
            | st.integers(0, len(full) - 1).map(lambda row: float(full.time[row])),
            label="end",
        )
        part = generated_pass(dataset, end)
        for name, _dtype in COLUMN_FIELDS:
            assert np.array_equal(
                getattr(part, name), getattr(full, name)[: len(part)]
            ), name
        assert (full.time[len(part):] >= end).all()

    def test_truncated_pass_is_not_a_time_cut(self, dataset, generated_columns):
        """A flow that began before *end* is kept whole: a pass ending
        just after a SYN still holds the SYN-ACK written with it, though
        that answer comes after *end*."""
        full = generated_columns
        syn = ((full.flags & 0x12) == 0x02) & (full.proto == PROTO_TCP)
        answered = np.flatnonzero(
            syn[:-1]
            & ((full.flags[1:] & 0x12) == 0x12)
            & (full.src[1:] == full.dst[:-1])
            & (full.time[1:] > full.time[:-1])
        )
        row = int(answered[0])
        end = float(np.nextafter(full.time[row], np.inf))
        part = generated_pass(dataset, end)
        assert len(part) > row + 1
        assert part.time[row + 1] > end

    def test_fallback_observers_share_one_materialisation(
        self, monkeypatch, tmp_path, dataset
    ):
        """Records exist only as ``to_records()`` of a batch, made once
        per batch however many observers fall back to ``observe`` -- on
        a generated pass (recorded or not) and on a recorded one."""
        reference = list(reference_packet_stream(
            dataset.population, dataset.mix, dataset.traffic_seed,
            0.0, dataset.duration,
        ))
        recording = str(tmp_path / "recording")
        for value, source in (
            (recording, "recorded"), ("off", "generated"), (recording, "cached"),
        ):
            monkeypatch.setenv(ENV_VAR, value)
            hits = default_trace_cache().stats.hits
            first, second = _Collector(), _Collector()
            assert dataset.replay(first, second) == len(reference)
            assert default_trace_cache().stats.hits - hits == (source == "cached")
            assert first.seen == reference
            assert all(a is b for a, b in zip(first.seen, second.seen))

    def test_abandoned_pass_leaves_nothing_behind(
        self, monkeypatch, tmp_path, dataset
    ):
        """An observer's exception aborts the recording before it
        propagates; the stream engine never writes the cache at all."""
        from repro.stream import StreamConfig, StreamEngine

        root = tmp_path / "cache"
        monkeypatch.setenv(ENV_VAR, str(root))

        class Boom(_Collector):
            def observe(self, record):
                super().observe(record)
                if len(self.seen) == 70_000:  # inside the second chunk
                    raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError, match="observer failed"):
            dataset.replay(Boom())
        assert _leftovers(root) == []

        result = StreamEngine(
            StreamConfig(dataset=DATASET, seed=SEED, shards=2), dataset=dataset
        ).run(stop_after_records=70_000)
        assert not result.finished and result.records_read >= 70_000
        assert _leftovers(root) == []
        # The cache still works afterwards.
        dataset.replay()
        assert len(_leftovers(root)) == 1

    #: sha256 of the entry a cold ``replay()`` records at scale 0.1.  A
    #: change here means recorded traces changed: bump GENERATOR_VERSION
    #: (different records) or TRACE_FORMAT_VERSION (different layout), or
    #: every existing cache silently serves bytes this code would not
    #: write.
    GOLDEN_RECORDINGS = {
        ("DTCP1-18d", 0): (
            292_270,
            "10e112a164708617cb8ac33ae136ce6b046a34fe3a3428b9d5588eef1391cc1a",
        ),
        ("DTCP1-18d", 1): (
            302_494,
            "672074e28cb82fd22511d6391776dac080cd1fd42c014b461e7690d68d9dfa60",
        ),
        ("DUDP", 0): (
            9_845,
            "2f3dc6803828c55e444e80a64faaf1650118dbda402cab65dfd00bf892a4c3d0",
        ),
        ("DTCPall", 0): (
            123_183,
            "413ea84ad5b0a99f1b0ae1c728eaafe783596edaff3e508bda91d596ce3c04be",
        ),
    }

    @pytest.mark.parametrize("name,seed", GOLDEN_RECORDINGS)
    def test_recorded_entry_bytes_are_golden(
        self, monkeypatch, tmp_path, name, seed
    ):
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        built = build_dataset(name, seed=seed, scale=0.1)
        count = built.replay()
        entry = default_trace_cache().path_for(built.trace_cache_key)
        digest = hashlib.sha256(entry.read_bytes()).hexdigest()
        assert (count, digest) == self.GOLDEN_RECORDINGS[name, seed]


class TestUnwritableCache:
    """A cache that cannot be written serves the pass unrecorded -- it
    used to kill it: only ``begin_write`` was guarded."""

    @staticmethod
    def _reference(dataset):
        table, detector = standard_observers(dataset)
        return dataset.replay(table, detector), table, detector

    def _assert_served_unrecorded(self, dataset, reference, root):
        from repro.telemetry import MetricRegistry, disable, set_registry

        reg = MetricRegistry()
        set_registry(reg)
        try:
            table, detector = standard_observers(dataset)
            count = dataset.replay(table, detector)
        finally:
            disable()
        assert count == reference[0]
        assert_same_analysis(reference[1], table, reference[2], detector)
        assert _leftovers(root) == []
        assert reg.value("repro_replay_passes_total", source="generated") == 1
        assert reg.value("repro_replay_passes_total", source="recorded") is None

    def test_directory_files_cannot_be_created_in(self, monkeypatch, dataset):
        root = Path("/proc/self/task")
        if not root.is_dir():
            pytest.skip("needs a directory that exists but refuses files")
        monkeypatch.setenv(ENV_VAR, "off")
        reference = self._reference(dataset)
        monkeypatch.setenv(ENV_VAR, str(root))
        self._assert_served_unrecorded(dataset, reference, root)

    @pytest.mark.parametrize(
        "room", [1_000_000, 2_000_000], ids=["mid-pass", "tail-chunk-at-close"]
    )
    def test_disk_fills(self, monkeypatch, tmp_path, dataset, room):
        """ENOSPC once the entry outgrows *room* bytes: inside the first
        65,536-record chunk (1.5 MB), or inside this dataset's second
        and last, which ``close`` writes."""
        monkeypatch.setenv(ENV_VAR, "off")
        reference = self._reference(dataset)
        assert 65_536 < reference[0] <= 2 * 65_536
        refused = []

        class SmallDisk(io.FileIO):
            def write(self, data):
                if self.tell() + len(data) > room:
                    refused.append(len(data))
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(data)

        import repro.datasets.builder as builder

        monkeypatch.setattr(builder, "open", SmallDisk, raising=False)
        root = tmp_path / "full-disk"
        monkeypatch.setenv(ENV_VAR, str(root))
        self._assert_served_unrecorded(dataset, reference, root)
        assert refused
        # With room again the next pass records.
        monkeypatch.delattr(builder, "open")
        dataset.replay()
        assert len(_leftovers(root)) == 1


class TestTraceCache:
    def test_disabled_by_env(self, monkeypatch):
        for value in ("off", "none", "disabled", "0", "OFF"):
            monkeypatch.setenv(ENV_VAR, value)
            assert default_trace_cache().enabled is False

    def test_env_points_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "cachedir"))
        cache = default_trace_cache()
        assert cache.enabled
        assert cache.root == tmp_path / "cachedir"

    def test_disabled_lookup_never_hits(self, tmp_path):
        cache = TraceCache(root=tmp_path, enabled=False)
        assert cache.lookup(("DTCPall", 0, "1.0", 1)) is None
        assert cache.stats.hits == cache.stats.misses == 0

    def test_keying(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        a = cache.path_for(("DTCP1-18d", 0, "1.0", 1))
        assert a != cache.path_for(("DTCP1-18d", 1, "1.0", 1))
        assert a != cache.path_for(("DTCP1-18d", 0, "0.5", 1))
        assert a != cache.path_for(("DTCP1-18d", 0, "1.0", 2))  # generator bump
        assert a == cache.path_for(("DTCP1-18d", 0, "1.0", 1))
        assert a.name.startswith("DTCP1-18d-")

    def test_atomic_write_and_stats(self, tmp_path, generated_records):
        cache = TraceCache(root=tmp_path / "nested" / "cache")
        key = (DATASET, SEED, "1.0", 1)
        assert cache.lookup(key) is None
        pending = cache.begin_write(key)
        write_trace(pending.tmp_path, generated_records)
        # Not visible until committed.
        assert not cache.path_for(key).exists()
        final = pending.commit()
        assert final == cache.path_for(key)
        assert cache.lookup(key) == final
        assert read_trace(final) == generated_records
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_abort_removes_partial(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        pending = cache.begin_write(("x", 0, "1.0", 1))
        pending.tmp_path.write_bytes(b"partial")
        pending.abort()
        assert not pending.tmp_path.exists()
        pending.abort()  # idempotent

    def test_entries_and_clear(self, tmp_path, generated_records):
        cache = TraceCache(root=tmp_path)
        for seed in (1, 2):
            pending = cache.begin_write(("x", seed, "1.0", 1))
            write_trace(pending.tmp_path, generated_records[:seed * 5])
            pending.commit()
        assert len(cache.entries()) == 2
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_default_cache_tracks_env_changes(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "a"))
        first = default_trace_cache()
        assert first is default_trace_cache()
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "b"))
        assert default_trace_cache().root == tmp_path / "b"

    def test_corrupt_entry_treated_as_miss(self, monkeypatch, tmp_path, dataset):
        """A truncated cached trace is evicted and replay regenerates."""
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "corrupt-cache"))
        cache = default_trace_cache()
        reference_table, reference_detector = standard_observers(dataset)
        dataset.replay(reference_table, reference_detector)
        path = cache.path_for(dataset.trace_cache_key)
        path.write_bytes(path.read_bytes()[:-13])

        assert cache.lookup(dataset.trace_cache_key) is None
        assert not path.exists()

        table, detector = standard_observers(dataset)
        dataset.replay(table, detector)
        assert_same_analysis(reference_table, table, reference_detector, detector)
        # The re-recorded entry is intact again.
        assert cache.lookup(dataset.trace_cache_key) == path

    def test_truncated_entry_lookup_is_miss_and_evicts(
        self, tmp_path, generated_records
    ):
        """lookup() on a half-written entry must evict, not serve it."""
        cache = TraceCache(root=tmp_path)
        key = (DATASET, SEED, "1.0", 1)
        pending = cache.begin_write(key)
        write_trace(pending.tmp_path, generated_records)
        path = pending.commit()
        # Chop the entry roughly in half, as a crashed writer or the
        # fault injector's cache_corruption_rate would.
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.lookup(key) is None
        assert not path.exists()
        assert cache.stats.misses == 1

    def test_undecodable_entry_lookup_is_miss_and_evicts(
        self, tmp_path, generated_records
    ):
        """Whole chunks, right count, but a link byte that names no
        link: served, it was an ``IndexError`` inside the observers."""
        cache = TraceCache(root=tmp_path)
        key = (DATASET, SEED, "1.0", 1)
        pending = cache.begin_write(key)
        write_trace(pending.tmp_path, generated_records[:100])
        path = pending.commit()
        data = bytearray(path.read_bytes())
        data[16 + 8 + 100 * 22] = 200  # first byte of the link column
        path.write_bytes(bytes(data))
        assert cache.lookup(key) is None
        assert not path.exists()
        assert cache.stats.evictions == 1

    def test_v1_file_at_entry_path_is_evicted(self, tmp_path, generated_records):
        """The cache only ever holds v2: anything else there is damage."""
        cache = TraceCache(root=tmp_path)
        key = (DATASET, SEED, "1.0", 1)
        path = cache.path_for(key)
        path.write_bytes(v1_trace_bytes(generated_records[:20]))
        assert read_trace(path) == generated_records[:20]  # well-formed v1
        assert cache.lookup(key) is None
        assert not path.exists()
        assert cache.stats.evictions == 1

    def test_disabled_cache_replay_still_works(self, monkeypatch, tmp_path,
                                               dataset):
        # A disabled cache is rooted at the default directory under
        # HOME: point that at an empty one, and build the cache afresh.
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setattr(cache_module, "_default", None)
        monkeypatch.setenv(ENV_VAR, "off")
        table = PassiveServiceTable(
            is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports
        )
        count = dataset.replay(table)
        assert count > 0
        assert default_trace_cache().entries() == []


class TestConcurrentWriters:
    """Racing ``--jobs N`` workers recording the same dataset.

    Every writer produces identical bytes and publishes with an atomic
    rename, so whichever commit lands last, the entry must be intact
    and serve the full record stream.
    """

    KEY = (DATASET, SEED, "1.0", 1)

    @staticmethod
    def _race_write(root, key, records, barrier):
        cache = TraceCache(root=root)
        pending = cache.begin_write(key)
        write_trace(pending.tmp_path, records)
        barrier.wait(timeout=30)  # line everyone up, then commit at once
        pending.commit()
        os._exit(0)

    def test_processes_racing_same_key(self, tmp_path, generated_records):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        workers = 4
        barrier = ctx.Barrier(workers)
        processes = [
            ctx.Process(
                target=self._race_write,
                args=(tmp_path, self.KEY, generated_records, barrier),
            )
            for _ in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(60)
            assert process.exitcode == 0
        cache = TraceCache(root=tmp_path)
        path = cache.lookup(self.KEY)
        assert path is not None
        assert read_trace(path) == generated_records
        # No stray tmp files left behind by the losing writers.
        leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_distinct_pids_get_distinct_tmp_paths(self, tmp_path):
        """The tmp name embeds the pid, so racing processes never
        clobber each other's partial writes."""
        cache = TraceCache(root=tmp_path)
        pending = cache.begin_write(self.KEY)
        assert str(os.getpid()) in pending.tmp_path.name
        assert pending.tmp_path != pending.final_path

    def test_reader_racing_writer_sees_old_or_new_never_partial(
        self, tmp_path, generated_records
    ):
        """While a rewrite is pending, lookups serve the committed entry."""
        cache = TraceCache(root=tmp_path)
        first = cache.begin_write(self.KEY)
        write_trace(first.tmp_path, generated_records[:50])
        first.commit()
        rewrite = cache.begin_write(self.KEY)
        write_trace(rewrite.tmp_path, generated_records)
        # Mid-write: the old entry is still what readers get.
        assert read_trace(cache.lookup(self.KEY)) == generated_records[:50]
        rewrite.commit()
        assert read_trace(cache.lookup(self.KEY)) == generated_records
