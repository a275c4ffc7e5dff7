"""Tests for the columnar trace format (v2) and the vectorised paths.

The acceptance bar mirrors the trace-cache suite: every columnar path
-- conversion of old v1 files, zero-copy reads, vectorised replay,
columnar streaming -- must be *bit-identical* to feeding the same
records one by one.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from repro.trace.cache import ENV_VAR, TraceCache, default_trace_cache
from repro.trace.columnar import (
    TRACE_FORMAT_VERSION,
    ColumnarTraceWriter,
    RecordColumns,
    convert_trace,
    read_trace,
    read_trace_columns,
    trace_is_intact,
    trace_version,
    write_trace,
)
from tests.passive_reference import (
    ReferenceMultiLinkMonitor,
    ReferenceScanDetector,
    ReferenceWindowActivityObserver,
    capture_filter,
    replay,
)
from tests.trace_v1_reference import v1_trace_bytes

_LINK_CHOICES = ("", "commercial1", "commercial2", "internet2")

#: (kind, link) rows covering every protocol, flag combination the
#: format stores, every link index, and the ICMP marker.
_ROWS = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e7, allow_nan=False),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=65535),
        st.sampled_from(["syn", "synack", "rst", "ack", "udp", "icmp"]),
        st.sampled_from(_LINK_CHOICES),
    ),
    max_size=50,
)


def _make_record(row) -> PacketRecord:
    time, src, dst, sport, dport, kind, link = row
    if kind == "udp":
        return PacketRecord(
            time=time, src=src, dst=dst, sport=sport, dport=dport,
            proto=PROTO_UDP, flags=TcpFlags.NONE, link=link,
        )
    if kind == "icmp":
        return PacketRecord(
            time=time, src=src, dst=dst, sport=sport, dport=dport,
            proto=PROTO_ICMP, flags=TcpFlags.NONE,
            icmp=ICMP_PORT_UNREACHABLE, link=link,
        )
    flags = {
        "syn": TcpFlags.SYN,
        "synack": TcpFlags.SYN | TcpFlags.ACK,
        "rst": TcpFlags.RST,
        "ack": TcpFlags.ACK,
    }[kind]
    return PacketRecord(
        time=time, src=src, dst=dst, sport=sport, dport=dport,
        proto=PROTO_TCP, flags=flags, link=link,
    )


def _v2_reference_bytes(records, chunk_records) -> bytes:
    """What a v2 file of *records* is, spelled out with ``struct``: the
    header, then per *chunk_records* records a count, one packed array
    per field and padding to 8 bytes."""
    out = [struct.pack("<4sHHQ", b"RPRT", 2, 0, len(records))]
    for start in range(0, len(records), chunk_records):
        rows = [
            (r.time, r.src, r.dst, r.sport, r.dport, r.proto, int(r.flags),
             _LINK_CHOICES.index(r.link), int(r.icmp is not None))
            for r in records[start:start + chunk_records]
        ]
        out.append(struct.pack("<II", len(rows), 0))
        for column, code in zip(zip(*rows), "dIIHHBBBB"):
            out.append(struct.pack(f"<{len(rows)}{code}", *column))
        out.append(b"\x00" * (-(len(rows) * 24) % 8))
    return b"".join(out)


def _table():
    """Watches the addresses and ports ``_ROWS`` can generate."""
    return PassiveServiceTable(
        is_campus=lambda address: address >> 31 == 1, tcp_ports=None,
        udp_ports=frozenset(range(0, 65536, 2)),
    )


def _table_state(table):
    return table.first_seen, table.flow_counts, table.clients


class TestConvert:
    @settings(deadline=None, max_examples=40)
    @given(rows=_ROWS)
    def test_property_v1_to_v2_roundtrip(self, rows, tmp_path_factory):
        """An old v1 file and its v2 conversion are the same trace:
        equal record lists, equal observer state."""
        tmp = tmp_path_factory.mktemp("convert")
        records = [_make_record(row) for row in rows]
        v1 = tmp / "a.rprt"
        v2 = tmp / "b.rprt"
        v1.write_bytes(v1_trace_bytes(records))
        assert trace_version(v1) == 1
        assert convert_trace(v1, v2) == len(records)
        assert trace_version(v2) == 2 and trace_is_intact(v2)
        assert read_trace(v1) == read_trace(v2) == records
        tables = _table(), _table(), _table()
        replay(iter(records), tables[0])
        assert replay_columnar(
            read_trace_columns(v1, chunk_records=7), tables[1]
        ) == replay_columnar(read_trace_columns(v2), tables[2]) == len(records)
        assert (
            _table_state(tables[0]) == _table_state(tables[1])
            == _table_state(tables[2])
        )
        # What the writer makes of the records is what convert makes of v1.
        direct = tmp / "c.rprt"
        write_trace(direct, records)
        assert direct.read_bytes() == v2.read_bytes()

    def test_convert_small_chunks(self, tmp_path):
        records = [_make_record((float(i), i, i + 1, 80, 90, "ack", ""))
                   for i in range(25)]
        v1 = tmp_path / "a.rprt"
        v2 = tmp_path / "b.rprt"
        v1.write_bytes(v1_trace_bytes(records))
        convert_trace(v1, v2, chunk_records=4)
        assert read_trace(v2) == records
        batches = list(read_trace_columns(v2))
        assert [len(b) for b in batches] == [4, 4, 4, 4, 4, 4, 1]
        # A v2 source is re-cut the same way: the destination depends on
        # the records and chunk_records, never on the source's layout.
        again = tmp_path / "c.rprt"
        assert convert_trace(v2, again, chunk_records=4) == 25
        assert again.read_bytes() == v2.read_bytes()
        assert convert_trace(v2, again) == 25
        direct = tmp_path / "d.rprt"
        write_trace(direct, records)
        assert again.read_bytes() == direct.read_bytes()

    def test_cli_trace_convert(self, tmp_path, capsys):
        """Old files still work: a v1 file converts, and ``trace-stats``
        prints the same table for it and for its conversion."""
        from repro.cli import main

        records = [
            _make_record((float(i), 0x807D0001 + i % 3, 2, 80, 4000 + i,
                          ["synack", "syn", "udp", "icmp"][i % 4],
                          _LINK_CHOICES[i % 4]))
            for i in range(40)
        ]
        v1 = tmp_path / "a.rprt"
        v2 = tmp_path / "b.rprt"
        v1.write_bytes(v1_trace_bytes(records))
        assert main(["trace", "convert", str(v1), str(v2)]) == 0
        out = capsys.readouterr().out
        assert "converted 40 records" in out
        assert "(v1)" in out and "(v2)" in out
        assert trace_version(v2) == 2
        assert read_trace(v2) == records
        assert main(["trace-stats", str(v1)]) == 0
        old_stats = capsys.readouterr().out
        assert main(["trace-stats", str(v2)]) == 0
        assert capsys.readouterr().out == old_stats.replace(str(v1), str(v2))
        assert "40 records" in old_stats and "128.125.0.1" in old_stats

    def test_cli_convert_onto_itself_refused(self, tmp_path, capsys):
        """``trace convert X X`` used to open X for writing before
        reading it: the input was truncated to an empty trace."""
        from repro.cli import main

        path = tmp_path / "a.rprt"
        write_trace(path, [_make_record((1.0, 1, 2, 3, 4, "ack", ""))])
        before = path.read_bytes()
        alias = tmp_path / "alias.rprt"
        alias.hardlink_to(path)
        for destination in (path, tmp_path / "." / "a.rprt", alias):
            assert main(["trace", "convert", str(path), str(destination)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
            assert path.read_bytes() == before

    def test_damaged_source_leaves_no_destination(self, tmp_path):
        records = [_make_record((float(i), i, i, 1, 2, "ack", ""))
                   for i in range(20)]
        good = tmp_path / "good.rprt"
        with ColumnarTraceWriter.open(good, chunk_records=8) as writer:
            for record in records:
                writer.write(record)
        source = tmp_path / "cut.rprt"
        source.write_bytes(good.read_bytes()[:-7])
        destination = tmp_path / "out.rprt"
        with pytest.raises(ValueError, match="truncated"):
            convert_trace(source, destination)
        assert not destination.exists()


class TestColumnarFormat:
    def test_chunked_writer_roundtrip(self, tmp_path):
        records = [_make_record((float(i), i, i ^ 1, i % 100, 80,
                                 "synack" if i % 3 else "udp",
                                 _LINK_CHOICES[i % 4]))
                   for i in range(100)]
        path = tmp_path / "t.rprt"
        with ColumnarTraceWriter.open(path, chunk_records=16) as writer:
            for record in records:
                writer.write(record)
            assert writer.records_written == 100
        assert trace_version(path) == 2
        assert read_trace(path) == records
        assert [len(b) for b in read_trace_columns(path)] == [16] * 6 + [4]

    @settings(deadline=None, max_examples=60)
    @given(
        rows=_ROWS,
        chunk_records=st.sampled_from([1, 7, 65536]),
        cuts=st.lists(st.integers(min_value=0, max_value=50), max_size=8),
        as_columns=st.lists(st.booleans(), min_size=9, max_size=9),
    )
    def test_property_bytes_ignore_how_input_was_cut(
        self, tmp_path_factory, rows, chunk_records, cuts, as_columns
    ):
        """Chunks fill to *chunk_records* across calls: any cut of the
        stream into ``write_columns`` batches (empty ones included) and
        runs of ``write(record)`` gives the same file."""
        records = [_make_record(row) for row in rows]
        tmp = tmp_path_factory.mktemp("cuts")
        bounds = [0, *sorted(min(c, len(records)) for c in cuts), len(records)]
        with ColumnarTraceWriter.open(tmp / "cut.rprt", chunk_records) as writer:
            for lo, hi, columns in zip(bounds, bounds[1:], as_columns):
                if columns:
                    writer.write_columns(RecordColumns.from_records(records[lo:hi]))
                else:
                    for record in records[lo:hi]:
                        writer.write(record)
            assert writer.records_written == len(records)
        written = (tmp / "cut.rprt").read_bytes()
        assert written == _v2_reference_bytes(records, chunk_records)
        if chunk_records == 65536:
            write_trace(tmp / "whole.rprt", records)
            assert written == (tmp / "whole.rprt").read_bytes()

    def test_zero_copy_views(self, tmp_path):
        records = [_make_record((float(i), i, i, 1, 2, "ack", ""))
                   for i in range(10)]
        path = tmp_path / "t.rprt"
        with ColumnarTraceWriter.open(path) as writer:
            for record in records:
                writer.write(record)
        (batch,) = read_trace_columns(path)
        # Views into the mapping, not copies.
        assert not batch.time.flags.owndata
        assert batch.time.dtype == np.dtype("<f8")
        assert batch.time.tolist() == [r.time for r in records]

    def test_skip_records(self, tmp_path):
        records = [_make_record((float(i), i, i, 1, 2, "ack", ""))
                   for i in range(20)]
        path = tmp_path / "t.rprt"
        with ColumnarTraceWriter.open(path, chunk_records=6) as writer:
            for record in records:
                writer.write(record)
        old = tmp_path / "v1.rprt"
        old.write_bytes(v1_trace_bytes(records))
        for skip in (0, 3, 6, 13, 20):
            for source in (path, old):
                got = [
                    r
                    for b in read_trace_columns(
                        source, chunk_records=4, skip_records=skip
                    )
                    for r in b.to_records()
                ]
                assert got == records[skip:], f"skip={skip} {source.name}"

    def test_truncation_detected(self, tmp_path):
        records = [_make_record((float(i), i, i, 1, 2, "ack", ""))
                   for i in range(50)]
        path = tmp_path / "t.rprt"
        with ColumnarTraceWriter.open(path, chunk_records=8) as writer:
            for record in records:
                writer.write(record)
        assert trace_is_intact(path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        assert not trace_is_intact(path)

    def test_zero_count_header_v2(self, tmp_path):
        """A killed v2 writer leaves count=0: the decoder walks the
        chunks and every record reads back, but the file is not intact
        (so the cache evicts it)."""
        records = [_make_record((float(i), i, i, 1, 2, "ack", ""))
                   for i in range(30)]
        path = tmp_path / "t.rprt"
        with ColumnarTraceWriter.open(path, chunk_records=8) as writer:
            for record in records:
                writer.write(record)
        data = bytearray(path.read_bytes())
        data[8:16] = b"\x00" * 8  # erase the stamped count
        path.write_bytes(bytes(data))
        assert not trace_is_intact(path)  # zero count + body = unclean
        assert read_trace(path) == records

    def test_zero_count_header_v1_reads_every_record(self, tmp_path):
        """The same tolerance for an old file: the body's size fixes the
        record count, whatever the header says."""
        records = [_make_record((float(i), i, i, 1, 2, "ack", ""))
                   for i in range(30)]
        path = tmp_path / "t.rprt"
        data = bytearray(v1_trace_bytes(records))
        data[8:16] = b"\x00" * 8
        path.write_bytes(bytes(data))
        assert not trace_is_intact(path)
        got = list(read_trace_columns(path, chunk_records=7))
        assert [len(b) for b in got] == [7, 7, 7, 7, 2]
        assert [r for b in got for r in b.to_records()] == records
        assert read_trace(path) == records


class TestCacheKeyVersion:
    def test_path_embeds_format_version(self, tmp_path):
        """Satellite regression: the cache key covers the trace format
        version, so v1 and v2 artifacts of one trace can never collide."""
        cache = TraceCache(root=tmp_path)
        key = ("DTCP1-18d", 7, "0.04", 3)
        p1 = cache.path_for(key, format_version=1)
        p2 = cache.path_for(key, format_version=2)
        assert p1 != p2
        assert "-v1-" in p1.name and "-v2-" in p2.name
        # Different digests, not just different stems.
        assert p1.name.split("-v1-")[1] != p2.name.split("-v2-")[1]
        # The default is the version new recordings are written in.
        assert cache.path_for(key) == cache.path_for(
            key, format_version=TRACE_FORMAT_VERSION
        )

    def test_lookup_ignores_other_version_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        cache = default_trace_cache()
        key = ("X", 1, "1.0", 1)
        old = cache.path_for(key, format_version=1)
        old.parent.mkdir(parents=True, exist_ok=True)
        old.write_bytes(
            v1_trace_bytes([_make_record((1.0, 1, 2, 3, 4, "ack", ""))])
        )
        # A v1-era entry is invisible to the current-version lookup.
        assert cache.lookup(key) is None
        assert old.exists()


def _faulty_plan() -> FaultPlan:
    return FaultPlan(
        seed=13, capture_loss_rate=0.02, burst_loss_rate=0.001,
        burst_mean_length=5, outage_fraction=0.01, outage_count=2,
    )


class TestColumnarReplayEquivalence:
    """Columnar replay == scalar replay, observer state for observer state."""

    @pytest.fixture()
    def cached_trace(self, allports_dataset, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        dataset = allports_dataset
        dataset.replay()  # first pass records the v2 trace
        cached = default_trace_cache().lookup(dataset.trace_cache_key)
        assert cached is not None
        assert trace_version(cached) == 2
        return dataset, cached

    def _observers(self, dataset):
        table = PassiveServiceTable(
            is_campus=dataset.is_campus,
            tcp_ports=dataset.tcp_ports,
            udp_ports=dataset.udp_ports,
        )
        monitor = ReferenceMultiLinkMonitor(
            links=dataset.spec.monitored_links,
            is_campus=dataset.is_campus,
            tcp_ports=dataset.tcp_ports,
            udp_ports=dataset.udp_ports,
        )
        detector = ReferenceScanDetector(is_campus=dataset.is_campus)
        windows = ReferenceWindowActivityObserver(
            windows=tuple(dataset.scan_windows()),
            is_campus=dataset.is_campus,
            tcp_ports=dataset.tcp_ports,
            udp_ports=dataset.udp_ports,
        )
        return table, monitor, detector, windows

    def _assert_equal_state(self, a, b):
        table_a, monitor_a, detector_a, windows_a = a
        table_b, monitor_b, detector_b, windows_b = b
        assert table_a.first_seen == table_b.first_seen
        assert table_a.flow_counts == table_b.flow_counts
        assert table_a.clients == table_b.clients
        assert monitor_a.total_servers() == monitor_b.total_servers()
        for link, tap in monitor_a.taps.items():
            assert tap.first_seen == monitor_b.taps[link].first_seen, link
        assert detector_a._targets == detector_b._targets
        assert detector_a._rst_sources == detector_b._rst_sources
        assert windows_a.hits == windows_b.hits

    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faults"])
    def test_columnar_matches_scalar(self, cached_trace, faulted):
        dataset, cached = cached_trace
        plan = _faulty_plan() if faulted else None

        columnar = self._observers(dataset)
        faults_c = plan and capture_filter(plan, dataset.duration)
        count_c = replay_columnar(
            read_trace_columns(cached), *columnar, faults=faults_c
        )

        scalar = self._observers(dataset)
        faults_s = plan and capture_filter(plan, dataset.duration)
        count_s = replay(iter(read_trace(cached)), *scalar, faults=faults_s)

        assert count_c == count_s
        self._assert_equal_state(columnar, scalar)
        if plan:
            assert faults_c.stats.kept == faults_s.stats.kept
            assert faults_c.stats.dropped == faults_s.stats.dropped

    def test_scalar_fallback_contract(self, cached_trace):
        """An observer reading each batch's records sees identical
        records."""
        dataset, cached = cached_trace

        class RecordingObserver:
            def __init__(self):
                self.seen = []

            def observe_columns(self, cols):
                self.seen.extend(cols.to_records())

        plain = RecordingObserver()
        table = PassiveServiceTable(
            is_campus=dataset.is_campus,
            tcp_ports=dataset.tcp_ports,
            udp_ports=dataset.udp_ports,
        )
        replay_columnar(read_trace_columns(cached), table, plain)
        assert plain.seen == read_trace(cached)

    def test_survey_report_identical(self, cached_trace):
        """Satellite: the rendered survey report is byte-identical when
        the pass is served columnar vs scalar, with and without faults."""
        from repro.active.results import union_open_endpoints
        from repro.core.completeness import summarize_overlap
        from repro.core.report import survey_table

        dataset, cached = cached_trace

        def render(columnar: bool, plan) -> str:
            table = PassiveServiceTable(
                is_campus=dataset.is_campus,
                tcp_ports=dataset.tcp_ports,
                udp_ports=dataset.udp_ports,
            )
            faults = plan and capture_filter(plan, dataset.duration)
            if columnar:
                count = replay_columnar(
                    read_trace_columns(cached), table, faults=faults
                )
            else:
                count = replay(iter(read_trace(cached)), table, faults=faults)
            active = {
                address
                for address, _ in union_open_endpoints(dataset.scan_reports)
            }
            summary = summarize_overlap(table.server_addresses(), active)
            return survey_table(
                dataset.spec.name, dataset.scale, dataset.seed,
                count, len(dataset.scan_reports), summary,
            ).render()

        assert render(True, None) == render(False, None)
        plan = _faulty_plan()
        assert render(True, plan) == render(False, plan)


class TestColumnarStreamEquivalence:
    """Cached and regenerated sources feed one column pipeline.

    Cached-source runs are pinned to the batch oracle by
    ``test_stream.py::TestEquivalence`` and ``test_stream_fabric.py``;
    here the trace cache is disabled (or ``end`` truncated), so every
    batch the engine and the fabric see is a regenerated chunk wrapped
    by ``RecordColumns.from_records`` -- and the oracle is per-record
    ``replay`` over the same generated stream.
    """

    #: (fault plan, end) -> (records delivered, table, report | None)
    _references: dict = {}

    @pytest.fixture(autouse=True)
    def _fast_supervision(self, fast_fabric):
        """Every fabric run here supervises at ``FAST_FABRIC`` speed."""

    @pytest.fixture()
    def uncached(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "off")

    @staticmethod
    def _config(dataset, faulted=False, **overrides):
        from repro.stream import StreamConfig

        return StreamConfig(
            dataset=dataset.spec.name, seed=dataset.seed, scale=dataset.scale,
            faults=_faulty_plan() if faulted else None, **overrides,
        )

    @staticmethod
    def _run(runner, config, dataset, **kwargs):
        from repro.stream import FabricConfig, FabricSupervisor, StreamEngine

        if runner == "engine":
            return StreamEngine(config, dataset=dataset).run(**kwargs)
        return FabricSupervisor(
            config, FabricConfig(), dataset=dataset
        ).run(**kwargs)

    def _reference(self, config, dataset):
        """One table fed record by record from the generated stream,
        and ``batch_survey_report`` where it applies (it has no
        ``end``); computed once per source -- shards cannot matter."""
        from repro.stream import batch_survey_report

        key = (config.faults, config.end)
        if key not in self._references:
            table = PassiveServiceTable(
                is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports,
                udp_ports=dataset.udp_ports,
            )
            faults = config.faults and config.faults.capture_filter(
                dataset.duration
            )
            self._references[key] = (
                dataset.replay(table, end=config.end, faults=faults), table,
                None if config.end else batch_survey_report(config, dataset),
            )
        return self._references[key]

    def _assert_matches_batch(self, runner, config, dataset):
        delivered, table, report = self._reference(config, dataset)
        result = self._run(runner, config, dataset)
        assert result.records_delivered == delivered
        assert (delivered < result.records_read) == bool(config.faults)
        assert result.table.first_seen == table.first_seen
        assert result.table.flow_counts == table.flow_counts
        assert result.table.clients == table.clients
        assert report is None or result.report == report

    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faults"])
    @pytest.mark.parametrize("shards", [1, 2, 8])
    @pytest.mark.parametrize("runner", ["engine", "fabric"])
    def test_regenerated_stream_matches_batch(
        self, small_dtcp18, uncached, runner, shards, faulted
    ):
        self._assert_matches_batch(
            runner, self._config(small_dtcp18, faulted, shards=shards),
            small_dtcp18,
        )

    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faults"])
    @pytest.mark.parametrize("runner", ["engine", "fabric"])
    def test_truncated_stream_matches_batch(self, small_dtcp18, runner, faulted):
        """``end`` before the dataset end regenerates even with the
        cache on (a truncated generation is not a prefix of the trace)."""
        from repro.simkernel.clock import days

        self._assert_matches_batch(
            runner, self._config(small_dtcp18, faulted, shards=2, end=days(5)),
            small_dtcp18,
        )

    def test_cached_and_regenerated_streams_agree(
        self, small_dtcp18, tmp_path, monkeypatch
    ):
        """Same run from both sources: reports, last-seen timelines and
        counters are equal, not just the rendered bytes."""
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        small_dtcp18.replay()  # record the v2 trace
        config = self._config(small_dtcp18, faulted=True, shards=4)
        cached = self._run("engine", config, small_dtcp18)
        monkeypatch.setenv(ENV_VAR, "off")
        regenerated = self._run("engine", config, small_dtcp18)
        assert cached.report == regenerated.report
        assert cached.table.last_seen == regenerated.table.last_seen
        assert cached.records_read == regenerated.records_read
        assert cached.records_delivered == regenerated.records_delivered

    def _checkpointing(self, dataset, tmp_path, batch_records):
        from repro.simkernel.clock import hours

        return self._config(
            dataset, faulted=True, shards=2, batch_records=batch_records,
            checkpoint_every=hours(24), checkpoint_path=str(tmp_path / "ckpt"),
        )

    def test_engine_resume_lands_inside_a_regenerated_chunk(
        self, small_dtcp18, uncached, tmp_path
    ):
        from repro.stream import ShardCheckpointStore, StreamEngine

        first = self._checkpointing(small_dtcp18, tmp_path, 1000)
        killed = self._run(
            "engine", first, small_dtcp18, stop_after_records=60_000
        )
        assert not killed.finished and killed.checkpoints_written
        offset = ShardCheckpointStore(tmp_path / "ckpt").plan_restore(
            StreamEngine(first, small_dtcp18)._identity()
        ).manifest["records_read"]
        # Resume with another chunk size: the offset (a multiple of
        # 1000) falls strictly inside a 777-record chunk of the stream.
        assert offset % 1000 == 0 and offset % 777 != 0
        resumed = self._run(
            "engine", self._checkpointing(small_dtcp18, tmp_path, 777),
            small_dtcp18, resume=True,
        )
        assert resumed.resumed
        assert resumed.report == self._reference(first, small_dtcp18)[2]

    def test_fabric_interrupt_then_resume_regenerated(
        self, small_dtcp18, uncached, tmp_path
    ):
        """KeyboardInterrupt after the first manifest tears the fleet
        down (no orphans) and re-raises; the resume regenerates from
        the manifest offset with another chunk size, and a worker crash
        mid-resume replays its gap out of regenerated chunks."""
        import multiprocessing

        from repro.faults.worker import WorkerFaultPlan
        from repro.stream import FabricConfig, FabricSupervisor

        def interrupt(line):
            if line.startswith("fabric: manifest"):
                raise KeyboardInterrupt

        first = self._checkpointing(small_dtcp18, tmp_path, 1000)
        with pytest.raises(KeyboardInterrupt):
            self._run("fabric", first, small_dtcp18, on_event=interrupt)
        assert not multiprocessing.active_children()

        events = []
        resumed = FabricSupervisor(
            self._checkpointing(small_dtcp18, tmp_path, 777),
            FabricConfig(
                worker_faults=WorkerFaultPlan(
                    seed=13, crash_rate=1.0, horizon_records=20_000
                ),
            ),
            dataset=small_dtcp18,
        ).run(resume=True, on_event=events.append)
        assert resumed.resumed
        assert any(line.startswith("fabric: dead") for line in events)
        assert resumed.report == self._reference(first, small_dtcp18)[2]


class TestRecordColumns:
    def test_roundtrip_from_records(self):
        records = [
            _make_record((float(i), i, i + 1, i % 7, 80,
                          ["syn", "synack", "udp", "icmp"][i % 4],
                          _LINK_CHOICES[i % 4]))
            for i in range(16)
        ]
        cols = RecordColumns.from_records(records)
        assert cols.to_records() == records
        assert len(cols) == 16

    def test_selection_preserves_records(self):
        records = [_make_record((float(i), i, i, 1, 2, "ack", ""))
                   for i in range(10)]
        cols = RecordColumns.from_records(records)
        mask = np.array([i % 2 == 0 for i in range(10)])
        assert cols.compress(mask).to_records() == records[::2]
        assert cols.slice(3, 7).to_records() == records[3:7]
        assert cols.take(np.array([9, 0])).to_records() == [
            records[9], records[0]
        ]
