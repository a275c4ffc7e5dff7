"""Tests for the trace format and anonymiser."""

import io
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addr import parse_ipv4
from repro.net.packet import (
    PROTO_TCP,
    PacketRecord,
    TcpFlags,
    icmp_port_unreachable,
    tcp_syn,
    tcp_synack,
    udp_datagram,
)
from repro.trace.anonymize import Anonymizer, _feistel
from repro.trace.columnar import (
    ColumnarTraceWriter,
    read_header,
    read_trace,
    read_trace_columns,
    trace_is_intact,
    write_trace,
)
from tests.trace_v1_reference import v1_trace_bytes


def sample_records():
    return [
        tcp_syn(1.0, parse_ipv4("16.0.0.1"), parse_ipv4("128.125.1.1"), 40000, 80, "commercial1"),
        tcp_synack(1.05, parse_ipv4("128.125.1.1"), parse_ipv4("16.0.0.1"), 80, 40000, "commercial2"),
        udp_datagram(2.0, parse_ipv4("128.125.2.2"), parse_ipv4("16.0.0.2"), 53, 5353, "internet2"),
        icmp_port_unreachable(3.0, parse_ipv4("128.125.2.3"), parse_ipv4("16.0.0.3"), 40001, 137),
    ]


def _v2_bytes(tmp_path, records, chunk_records):
    path = tmp_path / "good.rprt"
    with ColumnarTraceWriter.open(path, chunk_records) as writer:
        for record in records:
            writer.write(record)
    return path.read_bytes()


#: Bytes of one two-record v2 chunk: 8-byte chunk header + 2 * 24.
_CHUNK = 8 + 2 * 24

#: Offset of the second chunk's ``link`` column (``icmp`` follows it):
#: the columns before it hold 22 of a record's 24 bytes.
_LINK_AT = 16 + _CHUNK + 8 + 2 * 22


def _poke(data, offset, byte):
    return data[:offset] + bytes([byte]) + data[offset + 1:]


#: name -> (version it damages, good file bytes -> damaged bytes).  The
#: good v2 file holds the four sample records in two-record chunks.
_DAMAGE = {
    "bad-magic": (2, lambda good: b"XXXX" + good[4:]),
    "bad-magic-v1": (1, lambda good: b"XXXX" + good[4:]),
    "empty-file": (2, lambda good: b""),
    "short-header": (2, lambda good: good[:10]),
    "short-header-v1": (1, lambda good: good[:15]),
    "unknown-version": (2, lambda good: good[:4] + struct.pack("<H", 3) + good[6:]),
    "v1-body-not-whole-records": (1, lambda good: good[:-5]),
    "truncated-chunk-header": (2, lambda good: good[:16 + _CHUNK + 3]),
    "truncated-chunk-payload": (2, lambda good: good[:-7]),
    "zero-count-chunk": (2, lambda good: good + struct.pack("<II", 0, 0)),
    "zero-count-first-chunk": (
        2, lambda good: good[:16] + struct.pack("<II", 0, 0) + good[24:]
    ),
    # Structurally whole, but a one-byte index is outside its decode
    # table: admitted as intact, this was an IndexError in the consumer.
    "link-byte-out-of-range": (2, lambda good: _poke(good, _LINK_AT, 9)),
    "icmp-byte-out-of-range": (2, lambda good: _poke(good, _LINK_AT + 3, 2)),
    "link-byte-out-of-range-v1": (
        1, lambda good: _poke(good, 16 + 3 * 24 + 22, 4)
    ),
}


class TestTraceFormat:
    def test_roundtrip_file(self, tmp_path):
        path = tmp_path / "capture.rprt"
        count = write_trace(path, sample_records())
        assert count == 4
        assert read_trace(path) == sample_records()
        assert trace_is_intact(path)

    def test_declared_count(self, tmp_path):
        """The writer stamps the record count into the header on close."""
        path = tmp_path / "capture.rprt"
        write_trace(path, sample_records())
        with open(path, "rb") as fileobj:
            assert read_header(fileobj) == (2, 4)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            read_header(io.BytesIO(b"XXXX" + b"\x00" * 12))

    def test_short_header_rejected(self):
        with pytest.raises(ValueError):
            read_header(io.BytesIO(b"RP"))

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "v1.rprt"
        path.write_bytes(v1_trace_bytes(sample_records())[:-5])
        with pytest.raises(ValueError, match="truncated record"):
            read_trace(path)

    @pytest.mark.parametrize("name", _DAMAGE)
    def test_damaged_file_raises_and_is_not_intact(self, tmp_path, name):
        """Hostile input on both versions: the one decoder raises
        ``ValueError`` -- never a crash, never a silent short read --
        and the cache's admission test says no."""
        version, damage = _DAMAGE[name]
        good = (
            v1_trace_bytes(sample_records()) if version == 1
            else _v2_bytes(tmp_path, sample_records(), chunk_records=2)
        )
        path = tmp_path / "damaged.rprt"
        path.write_bytes(damage(good))
        with pytest.raises(ValueError):
            read_trace(path)
        with pytest.raises(ValueError):
            for _ in read_trace_columns(path, skip_records=3):
                pass
        assert not trace_is_intact(path)

    def test_missing_file_is_not_intact(self, tmp_path):
        assert not trace_is_intact(tmp_path / "nope.rprt")

    def test_unknown_link_rejected(self):
        """``from_records`` is the one encoder and the one validation:
        a bad record raises where the writer columnises it -- by
        ``close`` at the latest -- before any chunk holding it is cut."""
        record = tcp_syn(0.0, 1, 2, 3, 4, "weird-link")
        out = io.BytesIO()
        writer = ColumnarTraceWriter(out)
        with pytest.raises(ValueError, match="unknown link"):
            writer.write(record)
            writer.close()
        assert len(out.getvalue()) == 16  # the header, no chunk

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.rprt"
        assert write_trace(path, []) == 0
        assert read_trace(path) == []
        assert trace_is_intact(path)

    @settings(deadline=None, max_examples=60)
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e7, allow_nan=False),
                st.integers(min_value=0, max_value=2**32 - 1),
                st.integers(min_value=0, max_value=2**32 - 1),
                st.integers(min_value=0, max_value=65535),
                st.integers(min_value=0, max_value=65535),
                st.sampled_from([TcpFlags.SYN, TcpFlags.SYN | TcpFlags.ACK, TcpFlags.RST, TcpFlags.ACK]),
            ),
            max_size=30,
        ),
        chunk_records=st.sampled_from([1, 7, 65536]),
        skip=st.integers(min_value=0, max_value=31),
    )
    def test_property_roundtrip(self, tmp_path_factory, rows, chunk_records, skip):
        """Writer -> decoder at any chunking; *skip* lands before, on
        and inside chunk boundaries (and past the end)."""
        records = [
            PacketRecord(time=t, src=s, dst=d, sport=sp, dport=dp,
                         proto=PROTO_TCP, flags=flags)
            for t, s, d, sp, dp, flags in rows
        ]
        path = tmp_path_factory.mktemp("roundtrip") / "t.rprt"
        with ColumnarTraceWriter.open(path, chunk_records) as writer:
            for record in records:
                writer.write(record)
        assert trace_is_intact(path)
        assert read_trace(path) == records
        batches = list(read_trace_columns(path, skip_records=skip))
        assert [r for b in batches for r in b.to_records()] == records[skip:]
        assert all(0 < len(b) <= chunk_records for b in batches)


class TestFeistel:
    @given(st.integers(min_value=1, max_value=32),
           st.integers(min_value=0, max_value=2**31))
    def test_property_invertible(self, bits, seed):
        import random

        rng = random.Random(seed)
        value = rng.getrandbits(bits)
        encrypted = _feistel(value, bits, key=seed)
        assert 0 <= encrypted < 2**bits
        assert _feistel(encrypted, bits, key=seed, decrypt=True) == value

    def test_bijective_small_domain(self):
        images = {_feistel(v, 8, key=5) for v in range(256)}
        assert len(images) == 256


class TestAnonymizer:
    def test_campus_stays_campus(self):
        anonymizer = Anonymizer(key=42)
        address = parse_ipv4("128.125.7.9")
        masked = anonymizer.anonymize_address(address)
        assert masked >> 16 == address >> 16
        assert masked != address

    def test_campus_invertible(self):
        anonymizer = Anonymizer(key=42)
        address = parse_ipv4("128.125.200.1")
        masked = anonymizer.anonymize_address(address)
        assert anonymizer.deanonymize_campus_address(masked) == address

    def test_external_leaves_campus_prefix(self):
        anonymizer = Anonymizer(key=42)
        for i in range(500):
            masked = anonymizer.anonymize_address(parse_ipv4("16.0.0.0") + i)
            assert masked >> 16 != parse_ipv4("128.125.0.0") >> 16

    def test_campus_bijective(self):
        anonymizer = Anonymizer(key=7)
        base = parse_ipv4("128.125.0.0")
        images = {anonymizer.anonymize_address(base + i) for i in range(2000)}
        assert len(images) == 2000

    def test_deterministic(self):
        a = Anonymizer(key=9).anonymize_address(parse_ipv4("128.125.3.3"))
        b = Anonymizer(key=9).anonymize_address(parse_ipv4("128.125.3.3"))
        assert a == b

    def test_key_matters(self):
        address = parse_ipv4("128.125.3.3")
        assert (
            Anonymizer(key=1).anonymize_address(address)
            != Anonymizer(key=2).anonymize_address(address)
        )

    def test_record_ports_and_flags_untouched(self):
        anonymizer = Anonymizer(key=3)
        record = sample_records()[1]
        masked = anonymizer.anonymize(record)
        assert masked.sport == record.sport
        assert masked.dport == record.dport
        assert masked.flags == record.flags
        assert masked.time == record.time
        assert masked.link == record.link
        assert masked.src != record.src

    def test_deanonymize_external_rejected(self):
        anonymizer = Anonymizer(key=3)
        with pytest.raises(ValueError):
            anonymizer.deanonymize_campus_address(parse_ipv4("16.0.0.1"))

    def test_analysis_invariant_under_anonymization(self):
        """Direction filtering gives identical results on anonymised
        traces -- the property the paper's methodology depends on."""
        from repro.passive.monitor import PassiveServiceTable

        anonymizer = Anonymizer(key=11)
        campus_prefix = parse_ipv4("128.125.0.0") >> 16

        def is_campus(address):
            return address >> 16 == campus_prefix

        plain = PassiveServiceTable(is_campus=is_campus, tcp_ports=frozenset({80}))
        masked = PassiveServiceTable(is_campus=is_campus, tcp_ports=frozenset({80}))
        for record in sample_records():
            plain.observe(record)
            masked.observe(anonymizer.anonymize(record))
        assert len(plain.endpoints()) == len(masked.endpoints())
